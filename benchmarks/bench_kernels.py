"""Timings of the numerical kernels, each checked before it is timed.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--sizes small|large]

The first three cases time the per-entry reference kernels of
``sphsolve._kernels`` on the first rows or columns: ``zonal_sum`` is
checked against ``legendre_table``, ``basis_matrix`` against the
addition theorem Y(x)^T Y(y) = sum_l (2l+1)/(4pi) P_l(x . y), and
``product_weight_matrix`` against w * zonal_sum * sin(10 r).  The case
``addition_gemm`` times the solver's own path for the
product_weight_matrix values: the addition theorem as one BLAS
product of basis matrices, then K.  It is checked against the Legendre
recurrence before it is timed.  The case ``k_pass`` times the solver's K
pass over the first stage-2 row block of the grid on the bundled t-design
of degree t = 40 (20 for ``--sizes small``) at n = t/2 with K = sin(10 r):
one GEMM, then K applied in cache-sized row chunks.  It is checked with
``np.array_equal`` against the whole-block expression
``K.of_dots(clip(t . x, -1, 1))``, timed once more as ``k_pass_of_dots``.
The case ``low_rank_solve`` times
stage 1 of preset 3 (K == 1) at n = 10 on a random rule, which takes the
Woodbury path; it is checked against LU of the assembled matrix, timed
once as ``dense_lu_solve``.  The ``mesh_norm`` cases time the k-d-tree
mesh norm of td030 and of a random rule on a 100k-point probe; each is
checked against the brute-force scan over all probe/point dots, timed
once as ``mesh_norm_brute``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from sphsolve import _kernels, experiments, solver
from sphsolve.harmonics import legendre_table
from sphsolve.moments import ModifiedMoments, SingularKernel, modified_moments
from sphsolve.pointsets import (QuadratureRule, bundled_pointset_path,
                                load_pointset, random_rule)
from sphsolve.sphere import mesh_norm, uniform_random_points


def best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def brute_force_mesh_norm(points: np.ndarray, probe: np.ndarray,
                          chunk: int = 4096) -> float:
    worst = -1.0
    for start in range(0, probe.shape[0], chunk):
        dots = np.clip(probe[start:start + chunk] @ points.T, -1.0, 1.0)
        worst = max(worst, float(np.arccos(np.min(np.max(dots, axis=1)))))
    return worst


def format_row(name: str, shape: str, seconds: float) -> str:
    return f"{name:24s} {shape:>18s} {seconds * 1e3:10.2f}"


def check_close(name: str, got: np.ndarray, expected: np.ndarray) -> None:
    err = np.max(np.abs(got - expected))
    if err > 1e-12 * (1.0 + np.max(np.abs(expected))):
        raise SystemExit(f"{name} differs from its reference by {err:.3e}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", choices=("small", "large"),
                        default="large")
    args = parser.parse_args()

    if args.sizes == "large":
        m_points, n_grid, degree, m_solve = 1681, 5000, 40, 8000
    else:
        m_points, n_grid, degree, m_solve = 441, 1000, 20, 2000

    rng = np.random.default_rng(0)
    pts = uniform_random_points(m_points, seed=1).points
    grid = uniform_random_points(n_grid, seed=2).points
    dots = np.clip(grid @ pts.T, -1.0, 1.0)
    coeffs = rng.standard_normal(degree + 1)
    w = np.full(m_points, 4.0 * np.pi / m_points)

    print(f"{'kernel':24s} {'shape':>18s} {'ms':>10s}")

    head = dots[:100]
    zs = _kernels.zonal_sum(coeffs, head)
    check_close("zonal_sum", zs,
                np.tensordot(coeffs, legendre_table(degree, head), axes=1))
    Y = _kernels.basis_matrix(degree, pts[:200])
    ell = np.arange(degree + 1)
    table = legendre_table(degree, np.clip(pts[:200] @ pts[:200].T, -1.0, 1.0))
    check_close("basis_matrix", Y.T @ Y,
                np.tensordot((2 * ell + 1) / (4.0 * np.pi), table, axes=1))
    r = np.sqrt(np.maximum(2.0 * (1.0 - head), 0.0))
    check_close("product_weight_matrix",
                _kernels.product_weight_matrix(head, w, coeffs,
                                               _kernels.K_SIN, 10.0),
                w * zs * np.sin(10.0 * r))

    cases = [
        ("zonal_sum", f"({n_grid}, {m_points}) l<={degree}",
         lambda: _kernels.zonal_sum(coeffs, dots)),
        ("basis_matrix", f"deg {degree} x {m_points}",
         lambda: _kernels.basis_matrix(degree, pts)),
        ("product_weight_matrix", f"({n_grid}, {m_points}) sin",
         lambda: _kernels.product_weight_matrix(
             dots, w, coeffs, _kernels.K_SIN, 10.0)),
    ]
    for name, shape, fn in cases:
        print(format_row(name, shape, best_of(fn)))

    # sum_l c_l P_l(t) = sum_l mu_l sum_k Y_lk Y_lk with mu_l = 4pi c_l/(2l+1)
    mu = coeffs * 4.0 * np.pi / (2 * np.arange(degree + 1) + 1)
    moments = ModifiedMoments(kernel=SingularKernel.one(), n=degree,
                              values=mu, method="closed_form")
    rule = QuadratureRule(points=pts, weights=w, label="bench")
    K = solver.ContinuousKernel.sin_scaled(10.0)

    def gemm():
        return solver._weighted_kernel_matrix(rule, moments, K, grid)

    check_close("addition_gemm", gemm(),
                _kernels.product_weight_matrix(dots, w, coeffs,
                                               _kernels.K_SIN, 10.0))
    print(format_row("addition_gemm", f"({n_grid}, {m_points}) sin",
                     best_of(gemm)))

    design = load_pointset(bundled_pointset_path(
        f"td{degree:03d}_{(degree + 1) ** 2:05d}.txt"))
    n_design = degree // 2
    design_moments = modified_moments(SingularKernel.log(), n_design)
    right = solver._rule_factor(design, design_moments)
    block = grid[solver._row_blocks(len(grid), design.m)[0]]
    left = solver._target_factor(n_design, block)

    def k_pass():
        return solver._weighted_kernel_block(design, right, K, block, left)

    def k_pass_of_dots():
        B = left.T @ right
        B *= K.of_dots(np.clip(block @ design.points.T, -1.0, 1.0))
        return B

    if not np.array_equal(k_pass(), k_pass_of_dots()):
        raise SystemExit("k_pass differs from the whole-block of_dots pass")
    shape = f"({len(block)}, {design.m}) sin"
    print(format_row("k_pass", shape, best_of(k_pass)))
    print(format_row("k_pass_of_dots", shape, best_of(k_pass_of_dots)))

    kernel, K_one = experiments.experiment_kernels(3)
    spec = solver.ProblemSpec(kernel=kernel, K=K_one,
                              f=experiments.experiment_f(3), n=10,
                              rule=random_rule(m_solve, 3))
    sol = solver.solve_stage1(spec)
    start = time.perf_counter()
    M, b = solver.assemble_system(spec, sol.moments)
    phi = lu_solve(lu_factor(M, overwrite_a=True), b)
    t_dense = time.perf_counter() - start
    err = np.max(np.abs(sol.nodal_values - phi))
    if sol.path != "low-rank" or err > 1e-10 * np.max(np.abs(phi)):
        raise SystemExit(f"low_rank_solve ({sol.path}) differs from the "
                         f"dense solve by {err:.3e}")
    shape = f"m={m_solve} n=10 K=1"
    print(format_row("low_rank_solve", shape,
                     best_of(lambda: solver.solve_stage1(spec, sol.moments))))
    print(format_row("dense_lu_solve", shape, t_dense))

    probe = uniform_random_points(100_000, seed=2024)
    for rule in (load_pointset(bundled_pointset_path("td030_00961.txt")),
                 random_rule(m_solve, 1)):
        start = time.perf_counter()
        reference = brute_force_mesh_norm(rule.points, probe.points)
        t_brute = time.perf_counter() - start
        h = mesh_norm(rule.points, probe)
        if abs(h - reference) > 1e-12 * reference:
            raise SystemExit(f"mesh_norm differs from the brute force by "
                             f"{abs(h - reference):.3e}")
        shape = f"m={rule.m} P={len(probe)}"
        print(format_row("mesh_norm", shape,
                         best_of(lambda: mesh_norm(rule.points, probe))))
        print(format_row("mesh_norm_brute", shape, t_brute))


if __name__ == "__main__":
    main()
