"""Timings of the numerical kernels, each checked before it is timed.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--sizes small|large]

The case ``addition_gemm`` times the solver's product-integration
weights times K: the addition theorem as one BLAS product of basis
matrices, then K.  It is checked before it is timed against
``sphsolve._kernels.product_weight_matrix``, the per-entry Legendre
recurrence w * zonal_sum * sin(10 r).  The case ``k_pass`` times the
solver's K pass over the first stage-2 row block of the grid on the
bundled t-design of degree t = 40 (20 for ``--sizes small``) at n = t/2
with K = sin(10 r): one GEMM, then K applied in cache-sized row chunks.  It is checked with
``np.array_equal`` against the whole-block expression
``K.of_dots(clip(t . x, -1, 1))``, timed once more as ``k_pass_of_dots``,
and to 4 eps of its largest entry against ``k_pass_libm``, the same
chunked pass with libm's ``np.sin(10 r)`` in place of the solver's
half-angle tangent.  Both form their products with the solver's
``sphsolve._blas``, so that the first check compares like with like.
These three rows also print their cost per entry.
The case ``assemble`` times ``assemble_system`` on the same design and K,
which forms the symmetric matrix by halves; it is checked to 1e-13 of its
largest entry against I - W K from the full row-block matrix, timed once
more as ``assemble_full``.  The cases ``lu_after_gemm`` time
``lu_factor`` of that assembled matrix right after a stage-2 GEMM, once
formed by numpy (``numpy``) and once by ``sphsolve._blas`` (``scipy``),
as the median of 5 runs: the numpy and scipy wheels each ship their own
OpenBLAS, and a worker of numpy's pool still spinning after its GEMM
competes with scipy's LU.  The two factorizations are checked to be
equal.  The case ``dense_solve`` times
``solver._solve_dense`` on the same design and K, assembly included: a
float32 LU refined in float64.  It is checked to 1e-12 against the float64
``lu_factor`` and ``lu_solve`` of the same assembled matrix, timed once
more as ``dense_solve_lu_factor``; with ``--sizes large`` both also run on
a random rule of m = 4000 points, where a symmetric-indefinite LDL^T lost
to the float64 LU.  The case ``low_rank_solve`` times
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

from sphsolve import _blas, _kernels, experiments, solver
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
    right = solver._rule_factor(
        design, design_moments,
        solver._target_factor(design_moments, design.points))
    block = grid[solver._row_blocks(len(grid), design.m)[0]]
    left = solver._target_factor(design_moments, block)

    def k_pass():
        return solver._weighted_kernel_block(design.points, right, K, block,
                                             left)

    def k_pass_of_dots():
        B = _blas.matmul(left.T, right)
        B *= K.of_dots(np.clip(_blas.matmul(block, design.points.T),
                               -1.0, 1.0))
        return B

    def k_pass_libm():
        B = _blas.matmul(left.T, right)
        scaled_nodes = -2.0 * design.points.T
        for rows in solver._row_chunks(len(block), design.m):
            r = solver._distance_from_scaled_dots(
                _blas.matmul(block[rows], scaled_nodes))
            r *= 10.0
            B[rows] *= np.sin(r, out=r)
        return B

    expected = k_pass()
    if not np.array_equal(expected, k_pass_of_dots()):
        raise SystemExit("k_pass differs from the whole-block of_dots pass")
    err = np.max(np.abs(k_pass_libm() - expected))
    if err > 4 * np.finfo(np.float64).eps * np.max(np.abs(expected)):
        raise SystemExit(f"k_pass differs from the libm sin pass by {err:.3e}")
    shape = f"({len(block)}, {design.m}) sin"
    for name, fn in (("k_pass", k_pass), ("k_pass_of_dots", k_pass_of_dots),
                     ("k_pass_libm", k_pass_libm)):
        seconds = best_of(fn)
        print(format_row(name, shape, seconds)
              + f" {seconds / expected.size * 1e9:8.2f} ns/entry")

    spec = solver.ProblemSpec(kernel=SingularKernel.log(), K=K, f=1.0,
                              n=n_design, rule=design)

    def assemble():
        return solver.assemble_system(spec, design_moments)[0]

    def assemble_full():
        M = solver._weighted_kernel_matrix(design, design_moments, K,
                                           design.points)
        np.negative(M, out=M)
        np.fill_diagonal(M, M.diagonal() + 1.0)
        return M

    reference = assemble_full()
    err = np.max(np.abs(assemble() - reference))
    if err > 1e-13 * np.max(np.abs(reference)):
        raise SystemExit(f"assemble differs from the full matrix by {err:.3e}")
    shape = f"m={design.m} n={n_design} sin"
    for name, fn in (("assemble", assemble), ("assemble_full", assemble_full)):
        print(format_row(name, shape, best_of(fn)))

    def lu_after(gemm):
        seconds = []
        for _ in range(5):
            gemm(left.T, right)
            start = time.perf_counter()
            lu_piv = lu_factor(reference, check_finite=False)
            seconds.append(time.perf_counter() - start)
        return float(np.median(seconds)), lu_piv

    t_numpy, lu_numpy = lu_after(np.matmul)
    t_scipy, lu_scipy = lu_after(_blas.matmul)
    if not all(np.array_equal(a, b) for a, b in zip(lu_numpy, lu_scipy)):
        raise SystemExit("lu_factor differs after a numpy and a scipy GEMM")
    print(format_row("lu_after_gemm numpy", shape, t_numpy))
    print(format_row("lu_after_gemm scipy", shape, t_scipy))

    dense_specs = [spec]
    if args.sizes == "large":
        dense_specs.append(solver.ProblemSpec(
            kernel=SingularKernel.log(), K=K, f=1.0, n=n_design,
            rule=random_rule(4000, 5)))
    for dense_spec in dense_specs:
        nodes = dense_spec.rule.points
        left_nodes = solver._target_factor(design_moments, nodes)
        b = np.ones(len(nodes))

        def dense_solve():
            return solver._solve_dense(dense_spec, design_moments, b,
                                       left_nodes)[0]

        def dense_solve_lu_factor():
            M, _ = solver.assemble_system(dense_spec, design_moments,
                                          left_nodes)
            return lu_solve(lu_factor(M, overwrite_a=True,
                                      check_finite=False),
                            b, check_finite=False)

        check_close("dense_solve", dense_solve(), dense_solve_lu_factor())
        shape = f"m={len(nodes)} n={n_design} sin"
        for name, fn in (("dense_solve", dense_solve),
                         ("dense_solve_lu_factor", dense_solve_lu_factor)):
            print(format_row(name, shape, best_of(fn)))

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
