"""The benchmark's workloads: inputs made from the seed, ops and their checks.

Each workload is a list of ops run one after another by a single client
(a closed loop): the next op starts when the previous one returns.

* ``ladder``: the criterion-2 ladder, presets 1, 2 and 4 at n = 10, 15, 20
  on the bundled t = 2n designs (m = 441, 961, 1681); the seed picks the
  5000-point evaluation grid.  K is not constant and m << T, so stage 2
  dominates.
* ``dense-m8000``: preset 3 (log h, K == 1) at n = 10 on one random rule
  with m = 8000 drawn from the seed.  The only workload where LU and memory
  matter, and the only one with constant K.
* ``mz-designs``: ``mz_constant`` for every bundled design with t <= 30 at
  every n <= t/2 (63 reports) on one 100k-point probe drawn from the seed.
  No solver code runs; the mesh norm dominates.

Functions of ``sphsolve`` are looked up on their module at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from sphsolve import _kernels, experiments, mz, pointsets, sphere

GRID_SIZE = 5000
PROBE_SIZE = 100_000

LADDER_PRESETS = (1, 2, 4)
LADDER_DEGREES = (10, 15, 20)

DENSE_PRESET = 3
DENSE_N = 10
DENSE_M = 8000

MZ_MAX_T = 30

# Per-op acceptance, from the acceptance suite and the solver tests.
RESIDUAL_TOL = 1e-10      # stage-1 residual, scaled by 1 + |f| as in the tests
ETA_TOL = 1e-10           # criterion 3: eta on a bundled design
MONOTONE_SLACK = 2.0      # criterion 2: error(n) <= 2 error(previous n)
CRITERION2_TOL = {(2, 20): 1e-4}  # criterion 2 tolerance at n = 20
# No acceptance bound exists for random rules.  Today's errors are 0.09-0.13
# (eta ~0.3); 0.5 still catches a solve that has lost phi == 1.
DENSE_ERROR_TOL = 0.5

# The kernel micro-cases of benchmarks/bench_kernels.py (its "large" size).
MICRO_M, MICRO_T, MICRO_DEGREE = 1681, 5000, 40


@dataclass(frozen=True)
class Op:
    """One unit of client work and the check its result must pass.

    check(result, passed) returns None or the reason the op failed;
    passed maps the keys of earlier ops of the same pass that passed to
    their results.
    """

    key: Hashable
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], str | None]


def derived_seeds(seed: int, count: int) -> list[int]:
    """count independent integer seeds from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def clear_caches() -> None:
    """Drop the lazily filled caches so that set-up pays for them again."""
    experiments.recompute_f.cache_clear()


def design_rule(t: int):
    m = (t + 1) ** 2
    return pointsets.load_pointset(
        pointsets.bundled_pointset_path(f"td{t:03d}_{m:05d}.txt"),
        label=f"td{t}")


def _finite(**values: float) -> str | None:
    for name, value in values.items():
        if not math.isfinite(value):
            return f"{name} is {value}"
    return None


def check_solve(rec, error_bound: float, design: bool) -> str | None:
    """Why an ExperimentRecord fails its acceptance bounds, or None."""
    bad = _finite(uniform_error=rec.uniform_error, residual=rec.residual,
                  eta=rec.eta, condition_estimate=rec.condition_estimate)
    if bad:
        return bad
    residual_tol = RESIDUAL_TOL * (1.0 + abs(rec.f))
    if rec.residual > residual_tol:
        return f"residual {rec.residual:.3e} > {residual_tol:.3e}"
    if rec.uniform_error > error_bound:
        return f"uniform error {rec.uniform_error:.3e} > {error_bound:.3e}"
    if design and rec.eta > ETA_TOL:
        return f"eta {rec.eta:.3e} > {ETA_TOL:.0e} on a design"
    return None


def check_mz(report) -> str | None:
    """Why an MZReport on a design fails criterion 3, or None."""
    bad = _finite(eta=report.eta, lambda_min=report.lambda_min,
                  lambda_max=report.lambda_max, mesh_norm=report.mesh_norm)
    if bad:
        return bad
    if report.eta > ETA_TOL:
        return f"eta {report.eta:.3e} > {ETA_TOL:.0e} on a design"
    return None


def ladder_bound(preset: int, n: int, passed: dict) -> float:
    """Criterion 2 for one rung: tolerance at n = 20, monotone in n."""
    bound = CRITERION2_TOL.get((preset, n), math.inf)
    i = LADDER_DEGREES.index(n)
    previous = passed.get((preset, LADDER_DEGREES[i - 1])) if i else None
    if previous is not None:
        bound = min(bound, MONOTONE_SLACK * previous.uniform_error)
    return bound


def _experiment_op(preset: int, n: int, rule, grid,
                   check: Callable[[Any, dict], str | None]) -> Op:
    return Op(key=(preset, n), label=f"experiment {preset} n={n} {rule.label}",
              run=lambda: experiments.run_experiment(preset, n, rule, grid=grid),
              check=check)


def setup_ladder(seed: int) -> list[Op]:
    (grid_seed,) = derived_seeds(seed, 1)
    for preset in LADDER_PRESETS:
        experiments.experiment_f(preset)
    grid = sphere.uniform_random_points(GRID_SIZE, seed=grid_seed)
    rules = {n: design_rule(2 * n) for n in LADDER_DEGREES}

    def check(preset: int, n: int):
        return lambda rec, passed: check_solve(
            rec, ladder_bound(preset, n, passed), design=True)

    return [_experiment_op(p, n, rules[n], grid, check(p, n))
            for p in LADDER_PRESETS for n in LADDER_DEGREES]


def setup_dense(seed: int) -> list[Op]:
    rule_seed, grid_seed = derived_seeds(seed, 2)
    experiments.experiment_f(DENSE_PRESET)
    grid = sphere.uniform_random_points(GRID_SIZE, seed=grid_seed)
    rule = pointsets.random_rule(DENSE_M, rule_seed)
    return [_experiment_op(
        DENSE_PRESET, DENSE_N, rule, grid,
        lambda rec, passed: check_solve(rec, DENSE_ERROR_TOL, design=False))]


def setup_mz(seed: int) -> list[Op]:
    (probe_seed,) = derived_seeds(seed, 1)
    probe = sphere.uniform_random_points(PROBE_SIZE, seed=probe_seed)
    designs = sorted(t for t in (int(name[2:5])
                                 for name in pointsets.bundled_pointsets()
                                 if name.startswith("td"))
                     if t <= MZ_MAX_T)
    ops = []
    for t in designs:
        rule = design_rule(t)
        for n in range(t // 2 + 1):
            ops.append(Op(key=(t, n), label=f"mz_constant td{t} n={n}",
                          run=lambda rule=rule, n=n: mz.mz_constant(
                              rule, n, probe=probe),
                          check=lambda report, passed: check_mz(report)))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "ladder": setup_ladder,
    "dense-m8000": setup_dense,
    "mz-designs": setup_mz,
}


def micro_cases(seed: int):
    """The kernel micro-benchmarks, inputs drawn from the seed.

    Returns the named cases and the check of their outputs.
    """
    point_seed, grid_seed, coeff_seed = derived_seeds(seed, 3)
    pts = sphere.uniform_random_points(MICRO_M, seed=point_seed).points
    grid = sphere.uniform_random_points(MICRO_T, seed=grid_seed).points
    dots = np.clip(grid @ pts.T, -1.0, 1.0)
    coeffs = np.random.default_rng(coeff_seed).standard_normal(MICRO_DEGREE + 1)
    w = np.full(MICRO_M, 4.0 * np.pi / MICRO_M)
    cases = [
        ("zonal_sum", lambda: _kernels.zonal_sum(coeffs, dots)),
        ("basis_matrix", lambda: _kernels.basis_matrix(MICRO_DEGREE, pts)),
        ("product_weight_matrix", lambda: _kernels.product_weight_matrix(
            dots, w, coeffs, _kernels.K_SIN, 10.0)),
    ]
    return cases, micro_check(dots, w)


def micro_check(dots: np.ndarray, w: np.ndarray):
    """Check of the micro-case outputs: all finite, and the fused kernel
    equal to w * zonal_sum * sin(10 r) elementwise."""
    def check(outputs: dict[str, np.ndarray]) -> str | None:
        for name, out in outputs.items():
            if not np.all(np.isfinite(out)):
                return f"{name} returned a non-finite value"
        r = np.sqrt(np.maximum(2.0 * (1.0 - dots), 0.0))
        expected = w * outputs["zonal_sum"] * np.sin(10.0 * r)
        err = float(np.max(np.abs(outputs["product_weight_matrix"] - expected)))
        tol = 1e-12 * (1.0 + float(np.max(np.abs(expected))))
        if err > tol:
            return f"product_weight_matrix differs from w * zonal_sum * K by {err:.3e}"
        return None

    return check
