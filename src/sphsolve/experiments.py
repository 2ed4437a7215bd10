"""Preset experiment configurations with constant exact solution phi == 1.

Each preset fixes (h, K) and the constant right-hand side f = 1 - (A 1)(x),
where A is the integral operator; f is then constant because h and K are
radial, and the equation has the known solution phi == 1:

  1: h = 1,                      K = sin(10|x-y|)
  2: h = |x-y|^-0.5,             K = cos(10|x-y|)
  3: h = log|x-y|,               K = 1
  4: h = |x-y|^-0.5 |x+y|^-0.5,  K = sin(10|x-y|)

Every preset takes f from the endpoint-refined 1-D oracle, recompute_f.
The published constants, and preset 3's exact 1 - pi(4 ln 2 - 2), are test
data checked against it; preset 2's published value is 3.4e-8 off the
oracle, an offset that held that preset's error near 1e-7.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .moments import SingularKernel, profile_integral
from .pointsets import QuadratureRule
from .solver import (ContinuousKernel, ProblemSpec, solve_stage1,
                     uniform_error)
from .sphere import EvaluationGrid, uniform_random_points

__all__ = ["ExperimentRecord", "EXPERIMENT_IDS", "experiment_kernels",
           "experiment_f", "recompute_f", "run_experiment", "run_spec",
           "DEFAULT_GRID_SIZE", "DEFAULT_GRID_SEED"]

DEFAULT_GRID_SIZE = 5000
DEFAULT_GRID_SEED = 2024

EXPERIMENT_IDS = (1, 2, 3, 4)

@dataclass(frozen=True)
class ExperimentRecord:
    """One run: configuration echo plus the measured outcomes."""

    experiment: int
    n: int
    m: int
    eta: float
    uniform_error: float
    residual: float
    seconds: float
    condition_estimate: float
    rule_label: str
    f: float
    solver_path: str  # DiscreteSolution.path: "dense-lu" or "low-rank"

    def csv_row(self) -> str:
        return (f"{self.experiment},{self.n},{self.m},{self.eta:.17g},"
                f"{self.uniform_error:.17g},{self.residual:.17g},"
                f"{self.seconds:.17g}")


def experiment_kernels(exp_id: int) -> tuple[SingularKernel, ContinuousKernel]:
    if exp_id == 1:
        return SingularKernel.one(), ContinuousKernel.sin_scaled(10.0)
    if exp_id == 2:
        return SingularKernel.algebraic(-0.5), ContinuousKernel.cos_scaled(10.0)
    if exp_id == 3:
        return SingularKernel.log(), ContinuousKernel.constant(1.0)
    if exp_id == 4:
        return SingularKernel.mixed(-0.5, -0.5), ContinuousKernel.sin_scaled(10.0)
    raise ValueError(f"experiment id must be one of {EXPERIMENT_IDS}, got {exp_id}")


@lru_cache(maxsize=None)
def recompute_f(exp_id: int) -> float:
    """f = 1 - 2pi int h K dt from the endpoint-refined oracle, with
    |x-y| = sqrt(2 up) at the distance up = 1 - t from +1."""
    kernel, K = experiment_kernels(exp_id)
    return 1.0 - profile_integral(
        lambda up, um: kernel.profile(up, um) * K.of_distance(np.sqrt(2.0 * up)))


def experiment_f(exp_id: int) -> float:
    """The constant right-hand side each preset runs with: the oracle's."""
    return recompute_f(exp_id)


def run_spec(spec: ProblemSpec, exact: float | None, grid: EvaluationGrid,
             experiment: int = 0) -> ExperimentRecord:
    """One timed solve of spec with a constant f: stage 1, then the uniform
    error of stage 2 on the grid against the constant exact solution (nan
    when exact is None)."""
    start = time.perf_counter()
    sol = solve_stage1(spec)
    err = uniform_error(sol, exact, grid) if exact is not None else math.nan
    seconds = time.perf_counter() - start
    return ExperimentRecord(experiment=experiment, n=spec.n, m=spec.rule.m,
                            eta=sol.eta, uniform_error=err,
                            residual=sol.residual, seconds=seconds,
                            condition_estimate=sol.condition_estimate,
                            rule_label=spec.rule.label, f=spec.f,
                            solver_path=sol.path)


def run_experiment(exp_id: int, n: int, rule: QuadratureRule,
                   grid: EvaluationGrid | None = None) -> ExperimentRecord:
    """Full pipeline for one preset: solve, evaluate, compare against phi == 1."""
    kernel, K = experiment_kernels(exp_id)
    if grid is None:
        grid = uniform_random_points(DEFAULT_GRID_SIZE, seed=DEFAULT_GRID_SEED)
    spec = ProblemSpec(kernel=kernel, K=K, f=experiment_f(exp_id), n=n,
                       rule=rule)
    return run_spec(spec, 1.0, grid, experiment=exp_id)
