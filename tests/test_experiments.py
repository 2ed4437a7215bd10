"""Preset experiment configurations and their convergence behavior."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from sphsolve import (
    EXPERIMENT_IDS,
    ContinuousKernel,
    IllConditionedWarning,
    SingularKernel,
    experiment_f,
    experiment_kernels,
    modified_moments,
    random_rule,
    recompute_f,
    run_experiment,
    unit_response,
)
from conftest import design_rule


def test_preset_kernel_families() -> None:
    assert experiment_kernels(1) == (SingularKernel.one(),
                                     ContinuousKernel.sin_scaled(10.0))
    assert experiment_kernels(2) == (SingularKernel.algebraic(-0.5),
                                     ContinuousKernel.cos_scaled(10.0))
    assert experiment_kernels(3) == (SingularKernel.log(),
                                     ContinuousKernel.constant(1.0))
    assert experiment_kernels(4) == (SingularKernel.mixed(-0.5, -0.5),
                                     ContinuousKernel.sin_scaled(10.0))
    with pytest.raises(ValueError):
        experiment_kernels(5)


def test_preset_f_constants_cross_validate() -> None:
    # every preset runs with the 1-D oracle's f = 1 - 2pi int h K dt; the
    # published constants, and preset 3's closed form, are data checked
    # against it
    for exp_id in EXPERIMENT_IDS:
        assert experiment_f(exp_id) == recompute_f(exp_id)
    assert abs(experiment_f(1) - 1.455449001125579) <= 1e-11
    exact3 = 1.0 - math.pi * (4.0 * math.log(2.0) - 2.0)
    assert abs(experiment_f(3) - exact3) <= 1e-11
    assert experiment_f(4) == pytest.approx(0.9308378854294784, abs=1e-10)

    # the published preset 2 value was rounded upstream: the oracle
    # (confirmed by an independent 1-D adaptive integration) gives
    # 0.3037387328003387, a 3.4e-8 discrepancy that floored this preset's
    # attainable error while the preset ran with the published value
    assert experiment_f(2) == pytest.approx(0.3037387328003387, abs=1e-12)
    assert abs(experiment_f(2) - 0.303738699125466) == pytest.approx(
        3.38e-8, abs=2e-9)


@pytest.mark.parametrize("descriptor", ["log", "alg:-0.5", "mixed:-0.5:-0.5"])
def test_unit_response_of_constant_K_is_c_mu0(descriptor: str) -> None:
    # A 1 = c mu_0 for K = c: the oracle against the closed-form moments
    kernel, c = SingularKernel.parse(descriptor), 0.02
    mu0 = modified_moments(kernel, 0).values[0]
    assert unit_response(kernel, ContinuousKernel.constant(c)) == \
        pytest.approx(c * mu0, rel=1e-14)


def test_run_experiment_record_fields(td10, eval_grid) -> None:
    rec = run_experiment(3, 5, td10, grid=eval_grid)
    assert rec.experiment == 3
    assert rec.n == 5
    assert rec.m == 121
    assert rec.rule_label == td10.label
    assert rec.eta <= 1e-10
    assert rec.uniform_error <= 1e-10
    assert rec.residual <= 1e-10 * (1.0 + abs(rec.f))
    assert rec.seconds > 0.0
    assert rec.condition_estimate >= 1.0
    row = rec.csv_row()
    assert row.startswith("3,5,121,")
    assert len(row.split(",")) == 7


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_stage1_residual_invariant(exp_id: int, td20, eval_grid) -> None:
    rec = run_experiment(exp_id, 10, td20, grid=eval_grid)
    assert rec.residual <= 1e-10 * (1.0 + abs(rec.f))
    assert math.isfinite(rec.uniform_error)


def test_convergence_ladder_on_designs(eval_grid) -> None:
    # errors on t = 2n designs are non-increasing in n up to factor-2 slack
    errors: dict[int, list[float]] = {}
    for exp_id in EXPERIMENT_IDS:
        errors[exp_id] = [
            run_experiment(exp_id, n, design_rule(2 * n), grid=eval_grid).uniform_error
            for n in (10, 15, 20)
        ]
    floor = 1e-12  # below this the sequence is a round-off plateau
    for exp_id, (e10, e15, e20) in errors.items():
        assert e15 <= max(2.0 * e10, floor), (exp_id, errors[exp_id])
        assert e20 <= max(2.0 * e15, floor), (exp_id, errors[exp_id])
    # the oscillatory smooth-K preset actually converges fast
    assert errors[2][2] < errors[2][0] / 1e4
    # preset 1 error is strictly better at n=20 than n=10
    assert errors[1][2] < errors[1][0]


def test_error_decreases_with_mz_constant() -> None:
    # random rules at fixed n: quadrupling m drops eta and the median
    # uniform error over 5 seeds must not increase
    medians = {}
    etas = {}
    for m in (2000, 8000):
        errs, es = [], []
        for seed in range(1, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                rec = run_experiment(3, 10, random_rule(m, seed))
            errs.append(rec.uniform_error)
            es.append(rec.eta)
        medians[m] = float(np.median(errs))
        etas[m] = float(np.median(es))
    assert etas[8000] < etas[2000]
    assert medians[8000] <= medians[2000]


def test_invalid_experiment_id_rejected(td10) -> None:
    with pytest.raises(ValueError):
        run_experiment(0, 5, td10)
