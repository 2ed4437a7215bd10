"""Two-stage collocation solver: weights, assembly, stage 1, stage 2."""

from __future__ import annotations

import itertools
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.special import lpmv

from sphsolve import (
    ContinuousKernel,
    HarmonicBasis,
    IllConditionedWarning,
    ModifiedMoments,
    NonFiniteInputError,
    ProblemSpec,
    QuadratureRule,
    SingularKernel,
    SingularSystemError,
    assemble_system,
    equal_area_points,
    eval_basis_matrix,
    evaluate_stage2,
    experiment_f,
    experiment_kernels,
    legendre_table,
    modified_moments,
    mz_constant,
    oracle_moments_vector,
    profile_integral,
    random_rule,
    run_experiment,
    solve_stage1,
    uniform_error,
    uniform_random_points,
    weight_matrix,
)
from sphsolve import _blas, _kernels, solver
from sphsolve.mz import gram_matrix

from conftest import design_rule

FOUR_PI = 4.0 * math.pi


def rotation_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def test_continuous_kernel_families() -> None:
    r = np.array([0.0, 1.0, 2.0])
    assert np.allclose(ContinuousKernel.constant(2.5).of_distance(r), 2.5)
    assert np.allclose(ContinuousKernel.sin_scaled(10.0).of_distance(r),
                       np.sin(10.0 * r))
    assert np.allclose(ContinuousKernel.cos_scaled(10.0).of_distance(r),
                       np.cos(10.0 * r))
    assert ContinuousKernel.constant(1.0).describe() == "const:1"
    assert ContinuousKernel.sin_scaled(10.0).describe() == "sin:10"
    assert ContinuousKernel.cos_scaled(0.5).describe() == "cos:0.5"

    custom = ContinuousKernel.custom(lambda rr: rr ** 2)
    assert custom.describe() == "custom"
    # of_dots feeds |x-y| = sqrt(2(1-t)) through the distance profile
    dots = np.array([1.0, 0.0, -1.0])
    assert np.allclose(custom.of_dots(dots), 2.0 * (1.0 - dots))


def test_weight_matrix_collapses_to_weights_without_singularity(td20) -> None:
    # h == 1: every modified moment beyond mu_0 vanishes, so W_j(x) = w_j
    moments = modified_moments(SingularKernel.one(), 10)
    targets = uniform_random_points(100, seed=21).points
    W = weight_matrix(td20, moments, targets)
    assert W.shape == (100, td20.m)
    assert np.max(np.abs(W - td20.weights[None, :])) <= 1e-12

    x = targets[3]
    assert np.allclose(weight_matrix(td20, moments, x[None, :])[0], W[3],
                       atol=1e-15)


def test_weight_sums_obey_hyperinterpolant_bound(td40) -> None:
    # sum_j |W_j(x)| <= sqrt(2pi int h^2 dt) sqrt(1 + eta) sqrt(sum_j w_j)
    n = 20
    kernel = SingularKernel.log()
    moments = modified_moments(kernel, n)
    eta = mz_constant(td40, n).eta

    h2 = profile_integral(lambda up, um: kernel.profile(up, um) ** 2)
    # closed form of 2pi int (log profile)^2 dt for cross-validation
    assert h2 == pytest.approx(
        math.pi * (4.0 * math.log(2.0) ** 2 - 4.0 * math.log(2.0) + 2.0),
        rel=1e-12)

    bound = math.sqrt(h2) * math.sqrt(1.0 + eta) * math.sqrt(FOUR_PI)
    targets = uniform_random_points(50, seed=33).points
    W = weight_matrix(td40, moments, targets)
    assert np.max(np.abs(W).sum(axis=1)) <= bound + 1e-12


def test_assembled_matrix_structure_for_plain_rule(td10) -> None:
    # h == 1 and K == 1 give M = I - (4pi/m) * ones
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(1.0),
                       f=1.0, n=5, rule=td10)
    M, b = assemble_system(spec)
    m = td10.m
    expected = np.eye(m) - (FOUR_PI / m) * np.ones((m, m))
    assert np.max(np.abs(M - expected)) <= 1e-12
    assert np.allclose(b, 1.0)


def test_constant_K_assembles_without_distances(td10, monkeypatch) -> None:
    # (n+1)^2 = m: the dense path.  A constant K scales each block by its c
    # and forms no distance; the M equals that of the same constant given
    # as a distance function, bit for bit.
    def spec(K):
        return ProblemSpec(kernel=SingularKernel.log(), K=K, f=1.0, n=10,
                           rule=td10)

    custom, _ = assemble_system(
        spec(ContinuousKernel.custom(lambda r: np.full_like(r, 0.7))))

    def no_distances(r):
        raise AssertionError("a constant K formed distances")

    monkeypatch.setattr(solver, "_distance_from_scaled_dots", no_distances)
    M, _ = assemble_system(spec(ContinuousKernel.constant(0.7)))
    assert np.array_equal(M, custom)


def test_assemble_rejects_mismatched_moments(td10) -> None:
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(1.0),
                       f=1.0, n=5, rule=td10)
    with pytest.raises(ValueError, match="moments"):
        assemble_system(spec, modified_moments(SingularKernel.one(), 4))
    with pytest.raises(ValueError, match="moments"):
        assemble_system(spec, modified_moments(SingularKernel.log(), 5))


def test_fixed_point_constant_solution(td10, eval_grid) -> None:
    # K == 1, f == 1 - 4pi: by construction phi == 1 solves the equation
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(1.0),
                       f=1.0 - FOUR_PI, n=5, rule=td10)
    sol = solve_stage1(spec)
    assert np.max(np.abs(sol.nodal_values - 1.0)) <= 1e-10
    assert uniform_error(sol, 1.0, eval_grid) <= 1e-10
    assert sol.eta <= 1e-10  # design rule: eta at round-off
    assert sol.condition_estimate >= 1.0
    assert sol.residual <= 1e-10 * (1.0 + abs(1.0 - FOUR_PI))


def test_zero_rhs_gives_zero_solution(td10, eval_grid) -> None:
    spec = ProblemSpec(kernel=SingularKernel.log(),
                       K=ContinuousKernel.sin_scaled(10.0),
                       f=0.0, n=5, rule=td10)
    sol = solve_stage1(spec)
    assert np.max(np.abs(sol.nodal_values)) <= 1e-12
    assert uniform_error(sol, 0.0, eval_grid) <= 1e-12


def test_stage2_reproduces_nodal_values(td20) -> None:
    # evaluating the interpolant at a node rearranges the stage-1 equation
    spec = ProblemSpec(kernel=SingularKernel.algebraic(-0.5),
                       K=ContinuousKernel.cos_scaled(10.0),
                       f=0.303738699125466, n=10, rule=td20)
    sol = solve_stage1(spec)
    at_nodes = evaluate_stage2(sol, td20.points)
    assert np.max(np.abs(at_nodes - sol.nodal_values)) <= 1e-10


@pytest.mark.parametrize("kernel, K", [
    (SingularKernel.log(), ContinuousKernel.constant(0.5)),       # constant K
    (SingularKernel.one(), ContinuousKernel.sin_scaled(2.0)),     # rank 1
    (SingularKernel.log(), ContinuousKernel.cos_scaled(2.0))],    # general
    ids=["constant", "rank-1", "general"])
def test_stage2_at_no_targets(kernel, K, td10) -> None:
    sol = solve_stage1(ProblemSpec(kernel=kernel, K=K, f=1.0, n=4, rule=td10))
    assert evaluate_stage2(sol, np.empty((0, 3))).shape == (0,)


def test_uniform_error_against_self_and_callable(td10, eval_grid) -> None:
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(1.0),
                       f=1.0 - FOUR_PI, n=3, rule=td10)
    sol = solve_stage1(spec)
    values = evaluate_stage2(sol, eval_grid.points)

    def exact(points: np.ndarray) -> np.ndarray:
        idx = {tuple(p): i for i, p in enumerate(eval_grid.points)}
        return np.array([values[idx[tuple(p)]] for p in points])

    assert uniform_error(sol, exact, eval_grid) == 0.0
    assert uniform_error(sol, 1.0, eval_grid) <= 1e-10


def test_matches_classic_quadrature_method(td20, eval_grid) -> None:
    # h == 1 reduces the scheme to the plain quadrature (Nystrom) method:
    # solve (I - K(x_i, x_j) w_j) phi = f directly and compare everything
    K = ContinuousKernel.sin_scaled(10.0)
    f = 1.455449001125579
    spec = ProblemSpec(kernel=SingularKernel.one(), K=K, f=f, n=10, rule=td20)
    sol = solve_stage1(spec)

    dots = np.clip(td20.points @ td20.points.T, -1.0, 1.0)
    M = np.eye(td20.m) - K.of_dots(dots) * td20.weights[None, :]
    phi = lu_solve(lu_factor(M), np.full(td20.m, f))
    assert np.max(np.abs(sol.nodal_values - phi)) <= 1e-12

    tdots = np.clip(eval_grid.points @ td20.points.T, -1.0, 1.0)
    classic = f + (K.of_dots(tdots) * td20.weights[None, :]) @ phi
    ours = evaluate_stage2(sol, eval_grid.points)
    assert np.max(np.abs(ours - classic)) <= 1e-12


def test_rotation_equivariance() -> None:
    # rotating the rule and the data rotates the solution, nothing else
    Q = rotation_matrix(17)
    base = equal_area_points(200)
    rotated = QuadratureRule(points=base.points @ Q.T,
                             weights=base.weights, label="rotated")
    a = np.array([0.3, -1.1, 0.7])

    def f_base(points: np.ndarray) -> np.ndarray:
        return np.exp(points @ a)

    def f_rot(points: np.ndarray) -> np.ndarray:
        return np.exp(points @ (Q @ a))

    kernel = SingularKernel.log()
    K = ContinuousKernel.cos_scaled(10.0)
    sol_base = solve_stage1(ProblemSpec(kernel=kernel, K=K, f=f_base,
                                        n=8, rule=base))
    sol_rot = solve_stage1(ProblemSpec(kernel=kernel, K=K, f=f_rot,
                                       n=8, rule=rotated))
    assert np.max(np.abs(sol_base.nodal_values - sol_rot.nodal_values)) <= 1e-10

    targets = uniform_random_points(64, seed=12).points
    v_base = evaluate_stage2(sol_base, targets)
    v_rot = evaluate_stage2(sol_rot, targets @ Q.T)
    assert np.max(np.abs(v_base - v_rot)) <= 1e-10


def test_singular_system_is_reported() -> None:
    # two equal-weight poles with K c w = 1/2 exactly: the collocation
    # matrix is [[1/2, -1/2], [-1/2, 1/2]], singular in floats as well
    rule = equal_area_points(2)
    c = 0.25 / math.pi
    assert c * rule.weights[0] == 0.5  # exact in float64
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(c),
                       f=1.0, n=0, rule=rule)
    with pytest.raises(SingularSystemError):
        solve_stage1(spec)


def test_near_singular_system_warns(td10) -> None:
    # K c = 1/(4pi) makes M = I - (1/m) ones: rank-deficient up to round-off
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(1.0 / FOUR_PI),
                       f=1.0, n=0, rule=td10)
    with pytest.warns(IllConditionedWarning):
        try:
            solve_stage1(spec)
        except SingularSystemError:
            pytest.skip("rounded to exactly singular on this platform")


def test_problem_spec_validation(td10) -> None:
    for n in (-1, 2.5):
        with pytest.raises(ValueError, match="degree must be an integer"):
            ProblemSpec(kernel=SingularKernel.one(),
                        K=ContinuousKernel.constant(1.0),
                        f=1.0, n=n, rule=td10)
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(1.0),
                       f=2.5, n=0, rule=td10)
    assert np.allclose(spec.f_values(td10.points), 2.5)


def test_solution_values_are_frozen(td10) -> None:
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(1.0),
                       f=1.0 - FOUR_PI, n=0, rule=td10)
    sol = solve_stage1(spec)
    with pytest.raises(ValueError):
        sol.nodal_values[0] = 7.0


def test_custom_continuous_kernel_runs_unfused(td10, eval_grid) -> None:
    # a custom K given as a distance function: same answer as the
    # built-in it imitates
    K_custom = ContinuousKernel.custom(lambda r: np.sin(10.0 * r))
    K_builtin = ContinuousKernel.sin_scaled(10.0)
    f = 1.455449001125579
    kernel = SingularKernel.one()
    sol_c = solve_stage1(ProblemSpec(kernel=kernel, K=K_custom, f=f,
                                     n=5, rule=td10))
    sol_b = solve_stage1(ProblemSpec(kernel=kernel, K=K_builtin, f=f,
                                     n=5, rule=td10))
    assert np.max(np.abs(sol_c.nodal_values - sol_b.nodal_values)) <= 1e-12
    vc = evaluate_stage2(sol_c, eval_grid.points[:100])
    vb = evaluate_stage2(sol_b, eval_grid.points[:100])
    assert np.max(np.abs(vc - vb)) <= 1e-12


def test_custom_kernel_may_return_a_scalar(td10, eval_grid) -> None:
    # a custom K that returns one number for every distance is the
    # constant K; with h == 1 stage 2 takes the rank-1 chunk path, which
    # needs K as a whole chunk
    kernel = SingularKernel.one()
    sol_c = solve_stage1(ProblemSpec(
        kernel=kernel, K=ContinuousKernel.custom(lambda r: 0.05), f=1.0,
        n=5, rule=td10))
    sol_k = solve_stage1(ProblemSpec(
        kernel=kernel, K=ContinuousKernel.constant(0.05), f=1.0, n=5,
        rule=td10))
    assert sol_c.path == "dense-lu" and sol_c.factor.shape[0] == 1
    assert np.max(np.abs(sol_c.nodal_values - sol_k.nodal_values)) <= 1e-12
    vc = evaluate_stage2(sol_c, eval_grid.points[:100])
    vk = evaluate_stage2(sol_k, eval_grid.points[:100])
    assert np.max(np.abs(vc - vk)) <= 1e-12


def zonal_coefficients(moments) -> np.ndarray:
    degree = np.arange(moments.n + 1)
    return moments.values * (2 * degree + 1) / FOUR_PI


EQUIVALENCE_KERNELS = {
    "constant": ContinuousKernel.constant(2.5),
    "sin": ContinuousKernel.sin_scaled(10.0),
    "cos": ContinuousKernel.cos_scaled(10.0),
    "custom": ContinuousKernel.custom(lambda r: np.exp(-r) * (1.0 + r ** 2)),
}


def moment_sets(n: int) -> dict:
    """Moment vectors of degree n with and without vanishing moments."""
    log = modified_moments(SingularKernel.log(), n)
    interior = log.values.copy()
    interior[1::3] = 0.0  # degrees 1, 4, 7, ...; the top one too at n = 10
    return {
        "log": log,
        "one": modified_moments(SingularKernel.one(), n),
        "mixed-even": modified_moments(SingularKernel.mixed(-0.5, -0.5), n),
        "mixed": modified_moments(SingularKernel.mixed(-0.3, -0.8), n),
        "interior-zeros": ModifiedMoments(log.kernel, n, interior,
                                          "closed_form"),
        "all-zero": ModifiedMoments(log.kernel, n, np.zeros(n + 1),
                                    "closed_form"),
    }


def active_rank(moments) -> int:
    """Rows the weight factor keeps: 2l+1 per degree with mu_l != 0, and
    row 0 always."""
    degree = np.arange(moments.n + 1)
    active = (moments.values != 0.0) | (degree == 0)
    return int(np.sum((2 * degree + 1)[active]))


def weighted_kernel(rule, moments, K, targets) -> np.ndarray:
    """W_j(x) K(x, x_j) from weight_matrix and one K.of_dots over every
    target: a reference for the solver's row-chunked block builder."""
    dots = np.clip(targets @ rule.points.T, -1.0, 1.0)
    return weight_matrix(rule, moments, targets) * K.of_dots(dots)


WEIGHTED_KERNEL_CASES = [
    *itertools.product(["td20", "random500"], sorted(EQUIVALENCE_KERNELS),
                       [0, 1, 10, 20]),
    ("random500", "sin", 40),  # the degree of the bundled t = 40 design
]


@pytest.mark.parametrize("rule_name, K_name, n", WEIGHTED_KERNEL_CASES)
def test_weighted_kernel_matches_legendre_sum(rule_name, K_name, n,
                                              request) -> None:
    # the GEMM of basis matrices against the direct Legendre zonal sum
    # w_j sum_l mu_l (2l+1)/(4pi) P_l(x . x_j) K(x, x_j), at the nodes
    # (diagonal dots == 1) and at off-node targets, for moment sets whose
    # zero moments trim the factors: h == 1 keeps rank 1, an even mixed h
    # drops the odd degrees, and all-zero moments give exactly 0
    rule = (request.getfixturevalue("td20") if rule_name == "td20"
            else random_rule(500, seed=41))
    K = EQUIVALENCE_KERNELS[K_name]
    targets = np.vstack([rule.points,
                         uniform_random_points(200, seed=42).points])
    dots = np.clip(targets @ rule.points.T, -1.0, 1.0)
    table = legendre_table(n, dots)
    K_dots = K.of_dots(dots)
    for name, moments in moment_sets(n).items():
        assert solver._target_factor(moments, targets).shape == (
            active_rank(moments), len(targets)), name
        zonal = np.tensordot(zonal_coefficients(moments), table, axes=1)
        expected = rule.weights * zonal * K_dots
        got = weighted_kernel(rule, moments, K, targets)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale, name
        if K_name == "constant":
            W = weight_matrix(rule, moments, targets)
            assert np.max(np.abs(K.c * W - expected)) <= 1e-12 * scale, name


def test_stage2_blocks_match_one_product(td20) -> None:
    # enough targets for two row blocks, the second one partial
    n = 10
    step = solver._BLOCK_ENTRIES // td20.m
    targets = uniform_random_points(step + 123, seed=43).points
    blocks = solver._row_chunks(len(targets), td20.m, solver._BLOCK_ENTRIES)
    assert len(blocks) == 2 and len(targets) - blocks[1].start == 123

    K = ContinuousKernel.sin_scaled(10.0)
    sol = solve_stage1(ProblemSpec(kernel=SingularKernel.log(), K=K,
                                   f=0.7, n=n, rule=td20))
    mu = np.repeat(sol.moments.values, 2 * np.arange(n + 1) + 1)
    right = mu[:, None] * eval_basis_matrix(HarmonicBasis(n), td20.points)
    left = eval_basis_matrix(HarmonicBasis(n), targets)
    dots = np.clip(targets @ td20.points.T, -1.0, 1.0)
    B = (left.T @ (right * td20.weights)) * K.of_dots(dots)
    expected = 0.7 + B @ sol.nodal_values
    got = evaluate_stage2(sol, targets)
    assert np.max(np.abs(got - expected)) <= 1e-13 * max(
        1.0, float(np.max(np.abs(expected))))


_KERNEL_CODES = {"constant": _kernels.K_CONST, "sin_scaled": _kernels.K_SIN,
                 "cos_scaled": _kernels.K_COS}


@pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [10, 20])
@pytest.mark.parametrize("rule_name", ["td20", "td40"])
def test_presets_match_legendre_recurrence(exp_id, n, rule_name, request,
                                           eval_grid) -> None:
    # the whole solve against the per-entry Legendre recurrence of
    # _kernels, assembled and solved here without the solver module
    rule = request.getfixturevalue(rule_name)
    kernel, K = experiment_kernels(exp_id)
    f = experiment_f(exp_id)
    sol = solve_stage1(ProblemSpec(kernel=kernel, K=K, f=f, n=n, rule=rule))

    coeffs = zonal_coefficients(sol.moments)
    code = _KERNEL_CODES[K.family]

    def recurrence(targets: np.ndarray) -> np.ndarray:
        dots = np.clip(targets @ rule.points.T, -1.0, 1.0)
        return _kernels.product_weight_matrix(dots, rule.weights, coeffs,
                                              code, K.c)

    M = np.eye(rule.m) - recurrence(rule.points)
    phi = lu_solve(lu_factor(M), np.full(rule.m, f))
    assert np.max(np.abs(sol.nodal_values - phi)) <= 1e-11

    # stage 2 of both paths applied to the same nodal values
    targets = eval_grid.points[:1000]
    expected = f + recurrence(targets) @ sol.nodal_values
    got = evaluate_stage2(sol, targets)
    assert np.max(np.abs(got - expected)) <= 1e-12 * float(
        np.max(np.abs(expected)))


# ------------------------------------------------- constant K: low-rank path

def smooth_f(points: np.ndarray) -> np.ndarray:
    return np.exp(points @ np.array([0.3, -1.1, 0.7]))


# (kernel, c, f, n, rule name): every constant-K solve of the suite, plus
# two random rules with a non-constant f
LOW_RANK_CASES = {
    "one-td10-n5": (SingularKernel.one(), 1.0, 1.0, 5, "td10"),
    "one-td10-n5-fixed": (SingularKernel.one(), 1.0, 1.0 - FOUR_PI, 5, "td10"),
    "one-td10-n3": (SingularKernel.one(), 1.0, 1.0 - FOUR_PI, 3, "td10"),
    "one-td10-n0": (SingularKernel.one(), 1.0, 1.0 - FOUR_PI, 0, "td10"),
    "one-ea100-n0": (SingularKernel.one(), 0.01, 2.0, 0, "ea100"),
    "log-td10-n5": (SingularKernel.log(), 1.0, experiment_f(3), 5, "td10"),
    "log-td20-n10": (SingularKernel.log(), 1.0, experiment_f(3), 10, "td20"),
    "log-td20-n20": (SingularKernel.log(), 1.0, experiment_f(3), 20, "td20"),
    "log-td30-n15": (SingularKernel.log(), 1.0, experiment_f(3), 15, "td30"),
    "log-td40-n10": (SingularKernel.log(), 1.0, experiment_f(3), 10, "td40"),
    "log-td40-n20": (SingularKernel.log(), 1.0, experiment_f(3), 20, "td40"),
    "log-random500-n10": (SingularKernel.log(), 1.0, smooth_f, 10,
                          "random500"),
    "log-random2000-n10": (SingularKernel.log(), 1.0, smooth_f, 10,
                           "random2000"),
    # vanishing moments: h == 1 leaves the reduced system rank 1, an even
    # mixed h rank 66 of 121
    "one-random500-n10": (SingularKernel.one(), 0.05, smooth_f, 10,
                          "random500"),
    "mixed-random500-n10": (SingularKernel.mixed(-0.5, -0.5), 0.3, smooth_f,
                            10, "random500"),
}


def named_rule(name: str, request) -> QuadratureRule:
    if name in ("td10", "td20", "td40"):
        return request.getfixturevalue(name)
    return {"td30": lambda: design_rule(30),
            "ea100": lambda: equal_area_points(100),
            "random300": lambda: random_rule(300, seed=1),
            "random500": lambda: random_rule(500, seed=41),
            "random900": lambda: random_rule(900, seed=2),
            "random2000": lambda: random_rule(2000, seed=3)}[name]()


def low_rank_spec(case: str, request) -> ProblemSpec:
    kernel, c, f, n, rule_name = LOW_RANK_CASES[case]
    return ProblemSpec(kernel=kernel, K=ContinuousKernel.constant(c), f=f,
                       n=n, rule=named_rule(rule_name, request))


@pytest.mark.parametrize("case", sorted(LOW_RANK_CASES))
def test_low_rank_matches_dense_lu(case, request, eval_grid) -> None:
    # the Woodbury solve against LU of the assembled matrix, and its O(r)
    # stage 2 against the row-block GEMM applied to the same nodal values
    spec = low_rank_spec(case, request)
    sol = solve_stage1(spec)
    r = (spec.n + 1) ** 2
    assert sol.path == ("low-rank" if r < spec.rule.m else "dense-lu")
    assert sol.factor.shape == (active_rank(sol.moments), spec.rule.m)

    M, b = assemble_system(spec, sol.moments)
    phi = lu_solve(lu_factor(M), b)
    scale = float(np.max(np.abs(phi)))
    assert np.max(np.abs(sol.nodal_values - phi)) <= 1e-10 * scale
    assert sol.residual <= 1e-10 * (1.0 + float(np.max(np.abs(b))))

    targets = eval_grid.points[:1000]
    B = weighted_kernel(spec.rule, sol.moments, spec.K, targets)
    expected = spec.f_values(targets) + B @ sol.nodal_values
    got = evaluate_stage2(sol, targets)
    assert np.max(np.abs(got - expected)) <= 1e-10 * float(
        np.max(np.abs(expected)))


@pytest.mark.parametrize("case, rank", [
    ("log-random2000-n10", 121),  # every row: a slice of the Gram matrix
    ("mixed-random500-n10", 66),  # even degrees: an index array
    ("one-random500-n10", 1),  # row 0 alone
])
def test_reduced_system_is_read_from_the_gram_matrix(case, rank, request,
                                                     monkeypatch) -> None:
    # the r x r matrix handed to the LU is I - c V U with V U formed from
    # the factors themselves, and the solve runs one GEMM: the Gram matrix
    spec = low_rank_spec(case, request)
    factored, gemms = [], []
    factor, matmul = solver._factor, _blas.matmul

    def capture(A, name):
        factored.append(A.copy())
        return factor(A, name)

    def count(a, b):
        gemms.append((a.shape, b.shape))
        return matmul(a, b)

    monkeypatch.setattr(solver, "_factor", capture)
    monkeypatch.setattr(_blas, "matmul", count)
    sol = solve_stage1(spec)
    monkeypatch.undo()
    assert sol.path == "low-rank" and len(factored) == 1
    r = (spec.n + 1) ** 2
    assert gemms == [((r, spec.rule.m), (spec.rule.m, r))]

    V = sol.factor
    U = solver._target_factor(sol.moments, spec.rule.points).T
    assert V.shape == (rank, spec.rule.m) and U.shape == (spec.rule.m, rank)
    expected = np.eye(rank) - spec.K.c * (V @ U)
    (S,) = factored
    assert np.max(np.abs(S - expected)) <= 1e-13 * float(np.max(np.abs(S)))


def test_dense_path_drops_the_gram_matrix_before_assembly(td10,
                                                          monkeypatch) -> None:
    # only the low-rank path reads the Gram matrix; the dense one must not
    # keep it alive beside M and M's float32 copy
    grams, solve_dense = [], solver._solve_dense

    def gram(*args, **kwargs):
        G = gram_matrix(*args, **kwargs)
        grams.append(weakref.ref(G))
        return G

    def dense(*args):
        assert grams and grams[0]() is None, "the Gram matrix is still alive"
        return solve_dense(*args)

    monkeypatch.setattr(solver, "gram_matrix", gram)
    monkeypatch.setattr(solver, "_solve_dense", dense)
    spec = ProblemSpec(kernel=SingularKernel.log(),
                       K=ContinuousKernel.cos_scaled(2.0), f=1.0, n=5,
                       rule=td10)
    assert solve_stage1(spec).path == "dense-lu"


def harmonic_values(l: int, k: int, points: np.ndarray) -> np.ndarray:
    Y = eval_basis_matrix(HarmonicBasis(l), points)
    return Y[l * l + k - 1]


@pytest.mark.parametrize("kernel", [SingularKernel.log(),
                                    SingularKernel.algebraic(-0.5),
                                    SingularKernel.mixed(-0.5, -0.5)],
                         ids=["log", "algebraic", "mixed"])
@pytest.mark.parametrize("l", [3, 7, 10])
def test_low_rank_reproduces_harmonic_solution(kernel, l, td20,
                                               eval_grid) -> None:
    # K == c and phi = Y_lk: Funk-Hecke gives A phi = c mu_l phi, so
    # f = (1 - c mu_l) Y_lk; the 20-design is exact to degree n + l, so the
    # discrete solution is Y_lk itself.  Catches ordering and sign errors
    # in the harmonic factor.
    c, n = 0.3, 10
    moments = modified_moments(kernel, n)
    targets = eval_grid.points[:500]
    for k in (1, l + 1, 2 * l + 1):
        scale = 1.0 - c * moments.values[l]

        def f(points, k=k, scale=scale):
            return scale * harmonic_values(l, k, points)

        sol = solve_stage1(ProblemSpec(kernel=kernel,
                                       K=ContinuousKernel.constant(c),
                                       f=f, n=n, rule=td20))
        assert sol.path == "low-rank"
        exact = harmonic_values(l, k, td20.points)
        assert np.max(np.abs(sol.nodal_values - exact)) <= 1e-13
        got = evaluate_stage2(sol, targets)
        assert np.max(np.abs(got - harmonic_values(l, k, targets))) <= 1e-13


def zonal_q(s):
    """q(s) = 1 + 0.5 s + 0.3 s^2, the zonal-polynomial K of the dense-path
    manufactured solutions, as a function of s = x . y."""
    return 1.0 + 0.5 * s + 0.3 * s * s


def closed_form_harmonic(l: int, k: int, points: np.ndarray) -> np.ndarray:
    """Y_lk from scipy's associated Legendre function, independent of the
    library's recurrence: k <= l is sin(m phi) with m = l + 1 - k, k = l + 1
    the zonal one, k > l + 1 cos(m phi) with m = k - l - 1; no
    Condon-Shortley phase, which lpmv carries as (-1)^m."""
    m = abs(k - l - 1)
    norm = math.sqrt((2 * l + 1) / FOUR_PI * math.factorial(l - m)
                     / math.factorial(l + m))
    legendre = (-1) ** m * norm * lpmv(m, l, np.clip(points[:, 2], -1, 1))
    if m == 0:
        return legendre
    phi = np.arctan2(points[:, 1], points[:, 0])
    return math.sqrt(2.0) * legendre * (np.sin(m * phi) if k <= l
                                        else np.cos(m * phi))


@lru_cache(maxsize=None)
def zonal_q_eigenvalues(kernel: SingularKernel) -> np.ndarray:
    """lam_l = 2pi int h(t) q(t) P_l(t) dt, l <= 8: by Funk-Hecke the
    operator with kernel h K, K = q(x . y), maps Y_lk to lam_l Y_lk."""
    return oracle_moments_vector(
        lambda up, um: kernel.profile(up, um) * zonal_q(1.0 - up), 8)


@pytest.mark.parametrize("rotation", [None, 29], ids=["td20", "rotated"])
@pytest.mark.parametrize("l, k", [(3, 2), (5, 6), (8, 17)],
                         ids=["sin", "zonal", "cos"])
@pytest.mark.parametrize("kernel", [SingularKernel.algebraic(-0.5),
                                    SingularKernel.log(),
                                    SingularKernel.mixed(-0.5, -0.5)],
                         ids=["algebraic", "log", "mixed"])
def test_dense_path_reproduces_harmonic_solution(kernel, l, k, rotation,
                                                 td20, eval_grid) -> None:
    # K = q(x . y) of degree 2 and f = (1 - lam_l) Y_lk: the solution is
    # Y_lk.  With 2 + l <= n and a rule exact to degree 2n, hyperinterpolation
    # reproduces K(x, .) Y_lk, so the discrete solution is Y_lk at the nodes
    # and, after stage 2, everywhere.  f takes Y_lk from the library's basis
    # and the solution is checked against the closed form, so an ordering,
    # sign or sin/cos error in the basis fails here, as does one in the
    # dense path's use of it.  A design stays a design when rotated.
    rule = td20
    if rotation is not None:
        rule = QuadratureRule(points=td20.points @ rotation_matrix(rotation).T,
                              weights=td20.weights, label="td20-rotated")
    K = ContinuousKernel.custom(lambda r: zonal_q(1.0 - r * r / 2.0))
    scale = 1.0 - zonal_q_eigenvalues(kernel)[l]

    def f(points):
        return scale * harmonic_values(l, k, points)

    sol = solve_stage1(ProblemSpec(kernel=kernel, K=K, f=f, n=10, rule=rule))
    assert sol.path == "dense-lu"
    exact = closed_form_harmonic(l, k, rule.points)
    assert np.max(np.abs(sol.nodal_values - exact)) <= 1e-11
    targets = eval_grid.points[:500]
    got = evaluate_stage2(sol, targets)
    assert np.max(np.abs(got - closed_form_harmonic(l, k, targets))) <= 1e-11


@lru_cache(maxsize=None)
def monomial_eigenvalues(kernel: SingularKernel, j: int) -> np.ndarray:
    """2pi int h(t) t^j P_l(t) dt for l <= 20: lam_l of K = (x . y)^j."""
    return oracle_moments_vector(
        lambda up, um: kernel.profile(up, um) * (1.0 - up) ** j, 20)


@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_dense_path_reproduces_harmonic_solution_property(td20, eval_grid,
                                                          data) -> None:
    # the fixed-parameter test above as a property: any h family, any q of
    # degree d <= 3, any n <= 10 (td20 is exact to 2n), any Y_lk with
    # l + d <= n, so that hyperinterpolation reproduces K(x, .) Y_lk, and
    # any rotation of td20.  q is scaled so that max |lam_l| over l <= 2n is
    # at most 0.6: 1 - lam_l stays at least 0.4 away from 0.
    kernel = data.draw(st.sampled_from(
        [SingularKernel.one(), SingularKernel.algebraic(-0.5),
         SingularKernel.log(), SingularKernel.mixed(-0.5, -0.5)]),
        label="h")
    # n and l count down from their largest values, which hypothesis then
    # draws most often
    n = 10 - data.draw(st.integers(0, 7), label="10 - n")
    d = data.draw(st.integers(0, 3), label="deg q")
    l = n - d - data.draw(st.integers(0, n - d), label="n - d - l")
    k = data.draw(st.integers(1, 2 * l + 1), label="k")
    coeffs = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d + 1,
                                         max_size=d + 1), label="q"))
    lam = sum(a * monomial_eigenvalues(kernel, j)[:2 * n + 1]
              for j, a in enumerate(coeffs))
    assume(np.max(np.abs(lam)) > 1e-3)
    scale = data.draw(st.floats(0.05, 0.6), label="max |lam|")
    coeffs *= scale / np.max(np.abs(lam))
    lam_l = scale * lam[l] / np.max(np.abs(lam))
    rotation = rotation_matrix(data.draw(st.integers(0, 2 ** 16),
                                         label="seed"))
    rule = QuadratureRule(points=td20.points @ rotation.T,
                          weights=td20.weights, label="td20-rotated")
    K = ContinuousKernel.custom(
        lambda r: np.polynomial.polynomial.polyval(1.0 - r * r / 2.0, coeffs))

    def f(points):
        return (1.0 - lam_l) * harmonic_values(l, k, points)

    sol = solve_stage1(ProblemSpec(kernel=kernel, K=K, f=f, n=n, rule=rule))
    assert sol.path == "dense-lu"
    exact = closed_form_harmonic(l, k, rule.points)
    assert np.max(np.abs(sol.nodal_values - exact)) <= 1e-11
    targets = eval_grid.points[:500]
    got = evaluate_stage2(sol, targets)
    assert np.max(np.abs(got - closed_form_harmonic(l, k, targets))) <= 1e-11


@pytest.mark.parametrize("case", ["one-td10-n5", "one-td10-n3", "one-ea100-n0",
                                  "log-td10-n5", "log-td20-n10",
                                  "random300", "random900"])
def test_low_rank_condition_estimate(case, request) -> None:
    # within a factor 2 of the exact infinity-norm condition number of M
    if case.startswith("random"):
        spec = ProblemSpec(kernel=SingularKernel.log(),
                           K=ContinuousKernel.constant(1.0), f=smooth_f,
                           n=10, rule=named_rule(case, request))
    else:
        spec = low_rank_spec(case, request)
    sol = solve_stage1(spec)
    assert sol.path == "low-rank"
    M, _ = assemble_system(spec, sol.moments)
    exact = np.linalg.cond(M, np.inf)
    assert exact / 2.0 <= sol.condition_estimate <= 2.0 * exact


def test_dense_path_when_rank_reaches_m() -> None:
    # constant K takes the low-rank path only while (n+1)^2 < m; any other
    # K always keeps the assembled LU
    rule = equal_area_points(8)
    cases = [(ContinuousKernel.constant(1.0), 3, "dense-lu"),
             (ContinuousKernel.constant(1.0), 1, "low-rank"),
             (ContinuousKernel.sin_scaled(1.0), 1, "dense-lu")]
    for K, n, path in cases:
        sol = solve_stage1(ProblemSpec(kernel=SingularKernel.log(), K=K,
                                       f=1.0, n=n, rule=rule))
        assert sol.path == path


# ------------------------------------- dense path: mixed precision, fallback

def count_double_lu(monkeypatch) -> list[tuple[int, ...]]:
    """Wrap solver.lu_factor, the float64 LU that the dense path falls back
    to; the list records the shape of each matrix it factors."""
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(solver, "lu_factor", counting)
    return shapes


@pytest.mark.parametrize("exp_id", [1, 2, 4])
@pytest.mark.parametrize("rule_name, n", [("td10", 5), ("td20", 10),
                                          ("td20-tilted", 10)])
def test_mixed_precision_dense_solve(exp_id, rule_name, n, request,
                                     monkeypatch) -> None:
    # the float32 LU refined in float64 reaches the float64 solve of the
    # assembled M, with no fallback; its residual passes the test of
    # LAPACK dsgesv, and its condition estimate is within 2x of the exact
    # infinity-norm one.  Equal weights make M symmetric; the tilted
    # weights w (1 + z/2), still summing to 4pi, make it not, so that a
    # solve with M^T in place of M would show.
    rule = named_rule(rule_name.split("-")[0], request)
    if rule_name.endswith("tilted"):
        tilt = 1.0 + rule.points[:, 2] / 2
        rule = QuadratureRule(points=rule.points, weights=rule.weights * tilt,
                              label=rule_name)
    kernel, K = experiment_kernels(exp_id)
    spec = ProblemSpec(kernel=kernel, K=K, f=experiment_f(exp_id), n=n,
                       rule=rule)
    shapes = count_double_lu(monkeypatch)
    sol = solve_stage1(spec)
    assert sol.path == "dense-lu" and shapes == []
    M, b = assemble_system(spec, sol.moments)
    expected = scipy.linalg.solve(M, b)
    assert np.max(np.abs(sol.nodal_values - expected)) <= 1e-12 * np.max(
        np.abs(expected))
    anorm = np.linalg.norm(M, np.inf)
    assert sol.residual <= (np.max(np.abs(sol.nodal_values)) * anorm
                            * np.finfo(np.float64).eps * math.sqrt(M.shape[0]))
    exact = np.linalg.cond(M, np.inf)
    assert exact / 2.0 <= sol.condition_estimate <= 2.0 * exact


def test_singular_dense_system_falls_back(monkeypatch) -> None:
    # eight equal-weight points with K c w = 1/8 exactly, at n = 3 so that
    # (n+1)^2 >= m keeps the constant K on the dense path: M = I - ones/8
    # is singular, the float32 solve meets a zero pivot or cannot converge,
    # and the float64 LU names a zero pivot or warns
    rule = equal_area_points(8)
    c = 0.25 / math.pi
    assert c * rule.weights[0] == 0.125  # exact in float64
    spec = ProblemSpec(kernel=SingularKernel.one(),
                       K=ContinuousKernel.constant(c), f=1.0, n=3, rule=rule)
    shapes = count_double_lu(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sol = solve_stage1(spec)
        except SingularSystemError:
            sol = None
    assert shapes == [(8, 8)]
    if sol is not None:
        assert sol.path == "dense-lu"
        assert [w.category for w in caught] == [IllConditionedWarning]


def test_dense_matrix_beyond_float32_solves_in_float64(monkeypatch) -> None:
    # K = 1e39 is finite in float64 but overflows float32: the solve falls
    # back to the float64 LU before any cast, so no overflow warning escapes
    rule = equal_area_points(8)
    spec = ProblemSpec(kernel=SingularKernel.log(),
                       K=ContinuousKernel.custom(
                           lambda r: np.full_like(r, 1e39)),
                       f=1.0, n=3, rule=rule)
    shapes = count_double_lu(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_stage1(spec)
    assert sol.path == "dense-lu" and shapes == [(8, 8)]
    M, b = assemble_system(spec, sol.moments)
    assert np.linalg.norm(M, np.inf) > np.finfo(np.float32).max
    expected = scipy.linalg.solve(M, b)
    assert np.max(np.abs(sol.nodal_values - expected)) <= 1e-12 * np.max(
        np.abs(expected))
    assert sol.residual <= 1e-12


def test_import_leaves_sparse_linalg_unloaded() -> None:
    # the low-rank condition estimate imports scipy.sparse.linalg lazily
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sphsolve; print('scipy.sparse.linalg' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------- non-finite input

def nan_at_node_7(points: np.ndarray) -> np.ndarray:
    values = np.ones(points.shape[0])
    values[7] = np.nan
    return values


@pytest.mark.parametrize("K", [ContinuousKernel.constant(1.0),
                               ContinuousKernel.sin_scaled(10.0)],
                         ids=["low-rank", "dense"])
def test_non_finite_f_is_named_before_assembly(K, td10, monkeypatch) -> None:
    def never(*args, **kwargs):
        raise AssertionError("assembled or factored a non-finite problem")

    monkeypatch.setattr(solver, "_weighted_kernel_block", never)
    monkeypatch.setattr(solver, "_rule_factor", never)
    monkeypatch.setattr(solver, "lu_factor", never)
    for f, node in ((nan_at_node_7, 7), (math.inf, 0), (math.nan, 0)):
        spec = ProblemSpec(kernel=SingularKernel.log(), K=K, f=f, n=5,
                           rule=td10)
        with pytest.raises(NonFiniteInputError, match=f"node {node} of 121"):
            solve_stage1(spec)
    for c in (math.nan, math.inf):  # a constant K of such c cannot be built
        with pytest.raises(NonFiniteInputError, match="constant K"):
            ContinuousKernel.constant(c)
    assert issubclass(NonFiniteInputError, ValueError)


@pytest.mark.parametrize("K", [ContinuousKernel.constant(1.0),
                               ContinuousKernel.cos_scaled(10.0)],
                         ids=["low-rank", "dense"])
@pytest.mark.parametrize("f, got", [
    (lambda points: np.ones((points.shape[0], 1)), "(121, 1)"),
    (lambda points: 0.5, "()"),
], ids=["column", "scalar"])
def test_f_of_the_wrong_shape_is_named_before_assembly(K, f, got, td10,
                                                       monkeypatch) -> None:
    def never(*args, **kwargs):
        raise AssertionError("assembled or factored a problem with a bad f")

    monkeypatch.setattr(solver, "_weighted_kernel_block", never)
    monkeypatch.setattr(solver, "_rule_factor", never)
    monkeypatch.setattr(solver, "lu_factor", never)
    spec = ProblemSpec(kernel=SingularKernel.log(), K=K, f=f, n=5, rule=td10)
    with pytest.raises(ValueError, match=re.escape(
            f"f must return shape (121,), got {got}")):
        solve_stage1(spec)


@pytest.mark.parametrize("K", [ContinuousKernel.constant(1.0),
                               ContinuousKernel.cos_scaled(10.0)],
                         ids=["low-rank", "dense"])
def test_f_of_the_wrong_shape_is_named_in_stage2(K, td10) -> None:
    # right at the nodes, wrong elsewhere: stage 2 names the shape it got
    def f(points: np.ndarray):
        return np.ones(121) if points.shape[0] == 121 else np.ones((7, 1))

    sol = solve_stage1(ProblemSpec(kernel=SingularKernel.log(), K=K, f=f,
                                   n=5, rule=td10))
    assert sol.path == ("low-rank" if K.family == "constant" else "dense-lu")
    with pytest.raises(ValueError, match=re.escape(
            "f must return shape (7,), got (7, 1)")):
        evaluate_stage2(sol, uniform_random_points(7, seed=3).points)


@pytest.mark.parametrize("make_K", [ContinuousKernel.sin_scaled,
                                    ContinuousKernel.cos_scaled])
def test_non_finite_c_is_named_before_assembly(make_K) -> None:
    # a sin or cos K with a non-finite c cannot be built: the kernel names
    # it at construction, with no RuntimeWarning, so no solve, assembly or
    # direct of_distance call ever evaluates it
    family = make_K(1.0).family
    for c in (math.inf, -math.inf, math.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInputError,
                               match=f"{family} K is not finite: c = "):
                make_K(c)
            with pytest.raises(NonFiniteInputError, match=family):
                ContinuousKernel(family, c=c)


def test_non_finite_custom_kernel_is_named(td10) -> None:
    def K_with_nan(r: np.ndarray) -> np.ndarray:
        return np.where(r > 1.9, np.nan, np.cos(r))

    spec = ProblemSpec(kernel=SingularKernel.log(),
                       K=ContinuousKernel.custom(K_with_nan), f=1.0, n=5,
                       rule=td10)
    with pytest.raises(NonFiniteInputError, match="row"):
        solve_stage1(spec)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_kernel_names_its_first_row(value) -> None:
    # nodes 17 and 30 are antipodal and no other pair is near it: K is
    # non-finite only in rows 17 and 30, and the error names the first
    points = random_rule(40, seed=5).points.copy()
    points[30] = -points[17]
    dots = points @ points.T
    np.fill_diagonal(dots, 0.0)
    assert np.sort(dots.ravel())[2] > -0.999 and dots[17, 30] < -0.99999
    rule = QuadratureRule(points=points, weights=np.full(40, FOUR_PI / 40),
                          label="antipodal pair")
    K = ContinuousKernel.custom(lambda r: np.where(r > 1.9999, value, 1.0))
    spec = ProblemSpec(kernel=SingularKernel.log(), K=K, f=1.0, n=3,
                       rule=rule)
    with pytest.raises(NonFiniteInputError, match="in row 17 of"):
        solve_stage1(spec)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("n, path, message", [
    (2, "low-rank", re.escape("c = 1.7e+308 makes the reduced system")),
    (10, "dense-lu", "K is not finite in row 0 of the collocation matrix"),
], ids=["low-rank", "dense"])
def test_overflowing_constant_kernel_is_named_on_both_paths(
        n, path, message, monkeypatch) -> None:
    # a finite c so large that c times the weights overflows: the r x r
    # system at (n+1)^2 < m, M itself otherwise; neither is ever factored
    rule = random_rule(50, seed=1)
    assert ((n + 1) ** 2 < rule.m) == (path == "low-rank")

    def never(*args, **kwargs):
        raise AssertionError("factored a non-finite matrix")

    monkeypatch.setattr(solver, "_factor", never)
    monkeypatch.setattr(solver, "sgetrf", never)
    spec = ProblemSpec(kernel=SingularKernel.log(),
                       K=ContinuousKernel.constant(1.7e308), f=1.0, n=n,
                       rule=rule)
    with pytest.raises(NonFiniteInputError, match=message):
        solve_stage1(spec)


# ------------------------------------------------------------------ K(dots)

def test_of_dots_is_bit_identical_to_the_expression() -> None:
    dots = np.clip(uniform_random_points(2000, seed=51).points
                   @ uniform_random_points(1681, seed=52).points.T, -1.0, 1.0)
    r = np.sqrt(np.maximum(2.0 * (1.0 - dots), 0.0))
    u = np.tan(0.5 * 10.0 * r)  # sin and cos by the half-angle tangent

    def fn(rr):
        return np.exp(-rr) * (1.0 + rr ** 2)

    cases = [(ContinuousKernel.sin_scaled(10.0), 2.0 * u / (1.0 + u * u)),
             (ContinuousKernel.cos_scaled(10.0), 2.0 / (1.0 + u * u) - 1.0),
             (ContinuousKernel.custom(fn), fn(r))]
    for K, expected in cases:
        assert np.array_equal(K.of_dots(dots), expected)
        assert np.array_equal(K.of_distance(r), expected)
    assert np.array_equal(ContinuousKernel.constant(2.5).of_dots(dots),
                          np.full_like(r, 2.5))


# 50 digits of pi: Fraction -> float rounds correctly, so the double
# nearest pi/2 + k pi comes out exactly.
PI = Fraction("3.14159265358979323846264338327950288419716939937510")
HALF_ANGLE_C = (-7.5, -0.0, 0.0, 1.0, 10.0, 1e3)


def tan_pole_distances(c: float, r_max: float = 2.0) -> np.ndarray:
    """The r in [0, r_max] at which (c/2) r is the double nearest a pole of
    tan, pi/2 + k pi."""
    half_c = 0.5 * c
    if half_c == 0.0:
        return np.empty(0)
    poles = []
    k_max = int(abs(half_c) * r_max / math.pi) + 1
    for k in range(-k_max, k_max):
        pole = float((k + Fraction(1, 2)) * PI)
        r = pole / half_c
        for candidate in (np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)):
            if 0.0 <= candidate <= r_max and half_c * candidate == pole:
                poles.append(candidate)
                break
    return np.array(poles)


@pytest.mark.parametrize("c", HALF_ANGLE_C)
def test_half_angle_kernel_matches_libm(c) -> None:
    # the half-angle tangent against libm's sin and cos, through r = 0 and
    # the poles of tan, where u = tan(c r / 2) is largest
    poles = tan_pole_distances(c)
    if abs(c) > math.pi:  # (c/2) r reaches pi/2 on [0, 2]
        assert poles.size >= 1
    r = np.concatenate([[0.0], np.linspace(0.0, 2.0, 20001), poles])
    eps = np.finfo(np.float64).eps
    with np.errstate(all="raise"):
        s = ContinuousKernel.sin_scaled(c).of_distance(r)
        co = ContinuousKernel.cos_scaled(c).of_distance(r)
    libm_s, libm_c = np.sin(c * r), np.cos(c * r)
    assert np.max(np.abs(s - libm_s)) <= 4 * eps
    assert np.max(np.abs(co - libm_c)) <= 4 * eps
    nonzero = libm_s != 0.0
    assert np.all(np.abs(s - libm_s)[nonzero]
                  <= 4 * np.spacing(np.abs(libm_s[nonzero])))
    assert s[0] == 0.0 and co[0] == 1.0


def targets_at_distances(node: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Unit vectors at chordal distance d from node, one per d."""
    e = np.cross(node, [0.0, 0.0, 1.0] if abs(node[2]) < 0.9 else [1.0, 0.0, 0.0])
    e /= np.linalg.norm(e)
    theta = 2.0 * np.arcsin(0.5 * distances)
    return np.cos(theta)[:, None] * node + np.sin(theta)[:, None] * e


@pytest.mark.parametrize("family", ["sin_scaled", "cos_scaled"])
def test_k_pass_raises_no_floating_point_warning(family, td20) -> None:
    # at r = 0 (the diagonal of assembly) and at the poles of tan no entry
    # divides by zero or overflows, neither in the reference nor in the
    # solver's row-chunked block builder
    moments = modified_moments(SingularKernel.log(), 10)
    right = solver._rule_factor(td20, moments,
                                solver._target_factor(moments, td20.points))
    for c in (-7.5, 10.0, 1e3):
        K = ContinuousKernel(family, c=c)
        poles = tan_pole_distances(c)
        targets = targets_at_distances(td20.points[0], poles)
        with np.errstate(all="raise"):
            M = weighted_kernel(td20, moments, K, td20.points)
            B = weighted_kernel(td20, moments, K, targets)
            blocks = [solver._weighted_kernel_block(
                td20.points, right, K, x, solver._target_factor(moments, x))
                for x in (td20.points, targets)]
        for values in [M, B] + blocks:
            assert np.all(np.isfinite(values))
        assert B.shape == blocks[1].shape == (poles.size, td20.m)


# ------------------------------------------------------- chunked K pass

# rule -> bound on |chunked - whole block| relative to the block's largest
# entry.  The 3-term dots t . x_j come from BLAS, which may round a tile at
# the edge of a product differently from an inner one; with m = 500 the 4
# trailing node columns fall in such tiles, so a few dots differ by an ulp
# between a chunk and the whole block.  Every other rule here is exact.
CHUNK_RULES = {"m1": (lambda request: random_rule(1, seed=61), 0.0),
               "td20": (lambda request: request.getfixturevalue("td20"), 0.0),
               "td40": (lambda request: request.getfixturevalue("td40"), 0.0),
               "random500": (lambda request: random_rule(500, seed=41), 1e-13)}


@pytest.mark.parametrize("K_name", sorted(EQUIVALENCE_KERNELS))
@pytest.mark.parametrize("rule_name", sorted(CHUNK_RULES))
def test_chunked_k_pass_matches_whole_block_of_dots(rule_name, K_name,
                                                    request) -> None:
    # the row-chunked K pass against one K.of_dots over each whole row
    # block: a second, partial block where one fits in memory, and a
    # partial last chunk in every block.  BLAS rounds a GEMM of fewer rows
    # differently, so the expected product is formed per block as well,
    # and with the solver's BLAS: numpy's may round it differently again.
    make_rule, tol = CHUNK_RULES[rule_name]
    rule = make_rule(request)
    K = EQUIVALENCE_KERNELS[K_name]
    moments = modified_moments(SingularKernel.log(), 10)
    block = solver._BLOCK_ENTRIES // rule.m
    chunk = solver._CHUNK_ENTRIES // rule.m
    T = (block if block < 20_000 else 2 * chunk) + 123
    assert T % chunk and T % block
    targets = uniform_random_points(T, seed=62).points

    def check(got, expected):
        if tol == 0.0 or K.family == "constant":  # constant K forms no dots
            assert np.array_equal(got, expected)
        else:
            scale = float(np.max(np.abs(expected)))
            assert np.max(np.abs(got - expected)) <= tol * scale

    left = solver._target_factor(moments, targets)
    right = solver._rule_factor(rule, moments,
                                solver._target_factor(moments, rule.points))
    for rows in solver._row_chunks(T, rule.m, solver._BLOCK_ENTRIES):
        dots = np.clip(_blas.matmul(targets[rows], rule.points.T), -1.0, 1.0)
        expected = _blas.matmul(left[:, rows].T, right) * K.of_dots(dots)
        check(solver._weighted_kernel_block(rule.points, right, K,
                                            targets[rows], left[:, rows]),
              expected)


def test_row_chunks_leave_no_lone_row() -> None:
    # a one-row product would take BLAS's GEMV path and round differently
    for rows in (1, 2, 37, 38, 39, 40, 76, 77, 2495):
        chunks = solver._row_chunks(rows, 1681)
        sizes = [c.stop - c.start for c in chunks]
        assert sum(sizes) == rows and chunks[0].start == 0
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        assert rows == 1 or min(sizes) >= 2
        assert max(sizes) <= 2 * 38


def test_assembly_from_the_solve_basis_is_bit_identical(td20) -> None:
    # column slices of the node basis serve assembly as the per-block
    # evaluation did
    spec = ProblemSpec(kernel=SingularKernel.log(),
                       K=ContinuousKernel.sin_scaled(10.0), f=0.5, n=10,
                       rule=td20)
    left = solver._target_factor(modified_moments(spec.kernel, spec.n),
                                 td20.points)
    M, b = assemble_system(spec)
    M_left, b_left = assemble_system(spec, left=left)
    assert np.array_equal(M_left, M) and np.array_equal(b_left, b)


@pytest.mark.parametrize("K_name", ["sin", "cos", "custom"])
@pytest.mark.parametrize("rule_name", ["td20", "random500"])
def test_assembly_by_halves_is_symmetric(rule_name, K_name, request) -> None:
    # assembly forms the upper row blocks of S = W K / w and mirrors them.
    # Both rules have equal weights, so dividing I - M by w undoes the
    # same rounding on either side of the diagonal: the result is exactly
    # symmetric.  It also matches the full row-block matrix W K, with all
    # moments kept (log) and with the odd degrees dropped (even mixed h).
    rule = (request.getfixturevalue("td20") if rule_name == "td20"
            else random_rule(500, seed=41))
    assert rule.m % solver._HALF_ROWS and rule.m > 2 * solver._HALF_ROWS
    K = EQUIVALENCE_KERNELS[K_name]
    identity = np.eye(rule.m)
    for kernel in (SingularKernel.log(), SingularKernel.mixed(-0.5, -0.5)):
        spec = ProblemSpec(kernel=kernel, K=K, f=1.0, n=10, rule=rule)
        M, _ = assemble_system(spec)
        S = (identity - M) / rule.weights
        assert np.array_equal(S, S.T)
        full = weighted_kernel(rule, modified_moments(kernel, spec.n), K,
                               rule.points)
        scale = float(np.max(np.abs(full)))
        assert np.max(np.abs(M - (identity - full))) <= 1e-13 * scale


@pytest.mark.parametrize("K", [ContinuousKernel.constant(1.0),
                               ContinuousKernel.sin_scaled(10.0)],
                         ids=["low-rank", "dense-lu"])
def test_solve_evaluates_node_basis_once(K, td10, monkeypatch) -> None:
    # one node basis per solve: the Gram matrix for eta and the factor of
    # either path share it
    seen = count_basis_calls(monkeypatch, td10.points)
    sol = solve_stage1(ProblemSpec(kernel=SingularKernel.log(), K=K, f=1.0,
                                   n=5, rule=td10))
    assert sol.path == ("low-rank" if K.family == "constant" else "dense-lu")
    assert seen == [True]


@pytest.mark.parametrize("exp_id, path", [(3, "low-rank"), (1, "dense-lu"),
                                          (4, "dense-lu")])
def test_experiment_evaluates_node_basis_once(exp_id, path, td10,
                                              monkeypatch) -> None:
    # stage 2 reads the factor that stage 1 kept on the solution: a whole
    # run_experiment evaluates the node basis once, and the basis of the
    # targets once per row block, or never for the rank-1 factor of h == 1
    # (experiment 1), whose target side is all ones
    seen = count_basis_calls(monkeypatch, td10.points)
    grid = uniform_random_points(300, seed=44)
    rec = run_experiment(exp_id, 5, td10, grid=grid)
    assert rec.solver_path == path
    assert seen == ([True] if exp_id == 1 else [True, False])


def count_basis_calls(monkeypatch, nodes: np.ndarray) -> list[bool]:
    """Wrap every basis evaluation; the list records, per call, whether it
    evaluated the basis of nodes."""
    from sphsolve import harmonics, mz
    seen = []

    def counting(fn):
        def wrapper(basis, points):
            seen.append(points is nodes)
            return fn(basis, points)
        return wrapper

    monkeypatch.setattr(harmonics, "eval_basis_matrix",
                        counting(harmonics.eval_basis_matrix))
    monkeypatch.setattr(mz, "eval_basis_matrix",
                        counting(mz.eval_basis_matrix))
    return seen
