"""Two-stage collocation solver: weights, assembly, stage 1, stage 2."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from sphsolve import (
    ContinuousKernel,
    HarmonicBasis,
    IllConditionedWarning,
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
    profile_integral,
    random_rule,
    solve_stage1,
    uniform_error,
    uniform_random_points,
    weight_matrix,
    weight_row,
)
from sphsolve import _kernels, solver

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
    assert np.allclose(weight_row(td20, moments, x), W[3], atol=1e-15)


def test_weight_sums_obey_hyperinterpolant_bound(td40) -> None:
    # sum_j |W_j(x)| <= sqrt(2pi int h^2 dt) sqrt(1 + eta) sqrt(sum_j w_j)
    n = 20
    kernel = SingularKernel.log()
    moments = modified_moments(kernel, n)
    eta = mz_constant(td40, n).eta

    h2 = profile_integral(
        lambda t: kernel.profile(t) ** 2,
        near_one=lambda u: kernel.profile_near_one(u) ** 2,
        near_minus_one=lambda u: kernel.profile_near_minus_one(u) ** 2)
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
    assert sol.gamma == (td10.m, 5, sol.gamma[2])
    assert sol.gamma[2] <= 1e-10  # design rule: eta at round-off
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
    with pytest.raises(ValueError):
        ProblemSpec(kernel=SingularKernel.one(),
                    K=ContinuousKernel.constant(1.0),
                    f=1.0, n=-1, rule=td10)
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


def zonal_coefficients(moments) -> np.ndarray:
    degree = np.arange(moments.n + 1)
    return moments.values * (2 * degree + 1) / FOUR_PI


EQUIVALENCE_KERNELS = {
    "constant": ContinuousKernel.constant(2.5),
    "sin": ContinuousKernel.sin_scaled(10.0),
    "cos": ContinuousKernel.cos_scaled(10.0),
    "custom": ContinuousKernel.custom(lambda r: np.exp(-r) * (1.0 + r ** 2)),
}


@pytest.mark.parametrize("n", [0, 1, 10, 20])
@pytest.mark.parametrize("K_name", sorted(EQUIVALENCE_KERNELS))
@pytest.mark.parametrize("rule_name", ["td20", "random500"])
def test_weighted_kernel_matches_legendre_sum(rule_name, K_name, n,
                                              request) -> None:
    # the GEMM of basis matrices against the direct Legendre zonal sum
    # w_j sum_l mu_l (2l+1)/(4pi) P_l(x . x_j) K(x, x_j), at the nodes
    # (diagonal dots == 1) and at off-node targets
    rule = (request.getfixturevalue("td20") if rule_name == "td20"
            else random_rule(500, seed=41))
    K = EQUIVALENCE_KERNELS[K_name]
    moments = modified_moments(SingularKernel.log(), n)
    targets = np.vstack([rule.points,
                         uniform_random_points(200, seed=42).points])
    dots = np.clip(targets @ rule.points.T, -1.0, 1.0)
    zonal = np.tensordot(zonal_coefficients(moments),
                         legendre_table(n, dots), axes=1)
    expected = rule.weights * zonal * K.of_dots(dots)
    got = solver._weighted_kernel_matrix(rule, moments, K, targets)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale
    if K_name == "constant":
        W = weight_matrix(rule, moments, targets)
        assert np.max(np.abs(K.c * W - expected)) <= 1e-12 * scale


def test_stage2_blocks_match_one_product(td20) -> None:
    # enough targets for two row blocks, the second one partial
    n = 10
    step = solver._BLOCK_ENTRIES // td20.m
    targets = uniform_random_points(step + 123, seed=43).points
    blocks = solver._row_blocks(len(targets), td20.m)
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
        return _kernels.product_weight_matrix_numpy(dots, rule.weights,
                                                    coeffs, code, K.c)

    M = np.eye(rule.m) - recurrence(rule.points)
    phi = lu_solve(lu_factor(M), np.full(rule.m, f))
    assert np.max(np.abs(sol.nodal_values - phi)) <= 1e-11

    # stage 2 of both paths applied to the same nodal values
    targets = eval_grid.points[:1000]
    expected = f + recurrence(targets) @ sol.nodal_values
    got = evaluate_stage2(sol, targets)
    assert np.max(np.abs(got - expected)) <= 1e-12 * float(
        np.max(np.abs(expected)))
