"""Two-stage collocation solver: weights, assembly, stage 1, stage 2."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from sphsolve import (
    ContinuousKernel,
    HarmonicBasis,
    HarmonicIndex,
    IllConditionedWarning,
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
    flat_index,
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

    M, b = assemble_system(spec, sol.moments)
    phi = lu_solve(lu_factor(M), b)
    scale = float(np.max(np.abs(phi)))
    assert np.max(np.abs(sol.nodal_values - phi)) <= 1e-10 * scale
    assert sol.residual <= 1e-10 * (1.0 + float(np.max(np.abs(b))))

    targets = eval_grid.points[:1000]
    B = solver._weighted_kernel_matrix(spec.rule, sol.moments, spec.K, targets)
    expected = spec.f_values(targets) + B @ sol.nodal_values
    got = evaluate_stage2(sol, targets)
    assert np.max(np.abs(got - expected)) <= 1e-10 * float(
        np.max(np.abs(expected)))


def harmonic_values(l: int, k: int, points: np.ndarray) -> np.ndarray:
    Y = eval_basis_matrix(HarmonicBasis(l), points)
    return Y[flat_index(HarmonicIndex(l, k))]


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
                                       f=f, n=n, rule=td20), moments)
        assert sol.path == "low-rank"
        exact = harmonic_values(l, k, td20.points)
        assert np.max(np.abs(sol.nodal_values - exact)) <= 1e-13
        got = evaluate_stage2(sol, targets)
        assert np.max(np.abs(got - harmonic_values(l, k, targets))) <= 1e-13


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

    monkeypatch.setattr(solver, "_weighted_kernel_matrix", never)
    monkeypatch.setattr(solver, "_rule_factor", never)
    monkeypatch.setattr(solver, "lu_factor", never)
    for f, node in ((nan_at_node_7, 7), (math.inf, 0), (math.nan, 0)):
        spec = ProblemSpec(kernel=SingularKernel.log(), K=K, f=f, n=5,
                           rule=td10)
        with pytest.raises(NonFiniteInputError, match=f"node {node} of 121"):
            solve_stage1(spec)
    for c in (math.nan, math.inf):
        spec = ProblemSpec(kernel=SingularKernel.log(),
                           K=ContinuousKernel.constant(c), f=1.0, n=5,
                           rule=td10)
        with pytest.raises(NonFiniteInputError, match="constant K"):
            solve_stage1(spec)
    assert issubclass(NonFiniteInputError, ValueError)


def test_non_finite_custom_kernel_is_named(td10) -> None:
    def K_with_nan(r: np.ndarray) -> np.ndarray:
        return np.where(r > 1.9, np.nan, np.cos(r))

    spec = ProblemSpec(kernel=SingularKernel.log(),
                       K=ContinuousKernel.custom(K_with_nan), f=1.0, n=5,
                       rule=td10)
    with pytest.raises(NonFiniteInputError, match="row"):
        solve_stage1(spec)


# ------------------------------------------------------------------ K(dots)

def test_of_dots_is_bit_identical_to_the_expression() -> None:
    dots = np.clip(uniform_random_points(2000, seed=51).points
                   @ uniform_random_points(1681, seed=52).points.T, -1.0, 1.0)
    r = np.sqrt(np.maximum(2.0 * (1.0 - dots), 0.0))

    def fn(rr):
        return np.exp(-rr) * (1.0 + rr ** 2)

    cases = [(ContinuousKernel.sin_scaled(10.0), np.sin(10.0 * r)),
             (ContinuousKernel.cos_scaled(10.0), np.cos(10.0 * r)),
             (ContinuousKernel.custom(fn), fn(r))]
    for K, expected in cases:
        assert np.array_equal(K.of_dots(dots), expected)
        assert np.array_equal(K.of_distance(r), expected)
    assert np.array_equal(ContinuousKernel.constant(2.5).of_dots(dots),
                          np.full_like(r, 2.5))


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
    # differently, so the expected product is formed per block as well.
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

    left = solver._target_factor(moments.n, targets)
    right = solver._rule_factor(rule, moments)
    expected = []
    for rows in solver._row_blocks(T, rule.m):
        dots = np.clip(targets[rows] @ rule.points.T, -1.0, 1.0)
        expected.append(left[:, rows].T @ right * K.of_dots(dots))
        check(solver._weighted_kernel_block(rule, right, K, targets[rows],
                                            left[:, rows]), expected[-1])
    check(solver._weighted_kernel_matrix(rule, moments, K, targets),
          np.vstack(expected))


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
    left = solver._target_factor(spec.n, td20.points)
    M, b = assemble_system(spec)
    M_left, b_left = assemble_system(spec, left=left)
    assert np.array_equal(M_left, M) and np.array_equal(b_left, b)


@pytest.mark.parametrize("K", [ContinuousKernel.constant(1.0),
                               ContinuousKernel.sin_scaled(10.0)],
                         ids=["low-rank", "dense-lu"])
def test_solve_evaluates_node_basis_once(K, td10, monkeypatch) -> None:
    # one node basis per solve: the Gram matrix for eta and the factor of
    # either path share it
    seen = []

    def counting(fn):
        def wrapper(basis, points):
            seen.append(points is td10.points)
            return fn(basis, points)
        return wrapper

    from sphsolve import harmonics, mz
    monkeypatch.setattr(harmonics, "eval_basis_matrix",
                        counting(harmonics.eval_basis_matrix))
    monkeypatch.setattr(mz, "eval_basis_matrix",
                        counting(mz.eval_basis_matrix))
    moments = modified_moments(SingularKernel.log(), 5)
    sol = solve_stage1(ProblemSpec(kernel=SingularKernel.log(), K=K, f=1.0,
                                   n=5, rule=td10), moments)
    assert sol.path == ("low-rank" if K.family == "constant" else "dense-lu")
    assert seen == [True]
