"""Gram matrices, the two-sided quadrature constant eta, exactness degrees."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from sphsolve import (
    QuadratureRule,
    equal_area_points,
    gram_matrix,
    mz_constant,
    random_rule,
)
from sphsolve.harmonics import eval_basis_matrix
from sphsolve.mz import EXACTNESS_TOL

from conftest import design_rule

FOUR_PI = 4.0 * math.pi


def harmonic_quadrature_errors(rule: QuadratureRule, d: int) -> np.ndarray:
    """sum_j w_j Y_i(x_j) - int Y_i for every harmonic of degree <= d; entry
    i belongs to degree isqrt(i)."""
    s = eval_basis_matrix(d, rule.points) @ rule.weights
    s[0] -= math.sqrt(FOUR_PI)
    return s


def per_harmonic_exact_to(rule: QuadratureRule, n: int) -> int:
    """The exactness degree by its definition: the largest d <= 2n+1 whose
    harmonics of every degree <= d the rule integrates within EXACTNESS_TOL,
    or -1."""
    errors = harmonic_quadrature_errors(rule, 2 * n + 1)
    failing = np.abs(errors) > EXACTNESS_TOL
    if not failing.any():
        return 2 * n + 1
    return math.isqrt(int(np.argmax(failing))) - 1


def test_gram_is_symmetric_identity_for_design(td20) -> None:
    # an exact-to-2n rule makes the degree-n Gram the identity
    G = gram_matrix(td20, 10)
    assert G.shape == (121, 121)
    assert np.array_equal(G, G.T)
    assert np.max(np.abs(G - np.eye(121))) <= 1e-10  # discrete orthonormality


def test_design_eta_at_half_degree(td20) -> None:
    report = mz_constant(td20, 10)
    assert report.eta <= 1e-10
    assert report.exact_to == 20
    assert report.mz_holds
    assert report.lambda_min == pytest.approx(1.0, abs=1e-10)
    assert report.lambda_max == pytest.approx(1.0, abs=1e-10)


def test_quadrature_error_on_harmonics_degrees(td20) -> None:
    # worst harmonic of each degree: exact through t, wrong beyond
    s = np.abs(harmonic_quadrature_errors(td20, 21))
    assert np.max(s[:21 * 21]) <= 1e-12
    assert np.max(s[21 * 21:]) > 1e-9


def test_single_point_rule_spectrum() -> None:
    # G = 4pi v v^T at the pole: lambda_max = 4pi |v|^2 = 4, so eta = 3
    rule = QuadratureRule(points=np.array([[0.0, 0.0, 1.0]]),
                          weights=np.array([FOUR_PI]), label="single")
    report = mz_constant(rule, 1)
    assert report.lambda_max == pytest.approx(4.0, abs=1e-12)
    assert report.eta == pytest.approx(3.0, abs=1e-12)
    assert report.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert not report.mz_holds
    assert "fails" in report.summary()


def test_underdetermined_rule_gram_is_singular() -> None:
    # fewer points than basis functions: the Gram cannot have full rank
    rule = equal_area_points(16)
    report = mz_constant(rule, 5)  # (n+1)^2 = 36 > 16
    assert report.lambda_min <= 1e-12
    assert report.eta >= 1.0
    assert not report.mz_holds


def test_random_rule_satisfies_mz_at_moderate_degree() -> None:
    # m ~ n^2 log n / eta^2 heuristic: 4000 points are plenty for n = 10
    report = mz_constant(random_rule(4000, 1), 10)
    assert report.eta < 1.0
    assert report.mz_holds
    assert report.exact_to == 0  # random points are exact only at degree 0


def test_equal_area_analysis_values() -> None:
    report = mz_constant(equal_area_points(400), 10)
    assert report.mz_holds
    assert 0.0 < report.eta < 1.0
    assert report.n == 10
    # layout is symmetric but not polynomial-exact beyond the constant
    assert report.exact_to in (0, 1)


def test_mz_summary_mentions_fields(td10) -> None:
    report = mz_constant(td10, 5)
    s = report.summary()
    for token in ("n=5", "eta=", "exact_to=10", "mesh_norm="):
        assert token in s


def test_eta_definition_matches_gram_spectrum(td10) -> None:
    report = mz_constant(td10, 5)
    lam = np.linalg.eigvalsh(gram_matrix(td10, 5))
    eta = max(lam[-1] - 1.0, 1.0 - lam[0], 0.0)
    assert report.eta == pytest.approx(eta, abs=1e-15)


def test_eta_is_one_computation_for_mz_and_solver() -> None:
    # mz_constant and both solver paths read eta from the same spectrum
    from sphsolve import (ContinuousKernel, ProblemSpec, SingularKernel,
                          solve_stage1)

    rule, n = random_rule(400, 5), 6
    lam = np.linalg.eigvalsh(gram_matrix(rule, n))
    eta = max(float(lam[-1]) - 1.0, 1.0 - float(lam[0]), 0.0)
    report = mz_constant(rule, n)
    assert (report.eta, report.lambda_min, report.lambda_max) == (
        eta, float(lam[0]), float(lam[-1]))
    for K, path in ((ContinuousKernel.constant(1.0), "low-rank"),
                    (ContinuousKernel.cos_scaled(1.0), "dense-lu")):
        sol = solve_stage1(ProblemSpec(kernel=SingularKernel.log(), K=K,
                                       f=1.0, n=n, rule=rule))
        assert sol.path == path
        assert sol.eta == eta


@pytest.mark.parametrize("which", ["td10", "td20", "random500", "td10x2"])
def test_exactness_and_harmonic_error_read_one_vector(which, request) -> None:
    # doubled weights fail even at degree 0, so exact_to is -1 there
    if which == "td10x2":
        td10 = request.getfixturevalue("td10")
        rule = QuadratureRule(points=td10.points, weights=2.0 * td10.weights,
                              label="td10x2")
    else:
        rule = (random_rule(500, 41) if which == "random500"
                else request.getfixturevalue(which))
    for n in (0, 4, 10):
        exact_to = per_harmonic_exact_to(rule, n)
        assert mz_constant(rule, n).exact_to == exact_to
        assert exact_to == {"td10": min(2 * n + 1, 10),
                            "td20": min(2 * n + 1, 20),
                            "random500": 0, "td10x2": -1}[which]


def td10_reweighted(scale) -> QuadratureRule:
    """The t = 10 design with weights w scale(z)."""
    rule = design_rule(10)
    return QuadratureRule(points=rule.points,
                          weights=rule.weights * scale(rule.points[:, 2]),
                          label="td10 reweighted")


# a bundled t-design, by t, at n <= t/2 + 2; the other rules at n <= 10,
# the reweighted t = 10 designs at n <= 7: w (1 + z/2) keeps the total
# weight and is exact only at degree 0, w / 4 sums to pi and fails there
TWO_CALL_RULES = {
    "10": (lambda: design_rule(10), 7),
    "20": (lambda: design_rule(20), 12),
    "30": (lambda: design_rule(30), 17),
    "random:500:41": (lambda: random_rule(500, 41), 10),
    "random:4000:7": (lambda: random_rule(4000, 7), 10),
    "equal_area:2000": (lambda: equal_area_points(2000), 10),
    "10 tilted": (lambda: td10_reweighted(lambda z: 1.0 + z / 2), 7),
    "10 / 4": (lambda: td10_reweighted(lambda z: 0.25), 7),
}


@pytest.mark.parametrize("name", list(TWO_CALL_RULES))
def test_mz_report_matches_the_two_call_form(name) -> None:
    # mz_constant reads exactness from the Gram matrix and the degree-(n+1)
    # cross block: every report field equals the form that evaluates the
    # basis at n for the Gram matrix and the whole basis at 2n+1 for the
    # per-harmonic exactness degree.  At n <= t/2 on a t-design the first
    # failing degree sum is in the cross block; at t/2 + 1 and t/2 + 2 it
    # is in the Gram matrix too
    from sphsolve import mesh_norm
    from sphsolve.mz import MZReport, gram_spectrum

    make, top = TWO_CALL_RULES[name]
    rule = make()
    h = mesh_norm(rule.points)
    for n in range(top + 1):
        eta, lam_min, lam_max = gram_spectrum(gram_matrix(rule, n))
        assert mz_constant(rule, n) == MZReport(
            n=n, eta=eta, lambda_min=lam_min, lambda_max=lam_max,
            exact_to=per_harmonic_exact_to(rule, n), mesh_norm=h)


def test_mz_constant_holds_the_degree_n_basis_not_the_tall_one() -> None:
    # the degree-(2n+1) basis of random:4000:7 at n = 15 is 4x the
    # degree-n one; a traced call peaks below 3x the degree-n basis
    import tracemalloc

    rule, n = random_rule(4000, 7), 15
    rule.mesh_norm  # the hull is the rule's, measured once, not the call's
    tracemalloc.start()
    try:
        mz_constant(rule, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (n + 1) ** 2 * rule.m * 8


def test_mz_constant_leaves_rule_points_untouched() -> None:
    # qhull can write into the array it hulls; the rule's read-only nodes
    # must come back bit for bit
    from conftest import design_rule

    rule = design_rule(10)
    before = rule.points.tobytes()
    mz_constant(rule, 5)
    assert rule.points.tobytes() == before
    assert not rule.points.flags.writeable


@pytest.mark.parametrize("n", [2.5, -1, -0.5])
def test_mz_constant_names_the_degree_it_was_given(td10, n) -> None:
    # the check comes before the basis sees 2n+1, so the message names n
    with pytest.raises(ValueError, match=re.escape(repr(n))):
        mz_constant(td10, n)


def test_mz_constant_warns_on_probe_at_the_callers_line(td10) -> None:
    from sphsolve import uniform_random_points

    probe = uniform_random_points(100, seed=3)
    with pytest.warns(DeprecationWarning, match="probe") as record:
        report = mz_constant(td10, 3, probe)
    assert len(record) == 1
    assert record[0].filename == __file__
    assert report == mz_constant(td10, 3)


def test_each_rule_measures_its_mesh_norm_once(monkeypatch) -> None:
    # the covering radius depends on the nodes alone: one hull per rule,
    # however many degrees are analysed, and a new rule measures its own
    from conftest import design_rule
    from sphsolve import sphere

    measure = sphere.mesh_norm
    calls = []

    def counted(points, probe=None):
        calls.append(points)
        return measure(points, probe)

    monkeypatch.setattr(sphere, "mesh_norm", counted)
    c, s = math.cos(0.7), math.sin(0.7)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    for rule, degrees in ((design_rule(10), 6), (random_rule(500, 41), 4)):
        before = rule.points.tobytes()
        calls.clear()
        reports = [mz_constant(rule, n) for n in range(degrees)]
        assert len(calls) == 1 and calls[0] is rule.points
        h = measure(rule.points)
        assert all(report.mesh_norm == h for report in reports)
        assert rule.points.tobytes() == before
        assert not rule.points.flags.writeable

        turned = dataclasses.replace(rule, points=rule.points @ turn.T)
        mz_constant(turned, 1)
        assert len(calls) == 2 and calls[1] is turned.points
        assert turned.mesh_norm == measure(turned.points)
        assert len(calls) == 2
