"""Discrete L2 projection (hyperinterpolation) driven by a quadrature rule."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sphsolve import (
    HarmonicBasis,
    HarmonicIndex,
    eval_basis_matrix,
    flat_index,
    hyper_coefficients,
    hyper_evaluate,
    hyper_l2_norm,
    mz_constant,
    uniform_random_points,
)

FOUR_PI = 4.0 * math.pi
SQRT_FOUR_PI = math.sqrt(FOUR_PI)


def test_constant_function_projects_to_constant_mode(td20) -> None:
    c = hyper_coefficients(td20, 10, np.ones(td20.m))
    assert c.coeffs[0] == pytest.approx(SQRT_FOUR_PI, rel=1e-12)
    assert np.max(np.abs(c.coeffs[1:])) <= 1e-12
    assert c.rule_label == td20.label
    # L2 norm of the constant 1 over the sphere is sqrt(4 pi)
    assert hyper_l2_norm(c) == pytest.approx(SQRT_FOUR_PI, rel=1e-12)
    assert hyper_l2_norm(c) == pytest.approx(3.5449077, abs=1e-7)


def test_single_harmonic_projects_to_unit_vector(td20) -> None:
    idx = HarmonicIndex(2, 1)
    samples = eval_basis_matrix(HarmonicBasis(2), td20.points)[flat_index(idx)]
    c = hyper_coefficients(td20, 10, samples)
    expected = np.zeros(121)
    expected[flat_index(idx)] = 1.0
    assert np.max(np.abs(c.coeffs - expected)) <= 1e-10


def test_reproduces_polynomials_of_projection_degree(td20) -> None:
    # degree-10 polynomial, rule exact to 20: L_n is the identity on P_n
    n = 10
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal((n + 1) ** 2)
    g_nodes = coeffs @ eval_basis_matrix(HarmonicBasis(n), td20.points)
    c = hyper_coefficients(td20, n, g_nodes)
    assert np.max(np.abs(c.coeffs - coeffs)) <= 1e-10

    targets = uniform_random_points(100, seed=9).points
    exact = coeffs @ eval_basis_matrix(HarmonicBasis(n), targets)
    assert np.max(np.abs(hyper_evaluate(c, targets) - exact)) <= 1e-9


def test_evaluate_accepts_single_point(td10) -> None:
    c = hyper_coefficients(td10, 5, np.ones(td10.m))
    v = hyper_evaluate(c, np.array([0.0, 0.0, 1.0]))
    assert v.shape == (1,)
    assert v[0] == pytest.approx(1.0, rel=1e-12)


def test_stability_bound_random_samples(td20) -> None:
    # ||L_n g||_2 <= sqrt(1 + eta) sqrt(sum w) max_j |g(x_j)|
    n = 10
    eta = mz_constant(td20, n).eta
    bound_factor = math.sqrt(1.0 + eta) * math.sqrt(FOUR_PI)
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.standard_normal(td20.m)
        c = hyper_coefficients(td20, n, g)
        assert hyper_l2_norm(c) <= bound_factor * np.max(np.abs(g)) + 1e-12


def test_parseval_norm_identity(td10) -> None:
    rng = np.random.default_rng(3)
    c = hyper_coefficients(td10, 5, rng.standard_normal(td10.m))
    assert hyper_l2_norm(c) == pytest.approx(float(np.linalg.norm(c.coeffs)),
                                             rel=1e-15)


def test_sample_count_must_match_rule(td10) -> None:
    with pytest.raises(ValueError, match="samples"):
        hyper_coefficients(td10, 5, np.ones(7))


def test_coefficient_container_validation() -> None:
    from sphsolve.hyperinterp import HyperCoefficients
    with pytest.raises(ValueError, match="coefficients"):
        HyperCoefficients(n=2, coeffs=np.zeros(4), rule_label="x")
    coeffs = np.zeros(9)
    c = HyperCoefficients(n=2, coeffs=coeffs, rule_label="x")
    coeffs[0] = 1.0  # the caller's array stays writable and apart
    assert c.coeffs[0] == 0.0 and not c.coeffs.flags.writeable


def test_evaluate_at_no_points(td10) -> None:
    c = hyper_coefficients(td10, 5, np.ones(td10.m))
    assert hyper_evaluate(c, np.empty((0, 3))).shape == (0,)
