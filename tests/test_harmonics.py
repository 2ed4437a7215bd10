"""Legendre recurrence, real orthonormal harmonics, addition theorem."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphsolve import (
    eval_basis_matrix,
    legendre_table,
    uniform_random_points,
)


def addition_sum(l: int, x, y) -> float:
    """sum_k Y_{l,k}(x) Y_{l,k}(y), the rows of degree l from the basis."""
    Y = eval_basis_matrix(l, np.array([x, y]))[l * l:]
    return float(np.dot(Y[:, 0], Y[:, 1]))


def test_legendre_fixed_values() -> None:
    P = legendre_table(10, np.array([0.5, 1.0, -0.3]))
    assert P[2, 0] == pytest.approx(-0.125, abs=1e-15)
    assert P[10, 1] == pytest.approx(1.0, abs=1e-14)
    assert P[0, 2] == 1.0
    assert P[1, 2] == pytest.approx(-0.3, abs=1e-15)


@given(st.integers(0, 200), st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_legendre_bounded_on_interval(l: int, t: float) -> None:
    # |P_l| <= 1 on [-1, 1]; the recurrence must not blow up through l=200
    assert np.max(np.abs(legendre_table(l, t))) <= 1.0 + 1e-12


def test_legendre_endpoint_parity() -> None:
    P = legendre_table(29, np.array([1.0, -1.0]))
    parity = (-1.0) ** np.arange(30)
    assert np.allclose(P[:, 0], 1.0, rtol=0.0, atol=1e-13)
    assert np.allclose(P[:, 1], parity, rtol=0.0, atol=1e-13)


def test_legendre_table_matches_scalar_calls() -> None:
    t = np.linspace(-1.0, 1.0, 17)
    table = legendre_table(12, t)
    assert table.shape == (13, 17)
    for i in (0, 5, 8, 16):
        assert np.array_equal(table[:, i], legendre_table(12, t[i]))
    # against numpy's Legendre series, an independent evaluation
    for l in (0, 3, 7, 12):
        assert np.allclose(table[l], np.polynomial.legendre.legval(
            t, np.eye(13)[l]), rtol=0.0, atol=1e-14)


def test_legendre_rejects_out_of_domain() -> None:
    with pytest.raises(ValueError, match="out of"):
        legendre_table(3, 1.5)
    with pytest.raises(ValueError, match="out of"):
        legendre_table(3, np.array([0.0, -1.0 - 1e-9]))
    with pytest.raises(ValueError, match="out of"):
        legendre_table(3, np.array([0.5, np.nan]))
    for n in (-1, -3, 2.5, 3.0):
        with pytest.raises(ValueError, match="degree must be an integer"):
            legendre_table(n, 0.0)
        with pytest.raises(ValueError, match="degree must be an integer"):
            eval_basis_matrix(n, [[0.0, 0.0, 1.0]])
    assert legendre_table(np.int64(2), 0.5)[2] == -0.125


def test_constant_harmonic_value() -> None:
    # Y_{0,1} = 1/sqrt(4 pi) everywhere
    c = 1.0 / math.sqrt(4.0 * math.pi)
    Y0 = eval_basis_matrix(0, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert Y0.shape == (1, 2)
    for value in Y0[0]:
        assert value == pytest.approx(0.28209479177, abs=1e-11)
        assert value == pytest.approx(c, abs=1e-15)


def test_zonal_harmonic_at_pole() -> None:
    # (l, k) sits in row l*l + k - 1; the k = l+1 member is zonal, and at
    # the pole it equals sqrt((2l+1)/4pi)
    pole = np.array([[0.0, 0.0, 1.0]])
    Y = eval_basis_matrix(7, pole)[:, 0]
    assert Y[1 * 1 + 2 - 1] == pytest.approx(0.48860251190, abs=1e-11)
    for l in range(0, 8):
        assert Y[l * l + l] == pytest.approx(
            math.sqrt((2 * l + 1) / (4.0 * math.pi)), abs=1e-12)
    # every non-zonal harmonic vanishes at the pole
    for l in range(0, 8):
        for k in range(1, 2 * l + 2):
            if k != l + 1:
                assert abs(Y[l * l + k - 1]) <= 1e-13


def test_addition_kernel_fixed_values() -> None:
    x = np.array([0.0, 0.0, 1.0])
    assert addition_sum(3, x, x) == pytest.approx(
        7.0 / (4.0 * math.pi), abs=1e-12)
    assert addition_sum(3, x, x) == pytest.approx(0.55704230082, abs=1e-11)
    # dot = 0.5: (5/4pi) P_2(0.5) = -0.125 * 5/(4 pi)
    y = np.array([0.5, math.sqrt(0.75), 0.0])
    x2 = np.array([1.0, 0.0, 0.0])
    assert addition_sum(2, x2, y) == pytest.approx(-0.04973591971, abs=1e-11)


def test_addition_theorem_against_explicit_sum() -> None:
    # sum_k Y_{l,k}(x) Y_{l,k}(y) == ((2l+1)/4pi) P_l(x.y) at random pairs
    grid = uniform_random_points(400, seed=11)
    xs, ys = grid.points[:200], grid.points[200:]
    n = 30
    Yx = eval_basis_matrix(n, xs)
    Yy = eval_basis_matrix(n, ys)
    P = legendre_table(n, np.clip(np.sum(xs * ys, axis=1), -1.0, 1.0))
    worst = 0.0
    for l in range(0, n + 1):
        rows = slice(l * l, (l + 1) * (l + 1))
        direct = np.sum(Yx[rows] * Yy[rows], axis=0)
        collapsed = (2 * l + 1) / (4.0 * math.pi) * P[l]
        worst = max(worst, float(np.max(np.abs(direct - collapsed))))
    assert worst <= 1e-11


def test_basis_matrix_shape_and_single_point_consistency() -> None:
    grid = uniform_random_points(5, seed=2)
    for n in (0, 1, 4, np.int64(4)):
        assert eval_basis_matrix(n, grid.points).shape == ((n + 1) ** 2, 5)
    Y = eval_basis_matrix(4, grid.points)
    for l, k in ((3, 1), (4, 9), (2, 3)):
        for j in range(5):
            single = eval_basis_matrix(l, grid.points[j])
            assert Y[l * l + k - 1, j] == pytest.approx(
                single[l * l + k - 1, 0], abs=1e-13)


def _basis_one_order_at_a_time(n, points):
    """The basis by scalar-coefficient recurrences, one (l, m) row at a
    time: the reference for the array-step form in harmonics."""
    x, y, t = points[:, 0], points[:, 1], points[:, 2]
    s = np.hypot(x, y)
    safe = s > 0.0
    cphi = np.where(safe, x / np.where(safe, s, 1.0), 1.0)
    sphi = np.where(safe, y / np.where(safe, s, 1.0), 0.0)
    out = np.empty(((n + 1) ** 2, len(points)))
    pmm = np.full(len(points), 1.0 / math.sqrt(4.0 * math.pi))
    cm, sm = np.ones(len(points)), np.zeros(len(points))
    for m in range(n + 1):
        if m > 0:
            pmm = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * pmm
            cm, sm = cm * cphi - sm * sphi, sm * cphi + cm * sphi
        pl_prev, pl = None, pmm
        for l in range(m, n + 1):
            if l == m:
                val = pmm
            elif l == m + 1:
                val = math.sqrt(2.0 * m + 3.0) * t * pmm
            else:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m)
                              / (4.0 * (l - 1.0) ** 2 - 1.0))
                val = a * (t * pl - b * pl_prev)
            if l > m:
                pl_prev, pl = pl, val
            if m == 0:
                out[l * l + l] = val
            else:
                out[l * l + l - m] = math.sqrt(2.0) * val * sm
                out[l * l + l + m] = math.sqrt(2.0) * val * cm
    return out


def test_basis_equals_the_one_order_at_a_time_recurrence_bit_for_bit() -> None:
    # the same arithmetic in the same order, so equal, not close
    from sphsolve.sphere import as_unit_vectors

    grid = uniform_random_points(200, seed=9)
    points = np.vstack([grid.points, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    for n in (0, 1, 2, 3, 7, 31):
        for pts in (points, points[:1], points[-2:]):
            reference = _basis_one_order_at_a_time(n, as_unit_vectors(pts))
            assert np.array_equal(eval_basis_matrix(n, pts), reference)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_row_degrees_follow_the_flat_order(n) -> None:
    # row l*l + k - 1 has degree l for k = 1..2l+1
    from sphsolve.harmonics import _row_degrees

    expected = np.repeat(np.arange(n + 1), 2 * np.arange(n + 1) + 1)
    assert np.array_equal(_row_degrees(n), expected)


def test_every_row_matches_the_associated_legendre_closed_form() -> None:
    # each (l, k) row against sqrt2 N_lm P_l^m(cos theta) sin/cos(m phi)
    # from scipy's lpmv, an evaluation independent of the recurrence; the
    # addition theorem sums over k and cannot see rows swapped in a degree
    from scipy.special import lpmv

    grid = uniform_random_points(60, seed=4)
    points = np.vstack([grid.points, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                      [-1.0, 0.0, 0.0], [0.0, -0.6, 0.8]]])
    n = 31
    Y = eval_basis_matrix(n, points)
    theta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    phi = np.arctan2(points[:, 1], points[:, 0])
    for l in range(n + 1):
        for m in range(l + 1):
            # lpmv carries the Condon-Shortley phase (-1)^m; the basis not
            norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                             * (math.factorial(l - m) / math.factorial(l + m)))
            p = (-1.0) ** m * norm * lpmv(m, l, np.cos(theta))
            if m == 0:
                expected = {l: p}
            else:
                expected = {l - m: math.sqrt(2.0) * p * np.sin(m * phi),
                            l + m: math.sqrt(2.0) * p * np.cos(m * phi)}
            for k0, row in expected.items():
                np.testing.assert_allclose(Y[l * l + k0], row,
                                           rtol=0.0, atol=1e-11,
                                           err_msg=f"l={l} m={m}")
