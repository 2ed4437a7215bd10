"""Legendre polynomials and real orthonormal spherical harmonics.

The basis {Y_{l,k}} is orthonormal with respect to the raw surface measure
(total mass 4pi), so Parseval identities downstream carry no extra
constants.  Convention, frozen for file-level reproducibility:

  flat order: (0,1),(1,1),(1,2),(1,3),(2,1),... (row l*l + k - 1); in degree l,
  k = 1..l       -> sin(m phi) components, m = l..1,
  k = l+1        -> the zonal m = 0 harmonic,
  k = l+2..2l+1  -> cos(m phi) components, m = 1..l.

No Condon-Shortley phase.  Associated Legendre functions are computed by
upward recurrences on the fully normalized functions, stable to l ~ 200.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .sphere import as_unit_vectors

__all__ = [
    "legendre_table",
    "eval_basis_matrix",
]

_DOMAIN_SLACK = 1e-12


def _check_degree(n) -> None:
    """ValueError unless n is an integer (numpy's included) and >= 0."""
    try:
        valid = operator.index(n) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"degree must be an integer >= 0, got {n!r}")


def _check_t(t):
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.abs(t) <= 1.0 + _DOMAIN_SLACK):  # NaN fails too
        bad = float(t.flat[int(np.argmax(np.abs(t)))])
        raise ValueError(f"Legendre argument out of [-1, 1]: {bad!r}")
    return np.clip(t, -1.0, 1.0)


def legendre_table(n: int, t) -> np.ndarray:
    """Rows P_0(t)..P_n(t) for an array of arguments, shape (n+1, *t.shape).

    (l+1) P_{l+1} = (2l+1) t P_l - l P_{l-1}, P_0 = 1, P_1 = t.
    """
    _check_degree(n)
    t = _check_t(t)
    out = np.empty((n + 1,) + t.shape, dtype=np.float64)
    out[0] = 1.0
    if n >= 1:
        out[1] = t
    for l in range(1, n):
        out[l + 1] = ((2 * l + 1) * t * out[l] - l * out[l - 1]) / (l + 1)
    return out


def _normalization_tables(n):
    """Coefficient tables for the normalized associated Legendre recurrence,
    indexed [m] and [l, m]; rec_a and rec_b are 0 off l >= m + 2."""
    orders = np.arange(n + 1.0)
    diag_c = np.zeros(n + 1)
    diag_c[1:] = np.sqrt((2.0 * orders[1:] + 1.0) / (2.0 * orders[1:]))
    l, m = np.tril_indices(n + 1, -2)  # every (l, m) with l >= m + 2
    rec_a = np.zeros((n + 1, n + 1))
    rec_b = np.zeros((n + 1, n + 1))
    rec_a[l, m] = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
    rec_b[l, m] = np.sqrt(((l - 1.0) ** 2 - m * m)
                          / (4.0 * (l - 1.0) ** 2 - 1.0))
    return diag_c, np.sqrt(2.0 * orders + 3.0), rec_a, rec_b


_NRM0 = 1.0 / math.sqrt(4.0 * math.pi)


def _basis_matrix(n, points):
    """Real orthonormal spherical harmonics up to degree n at unit vectors.

    Returns an array of shape ((n+1)^2, len(points)) in the flat order.
    The recurrence runs over whole rows: fully normalized associated
    Legendre functions in l for each order m, and cos/sin(m phi) by the
    angle-addition recurrence.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    diag_c, sub_c, rec_a, rec_b = _normalization_tables(n)
    out = np.empty(((n + 1) * (n + 1), pts.shape[0]))
    x = pts[:, 0]
    y = pts[:, 1]
    t = pts[:, 2]
    s = np.hypot(x, y)
    safe = s > 0.0
    cphi = np.where(safe, x / np.where(safe, s, 1.0), 1.0)
    sphi = np.where(safe, y / np.where(safe, s, 1.0), 0.0)
    sqrt2 = math.sqrt(2.0)
    pmm = np.full(pts.shape[0], _NRM0)
    cm = np.ones(pts.shape[0])
    sm = np.zeros(pts.shape[0])
    for m in range(0, n + 1):
        if m > 0:
            pmm = diag_c[m] * s * pmm
            cm, sm = cm * cphi - sm * sphi, sm * cphi + cm * sphi
        pl_prev = np.zeros(0)
        pl = pmm
        for l in range(m, n + 1):
            if l == m:
                val = pmm
            elif l == m + 1:
                val = sub_c[m] * t * pmm
            else:
                val = rec_a[l, m] * (t * pl - rec_b[l, m] * pl_prev)
            if l > m:
                pl_prev = pl
                pl = val
            base = l * l
            if m == 0:
                out[base + l] = val
            else:  # sqrt2 * val once, each product written in place
                v2 = sqrt2 * val
                np.multiply(v2, sm, out=out[base + (l - m)])
                np.multiply(v2, cm, out=out[base + (l + m)])
    return out


def eval_basis_matrix(n: int, points) -> np.ndarray:
    """Matrix of Y_i(x_j) for every harmonic of degree <= n, (n+1)^2 rows
    by m columns, flat row order."""
    _check_degree(n)
    return _basis_matrix(n, as_unit_vectors(points))
