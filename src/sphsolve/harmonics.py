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
    indexed [m] and [l, m]; rec_a and rec_b hold the recurrence's values
    where l >= m + 2 and are not read elsewhere (inf or nan there)."""
    orders = np.arange(n + 1.0)
    diag_c = np.zeros(n + 1)
    diag_c[1:] = np.sqrt((2.0 * orders[1:] + 1.0) / (2.0 * orders[1:]))
    l = orders[:, None]
    m = orders
    with np.errstate(divide="ignore", invalid="ignore"):
        rec_a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        rec_b = np.sqrt(((l - 1.0) ** 2 - m * m)
                        / (4.0 * (l - 1.0) ** 2 - 1.0))
    return diag_c, np.sqrt(2.0 * orders + 3.0), rec_a, rec_b


_NRM0 = 1.0 / math.sqrt(4.0 * math.pi)


def _row_degrees(n: int) -> np.ndarray:
    """Degree l of each of the (n+1)^2 rows of the flat order."""
    degrees = np.arange(n + 1)
    return np.repeat(degrees, 2 * degrees + 1)


def eval_basis_matrix(n: int, points) -> np.ndarray:
    """Matrix of Y_i(x_j) for every harmonic of degree <= n, (n+1)^2 rows
    by m columns, flat row order, at as_unit_vectors(points).

    The recurrences run over whole rows: cos/sin(m phi) by angle addition,
    then the fully normalized associated Legendre functions degree by
    degree, every order of one degree in each step, so the Python loop is
    O(n), not O(n^2).  Each entry takes the same floating-point operations
    in the same order as a loop over one (l, m) at a time would.
    """
    _check_degree(n)
    pts = as_unit_vectors(points)
    size = pts.shape[0]
    out = np.empty(((n + 1) * (n + 1), size))
    diag_c, sub_c, rec_a, rec_b = _normalization_tables(n)
    x = pts[:, 0]
    y = pts[:, 1]
    t = pts[:, 2]
    s = np.hypot(x, y)
    safe = s > 0.0
    cphi = np.where(safe, x / np.where(safe, s, 1.0), 1.0)
    sphi = np.where(safe, y / np.where(safe, s, 1.0), 0.0)
    sqrt2 = math.sqrt(2.0)
    cm = np.empty((n + 1, size))  # row m: cos(m phi)
    sm = np.empty((n + 1, size))  # row m: sin(m phi)
    cm[0] = 1.0
    sm[0] = 0.0
    for m in range(1, n + 1):
        cm[m] = cm[m - 1] * cphi - sm[m - 1] * sphi
        sm[m] = sm[m - 1] * cphi + cm[m - 1] * sphi
    # row m of cur is P_l^m for the degree l at hand, of prev for l - 1
    cur = np.empty((n + 1, size))
    prev = np.empty((n + 1, size))
    tmp = np.empty((n + 1, size))
    cur[0] = _NRM0
    for l in range(n + 1):
        if l > 0:
            # orders m < l - 1 by the three-term recurrence, written over
            # the rows of degree l - 2; then P_l^{l-1} and P_l^l from the
            # sectoral P_{l-1}^{l-1}
            prev, cur = cur, prev
            k = l - 1
            np.multiply(rec_b[l, :k, None], cur[:k], out=tmp[:k])
            np.multiply(t, prev[:k], out=cur[:k])
            np.subtract(cur[:k], tmp[:k], out=cur[:k])
            np.multiply(rec_a[l, :k, None], cur[:k], out=cur[:k])
            cur[k] = sub_c[k] * t * prev[k]
            cur[l] = diag_c[l] * s * prev[k]
        rows = out[l * l:(l + 1) * (l + 1)]  # the 2l+1 rows of degree l
        rows[l] = cur[0]
        # sqrt2 * P_l^m for m = 1..l goes into the cos rows, which first
        # feed the sin rows (m = l..1) and are then scaled in place
        cos_rows = rows[l + 1:]
        np.multiply(sqrt2, cur[1:l + 1], out=cos_rows)
        np.multiply(cos_rows[::-1], sm[l:0:-1], out=rows[:l])
        np.multiply(cos_rows, cm[1:l + 1], out=cos_rows)
    return out
