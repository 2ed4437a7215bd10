"""Legendre polynomials and real orthonormal spherical harmonics.

The basis {Y_{l,k}} is orthonormal with respect to the raw surface measure
(total mass 4pi), so Parseval identities downstream carry no extra
constants.  Convention, frozen for file-level reproducibility:

  flat order: (0,1),(1,1),(1,2),(1,3),(2,1),...  with, inside degree l,
  k = 1..l       -> sin(m phi) components, m = l..1,
  k = l+1        -> the zonal m = 0 harmonic,
  k = l+2..2l+1  -> cos(m phi) components, m = 1..l.

No Condon-Shortley phase.  Associated Legendre functions are computed by
upward recurrences on the fully normalized functions, stable to l ~ 200.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere import as_unit_vectors

__all__ = [
    "HarmonicIndex",
    "HarmonicBasis",
    "legendre_P",
    "legendre_table",
    "flat_index",
    "flat_to_index",
    "eval_harmonic",
    "eval_basis_matrix",
    "addition_kernel",
]

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree l >= 0 and order k in [1, 2l+1]."""

    l: int
    k: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError(f"degree must be >= 0, got {self.l}")
        if not 1 <= self.k <= 2 * self.l + 1:
            raise ValueError(
                f"order k must lie in [1, {2 * self.l + 1}] for degree "
                f"{self.l}, got {self.k}")


@dataclass(frozen=True)
class HarmonicBasis:
    """All harmonics of degree <= n in the frozen flat order."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"max degree must be >= 0, got {self.n}")

    def __len__(self) -> int:
        return (self.n + 1) ** 2

    def indices(self) -> list[HarmonicIndex]:
        return [HarmonicIndex(l, k)
                for l in range(self.n + 1)
                for k in range(1, 2 * l + 2)]


def flat_index(idx: HarmonicIndex) -> int:
    """Position of (l, k) in the flat ordering: l^2 + (k - 1)."""
    return idx.l * idx.l + (idx.k - 1)


def flat_to_index(i: int) -> HarmonicIndex:
    """Inverse of flat_index."""
    if i < 0:
        raise ValueError(f"flat index must be >= 0, got {i}")
    l = math.isqrt(i)
    return HarmonicIndex(l, i - l * l + 1)


def _check_t(t):
    t = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(t) > 1.0 + _DOMAIN_SLACK):
        bad = float(t.flat[int(np.argmax(np.abs(t)))])
        raise ValueError(f"Legendre argument out of [-1, 1]: {bad!r}")
    return np.clip(t, -1.0, 1.0)


def legendre_P(l: int, t):
    """P_l(t) by the three-term recurrence; accepts scalars or arrays."""
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    t = _check_t(t)
    scalar = t.ndim == 0
    p = legendre_table(l, np.atleast_1d(t))[l]
    return float(p[0]) if scalar else p


def legendre_table(n: int, t) -> np.ndarray:
    """Rows P_0(t)..P_n(t) for an array of arguments, shape (n+1, *t.shape).

    (l+1) P_{l+1} = (2l+1) t P_l - l P_{l-1}, P_0 = 1, P_1 = t.
    """
    t = _check_t(t)
    out = np.empty((n + 1,) + t.shape, dtype=np.float64)
    out[0] = 1.0
    if n >= 1:
        out[1] = t
    for l in range(1, n):
        out[l + 1] = ((2 * l + 1) * t * out[l] - l * out[l - 1]) / (l + 1)
    return out


def _normalization_tables(n):
    """Coefficient tables for the normalized associated Legendre recurrence."""
    diag_c = np.zeros(n + 1)
    sub_c = np.zeros(n + 1)
    for m in range(1, n + 1):
        diag_c[m] = math.sqrt((2 * m + 1) / (2.0 * m))
    for m in range(0, n + 1):
        sub_c[m] = math.sqrt(2 * m + 3.0)
    rec_a = np.zeros((n + 1, n + 1))
    rec_b = np.zeros((n + 1, n + 1))
    for m in range(0, n + 1):
        for l in range(m + 2, n + 1):
            rec_a[l, m] = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            rec_b[l, m] = math.sqrt(
                ((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)
            )
    return diag_c, sub_c, rec_a, rec_b


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
            else:
                out[base + (l - m)] = sqrt2 * val * sm
                out[base + (l + m)] = sqrt2 * val * cm
    return out


def eval_basis_matrix(basis: HarmonicBasis, points) -> np.ndarray:
    """Matrix of Y_i(x_j), (n+1)^2 rows by m columns, flat row order."""
    pts = as_unit_vectors(points)
    return _basis_matrix(basis.n, pts)


def eval_harmonic(idx: HarmonicIndex, x) -> float:
    """Value of one real orthonormal spherical harmonic at one point."""
    col = eval_basis_matrix(HarmonicBasis(idx.l), np.asarray(x)[None, :])
    return float(col[flat_index(idx), 0])


def addition_kernel(l: int, x, y) -> float:
    """Sum_k Y_{l,k}(x) Y_{l,k}(y) collapsed to ((2l+1)/(4pi)) P_l(x.y)."""
    d = float(np.clip(np.dot(np.asarray(x), np.asarray(y)), -1.0, 1.0))
    return (2 * l + 1) / (4.0 * math.pi) * legendre_P(l, d)
