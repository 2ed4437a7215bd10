"""Numerical kernels: numba-jitted fast path plus a pure-numpy fallback.

* ``basis_matrix`` -- evaluate the full real spherical-harmonic basis up
  to a degree at a batch of unit vectors (product-integration weights by
  the addition theorem, Gram matrices, hyperinterpolation),
* ``zonal_sum`` and ``product_weight_matrix`` -- accumulate
  sum_l c_l P_l(t) (times w_j K) over an array of dot products by the
  Legendre recurrence.  The solver does not call them; they are the
  per-entry reference the tests and benchmarks compare against.

The backend is fixed at import time from the environment variable
``SPHSOLVE_BACKEND``: ``"numba"`` (default) or ``"numpy"``.  If numba is
requested but not importable, the numpy path is used.  Both implementations
are importable side by side so the equivalence tests and
``benchmarks/bench_kernels.py`` can compare them.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "zonal_sum",
    "zonal_sum_numpy",
    "zonal_sum_numba",
    "basis_matrix",
    "basis_matrix_numpy",
    "basis_matrix_numba",
    "product_weight_matrix",
    "product_weight_matrix_numpy",
    "product_weight_matrix_numba",
    "K_CONST",
    "K_SIN",
    "K_COS",
]

_REQUESTED = os.environ.get("SPHSOLVE_BACKEND", "numba").strip().lower()
if _REQUESTED not in ("numba", "numpy"):
    raise ValueError(
        f"SPHSOLVE_BACKEND must be 'numba' or 'numpy', got {_REQUESTED!r}"
    )

HAVE_NUMBA = False
if _REQUESTED == "numba":
    try:
        from numba import njit, prange

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        pass

BACKEND = "numba" if HAVE_NUMBA else "numpy"


def zonal_sum_numpy(coeffs, dots):
    """sum_l coeffs[l] * P_l(dots), elementwise over an arbitrary array.

    Three-term Legendre recurrence vectorized over the whole array;
    O(len(coeffs)) passes, two work arrays.
    """
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    t = np.asarray(dots, dtype=np.float64)
    out = np.full(t.shape, c[0])
    if c.size == 1:
        return out
    pprev = np.ones_like(t)
    pcur = t.copy()
    out += c[1] * pcur
    for l in range(1, c.size - 1):
        pnext = ((2 * l + 1) * t * pcur - l * pprev) / (l + 1)
        out += c[l + 1] * pnext
        pprev, pcur = pcur, pnext
    return out


def _zonal_sum_scalar_py(coeffs, flat, out):
    nmax = coeffs.size - 1
    for i in range(flat.size):
        t = flat[i]
        acc = coeffs[0]
        if nmax >= 1:
            pprev = 1.0
            pcur = t
            acc += coeffs[1] * pcur
            for l in range(1, nmax):
                pnext = ((2 * l + 1) * t * pcur - l * pprev) / (l + 1)
                acc += coeffs[l + 1] * pnext
                pprev = pcur
                pcur = pnext
        out[i] = acc


def _basis_column_py(x, y, t, j, nrm, diag_c, sub_c, rec_a, rec_b, out):
    # One quadrature point: recurrence on fully normalized associated
    # Legendre functions, sin/cos(m*phi) by the angle-addition recurrence.
    n = diag_c.shape[0] - 1
    sqrt2 = math.sqrt(2.0)
    s = math.sqrt(x * x + y * y)
    if s > 0.0:
        cphi = x / s
        sphi = y / s
    else:
        cphi = 1.0
        sphi = 0.0
    pmm = nrm  # N(m, m) at m = 0
    cm = 1.0  # cos(m*phi)
    sm = 0.0  # sin(m*phi)
    for m in range(0, n + 1):
        if m > 0:
            pmm = diag_c[m] * s * pmm
            cnext = cm * cphi - sm * sphi
            snext = sm * cphi + cm * sphi
            cm = cnext
            sm = snext
        pl_prev = 0.0
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
                out[base + l, j] = val
            else:
                out[base + (l - m), j] = sqrt2 * val * sm
                out[base + (l + m), j] = sqrt2 * val * cm


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


def basis_matrix_numpy(n, points):
    """Real orthonormal spherical harmonics up to degree n at unit vectors.

    Returns an array of shape ((n+1)^2, len(points)); row ordering is the
    flat (degree, order) ordering used throughout the package.
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


if HAVE_NUMBA:
    _zonal_sum_scalar_nb = njit(cache=True)(_zonal_sum_scalar_py)
    _basis_column_nb = njit(cache=True)(_basis_column_py)

    @njit(parallel=True, cache=True)
    def _zonal_sum_parallel(coeffs, flat, out):
        nmax = coeffs.size - 1
        for i in prange(flat.size):
            t = flat[i]
            acc = coeffs[0]
            if nmax >= 1:
                pprev = 1.0
                pcur = t
                acc += coeffs[1] * pcur
                for l in range(1, nmax):
                    pnext = ((2 * l + 1) * t * pcur - l * pprev) / (l + 1)
                    acc += coeffs[l + 1] * pnext
                    pprev = pcur
                    pcur = pnext
            out[i] = acc

    @njit(parallel=True, cache=True)
    def _basis_matrix_parallel(points, nrm, diag_c, sub_c, rec_a, rec_b, out):
        for j in prange(points.shape[0]):
            _basis_column_nb(
                points[j, 0], points[j, 1], points[j, 2], j,
                nrm, diag_c, sub_c, rec_a, rec_b, out,
            )

    def zonal_sum_numba(coeffs, dots):
        c = np.ascontiguousarray(coeffs, dtype=np.float64)
        t = np.ascontiguousarray(dots, dtype=np.float64)
        flat = t.reshape(-1)
        out = np.empty_like(flat)
        if flat.size >= 4096:
            _zonal_sum_parallel(c, flat, out)
        else:
            _zonal_sum_scalar_nb(c, flat, out)
        return out.reshape(t.shape)

    def basis_matrix_numba(n, points):
        pts = np.ascontiguousarray(points, dtype=np.float64)
        diag_c, sub_c, rec_a, rec_b = _normalization_tables(n)
        out = np.empty(((n + 1) * (n + 1), pts.shape[0]))
        _basis_matrix_parallel(pts, _NRM0, diag_c, sub_c, rec_a, rec_b, out)
        return out

else:  # pragma: no cover - depends on environment
    zonal_sum_numba = None
    basis_matrix_numba = None


def zonal_sum(coeffs, dots):
    if BACKEND == "numba":
        return zonal_sum_numba(coeffs, dots)
    return zonal_sum_numpy(coeffs, dots)


def basis_matrix(n, points):
    if BACKEND == "numba":
        return basis_matrix_numba(n, points)
    return basis_matrix_numpy(n, points)


# Continuous-kernel codes for the fused weight*K evaluation.
K_CONST = 0
K_SIN = 1
K_COS = 2


def product_weight_matrix_numpy(dots, w, coeffs, kcode, kparam):
    """B_ij = w_j * (sum_l coeffs[l] P_l(dots_ij)) * K(r_ij), r = sqrt(2(1-t)).

    K is selected by kcode: kparam (constant), sin(kparam*r), cos(kparam*r).
    Row-chunked so peak memory stays near two extra row blocks.
    """
    d = np.asarray(dots, dtype=np.float64)
    wv = np.asarray(w, dtype=np.float64)
    out = np.empty_like(d)
    chunk = max(1, min(d.shape[0], (1 << 22) // max(d.shape[1], 1)))
    for start in range(0, d.shape[0], chunk):
        block = d[start:start + chunk]
        zs = zonal_sum_numpy(coeffs, block)
        if kcode == K_CONST:
            kv = kparam
        else:
            r = np.sqrt(np.maximum(2.0 * (1.0 - block), 0.0))
            kv = np.sin(kparam * r) if kcode == K_SIN else np.cos(kparam * r)
        out[start:start + chunk] = wv * zs * kv
    return out


if HAVE_NUMBA:

    @njit(parallel=True, cache=True)
    def _product_weight_parallel(dots, w, coeffs, kcode, kparam, out):
        nmax = coeffs.size - 1
        for i in prange(dots.shape[0]):
            for j in range(dots.shape[1]):
                t = dots[i, j]
                acc = coeffs[0]
                if nmax >= 1:
                    pprev = 1.0
                    pcur = t
                    acc += coeffs[1] * pcur
                    for l in range(1, nmax):
                        pnext = ((2 * l + 1) * t * pcur - l * pprev) / (l + 1)
                        acc += coeffs[l + 1] * pnext
                        pprev = pcur
                        pcur = pnext
                if kcode == 0:
                    kv = kparam
                else:
                    q = 2.0 * (1.0 - t)
                    r = math.sqrt(q) if q > 0.0 else 0.0
                    kv = math.sin(kparam * r) if kcode == 1 else math.cos(kparam * r)
                out[i, j] = w[j] * acc * kv

    def product_weight_matrix_numba(dots, w, coeffs, kcode, kparam):
        d = np.ascontiguousarray(dots, dtype=np.float64)
        wv = np.ascontiguousarray(w, dtype=np.float64)
        c = np.ascontiguousarray(coeffs, dtype=np.float64)
        out = np.empty_like(d)
        _product_weight_parallel(d, wv, c, kcode, kparam, out)
        return out

else:  # pragma: no cover - depends on environment
    product_weight_matrix_numba = None


def product_weight_matrix(dots, w, coeffs, kcode, kparam):
    if BACKEND == "numba":
        return product_weight_matrix_numba(dots, w, coeffs, kcode, kparam)
    return product_weight_matrix_numpy(dots, w, coeffs, kcode, kparam)
