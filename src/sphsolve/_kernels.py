"""Per-entry numpy reference kernels for the tests and the benchmark.

* ``zonal_sum`` and ``product_weight_matrix`` accumulate
  sum_l c_l P_l(t) (times w_j K) over an array of dot products by the
  Legendre recurrence.  The solver does not call them: it forms the same
  values by the addition theorem as BLAS products of basis matrices, and
  these kernels are the independent per-entry reference it is compared
  against.
* ``basis_matrix`` is the harmonic basis of ``sphsolve.harmonics``
  (the same function object), without the unit-vector check.

Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from .harmonics import _basis_matrix as basis_matrix

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "zonal_sum",
    "basis_matrix",
    "product_weight_matrix",
    "K_CONST",
    "K_SIN",
    "K_COS",
]

# perfbench/run.py writes these two names into the machine block of its
# results.
HAVE_NUMBA = False
BACKEND = "numpy"

# Continuous-kernel codes for the fused weight*K evaluation.
K_CONST = 0
K_SIN = 1
K_COS = 2


def zonal_sum(coeffs, dots):
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


def product_weight_matrix(dots, w, coeffs, kcode, kparam):
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
        zs = zonal_sum(coeffs, block)
        if kcode == K_CONST:
            kv = kparam
        else:
            r = np.sqrt(np.maximum(2.0 * (1.0 - block), 0.0))
            kv = np.sin(kparam * r) if kcode == K_SIN else np.cos(kparam * r)
        out[start:start + chunk] = wv * zs * kv
    return out
