"""Dense products and the symmetric eigensolve on scipy's BLAS and LAPACK.

They run in the thread pool of scipy's lu_factor, not in the separate one
of numpy's own OpenBLAS; the sphsolve.solver module docstring says why.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dgemv

__all__ = ["matmul", "matvec", "eigvalsh"]


def _fortran(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(f, trans) with f Fortran-ordered and f, or f.T if trans, equal to a.

    A C-ordered a goes through as its transposed view; only an operand
    that is neither C- nor F-contiguous is copied.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.flags.f_contiguous:
        return a, 0
    if a.flags.c_contiguous:
        return a.T, 1
    return np.asfortranarray(a), 0


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D float64 a and b, C-ordered.

    The product is formed as (a @ b)^T = b^T a^T in Fortran order, which is
    a @ b in C order.
    """
    bt, trans_b = _fortran(np.asarray(b).T)
    at, trans_a = _fortran(np.asarray(a).T)
    return dgemm(1.0, bt, at, trans_a=trans_b, trans_b=trans_a).T


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a 2-D float64 a and x of shape (k,) or (k, 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape not in ((a.shape[1],), (a.shape[1], 1)):
        raise ValueError(f"matvec: shapes {a.shape} and {x.shape} "
                         "do not match")
    if a.size == 0:  # dgemv rejects empty operands; a @ x is zeros
        return np.zeros(a.shape[:1] + x.shape[1:])
    f, trans = _fortran(a)
    y = dgemv(1.0, f, x.reshape(-1), trans=trans)
    return y if x.ndim == 1 else y[:, None]


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric a in ascending order (LAPACK syevd)."""
    return scipy.linalg.eigvalsh(a, driver="evd", check_finite=False)
