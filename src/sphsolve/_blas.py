"""Dense products and the symmetric eigensolve on scipy's BLAS and LAPACK.

They run in the thread pool of scipy's lu_factor, not in the separate one
of numpy's own OpenBLAS; the sphsolve.solver module docstring says why.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm, get_blas_funcs
from scipy.linalg.lapack import dsyevd, dsyevd_lwork

__all__ = ["matmul", "matvec", "eigvalsh"]


def _fortran(a: np.ndarray,
             dtype=np.float64) -> tuple[np.ndarray, int]:
    """(f, trans) with f Fortran-ordered and f, or f.T if trans, equal to a
    in dtype.

    A C-ordered a goes through as its transposed view; only an operand
    that is neither C- nor F-contiguous, or not of dtype, is copied.
    """
    a = np.asarray(a, dtype=dtype)
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
    """a @ x for a 2-D a and x of shape (k,), in a's precision.

    A float32 a runs sgemv, with x cast to float32 and a float32 result;
    any other a runs dgemv in float64.
    """
    a = np.asarray(a)
    dtype = np.float32 if a.dtype == np.float32 else np.float64
    x = np.asarray(x, dtype=dtype)
    if x.shape != (a.shape[1],):
        raise ValueError(f"matvec: shapes {a.shape} and {x.shape} "
                         "do not match")
    if a.size == 0:  # gemv rejects empty operands; a @ x is zeros
        return np.zeros(a.shape[0], dtype)
    f, trans = _fortran(a, dtype)
    return get_blas_funcs("gemv", dtype=dtype)(1.0, f, x, trans=trans)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric a in ascending order: LAPACK dsyevd on
    a's lower triangle with no eigenvectors, the call that
    scipy.linalg.eigvalsh(a, driver="evd") makes for float64 a; a is not
    written."""
    lwork, liwork, _ = dsyevd_lwork(a.shape[0], compute_v=0, lower=1)
    w, _, info = dsyevd(a, compute_v=0, lower=1, lwork=int(lwork),
                        liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"syevd failed with info = {info}")
    return w
