"""Two-stage product-integration solver for phi - A phi = f on the sphere.

Stage 1 collocates at the quadrature points and solves the dense system

    phi(x_i) - sum_j W_j(x_i) K(x_i, x_j) phi(x_j) = f(x_i),

where the product-integration weights absorb the singular factor h:

    W_j(x) = w_j sum_{l<=n} mu_l ((2l+1)/(4pi)) P_l(x . x_j)
           = w_j sum_{l<=n} mu_l sum_k Y_lk(x) Y_lk(x_j).

Read right to left, the addition theorem makes the weights one BLAS
product of basis matrices, Y(x)^T diag(mu_l repeated 2l+1 times) Y(X)
diag(w) (weight_matrix).  A harmonic whose moment mu_l is zero adds
nothing, so the factors keep only the rows of degrees with mu_l != 0 (and
row 0): their rank is the sum of 2l+1 over those degrees, 1 for h == 1
and about half of (n+1)^2 for an h even in x.y, whose odd moments vanish.
Only assembly and stage 2 apply K, through one block builder: a GEMM of
the factors, then K entrywise in row chunks of about 1 << 16 entries,
small enough to stay in cache: the dots t . x_j, the distance |t - x_j|
and K of it are formed in one chunk-sized buffer, never in a block-sized
one.  A sin or cos K comes from numpy's vectorised tan by the half-angle
identities sin x = 2u/(1+u^2) and cos x = 2/(1+u^2) - 1 with u = tan(x/2),
within about 2 ulp of libm (see ContinuousKernel).  The speed needs numpy's
AVX-512 tan: numpy leaves float64 sin and cos to scalar libm.

A solve evaluates the basis of its m nodes once: the same matrix gives the
Gram matrix for eta, then, with row 0 set to ones, the factor Y(X)^T of
the collocation matrix on either path.  Assembly uses that
M_ij = delta_ij - S_ij w_j, where S_ij = W_j(x_i) K(x_i, x_j) / w_j is
symmetric: it forms only the row blocks' columns from the block's first
row on, and writes them and their mirror images scaled by -w.  Stage 2
evaluates the natural interpolant anywhere,

    phi(t) = f(t) + sum_j W_j(t) K(t, x_j) phi(x_j),

which reproduces the nodal values exactly at the quadrature points.  It
runs over row blocks of targets, so no targets-by-m matrix is formed, and
it reuses the right factor that stage 1 kept on the solution: it
evaluates no basis of the nodes.  When that factor has rank 1 (h == 1), the
target side is all ones: each row chunk of K meets one matrix-vector
product with right * phi, and no block and no basis of the targets is
formed.

For a constant K = c the collocation matrix is the identity plus a term of
rank r, M = I - c U V with U = Y(X)^T and V = diag(mu) Y(X) diag(w).  When
(n+1)^2 < m, stage 1 never forms M: Woodbury's identity

    M^{-1} = I + c U (I_r - c V U)^{-1} V

reduces the solve to the r x r system (I_r - c V U) z = V f, with
phi = f + c U z.  V U is read from the Gram matrix Y(X) diag(w) Y(X)^T
that gave eta, with row and column 0, where U holds ones, from the
weighted row sums U^T w: the r x m factors meet in no second GEMM.  Stage
2 forms the r coefficients c V phi once per call and costs O(r) per
target: phi(t) = f(t) + Y(t)^T (c V phi).  Every other K takes the dense
solve.

The dense solve factors M in single precision and refines the solution in
double, as LAPACK's dsgesv does (Langou et al., SC 2006; Higham, Accuracy
and Stability of Numerical Algorithms, ch. 12): a float32 LU costs half a
float64 one, and on a matrix as well conditioned as the collocation
matrices (condition estimates of a few hundred on the t-designs) two or
three corrections reach the float64 answer, the residual passing dsgesv's
test max|b - M x| <= max|x| ||M||_inf eps sqrt(m).  It falls back to the
float64 LU when ||M||_inf overflows float32, when the float32 LU meets a
zero pivot, or when 30 corrections do not pass the test, so a singular or
ill-conditioned M is named as it always was.

Every dense product here, and the Gram eigensolve, runs through
sphsolve._blas on scipy's BLAS and LAPACK, never through numpy's @.  The
numpy and scipy wheels each ship their own OpenBLAS with its own thread
pool, and a worker of one pool keeps spinning for a while after a
threaded call.  A product in numpy's pool would leave that spin taking
the CPUs from scipy's lu_factor, and scipy's spin would slow numpy's
stage-2 GEMMs; in one pool neither waits on the other's idle thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
from scipy.linalg.lapack import dlange, sgecon, sgetrf, sgetrs

from . import _blas, harmonics
from .harmonics import HarmonicBasis
from .moments import (ModifiedMoments, SingularKernel, descriptor_floats,
                      modified_moments, shortest)
from .mz import gram_matrix, gram_spectrum
from .pointsets import QuadratureRule
from .sphere import EvaluationGrid, as_unit_vectors

__all__ = [
    "ContinuousKernel",
    "ProblemSpec",
    "DiscreteSolution",
    "SingularSystemError",
    "NonFiniteInputError",
    "IllConditionedWarning",
    "weight_matrix",
    "assemble_system",
    "solve_stage1",
    "evaluate_stage2",
    "uniform_error",
]

FOUR_PI = 4.0 * math.pi

RightHandSide = Union[float, Callable[[np.ndarray], np.ndarray]]

CONDITION_WARN_THRESHOLD = 1e12

# Entries per row block of weighted-kernel values; bounds the GEMM output
# of every stage-2 block.
_BLOCK_ENTRIES = 1 << 21

# Entries per row chunk of the K pass over a block; the chunk's distances
# (512 KB) stay in cache between the passes that form them.
_CHUNK_ENTRIES = 1 << 16

# Rows per block of assembly by halves: each block also forms its square
# diagonal block in full, which costs m * _HALF_ROWS / 2 entries in all.
_HALF_ROWS = 128

# Corrections of the mixed-precision solve before it falls back to a
# float64 LU: ITERMAX of LAPACK dsgesv.
_REFINE_STEPS = 30

_FLOAT32_MAX = float(np.finfo(np.float32).max)


class SingularSystemError(np.linalg.LinAlgError):
    """The collocation matrix is singular to working precision."""


class NonFiniteInputError(ValueError):
    """f at a node, the constant c of a kernel, or an entry of K is not
    finite."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of the collocation matrix exceeds the threshold."""


@dataclass(frozen=True)
class ContinuousKernel:
    """The smooth factor K(x, y), restricted to named radial families.

    Built-ins: constant(c), sin_scaled(c) = sin(c|x-y|), cos_scaled(c) =
    cos(c|x-y|).  An arbitrary radial K can be supplied as a vectorized
    function of the distance |x-y| via custom(); built-ins keep a
    reproducible command-line description.  A non-finite c is rejected
    here, with NonFiniteInputError, so no K of NaN is ever evaluated.

    sin and cos are evaluated from the half-angle tangent u = tan(c r / 2):

        sin(c r) = 2u / (1 + u^2),    cos(c r) = 2 / (1 + u^2) - 1.

    1 + u^2 >= 1, so neither divides by zero, and r = 0 gives 0 and 1
    exactly.  At the poles of tan the double nearest pi/2 + k pi gives a
    finite u, |u| of 1e16 to 1e18, whose square cannot overflow.  Against
    libm, sin is within 2 ulp relative (3.5e-16 of the exact value) and cos
    within 3.4e-16 absolute.  numpy evaluates float64 tan with AVX-512 SIMD
    code but sin and cos with scalar libm, so on such a CPU this costs
    about a sixth of np.sin; without AVX-512 tan is scalar too, and the K
    pass is about 8% slower than it would be with np.sin.
    """

    family: str
    c: float = 1.0
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None,
                                                          compare=False)

    GRAMMAR = "const:C | sin:C | cos:C"
    # family -> tag, read by describe() and by parse()
    _TAGS = {"constant": "const", "sin_scaled": "sin", "cos_scaled": "cos"}

    def __post_init__(self):
        if self.family not in ("constant", "sin_scaled", "cos_scaled", "custom"):
            raise ValueError(f"unknown continuous kernel {self.family!r}")
        if self.family == "custom" and self.fn is None:
            raise ValueError("custom kernel needs a distance function")
        if self.family != "custom" and not math.isfinite(self.c):
            raise NonFiniteInputError(
                f"{self.family} K is not finite: c = {self.c}")

    @classmethod
    def constant(cls, c: float) -> "ContinuousKernel":
        return cls("constant", c=float(c))

    @classmethod
    def sin_scaled(cls, c: float) -> "ContinuousKernel":
        return cls("sin_scaled", c=float(c))

    @classmethod
    def cos_scaled(cls, c: float) -> "ContinuousKernel":
        return cls("cos_scaled", c=float(c))

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "ContinuousKernel":
        return cls("custom", fn=fn)

    def describe(self) -> str:
        if self.family == "custom":
            return "custom"
        return f"{self._TAGS[self.family]}:{shortest(self.c)}"

    @classmethod
    def parse(cls, text: str) -> "ContinuousKernel":
        """The built-in kernel that describe() names."""
        tag, *params = text.split(":")
        family = next((f for f, t in cls._TAGS.items() if t == tag), None)
        (c,) = descriptor_floats(text, params, 1 if family else None,
                                 cls.GRAMMAR)
        return cls(family, c=c)

    def of_distance(self, r):
        return self._of_distance_inplace(np.array(r, dtype=np.float64))

    def of_dots(self, dots):
        """K at |x-y| = sqrt(2(1 - x.y)), built in one buffer."""
        return self._of_distance_inplace(
            _distance_from_scaled_dots(-2.0 * np.asarray(dots, np.float64)))

    def _of_distance_inplace(self, r: np.ndarray) -> np.ndarray:
        """K at the distances r, written over r."""
        if self.family == "constant":
            r.fill(self.c)
            return r
        if self.family == "custom":  # fn may return a scalar for a constant
            r[...] = self.fn(r)
            return r
        r *= 0.5 * self.c  # (c r) / 2 exactly, as halving is exact
        u = np.tan(r, out=r)
        if self.family == "sin_scaled":  # 2u / (1 + u^2), 0 at r = 0
            t = u * u
            t += 1.0
            u *= 2.0
            u /= t
        else:  # 2 / (1 + u^2) - 1, 1 at r = 0
            u *= u
            u += 1.0
            np.divide(2.0, u, out=u)
            u -= 1.0
        return u


def _distance_from_scaled_dots(r: np.ndarray) -> np.ndarray:
    """|x - y| from r = -2 x.y for unit vectors, overwriting r.

    sqrt(clip(r, -2, 2) + 2) equals sqrt(2 (1 - clip(x.y, -1, 1))) bit for
    bit: scaling by -2 is exact, and 2 - 2s == 2 (1 - s) in binary.
    """
    np.clip(r, -2.0, 2.0, out=r)
    r += 2.0
    return np.sqrt(r, out=r)


@dataclass(frozen=True)
class ProblemSpec:
    """Everything defining one solve: h, K, f, degree n, quadrature rule."""

    kernel: SingularKernel
    K: ContinuousKernel
    f: RightHandSide
    n: int
    rule: QuadratureRule

    def __post_init__(self):
        harmonics._check_degree(self.n)

    def f_values(self, points: np.ndarray) -> np.ndarray:
        if not callable(self.f):
            return np.full(points.shape[0], float(self.f))
        values = np.asarray(self.f(points), dtype=np.float64)
        if values.shape != (points.shape[0],):
            raise ValueError(f"f must return shape ({points.shape[0]},), "
                             f"got {values.shape}")
        return values


@dataclass(frozen=True)
class DiscreteSolution:
    """Stage-1 nodal values plus everything stage 2 needs.

    ``factor`` is the right factor of the weights that stage 1 built,
    diag(mu) Y(X) diag(w) at the rows of _active_rows, shape (rank, m), on
    every path.  Stage 2 reads it and evaluates no basis of the nodes.

    On the dense path ``condition_estimate`` comes from LAPACK ``sgecon``
    on the float32 factor of M^T, or from ``dgecon`` on the float64 factor
    of M where the solve fell back to it.  Neither is repeatable in its last
    bits from run to run on the same input; a bit-identity check of a
    solution must leave that field out.
    """

    nodal_values: np.ndarray
    spec: ProblemSpec
    moments: ModifiedMoments
    eta: float  # MZ constant of spec.rule at degree spec.n
    residual: float
    condition_estimate: float
    path: str  # "dense-lu" or "low-rank"
    factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("nodal_values", "factor"):
            v = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            v.flags.writeable = False
            object.__setattr__(self, name, v)


def weight_matrix(rule: QuadratureRule, moments: ModifiedMoments,
                  targets) -> np.ndarray:
    """W_j(x) for a batch of targets x; shape (len(targets), m): the one
    GEMM Y(x)^T diag(mu) Y(X) diag(w) of _target_factor and _rule_factor."""
    left = _target_factor(moments, as_unit_vectors(targets))
    return _blas.matmul(left.T, _rule_factor(
        rule, moments, _target_factor(moments, rule.points)))


def _active_rows(moments: ModifiedMoments):
    """(degree, rows, mu): the harmonics that the weight factors keep.

    A harmonic whose moment mu_l is zero adds nothing to W_j, so the
    factors keep only the rows of the degrees with mu_l != 0, and row 0
    always.  degree is the highest degree kept.  rows picks the kept rows
    of any basis of degree >= degree: a slice when they are its first
    (degree+1)^2 rows, so that the factors are views of the basis, else an
    index array.  mu holds mu_l at each kept row, row 0 divided by 4pi
    (see _rule_factor).
    """
    keep = moments.values != 0.0
    keep[0] = True
    degree = int(np.flatnonzero(keep)[-1])
    counts = 2 * np.arange(degree + 1) + 1
    kept = np.repeat(keep[:degree + 1], counts)
    mu = np.repeat(moments.values[:degree + 1], counts)
    mu[0] /= FOUR_PI
    if kept.all():
        return degree, slice(0, kept.size), mu
    return degree, np.flatnonzero(kept), mu[kept]


def _target_factor(moments: ModifiedMoments, targets: np.ndarray,
                   basis: np.ndarray | None = None) -> np.ndarray:
    """Y(x) with row 0 set to ones at the rows of _active_rows, shape
    (rank, len(targets)): the target side of _rule_factor.

    basis, if given, is the basis of the targets of any degree >= the
    highest kept one; it is overwritten.  The result is a view of the
    basis when it keeps every row, and owns its memory otherwise, so that
    it never holds on to a larger basis.
    """
    degree, rows, _ = _active_rows(moments)
    if basis is None:
        basis = harmonics.eval_basis_matrix(HarmonicBasis(degree), targets)
    basis[0] = 1.0
    left = basis[rows]
    if left.shape[0] < basis.shape[0] and np.may_share_memory(left, basis):
        left = left.copy()
    return left


def _rule_factor(rule: QuadratureRule, moments: ModifiedMoments,
                 left: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """diag(mu) Y(X) diag(w) at the rows of _active_rows, shape (rank, m).

    left is _target_factor(moments, rule.points); out, if given, receives
    the factor and may be left itself.  Row 0 carries both factors of the
    constant Y_00 = 1/sqrt(4pi), and the target side carries ones there:
    the degree-0 term mu_0 w_j / (4pi) is then exact, as P_0 == 1 makes it
    in the Legendre sum.
    """
    right = np.multiply(left, _active_rows(moments)[2][:, None], out=out)
    right *= rule.weights
    return right


def _row_chunks(rows: int, cols: int,
                entries: int = _CHUNK_ENTRIES) -> list[slice]:
    """Row chunks of about `entries` entries, none a lone row of many.

    BLAS takes a one-row product down its GEMV path, whose dots round
    differently from the GEMM of a taller block; a lone last row joins the
    chunk before it.
    """
    step = max(2, entries // cols)
    stops = list(range(step, rows, step))
    if stops and rows - stops[-1] == 1:
        stops.pop()
    return [slice(start, stop)
            for start, stop in zip([0] + stops, stops + [rows])]


def _weighted_kernel_block(nodes: np.ndarray, right: np.ndarray,
                           K: ContinuousKernel, targets: np.ndarray,
                           left: np.ndarray) -> np.ndarray:
    """(left^T right) K(x, x_j) for one row block of targets: one GEMM,
    then K.

    left is _target_factor(moments, targets), and right has one column
    per node: _rule_factor(rule, moments) gives W_j(x) K(x, x_j).  K runs
    over row chunks, each formed in one cache-sized buffer as K.of_dots
    forms it.
    """
    B = _blas.matmul(left.T, right)
    for rows, k in _kernel_chunks(nodes, K, targets):
        B[rows] *= k
    return B


def _kernel_chunks(nodes: np.ndarray, K: ContinuousKernel,
                   targets: np.ndarray):
    """(rows, K(t, x_j)) for each row chunk of _row_chunks, formed in one
    cache-sized buffer as K.of_dots forms it; a constant K yields its c,
    with no distances formed."""
    scaled_nodes = -2.0 * nodes.T
    for rows in _row_chunks(targets.shape[0], nodes.shape[0]):
        if K.family == "constant":
            yield rows, K.c
            continue
        r = _distance_from_scaled_dots(
            _blas.matmul(targets[rows], scaled_nodes))
        yield rows, K._of_distance_inplace(r)


def _kernel_matrix_by_halves(nodes: np.ndarray, left: np.ndarray,
                             right: np.ndarray, K: ContinuousKernel,
                             scale: np.ndarray) -> np.ndarray:
    """S diag(scale) for the symmetric S = (left^T right) K(x_i, x_j) at
    the nodes, by halves.

    left and right are the same basis up to row scaling, so S is symmetric
    in exact arithmetic.  Each row block of _HALF_ROWS rows forms (GEMM
    and K pass) only its columns from the block's first row on, in a
    temporary; the strict lower triangle of its diagonal block is copied
    from its mirror image, so S is exactly symmetric.  The block, and its
    transpose for the column block below it, go into the result already
    scaled.  The factors are taken in Fortran order, so that their column
    blocks reach BLAS without a copy.
    """
    m = nodes.shape[0]
    out = np.empty((m, m))
    left, right = np.asfortranarray(left), np.asfortranarray(right)
    for start in range(0, m, _HALF_ROWS):
        stop = min(start + _HALF_ROWS, m)
        upper = _weighted_kernel_block(nodes[start:], right[:, start:], K,
                                       nodes[start:stop], left[:, start:stop])
        square = upper[:, :stop - start]
        below = np.tril_indices(stop - start, -1)
        square[below] = square.T[below]
        np.multiply(upper, scale[start:], out=out[start:stop, start:])
        np.multiply(upper[:, stop - start:].T, scale[start:stop],
                    out=out[stop:, start:stop])
    return out


def _nodal_rhs(spec: ProblemSpec) -> np.ndarray:
    """f(x_i), once every f(x_i) is known to be finite."""
    b = spec.f_values(spec.rule.points)
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteInputError(
            f"f is not finite at node {i} of {spec.rule.m} "
            f"(x = {spec.rule.points[i].tolist()}): f = {b[i]}")
    return b


def assemble_system(spec: ProblemSpec,
                    moments: ModifiedMoments | None = None,
                    left: np.ndarray | None = None):
    """Collocation matrix M_ij = delta_ij - W_j(x_i) K(x_i, x_j) and rhs f(x_i).

    M = I - S diag(w) with the symmetric S of _kernel_matrix_by_halves,
    which scales each block by -w as it writes it.  left, if given, is
    _target_factor(moments, rule.points), as solve_stage1 takes it from
    its node basis; otherwise it is evaluated here.
    """
    if moments is None:
        moments = modified_moments(spec.kernel, spec.n)
    if moments.n != spec.n or moments.kernel != spec.kernel:
        raise ValueError("moments do not match the problem kernel/degree")
    b = _nodal_rhs(spec)
    if left is None:
        left = _target_factor(moments, spec.rule.points)
    mu = _active_rows(moments)[2]
    M = _kernel_matrix_by_halves(spec.rule.points, left, left * mu[:, None],
                                 spec.K, -spec.rule.weights)
    np.fill_diagonal(M, M.diagonal() + 1.0)
    return M, b


def _factor(A: np.ndarray, name: str):
    """LU of A; SingularSystemError when a pivot is exactly zero.

    A is not scanned for non-finite entries: _solve_dense names any in its
    norm pass, and _solve_low_rank checks its r x r S before factoring it.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", category=RuntimeWarning)
        try:
            lu, piv = lu_factor(A, check_finite=False)
        except (RuntimeWarning, np.linalg.LinAlgError) as exc:
            raise SingularSystemError(f"{name} is singular: {exc}") from None
    pivots = np.abs(np.diag(lu))
    if pivots.min() == 0.0:
        raise SingularSystemError(
            f"{name} is singular to working precision: "
            f"pivot {int(pivots.argmin())} of {A.shape[0]} is zero")
    return lu, piv


def _condition(gecon, lu: np.ndarray, anorm: float, norm: str) -> float:
    """1 / rcond from LAPACK gecon on the LU factor lu; inf when it is
    singular."""
    rcond, info = gecon(lu, anorm, norm=norm)
    return math.inf if rcond == 0.0 or info < 0 else 1.0 / float(rcond)


def _solve_mixed(M: np.ndarray, b: np.ndarray, anorm: float):
    """(phi, residual, condition estimate) from a float32 LU of M refined
    in float64, as LAPACK dsgesv does, or None where dsgesv falls back.

    M is C-ordered, so its float32 copy's transpose is M^T in Fortran
    order: sgetrf factors it in place, and trans=1 solves with M.  Each
    correction solves with the residual scaled to a largest entry of 1, so
    that its cast to float32 cannot overflow, nor flush a small residual
    to zero.  The solve has converged when
    max|b - M x| <= max|x| ||M||_inf eps sqrt(m), the test of dsgesv, and
    that last residual is the one reported.  None when ||M||_inf overflows
    float32, sgetrf meets a zero pivot, or the test fails after
    _REFINE_STEPS corrections.
    """
    if anorm > _FLOAT32_MAX:
        return None
    lu, piv, info = sgetrf(M.astype(np.float32).T, overwrite_a=True)
    if info != 0:
        return None

    def correction(r):  # M^-1 r from the float32 factor
        scale = float(np.max(np.abs(r)))
        if scale == 0.0:
            return np.zeros_like(r)
        x = sgetrs(lu, piv, (r / scale).astype(np.float32), trans=1)[0]
        return scale * x.astype(np.float64)

    tol = anorm * np.finfo(np.float64).eps * math.sqrt(M.shape[0])
    x = correction(b)
    for _ in range(_REFINE_STEPS + 1):
        r = b - _blas.matvec(M, x)
        residual = float(np.max(np.abs(r)))
        if residual <= float(np.max(np.abs(x))) * tol:
            return x, residual, _condition(sgecon, lu, anorm, "O")
        if not math.isfinite(residual):
            break
        x += correction(r)
    return None


def _solve_dense(spec: ProblemSpec, moments: ModifiedMoments, b: np.ndarray,
                 left: np.ndarray):
    """(phi, residual, condition estimate) of the assembled M.

    The solve is _solve_mixed's: a float32 LU refined in float64.  Where it
    falls back, M is factored in float64 as it always was, by _factor, which
    names a zero pivot with SingularSystemError.  The condition estimate is
    the infinity-norm one of M, from sgecon on the float32 factor of M^T or
    from dgecon on the float64 factor of M.
    """
    M, _ = assemble_system(spec, moments, left)
    anorm = float(dlange("1", M.T))  # ||M||_inf: M.T is M in Fortran order
    if not math.isfinite(anorm):
        i = int(np.argmin([math.isfinite(np.abs(row).sum()) for row in M]))
        raise NonFiniteInputError(
            f"K is not finite in row {i} of the collocation matrix")
    solved = _solve_mixed(M, b, anorm)
    if solved is not None:
        return solved
    lu, piv = _factor(M, "collocation matrix")
    cond = _condition(get_lapack_funcs("gecon", (lu,)), lu, anorm, "I")
    phi = lu_solve((lu, piv), b, check_finite=False)
    return phi, float(np.max(np.abs(_blas.matvec(M, phi) - b))), cond


def _solve_low_rank(spec: ProblemSpec, moments: ModifiedMoments,
                    b: np.ndarray, U_T: np.ndarray, G: np.ndarray):
    """(phi, residual, condition estimate, V) for K = c without forming M.

    M = I - c U V with U = _target_factor(moments, X)^T (m x r), passed in
    as U_T, and V = _rule_factor (r x m).  Woodbury gives M^-1 = I + c U S^-1
    V with the r x r matrix S = I_r - c V U, so phi = f + c U z with
    S z = V f.  V U = diag(mu) U^T diag(w) U is read from G, the degree-n
    Gram matrix Y(X) diag(w) Y(X)^T that gave eta, at the rows of
    _active_rows: no second GEMM of the r x m factors is formed.  U^T is
    Y(X) with row 0 set to ones, so row and column 0 of U^T diag(w) U are
    the weighted row sums s = U^T w instead.  They come from s, not from
    G's row 0 rescaled by sqrt(4pi), so that the degree-0 entry is
    sum_j w_j and an S singular in exact arithmetic keeps its zero pivot.
    NonFiniteInputError names c when S is not finite.
    One step of iterative refinement follows: phi = f + c U z
    shifts every nodal value by the same rounding error of z, which stage 2
    would multiply by |c mu_0|.  The residual is that of the full system,
    applied in O(m r).  The condition estimate is the infinity-norm one of M
    itself, ||M^T||_1 ||M^-T||_1 by Hager's estimator (onenormest with
    t=1, as in LAPACK gecon) on operators.
    """
    from scipy.sparse.linalg import LinearOperator, onenormest

    c, m = spec.K.c, spec.rule.m
    _, rows, mu = _active_rows(moments)
    s = _blas.matvec(U_T, spec.rule.weights)
    VU = G[rows][:, rows] * mu[:, None]
    VU[0], VU[:, 0] = mu[0] * s, mu * s
    S = np.eye(s.size) - c * VU
    if not np.isfinite(S).all():
        raise NonFiniteInputError(
            f"constant K c = {c} makes the reduced system I - c V U "
            "non-finite")
    lu_piv = _factor(S, "reduced system I - c V U")
    V, U = _rule_factor(spec.rule, moments, U_T), U_T.T

    def solve(y):  # M^-1 y
        return y + c * _blas.matvec(
            U, lu_solve(lu_piv, _blas.matvec(V, y), check_finite=False))

    def residual_of(x):  # M x - f
        return x - c * _blas.matvec(U, _blas.matvec(V, x)) - b

    phi = solve(b)
    phi -= solve(residual_of(phi))
    residual = float(np.max(np.abs(residual_of(phi))))

    M_T = LinearOperator(
        (m, m), dtype=np.float64,
        matvec=lambda x: x - c * _blas.matvec(V.T, _blas.matvec(U.T, x)),
        rmatvec=lambda x: x - c * _blas.matvec(U, _blas.matvec(V, x)))
    M_inv_T = LinearOperator(
        (m, m), dtype=np.float64,
        matvec=lambda x: x + c * _blas.matvec(V.T, lu_solve(
            lu_piv, _blas.matvec(U.T, x), trans=1, check_finite=False)),
        rmatvec=solve)
    cond = float(onenormest(M_T, t=1)) * float(onenormest(M_inv_T, t=1))
    return phi, residual, cond, V


def solve_stage1(spec: ProblemSpec) -> DiscreteSolution:
    """Solve the collocation system; record eta and diagnostics.

    The modified moments of spec.kernel to degree spec.n are computed here
    and kept on the solution.  A constant K with (n+1)^2 < m takes the
    low-rank path (Woodbury on the r x r reduced system); every other
    problem is assembled and solved by _solve_dense, a float32 LU refined in
    float64.  The basis of the nodes is evaluated once: it gives the Gram
    matrix for eta, then, with row 0 set to ones and only the rows of
    _active_rows, the factor of either path; the low-rank path also reads
    its reduced system from that Gram matrix, which the dense path drops
    before it assembles M.  The solution keeps the right factor of the
    weights for stage 2.  Before any basis or assembly work, raises
    ValueError when a callable f does not return shape (m,), and
    NonFiniteInputError when f(x_i) is not finite (or, later, when K gives
    a non-finite entry of M or of the reduced system; a non-finite c never
    gets this far);
    SingularSystemError naming the zero pivot when a factorization breaks
    down; attaches IllConditionedWarning when the infinity-norm condition
    estimate of M exceeds 1e12.
    """
    moments = modified_moments(spec.kernel, spec.n)
    b = _nodal_rhs(spec)
    Y = harmonics.eval_basis_matrix(HarmonicBasis(spec.n), spec.rule.points)
    G = gram_matrix(spec.rule, spec.n, basis=Y)
    eta = gram_spectrum(G)[0]
    left = _target_factor(moments, spec.rule.points, Y)
    del Y  # freed here unless left is all of it
    low_rank = spec.K.family == "constant" and (spec.n + 1) ** 2 < spec.rule.m
    if low_rank:
        phi, residual, cond, right = _solve_low_rank(spec, moments, b, left,
                                                     G)
    else:  # the right factor once M and its LU are gone, in left's place
        del G  # not kept beside M and its float32 copy
        phi, residual, cond = _solve_dense(spec, moments, b, left)
        right = _rule_factor(spec.rule, moments, left, out=left)
    if not math.isfinite(cond) or cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"collocation matrix condition estimate {cond:.3e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; results may lose accuracy",
            IllConditionedWarning, stacklevel=2)
    return DiscreteSolution(nodal_values=phi, spec=spec, moments=moments,
                            eta=eta,
                            residual=residual, condition_estimate=cond,
                            path="low-rank" if low_rank else "dense-lu",
                            factor=right)


def evaluate_stage2(sol: DiscreteSolution, targets) -> np.ndarray:
    """phi(t) = f(t) + sum_j W_j(t) K(t, x_j) phi(x_j) at one or many t.

    The right factor V is the one stage 1 kept on the solution.  For a
    constant K the sum is Y(t)^T (c V phi), with c V phi formed once per
    call, O(r) per target; for a rank-1 factor it is K(t, x_j) applied to
    V * phi, one row chunk at a time.

    The targets are taken in row blocks, and a BLAS product rounds by the
    height of its block, so the last bits of a value depend on how many
    targets the call gets: ``evaluate_stage2(sol, pts)[:k]`` need not equal
    ``evaluate_stage2(sol, pts[:k])`` bit for bit.
    """
    pts = as_unit_vectors(targets)
    rule, K, moments = sol.spec.rule, sol.spec.K, sol.moments
    integral = np.empty(pts.shape[0])
    if K.family == "constant":
        coeffs = K.c * _blas.matvec(sol.factor, sol.nodal_values)
        for rows in _row_chunks(len(pts), coeffs.size, _BLOCK_ENTRIES):
            integral[rows] = _blas.matvec(_target_factor(moments, pts[rows]).T,
                                          coeffs)
    elif sol.factor.shape[0] == 1:  # W_j(t) = right_j, as Y_00 is 1 here
        weighted = sol.factor[0] * sol.nodal_values
        for rows, k in _kernel_chunks(rule.points, K, pts):
            integral[rows] = _blas.matvec(k, weighted)
    else:
        for rows in _row_chunks(len(pts), rule.m, _BLOCK_ENTRIES):
            B = _weighted_kernel_block(rule.points, sol.factor, K, pts[rows],
                                       _target_factor(moments, pts[rows]))
            integral[rows] = _blas.matvec(B, sol.nodal_values)
    return sol.spec.f_values(pts) + integral


def uniform_error(sol: DiscreteSolution, exact: RightHandSide,
                  grid: EvaluationGrid) -> float:
    """Max over the grid of |stage-2 value - exact|."""
    values = evaluate_stage2(sol, grid.points)
    if callable(exact):
        target = np.asarray(exact(grid.points), dtype=np.float64)
    else:
        target = np.full(len(grid), float(exact))
    return float(np.max(np.abs(values - target)))
