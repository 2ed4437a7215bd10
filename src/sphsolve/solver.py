"""Two-stage product-integration solver for phi - A phi = f on the sphere.

Stage 1 collocates at the quadrature points and solves the dense system

    phi(x_i) - sum_j W_j(x_i) K(x_i, x_j) phi(x_j) = f(x_i),

where the product-integration weights absorb the singular factor h:

    W_j(x) = w_j sum_{l<=n} mu_l ((2l+1)/(4pi)) P_l(x . x_j)
           = w_j sum_{l<=n} mu_l sum_k Y_lk(x) Y_lk(x_j).

Read right to left, the addition theorem makes the weights a product of
rank (n+1)^2, Y(x)^T diag(mu_l repeated 2l+1 times) Y(X) diag(w), so every
block of weights is one BLAS matrix product of basis matrices.  K is then
applied entrywise in row chunks of about 1 << 16 entries, small enough to
stay in cache: the dots t . x_j, the distance |t - x_j| and K of it are
formed in one chunk-sized buffer, never in a block-sized one.  A solve
evaluates the basis of its m nodes once: the same matrix gives the Gram
matrix for eta, then, with row 0 set to ones, the factor Y(X)^T of the
collocation matrix on either path.  Stage 2 evaluates the natural
interpolant anywhere,

    phi(t) = f(t) + sum_j W_j(t) K(t, x_j) phi(x_j),

which reproduces the nodal values exactly at the quadrature points.  It
runs over row blocks of targets, so no targets-by-m matrix is formed.

For a constant K = c the collocation matrix is the identity plus a term of
rank r = (n+1)^2, M = I - c U V with U = Y(X)^T and V = diag(mu) Y(X)
diag(w).  When r < m, stage 1 never forms M: Woodbury's identity

    M^{-1} = I + c U (I_r - c V U)^{-1} V

reduces the solve to the r x r system (I_r - c V U) z = V f, with
phi = f + c U z.  Stage 2 shares the factor V and costs O(r) per target:
phi(t) = f(t) + c Y(t)^T (V phi).  Every other K takes the dense LU.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from . import harmonics
from .harmonics import HarmonicBasis
from .moments import ModifiedMoments, SingularKernel, modified_moments
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
    "weight_row",
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
_BLOCK_ENTRIES = 1 << 22

# Entries per row chunk of the K pass over a block; the chunk's distances
# (512 KB) stay in cache between the passes that form them.
_CHUNK_ENTRIES = 1 << 16


class SingularSystemError(np.linalg.LinAlgError):
    """The collocation matrix is singular to working precision."""


class NonFiniteInputError(ValueError):
    """f at a node, the constant c, or an entry of K is not finite."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of the collocation matrix exceeds the threshold."""


@dataclass(frozen=True)
class ContinuousKernel:
    """The smooth factor K(x, y), restricted to named radial families.

    Built-ins: constant(c), sin_scaled(c) = sin(c|x-y|), cos_scaled(c) =
    cos(c|x-y|).  An arbitrary radial K can be supplied as a vectorized
    function of the distance |x-y| via custom(); built-ins keep a
    reproducible command-line description.
    """

    family: str
    c: float = 1.0
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None,
                                                          compare=False)

    def __post_init__(self):
        if self.family not in ("constant", "sin_scaled", "cos_scaled", "custom"):
            raise ValueError(f"unknown continuous kernel {self.family!r}")
        if self.family == "custom" and self.fn is None:
            raise ValueError("custom kernel needs a distance function")

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
        if self.family == "constant":
            return f"const:{self.c:g}"
        if self.family == "sin_scaled":
            return f"sin:{self.c:g}"
        if self.family == "cos_scaled":
            return f"cos:{self.c:g}"
        return "custom"

    def of_distance(self, r):
        return self._of_distance_inplace(np.array(r, dtype=np.float64))

    def of_dots(self, dots):
        """K at |x-y| = sqrt(2(1 - x.y)), built in one buffer."""
        return self._of_distance_inplace(
            _distance_from_scaled_dots(-2.0 * np.asarray(dots, np.float64)))

    def _of_distance_inplace(self, r: np.ndarray) -> np.ndarray:
        """K at the distances r, overwriting r unless K is custom."""
        if self.family == "constant":
            r.fill(self.c)
            return r
        if self.family == "custom":
            return np.asarray(self.fn(r), dtype=np.float64)
        r *= self.c
        return (np.sin if self.family == "sin_scaled" else np.cos)(r, out=r)


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
        if self.n < 0:
            raise ValueError(f"degree must be >= 0, got {self.n}")

    def f_values(self, points: np.ndarray) -> np.ndarray:
        if callable(self.f):
            return np.asarray(self.f(points), dtype=np.float64)
        return np.full(points.shape[0], float(self.f))


@dataclass(frozen=True)
class DiscreteSolution:
    """Stage-1 nodal values plus everything stage 2 needs.

    On the dense path ``condition_estimate`` comes from LAPACK ``gecon``,
    whose last bits are not repeatable from run to run on the same input;
    a bit-identity check of a solution must leave that field out.
    """

    nodal_values: np.ndarray
    spec: ProblemSpec
    moments: ModifiedMoments
    gamma: tuple[int, int, float]  # (m, n, eta)
    residual: float
    condition_estimate: float
    path: str  # "dense-lu" or "low-rank"

    def __post_init__(self):
        v = np.ascontiguousarray(self.nodal_values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "nodal_values", v)


def weight_matrix(rule: QuadratureRule, moments: ModifiedMoments,
                  targets) -> np.ndarray:
    """W_j(x) for a batch of targets x; shape (len(targets), m)."""
    return _weighted_kernel_matrix(rule, moments, ContinuousKernel.constant(1.0),
                                   as_unit_vectors(targets))


def weight_row(rule: QuadratureRule, moments: ModifiedMoments, x) -> np.ndarray:
    """W_j(x) at a single target, length m."""
    return weight_matrix(rule, moments, np.asarray(x)[None, :])[0]


def _target_factor(n: int, targets: np.ndarray) -> np.ndarray:
    """Y(x) with row 0 set to ones, shape ((n+1)^2, len(targets)): the
    target side of _rule_factor."""
    left = harmonics.eval_basis_matrix(HarmonicBasis(n), targets)
    left[0] = 1.0
    return left


def _rule_factor(rule: QuadratureRule, moments: ModifiedMoments,
                 left: np.ndarray | None = None) -> np.ndarray:
    """diag(mu_l repeated 2l+1 times) Y(X) diag(w), shape ((n+1)^2, m).

    Row 0 carries both factors of the constant Y_00 = 1/sqrt(4pi), and the
    target side carries ones there: the degree-0 term mu_0 w_j / (4pi) is
    then exact, as P_0 == 1 makes it in the Legendre sum.  left, if given,
    is _target_factor(n, rule.points), which saves evaluating the basis.
    """
    right = (_target_factor(moments.n, rule.points) if left is None
             else left.copy())
    mu = np.repeat(moments.values, 2 * np.arange(moments.n + 1) + 1)
    mu[0] /= FOUR_PI
    right *= mu[:, None]
    right *= rule.weights
    return right


def _row_blocks(rows: int, cols: int) -> list[slice]:
    step = max(1, _BLOCK_ENTRIES // cols)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _row_chunks(rows: int, cols: int) -> list[slice]:
    """Row chunks of about _CHUNK_ENTRIES entries, none a lone row of many.

    BLAS takes a one-row product down its GEMV path, whose dots round
    differently from the GEMM of a taller block; a lone last row joins the
    chunk before it.
    """
    step = max(2, _CHUNK_ENTRIES // cols)
    stops = list(range(step, rows, step))
    if stops and rows - stops[-1] == 1:
        stops.pop()
    return [slice(start, stop)
            for start, stop in zip([0] + stops, stops + [rows])]


def _weighted_kernel_block(rule: QuadratureRule, right: np.ndarray,
                           K: ContinuousKernel, targets: np.ndarray,
                           left: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """W_j(x) K(x, x_j) for one row block of targets: one GEMM, then K.

    left is _target_factor(n, targets) and right is _rule_factor(rule,
    moments); out, if given, receives the block.  K runs over row chunks,
    each formed in one cache-sized buffer as K.of_dots forms it.
    """
    B = np.matmul(left.T, right, out=out)
    if K.family == "constant":
        B *= K.c
        return B
    scaled_nodes = -2.0 * rule.points.T
    for rows in _row_chunks(targets.shape[0], rule.m):
        r = _distance_from_scaled_dots(targets[rows] @ scaled_nodes)
        B[rows] *= K._of_distance_inplace(r)
    return B


def _weighted_kernel_matrix(rule: QuadratureRule, moments: ModifiedMoments,
                            K: ContinuousKernel, targets: np.ndarray,
                            left: np.ndarray | None = None) -> np.ndarray:
    """W_j(x) K(x, x_j) for every target; the matrix of assembly.

    left, if given, is _target_factor(n, rule.points) and the targets are
    the nodes: its column slices serve every row block, and it also gives
    the right factor, so no basis is evaluated here.
    """
    right = _rule_factor(rule, moments, left)
    out = np.empty((targets.shape[0], rule.m))
    for rows in _row_blocks(targets.shape[0], rule.m):
        block_left = (_target_factor(moments.n, targets[rows]) if left is None
                      else left[:, rows])
        _weighted_kernel_block(rule, right, K, targets[rows], block_left,
                               out=out[rows])
    return out


def _check_moments(spec: ProblemSpec, moments: ModifiedMoments) -> None:
    if moments.n != spec.n or moments.kernel != spec.kernel:
        raise ValueError("moments do not match the problem kernel/degree")


def _nodal_rhs(spec: ProblemSpec) -> np.ndarray:
    """f(x_i), once the constant c and every f(x_i) are known to be finite."""
    if spec.K.family == "constant" and not math.isfinite(spec.K.c):
        raise NonFiniteInputError(f"constant K is not finite: c = {spec.K.c}")
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

    left, if given, is the node basis with row 0 set to ones, as
    solve_stage1 evaluates it; otherwise it is evaluated here.
    """
    if moments is None:
        moments = modified_moments(spec.kernel, spec.n)
    _check_moments(spec, moments)
    b = _nodal_rhs(spec)
    M = _weighted_kernel_matrix(spec.rule, moments, spec.K, spec.rule.points,
                                left)
    np.negative(M, out=M)
    np.fill_diagonal(M, M.diagonal() + 1.0)
    return M, b


def _factor(A: np.ndarray, name: str):
    """LU of A; SingularSystemError when a pivot is exactly zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", category=RuntimeWarning)
        try:
            lu, piv = lu_factor(A)
        except (RuntimeWarning, np.linalg.LinAlgError) as exc:
            raise SingularSystemError(f"{name} is singular: {exc}") from None
    pivots = np.abs(np.diag(lu))
    if pivots.min() == 0.0:
        raise SingularSystemError(
            f"{name} is singular to working precision: "
            f"pivot {int(pivots.argmin())} of {A.shape[0]} is zero")
    return lu, piv


def _solve_dense(spec: ProblemSpec, moments: ModifiedMoments, b: np.ndarray,
                 left: np.ndarray):
    """(phi, residual, condition estimate) by LU of the assembled M."""
    M, _ = assemble_system(spec, moments, left)
    anorm = 0.0  # infinity norm, chunked to avoid an m^2 temporary
    for start in range(0, M.shape[0], 512):
        row_sums = np.abs(M[start:start + 512]).sum(axis=1)
        if not np.all(np.isfinite(row_sums)):
            i = start + int(np.argmin(np.isfinite(row_sums)))
            raise NonFiniteInputError(
                f"K is not finite in row {i} of the collocation matrix")
        anorm = max(anorm, float(row_sums.max()))
    lu, piv = _factor(M, "collocation matrix")
    gecon = get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm, norm="I")
    cond = math.inf if rcond == 0.0 or info < 0 else 1.0 / float(rcond)
    phi = lu_solve((lu, piv), b)
    return phi, float(np.max(np.abs(M @ phi - b))), cond


def _solve_low_rank(spec: ProblemSpec, moments: ModifiedMoments,
                    b: np.ndarray, U_T: np.ndarray):
    """(phi, residual, condition estimate) for K = c without forming M.

    M = I - c U V with U = _target_factor(n, X)^T (m x r), passed in as
    U_T, and V = _rule_factor (r x m).  Woodbury gives M^-1 = I + c U S^-1
    V with the r x r matrix S = I_r - c V U, so phi = f + c U z with
    S z = V f.  One step of iterative refinement follows: phi = f + c U z
    shifts every nodal value by the same rounding error of z, which stage 2
    would multiply by |c mu_0|.  The residual is that of the full system,
    applied in O(m r).  The condition estimate is the infinity-norm one of M
    itself, ||M^T||_1 ||M^-T||_1 by Hager's estimator (onenormest with
    t=1, as in LAPACK gecon) on operators.
    """
    from scipy.sparse.linalg import LinearOperator, onenormest

    c, m = spec.K.c, spec.rule.m
    V, U = _rule_factor(spec.rule, moments, U_T), U_T.T
    S = np.eye(V.shape[0]) - c * (V @ U)
    lu_piv = _factor(S, "reduced system I - c V U")

    def solve(y):  # M^-1 y
        return y + c * (U @ lu_solve(lu_piv, V @ y))

    def residual_of(x):  # M x - f
        return x - c * (U @ (V @ x)) - b

    phi = solve(b)
    phi -= solve(residual_of(phi))
    residual = float(np.max(np.abs(residual_of(phi))))

    M_T = LinearOperator(
        (m, m), dtype=np.float64,
        matvec=lambda x: x - c * (V.T @ (U.T @ x)),
        rmatvec=lambda x: x - c * (U @ (V @ x)))
    M_inv_T = LinearOperator(
        (m, m), dtype=np.float64,
        matvec=lambda x: x + c * (V.T @ lu_solve(lu_piv, U.T @ x, trans=1)),
        rmatvec=solve)
    cond = float(onenormest(M_T, t=1)) * float(onenormest(M_inv_T, t=1))
    return phi, residual, cond


def solve_stage1(spec: ProblemSpec,
                 moments: ModifiedMoments | None = None) -> DiscreteSolution:
    """Solve the collocation system; record eta and diagnostics.

    A constant K with (n+1)^2 < m takes the low-rank path (Woodbury on the
    r x r reduced system); every other problem is assembled and LU-factored.
    The basis of the nodes is evaluated once: it gives the Gram matrix for
    eta, then, with row 0 set to ones in place, the factor of either path.
    Raises NonFiniteInputError before any basis or assembly work when f(x_i)
    or c is not finite (or, on the dense path, when K gives a non-finite
    entry);
    SingularSystemError naming the zero pivot when a factorization breaks
    down; attaches IllConditionedWarning when the infinity-norm condition
    estimate of M exceeds 1e12.
    """
    if moments is None:
        moments = modified_moments(spec.kernel, spec.n)
    _check_moments(spec, moments)
    b = _nodal_rhs(spec)
    Y = harmonics.eval_basis_matrix(HarmonicBasis(spec.n), spec.rule.points)
    eta = gram_spectrum(gram_matrix(spec.rule, spec.n, basis=Y))[0]
    Y[0] = 1.0  # now _target_factor(n, X)
    low_rank = spec.K.family == "constant" and (spec.n + 1) ** 2 < spec.rule.m
    phi, residual, cond = (_solve_low_rank if low_rank
                           else _solve_dense)(spec, moments, b, Y)
    if not math.isfinite(cond) or cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"collocation matrix condition estimate {cond:.3e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; results may lose accuracy",
            IllConditionedWarning, stacklevel=2)
    return DiscreteSolution(nodal_values=phi, spec=spec, moments=moments,
                            gamma=(spec.rule.m, spec.n, eta),
                            residual=residual, condition_estimate=cond,
                            path="low-rank" if low_rank else "dense-lu")


def evaluate_stage2(sol: DiscreteSolution, targets) -> np.ndarray:
    """phi(t) = f(t) + sum_j W_j(t) K(t, x_j) phi(x_j) at one or many t.

    For a constant K the sum is c Y(t)^T (V phi), O(r) per target.

    The targets are taken in row blocks, and a BLAS product rounds by the
    height of its block, so the last bits of a value depend on how many
    targets the call gets: ``evaluate_stage2(sol, pts)[:k]`` need not equal
    ``evaluate_stage2(sol, pts[:k])`` bit for bit.
    """
    pts = as_unit_vectors(targets)
    rule, K, n = sol.spec.rule, sol.spec.K, sol.moments.n
    right = _rule_factor(rule, sol.moments)
    integral = np.empty(pts.shape[0])
    if K.family == "constant":
        coeffs = K.c * (right @ sol.nodal_values)
        for rows in _row_blocks(pts.shape[0], coeffs.size):
            integral[rows] = _target_factor(n, pts[rows]).T @ coeffs
    else:
        for rows in _row_blocks(pts.shape[0], rule.m):
            B = _weighted_kernel_block(rule, right, K, pts[rows],
                                       _target_factor(n, pts[rows]))
            integral[rows] = B @ sol.nodal_values
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
