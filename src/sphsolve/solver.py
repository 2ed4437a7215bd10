"""Two-stage product-integration solver for phi - A phi = f on the sphere.

Stage 1 collocates at the quadrature points and solves the dense system

    phi(x_i) - sum_j W_j(x_i) K(x_i, x_j) phi(x_j) = f(x_i),

where the product-integration weights absorb the singular factor h:

    W_j(x) = w_j sum_{l<=n} mu_l ((2l+1)/(4pi)) P_l(x . x_j)
           = w_j sum_{l<=n} mu_l sum_k Y_lk(x) Y_lk(x_j).

Read right to left, the addition theorem makes the weights a product of
rank (n+1)^2, Y(x)^T diag(mu_l repeated 2l+1 times) Y(X) diag(w), so every
block of weights is one BLAS matrix product of basis matrices; K is then
applied entrywise.  Stage 2 evaluates the natural interpolant anywhere,

    phi(t) = f(t) + sum_j W_j(t) K(t, x_j) phi(x_j),

which reproduces the nodal values exactly at the quadrature points.  It
runs over row blocks of targets, so no targets-by-m matrix is formed.
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
from .mz import gram_matrix
from .pointsets import QuadratureRule
from .sphere import EvaluationGrid, as_unit_vectors

__all__ = [
    "ContinuousKernel",
    "ProblemSpec",
    "DiscreteSolution",
    "SingularSystemError",
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

# Entries per row block of weighted-kernel values; bounds the K(dots)
# temporaries of assembly and every stage-2 block.
_BLOCK_ENTRIES = 1 << 22


class SingularSystemError(np.linalg.LinAlgError):
    """The collocation matrix is singular to working precision."""


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
        r = np.asarray(r, dtype=np.float64)
        if self.family == "constant":
            return np.full_like(r, self.c)
        if self.family == "sin_scaled":
            return np.sin(self.c * r)
        if self.family == "cos_scaled":
            return np.cos(self.c * r)
        return np.asarray(self.fn(r), dtype=np.float64)

    def of_dots(self, dots):
        return self.of_distance(np.sqrt(np.maximum(2.0 * (1.0 - dots), 0.0)))


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
    """Stage-1 nodal values plus everything stage 2 needs."""

    nodal_values: np.ndarray
    spec: ProblemSpec
    moments: ModifiedMoments
    gamma: tuple[int, int, float]  # (m, n, eta)
    residual: float
    condition_estimate: float

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


def _rule_factor(rule: QuadratureRule, moments: ModifiedMoments) -> np.ndarray:
    """diag(mu_l repeated 2l+1 times) Y(X) diag(w), shape ((n+1)^2, m).

    Row 0 carries both factors of the constant Y_00 = 1/sqrt(4pi), and the
    target side carries ones there: the degree-0 term mu_0 w_j / (4pi) is
    then exact, as P_0 == 1 makes it in the Legendre sum.
    """
    right = harmonics.eval_basis_matrix(HarmonicBasis(moments.n), rule.points)
    right *= np.repeat(moments.values, 2 * np.arange(moments.n + 1) + 1)[:, None]
    right[0] = moments.values[0] / FOUR_PI
    right *= rule.weights
    return right


def _row_blocks(rows: int, cols: int) -> list[slice]:
    step = max(1, _BLOCK_ENTRIES // cols)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _weighted_kernel_block(rule: QuadratureRule, moments: ModifiedMoments,
                           right: np.ndarray, K: ContinuousKernel,
                           targets: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """W_j(x) K(x, x_j) for one row block of targets: one GEMM, then K.

    right is _rule_factor(rule, moments); out, if given, receives the block.
    """
    left = harmonics.eval_basis_matrix(HarmonicBasis(moments.n), targets)
    left[0] = 1.0
    B = np.matmul(left.T, right, out=out)
    if K.family == "constant":
        B *= K.c
    else:
        B *= K.of_dots(np.clip(targets @ rule.points.T, -1.0, 1.0))
    return B


def _weighted_kernel_matrix(rule: QuadratureRule, moments: ModifiedMoments,
                            K: ContinuousKernel, targets: np.ndarray) -> np.ndarray:
    """W_j(x) K(x, x_j) for every target; the matrix of assembly."""
    right = _rule_factor(rule, moments)
    out = np.empty((targets.shape[0], rule.m))
    for rows in _row_blocks(targets.shape[0], rule.m):
        _weighted_kernel_block(rule, moments, right, K, targets[rows],
                               out=out[rows])
    return out


def assemble_system(spec: ProblemSpec,
                    moments: ModifiedMoments | None = None):
    """Collocation matrix M_ij = delta_ij - W_j(x_i) K(x_i, x_j) and rhs f(x_i)."""
    if moments is None:
        moments = modified_moments(spec.kernel, spec.n)
    if moments.n != spec.n or moments.kernel != spec.kernel:
        raise ValueError("moments do not match the problem kernel/degree")
    M = _weighted_kernel_matrix(spec.rule, moments, spec.K, spec.rule.points)
    np.negative(M, out=M)
    np.fill_diagonal(M, M.diagonal() + 1.0)
    return M, spec.f_values(spec.rule.points)


def solve_stage1(spec: ProblemSpec,
                 moments: ModifiedMoments | None = None) -> DiscreteSolution:
    """Factor and solve the collocation system; record eta and diagnostics.

    Raises SingularSystemError naming the smallest pivot when the LU
    factorization breaks down; attaches IllConditionedWarning when the
    1-norm condition estimate exceeds 1e12.
    """
    if moments is None:
        moments = modified_moments(spec.kernel, spec.n)
    M, b = assemble_system(spec, moments)
    anorm = 0.0  # infinity norm, chunked to avoid an m^2 temporary
    for start in range(0, M.shape[0], 512):
        anorm = max(anorm, float(np.abs(M[start:start + 512]).sum(axis=1).max()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", category=RuntimeWarning)
        try:
            lu, piv = lu_factor(M)
        except (RuntimeWarning, np.linalg.LinAlgError) as exc:
            raise SingularSystemError(
                f"collocation matrix is singular: {exc}") from None
    pivots = np.abs(np.diag(lu))
    smallest = float(pivots.min())
    if smallest == 0.0:
        raise SingularSystemError(
            f"collocation matrix is singular to working precision: "
            f"pivot {int(pivots.argmin())} of {spec.rule.m} is zero")
    gecon = get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm, norm="I")
    cond = math.inf if rcond == 0.0 else 1.0 / float(rcond)
    if info < 0 or not math.isfinite(cond) or cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"collocation matrix condition estimate {cond:.3e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; results may lose accuracy",
            IllConditionedWarning, stacklevel=2)
    phi = lu_solve((lu, piv), b)
    residual = float(np.max(np.abs(M @ phi - b)))
    G = gram_matrix(spec.rule, spec.n)
    lam = np.linalg.eigvalsh(G)
    eta = max(float(lam[-1]) - 1.0, 1.0 - float(lam[0]), 0.0)
    return DiscreteSolution(nodal_values=phi, spec=spec, moments=moments,
                            gamma=(spec.rule.m, spec.n, eta),
                            residual=residual, condition_estimate=cond)


def evaluate_stage2(sol: DiscreteSolution, targets) -> np.ndarray:
    """phi(t) = f(t) + sum_j W_j(t) K(t, x_j) phi(x_j) at one or many t."""
    pts = as_unit_vectors(targets)
    rule, K = sol.spec.rule, sol.spec.K
    right = _rule_factor(rule, sol.moments)
    integral = np.empty(pts.shape[0])
    for rows in _row_blocks(pts.shape[0], rule.m):
        B = _weighted_kernel_block(rule, sol.moments, right, K, pts[rows])
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
