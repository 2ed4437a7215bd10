"""Marcinkiewicz-Zygmund diagnostics of a quadrature rule at degree n.

For polynomials chi of degree <= n, a rule satisfies the MZ property with
constant eta in [0,1) when

    (1 - eta) int chi^2 domega <= sum_j w_j chi(x_j)^2 <= (1 + eta) int chi^2.

With chi = sum_i c_i Y_i the discrete quadratic form is c^T G c on the Gram
matrix G below, and the integral is c^T c, so the smallest admissible eta is
max(lambda_max(G) - 1, 1 - lambda_min(G)): a finite eigenvalue problem, no
sampling looseness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _blas
from .harmonics import _check_degree, eval_basis_matrix
from .pointsets import QuadratureRule
# mesh_norm stays importable here: perfbench's tracer wraps mz.mesh_norm
from .sphere import EvaluationGrid, mesh_norm  # noqa: F401

__all__ = ["MZReport", "gram_matrix", "gram_spectrum", "mz_constant",
           "quadrature_error_on_harmonics", "EXACTNESS_TOL"]

# Tolerance of the exactness degree: above the accumulated round-off of
# <= 5000-term weighted sums.
EXACTNESS_TOL = 1e-9

SQRT_4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class MZReport:
    """MZ constant of one (rule, n) pair plus the surrounding diagnostics.

    exact_to is the largest degree d <= 2n+1 at which the rule integrates
    every harmonic exactly (within tolerance), or -1 if even degree 0
    fails.  mesh_norm is the exact geodesic covering radius h_X of the
    nodes, the rule's own mesh_norm.  degree_bound is the raw ratio
    eta / (2 mesh_norm) from the admissibility heuristic; it carries an
    unspecified constant and is reported, never asserted.
    """

    n: int
    eta: float
    lambda_min: float
    lambda_max: float
    exact_to: int
    mesh_norm: float
    degree_bound: float

    @property
    def mz_holds(self) -> bool:
        return self.eta < 1.0

    def summary(self) -> str:
        head = (f"n={self.n}  eta={self.eta:.6e}  "
                f"lambda in [{self.lambda_min:.12f}, {self.lambda_max:.12f}]  "
                f"exact_to={self.exact_to}  mesh_norm={self.mesh_norm:.6f}  "
                f"degree_bound={self.degree_bound:.3f}")
        if not self.mz_holds:
            head += "  [MZ property fails (eta >= 1)]"
        return head


def gram_matrix(rule: QuadratureRule, n: int,
                basis: np.ndarray | None = None) -> np.ndarray:
    """G_{ii'} = sum_j w_j Y_i(x_j) Y_{i'}(x_j), symmetric PSD, (n+1)^2 square.

    basis, if given, is eval_basis_matrix(n, rule.points), already
    evaluated by the caller.
    """
    Y = eval_basis_matrix(n, rule.points) if basis is None else basis
    G = _blas.matmul(Y * rule.weights, Y.T)
    return 0.5 * (G + G.T)  # exact symmetry for the eigensolver


def gram_spectrum(G: np.ndarray) -> tuple[float, float, float]:
    """(eta, lambda_min, lambda_max) of a Gram matrix from gram_matrix."""
    lam = _blas.eigvalsh(G)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    return max(lam_max - 1.0, 1.0 - lam_min, 0.0), lam_min, lam_max


def _harmonic_quadrature_errors(Y: np.ndarray,
                                weights: np.ndarray) -> np.ndarray:
    """sum_j w_j Y_i(x_j) minus int Y_i, for every row i of the basis Y.

    The true integrals are sqrt(4pi) for the constant harmonic and 0 for
    every other one.  Entry i belongs to degree floor(sqrt(i)).
    """
    s = _blas.matvec(Y, weights)
    s[0] -= SQRT_4PI
    return s


def quadrature_error_on_harmonics(rule: QuadratureRule, d: int) -> float:
    """Max over l <= d, k of |sum_j w_j Y_{l,k}(x_j) - sqrt(4pi) [l=0]|."""
    Y = eval_basis_matrix(d, rule.points)
    return float(np.max(np.abs(_harmonic_quadrature_errors(Y, rule.weights))))


def _exactness_degree(s: np.ndarray, tol: float) -> int:
    """Largest d with every error of degree <= d within tol, or -1."""
    exact_to = -1
    for d in range(math.isqrt(s.size)):
        if np.max(np.abs(s[d * d:(d + 1) * (d + 1)])) > tol:
            break
        exact_to = d
    return exact_to


def mz_constant(rule: QuadratureRule, n: int,
                probe: EvaluationGrid | None = None) -> MZReport:
    """MZ constant from the Gram spectrum, with exactness and mesh diagnostics.

    One basis evaluation at degree 2n+1 serves both: in the flat order its
    leading (n+1)^2 rows are the degree-n basis of the Gram matrix, and all
    of its rows give the exactness degree.  The mesh norm is rule.mesh_norm,
    measured on the rule's first call and read back on every later one.
    probe is ignored and deprecated: passing one warns.
    """
    _check_degree(n)
    if probe is not None:
        warnings.warn("mz_constant ignores probe, which will be removed",
                      DeprecationWarning, stacklevel=2)
    Y = eval_basis_matrix(2 * n + 1, rule.points)
    eta, lam_min, lam_max = gram_spectrum(
        gram_matrix(rule, n, basis=Y[:(n + 1) ** 2]))
    exact_to = _exactness_degree(_harmonic_quadrature_errors(Y, rule.weights),
                                 EXACTNESS_TOL)
    h = rule.mesh_norm
    return MZReport(n=n, eta=eta, lambda_min=lam_min, lambda_max=lam_max,
                    exact_to=exact_to, mesh_norm=h,
                    degree_bound=eta / (2.0 * h))
