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
from .harmonics import _check_degree, _row_degrees, eval_basis_matrix
from .pointsets import QuadratureRule
# mesh_norm stays importable here: perfbench's tracer wraps mz.mesh_norm
from .sphere import EvaluationGrid, mesh_norm  # noqa: F401

__all__ = ["MZReport", "gram_matrix", "gram_spectrum", "mz_constant",
           "EXACTNESS_TOL"]

# Tolerance of the exactness degree: above the accumulated round-off of
# <= 5000-term weighted sums.
EXACTNESS_TOL = 1e-9

SQRT_4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class MZReport:
    """MZ constant of one (rule, n) pair, its Gram spectrum, the rule's
    exactness degree and covering radius; the fields, in order, are the
    columns of the analyze CSV.

    eta is max(lambda_max - 1, 1 - lambda_min) over the spectrum of the
    degree-n Gram matrix.  exact_to is the largest degree d <= 2n+1 at
    which the rule integrates every harmonic exactly (within tolerance),
    or -1 if even degree 0 fails; mz_constant reads it from the Gram
    matrix and the degree-(n+1) rows of the basis, whose products span
    every harmonic of degree <= 2n+1, with the threshold EXACTNESS_TOL /
    sqrt(4pi) on each product's quadrature error.
    mesh_norm is the exact geodesic covering radius h_X of the nodes, the
    rule's own mesh_norm.
    """

    n: int
    eta: float
    lambda_min: float
    lambda_max: float
    exact_to: int
    mesh_norm: float

    @property
    def mz_holds(self) -> bool:
        return self.eta < 1.0

    def summary(self) -> str:
        head = (f"n={self.n}  eta={self.eta:.6e}  "
                f"lambda in [{self.lambda_min:.12f}, {self.lambda_max:.12f}]  "
                f"exact_to={self.exact_to}  mesh_norm={self.mesh_norm:.6f}")
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


def mz_constant(rule: QuadratureRule, n: int,
                probe: EvaluationGrid | None = None) -> MZReport:
    """MZ constant from the Gram spectrum, with exactness and mesh diagnostics.

    One basis, to degree n+1, serves both.  Its first (n+1)^2 rows give
    the Gram matrix G; its 2n+3 rows of degree n+1 give the cross block
    C = (Y_{n+1} w) Y_{<=n}^T.  The products Y_a Y_b with deg a + deg b
    <= d span every harmonic of degree <= d, so the rule is exact to d
    exactly when each G_ab of degree sum deg a + deg b <= d equals
    delta_ab and each C_ab of degree sum n+1 + deg b <= d is zero; G and
    C hold every degree sum up to 2n+1.  An entry fails when it is off by
    more than EXACTNESS_TOL / sqrt(4pi), which on the entries with a = 0
    is EXACTNESS_TOL on sum_j w_j Y_b(x_j) - int Y_b.  exact_to is the
    first failing degree sum minus one: 2n+1 when none fails, -1 when
    G_00 does.  The mesh norm is rule.mesh_norm, measured on the rule's
    first call and read back on every later one.  probe is ignored and
    deprecated: passing one warns.
    """
    _check_degree(n)
    if probe is not None:
        warnings.warn("mz_constant ignores probe, which will be removed",
                      DeprecationWarning, stacklevel=2)
    Y = eval_basis_matrix(n + 1, rule.points)
    size = (n + 1) ** 2
    G = gram_matrix(rule, n, basis=Y[:size])
    C = _blas.matmul(Y[size:] * rule.weights, Y[:size].T)
    eta, lam_min, lam_max = gram_spectrum(G)
    tol = EXACTNESS_TOL / SQRT_4PI
    # |G - I| in place; columns run up in degree, so a row's first failing
    # column holds its lowest failing degree sum
    G.flat[::size + 1] -= 1.0
    bad = np.abs(G, out=G) > tol
    degree = _row_degrees(n)
    failing = np.concatenate([
        (degree + degree[bad.argmax(axis=1)])[bad.any(axis=1)],
        (n + 1 + degree)[(np.abs(C) > tol).any(axis=0)]])
    exact_to = int(failing.min()) - 1 if failing.size else 2 * n + 1
    return MZReport(n=n, eta=eta, lambda_min=lam_min, lambda_max=lam_max,
                    exact_to=exact_to, mesh_norm=rule.mesh_norm)
