"""Hyperinterpolation: the discretized L2 projection onto degree-n polynomials.

L_n g = sum_i <g, Y_i>_m Y_i with the inner products evaluated by a
quadrature rule, <g, Y_i>_m = sum_j w_j g(x_j) Y_i(x_j).  When the rule is
exact to degree 2n this is the orthogonal projection restricted to P_n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .harmonics import HarmonicBasis, eval_basis_matrix
from .pointsets import QuadratureRule
from .sphere import as_unit_vectors

__all__ = ["HyperCoefficients", "hyper_coefficients", "hyper_evaluate",
           "hyper_l2_norm"]


@dataclass(frozen=True)
class HyperCoefficients:
    """(n+1)^2 coefficients in the flat harmonic order, with provenance."""

    n: int
    coeffs: np.ndarray
    rule_label: str

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if c.shape != ((self.n + 1) ** 2,):
            raise ValueError(
                f"expected {(self.n + 1) ** 2} coefficients, got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def hyper_coefficients(rule: QuadratureRule, n: int,
                       samples) -> HyperCoefficients:
    """Coefficients of L_n g from the nodal samples g(x_j)."""
    g = np.asarray(samples, dtype=np.float64)
    if g.shape != (rule.m,):
        raise ValueError(
            f"expected {rule.m} samples to match the rule, got {g.shape}")
    Y = eval_basis_matrix(HarmonicBasis(n), rule.points)
    return HyperCoefficients(n=n, coeffs=_blas.matvec(Y, rule.weights * g),
                             rule_label=rule.label)


def hyper_evaluate(c: HyperCoefficients, targets) -> np.ndarray:
    """Values of the hyperinterpolant at one or many points."""
    pts = as_unit_vectors(targets)
    Y = eval_basis_matrix(HarmonicBasis(c.n), pts)
    return _blas.matvec(Y.T, c.coeffs)


def hyper_l2_norm(c: HyperCoefficients) -> float:
    """L2 norm over the sphere; Parseval makes it the coefficient norm."""
    return float(np.linalg.norm(c.coeffs))
