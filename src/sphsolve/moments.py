"""Modified moments mu_l = 2pi int_{-1}^{1} h(sqrt(2(1-t))) P_l(t) dt.

These are the zonal eigenvalues through which a weight h acts on spherical
harmonics: integrating h(|x-y|) against Y_{l,k}(y) over the sphere yields
mu_l Y_{l,k}(x).  Three weight families are supported:

  algebraic(nu)      h = |x-y|^nu,              nu > -1 (singular for nu < 0)
  log                h = log|x-y|
  mixed(nu1, nu2)    h = |x-y|^nu1 |x+y|^nu2,   -1 <= nu_i <= 0

h = 1 is algebraic(0) (SingularKernel.one()), whose closed form gives
mu_0 = 4pi and exact zeros after it.  The first two families have closed
forms; the mixed family uses Gauss-Jacobi rules that absorb both endpoint
singularities exactly (scipy.special, loaded on its first call).  A
high-precision 1-D oracle (composite Gauss-Legendre with dyadic refinement
toward the +-1 endpoints) integrates any other profile and is the
independent reference the closed forms are tested against.

A profile is one function h(up, um) of up = 1 - t and um = 1 + t, the
distances of t = x.y from the two endpoints; |x-y| = sqrt(2 up) and
|x+y| = sqrt(2 um).  The oracle hands it both distances exactly, so no
panel near +-1 forms 1 -+ t by cancellation.  SingularKernel.profile is
such a function, and a product with a radial K is one lambda:

    kernel, K = SingularKernel.log(), ContinuousKernel.cos_scaled(10.0)
    mu = oracle_moments_vector(
        lambda up, um: kernel.profile(up, um)
        * K.of_distance(np.sqrt(2.0 * up)), 20)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _blas
from .harmonics import legendre_table

__all__ = [
    "SingularKernel",
    "ModifiedMoments",
    "OracleAccuracyWarning",
    "moments_algebraic",
    "moments_log",
    "moments_mixed",
    "modified_moments",
    "oracle_moments_vector",
]

TWO_PI = 2.0 * math.pi

# Oracle settings: 32-node panels, dyadic refinement toward each endpoint,
# and the absolute error _TARGET*(1+|result|) that it certifies.  As
# profiles take exact endpoint distances, the depth cap is far past the
# ~1e-16 tail of every supported singularity.
_PANEL_NODES = 32
_MAX_LEVELS = 120
_TARGET = 1e-12


class OracleAccuracyWarning(UserWarning):
    """The 1-D oracle could not certify the requested precision."""


def shortest(x: float) -> str:
    """The shortest text that parses back to x, with no trailing ".0"."""
    return repr(float(x)).removesuffix(".0")


def descriptor_floats(text: str, params, count, grammar: str) -> list:
    """The parameters of descriptor text as floats, if there are count of
    them; else a ValueError naming text and its grammar."""
    try:
        if len(params) == count:
            return [float(p) for p in params]
    except ValueError:
        pass
    raise ValueError(f"bad descriptor {text!r}: expected {grammar}")


@dataclass(frozen=True)
class SingularKernel:
    """One of the three weight families, with validated parameters.

    h = 1 is algebraic(0): one() builds it, describe() names it
    algebraic:0, and parse() also reads it as one.
    """

    family: str
    nu: float = 0.0
    nu2: float = 0.0

    GRAMMAR = "one | alg:NU | log | mixed:NU1:NU2"
    # family -> parameter count, read by describe() and by parse()
    _ARITY = {"algebraic": 1, "log": 0, "mixed": 2}

    def __post_init__(self):
        if self.family not in self._ARITY:
            raise ValueError(f"unknown kernel family {self.family!r}")
        # h is in L^1 of the sphere for every nu > -2, but in L^2 only
        # for nu > -1, and ||h||_2 bounds sum_j |W_j(x)|.
        if self.family == "algebraic" and not -1.0 < self.nu < math.inf:
            raise ValueError(f"algebraic exponent must be > -1 and finite, "
                             f"got {self.nu}")
        if self.family == "mixed" and not (-1.0 <= self.nu <= 0.0
                                           and -1.0 <= self.nu2 <= 0.0):
            raise ValueError(f"mixed exponents must lie in [-1, 0], got "
                             f"({self.nu}, {self.nu2})")

    @classmethod
    def one(cls) -> "SingularKernel":
        return cls.algebraic(0.0)

    @classmethod
    def algebraic(cls, nu: float) -> "SingularKernel":
        return cls("algebraic", nu=float(nu))

    @classmethod
    def log(cls) -> "SingularKernel":
        return cls("log")

    @classmethod
    def mixed(cls, nu1: float, nu2: float) -> "SingularKernel":
        return cls("mixed", nu=float(nu1), nu2=float(nu2))

    def describe(self) -> str:
        params = (self.nu, self.nu2)[:self._ARITY[self.family]]
        return ":".join([self.family, *map(shortest, params)])

    @classmethod
    def parse(cls, text: str) -> "SingularKernel":
        """The kernel that describe() names; alg:NU and one (algebraic:0)
        also read."""
        family, *params = text.split(":")
        if family == "one" and not params:
            return cls.one()
        family = "algebraic" if family == "alg" else family
        return cls(family, *descriptor_floats(
            text, params, cls._ARITY.get(family), cls.GRAMMAR))

    def profile(self, up, um):
        """h as a function of up = 1 - t and um = 1 + t, t = x.y, using
        |x-y| = sqrt(2 up) and |x+y| = sqrt(2 um).  Vectorized."""
        up = np.asarray(up, dtype=np.float64)
        if self.family == "algebraic":
            return (2.0 * up) ** (self.nu / 2.0)
        if self.family == "log":
            return 0.5 * np.log(2.0 * up)
        return ((2.0 * up) ** (self.nu / 2.0)
                * (2.0 * np.asarray(um, dtype=np.float64)) ** (self.nu2 / 2.0))


@dataclass(frozen=True)
class ModifiedMoments:
    """Vector (mu_0, ..., mu_n) for one kernel, with its provenance."""

    kernel: SingularKernel
    n: int
    values: np.ndarray
    method: str  # "closed_form" from every constructor, Gauss-Jacobi too

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} moments, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("moments must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _gauss_panels(panels, x: np.ndarray, w: np.ndarray):
    """The Gauss-Legendre rule (x, w) on [-1, 1] scaled to each of a list of
    (a, b) intervals, as flat nodes/weights."""
    a = np.array([p[0] for p in panels])
    b = np.array([p[1] for p in panels])
    half = 0.5 * (b - a)
    pts = a[:, None] + half[:, None] * (x[None, :] + 1.0)
    wts = half[:, None] * w[None, :]
    return pts.ravel(), wts.ravel()


def _tail_vector(prev: np.ndarray, last: np.ndarray,
                 floor: float) -> np.ndarray | None:
    """Per-degree geometric extrapolation of the remaining dyadic levels.

    Near an endpoint every P_l tends to +-1, so each degree's level sums
    decay with the same asymptotic ratio as the l = 0 ones; the measured
    ratio then extrapolates the tail to second-order accuracy.  Returns
    None while no contraction is visible on some still-significant degree.
    """
    tails = np.zeros_like(last)
    settled = np.abs(last) <= floor
    have_prev = prev != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(have_prev, last / np.where(have_prev, prev, 1.0), 0.0)
    contracting = have_prev & (np.abs(rho) <= 0.97)
    if not np.all(contracting | settled):
        return None
    ok = contracting & ~settled
    tails[ok] = last[ok] * rho[ok] / (1.0 - rho[ok])
    return tails


def oracle_moments_vector(h, n: int) -> np.ndarray:
    """All moments 2pi int h P_l(t) dt, l = 0..n, in one adaptive pass.

    h(up, um) is a vectorized profile of the endpoint distances up = 1 - t
    and um = 1 + t (see the module docstring), integrable on (-1, 1) with
    endpoint singularities no worse than u^a (a > -1) or log u, such as
    kernel.profile or h K for a radial K:

        oracle_moments_vector(lambda up, um: kernel.profile(up, um)
                              * K.of_distance(np.sqrt(2.0 * up)), n)

    The central band [-1/2, 1/2] gets (1 - t, 1 + t), a dyadic panel at
    distance u from +1 gets (u, 2 - u), and one at distance u from -1
    gets (2 - u, u).  Each side refines until its extrapolated tail is
    negligible (or the level cap is hit), then the tail estimate is added
    to the result.  Every panel's sum is also taken on its two halves; a
    profile that oscillates too fast for the panels moves it.  An
    OracleAccuracyWarning is raised unless the summed moves, plus the
    residual tail uncertainty of 2% of each tail estimate, stay within
    _TARGET*(1+|result|) = 1e-12*(1+|result|).
    """
    # 32 nodes make the rule exact for the polynomial factor to degree 63;
    # past that the count grows so exactness never silently degrades.
    n_nodes = max(_PANEL_NODES, (n + 1) // 2 + 16)
    nodes_x, nodes_w = np.polynomial.legendre.leggauss(n_nodes)

    def checked_sum(panels, at):
        """2pi sum of w P_l(t) h(up, um) over the Gauss rule on (a, b)
        panels of a variable s mapped by at(s) = (t, up, um), and how far
        the sum moves when every panel is halved."""
        def rule_sum(panels):
            s, ws = _gauss_panels(panels, nodes_x, nodes_w)
            t, up, um = at(s)
            return TWO_PI * _blas.matvec(legendre_table(n, t), ws * h(up, um))
        coarse = rule_sum(panels)
        halves = [half for a, b in panels
                  for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
        return coarse, np.abs(rule_sum(halves) - coarse)

    # Central band [-1/2, 1/2] in fixed panels of width 1/8.  The 2pi
    # factor is applied up front so the stopping test runs in result units.
    edges = np.linspace(-0.5, 0.5, 9)
    totals, spread = checked_sum(list(zip(edges[:-1], edges[1:])),
                                 lambda t: (t, 1.0 - t, 1.0 + t))

    certified = True
    for at in (lambda u: (1.0 - u, u, 2.0 - u),   # distance u from +1
               lambda u: (u - 1.0, 2.0 - u, u)):  # distance u from -1
        prev = np.zeros(n + 1)
        tails = None
        for k in range(1, _MAX_LEVELS + 1):
            contrib, moved = checked_sum([(2.0 ** -(k + 1), 2.0 ** -k)], at)
            totals += contrib
            spread += moved
            floor = 1e-16 * (1.0 + float(np.min(np.abs(totals))))
            tails = _tail_vector(prev, contrib, floor)
            prev = contrib
            if tails is not None and float(np.max(np.abs(tails))) <= floor:
                break
        if tails is None:
            certified = False
            continue
        totals += tails
        spread += 0.02 * np.abs(tails)
    if not certified or (float(np.max(spread))
                         > _TARGET * (1.0 + float(np.min(np.abs(totals))))):
        warnings.warn(
            f"moment oracle: could not certify absolute error "
            f"{_TARGET:g}*(1+|result|): the profile oscillates too fast for "
            f"its panels, or its tails do not contract within {_MAX_LEVELS} "
            f"refinement levels", OracleAccuracyWarning, stacklevel=2)
    return totals


def moments_algebraic(nu: float, n: int) -> ModifiedMoments:
    """Closed form for h = |x-y|^nu, nu > -1.

    mu_0 = 2^(nu+3) pi / (nu+2), since Gamma(x) / Gamma(x+1) = 1/x at
    x = nu/2 + 1, and the rising factorial / Gamma shifts give the stable
    downward ratio mu_{l+1} = mu_l (l - nu/2) / (l + nu/2 + 2).  It holds
    for nu > -2, where h is in L^1; nu > -1 keeps ||h||_2, which bounds
    sum_j |W_j(x)|.  At nu = 0 (h = 1) mu_0 is exactly 4pi, and the factor
    l - nu/2 = 0 at l = 0 makes every later moment exactly 0.
    """
    kernel = SingularKernel.algebraic(nu)
    # numpy's power overflows to inf where Python's ** raises, so a huge nu
    # ends in ModifiedMoments' "moments must be finite".
    with np.errstate(over="ignore"):
        mu0 = np.float64(2.0) ** (nu + 3.0) * (math.pi / (nu + 2.0))
    values = np.empty(n + 1)
    values[0] = mu0
    for l in range(n):
        values[l + 1] = values[l] * (l - nu / 2.0) / (l + nu / 2.0 + 2.0)
    return ModifiedMoments(kernel, n, values, "closed_form")


def moments_log(n: int) -> ModifiedMoments:
    """h = log|x-y|: mu_0 = pi(4 ln 2 - 2) and mu_l = -2pi/(l(l+1)), l >= 1."""
    values = np.empty(n + 1)
    values[0] = math.pi * (4.0 * math.log(2.0) - 2.0)
    l = np.arange(1, n + 1, dtype=np.float64)
    values[1:] = -TWO_PI / (l * (l + 1.0))
    return ModifiedMoments(SingularKernel.log(), n, values, "closed_form")


def moments_mixed(nu1: float, nu2: float, n: int) -> ModifiedMoments:
    """h = |x-y|^nu1 |x+y|^nu2 by Gauss-Jacobi quadrature.

    mu_l = 2^((nu1+nu2)/2) 2pi int (1-t)^(nu1/2) (1+t)^(nu2/2) P_l(t) dt;
    the Jacobi weight absorbs both singular factors, so the rule with
    n + 20 nodes integrates the remaining polynomial exactly.  For
    nu1 == nu2 the profile is even in t and the odd moments are exactly 0,
    not the rounding noise of the sum.
    """
    from scipy.special import roots_jacobi  # loads on the first call only

    kernel = SingularKernel.mixed(nu1, nu2)
    t, w = roots_jacobi(n + 20, nu1 / 2.0, nu2 / 2.0)
    scale = 2.0 ** ((nu1 + nu2) / 2.0) * TWO_PI
    values = scale * _blas.matvec(legendre_table(n, t), w)
    if nu1 == nu2:
        values[1::2] = 0.0
    return ModifiedMoments(kernel, n, values, "closed_form")


def modified_moments(kernel: SingularKernel, n: int) -> ModifiedMoments:
    """Dispatch to the family-specific constructor."""
    if kernel.family == "algebraic":
        return moments_algebraic(kernel.nu, n)
    if kernel.family == "log":
        return moments_log(n)
    return moments_mixed(kernel.nu, kernel.nu2, n)
