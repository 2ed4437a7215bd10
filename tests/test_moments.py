"""Modified moments: closed forms, the 1-D oracle, and their agreement.

The moment of degree l is 2pi int_{-1}^{1} h(sqrt(2(1-t))) P_l(t) dt; each
kernel family has an independent evaluation route and the tests pin the
routes against each other and against hand-derived values.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphsolve import moments
from sphsolve import (
    ContinuousKernel,
    ModifiedMoments,
    OracleAccuracyWarning,
    SingularKernel,
    modified_moments,
    moments_algebraic,
    moments_log,
    moments_mixed,
    oracle_moments_vector,
)

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi


def oracle_for(kernel: SingularKernel, n: int) -> np.ndarray:
    return oracle_moments_vector(kernel.profile, n)


def test_kernel_family_validation() -> None:
    for nu in (-1.0, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="> -1 and finite"):
            SingularKernel.algebraic(nu)
    for nu1, nu2 in ((-0.5, 0.5), (0.5, -0.5), (-0.5, math.nan)):
        with pytest.raises(ValueError, match=r"\[-1, 0\]"):
            SingularKernel.mixed(nu1, nu2)
    for family in ("cubic", "one"):  # h == 1 is algebraic:0, not a family
        with pytest.raises(ValueError, match="family"):
            SingularKernel(family)
    assert SingularKernel.algebraic(-0.5).describe() == "algebraic:-0.5"
    assert SingularKernel.mixed(-1.0, -0.25).describe() == "mixed:-1:-0.25"


def test_h_one_is_algebraic_zero_with_exact_orthogonality() -> None:
    # h == 1 is algebraic:0: Gamma(1) == Gamma(2) gives mu_0 = 4pi exactly,
    # and the factor l - nu/2 = 0 at l = 0 leaves exact zeros after it
    kernel = SingularKernel.one()
    assert kernel == SingularKernel.algebraic(0.0)
    assert kernel.describe() == "algebraic:0"
    mom = modified_moments(kernel, 12)
    assert np.array_equal(mom.values, [FOUR_PI] + [0.0] * 12)
    assert mom.method == "closed_form"


def test_h_one_profile_is_exactly_one() -> None:
    up = np.array([0.0, 1e-300, 0.5, 2.0])
    assert np.array_equal(SingularKernel.one().profile(up, 2.0 - up),
                          np.ones(4))


def test_oracle_reproduces_orthogonality() -> None:
    # h == 1: mu_0 = 4pi, all higher moments vanish
    vec = oracle_moments_vector(lambda up, um: np.ones_like(up), 10)
    assert vec[0] == pytest.approx(FOUR_PI, abs=1e-12)
    assert np.max(np.abs(vec[1:])) <= 1e-12


def test_algebraic_reference_value() -> None:
    # nu = -1/2: mu_0 = 2^{3/2} pi Gamma(3/4)/Gamma(7/4) = (8 sqrt 2 / 3) pi
    mom = moments_algebraic(-0.5, 0)
    assert mom.values[0] == pytest.approx(8.0 * math.sqrt(2.0) / 3.0 * math.pi,
                                          rel=1e-14)
    assert mom.values[0] == pytest.approx(11.847687835088978, rel=1e-12)
    # independent route: 2pi int_{-1}^{1} (2(1-t))^{-1/4} dt evaluated by
    # the antiderivative, giving 2pi * (2/3) * 4^{3/4}
    anti = 2.0 * math.pi * (2.0 / 3.0) * 4.0 ** 0.75
    assert mom.values[0] == pytest.approx(anti, rel=1e-14)


def test_algebraic_approaches_integrable_limit() -> None:
    # as nu -> -1 the kernel stays integrable and mu_0 -> 4pi
    mom = moments_algebraic(-1.0 + 1e-9, 0)
    assert mom.values[0] == pytest.approx(FOUR_PI, rel=1e-6)


def test_algebraic_positive_exponent_is_smooth_case() -> None:
    # nu = 2: h = |x-y|^2 = 2 - 2t is degree 1, so moments vanish for l >= 2
    mom = moments_algebraic(2.0, 6)
    assert mom.values[0] == pytest.approx(2.0 * FOUR_PI, rel=1e-13)
    assert np.max(np.abs(mom.values[2:])) <= 1e-12


def test_log_moment_values() -> None:
    mom = moments_log(12)
    assert mom.values[0] == pytest.approx(math.pi * (4.0 * math.log(2.0) - 2.0),
                                          rel=1e-15)
    assert mom.values[1] == pytest.approx(-math.pi, rel=1e-12)
    assert mom.values[2] == pytest.approx(-math.pi / 3.0, rel=1e-12)
    assert mom.method == "closed_form"
    l = np.arange(1, 13, dtype=float)
    assert np.allclose(mom.values[1:], -2.0 * math.pi / (l * (l + 1.0)),
                       rtol=1e-10)
    # the closed form -2pi/(l(l+1)) against the independent 1-D oracle
    for n in (12, 30):
        np.testing.assert_allclose(moments_log(n).values,
                                   oracle_for(SingularKernel.log(), n),
                                   rtol=1e-10)


def test_mixed_symmetric_reference_value() -> None:
    # nu1 = nu2 = -1: h = |x-y|^{-1}|x+y|^{-1}, mu_0 = pi^2
    mom = moments_mixed(-1.0, -1.0, 0)
    assert mom.values[0] == pytest.approx(math.pi ** 2, rel=1e-10)


def test_mixed_reduces_to_algebraic_when_second_exponent_vanishes() -> None:
    # |x+y|^0 = 1, so mixed(nu, 0) must agree with the algebraic closed form
    mixed = moments_mixed(-0.5, 0.0, 20)
    alg = moments_algebraic(-0.5, 20)
    assert np.allclose(mixed.values, alg.values, rtol=1e-10, atol=1e-12)


def test_mixed_symmetric_parameters_kill_odd_moments() -> None:
    # nu1 = nu2 makes the profile even in t, so odd-degree moments vanish,
    # exactly: the solver drops the harmonics of a zero moment
    for nu in (-1.0, -0.5, -0.2, 0.0):
        mom = moments_mixed(nu, nu, 11)
        assert np.all(mom.values[1::2] == 0.0)
        assert np.all(mom.values[0::2] != 0.0)


def test_mixed_matches_oracle() -> None:
    kernel = SingularKernel.mixed(-0.3, -0.8)
    vec = oracle_for(kernel, 15)
    mom = moments_mixed(-0.3, -0.8, 15)
    assert np.allclose(mom.values, vec, rtol=1e-9, atol=1e-12)


@given(st.floats(-0.95, -0.05))
@settings(max_examples=30, deadline=None)
def test_algebraic_moments_decay_monotonically(nu: float) -> None:
    # |mu_l| is non-increasing from l = 2 on (here from l = 1 already)
    mom = moments_algebraic(nu, 30)
    mags = np.abs(mom.values)
    assert np.all(mags[2:] <= mags[1:-1] * (1.0 + 1e-12))


def test_log_and_one_moments_decay_monotonically() -> None:
    for mom in (moments_log(30), modified_moments(SingularKernel.one(), 30)):
        mags = np.abs(mom.values)
        assert np.all(mags[2:] <= mags[1:-1] * (1.0 + 1e-12))


@pytest.mark.parametrize("nu", [-0.9, -0.5, -0.25, 0.0, 0.5, 1.0, 2.0, 3.7,
                                10.0])
def test_closed_form_matches_oracle_smoke(nu) -> None:
    # mu_0 = 2^(nu+3) pi / (nu+2): within 7.1e-16 of the oracle as measured
    kernel = SingularKernel.algebraic(nu)
    mu0, oracle0 = moments_algebraic(nu, 0).values[0], oracle_for(kernel, 0)[0]
    assert abs(mu0 - oracle0) <= 1e-15 * abs(oracle0)
    if nu == -0.5:
        mom = moments_algebraic(nu, 10)
        assert np.allclose(mom.values, oracle_for(kernel, 10),
                           rtol=1e-12, atol=1e-13)


def test_import_leaves_special_unloaded() -> None:
    # moments_mixed imports scipy.special on its first call only
    src = os.path.dirname(os.path.dirname(moments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sphsolve; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_dispatch_covers_all_families() -> None:
    for kernel, method in ((SingularKernel.one(), "closed_form"),
                           (SingularKernel.algebraic(-0.5), "closed_form"),
                           (SingularKernel.log(), "closed_form"),
                           (SingularKernel.mixed(-0.5, -0.5), "closed_form")):
        mom = modified_moments(kernel, 8)
        assert mom.kernel == kernel
        assert mom.n == 8
        assert mom.values.shape == (9,)
        assert mom.method == method


def test_oracle_warns_when_it_cannot_certify() -> None:
    # up^-0.999 sheds only a factor 2^-0.001 per dyadic level toward +1, so
    # no tail contracts enough to extrapolate within the level cap
    with pytest.warns(OracleAccuracyWarning):
        oracle_moments_vector(lambda up, um: up ** -0.999, 0)[0]


@pytest.mark.parametrize("family", ["cos", "sin"])
@pytest.mark.parametrize("c", [10.0, 100.0, 240.0, 1000.0, 10000.0])
def test_oracle_warns_or_matches_oscillating_profiles(family, c) -> None:
    # h = 1 with K = cos(c r) or sin(c r), r = |x-y|: 2pi int K dt in closed
    # form.  From c ~ 230 the first dyadic panel toward +1 no longer
    # resolves K, from c ~ 1000 neither does the central band; a value off
    # the closed form must come with the warning
    K = ContinuousKernel.parse(f"{family}:{c}")
    exact = TWO_PI * {
        "cos": (math.cos(2 * c) - 1) / c ** 2 + 2 * math.sin(2 * c) / c,
        "sin": math.sin(2 * c) / c ** 2 - 2 * math.cos(2 * c) / c}[family]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", OracleAccuracyWarning)
        value = oracle_moments_vector(
            lambda up, um: K.of_distance(np.sqrt(2.0 * up)), 0)[0]
    warned = any(w.category is OracleAccuracyWarning for w in caught)
    assert warned or abs(value - exact) <= 1e-12 * (1.0 + abs(exact))
    if c <= 100.0:  # resolved: certified silently
        assert not warned and abs(value - exact) <= 1e-14


def test_oracle_exact_endpoint_profiles_certify_silently() -> None:
    kernel = SingularKernel.algebraic(-0.9)
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error", OracleAccuracyWarning)
        value = oracle_moments_vector(kernel.profile, 0)[0]
    assert value == pytest.approx(moments_algebraic(-0.9, 0).values[0],
                                  rel=1e-13)


def test_moments_container_validation() -> None:
    kernel = SingularKernel.one()
    with pytest.raises(ValueError, match="expected 3"):
        ModifiedMoments(kernel, 2, np.zeros(5), "closed_form")
    with pytest.raises(ValueError, match="finite"):
        ModifiedMoments(kernel, 1, np.array([1.0, np.nan]), "oracle")
    values = np.array([FOUR_PI, 0.0])
    mom = ModifiedMoments(kernel, 1, values, "closed_form")
    values[0] = np.nan  # the caller's array stays writable and apart
    assert mom.values[0] == FOUR_PI and not mom.values.flags.writeable
