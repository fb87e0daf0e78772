import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from kramers_spde import DomainError, erfcx, psi, theta
from kramers_spde.specialfn import PSI_AT_ZERO

mp.mp.dps = 40


def test_erfcx_against_oracle():
    for x in np.geomspace(1e-4, 500.0, 60):
        ref = float(mp.exp(mp.mpf(float(x)) ** 2) * mp.erfc(mp.mpf(float(x))))
        assert erfcx(float(x)) == pytest.approx(ref, rel=1e-12)
    assert erfcx(0.0) == 1.0


def test_psi_endpoint_value():
    # shared limit Gamma(1/4) / (2^{5/4} sqrt(pi)); frozen high-precision value
    ref = 0.8600399873245196  # mpmath: gamma(1/4)/(2**1.25*sqrt(pi))
    assert abs(float(mp.gamma(0.25) / (2 ** mp.mpf(1.25) * mp.sqrt(mp.pi))) - ref) < 1e-15
    assert psi("+", 0.0) == pytest.approx(ref, abs=1e-12)
    assert psi("-", 0.0) == pytest.approx(ref, abs=1e-12)
    # continuity at alpha -> 0 on both branches
    assert psi("+", 1e-7) == pytest.approx(ref, abs=1e-6)
    assert psi("-", 1e-7) == pytest.approx(ref, abs=1e-6)


def test_psi_against_direct_oracle():
    # direct mpmath evaluation of the defining formulas
    for a in (0.3, 1.0, 4.0, 12.0, 40.0):
        am = mp.mpf(a)
        ref_p = float(mp.sqrt(am * (1 + am) / (8 * mp.pi)) * mp.exp(am**2 / 16)
                      * mp.besselk(mp.mpf(1) / 4, am**2 / 16))
        ref_m = float(mp.sqrt(mp.pi * am * (1 + am) / 32) * mp.exp(-(am**2) / 64)
                      * (mp.besseli(-mp.mpf(1) / 4, am**2 / 64)
                         + mp.besseli(mp.mpf(1) / 4, am**2 / 64)))
        assert psi("+", a) == pytest.approx(ref_p, rel=1e-10)
        assert psi("-", a) == pytest.approx(ref_m, rel=1e-10)
    assert type(psi("+", 1.0)) is float and type(psi("-", 1.0)) is float


def test_psi_limits():
    # O(1/alpha) approach to the limits 1 and 2: verified against the
    # asymptotics I_nu(x) ~ e^x/sqrt(2 pi x), K_nu(x) ~ sqrt(pi/2x) e^{-x};
    # exact once 1/alpha is below the rounding
    for a in (200.0, 400.0, 1e8, 1e200, 1e300):
        assert psi("+", a) == pytest.approx(1.0, abs=3.0 / a)
        assert psi("-", a) == pytest.approx(2.0, abs=6.0 / a)
    assert psi("+", 400.0) - 1.0 < psi("+", 200.0) - 1.0
    # psi = PSI_AT_ZERO (1 + O(alpha)): the value at 0, however small alpha is
    for branch in "+-":
        assert psi(branch, 1e-300) == psi(branch, 0.0) == pytest.approx(PSI_AT_ZERO, rel=1e-15)


def test_theta_endpoints_and_oracle():
    assert theta("+", 0.0) == pytest.approx(math.sqrt(math.pi / 8.0), abs=1e-15)
    assert theta("-", 0.0) == pytest.approx(math.sqrt(math.pi / 8.0), abs=1e-15)
    for a in (0.5, 2.0, 10.0, 50.0):
        am = mp.mpf(a)
        ref_p = float(mp.sqrt(mp.pi / 2) * (1 + am) * mp.exp(am**2 / 8) * mp.ncdf(-am / 2))
        ref_m = float(mp.sqrt(mp.pi / 2) * mp.ncdf(am / 2))
        assert theta("+", a) == pytest.approx(ref_p, rel=1e-12)
        assert theta("-", a) == pytest.approx(ref_m, rel=1e-12)
    assert type(theta("+", 1.0)) is float and type(theta("-", 1.0)) is float


def test_theta_limits():
    assert theta("-", 50.0) == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-6)
    for a in (500.0, 1000.0):
        assert theta("+", a) == pytest.approx(1.0, abs=2.0 / a)


def test_psi_theta_bounded_between_positive_constants():
    grid = np.linspace(0.0, 1000.0, 4001)
    pp = np.array([psi("+", float(a)) for a in grid])
    pm = np.array([psi("-", float(a)) for a in grid])
    tp = np.array([theta("+", float(a)) for a in grid])
    tm = np.array([theta("-", float(a)) for a in grid])
    assert 0.5 <= pp.min() and pp.max() <= 2.5
    assert 0.5 <= pm.min() and pm.max() <= 2.5
    assert 0.5 <= tp.min() and tp.max() <= 1.5
    assert 0.5 <= tm.min() and tm.max() <= 1.5


def test_domain_errors():
    for fn in (psi, theta):
        for branch in "+-":
            for alpha in (-0.1, -1e-9, math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match="alpha"):
                    fn(branch, alpha)
    with pytest.raises(ValueError):
        psi("x", 1.0)


def _mp_crossover(name, branch, a):
    """40-digit psi / theta from their defining formulas."""
    if a == 0.0:
        return (mp.gamma(0.25) / (2 ** mp.mpf(1.25) * mp.sqrt(mp.pi)) if name == "psi"
                else mp.sqrt(mp.pi / 8))
    a = mp.mpf(a)
    if name == "theta":
        return mp.sqrt(mp.pi / 2) * ((1 + a) * mp.exp(a**2 / 8) * mp.ncdf(-a / 2)
                                     if branch == "+" else mp.ncdf(a / 2))
    if branch == "+":
        return mp.sqrt(a * (1 + a) / (8 * mp.pi)) * mp.exp(a**2 / 16) * mp.besselk(0.25, a**2 / 16)
    x = a**2 / 64
    return (mp.sqrt(mp.pi * a * (1 + a) / 32) * mp.exp(-x)
            * (mp.besseli(-0.25, x) + mp.besseli(0.25, x)))


def _scipy_crossover(name, branch, a):
    """psi / theta on scipy.special's kve, ive and erfcx, the kernels they used
    (which gave psi = inf once a^2 underflowed: there the limit stands in)."""
    if a < 1e-150:
        return psi(branch, 0.0) if name == "psi" else theta(branch, 0.0)
    if name == "theta":
        z = a / (2.0 * math.sqrt(2.0))
        return math.sqrt(math.pi / 2.0) * ((1.0 + a) * 0.5 * special.erfcx(z)
                                           if branch == "+" else 1.0 - 0.5 * math.erfc(z))
    if branch == "+":
        return math.sqrt(a * (1.0 + a) / (8.0 * math.pi)) * special.kve(0.25, a * a / 16.0)
    x = a * a / 64.0
    return (math.sqrt(math.pi * a * (1.0 + a) / 32.0)
            * (special.ive(-0.25, x) + special.ive(0.25, x)))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["psi", "theta"]), branch=st.sampled_from("+-"),
       alpha=st.floats(0.0, 1000.0))
@example(name="psi", branch="+", alpha=5.62)      # scipy's kve off by 6.4e-14 here
@example(name="psi", branch="-", alpha=32.7528)   # scipy's ive pair off by 3.7e-14
@example(name="psi", branch="+", alpha=26.0 * math.sqrt(2.0))   # node switch: u = j/16
@example(name="psi", branch="-", alpha=26.0 * math.sqrt(2.0))   # from 0, t = j/4 beyond
@example(name="psi", branch="+", alpha=math.nextafter(26.0 * math.sqrt(2.0), 0.0))
@example(name="psi", branch="-", alpha=math.nextafter(26.0 * math.sqrt(2.0), 0.0))
@example(name="theta", branch="+", alpha=20.0 * math.sqrt(2.0))   # erfcx seam, z = 10
@example(name="psi", branch="+", alpha=1e-200)    # alpha^2 would underflow
def test_crossover_functions_match_mpmath_and_scipy(name, branch, alpha):
    # within 1e-14 of 40-digit mpmath; within 1e-13 of the scipy.special
    # kernels they replace, whose own error reaches 6.7e-14 (kve near x = 2)
    got = (psi if name == "psi" else theta)(branch, alpha)
    assert got == pytest.approx(float(_mp_crossover(name, branch, alpha)), rel=1e-14, abs=0)
    assert got == pytest.approx(_scipy_crossover(name, branch, alpha), rel=1e-13, abs=0)
