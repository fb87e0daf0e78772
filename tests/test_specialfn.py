import math

import mpmath as mp
import numpy as np
import pytest

from kramers_spde import DomainError, bessel_iv_scaled, bessel_k_scaled, erfcx, psi, theta
from kramers_spde.specialfn import normal_cdf

mp.mp.dps = 40


def _ive_oracle(nu, x):
    return float(mp.besseli(nu, mp.mpf(x)) * mp.exp(-mp.mpf(x)))


def _kve_oracle(nu, x):
    return float(mp.besselk(nu, mp.mpf(x)) * mp.exp(mp.mpf(x)))


def test_bessel_small_x_limits():
    # x^{1/4} I_{-1/4}(x) -> 2^{1/4}/Gamma(3/4) as x -> 0 (leading series term)
    target = 2.0 ** 0.25 / math.gamma(0.75)
    for x in (1e-6, 1e-8):
        val = x ** 0.25 * bessel_iv_scaled(-0.25, x) * math.exp(x)
        assert val == pytest.approx(target, rel=1e-5)
    assert bessel_iv_scaled(0.25, 0.0) == 0.0
    assert bessel_iv_scaled(-0.25, 0.0) == math.inf


def test_bessel_k_large_x_asymptotics():
    # e^x K_{1/4}(x) sqrt(2x/pi) -> 1
    x = 1e3
    assert bessel_k_scaled(0.25, x) * math.sqrt(2 * x / math.pi) == pytest.approx(1.0, abs=1e-3)


def test_bessel_against_series_oracle():
    # high-precision oracle at unit argument (200-term mpmath series)
    assert bessel_iv_scaled(0.25, 1.0) == pytest.approx(_ive_oracle(0.25, 1.0), rel=1e-10)
    assert bessel_iv_scaled(-0.25, 1.0) == pytest.approx(_ive_oracle(-0.25, 1.0), rel=1e-10)
    assert bessel_k_scaled(0.25, 1.0) == pytest.approx(_kve_oracle(0.25, 1.0), rel=1e-10)


def test_bessel_accuracy_dense_grid():
    for x in np.geomspace(1e-6, 1e4, 400):
        x = float(x)
        for nu in (0.25, -0.25):
            assert bessel_iv_scaled(nu, x) == pytest.approx(_ive_oracle(nu, x), rel=1e-12)
        assert bessel_k_scaled(0.25, x) == pytest.approx(_kve_oracle(0.25, x), rel=1e-12)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_iv_scaled(0.25, -1.0)
    with pytest.raises(DomainError):
        bessel_k_scaled(0.25, -0.5)
    with pytest.raises(DomainError):
        bessel_iv_scaled(0.5, 1.0)


def test_erfcx_against_oracle():
    for x in np.geomspace(1e-4, 500.0, 60):
        ref = float(mp.exp(mp.mpf(float(x)) ** 2) * mp.erfc(mp.mpf(float(x))))
        assert erfcx(float(x)) == pytest.approx(ref, rel=1e-12)
    assert erfcx(0.0) == 1.0


def test_normal_cdf():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(float(mp.ncdf(1)), rel=1e-14)


def test_psi_endpoint_value():
    # shared limit Gamma(1/4) / (2^{5/4} sqrt(pi)); frozen high-precision value
    ref = 0.8600399873245196  # mpmath: gamma(1/4)/(2**1.25*sqrt(pi))
    assert abs(float(mp.gamma(0.25) / (2 ** mp.mpf(1.25) * mp.sqrt(mp.pi))) - ref) < 1e-15
    assert psi("+", 0.0) == pytest.approx(ref, abs=1e-12)
    assert psi("-", 0.0) == pytest.approx(ref, abs=1e-12)
    # continuity through the Bessel branches on both sides
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
    # asymptotics I_nu(x) ~ e^x/sqrt(2 pi x), K_nu(x) ~ sqrt(pi/2x) e^{-x}
    for a in (200.0, 400.0):
        assert psi("+", a) == pytest.approx(1.0, abs=3.0 / a)
        assert psi("-", a) == pytest.approx(2.0, abs=6.0 / a)
    assert psi("+", 400.0) - 1.0 < psi("+", 200.0) - 1.0


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
    for fn in (lambda: psi("+", -0.1), lambda: theta("-", -1e-9)):
        with pytest.raises(DomainError):
            fn()
    with pytest.raises(ValueError):
        psi("x", 1.0)
