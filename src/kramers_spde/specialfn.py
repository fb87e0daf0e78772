"""Special functions for the near-bifurcation transition-time formulas.

Everything here is scalar double precision. The two crossover families are

    psi(+, a)  = sqrt(a(1+a)/(8 pi)) exp(a^2/16) K_{1/4}(a^2/16)
    psi(-, a)  = sqrt(pi a(1+a)/32) exp(-a^2/64) [I_{-1/4} + I_{1/4}](a^2/64)
    theta(+, a) = sqrt(pi/2) (1+a) exp(a^2/8) Phi(-a/2)
    theta(-, a) = sqrt(pi/2) Phi(a/2)

evaluated through scaled Bessel / scaled-erfc kernels so the exponential
factors cancel analytically and nothing overflows: scipy.special.kve for
e^x K_{1/4}(x), ive for e^{-x} I_{+-1/4}(x), erfcx for e^{x^2} erfc(x), and
ndtr for Phi.  All four are defined on a >= 0, are bounded between positive
constants, share the value at a = 0, and tend to (1, 2, 1, sqrt(pi/2))
respectively as a -> +infinity.
"""

from __future__ import annotations

import math

from scipy import special

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)
GAMMA_QUARTER = math.gamma(0.25)

# shared a -> 0 endpoint values
PSI_AT_ZERO = GAMMA_QUARTER / (2.0**1.25 * SQRT_PI)
THETA_AT_ZERO = math.sqrt(math.pi / 8.0)


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0."""
    if x < 0.0:
        raise DomainError(f"erfcx defined here for x >= 0, got {x}")
    return float(special.erfcx(x))


def normal_cdf(y: float) -> float:
    """Standard Gaussian distribution function Phi(y)."""
    return float(special.ndtr(y))


def bessel_iv_scaled(nu: float, x: float) -> float:
    """Scaled modified Bessel function e^{-x} I_nu(x) for nu = +-1/4, x >= 0."""
    if x < 0.0:
        raise DomainError(f"bessel_iv_scaled requires x >= 0, got {x}")
    if abs(abs(nu) - 0.25) > 1e-12:
        raise DomainError(f"only nu = +-1/4 supported, got {nu}")
    if x == 0.0:
        # I_{-1/4} ~ x^{-1/4} diverges; scipy returns nan there
        return math.inf if nu < 0.0 else 0.0
    return float(special.ive(nu, x))


def bessel_k_scaled(nu: float, x: float) -> float:
    """Scaled modified Bessel function e^{x} K_{1/4}(x) for x > 0."""
    if x < 0.0:
        raise DomainError(f"bessel_k_scaled requires x >= 0, got {x}")
    if abs(nu - 0.25) > 1e-12:
        raise DomainError(f"only nu = 1/4 supported, got {nu}")
    return float(special.kve(nu, x))


def psi(branch: str, alpha: float) -> float:
    """Crossover function Psi_+ / Psi_- evaluated at alpha >= 0.

    branch is "+" or "-".  Continuous at alpha = 0 with the shared value
    Gamma(1/4) / (2^{5/4} sqrt(pi)).
    """
    if alpha < 0.0:
        raise DomainError(f"psi defined on alpha >= 0, got {alpha}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    if alpha == 0.0:
        return PSI_AT_ZERO
    if branch == "+":
        x = alpha * alpha / 16.0
        return math.sqrt(alpha * (1.0 + alpha) / (8.0 * math.pi)) * bessel_k_scaled(0.25, x)
    x = alpha * alpha / 64.0
    pair = bessel_iv_scaled(-0.25, x) + bessel_iv_scaled(0.25, x)
    return math.sqrt(math.pi * alpha * (1.0 + alpha) / 32.0) * pair


def theta(branch: str, alpha: float) -> float:
    """Crossover function Theta_+ / Theta_- evaluated at alpha >= 0."""
    if alpha < 0.0:
        raise DomainError(f"theta defined on alpha >= 0, got {alpha}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    z = alpha / (2.0 * math.sqrt(2.0))
    if branch == "+":
        # (1+alpha) e^{a^2/8} Phi(-a/2) = (1+alpha) erfcx(a/(2 sqrt 2)) / 2
        return math.sqrt(math.pi / 2.0) * (1.0 + alpha) * 0.5 * erfcx(z)
    return math.sqrt(math.pi / 2.0) * (1.0 - 0.5 * math.erfc(z))
