"""Special functions for the transition-time formulas, on numpy and the stdlib.

Everything here is scalar double precision. The two crossover families are

    psi(+, a)  = sqrt(a(1+a)/(8 pi)) exp(a^2/16) K_{1/4}(a^2/16)
    psi(-, a)  = sqrt(pi a(1+a)/32) exp(-a^2/64) [I_{-1/4} + I_{1/4}](a^2/64)
    theta(+, a) = sqrt(pi/2) (1+a) exp(a^2/8) Phi(-a/2)
    theta(-, a) = sqrt(pi/2) Phi(a/2)

evaluated through scaled kernels so the exponential factors cancel
analytically and nothing overflows: e^x K_{1/4}(x), e^{-x} I_{+-1/4}(x) and
erfcx(z) = e^{z^2} erfc(z); theta(-) takes Phi(a/2) = 1 - erfc(a/(2 sqrt 2))/2
from math.erfc.  All four are defined on a >= 0, are bounded between
positive constants, share the value at a = 0, and tend to
(1, 2, 1, sqrt(pi/2)) respectively as a -> +infinity.

The Bessel kernels sum the power series of I_{+-1/4} for x <= 1, where every
near-regime prediction of a sweep lies (K_{1/4} = (pi/sqrt 2)(I_{-1/4} -
I_{1/4}) loses at most a factor of ten there), and beyond it apply the
trapezoid rule to two integrals whose integrands decay like Gaussians and are
entire, so the rule converges geometrically:

    e^x K_{1/4}(x) = int_0^inf exp(-2x sinh^2(t/2)) cosh(t/4) dt
    e^{-x} [I_{-1/4} + I_{1/4}](x) = (4/pi) c^{-1/2} int_0^inf exp(-(y^2 - c)^2) dy,
                                     c = sqrt(2x).

erfcx is exp(z^2) erfc(z), with z^2 split so that the exponential keeps full
precision, below z = 10 and Laplace's continued fraction above.  Against
40-digit mpmath all three stay within 2.3e-15 relative on [1e-6, 2e4]
(scipy.special's kve and ive, which these replace, reach 6.7e-14 and
3.7e-14).

_hurwitz_zeta is the Cephes algorithm of scipy.special.zeta, operation for
operation, for the d = infinity tail of kramers; it returns scipy's bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)
GAMMA_QUARTER = math.gamma(0.25)

# shared a -> 0 endpoint values
PSI_AT_ZERO = GAMMA_QUARTER / (2.0**1.25 * SQRT_PI)
THETA_AT_ZERO = math.sqrt(math.pi / 8.0)

_SERIES_X = 1.0   # power series up to here, trapezoid rules beyond
_ERFCX_CF_Z = 10.0
_K_PER_I = math.pi / math.sqrt(2.0)   # K_{1/4} = _K_PER_I (I_{-1/4} - I_{1/4})


def _series_coefficients(nu: float, gamma: float) -> list[float]:
    """1/(k! Gamma(k + nu + 1)) for k < 10, from gamma = Gamma(nu + 1).

    Ten terms of the series in y = x^2/4 reach below 2^-60 of its sum for
    x <= 1.
    """
    c = [1.0 / gamma]
    for k in range(1, 10):
        c.append(c[-1] / (k * (k + nu)))
    return c


# Gamma(3/4) and Gamma(5/4) correctly rounded (math.gamma is an ulp or two off),
# coefficient pairs highest first for Horner's rule
_SERIES = tuple(reversed(list(zip(_series_coefficients(-0.25, 1.2254167024651776),
                                  _series_coefficients(0.25, 0.906402477055477)))))


def _iv_series(x: float) -> tuple[float, float]:
    """(I_{-1/4}(x), I_{1/4}(x)) for 0 < x <= _SERIES_X by their power series."""
    y = 0.25 * x * x
    minus = plus = 0.0
    for cm, cp in _SERIES:
        minus = minus * y + cm
        plus = plus * y + cp
    half = 0.5 * x
    return half ** -0.25 * minus, half ** 0.25 * plus


def _kve_nodes(h: float) -> tuple[np.ndarray, np.ndarray]:
    """2 sinh^2(t/2) and the trapezoid weights cosh(t/4) (halved at t = 0) on
    the 20 nodes t = 0, h, 2h, ...: the exponent passes 42 by the last node
    for every x > 1 at h = min(0.25, 0.5/sqrt(x))."""
    t = h * np.arange(20)
    s = np.sinh(0.5 * t)
    weights = np.cosh(0.25 * t)
    weights[0] = 0.5
    return 2.0 * s * s, weights


_KVE_NODES = _kve_nodes(0.25)   # the nodes of 1 < x <= 4


def _kve_trapezoid(x: float) -> float:
    """e^x K_{1/4}(x) for x > 1 by the trapezoid rule on its integral over t.

    The step 0.25 (0.5/sqrt(x) once narrower) keeps the rule's geometric
    error below 2^-53.
    """
    h = min(0.25, 0.5 / math.sqrt(x))
    exponent, weights = _KVE_NODES if h == 0.25 else _kve_nodes(h)
    return h * float(np.exp(-x * exponent) @ weights)


def _iv_pair_trapezoid(x: float) -> float:
    """e^{-x} (I_{-1/4} + I_{1/4})(x) for x > 0 by the trapezoid rule on the
    Gaussian-quartic integral, over the nodes where exp(-(y^2 - c)^2) > e^-42.

    The step is a power of two, at most 0.12 and 0.25/sqrt(c).  For c < 6.5
    the nodes are y = jh from 0, so y^2 is exact and y^2 - c is rounded
    once; beyond, the integrand is below e^-42 at y = 0 and the nodes are
    y = sqrt(c) + s around the peak, with y^2 - c = s (2 sqrt(c) + s): the
    exponent keeps full precision however large c is.
    """
    c = math.sqrt(2.0 * x)
    root = math.sqrt(c)
    h = 2.0 ** math.floor(math.log2(min(0.12, 0.25 / root)))
    if c < 6.5:
        y = h * np.arange(int(math.sqrt(c + 6.5) / h) + 2)
        v = y * y - c
        f = np.exp(-v * v)
        total = float(f.sum()) - 0.5 * float(f[0])
    else:
        s = h * np.arange(math.floor(-6.5 / (math.sqrt(c - 6.5) + root) / h),
                          int(6.5 / (math.sqrt(c + 6.5) + root) / h) + 2)
        v = s * (2.0 * root + s)
        total = float(np.exp(-v * v).sum())
    return 4.0 / math.pi * h * total / root


def _iv_pair_scaled(x: float) -> float:
    """e^{-x} (I_{-1/4} + I_{1/4})(x) for x > 0."""
    if x <= _SERIES_X:
        minus, plus = _iv_series(x)
        return math.exp(-x) * (minus + plus)
    return _iv_pair_trapezoid(x)


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0."""
    if x < 0.0:
        raise DomainError(f"erfcx defined here for x >= 0, got {x}")
    if x < _ERFCX_CF_Z:
        # x^2 = xh^2 + (x - xh)(x + xh) with xh^2 exact: exp keeps every bit
        xh = math.floor(x * 4096.0) / 4096.0
        return math.exp(xh * xh) * math.exp((x - xh) * (x + xh)) * math.erfc(x)
    # sqrt(pi) erfcx(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))), 20 levels
    f = x
    for k in range(20, 0, -1):
        f = x + 0.5 * k / f
    return 1.0 / (SQRT_PI * f)


def bessel_iv_scaled(nu: float, x: float) -> float:
    """Scaled modified Bessel function e^{-x} I_nu(x) for nu = +-1/4, x >= 0."""
    if x < 0.0:
        raise DomainError(f"bessel_iv_scaled requires x >= 0, got {x}")
    if abs(abs(nu) - 0.25) > 1e-12:
        raise DomainError(f"only nu = +-1/4 supported, got {nu}")
    if x == 0.0:
        # I_{-1/4} ~ x^{-1/4} diverges
        return math.inf if nu < 0.0 else 0.0
    if x <= _SERIES_X:
        minus, plus = _iv_series(x)
        return math.exp(-x) * (minus if nu < 0.0 else plus)
    # I_{-1/4} - I_{1/4} = K_{1/4} / _K_PER_I, below e^{-2x} of the pair here
    half_gap = 0.5 * math.exp(-2.0 * x) * _kve_trapezoid(x) / _K_PER_I
    return 0.5 * _iv_pair_trapezoid(x) + (half_gap if nu < 0.0 else -half_gap)


def bessel_k_scaled(nu: float, x: float) -> float:
    """Scaled modified Bessel function e^{x} K_{1/4}(x) for x > 0."""
    if x < 0.0:
        raise DomainError(f"bessel_k_scaled requires x >= 0, got {x}")
    if abs(nu - 0.25) > 1e-12:
        raise DomainError(f"only nu = 1/4 supported, got {nu}")
    if x == 0.0:
        return math.inf
    if x <= _SERIES_X:
        minus, plus = _iv_series(x)
        return math.exp(x) * _K_PER_I * (minus - plus)
    return _kve_trapezoid(x)


def psi(branch: str, alpha: float) -> float:
    """Crossover function Psi_+ / Psi_- evaluated at alpha >= 0.

    branch is "+" or "-".  Continuous at alpha = 0 with the shared value
    Gamma(1/4) / (2^{5/4} sqrt(pi)).
    """
    if alpha < 0.0:
        raise DomainError(f"psi defined on alpha >= 0, got {alpha}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    if alpha < 1e-150:
        # psi = PSI_AT_ZERO (1 + O(alpha)), the same double below here, where
        # alpha^2/16 would leave the normal range
        return PSI_AT_ZERO
    if alpha > 1e150:
        # psi = (1 or 2) (1 + O(1/alpha)), the same double above here, where
        # alpha^2 would overflow
        return 1.0 if branch == "+" else 2.0
    if branch == "+":
        x = alpha * alpha / 16.0
        return math.sqrt(alpha * (1.0 + alpha) / (8.0 * math.pi)) * bessel_k_scaled(0.25, x)
    x = alpha * alpha / 64.0
    return math.sqrt(math.pi * alpha * (1.0 + alpha) / 32.0) * _iv_pair_scaled(x)


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


_MACHEP = 1.11022302462515654042e-16   # Cephes' MACHEP, 2^-53
# Euler-Maclaurin divisors (2k)!/B_2k of the Cephes zeta, as Cephes writes them
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (k + q)^{-x} for x > 1, q > 0.

    Cephes' zeta(x, q), the one scipy.special.zeta runs, step for step: past
    q = 1e8 the two-term asymptotic form, else the terms up to (q + n)^{-x}
    with n >= 9 and q + n > 9 directly, then Euler-Maclaurin, each part
    stopping once a term falls below MACHEP of the sum.  Python's float **
    is the C library's pow, as in Cephes, so the result has the same bits.
    """
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for divisor in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / divisor
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s
