"""Special functions for the transition-time formulas, on the stdlib alone.

Everything here is scalar double precision. The two crossover families are

    psi(+, a)  = sqrt(a(1+a)/(8 pi)) exp(a^2/16) K_{1/4}(a^2/16)
    psi(-, a)  = sqrt(pi a(1+a)/32) exp(-a^2/64) [I_{-1/4} + I_{1/4}](a^2/64)
    theta(+, a) = sqrt(pi/2) (1+a) exp(a^2/8) Phi(-a/2)
    theta(-, a) = sqrt(pi/2) Phi(a/2)

All four are defined on finite a >= 0, are bounded between positive
constants, share the value at a = 0, and tend to (1, 2, 1, sqrt(pi/2))
respectively as a -> +infinity.

psi(+-) are the Laplace integrals of the pitchfork normal form (the
degenerate-saddle integral of Berglund & Gentz, Markov Process. Related
Fields 16 (2010) 549):

    psi(+, a) = (2/sqrt pi) sqrt(1+a) int_0^inf exp(-2u^4 - a u^2) du
    psi(-, a) = (2/sqrt pi) sqrt(1+a) int_0^inf exp(-2(u^2 - a/8)^2) du.

The integrands are entire, so the trapezoid rule converges geometrically,
and the exponential factors of the Bessel forms never appear.  Below
a = 26 sqrt 2 the nodes are u = j/16 from 0.  From there on psi(-)'s
integrand is below e^-42.25 at u = 0, and t = sqrt(a) u for psi(+),
t = sqrt(a) (u - sqrt(a/8)) for psi(-), give

    psi(+, a) = (2/sqrt pi) sqrt(1 + 1/a) int_0^inf exp(-t^2 (1 + 2 (t/a)^2)) dt
    psi(-, a) = (2/sqrt pi) sqrt(1 + 1/a) int_{-a/sqrt 8}^inf exp(-t^2 (1 + sqrt(2) t/a)^2) dt

on the nodes t = j/4, where every exponent keeps full precision however
large a is.  sqrt(pi)/2 is taken as the rule's own value of int_0^inf
e^{-t^2} dt (the same within e^{-16 pi^2}), so once 1/a is below the
rounding the limits 1 and 2 come out exactly.  Against 40-digit mpmath both
stay within 4.5e-16 relative on a = 0, 1, ..., 1000, on [0, 80) in steps of
0.01 and on geometric points in [1e-8, 1e10].

theta(+) is erfcx(z) = e^{z^2} erfc(z), z = a/(2 sqrt 2), with z^2 split so
that the exponential keeps full precision, below z = 10 and Laplace's
continued fraction above; theta(-) takes Phi(a/2) = 1 - erfc(z)/2 from
math.erfc.
"""

from __future__ import annotations

import math

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)
GAMMA_QUARTER = math.gamma(0.25)

# shared a -> 0 endpoint values
PSI_AT_ZERO = GAMMA_QUARTER / (2.0**1.25 * SQRT_PI)
THETA_AT_ZERO = math.sqrt(math.pi / 8.0)

_ERFCX_CF_Z = 10.0
_SQRT2 = math.sqrt(2.0)
# psi's trapezoid rule: nodes u = j/16 below _NODE_SWITCH, t = j/4 beyond
_NODE_SWITCH = 26.0 * _SQRT2
_U_STEP = 1.0 / 16.0
_T_STEP = 0.25
_T_NODES = int(6.5 / _T_STEP) + 1   # up to the first node past t = 6.5, exponent 42.25


def _u_nodes(b: float) -> int:
    """The count of nodes u = j/16 from 0 to the first past u^2 = b + 6.5/sqrt 2,
    where the exponent 2 u^2 (u^2 - 2b) or 2 (u^2 - b)^2 passes 42.25."""
    return int(math.sqrt(max(b, 0.0) + 6.5 / _SQRT2) / _U_STEP) + 2


_U2 = [(j * _U_STEP) ** 2 for j in range(_u_nodes(_NODE_SWITCH / 8.0))]   # exact squares
# the rule's int_0^inf e^{-t^2} dt
_GAUSS = _T_STEP * math.fsum([0.5] + [math.exp(-(j * _T_STEP) ** 2)
                                      for j in range(1, _T_NODES + 1)])


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


def _check(name: str, branch: str, alpha: float) -> None:
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"{name} defined on finite alpha >= 0, got {alpha}")
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")


def psi(branch: str, alpha: float) -> float:
    """Crossover function Psi_+ / Psi_- evaluated at finite alpha >= 0.

    branch is "+" or "-".  Continuous at alpha = 0 with the shared value
    Gamma(1/4) / (2^{5/4} sqrt(pi)).  The trapezoid rule of the module
    docstring, over the nodes where the exponent is at most 42.25 and one
    node beyond; math.fsum adds the terms with one rounding.
    """
    _check("psi", branch, alpha)
    exp = math.exp
    if alpha < _NODE_SWITCH:
        b = -0.25 * alpha if branch == "+" else 0.125 * alpha
        u2 = _U2[:_u_nodes(b)]
        terms = ([exp(-2.0 * v * (v - 2.0 * b)) for v in u2] if branch == "+"
                 else [exp(-2.0 * (v - b) * (v - b)) for v in u2])
        terms[0] *= 0.5   # the node u = 0 takes half weight
        return math.sqrt(1.0 + alpha) * _U_STEP * math.fsum(terms) / _GAUSS
    if branch == "+":
        q = 2.0 / (alpha * alpha)   # 0 once alpha^2 overflows
        terms = [exp(-t * t * (1.0 + q * t * t))
                 for t in (j * _T_STEP for j in range(_T_NODES + 1))]
        terms[0] *= 0.5
    else:
        k = _SQRT2 / alpha
        # t (1 + k t) falls to -6.5 at t = -13 / (1 + sqrt(1 - 26 k)), 26 k <= 1 here
        lo = int(13.0 / (1.0 + math.sqrt(1.0 - _NODE_SWITCH / alpha)) / _T_STEP) + 1
        terms = [exp(-v * v) for v in (t * (1.0 + k * t)
                                       for t in (j * _T_STEP for j in range(-lo, _T_NODES + 1)))]
    return math.sqrt(1.0 + 1.0 / alpha) * _T_STEP * math.fsum(terms) / _GAUSS


def theta(branch: str, alpha: float) -> float:
    """Crossover function Theta_+ / Theta_- evaluated at finite alpha >= 0."""
    _check("theta", branch, alpha)
    z = alpha / (2.0 * _SQRT2)
    if branch == "+":
        # (1+alpha) e^{a^2/8} Phi(-a/2) = (1+alpha) erfcx(a/(2 sqrt 2)) / 2
        return math.sqrt(math.pi / 2.0) * (1.0 + alpha) * 0.5 * erfcx(z)
    return math.sqrt(math.pi / 2.0) * (1.0 - 0.5 * math.erfc(z))

