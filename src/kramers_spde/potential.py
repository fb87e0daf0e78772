"""Double-well local potentials U and the Galerkin potential energy.

A valid potential is a polynomial of even degree 2*p0 >= 4 with positive
leading coefficient, normalized so that the local maximum sits at u = 0 with
U(0) = 0, U'(0) = 0, U''(0) = -1, and exactly two further critical points
u_minus < 0 < u_plus, both nondegenerate minima.  The canonical example is
quartic(): U = u^4/4 - u^2/2 with minima at -1 and +1.

The potential energy of a truncated field is

    V = 1/2 sum_k nu_k y_k^2  +  int_0^L U(u(x)) dx,

with the integral evaluated by the basis-native quadrature on a grid of at
least 2 p0 (d+1) points, which is exact for polynomial U up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidPotential
from .spectral import (BoundaryCondition, FourierState, TransformPlan, default_grid_size,
                       mode_indices, nu)

_ROOT_IMAG_TOL = 1e-9
_NORMALIZATION_TOL = 1e-9


def horner(coef_desc: tuple[float, ...], u: float) -> float:
    """Scalar polynomial value by Horner's rule over descending coefficients.

    The same y = y*u + c steps, in the same order, as np.polyval, so the
    result is bit-identical to it; on Python floats it is several times faster.
    """
    y = 0.0
    for c in coef_desc:
        y = y * u + c
    return y


def horner_into(coef_desc: tuple[float, ...], x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.polyval(coef_desc, x) written into out, which must not share memory with x.

    The same y = y*x + c steps as np.polyval, by in-place ufuncs, except
    the exact ones: the leading 0*x + c, a product with a leading 1 and a
    sum with 0.0.  For finite x these differ from np.polyval at most in the
    sign of a zero.  For quartic() (U' = u^3 - u) that leaves 3 ufunc calls.
    """
    y = None  # the array holding y, or None while y is the leading coefficient
    for c in coef_desc[1:]:
        if y is not None:
            y = np.multiply(y, x, out=out)
        elif coef_desc[0] != 1.0:
            y = np.multiply(x, coef_desc[0], out=out)
        else:
            y = x
        if c != 0.0:
            y = np.add(y, c, out=out)
    if y is None:
        out.fill(coef_desc[0])
    elif y is not out:
        np.copyto(out, y)
    return out


def _polish_root(dcoef_desc: tuple[float, ...], d2coef_desc: tuple[float, ...],
                 r: float) -> float:
    for _ in range(8):
        f = horner(dcoef_desc, r)
        fp = horner(d2coef_desc, r)
        if fp == 0.0:
            break
        step = f / fp
        r -= step
        if abs(step) <= 1e-16 * max(1.0, abs(r)):
            break
    return r


@dataclass(frozen=True)
class LocalPotential:
    """Normalized polynomial double well; immutable and safe to share.

    Equality and hashing ignore the derivative table, which follows from
    the coefficients, so a potential can key a functools cache.
    """

    coefficients: tuple[float, ...]
    u_minus: float
    u_plus: float
    p0: int
    normalization: tuple[float, float] = (0.0, 1.0)  # (shift, scale) applied to input
    _deriv_scalar: tuple[tuple[float, ...], ...] = field(repr=False, compare=False,
                                                         default=())

    @classmethod
    def from_coefficients(cls, coefficients, normalize: bool = True) -> "LocalPotential":
        """Build a potential from ascending-power coefficients.

        With normalize=True the polynomial is shifted so its unique local
        maximum sits at 0 and rescaled in amplitude so U''(0) = -1 and
        U(0) = 0; the applied (shift, scale) is recorded.
        """
        coef = np.asarray(coefficients, dtype=float)
        if coef.ndim != 1 or len(coef) < 5:
            raise InvalidPotential("need a polynomial of degree >= 4 (>= 5 coefficients)")
        while len(coef) > 1 and coef[-1] == 0.0:
            coef = coef[:-1]
        degree = len(coef) - 1
        if degree < 4 or degree % 2 != 0:
            raise InvalidPotential(f"degree must be even and >= 4, got {degree}")
        if coef[-1] <= 0.0:
            raise InvalidPotential("leading coefficient must be positive (confinement)")

        poly = np.polynomial.Polynomial(coef)
        roots = poly.deriv().roots()
        real = np.sort(np.unique(np.round(
            roots[np.abs(roots.imag) < _ROOT_IMAG_TOL * max(1.0, np.abs(roots).max())].real,
            decimals=11)))
        d2 = poly.deriv(2)
        curv = d2(real)
        maxima = real[curv < 0.0]
        minima = real[curv > 0.0]
        if len(real) != 3 or len(maxima) != 1 or len(minima) != 2:
            raise InvalidPotential(
                f"need exactly one maximum and two minima, found {len(maxima)} maxima "
                f"and {len(minima)} minima among {len(real)} critical points")

        shift, scale = 0.0, 1.0
        if normalize:
            shift = float(maxima[0])
            scale = -1.0 / float(d2(shift))
            shifted = poly(np.polynomial.Polynomial([shift, 1.0]))
            poly = (shifted - shifted(0.0)) * scale
            coef = poly.coef
        if abs(poly(0.0)) > _NORMALIZATION_TOL or abs(poly.deriv()(0.0)) > _NORMALIZATION_TOL \
                or abs(poly.deriv(2)(0.0) + 1.0) > _NORMALIZATION_TOL:
            raise InvalidPotential(
                "potential not normalized: need U(0)=0, U'(0)=0, U''(0)=-1 "
                "(pass normalize=True to rescale)")
        coef = np.array(coef, dtype=float)
        coef[0] = 0.0
        coef[1] = 0.0
        coef[2] = -0.5
        return cls._finish(coef, shift, scale)

    @classmethod
    def _finish(cls, coef: np.ndarray, shift: float, scale: float) -> "LocalPotential":
        # derivative coefficient table, descending powers, orders 0..5
        p = np.polynomial.Polynomial(coef)
        deriv = tuple(tuple(map(float, p.deriv(order).coef[::-1])) for order in range(6))
        roots = p.deriv().roots()
        real = np.sort(roots[np.abs(roots.imag) < _ROOT_IMAG_TOL].real)
        real = np.array([_polish_root(deriv[1], deriv[2], float(r)) for r in real])
        zero_tol = 1e-8 * max(1.0, float(np.abs(real).max()))
        negs = real[real < -zero_tol]
        poss = real[real > zero_tol]
        if len(negs) != 1 or len(poss) != 1:
            raise InvalidPotential("minima must straddle the origin")
        u_minus, u_plus = float(negs[0]), float(poss[0])
        if horner(deriv[2], u_minus) <= 0.0 or horner(deriv[2], u_plus) <= 0.0:
            raise InvalidPotential("outer critical points must be nondegenerate minima")
        return cls(tuple(coef), u_minus, u_plus, p0=(len(coef) - 1) // 2,
                   normalization=(shift, scale), _deriv_scalar=deriv)

    def derivative(self, u, order: int = 0):
        """U^(order)(u) for order in 0..5, exact Horner evaluation.

        A Python int or float or a numpy float u gives a Python float
        (horner), anything else an array (horner_into, plus np.polyval's
        closing + 0.0, which turns a -0.0 into 0.0); both have the bits of
        np.polyval.
        """
        if not 0 <= order <= 5:
            raise ValueError(f"order must be in 0..5, got {order}")
        table = self._deriv_scalar[order]
        if isinstance(u, (float, int)):
            return horner(table, float(u))
        x = np.asarray(u, float)
        out = horner_into(table, x, np.empty_like(x))
        return out if table[-1] else np.add(out, 0.0, out=out)

    @property
    def is_even(self) -> bool:
        """U(-u) = U(u) exactly: every odd-power coefficient is 0.0."""
        return not any(self.coefficients[1::2])

    @cached_property  # in the instance dict, outside equality and hashing
    def orbit_energy_cap(self) -> float:
        """E0 = -(U(u_-) v U(u_+)): bounded orbits exist for 0 < E < E0."""
        return -max(self.derivative(self.u_minus), self.derivative(self.u_plus))


def quartic() -> LocalPotential:
    """The canonical symmetric double well U = u^4/4 - u^2/2."""
    return LocalPotential.from_coefficients([0.0, 0.0, -0.5, 0.0, 0.25], normalize=False)


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the sampled/symbolic assumption checks (never raises)."""

    monotone_period_sufficient: bool   # U'^2 - 2 U U'' > 0 on (u_-,u_+)\{0}
    monotone_period_sufficient_min: float
    period_increasing_at_zero: bool    # U''''(0) > -(5/3) U'''(0)^2
    supercritical: bool                # sign of the bifurcation quartic coefficient


def check_assumptions(pot: LocalPotential) -> AssumptionReport:
    """Sampled check (10^4 points) of the period-monotonicity conditions and bifurcation sign."""
    um, up = pot.u_minus, pot.u_plus
    u = np.linspace(um, up, 10_002)[1:-1]
    u = u[np.abs(u) > 1e-9 * max(-um, up)]
    expr = pot.derivative(u, 1) ** 2 - 2.0 * pot.derivative(u, 0) * pot.derivative(u, 2)
    u3, u4 = float(pot.derivative(0.0, 3)), float(pot.derivative(0.0, 4))
    return AssumptionReport(
        monotone_period_sufficient=bool(np.min(expr) > 0.0),
        monotone_period_sufficient_min=float(np.min(expr)),
        period_increasing_at_zero=u4 > -(5.0 / 3.0) * u3 ** 2,
        supercritical=(u4 + (5.0 / 3.0) * u3 ** 2) > 0.0,
    )


def _quadrature_plan(state: FourierState, pot: LocalPotential, n_quad: int | None) -> TransformPlan:
    n = n_quad if n_quad is not None else default_grid_size(state.d, pot.p0)
    if n < 2 * pot.p0 * (state.d + 1):
        raise ValueError(
            f"quadrature grid {n} < 2 p0 (d+1) = {2 * pot.p0 * (state.d + 1)}; "
            "polynomial energy would alias")
    return TransformPlan(state.bc, state.L, state.d, n)


def energy_V(state: FourierState, pot: LocalPotential, n_quad: int | None = None) -> float:
    """Potential energy V = 1/2 sum nu_k y_k^2 + int U(u(x)) dx."""
    plan = _quadrature_plan(state, pot, n_quad)
    u = plan.synthesize(state.coeffs)
    quad = (state.L / plan.n) * float(np.sum(pot.derivative(u, 0)))
    return 0.5 * float(np.dot(state.mode_nu, state.coeffs ** 2)) + quad


def grad_V(state: FourierState, pot: LocalPotential, n_quad: int | None = None) -> np.ndarray:
    """Coefficient-space gradient: nu_k y_k + (U'(u(.)) projected on e_k)."""
    plan = _quadrature_plan(state, pot, n_quad)
    u = plan.synthesize(state.coeffs)
    return state.mode_nu * state.coeffs + plan.analyze(pot.derivative(u, 1))


def energy_lower_bound_constants(pot: LocalPotential, L: float,
                                 bc: BoundaryCondition) -> tuple[float, float]:
    """(alpha', beta') with V >= beta' ||z||_H1^2 - alpha' (sanity bound).

    Derived from a quadratic minorant U(u) >= beta u^2 - alpha with beta = 1/2
    of the smallest well curvature, alpha from the polynomial minimum of
    U - beta u^2.
    """
    beta = 0.25 * min(pot.derivative(pot.u_minus, 2), pot.derivative(pot.u_plus, 2))
    coef = np.array(pot.coefficients)
    coef[2] -= beta
    diff = np.polynomial.Polynomial(coef)
    crit = diff.deriv().roots()
    crit = crit[np.abs(crit.imag) < 1e-9].real
    alpha = -float(min(diff(crit).min(), 0.0))
    beta_prime = min(0.5 * nu(bc, L, 1), beta)
    return alpha * L, beta_prime


def h1_norm_squared(state: FourierState) -> float:
    """||z||_H1^2 = sum (1 + k^2) |z_k|^2 in the stored real coordinates."""
    k = mode_indices(state.bc, state.d)
    return float(np.sum((1.0 + k ** 2) * state.coeffs ** 2))
