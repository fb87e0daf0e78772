"""Stationary solutions of u'' = U'(u): period function and instantons.

Bounded nonconstant solutions live on level sets of the first integral
H(u, u') = u'^2/2 - U(u).  For 0 < E < E0 = -(U(u_-) v U(u_+)) the orbit
through H = E crosses the u-axis at the turning points u2(E) < 0 < u3(E) and
has period T(E) with lim_{E->0} T = 2 pi and T -> infinity at E0.

T(E) is evaluated by parametrizing the upper half orbit with
u' = sqrt(2E) sin(phi), -U(u) = E cos^2(phi):

    T(E)/2 = X(E) = int_0^pi x'(phi) dphi,  x'(phi) = sqrt(2E) cos(phi) / U'(f_E(phi)),

whose integrand is analytic across phi = pi/2 (value 1 there by U''(0) = -1).
The derivative dT/dE uses the differentiated integrand

    [U'(f)^2 - 2 U(f) U''(f)] cos(phi) / (sqrt(2E) U'(f)^3).

All of the orbit's integrals use one rule, Gauss-Legendre panels graded
toward phi = 0 and pi and certified by the rule one level coarser there
(_orbit_rule, _period_values); its geometry depends on the grading alone
and is built once per level count (_graded_panels).

Instantons: the Neumann transition state traverses the half orbit u2 -> u3
in length L (so T(E*) = 2L, requiring L > pi); the periodic one is a full
orbit (T(E*) = L, requiring L > 2 pi).  instanton_orbit maps the orbit at
E* on the same rule, x(phi) = int_0^phi x'(psi) dpsi at its nodes
(_orbit_map), without samples: every instanton spectrum takes the
curvature's cosine moments from it (InstantonOrbit.cosine_moments).
instanton samples it from (u2(E*), 0) by inverting x(phi) (_orbit_profile):
an InstantonProfile is its orbit plus samples.  This fixes the phase
conventions u(0) = u2 (Neumann) and "minimum at x = 0" (periodic, one
representative of the translation family, the half orbit mirrored).  As u'^2/2 - U = E, the energy
int (u'^2/2 + U) dx is ||u'||^2 - E L.

Root solves: each energy the E* solve visits gets one root solve, that is
its turning points once and the orbit nodes f_E of the rule and its
certificate in one vectorized solve, shared by T and T'.  Both solve
-U(u) = E cos^2 phi in its monotone form -u sqrt(Q(u)) = sqrt(E) cos phi,
Q = -U/u^2 (_sqrt_form), whose roots are simple also at u = 0, and bisect
only until Newton can finish: 4 halvings plus one per factor 4 that E0 - E
falls below E0 (_halvings), then 3 Newton polishes on the sqrt form and a
last one on -U(u) = E cos^2 phi itself.  E* is found by Newton in s =
log(E0 - E), where T is nearly linear, started from the inverse
interpolant of the bracket periods at E0 2^-j and E0 (1 - 2^-j); its
residual T - target is one correctly rounded sum of the period's terms.
The bracket periods, which do not depend on L, are computed once per
potential (a functools.lru_cache keyed on the potential itself).  The
roots are passed explicitly, so a public period_T or dT_dE call always
solves its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EnergyOutOfRange, NoInstanton, NotMonotone, QuadratureNotConverged
from .potential import LocalPotential, horner, horner_into
from .spectral import BoundaryCondition, NEUMANN, PERIODIC

_GL_PANEL = 64
# Root solves of the sqrt form bisect _HALVINGS times (more near E0, see
# _halvings), which starts Newton close enough that _POLISHES steps on the
# sqrt form and a last one on -U(u) = E cos^2 phi itself reach the root's
# last bits (the sqrt form's own residual is about 3 times noisier near the
# turning points).
_HALVINGS, _POLISHES = 4, 3
# instanton's bracket energies, in units of E0 above 1e-13 E0: halving E
# toward the harmonic end and E0 - E toward E0
_RUNGS = tuple(0.5 ** j for j in range(5, 1, -1)) + tuple(1.0 - 0.5 ** j for j in range(1, 46))
_RTOL = 1e-8  # _period_values: largest relative change one level coarser at the ends
_WINDOW, _BLOCK = 12, 512  # _sample_phases: interpolation nodes, samples per block
_PHASE_NEWTONS, _U_POLISHES = 2, 2  # Newton steps per sample: phi, then u
_MOMENT_BLOCK = 16  # InstantonOrbit.cosine_moments: m = _MOMENT_BLOCK q + r
_MOMENT_SPAN = 48.0  # ... and the largest m (panel width in x) / X it sums on a panel


def _check_energy(pot: LocalPotential, E: float) -> float:
    E0 = pot.orbit_energy_cap
    if not 0.0 < E < E0:
        raise EnergyOutOfRange(f"need 0 < E < E0 = {E0}, got E = {E}")
    return E0


def _sqrt_form(pot: LocalPotential) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Descending Horner tables of Q(u) = -U(u)/u^2 and Q'(u).

    Q is a polynomial (U(0) = U'(0) = 0) and positive on [u_-, u_+], so
    -U(u) = E cos^2 phi on the half orbit is -u sqrt(Q(u)) = sqrt(E) cos phi,
    whose left side decreases on [u_-, u_+]: one root for every phi in
    [0, pi], the turning points at phi = 0 and pi, and a simple root at
    u = 0 (phi = pi/2), where -U(u) = E cos^2 phi has a double one.
    """
    Q = tuple(-c for c in pot.coefficients[:1:-1])
    return Q, tuple(c * k for c, k in zip(Q, range(len(Q) - 1, 0, -1)))


def _halvings(E: float, E0: float) -> int:
    """Bisection halvings before Newton can finish a root of the sqrt form.

    Near E0 the turning points approach a well's minimum, where the form's
    slope vanishes like sqrt(E0 - E); Newton's reach shrinks with it, so
    one more halving per factor 4 in E0 - E.
    """
    return _HALVINGS + math.ceil(0.5 * math.log2(E0 / (E0 - E)))


def turning_points(pot: LocalPotential, E: float) -> tuple[float, float]:
    """Inner roots u2 < 0 < u3 of U(u) = -E: the roots of -u sqrt(Q(u)) =
    +-sqrt(E) on [u_-, u_+] (_sqrt_form), by _halvings bisection halvings
    and _POLISHES Newton steps, and a last Newton step on U(u) + E."""
    E0 = _check_energy(pot, E)
    E = float(E)
    Q, dQ = _sqrt_form(pot)
    d0, d1 = pot._deriv_scalar[0], pot._deriv_scalar[1]
    halvings = _halvings(E, E0)

    def solve(c: float) -> float:
        # g(u) = u sqrt(Q(u)) + c increases: the root lies below u where g(u) > 0
        u, w = 0.5 * (pot.u_minus + pot.u_plus), 0.25 * (pot.u_plus - pot.u_minus)
        for _ in range(halvings):
            u -= math.copysign(w, u * math.sqrt(horner(Q, u)) + c)
            w *= 0.5
        for _ in range(_POLISHES):
            q = horner(Q, u)
            root_q = math.sqrt(q)
            u -= 2.0 * (u * root_q + c) * root_q / (2.0 * q + u * horner(dQ, u))
        return u - (horner(d0, u) + E) / horner(d1, u)

    return solve(math.sqrt(E)), solve(-math.sqrt(E))


def _orbit_roots(pot: LocalPotential, E: float, turning: tuple[float, float],
                 cos_phi: np.ndarray) -> np.ndarray:
    """f_E(phi) on the half orbit: the root in [u2, u3] of -u sqrt(Q(u)) =
    sqrt(E) cos phi (_sqrt_form), that is -U(f) = E cos^2 phi with f in
    [u2, 0] for phi < pi/2 and in [0, u3] above.

    One vectorized bisection on [u2, u3] (_halvings halvings), then
    _POLISHES Newton polishes, and a last one on -U(f) = E cos^2 phi itself
    (no node lies at pi/2, so U'(f) != 0).  The counts depend on E alone
    and the arithmetic is elementwise, so each node gets the same bits
    whichever nodes it is solved with.
    """
    Q, dQ = _sqrt_form(pot)
    c = math.sqrt(E) * cos_phi
    u2, u3 = turning
    u, w = np.full_like(c, 0.5 * (u2 + u3)), 0.25 * (u3 - u2)
    g = np.empty_like(c)
    for _ in range(_halvings(E, pot.orbit_energy_cap)):
        # g = u sqrt(Q(u)) + c increases: the root lies below u where g > 0
        np.sqrt(horner_into(Q, u, g), out=g)
        g *= u
        g += c
        u -= np.copysign(w, g, out=g)
        w *= 0.5
    _polish(Q, dQ, c, u, _POLISHES)
    u -= (pot.derivative(u, 0) + E * cos_phi ** 2) / pot.derivative(u, 1)
    return u


def _polish(Q: tuple[float, ...], dQ: tuple[float, ...], c: np.ndarray, u: np.ndarray,
            steps: int) -> None:
    """steps Newton steps on u sqrt(Q(u)) + c = 0, in place on u."""
    q, slope, step = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    for _ in range(steps):
        # h = u sqrt(Q) + c, h' = (2Q + u Q') / (2 sqrt(Q)): u -= h / h'
        horner_into(dQ, u, slope)
        slope *= u
        slope += 2.0 * horner_into(Q, u, q)
        np.sqrt(q, out=q)
        np.multiply(u, q, out=step)
        step += c
        step *= q
        step *= 2.0
        step /= slope
        u -= step


@lru_cache(maxsize=64)
def _slope_numerator(pot: LocalPotential) -> tuple[float, ...]:
    """Descending Horner table of U'^2 - 2 U U'', the numerator of dT/dE's
    integrand.  Its u^2 terms cancel exactly; formed from U', U and U'' at
    the nodes instead, it would keep only eps / f^2 of its value, too little
    for the certificate once E < 1e-11."""
    P = np.polynomial.polynomial
    U = np.asarray(pot.coefficients)
    dU = P.polyder(U)
    return tuple(float(c) for c in P.polysub(P.polymul(dU, dU),
                                             2.0 * P.polymul(U, P.polyder(U, 2)))[::-1])


_ENDS = 2 * _GL_PANEL  # nodes of the certificate's two panels, last in _orbit_rule


@cache
def _graded_panels(levels: int, split: int = 1) -> tuple[np.ndarray, ...]:
    """Panel starts, half widths, nodes phi, cos(phi) and weights of the
    graded rule with levels (_orbit_rule), each panel cut into split equal
    ones, read-only: they depend on (levels, split) alone, so each rule is
    built once."""
    edges = np.concatenate([[0.0], 0.5 * math.pi * 0.5 ** np.arange(levels, -1, -1)])
    start = np.concatenate([edges[:-1], math.pi - edges[:0:-1], [0.0, math.pi - edges[2]]])
    end = np.concatenate([edges[1:], math.pi - edges[-2::-1], [edges[2], math.pi]])
    half = 0.5 * (end - start) / split
    start = (start[:, None] + 2.0 * half[:, None] * np.arange(split)).ravel()
    half = np.repeat(half, split)
    t, w = _panel_tables()[:2]
    phi = (start[:, None] + half[:, None] * (t + 1.0)).ravel()
    panels = (start, half, phi, np.cos(phi), (half[:, None] * w).ravel())
    for a in panels:
        a.flags.writeable = False
    return panels


def _orbit_rule(pot: LocalPotential, E: float, turning: tuple[float, float],
                certificate: bool = True, split: int = 1) -> tuple[np.ndarray, ...]:
    """Graded Gauss-Legendre panels on [0, pi] for the orbit at E, each cut
    into split equal ones: panel starts, half widths, nodes phi, cos(phi),
    weights (_graded_panels), and f_E at the nodes from one _orbit_roots
    solve.

    The integrands' nearest complex singularity lies about sqrt((E0 - E)/E)
    from phi = 0 or pi.  The panel edges are 0, pi/2^(levels+1), ..., pi/4,
    pi/2 and their mirrors about pi/2, so the innermost panels are no wider
    than that.  The certificate's panels [0, pi/2^levels] and its mirror
    come last: in place of the two innermost panels at each end, they make
    the rule one level coarser (_period_values).  Without certificate they
    are left out, and so are their roots; each node's root has the same
    bits either way.
    """
    E0 = pot.orbit_energy_cap
    levels = max(1, math.ceil(math.log2(0.5 * math.pi * math.sqrt(E / (E0 - E)))) + 1)
    start, half, phi, cos_phi, weights = _graded_panels(levels, split)
    if not certificate:
        start, half = start[:-2 * split], half[:-2 * split]
        nodes = slice(-_ENDS * split)
        phi, cos_phi, weights = phi[nodes], cos_phi[nodes], weights[nodes]
    return start, half, phi, cos_phi, weights, _orbit_roots(pot, E, turning, cos_phi)


def _orbit_integrand(pot: LocalPotential, E: float, f: np.ndarray, cos_phi: np.ndarray,
                     derivative: bool) -> np.ndarray:
    """x'(phi), the integrand of T(E)/2 (derivative False), or that of
    T'(E)/2 (True), at nodes phi with orbit nodes f.

    x'(phi) = sqrt(2E) cos phi / U'(f) is evaluated as -sqrt(2 Q(f)) /
    R(f), R = U'/u, by -f sqrt(Q(f)) = sqrt(E) cos phi: each term rounds on
    its own, where one rounding of a common factor sqrt(2E) would shift
    them all alike (up to 0.4 ulp of T, 10 ulps of E* at E = 0.06).
    """
    if derivative:
        du = pot.derivative(f, 1)
        vals = horner_into(_slope_numerator(pot), f, np.empty_like(f))
        vals *= cos_phi
        vals /= math.sqrt(2.0 * E) * du ** 2 * du  # not ** 3: libm pow
    else:
        vals = np.sqrt(2.0 * horner_into(_sqrt_form(pot)[0], f, np.empty_like(f)))
        vals /= horner_into(pot._deriv_scalar[1][:-1], f, np.empty_like(f))
        np.negative(vals, out=vals)
    return vals


def _period_values(pot: LocalPotential, E: float, turning: tuple[float, float],
                   derivatives: tuple[bool, ...], target: float = 0.0) -> list[float]:
    """T(E) - target (derivative False) or T'(E) (True) for each entry, on
    the graded rule (_orbit_rule).

    All of them share its root solve.  Each is certified by the rule one
    level coarser at each end, which differs from it only on the
    certificate's panels: QuadratureNotConverged if that changes the value
    by more than _RTOL relative.  T' sums with np.sum; T - target is one
    correctly rounded math.fsum of T's terms and -target: T itself to its
    last bit, and for the E* solve a residual finer than T's own ulp.
    """
    _, _, _, cos_phi, weights, f = _orbit_rule(pot, E, turning)
    values = []
    for derivative in derivatives:
        terms = _orbit_integrand(pot, E, f, cos_phi, derivative)
        terms *= weights
        terms *= 2.0
        fine = terms[:-_ENDS]
        total = float(np.sum(fine))
        change = (float(np.sum(terms[-_ENDS:])) - float(np.sum(fine[:_ENDS]))
                  - float(np.sum(fine[-_ENDS:])))
        rel = abs(change) / max(abs(total), 1e-300)
        if rel > _RTOL:
            raise QuadratureNotConverged(
                f"period quadrature not certified at E = {E!r}: one level coarser at the "
                f"ends, {'dT/dE' if derivative else 'T'} changes by {rel:.2e} relative")
        values.append(total if derivative else math.fsum([*fine.tolist(), -target]))
    return values


def period_T(pot: LocalPotential, E: float) -> float:
    """Orbit period T(E) on the graded rule, certified to 1e-8 relative by
    the rule one level coarser at each end."""
    return _period_values(pot, E, turning_points(pot, E), (False,))[0]


def dT_dE(pot: LocalPotential, E: float) -> float:
    """Derivative T'(E); positive whenever the monotonicity condition holds."""
    return _period_values(pot, E, turning_points(pot, E), (True,))[0]


@lru_cache(maxsize=512)
def _bracket_period(pot: LocalPotential, E: float) -> float:
    """period_T(pot, E) at one of instanton's bracket energies.

    Those energies, 1e-13 E0 and the _RUNGS E0 2^-j and E0 (1 - 2^-j), do
    not depend on L, so the last 512 values are kept: a sweep over L
    brackets once per potential.
    """
    return period_T(pot, E)


@cache
def _panel_tables() -> tuple[np.ndarray, ...]:
    """The _GL_PANEL-node Gauss-Legendre panel on [-1, 1]: nodes t, weights,
    the integration matrix S (S @ y holds int_{-1}^{t_i} of the interpolant
    of y at t_i), and for every window of _WINDOW consecutive nodes its
    nodes and barycentric weights, scaled to a largest magnitude of 1."""
    t, w = np.polynomial.legendre.leggauss(_GL_PANEL)
    P = np.polynomial.legendre.legvander(t, _GL_PANEL)
    # y = sum c_k P_k with c_k = (2k+1)/2 sum_j w_j P_k(t_j) y_j, and
    # int_{-1}^t P_k = (P_{k+1} - P_{k-1}) / (2k+1), t + 1 for k = 0
    A = np.column_stack([0.5 * (t + 1.0), 0.5 * (P[:, 2:] - P[:, :-2])])
    S = np.einsum("ik,jk,j->ij", A, P[:, :_GL_PANEL], w)
    T = sliding_window_view(t, _WINDOW)
    diff = T[:, :, None] - T[:, None, :]
    diff[:, np.arange(_WINDOW), np.arange(_WINDOW)] = 1.0
    bary = 1.0 / diff.prod(axis=2)
    return t, w, S, T, bary / np.abs(bary).max(axis=1, keepdims=True)


class _OrbitMap(NamedTuple):
    """The half orbit u2 -> u3 at E on the graded rule without its
    certificate's panels (_orbit_rule): panel starts and half widths, nodes
    phi, weights, f_E and x'(phi) at the nodes, x(phi) at the nodes, the
    half orbit's length X, int u'^2 dx over it and its widest panel in x."""

    start: np.ndarray
    half: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    f: np.ndarray
    g: np.ndarray
    x: np.ndarray
    X: float
    deriv_sq: float
    widest: float


def _orbit_map(pot: LocalPotential, E: float, turning: tuple[float, float],
               split: int = 1) -> _OrbitMap:
    """x(phi) = int_0^phi x'(psi) dpsi on the half orbit u2 -> u3, at the
    nodes of the graded rule (_orbit_rule, each panel cut into split),
    from each panel's integration matrix; the half orbit's own length X =
    x(pi) = T(E)/2, one correctly rounded sum; and int u'^2 dx = int 2E
    sin^2 phi x'(phi) dphi over it.  Its arrays are read-only."""
    start, half, phi, cos_phi, weights, f = _orbit_rule(pot, E, turning, certificate=False,
                                                        split=split)
    g = _orbit_integrand(pot, E, f, cos_phi, False)
    weighted = g * weights
    X = math.fsum(weighted.tolist())
    weighted *= np.sin(phi) ** 2
    deriv_sq = 2.0 * E * float(np.sum(weighted))
    _, w, S, _, _ = _panel_tables()
    g = g.reshape(len(start), -1)
    # einsum, not BLAS: the small-matrix kernels would add to the resident set
    panel = half * np.einsum("pj,j->p", g, w)
    x = np.einsum("pj,ij->pi", g, S) * half[:, None]
    x += np.concatenate([[0.0], np.cumsum(panel[:-1])])[:, None]
    for v in (f, g, x):
        v.flags.writeable = False
    return _OrbitMap(start, half, phi, weights, f, g.ravel(), x.ravel(), X, deriv_sq,
                     float(panel.max()))


@dataclass(frozen=True, eq=False)
class InstantonOrbit:
    """The n=1 transition state as its orbit H = E*, without samples.

    V_value = int (u'^2/2 + U) dx and deriv_L2 = ||u'||; rule holds x(phi)
    and f_E on the graded rule (_orbit_map), from which cosine_moments
    gives the curvature's cosine moments.  It compares and hashes by
    identity: field-wise equality would compare the rule's arrays.
    """

    pot: LocalPotential = field(repr=False)
    bc: BoundaryCondition
    L: float
    E: float
    turning: tuple[float, float]
    V_value: float
    deriv_L2: float
    rule: _OrbitMap = field(repr=False)

    def cosine_moments(self, count: int) -> np.ndarray:
        """c_m = int_0^X U''(u*(x)) cos(m pi x / X) dx for m < count, on the
        half orbit's length X (L for Neumann, L/2 periodic).

        The sum over the rule's nodes of w x'(phi) U''(f_E) cos(m theta),
        theta = pi x / X, with cos(m theta) = Re z^(16 q) z^r for m = 16 q + r
        and z = e^(i theta), the powers by doubling (_powers): one np.cos per
        node and m would cost about 15 times as much.  A 64-node panel
        resolves cos(m theta) only while m (its width in x) / X stays below
        about 54, so for larger counts the orbit is mapped again with each
        panel cut into ceil(count widest / (48 X)) (_orbit_map).  Each c_m
        has the same bits whatever the count, as long as that cut stays 1.
        """
        rule = self.rule
        split = math.ceil(count * rule.widest / (_MOMENT_SPAN * rule.X))
        if split > 1:
            rule = _orbit_map(self.pot, self.E, self.turning, split)
        theta = (math.pi / rule.X) * rule.x
        low = _powers(np.exp(1j * theta), _MOMENT_BLOCK)
        low *= self._curvature_weights(rule)
        high = _powers(np.exp((1j * _MOMENT_BLOCK) * theta), -(-count // _MOMENT_BLOCK))
        np.conjugate(high, out=high)
        # Re(a z^r z^16q) as a real dot product of (re, im) pairs; einsum, not BLAS
        return np.einsum("rj,qj->qr", low.view(float), high.view(float)).ravel()[:count]

    @property
    def mean_curvature(self) -> float:
        """The mean of U''(u*) over the domain, c_0 / X (cosine_moments)."""
        return math.fsum(self._curvature_weights(self.rule).tolist()) / self.rule.X

    def _curvature_weights(self, rule: _OrbitMap) -> np.ndarray:
        """w x'(phi) U''(f_E) at the rule's nodes: c_0 = int_0^X U''(u*) dx is their sum."""
        return rule.weights * rule.g * self.pot.derivative(rule.f, 2)


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """Rows w^0, ..., w^(count - 1): rows k..2k-1 are rows 0..k-1 times w^k,
    k a power of 2 squared from w, so row j is within about j roundings."""
    p = np.empty((count, len(w)), complex)
    p[0] = 1.0
    k = 1
    while k < count:
        np.multiply(p[: min(k, count - k)], w, out=p[k : 2 * k])
        w = w * w
        k *= 2
    return p


@dataclass(frozen=True, eq=False)
class InstantonProfile(InstantonOrbit):
    """An instanton's orbit sampled at n_samples + 1 equispaced points x,
    with u and u' there (instanton).  Every other field is the orbit's, so
    a profile is its orbit wherever one is read, and it compares and hashes
    by identity as the orbit does."""

    x: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    du: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("x", "u", "du"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self) -> int:
        return len(self.x) - 1

    def reflected(self) -> "InstantonProfile":
        """The mirror solution x -> u(L - x) (the second Neumann instanton)."""
        return replace(self, u=self.u[::-1].copy(), du=-self.du[::-1])

    def translated(self, phi: float) -> "InstantonProfile":
        """Representative u(. + phi) of the periodic translation family."""
        if self.bc is not PERIODIC:
            raise ValueError("translation family exists only for periodic b.c.")
        n = self.n_samples
        shift = int(round(phi / self.L * n)) % n
        u = np.roll(self.u[:n], -shift)
        du = np.roll(self.du[:n], -shift)
        return replace(self, u=np.append(u, u[0]), du=np.append(du, du[0]))

    def residual_sup(self) -> float:
        """sup |u'' - U'(u)| via second differences of the samples."""
        h = self.L / self.n_samples
        if self.bc is PERIODIC:
            um = np.roll(self.u[:-1], 1)
            up = np.roll(self.u[:-1], -1)
            d2 = (um - 2.0 * self.u[:-1] + up) / h ** 2
            res = d2 - self.pot.derivative(self.u[:-1], 1)
        else:
            d2 = (self.u[:-2] - 2.0 * self.u[1:-1] + self.u[2:]) / h ** 2
            res = d2 - self.pot.derivative(self.u[1:-1], 1)
        return float(np.abs(res).max())

    def first_integral_variation(self) -> float:
        """sup variation of u'^2/2 - U(u) along the profile."""
        H = 0.5 * self.du ** 2 - self.pot.derivative(self.u, 0)
        return float(H.max() - H.min())


def _orbit_profile(orbit: InstantonOrbit, n: int) -> tuple[np.ndarray, np.ndarray]:
    """u and u' at n + 1 equispaced samples of the orbit from (u2, 0).

    The half orbit's length X (_orbit_map), the same sum as T(E)/2 (L for
    Neumann, L/2 periodic, to the accuracy of E*), is split into n or n/2
    equal steps, so both its ends are the turning points with u' = 0
    exactly.  A sample's phi is Newton's root of x(phi) = j X / (n or n/2)
    (_sample_phases).  Its u solves -u sqrt(Q(u)) = sqrt(E) cos phi, that is
    -sign(u) sqrt(-U(u)) = sqrt(E) cos phi with the polynomial Q(u) =
    -U(u)/u^2 > 0 (U(0) = U'(0) = 0), a simple root also at u = 0, by Newton
    from the interpolated node values.  A periodic profile is the half orbit
    mirrored about x = L/2.
    """
    E, turning, rule = orbit.E, orbit.turning, orbit.rule
    span = n if orbit.bc is NEUMANN else 0.5 * n  # sample steps on the half orbit
    m = int(span)  # samples 0..m lie on the half orbit
    end = m == span  # sample m is the turning point u3
    u, du = np.empty(n + 1), np.empty(n + 1)
    u[0], du[0] = turning[0], 0.0
    if end:
        u[m], du[m] = turning[1], 0.0
    inner = slice(1, m if end else m + 1)
    ui, ph = u[inner], du[inner]
    _sample_phases(rule, rule.X / span, ph, ui)
    c = np.cos(ph)
    c *= math.sqrt(E)
    _polish(*_sqrt_form(orbit.pot), c, ui, _U_POLISHES)
    np.sin(ph, out=ph)
    ph *= math.sqrt(2.0 * E)
    if orbit.bc is PERIODIC:
        u[m + 1:] = u[n - m - 1::-1]
        np.negative(du[n - m - 1::-1], out=du[m + 1:])
    return u, du


def _sample_phases(rule: _OrbitMap, step: float, ph: np.ndarray, u: np.ndarray) -> None:
    """Write into ph[i] the phi with x(phi) = (i + 1) step, and into u[i]
    f_E there, from x, its integrand g and f_E at the rule's nodes.

    Each sample is interpolated from the _WINDOW nodes of its panel nearest
    its linear-interpolation start, by the barycentric formula in the
    panel's own coordinate tau; _PHASE_NEWTONS Newton steps in tau follow.
    Samples go in blocks of _BLOCK, and r holds tau - t_k or the weights
    w_k / (tau - t_k) in turn, so the (block, _WINDOW) arrays stay small.
    """
    t, _, _, windows, bary = _panel_tables()
    start, half = rule.start, rule.half
    x_table = np.concatenate([[0.0], rule.x, [rule.X]])
    phi_table = np.concatenate([[0.0], rule.phi, [math.pi]])
    xw, gw, fw = (sliding_window_view(v, _WINDOW) for v in (rule.x, rule.g, rule.f))
    for b in range(0, len(ph), _BLOCK):
        target = np.arange(b + 1, b + 1 + len(ph[b:b + _BLOCK])) * step
        tau = np.interp(target, x_table, phi_table)
        p = np.searchsorted(start, tau, side="right") - 1
        tau -= start[p]
        tau /= half[p]
        tau -= 1.0
        first = np.searchsorted(t, tau) - _WINDOW // 2
        np.minimum(np.maximum(first, 0, out=first), _GL_PANEL - _WINDOW, out=first)
        rows = _GL_PANEL * p + first
        wk, xk, gk = bary[first], xw[rows], gw[rows]
        r = np.subtract(tau[:, None], windows[first])
        for newton in range(_PHASE_NEWTONS + 1):
            r[r == 0.0] = 1e-200  # on a node: that node's weight dominates
            np.divide(wk, r, out=r)
            if newton == _PHASE_NEWTONS:
                break
            dtau = ((np.einsum("ij,ij->i", r, xk) - target * r.sum(axis=1))
                    / (half[p] * np.einsum("ij,ij->i", r, gk)))
            tau -= dtau
            np.divide(wk, r, out=r)
            r -= dtau[:, None]
        del xk, gk  # before the f_E gather: at most four block arrays at once
        u[b:b + _BLOCK] = np.einsum("ij,ij->i", r, fw[rows]) / r.sum(axis=1)
        ph[b:b + _BLOCK] = start[p] + half[p] * (tau + 1.0)


def instanton_orbit(pot: LocalPotential, L: float, bc: BoundaryCondition) -> InstantonOrbit:
    """The n=1 transition state's orbit for L above the bifurcation threshold.

    Solves T(E*) = 2L (Neumann half orbit) or T(E*) = L (periodic full orbit)
    by Newton in s = log(E0 - E) inside the bracket of the monotone period
    map, and maps the orbit at E* from (u2(E*), 0) on the graded rule
    (_orbit_map), which also gives ||u'||^2: deriv_L2 = ||u'|| and V_value =
    ||u'||^2 - E* L.  The bracket periods at 1e-13 E0, E0 2^-j (j = 5..2)
    and E0 (1 - 2^-j) are computed once per potential (_bracket_period);
    Newton starts from the inverse interpolant of the last six of them in s.
    Every other energy gets one root solve: its turning points once, and
    the orbit nodes once for T and T' together.  Newton narrows the bracket
    by the sign of each T - target, bisects it when a step leaves it, and
    stops on a step of at most 1e-10 E or on T within 4 ulps of the target;
    NotMonotone if 40 steps do not converge.  QuadratureNotConverged names
    bc and L when L is so long that T(E) is needed closer to E0 than the
    period rule certifies itself (quartic(): first at Neumann L = 17.0 and
    periodic L = 34.0, in steps of 0.02 and 0.05).
    """
    if L <= bc.bifurcation_length:
        raise NoInstanton(f"{bc.value} instantons exist only for "
                          f"L > {bc.bifurcation_length:.6g}, got L = {L}")
    try:
        E, turning = _instanton_energy(pot, L, bc)
    except QuadratureNotConverged as exc:
        raise QuadratureNotConverged(f"{bc.value} L = {L} is too long for the period "
                                     f"quadrature, which fails near E0: {exc}") from exc
    rule = _orbit_map(pot, E, turning)
    deriv_sq = rule.deriv_sq * (1.0 if bc is NEUMANN else 2.0)
    # u'^2/2 - U = E along the orbit: int (u'^2/2 + U) dx = ||u'||^2 - E L
    return InstantonOrbit(pot, bc, L, E, turning, V_value=deriv_sq - E * L,
                          deriv_L2=math.sqrt(deriv_sq), rule=rule)


def instanton(pot: LocalPotential, L: float, bc: BoundaryCondition,
              n_samples: int = 4096) -> InstantonProfile:
    """The n=1 transition-state profile for L above the bifurcation threshold:
    its orbit (instanton_orbit), whose fields it keeps, sampled at
    n_samples + 1 equispaced points from (u2(E*), 0) (_orbit_profile)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    orbit = instanton_orbit(pot, L, bc)
    u, du = _orbit_profile(orbit, n_samples)
    return InstantonProfile(**{f.name: getattr(orbit, f.name) for f in fields(InstantonOrbit)},
                            x=np.linspace(0.0, L, n_samples + 1), u=u, du=du)


def _instanton_energy(pot: LocalPotential, L: float,
                      bc: BoundaryCondition) -> tuple[float, tuple[float, float]]:
    """E* with T(E*) = 2L (Neumann) or L (periodic), and its turning points."""
    target = 2.0 * L if bc is NEUMANN else L
    E0 = pot.orbit_energy_cap

    bracket = [(1e-13 * E0, _bracket_period(pot, 1e-13 * E0))]
    if bracket[0][1] >= target:
        raise NotMonotone("period at the harmonic end already exceeds the target")
    for cand in _RUNGS:
        bracket.append((E0 * cand, _bracket_period(pot, E0 * cand)))
        if bracket[-1][1] > target:
            break
    else:
        raise NotMonotone("could not bracket T(E) = target below E0")
    (lo, _), (hi, _) = bracket[-2:]

    # Newton in s = log(E0 - E), where T is nearly linear, started from the
    # inverse interpolant s(T) through the last (up to) six bracket periods
    known = bracket[-6:]
    s = math.fsum(math.log(E0 - Ek) * math.prod((target - Ti) / (Tk - Ti)
                                                for i, (_, Ti) in enumerate(known) if i != k)
                  for k, (Ek, Tk) in enumerate(known))
    E = E0 - math.exp(s)
    if not lo < E < hi:
        E = 0.5 * (lo + hi)
    for _ in range(40):
        solved, turning = E, turning_points(pot, E)
        residual, slope = _period_values(pot, E, turning, (False, True), target)
        if residual > 0.0:
            hi = E
        else:
            lo = E
        # below E ~ 2e-6 the step test is out of reach; T itself then decides
        close = abs(residual) <= 4.0 * math.ulp(target)
        # dT/ds = -(E0 - E) T'; every bracket spans less than 40 in s
        ds = residual / (slope * (E0 - E))
        step = (E0 - E) * math.expm1(ds) if abs(ds) < 40.0 else math.inf
        E = solved - step
        done = close or abs(step) <= 1e-10 * E
        if not lo < E < hi:  # fall back inside the bracket
            E = solved if done else 0.5 * (lo + hi)
        if done:
            break
    else:
        raise NotMonotone(f"Newton solve of T(E) = {target:.17g} did not converge "
                          f"in 40 steps ({bc.value}, L = {L})")

    return E, turning if E == solved else turning_points(pot, E)


def barrier_height(pot: LocalPotential, L: float,
                   bc: BoundaryCondition) -> tuple[float, str]:
    """Communication height H0 from u*_- and the transition-state kind.

    Below the bifurcation threshold the uniform saddle u*_0 carries the
    barrier, H0 = -L U(u_-); above it the instanton does.
    """
    v_minus = L * float(pot.derivative(pot.u_minus, 0))
    if L <= bc.bifurcation_length:
        return -v_minus, "constant"
    return instanton_orbit(pot, L, bc).V_value - v_minus, "instanton"
