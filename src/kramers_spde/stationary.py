"""Stationary solutions of u'' = U'(u): period function and instantons.

Bounded nonconstant solutions live on level sets of the first integral
H(u, u') = u'^2/2 - U(u).  For 0 < E < E0 = -(U(u_-) v U(u_+)) the orbit
through H = E crosses the u-axis at the turning points u2(E) < 0 < u3(E) and
has period T(E) with lim_{E->0} T = 2 pi and T -> infinity at E0.

T(E) is evaluated by parametrizing the upper half orbit with
u' = sqrt(2E) sin(phi), -U(u) = E cos^2(phi):

    T(E)/2 = int_0^pi sqrt(2E) cos(phi) / U'(f_E(phi)) dphi,

whose integrand is analytic across phi = pi/2 (value 1 there by U''(0) = -1).
The derivative dT/dE uses the differentiated integrand

    [U'(f)^2 - 2 U(f) U''(f)] cos(phi) / (sqrt(2E) U'(f)^3).

Instantons: the Neumann transition state traverses the half orbit u2 -> u3
in length L (so T(E*) = 2L, requiring L > pi); the periodic one is a full
orbit (T(E*) = L, requiring L > 2 pi).  Profiles are sampled from the same
phi-parametrization at E*, starting from (u2(E*), 0): the half orbit's
x(phi) = int_0^phi sqrt(2E) cos psi / U'(f_E(psi)) dpsi is integrated on
Gauss-Legendre panels that halve in width toward phi = 0 and pi, and
inverted at the sample points by Newton (_orbit_profile).  This fixes the
phase conventions u(0) = u2 (Neumann) and "minimum at x = 0" (periodic, one
representative of the translation family, the half orbit mirrored).

Root solves: each energy the E* solve visits gets one root solve, that is
its turning points once and the orbit nodes f_E of the n and 2n node rules
in one vectorized solve, shared by T and T' (a 4n rule only when a
doubling check needs it).  Both root solves bisect only until Newton can
finish: the orbit nodes take 16 halvings, then 4 Newton polishes; E* takes
one bisection step inside its bracket, then Newton on T(E) - target.  The
bracket periods, which do not depend on L, are computed once per potential
(a functools.lru_cache keyed on the potential itself).  The roots are
passed explicitly, so a public period_T or dT_dE call always solves its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EnergyOutOfRange, NoInstanton, NotMonotone, QuadratureNotConverged
from .potential import LocalPotential, horner, horner_into
from .spectral import BoundaryCondition, NEUMANN, PERIODIC

_GL_PANEL = 64
# The orbit nodes bisect _ORBIT_HALVINGS times, which starts Newton close
# enough that _ORBIT_POLISHES steps reach the root's last bits (12 halvings
# do not).
_ORBIT_HALVINGS = 16
_ORBIT_POLISHES = 4
_N0, _RTOL, _N_MAX = 128, 1e-8, 8192  # _doubling: first rule, relative change, last rule
_WINDOW, _BLOCK = 12, 512  # _sample_phases: interpolation nodes, samples per block
_PHASE_NEWTONS, _U_POLISHES = 2, 2  # Newton steps per sample: phi, then u


@cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, pi]: n/64 panels of 64 nodes.

    Returns (nodes, weights, cos(nodes)).  Fixed panel order keeps
    construction linear in n (a single high-order rule would cost O(n^3) to
    build) while retaining spectral accuracy per panel for the analytic
    integrands used here.
    """
    m = max(1, n // _GL_PANEL)
    x, w = _panel_tables()[:2]
    h = math.pi / m
    starts = h * np.arange(m)[:, None]
    nodes = (starts + 0.5 * h * (x + 1.0)[None, :]).ravel()
    weights = np.tile(0.5 * h * w, m)
    return nodes, weights, np.cos(nodes)


def _check_energy(pot: LocalPotential, E: float) -> float:
    E0 = pot.orbit_energy_cap
    if not 0.0 < E < E0:
        raise EnergyOutOfRange(f"need 0 < E < E0 = {E0}, got E = {E}")
    return E0


def turning_points(pot: LocalPotential, E: float) -> tuple[float, float]:
    """Inner roots u2 < 0 < u3 of U(u) = -E, by bracketed bisection + Newton."""
    _check_energy(pot, E)
    E = float(E)
    d0, d1 = pot._deriv_scalar[0], pot._deriv_scalar[1]

    def solve(a: float, b: float) -> float:
        f = lambda u: horner(d0, u) + E
        fa = f(a)
        for _ in range(90):
            m = 0.5 * (a + b)
            fm = f(m)
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        r = 0.5 * (a + b)
        for _ in range(4):
            fp = horner(d1, r)
            if fp == 0.0:
                break
            r -= f(r) / fp
        return r

    return solve(pot.u_minus, 0.0), solve(pot.u_plus, 0.0)


def _orbit_nodes(pot: LocalPotential, E: float, turning: tuple[float, float],
                 ns: tuple[int, ...]) -> dict[int, np.ndarray]:
    """f_E(phi) at the nodes of each rule n in ns, in one _orbit_roots solve
    over the rules' concatenated nodes."""
    rules = [_gl_nodes(n) for n in ns]
    f = _orbit_roots(pot, E, turning, np.concatenate([r[0] for r in rules]),
                     np.concatenate([r[2] for r in rules]))
    splits = np.cumsum([len(r[0]) for r in rules])[:-1]
    return dict(zip(ns, np.split(f, splits)))


def _orbit_roots(pot: LocalPotential, E: float, turning: tuple[float, float],
                 phi: np.ndarray, cos_phi: np.ndarray) -> np.ndarray:
    """f_E(phi) on the half orbit: -U(f) = E cos^2 phi, f in [u2, 0] for
    phi < pi/2 and in [0, u3] above.

    One vectorized bisection on the monotone brackets [u2, 0] and [0, u3]
    (_ORBIT_HALVINGS halvings, then _ORBIT_POLISHES Newton polishes).  The
    counts are fixed and the arithmetic is elementwise, so each node gets
    the same bits whichever nodes it is solved with.
    """
    target = E * cos_phi ** 2
    left = phi < 0.5 * math.pi
    lo = np.where(left, turning[0], 0.0)
    hi = np.where(left, 0.0, turning[1])
    # -U is decreasing on [u2,0] and increasing on [0,u3], so the root lies
    # above mid where (U(mid) + target) * side > 0, side = -1 left, +1 right
    side = np.where(left, -1.0, 1.0)
    mid, g = np.empty_like(phi), np.empty_like(phi)
    go_right, go_left = np.empty(len(phi), bool), np.empty(len(phi), bool)
    d0 = pot._deriv_scalar[0]
    for _ in range(_ORBIT_HALVINGS):
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        np.add(horner_into(d0, mid, g), target, out=g)
        np.greater(np.multiply(g, side, out=g), 0.0, out=go_right)
        np.logical_not(go_right, out=go_left)
        np.copyto(lo, mid, where=go_right)
        np.copyto(hi, mid, where=go_left)
    f = 0.5 * (lo + hi)
    for _ in range(_ORBIT_POLISHES):  # guarded against the U'(0) = 0 point
        du = pot.derivative(f, 1)
        safe = np.abs(du) > 1e-14
        step = np.where(safe, (-pot.derivative(f, 0) - target) / np.where(safe, -du, 1.0), 0.0)
        f = f - step
    return f


def _period_integral(pot: LocalPotential, E: float, n: int, f: np.ndarray,
                     derivative: bool) -> float:
    _, w, c = _gl_nodes(n)
    du = pot.derivative(f, 1)
    if not derivative:
        vals = math.sqrt(2.0 * E) * c / du
    else:
        expr = du ** 2 - 2.0 * pot.derivative(f, 0) * pot.derivative(f, 2)
        vals = expr * c / (math.sqrt(2.0 * E) * du ** 3)
    return 2.0 * float(np.sum(w * vals))


def _doubling(pot: LocalPotential, E: float, turning: tuple[float, float],
              derivatives: tuple[bool, ...]) -> list[float]:
    """T(E) (derivative False) or T'(E) (True) for each entry, by node doubling.

    All of them share the orbit nodes at this E: the _N0 and 2 _N0 rules are
    solved together, a finer rule only when a doubling check needs it.
    """
    nodes = _orbit_nodes(pot, E, turning, (_N0, 2 * _N0))
    values = []
    for derivative in derivatives:
        prev = _period_integral(pot, E, _N0, nodes[_N0], derivative)
        n = 2 * _N0
        while n <= _N_MAX:
            if n not in nodes:
                nodes.update(_orbit_nodes(pot, E, turning, (n,)))
            cur = _period_integral(pot, E, n, nodes[n], derivative)
            rel = abs(cur - prev) / max(abs(cur), 1e-300)
            if rel <= _RTOL:
                break
            prev = cur
            n *= 2
        else:
            if rel > 1e-6:  # a rule short of _RTOL but within 1e-6 is kept
                raise QuadratureNotConverged(
                    f"period quadrature not converged at {_N_MAX} nodes "
                    f"(rel change {rel:.2e})")
        values.append(cur)
    return values


def period_T(pot: LocalPotential, E: float) -> float:
    """Orbit period T(E), to 1e-8 relative as validated by node doubling."""
    return _doubling(pot, E, turning_points(pot, E), (False,))[0]


def dT_dE(pot: LocalPotential, E: float) -> float:
    """Derivative T'(E); positive whenever the monotonicity condition holds."""
    return _doubling(pot, E, turning_points(pot, E), (True,))[0]


@lru_cache(maxsize=512)
def _bracket_period(pot: LocalPotential, E: float) -> float:
    """period_T(pot, E) at one of instanton's bracket energies.

    Those energies, 1e-13 E0 and E0 (1 - 2^-j), do not depend on L, so the
    last 512 values are kept: a sweep over L brackets once per potential.
    """
    return period_T(pot, E)


@dataclass(frozen=True)
class InstantonProfile:
    """A sampled nonconstant stationary solution (n = 1 kinks)."""

    pot: LocalPotential = field(repr=False)
    bc: BoundaryCondition
    L: float
    E: float
    x: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    du: np.ndarray = field(repr=False)
    V_value: float
    deriv_L2: float
    turning: tuple[float, float]

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

    @classmethod
    def constant(cls, value: float, pot: LocalPotential, bc: BoundaryCondition,
                 L: float, n_samples: int = 4096) -> "InstantonProfile":
        x = np.linspace(0.0, L, n_samples + 1)
        u = np.full(n_samples + 1, float(value))
        return cls(pot, bc, L, E=0.0, x=x, u=u,
                   du=np.zeros(n_samples + 1),
                   V_value=L * float(pot.derivative(value, 0)),
                   deriv_L2=0.0, turning=(value, value))


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


def _graded_panels(levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels on [0, pi] whose widths halve toward both ends: the edges
    0, pi/2^(levels+1), ..., pi/4, pi/2 and their mirrors about pi/2.
    Returns (panel starts, half widths, nodes)."""
    edges = np.concatenate([[0.0], 0.5 * math.pi * 0.5 ** np.arange(levels, -1, -1)])
    start = np.concatenate([edges[:-1], math.pi - edges[:0:-1]])
    half = 0.5 * np.diff(np.concatenate([start, [math.pi]]))
    return start, half, (start[:, None] + half[:, None] * (_panel_tables()[0] + 1.0)).ravel()


def _orbit_profile(pot: LocalPotential, E: float, turning: tuple[float, float],
                   bc: BoundaryCondition, n: int) -> tuple[np.ndarray, np.ndarray]:
    """u and u' at n + 1 equispaced samples of the orbit H = E from (u2, 0).

    With u' = sqrt(2E) sin phi and -U(u) = E cos^2 phi, the half orbit
    u2 -> u3 has x(phi) = int_0^phi sqrt(2E) cos psi / U'(f_E(psi)) dpsi.
    Its nodes on the graded panels are one _orbit_roots solve; x at the
    nodes comes from each panel's integration matrix.  The half orbit's own
    length X = x(pi) (L for Neumann, L/2 periodic, to the accuracy of E*)
    is split into n or n/2 equal steps, so both its ends are the turning
    points with u' = 0 exactly.  A sample's phi is Newton's root of x(phi)
    = j X / (n or n/2) (_sample_phases).  Its u solves -u sqrt(Q(u)) =
    sqrt(E) cos phi, that is -sign(u) sqrt(-U(u)) = sqrt(E) cos phi with
    the polynomial Q(u) = -U(u)/u^2 > 0 (U(0) = U'(0) = 0), a simple root
    also at u = 0, by Newton from the interpolated node values.  A periodic
    profile is the half orbit mirrored about x = L/2.
    """
    E0 = pot.orbit_energy_cap
    # the integrand's nearest complex singularity lies about sqrt((E0 - E)/E)
    # from phi = 0 or pi; the innermost panels are no wider than that
    levels = max(1, math.ceil(math.log2(0.5 * math.pi * math.sqrt(E / (E0 - E)))) + 1)
    start, half, phi = _graded_panels(levels)
    _, w, S, _, _ = _panel_tables()
    cos_phi = np.cos(phi)
    f = _orbit_roots(pot, E, turning, phi, cos_phi)
    g = (math.sqrt(2.0 * E) * cos_phi / pot.derivative(f, 1)).reshape(len(start), -1)
    # einsum, not BLAS: the small-matrix kernels would add to the resident set
    panel = half * np.einsum("pj,j->p", g, w)
    x = np.einsum("pj,ij->pi", g, S) * half[:, None]
    x += np.concatenate([[0.0], np.cumsum(panel[:-1])])[:, None]
    X = float(np.sum(panel))
    span = n if bc is NEUMANN else 0.5 * n  # sample steps on the half orbit
    m = int(span)  # samples 0..m lie on the half orbit
    end = m == span  # sample m is the turning point u3
    u, du = np.empty(n + 1), np.empty(n + 1)
    u[0], du[0] = turning[0], 0.0
    if end:
        u[m], du[m] = turning[1], 0.0
    inner = slice(1, m if end else m + 1)
    ui, ph = u[inner], du[inner]
    _sample_phases(X / span, start, half, phi, x.ravel(), X, g.ravel(), f, ph, ui)
    Q = tuple(-c for c in pot.coefficients[:1:-1])  # descending, like horner's tables
    dQ = tuple(c * k for c, k in zip(Q, range(len(Q) - 1, 0, -1)))
    c = np.cos(ph)
    c *= math.sqrt(E)
    q, slope, step = np.empty_like(ui), np.empty_like(ui), np.empty_like(ui)
    for _ in range(_U_POLISHES):
        # h = -u sqrt(Q) - c, h' = -(2Q + u Q') / (2 sqrt(Q)): u -= h / h'
        horner_into(dQ, ui, slope)
        slope *= ui
        slope += 2.0 * horner_into(Q, ui, q)
        np.sqrt(q, out=q)
        np.multiply(ui, q, out=step)
        step += c
        step *= q
        step *= 2.0
        step /= slope
        ui -= step
    np.sin(ph, out=ph)
    ph *= math.sqrt(2.0 * E)
    if bc is PERIODIC:
        u[m + 1:] = u[n - m - 1::-1]
        np.negative(du[n - m - 1::-1], out=du[m + 1:])
    return u, du


def _sample_phases(step: float, start: np.ndarray, half: np.ndarray, phi: np.ndarray,
                   x: np.ndarray, X: float, g: np.ndarray, f: np.ndarray,
                   ph: np.ndarray, u: np.ndarray) -> None:
    """Write into ph[i] the phi with x(phi) = (i + 1) step, and into u[i]
    f_E there, from x, its integrand g and f_E at the graded panels' nodes.

    Each sample is interpolated from the _WINDOW nodes of its panel nearest
    its linear-interpolation start, by the barycentric formula in the
    panel's own coordinate tau; _PHASE_NEWTONS Newton steps in tau follow.
    Samples go in blocks of _BLOCK, and r holds tau - t_k or the weights
    w_k / (tau - t_k) in turn, so the (block, _WINDOW) arrays stay small.
    """
    t, _, _, windows, bary = _panel_tables()
    x_table = np.concatenate([[0.0], x, [X]])
    phi_table = np.concatenate([[0.0], phi, [math.pi]])
    xw, gw, fw = (sliding_window_view(v, _WINDOW) for v in (x, g, f))
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


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson on equispaced samples, bit for bit scipy's simpson
    (whose last-interval correction closes an even count)."""
    z = y if len(y) % 2 else y[:-1]
    r = np.sum(z[0:-2:2] + 4.0 * z[1:-1:2] + z[2::2]) * (dx / 3.0)
    if not len(y) % 2:
        r += ((2 * dx ** 2 + 3 * dx * dx) / (6 * (dx + dx)) * y[-1]
              + (dx ** 2 + 3.0 * dx * dx) / (6 * dx) * y[-2]
              - dx ** 3 / (6 * dx * (dx + dx)) * y[-3])
    return float(r)


def instanton(pot: LocalPotential, L: float, bc: BoundaryCondition,
              n_samples: int = 4096) -> InstantonProfile:
    """The n=1 transition-state profile for L above the bifurcation threshold.

    Solves T(E*) = 2L (Neumann half orbit) or T(E*) = L (periodic full orbit)
    by one bisection step inside the bracket of the monotone period map,
    then Newton using dT/dE, and samples the orbit at E* from (u2(E*), 0)
    through its phi-parametrization (_orbit_profile).  The bracket periods
    at 1e-13 E0 and E0 (1 - 2^-j) are computed once per potential
    (_bracket_period).  Every other energy gets one root solve: its turning
    points once, and the orbit nodes once for T and T' together.  Newton
    narrows the bracket by the sign of each T - target, bisects it when a
    step leaves it, and stops on a small step or on T within 4 ulps of the
    target; NotMonotone if 40 steps do not converge.  QuadratureNotConverged names bc and L when L is so long that
    T(E) is needed closer to E0 than the period quadrature converges
    (quartic(): periodic L > 28.2, Neumann L > 14.1).
    """
    if L <= bc.bifurcation_length:
        raise NoInstanton(f"{bc.value} instantons exist only for "
                          f"L > {bc.bifurcation_length:.6g}, got L = {L}")
    try:
        E, (u2, u3) = _instanton_energy(pot, L, bc)
    except QuadratureNotConverged as exc:
        raise QuadratureNotConverged(f"{bc.value} L = {L} is too long for the period "
                                     f"quadrature, which fails near E0: {exc}") from exc
    u, v = _orbit_profile(pot, E, (u2, u3), bc, n_samples)
    x = np.linspace(0.0, L, n_samples + 1)
    energy_density = 0.5 * v ** 2 + pot.derivative(u, 0)
    V_value = _simpson(energy_density, L / n_samples)
    deriv_L2 = math.sqrt(_simpson(v ** 2, L / n_samples))
    return InstantonProfile(pot, bc, L, E=E, x=x, u=u, du=v,
                            V_value=V_value, deriv_L2=deriv_L2, turning=(u2, u3))


def _instanton_energy(pot: LocalPotential, L: float,
                      bc: BoundaryCondition) -> tuple[float, tuple[float, float]]:
    """E* with T(E*) = 2L (Neumann) or L (periodic), and its turning points."""
    target = 2.0 * L if bc is NEUMANN else L
    E0 = pot.orbit_energy_cap

    lo = 1e-13 * E0
    if _bracket_period(pot, lo) >= target:
        raise NotMonotone("period at the harmonic end already exceeds the target")
    hi = None
    for j in range(1, 46):
        cand = E0 * (1.0 - 0.5 ** j)
        if _bracket_period(pot, cand) > target:
            hi = cand
            break
        lo = cand
    if hi is None:
        raise NotMonotone("could not bracket T(E) = target below E0")

    # one bisection step; Newton, kept inside the bracket, does the rest
    mid = 0.5 * (lo + hi)
    if period_T(pot, mid) > target:
        hi = mid
    else:
        lo = mid
    E = 0.5 * (lo + hi)
    for _ in range(40):
        solved, turning = E, turning_points(pot, E)
        T, slope = _doubling(pot, E, turning, (False, True))
        if T > target:
            hi = min(hi, E)
        else:
            lo = max(lo, E)
        # below E ~ 2e-6 the step test is out of reach; T itself then decides
        close = abs(T - target) <= 4.0 * math.ulp(target)
        step = (T - target) / slope
        E -= step
        if not lo * 0.5 <= E <= min(2.0 * hi, E0 * (1 - 1e-15)):
            E = solved if close else 0.5 * (lo + hi)  # fall back inside the bracket
        if close or abs(step) <= 1e-10 * E:
            break
    else:
        raise NotMonotone(f"Newton solve of T(E) = {target:.17g} did not converge "
                          f"in 40 steps ({bc.value}, L = {L})")

    # a zero last step (about one solve in five) leaves E at the solved energy
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
    prof = instanton(pot, L, bc)
    return prof.V_value - v_minus, "instanton"
