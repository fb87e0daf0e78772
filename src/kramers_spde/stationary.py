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
orbit (T(E*) = L, requiring L > 2 pi).  Profiles are integrated with RK4 from
(u2(E*), 0), which fixes the phase conventions u(0) = u2 (Neumann) and
"minimum at x = 0" (periodic, one representative of the translation family).

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


@cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, pi]: n/64 panels of 64 nodes.

    Returns (nodes, weights, cos(nodes)).  Fixed panel order keeps
    construction linear in n (a single high-order rule would cost O(n^3) to
    build) while retaining spectral accuracy per panel for the analytic
    integrands used here.
    """
    m = max(1, n // _GL_PANEL)
    x, w = np.polynomial.legendre.leggauss(_GL_PANEL)
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
    """f_E(phi) at the nodes of each rule n in ns: -U(f) = E cos^2 phi.

    One vectorized bisection on the monotone brackets [u2, 0] and [0, u3]
    (_ORBIT_HALVINGS halvings, then _ORBIT_POLISHES Newton polishes) runs
    over the rules' concatenated nodes.  The counts are fixed and the
    arithmetic is elementwise, so each node gets the same bits whichever
    rules it is solved with.
    """
    rules = [_gl_nodes(n) for n in ns]
    phi = np.concatenate([r[0] for r in rules])
    target = E * np.concatenate([r[2] for r in rules]) ** 2
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
    splits = np.cumsum([len(r[0]) for r in rules])[:-1]
    return dict(zip(ns, np.split(f, splits)))


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


def _rk4_profile(pot: LocalPotential, u0: float, L: float, n: int):
    h = float(L) / n
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    u[0], v[0] = u0, 0.0
    ui, vi = u0, 0.0
    d1 = pot._deriv_scalar[1]
    for i in range(n):
        k1u = vi;               k1v = horner(d1, ui)
        k2u = vi + 0.5 * h * k1v; k2v = horner(d1, ui + 0.5 * h * k1u)
        k3u = vi + 0.5 * h * k2v; k3v = horner(d1, ui + 0.5 * h * k2u)
        k4u = vi + h * k3v;       k4v = horner(d1, ui + h * k3u)
        ui += h / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        vi += h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        u[i + 1], v[i + 1] = ui, vi
    return u, v


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
    then Newton using dT/dE, and integrates u'' = U'(u) from (u2(E*), 0)
    with RK4.  The bracket periods at 1e-13 E0 and E0 (1 - 2^-j) are
    computed once per potential (_bracket_period).  Every other energy gets
    one root solve: its turning points once, and the orbit nodes once for T
    and T' together.  Newton narrows the bracket by the sign of each
    T - target, bisects it when a step leaves it, and stops on a small step
    or on T within 4 ulps of the target; NotMonotone if 40 steps do not
    converge.  QuadratureNotConverged names bc and L when L is so long that
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
    u, v = _rk4_profile(pot, u2, L, n_samples)
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
