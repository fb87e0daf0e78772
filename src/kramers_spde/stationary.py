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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import simpson

from .errors import EnergyOutOfRange, NoInstanton, NotMonotone, QuadratureNotConverged
from .potential import LocalPotential, horner
from .spectral import BoundaryCondition, NEUMANN, PERIODIC

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GL_PANEL = 64


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, pi]: n/64 panels of 64 nodes.

    Fixed panel order keeps construction linear in n (a single high-order
    rule would cost O(n^3) to build) while retaining spectral accuracy per
    panel for the analytic integrands used here.
    """
    if n not in _GL_CACHE:
        m = max(1, n // _GL_PANEL)
        x, w = np.polynomial.legendre.leggauss(_GL_PANEL)
        h = math.pi / m
        starts = h * np.arange(m)[:, None]
        nodes = (starts + 0.5 * h * (x + 1.0)[None, :]).ravel()
        weights = np.tile(0.5 * h * w, m)
        _GL_CACHE[n] = (nodes, weights)
    return _GL_CACHE[n]


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

    def solve(lo: float, hi: float) -> float:
        f = lambda u: horner(d0, u) + E
        a, b = lo, hi
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


def _branch_values(pot: LocalPotential, E: float, phi: np.ndarray,
                   u2: float, u3: float) -> np.ndarray:
    """f_E(phi): solve -U(f) = E cos^2 phi on the monotone brackets, vectorized."""
    target = E * np.cos(phi) ** 2
    lo = np.where(phi < 0.5 * math.pi, u2, 0.0)
    hi = np.where(phi < 0.5 * math.pi, 0.0, u3)
    # -U is decreasing on [u2,0] and increasing on [0,u3]; bisect on sign of (-U - target)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        g = -pot.derivative(mid, 0) - target
        left = phi < 0.5 * math.pi
        go_right = np.where(left, g > 0.0, g < 0.0)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    f = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish, guarded against the U'(0) = 0 point
        du = pot.derivative(f, 1)
        safe = np.abs(du) > 1e-14
        step = np.where(safe, (-pot.derivative(f, 0) - target) / np.where(safe, -du, 1.0), 0.0)
        f = f - step
    return f


def _period_integral(pot: LocalPotential, E: float, n: int, derivative: bool) -> float:
    phi, w = _gl_nodes(n)
    u2, u3 = turning_points(pot, E)
    f = _branch_values(pot, E, phi, u2, u3)
    du = pot.derivative(f, 1)
    c = np.cos(phi)
    if not derivative:
        vals = math.sqrt(2.0 * E) * c / du
    else:
        expr = du ** 2 - 2.0 * pot.derivative(f, 0) * pot.derivative(f, 2)
        vals = expr * c / (math.sqrt(2.0 * E) * du ** 3)
    return 2.0 * float(np.sum(w * vals))


def _doubling(pot: LocalPotential, E: float, derivative: bool,
              n0: int = 128, target: float = 1e-8,
              n_max: int = 8192) -> float:
    prev = _period_integral(pot, E, n0, derivative)
    n = 2 * n0
    while n <= n_max:
        cur = _period_integral(pot, E, n, derivative)
        rel = abs(cur - prev) / max(abs(cur), 1e-300)
        if rel <= target:
            return cur
        prev = cur
        n *= 2
    if rel <= max(1e-6, 10.0 * target):
        return cur
    raise QuadratureNotConverged(
        f"period quadrature not converged at {n_max} nodes (rel change {rel:.2e})")


def period_T(pot: LocalPotential, E: float, n_nodes: int = 128,
             rtol: float = 1e-8) -> float:
    """Orbit period T(E); node doubling validates the requested tolerance."""
    _check_energy(pot, E)
    return _doubling(pot, E, derivative=False, n0=n_nodes, target=rtol)


def dT_dE(pot: LocalPotential, E: float, n_nodes: int = 128,
          rtol: float = 1e-8) -> float:
    """Derivative T'(E); positive whenever the monotonicity condition holds."""
    _check_energy(pot, E)
    return _doubling(pot, E, derivative=True, n0=n_nodes, target=rtol)


@dataclass(frozen=True)
class InstantonProfile:
    """A sampled nonconstant stationary solution (n = 1 kinks)."""

    pot: LocalPotential = field(repr=False)
    bc: BoundaryCondition
    L: float
    E: float
    n_kinks: int
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
        return cls(pot, bc, L, E=0.0, n_kinks=0, x=x, u=u,
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


def instanton(pot: LocalPotential, L: float, bc: BoundaryCondition,
              n_samples: int = 4096) -> InstantonProfile:
    """The n=1 transition-state profile for L above the bifurcation threshold.

    Solves T(E*) = 2L (Neumann half orbit) or T(E*) = L (periodic full orbit)
    by bisection on the monotone period map, refines with Newton using dT/dE,
    then integrates u'' = U'(u) from (u2(E*), 0) with RK4.
    """
    if L <= bc.bifurcation_length:
        raise NoInstanton(f"{bc.value} instantons exist only for "
                          f"L > {bc.bifurcation_length:.6g}, got L = {L}")
    target = 2.0 * L if bc is NEUMANN else L
    E0 = pot.orbit_energy_cap

    lo = 1e-13 * E0
    if period_T(pot, lo) >= target:
        raise NotMonotone("period at the harmonic end already exceeds the target")
    hi = None
    for j in range(1, 46):
        cand = E0 * (1.0 - 0.5 ** j)
        if period_T(pot, cand) > target:
            hi = cand
            break
        lo = cand
    if hi is None:
        raise NotMonotone("could not bracket T(E) = target below E0")

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if period_T(pot, mid) > target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-3 * max(hi, 1e-300):
            break
    E = 0.5 * (lo + hi)
    for _ in range(40):
        step = (period_T(pot, E) - target) / dT_dE(pot, E)
        En = E - step
        if not lo * 0.5 <= En <= min(2.0 * hi, E0 * (1 - 1e-15)):
            En = 0.5 * (lo + hi)  # fall back inside the bracket
        E = En
        if abs(step) <= 1e-10 * E:
            break

    u2, u3 = turning_points(pot, E)
    u, v = _rk4_profile(pot, u2, L, n_samples)
    x = np.linspace(0.0, L, n_samples + 1)
    energy_density = 0.5 * v ** 2 + pot.derivative(u, 0)
    V_value = float(simpson(energy_density, dx=L / n_samples))
    deriv_L2 = math.sqrt(float(simpson(v ** 2, dx=L / n_samples)))
    return InstantonProfile(pot, bc, L, E=E, n_kinks=1, x=x, u=u, du=v,
                            V_value=V_value, deriv_L2=deriv_L2, turning=(u2, u3))


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
