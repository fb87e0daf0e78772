"""Sturm-Liouville spectra of the linearization and eigenvalue-ratio products.

The linearization at a profile u0 is Q[u0] = Laplacian - U''(u0(.)); we report
the eigenvalues of -Q (so minima have all-positive spectra, the uniform
saddle has lambda_0 = -1, and transition states have exactly one negative
eigenvalue, plus one zero mode in the periodic case from translation
symmetry).

Constant profiles have closed-form spectra.  Instanton profiles are
discretized with second-order central differences (midpoint grid with ghost
reflection for Neumann, cyclic wrap for periodic) on the profile's own
samples: every 4th and every 2nd of its n_samples points (N/4 and N/2 grid
points), followed by one Richardson extrapolation step in h^2.

Products of eigenvalue ratios (truncated functional determinants) are summed
in log space with compensated summation and sign tracking; for the constant
spectra the d -> infinity limits have sin/sinh closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from .errors import OutOfRegime, ResolutionTooLow, ZeroDenominator
from .potential import LocalPotential
from .spectral import BoundaryCondition, NEUMANN, PERIODIC
from .stationary import InstantonProfile

_ZERO_MODE_FACTOR = 1e-6


@dataclass(frozen=True)
class SpectrumReport:
    """Ascending eigenvalues of -Q[u0] with their sign counts and kmax."""

    bc: BoundaryCondition
    L: float
    profile: str
    eigenvalues: np.ndarray = field(repr=False)
    negative_count: int
    zero_modes: int
    kmax: int

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)


def _classify(ev: np.ndarray) -> tuple[int, int]:
    positives = ev[ev > _ZERO_MODE_FACTOR]
    scale = _ZERO_MODE_FACTOR * max(1.0, positives[0] if len(positives) else 1.0)
    zero = int(np.sum(np.abs(ev) <= scale))
    neg = int(np.sum(ev < -scale))
    return neg, zero


def eigs_constant(pot: LocalPotential, L: float, bc: BoundaryCondition,
                  which: str, kmax: int) -> SpectrumReport:
    """Closed-form spectrum at a constant stationary profile.

    which: "origin" (lambda_k = nu_k - 1), "minus" or "plus"
    (nu_k + U''(u_well)).  Periodic modes k >= 1 appear twice.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    shift = {"origin": -1.0,
             "minus": pot.derivative(pot.u_minus, 2),
             "plus": pot.derivative(pot.u_plus, 2)}[which]
    k = np.arange(kmax + 1)
    base = (bc.mode_factor * k * math.pi / L) ** 2 + shift
    if bc is PERIODIC:
        ev = np.sort(np.concatenate([base, base[1:]]))
    else:
        ev = base  # already ascending
    neg, zero = _classify(ev)
    return SpectrumReport(bc, L, which, ev, neg, zero, kmax)


def _fd_smallest(W: np.ndarray, L: float, bc: BoundaryCondition, m: int) -> np.ndarray:
    n = len(W)
    h = L / n
    inv = 1.0 / h ** 2
    if bc is NEUMANN:
        diag = 2.0 * inv + W
        diag[0] -= inv   # ghost reflection at the midpoint boundary
        diag[-1] -= inv
        off = np.full(n - 1, -inv)
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, m - 1))
    diag = 2.0 * inv + W
    off = np.full(n - 1, -inv)
    corner = [-inv]  # cyclic wrap
    A = sp.diags([off, diag, off, corner, corner], [-1, 0, 1, n - 1, 1 - n], format="csc")
    sigma = float(W.min()) - 1.0
    v0 = np.full(n, 1.0 / math.sqrt(n))
    vals = eigsh(A, k=m, sigma=sigma, which="LM", v0=v0,
                 return_eigenvectors=False, tol=0)
    return np.sort(vals)


def _sample_curvature(profile: InstantonProfile, step: int) -> np.ndarray:
    """U''(u*(x)) on the grid of every step-th profile sample.

    Periodic grids start at x = 0; Neumann grids are the cell midpoints,
    which are the samples at odd multiples of step/2.
    """
    start = 0 if profile.bc is PERIODIC else step // 2
    return profile.pot.derivative(profile.u[start:profile.n_samples:step], 2)


def eigs_profile(profile: InstantonProfile, kmax: int) -> SpectrumReport:
    """Discretized spectrum at a sampled profile, Richardson-extrapolated.

    Computes the smallest eigenvalues covering mode labels |k| <= kmax
    (kmax+2 values for Neumann, 2*kmax+3 for periodic) on the n = N/4 and
    2n = N/2 point grids of the profile's N = n_samples samples, which must
    be a multiple of 4 and at least 1024; the h^2 error model gives the
    extrapolation (4 mu_{2n} - mu_n)/3.  Raises ResolutionTooLow if the two
    grids disagree by more than 1% after extrapolation.
    """
    N = profile.n_samples
    if N % 4 or N < 1024:
        raise ValueError(f"profile n_samples must be a multiple of 4 and >= 1024, got {N}")
    m = kmax + 2 if profile.bc is NEUMANN else 2 * kmax + 3
    coarse = _fd_smallest(_sample_curvature(profile, 4), profile.L, profile.bc, m)
    fine = _fd_smallest(_sample_curvature(profile, 2), profile.L, profile.bc, m)
    extrap = (4.0 * fine - coarse) / 3.0
    scale = max(1.0, float(np.abs(extrap).max()))
    if np.any(np.abs(fine - coarse) > 0.01 * np.maximum(np.abs(extrap), 0.01 * scale)):
        raise ResolutionTooLow(
            f"grids {N // 4}/{N // 2} disagree beyond 1% of the eigenvalue scale")
    neg, zero = _classify(extrap)
    return SpectrumReport(profile.bc, profile.L, "instanton", extrap, neg, zero, kmax)


def det_ratio(numerator: SpectrumReport, denominator: SpectrumReport, d: int,
              num_mask: np.ndarray | None = None,
              den_mask: np.ndarray | None = None) -> float:
    """Truncated eigenvalue-ratio product prod mu_k / nu_k over d factors.

    Masks select which eigenvalues participate (e.g. to exclude negative or
    zero modes per the regime formula being served); after masking, the first
    d entries of each list are paired in order.  Log-space evaluation with
    compensated summation and sign tracking.
    """
    num = numerator.eigenvalues if num_mask is None else numerator.eigenvalues[num_mask]
    den = denominator.eigenvalues if den_mask is None else denominator.eigenvalues[den_mask]
    if len(num) < d or len(den) < d:
        raise ValueError(f"reports cover {len(num)}/{len(den)} eigenvalues, need {d}")
    num, den = num[:d], den[:d]
    if np.any(den == 0.0):
        raise ZeroDenominator("denominator spectrum contains an exact zero")
    sign = 1.0
    neg = int(np.sum(num < 0)) + int(np.sum(den < 0))
    if neg % 2:
        sign = -1.0
    if np.any(num == 0.0):
        return 0.0
    log_sum = math.fsum(np.log(np.abs(num)) - np.log(np.abs(den)))
    return sign * math.exp(log_sum)


def _sin_ratio(t: float) -> float:
    """sin(pi t)/(pi t), stable through t = 0."""
    if t == 0.0:
        return 1.0
    return math.sin(math.pi * t) / (math.pi * t)


def _sinh_ratio(t: float) -> float:
    """sinh(pi t)/(pi t), stable through t = 0."""
    if t == 0.0:
        return 1.0
    return math.sinh(math.pi * t) / (math.pi * t)


def lambda_ratio_product_infinite(pot: LocalPotential, L: float,
                                  bc: BoundaryCondition, k_from: int) -> float:
    """prod_{k >= k_from} lambda_k / nu_k^- in closed form (k_from in {1, 2}).

    lambda_k/nu_k^- = (k^2 - a^2)/(k^2 + b^2) with a = bL/(b_mode pi) ... here
    a = L/(pi) for Neumann, L/(2 pi) for periodic, b = a sqrt(U''(u_-)).
    Uses sin(pi a)/(pi a) and sinh products; the k=1 factor is divided out
    through the cancellation-free grouping sin(pi(1-a))/(pi(1-a)) * 1/(a(1+a)).
    """
    a = L / (bc.mode_factor * math.pi)
    w = pot.derivative(pot.u_minus, 2)
    b = a * math.sqrt(w)
    if k_from == 1:
        return _sin_full(a) / _sinh_ratio(b)
    if k_from == 2:
        num = _sin_ratio(1.0 - a) / (a * (1.0 + a))
        den = _sinh_ratio(b) / (1.0 + b * b)
        return num / den
    raise ValueError("k_from must be 1 or 2")


def _sin_full(a: float) -> float:
    """sin(pi a)/(pi a) evaluated without cancellation for a in (0, 2)."""
    if a == 0.0:
        return 1.0
    return math.sin(math.pi * (1.0 - a)) / (math.pi * a)


def lambda_ratio_log_sum(pot: LocalPotential, L: float, bc: BoundaryCondition,
                         k_from: int, k_to: int) -> float:
    """sum_{k=k_from}^{k_to} log(lambda_k / nu_k^-) for the constant spectra."""
    if k_to < k_from:
        return 0.0
    k = np.arange(k_from, k_to + 1, dtype=float)
    base = (bc.mode_factor * k * math.pi / L) ** 2
    lam = base - 1.0
    nv = base + pot.derivative(pot.u_minus, 2)
    if np.any(lam <= 0.0):
        raise OutOfRegime("nonpositive numerator eigenvalue in the product range")
    return math.fsum(np.log(lam) - np.log(nv))


def closed_form_product(pot: LocalPotential, L: float, bc: BoundaryCondition) -> float:
    """Closed form of the small-L Kramers prefactor via the sin/sinh identities.

    Neumann: 2 pi (sin L / (sqrt(W) sinh(L sqrt(W))))^{1/2},
    periodic: 2 pi sin(L/2) / sinh(sqrt(W) L / 2), with W = U''(u_-).
    Valid below the first bifurcation (sin argument short of its zero).
    """
    w = pot.derivative(pot.u_minus, 2)
    sw = math.sqrt(w)
    if bc is NEUMANN:
        if L >= math.pi:
            raise OutOfRegime(f"Neumann closed form needs L < pi, got {L}")
        return 2.0 * math.pi * math.sqrt(math.sin(L) / (sw * math.sinh(L * sw)))
    if L >= 2.0 * math.pi:
        raise OutOfRegime(f"periodic closed form needs L < 2 pi, got {L}")
    return 2.0 * math.pi * math.sin(0.5 * L) / math.sinh(0.5 * sw * L)
