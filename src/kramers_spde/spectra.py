"""Sturm-Liouville spectra of the linearization and eigenvalue-ratio products.

The linearization at a profile u0 is Q[u0] = Laplacian - U''(u0(.)); we report
the eigenvalues of -Q (so minima have all-positive spectra, the uniform
saddle has lambda_0 = -1, and transition states have exactly one negative
eigenvalue, plus one zero mode in the periodic case from translation
symmetry).

Constant profiles have closed-form spectra.  Instanton profiles are
discretized with second-order central differences on the profile's own
samples: every 4th and every 2nd of its n_samples points (N/4 and N/2 grid
points), then one Richardson step in h^2.  Neumann uses the midpoint grid
with ghost reflection.  The periodic instanton is even about x = 0 (its
minimum; u'' = U'(u) is reversible), so its cyclic matrix splits exactly
into an even (cosine) and an odd (sine) tridiagonal sector on the nodes
0..n/2; the odd sector's ground state is the translation zero mode.

An even potential (LocalPotential.is_even: every odd-power coefficient is
exactly 0.0, as for quartic()) gives the instanton one more mirror
symmetry: u(L - x) = -u(x) (Neumann) and u(x + L/2) = -u(x) (periodic), so
U''(u*) is even about L/2, and for even n each periodic sector reads the
same backwards about node n/4.  Such a tridiagonal (the n-node Neumann
matrix, and the (n/2 + 1)- and (n/2 - 1)-node periodic sectors) is solved
as its two halves, v = reversed v and v = -reversed v, of about half its
size, each giving m // 2 + 1 of its lowest m values.  The choice follows
the coefficients, never a tolerance on U''(u*): a nearly even potential
keeps the unsplit solves, as does a periodic grid of odd n.

Products of eigenvalue ratios (truncated functional determinants) are summed
in log space with compensated summation and sign tracking; for the constant
spectra the d -> infinity limits have sin/sinh closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
    return int(np.sum(ev < -scale)), int(np.sum(np.abs(ev) <= scale))


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
    ev = np.sort(np.concatenate([base, base[1:]])) if bc is PERIODIC else base
    return SpectrumReport(bc, L, which, ev, *_classify(ev), kmax)


def _lowest(diag: np.ndarray, off: np.ndarray, m: int) -> np.ndarray:
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, m - 1))


def _lowest_persymmetric(diag: np.ndarray, off: np.ndarray, m: int) -> np.ndarray:
    """_lowest of a tridiagonal that reads the same backwards, from its even
    (v = reversed v) and odd (v = -reversed v) halves.  The halves' spectra
    interlace, so the lowest m hold at most m // 2 + 1 values of each."""
    h = len(diag) // 2
    if len(diag) % 2:  # the centre node meets its mirrored neighbours twice
        even_off = off[:h].copy()
        even_off[-1] *= math.sqrt(2.0)
        halves = ((diag[: h + 1], even_off), (diag[:h], off[: h - 1]))
    else:  # the middle coupling folds back onto node h - 1
        even, odd = diag[:h].copy(), diag[:h].copy()
        even[-1] += off[h - 1]
        odd[-1] -= off[h - 1]
        halves = ((even, off[: h - 1]), (odd, off[: h - 1]))
    k = m // 2 + 1
    return np.sort(np.concatenate([_lowest(d, e, min(k, len(d))) for d, e in halves]))[:m]


def _mirror_mean(W: np.ndarray, mirror: np.ndarray, message: str) -> np.ndarray:
    """(W + mirror) / 2; ValueError(message) unless they agree to 1e-3 of max|W|."""
    if np.abs(W - mirror).max() > 1e-3 * max(1.0, float(np.abs(W).max())):
        raise ValueError(message)
    return 0.5 * (W + mirror)


def _fd_smallest(W: np.ndarray, L: float, bc: BoundaryCondition, m: int,
                 even_potential: bool = False) -> np.ndarray:
    n = len(W)
    inv = 1.0 / (L / n) ** 2
    if bc is NEUMANN:
        if even_potential:  # u(L - x) = -u(x), so W is even about L/2
            W = _mirror_mean(W, W[::-1], "Neumann spectra of an even potential need "
                             "a profile odd about x = L/2 (an instanton)")
        diag = 2.0 * inv + W
        diag[[0, -1]] -= inv  # ghost reflection at the midpoint boundary
        lowest = _lowest_persymmetric if even_potential else _lowest
        return lowest(diag, np.full(n - 1, -inv), m)
    # periodic: W[j] = W[n - j], so the cyclic matrix splits into an even
    # sector (v[j] = v[n - j]) on nodes 0..n//2 and an odd one on 1..(n-1)//2
    half = n // 2
    sym = _mirror_mean(W, np.roll(W[::-1], 1), "periodic spectra need a profile even about "
                       "x = 0 (the instanton's phase convention: minimum at x = 0)")[: half + 1]
    split = even_potential and n % 2 == 0
    if split:  # u(x + L/2) = -u(x): W[j] = W[n/2 - j], both sectors read the same backwards
        sym = _mirror_mean(sym, sym[::-1], "periodic spectra of an even potential need "
                           "a profile with u(x + L/2) = -u(x) (an instanton)")
    diag = 2.0 * inv + sym
    off = np.full(half, -inv)
    off[0] *= math.sqrt(2.0)  # even: node 0 meets node 1 on both sides
    odd = diag[1 : n - half].copy()
    if n % 2:  # the middle nodes mirror each other
        diag[-1] -= inv
        odd[-1] += inv
    else:  # even: node n/2 meets node n/2 - 1 on both sides
        off[-1] *= math.sqrt(2.0)
    k = m // 2 + 1  # the lowest m hold at most m // 2 + 1 modes of each sector
    lowest = _lowest_persymmetric if split else _lowest
    both = [lowest(d, e, min(k, len(d))) for d, e in ((diag, off), (odd, off[1:len(odd)]))]
    return np.sort(np.concatenate(both))[:m]


def _sample_curvature(profile: InstantonProfile, step: int) -> np.ndarray:
    """U''(u*(x)) on every step-th sample: from x = 0 (periodic), or at the
    Neumann cell midpoints, the samples at odd multiples of step/2."""
    start = 0 if profile.bc is PERIODIC else step // 2
    return profile.pot.derivative(profile.u[start:profile.n_samples:step], 2)


def eigs_profile(profile: InstantonProfile, kmax: int) -> SpectrumReport:
    """Discretized spectrum at a sampled profile, Richardson-extrapolated.

    Computes the smallest eigenvalues covering mode labels |k| <= kmax
    (kmax+2 values for Neumann, 2*kmax+3 for periodic) on the n = N/4 and
    2n = N/2 point grids of the profile's N = n_samples samples, which must
    be a multiple of 4 and at least 1024; the h^2 error model gives the
    extrapolation (4 mu_{2n} - mu_n)/3.  Raises ResolutionTooLow if the two
    grids disagree by more than 1% after extrapolation, and ValueError for
    a periodic profile that is not even about x = 0, or, when the potential
    is even, a profile without the instanton's mirror symmetry.
    """
    N = profile.n_samples
    if N % 4 or N < 1024:
        raise ValueError(f"profile n_samples must be a multiple of 4 and >= 1024, got {N}")
    m = kmax + 2 if profile.bc is NEUMANN else 2 * kmax + 3
    coarse, fine = (_fd_smallest(_sample_curvature(profile, step), profile.L, profile.bc, m,
                                 profile.pot.is_even) for step in (4, 2))
    extrap = (4.0 * fine - coarse) / 3.0
    scale = max(1.0, float(np.abs(extrap).max()))
    if np.any(np.abs(fine - coarse) > 0.01 * np.maximum(np.abs(extrap), 0.01 * scale)):
        raise ResolutionTooLow(
            f"grids {N // 4}/{N // 2} disagree beyond 1% of the eigenvalue scale")
    return SpectrumReport(profile.bc, profile.L, "instanton", extrap, *_classify(extrap), kmax)


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
    sign = -1.0 if (np.sum(num < 0) + np.sum(den < 0)) % 2 else 1.0
    if np.any(num == 0.0):
        return 0.0
    log_sum = math.fsum(np.log(np.abs(num)) - np.log(np.abs(den)))
    return sign * math.exp(log_sum)


def _pi_ratio(f, t: float, s: float | None = None) -> float:
    """f(pi s)/(pi t), s = t unless given; 1 at t = 0 (f is sin or sinh)."""
    return 1.0 if t == 0.0 else f(math.pi * (t if s is None else s)) / (math.pi * t)


def lambda_ratio_product_infinite(pot: LocalPotential, L: float,
                                  bc: BoundaryCondition, k_from: int) -> float:
    """prod_{k >= k_from} lambda_k / nu_k^- in closed form (k_from in {1, 2}).

    lambda_k/nu_k^- = (k^2 - a^2)/(k^2 + b^2) with a = L/pi (Neumann) or
    L/(2 pi) (periodic) and b = a sqrt(U''(u_-)): sin(pi a)/(pi a) over
    sinh(pi b)/(pi b); the k=1 factor is divided out through the
    cancellation-free grouping sin(pi(1-a))/(pi(1-a)) * 1/(a(1+a)).
    """
    a = L / (bc.mode_factor * math.pi)
    w = pot.derivative(pot.u_minus, 2)
    b = a * math.sqrt(w)
    if k_from == 1:
        # sin(pi a)/(pi a) as sin(pi (1 - a))/(pi a): no cancellation for a in (0, 2)
        return _pi_ratio(math.sin, a, 1.0 - a) / _pi_ratio(math.sinh, b)
    if k_from == 2:
        num = _pi_ratio(math.sin, 1.0 - a) / (a * (1.0 + a))
        den = _pi_ratio(math.sinh, b) / (1.0 + b * b)
        return num / den
    raise ValueError("k_from must be 1 or 2")


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
