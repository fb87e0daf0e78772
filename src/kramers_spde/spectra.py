"""Sturm-Liouville spectra of the linearization and eigenvalue-ratio products.

The linearization at a profile u0 is Q[u0] = Laplacian - U''(u0(.)); we report
the eigenvalues of -Q (so minima have all-positive spectra, the uniform
saddle has lambda_0 = -1, and transition states have exactly one negative
eigenvalue, plus one zero mode in the periodic case from translation
symmetry).

Constant profiles have closed-form spectra.  Instanton spectra are
second-order central differences on the n and 2n point grids, then one
Richardson step in h^2 (eigs_orbit).  Neumann uses the midpoint grid with
ghost reflection, the periodic instanton the cyclic grid from its minimum
at x = 0.  The FD matrices read W = U''(u*) only through its cosine sums
on the grid, which are (n / X) times the cosine moments of W on the
instanton's orbit: no spectrum samples the instanton.

Each FD matrix -Delta_h + W is solved by Rayleigh-Ritz in its Laplacian's
exact eigenbasis, where -Delta_h is diagonal (kappa_k = 4 sin^2(pi k / 2n)
/ h^2 on the Neumann DCT-II modes, 4 sin^2(pi k / n) / h^2 on the periodic
Fourier modes) and W couples modes through its cosine sums.  The periodic
instanton is even about x = 0 (u'' = U'(u) is reversible), so its cosine
and sine sectors do not couple; the sine ground state is the translation
zero mode.  The lowest eigenvalues come from the leading block of each
sector, grown until two block sizes agree to roundoff.  For smooth W they
converge exponentially in the block size, which stays far below n, and
they carry the roundoff of that small block, not of the n-node matrix.

An even potential (LocalPotential.is_even: every odd-power coefficient is
exactly 0.0, as for quartic()) gives the instanton one more mirror
symmetry: u(L - x) = -u(x) (Neumann) and u(x + L/2) = -u(x) (periodic,
even n), so W is even about L/2 (resp. of period L/2), couples only modes
of one parity, and each block is solved as its even-k and odd-k halves.
The choice follows the coefficients, never a tolerance on U''(u*); a
nearly even potential, and a periodic grid of odd n, keep the unsplit
blocks.

Products of eigenvalue ratios (truncated functional determinants) are summed
in log space with compensated summation and sign tracking; for the constant
spectra the d -> infinity limits have sin/sinh closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRegime, ResolutionTooLow, ZeroDenominator
from .potential import LocalPotential
from .spectral import BoundaryCondition, NEUMANN, PERIODIC, nu
from .stationary import InstantonOrbit, InstantonProfile

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
    if L <= 0.0:
        raise ValueError(f"L must be > 0, got {L}")
    shift = {"origin": -1.0,
             "minus": pot.derivative(pot.u_minus, 2),
             "plus": pot.derivative(pot.u_plus, 2)}[which]
    base = nu(bc, L, np.arange(kmax + 1)) + shift
    ev = np.sort(np.concatenate([base, base[1:]])) if bc is PERIODIC else base
    return SpectrumReport(bc, L, which, ev, *_classify(ev), kmax)


def _sectors(n: int, L: float, bc: BoundaryCondition):
    """The n-point FD matrix in its Laplacian's eigenbasis, one (k, kappa, c, s)
    per sector: B_jk = kappa_j delta_jk + c_j c_k (T[|j - k|] + s T[j + k]) / 2
    over the mode numbers k, with T the cosine sums of W on the grid."""
    h = L / n
    if bc is NEUMANN:
        k = np.arange(n)
        c = np.full(n, math.sqrt(2.0 / n))
        c[0] = math.sqrt(1.0 / n)
        return [(k, (2.0 * np.sin(0.5 * math.pi * k / n) / h) ** 2, c, 1.0)]
    half = n // 2
    k = np.arange(half + 1)
    kappa = (2.0 * np.sin(math.pi * k / n) / h) ** 2
    c = np.full(half + 1, math.sqrt(2.0 / n))
    c[0] = math.sqrt(1.0 / n)
    if n % 2 == 0:  # the alternating mode k = n/2 is a cosine only
        c[-1] = c[0]
    sine = slice(1, (n + 1) // 2)
    return [(k, kappa, c, 1.0), (k[sine], kappa[sine], c[sine], -1.0)]


def _ritz_values(sectors, T: np.ndarray, M: int, split: bool) -> list[np.ndarray]:
    """Every eigenvalue of each sector's leading block of at most M modes.
    With split (an even potential's instanton: W couples only modes of one
    parity) each block is solved as its even-k and odd-k halves, which keeps
    the lowest values accurate to far below eps * ||B||.  Blocks of one size
    share one eigvalsh call."""
    blocks = []
    for k, kappa, c, s in sectors:
        k, c = k[:M], c[:M]
        B = T[np.abs(k[:, None] - k)] + s * T[k[:, None] + k]
        B *= 0.5 * c[:, None] * c
        B[np.diag_indices_from(B)] += kappa[:M]
        blocks += [B[::2, ::2], B[1::2, 1::2]] if split else [B]
    if len({len(B) for B in blocks}) == 1:
        vals = list(np.linalg.eigvalsh(np.stack(blocks)))
    else:
        vals = [np.linalg.eigvalsh(B) for B in blocks]
    if split:
        vals = [np.sort(np.concatenate(vals[i : i + 2])) for i in range(0, len(vals), 2)]
    return vals


def _ritz_smallest(sums, n: int, L: float, bc: BoundaryCondition, m: int,
                   split: bool) -> np.ndarray:
    """The lowest m eigenvalues of the n-point FD matrix -Delta_h + W, by
    Rayleigh-Ritz on its Laplacian's leading eigenmodes, from W's cosine
    sums: sums(count) holds T(m) for m < count at least.  The block starts
    16 modes above the values wanted and grows by an eighth until the
    lowest values of two solves agree to 32 eps of the larger block's norm
    (the Ritz values of smooth W converge exponentially in M), or is whole.
    For kmax = 40 the two solves take 58 and 64 modes: numpy's eigvalsh of
    a larger matrix turns to multithreaded BLAS, which took 8 ms a call
    instead of 0.2 ms on a busy 2-core host."""
    sectors = _sectors(n, L, bc)
    # the lowest m hold at most m // 2 + 1 modes of each periodic sector
    want = m if bc is NEUMANN else m // 2 + 1
    whole = max(len(k) for k, *_ in sectors)
    sizes = [min(whole, want + 16 + want % 2)]  # even M: split halves of one size
    while sizes[-1] < whole:
        sizes.append(min(whole, sizes[-1] + 2 * (sizes[-1] // 16)))
    sums(2 * sizes[:2][-1] + 1)  # at least the first two blocks are solved
    vals = None
    for M in sizes:
        last, vals = vals, _ritz_values(sectors, sums(2 * M + 1), M, split)
        if last is not None and all(np.abs(a[:want] - b[:want]).max()
                                    <= 32 * np.finfo(float).eps * np.abs(b[[0, -1]]).max()
                                    for a, b in zip(last, vals)):
            break
    return np.sort(np.concatenate([v[:want] for v in vals]))[:m]


def _eigenvalue_count(bc: BoundaryCondition, kmax: int) -> int:
    """Lowest eigenvalues that cover the mode labels |k| <= kmax."""
    return kmax + 2 if bc is NEUMANN else 2 * kmax + 3


def eigs_orbit(orbit: InstantonOrbit, kmax: int, n: int = 1024) -> SpectrumReport:
    """FD spectrum at the instanton, Richardson-extrapolated, from its orbit.

    Computes the smallest eigenvalues covering mode labels |k| <= kmax
    (kmax+2 values for Neumann, 2*kmax+3 for periodic) on the n and 2n
    point grids, n at least the number of values; the h^2 error model gives
    the extrapolation (4 mu_{2n} - mu_n)/3.  Each grid is solved by
    Rayleigh-Ritz in the FD Laplacian's eigenbasis (module docstring).  On
    an analytic W even about the half orbit's ends, the grid's cosine sums
    are T_n(m) = (n / X) c_m up to aliasing of c_(2n-m) and beyond, which is
    far below roundoff for the m < 2M that the Ritz blocks read; c_m are
    the orbit's cosine moments (InstantonOrbit.cosine_moments), computed
    once for the largest block reached and shared by both grids.  Raises
    ResolutionTooLow if the grids disagree by more than 1% after
    extrapolation.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    m = _eigenvalue_count(orbit.bc, kmax)
    if m > n:
        raise ValueError(f"kmax = {kmax} needs {m} eigenvalues, more than the "
                         f"{n}-node coarse grid has")
    moments = np.empty(0)

    def sums(grid: int):
        def sums_n(count: int) -> np.ndarray:
            nonlocal moments
            if len(moments) < count:
                moments = orbit.cosine_moments(count)
            return (grid / orbit.rule.X) * moments
        return sums_n

    # an even potential's W couples one mode parity only (but odd periodic grids)
    coarse, fine = (_ritz_smallest(sums(grid), grid, orbit.L, orbit.bc, m,
                                   orbit.pot.is_even and (orbit.bc is NEUMANN or grid % 2 == 0))
                    for grid in (n, 2 * n))
    extrap = (4.0 * fine - coarse) / 3.0
    scale = max(1.0, float(np.abs(extrap).max()))
    if np.any(np.abs(fine - coarse) > 0.01 * np.maximum(np.abs(extrap), 0.01 * scale)):
        raise ResolutionTooLow(
            f"grids {n}/{2 * n} disagree beyond 1% of the eigenvalue scale at kmax = {kmax}: "
            "use a larger grid or a smaller kmax")
    return SpectrumReport(orbit.bc, orbit.L, "instanton", extrap, *_classify(extrap), kmax)


def eigs_profile(profile: InstantonProfile, kmax: int) -> SpectrumReport:
    """eigs_orbit on an instanton profile of N = n_samples samples, which is
    its orbit, at n = N/4: the spectrum of its n and 2n = N/2 point grids.
    It reads the orbit, not the samples."""
    return eigs_orbit(profile, kmax, profile.n_samples // 4)


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
    base = nu(bc, L, np.arange(k_from, k_to + 1))
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
