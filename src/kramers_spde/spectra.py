"""Sturm-Liouville spectra of the linearization and eigenvalue-ratio products.

The linearization at a profile u0 is Q[u0] = Laplacian - U''(u0(.)); we report
the eigenvalues of -Q (so minima have all-positive spectra, the uniform
saddle has lambda_0 = -1, and transition states have exactly one negative
eigenvalue, plus one zero mode in the periodic case from translation
symmetry).

Constant profiles have closed-form spectra.  Instanton spectra are
second-order central differences on the n and 2n point grids (Neumann: the
midpoint grid with ghost reflection; periodic: the cyclic grid from the
instanton's minimum at x = 0), then one Richardson step in h^2
(eigs_orbit).  Each FD matrix -Delta_h + W, W = U''(u*), is solved by
Rayleigh-Ritz in its Laplacian's exact eigenbasis (DCT-II or Fourier
modes), where -Delta_h is the diagonal kappa_k and W couples modes through
its cosine sums on the grid, (n / X) times the cosine moments c_m of W on
the instanton's orbit: no spectrum samples the instanton, and n cancels
from the couplings, so both grids share them and differ only in kappa_k
(_sectors).  The periodic instanton is even about x = 0 (u'' = U'(u) is
reversible), so its cosine and sine sectors do not couple; the sine ground
state is the translation zero mode.  The lowest eigenvalues come from the
leading block of each sector, grown for both grids at once until two block
sizes agree to roundoff on each.  For smooth W they converge exponentially
in the block size, which stays far below n, and carry the roundoff of that
small block, not of the n-node matrix.

An even potential (LocalPotential.is_even: every odd-power coefficient is
exactly 0.0, as for quartic()) gives the instanton one more mirror
symmetry, u(L - x) = -u(x) (Neumann) or u(x + L/2) = -u(x) (periodic), so
the odd moments of W vanish, W couples only modes of one parity, and each
block is solved as its even-k and odd-k halves.  The choice follows the
coefficients, never a tolerance on U''(u*).

Products of eigenvalue ratios (truncated functional determinants) are summed
in log space with compensated summation and sign tracking.  Factors
(nu_k + w)/nu_k^- with one curvature w, the uniform saddle's spectrum and
the instanton's tail alike, run over k >= 2 (the prefactor treats mode 1 on
its own) and have sin/sinh closed forms for d -> infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRegime, ResolutionTooLow, ZeroDenominator, require_finite
from .potential import LocalPotential
from .spectral import BoundaryCondition, NEUMANN, PERIODIC, nu
from .stationary import InstantonOrbit

_ZERO_MODE_FACTOR = 1e-6
_LOG_SUM_BLOCK = 1 << 16  # terms per block of lambda_ratio_log_sum


@dataclass(frozen=True)
class SpectrumReport:
    """Ascending eigenvalues of -Q[u0] with their sign counts."""

    eigenvalues: np.ndarray = field(repr=False)
    negative_count: int
    zero_modes: int

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
    require_finite(L=L)
    if L <= 0.0:
        raise ValueError(f"L must be > 0, got {L}")
    if which not in ("origin", "minus", "plus"):
        raise ValueError(f"which must be 'origin', 'minus' or 'plus', got {which!r}")
    shift = -1.0 if which == "origin" else pot.derivative(getattr(pot, f"u_{which}"), 2)
    base = nu(bc, L, np.arange(kmax + 1)) + shift
    ev = np.sort(np.concatenate([base, base[1:]])) if bc is PERIODIC else base
    return SpectrumReport(ev, *_classify(ev))


def _sectors(n: int, L: float, X: float, bc: BoundaryCondition):
    """The n-point FD matrix in its Laplacian's eigenbasis, one (k, kappa, a, s)
    per sector: B_jk = kappa_j delta_jk + a_j a_k (c[|j - k|] + s c[j + k]) / 2
    over the mode numbers k, c the cosine moments of W on the half length X,
    a_0 = 1/sqrt(X) and a_k = sqrt(2/X).  Only kappa_k = (2 sin(pi b k / 2n)
    / h)^2, b = bc.mode_factor, and the basis size depend on n."""
    k = np.arange(n if bc is NEUMANN else n // 2 + 1)
    kappa = (2.0 * np.sin(0.5 * math.pi * bc.mode_factor * k / n) / (L / n)) ** 2
    a = np.full(len(k), math.sqrt(2.0 / X))
    a[0] = math.sqrt(1.0 / X)
    if bc is NEUMANN:
        return [(k, kappa, a, 1.0)]
    if n % 2 == 0:  # the alternating mode k = n/2 is a cosine only
        a[-1] = a[0]
    sine = slice(1, (n + 1) // 2)
    return [(k, kappa, a, 1.0), (k[sine], kappa[sine], a[sine], -1.0)]


def _ritz_smallest(moments, X: float, L: float, bc: BoundaryCondition, grids, m: int,
                   split: bool) -> list[np.ndarray]:
    """The lowest m eigenvalues of the n-point FD matrix -Delta_h + W for each
    n in grids, by Rayleigh-Ritz on its Laplacian's leading eigenmodes, from
    W's cosine moments on the half length X (moments(count) holds c_m for
    m < count at least), each block solved as its even-k and odd-k halves
    with split.  One eigvalsh call per block size M solves every grid,
    sector and half; M starts 16 modes above the values wanted and grows by
    an eighth, capped at each grid's whole basis, until the lowest values of
    two sizes agree to 32 eps of the larger block's norm on every grid."""
    grids = [_sectors(n, L, X, bc) for n in grids]
    # the lowest m hold at most m // 2 + 1 modes of each periodic sector
    want = m if bc is NEUMANN else m // 2 + 1
    whole = max(len(k) for sectors in grids for k, *_ in sectors)
    # kmax = 40 stops at 58 and 64 modes: numpy's eigvalsh of a larger matrix
    # turns to multithreaded BLAS, 8 ms a call instead of 0.2 ms (busy 2-core host)
    sizes = [min(whole, want + 16 + want % 2)]  # even M: split halves of one size
    while sizes[-1] < whole:
        sizes.append(min(whole, sizes[-1] + 2 * (sizes[-1] // 16)))
    c = moments(2 * sizes[:2][-1] + 1)  # at least the first two blocks are solved
    vals = None
    for M in sizes:
        if len(c) <= 2 * M:
            c = moments(2 * M + 1)
        blocks = []
        for k, kappa, a, s in (sector for sectors in grids for sector in sectors):
            k, a = k[:M], a[:M]
            B = c[np.abs(k[:, None] - k)] + s * c[k[:, None] + k]
            B *= 0.5 * a[:, None] * a
            B[np.diag_indices_from(B)] += kappa[:M]
            blocks += [B[::2, ::2], B[1::2, 1::2]] if split else [B]
        last = vals
        if len({len(B) for B in blocks}) == 1:
            vals = list(np.linalg.eigvalsh(np.stack(blocks)))
        else:
            vals = [np.linalg.eigvalsh(B) for B in blocks]
        if split:
            vals = [np.sort(np.concatenate(vals[i : i + 2])) for i in range(0, len(vals), 2)]
        if last is not None and all(np.abs(old[:want] - new[:want]).max()
                                    <= 32 * np.finfo(float).eps * np.abs(new[[0, -1]]).max()
                                    for old, new in zip(last, vals)):
            break
    per_grid = len(grids[0])  # sectors
    return [np.sort(np.concatenate([v[:want] for v in vals[i : i + per_grid]]))[:m]
            for i in range(0, len(vals), per_grid)]


def _eigenvalue_count(bc: BoundaryCondition, kmax: int) -> int:
    """Lowest eigenvalues that cover the mode labels |k| <= kmax."""
    return kmax + 2 if bc is NEUMANN else 2 * kmax + 3


def eigs_orbit(orbit: InstantonOrbit, kmax: int, n: int = 1024) -> SpectrumReport:
    """FD spectrum at the instanton, Richardson-extrapolated, from its orbit.

    The smallest eigenvalues covering mode labels |k| <= kmax (kmax+2 for
    Neumann, 2*kmax+3 for periodic) on the n and 2n point grids, n at least
    their number, extrapolated as (4 mu_{2n} - mu_n)/3 (module docstring).
    For analytic W even about the half orbit's ends the grid's cosine sums
    are (n / X) c_m up to aliasing of c_(2n-m) and beyond, far below roundoff
    for the m < 2M the Ritz blocks read.  Raises ResolutionTooLow if the
    grids disagree by more than 1% after extrapolation.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    m = _eigenvalue_count(orbit.bc, kmax)
    if m > n:
        raise ValueError(f"kmax = {kmax} needs {m} eigenvalues, more than the "
                         f"{n}-node coarse grid has")
    coarse, fine = _ritz_smallest(orbit.cosine_moments, orbit.rule.X, orbit.L, orbit.bc,
                                  (n, 2 * n), m, orbit.pot.is_even)
    extrap = (4.0 * fine - coarse) / 3.0
    scale = max(1.0, float(np.abs(extrap).max()))
    if np.any(np.abs(fine - coarse) > 0.01 * np.maximum(np.abs(extrap), 0.01 * scale)):
        raise ResolutionTooLow(
            f"grids {n}/{2 * n} disagree beyond 1% of the eigenvalue scale at kmax = {kmax}: "
            "use a larger grid or a smaller kmax")
    return SpectrumReport(extrap, *_classify(extrap))


# an InstantonProfile is its orbit, and its spectrum reads the orbit, not the samples
eigs_profile = eigs_orbit


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


def _pi_ratio(f, t: float) -> float:
    """f(pi t)/(pi t); 1 at t = 0 (f is sin or sinh)."""
    return 1.0 if t == 0.0 else f(math.pi * t) / (math.pi * t)


def _euler_product(a: float, w: float) -> float:
    """prod_{k >= 2} (1 + (a / k)^2 w) in closed form.

    With r = a sqrt|w|: sinh(pi r)/(pi r) over the k = 1 factor 1 + r^2 for
    w >= 0, sin(pi r)/(pi r) over (1 - r)(1 + r) for w < 0.  From r = 1/8 on,
    sin(pi r) is taken as sin(pi (1 - r)), whose argument rounds by at most
    2 ulps of r there and not at all from r = 1/2, and the k = 1 zero at
    r = 1 cancels in closed form.
    """
    r = a * math.sqrt(abs(w))
    if w >= 0.0:
        return _pi_ratio(math.sinh, r) / (1.0 + r * r)
    if r < 0.125:
        return _pi_ratio(math.sin, r) / ((1.0 - r) * (1.0 + r))
    return _pi_ratio(math.sin, 1.0 - r) / (r * (1.0 + r))


def lambda_ratio_product_infinite(pot: LocalPotential, L: float, bc: BoundaryCondition,
                                  w: float) -> float:
    """prod_{k >= 2} (nu_k + w) / nu_k^- in closed form (the prefactor's S_2).

    w is the numerator's curvature: U''(0) = -1 for the uniform saddle's
    lambda_k, the instanton's mean curvature for its tail.  With
    a = L/pi (Neumann) or L/(2 pi) (periodic) each factor is
    (k^2 + a^2 w)/(k^2 + a^2 U''(u_-)), so the product is the ratio of two
    sin/sinh Euler products (_euler_product).
    """
    a = L / (bc.mode_factor * math.pi)
    return _euler_product(a, w) / _euler_product(a, pot.derivative(pot.u_minus, 2))


def lambda_ratio_log_sum(pot: LocalPotential, L: float, bc: BoundaryCondition,
                         k_to: int, w: float) -> float:
    """sum_{k=2}^{k_to} log((nu_k + w) / nu_k^-), the truncated
    lambda_ratio_product_infinite in log space, w the numerator's curvature.

    The terms come in blocks of _LOG_SUM_BLOCK, so memory does not grow with
    k_to; fsum rounds the whole sum once, whatever the blocks.
    """
    w_minus = pot.derivative(pot.u_minus, 2)

    def terms():
        for lo in range(2, k_to + 1, _LOG_SUM_BLOCK):
            base = nu(bc, L, np.arange(lo, min(lo + _LOG_SUM_BLOCK, k_to + 1)))
            num = base + w
            if np.any(num <= 0.0):
                raise OutOfRegime("nonpositive numerator eigenvalue in the product range")
            yield from (np.log(num) - np.log(base + w_minus)).tolist()
    return math.fsum(terms())


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
