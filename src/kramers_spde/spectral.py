"""Fourier bases, Galerkin truncation, and fast transforms.

Orthonormal bases on [0, L]:

  Neumann   e_0 = 1/sqrt(L),  e_k = sqrt(2/L) cos(k pi x / L),  k = 1..d
  periodic  e_0 = 1/sqrt(L),  then per k >= 1 the cos/sin pair
            sqrt(2/L) cos(2 pi k x / L), sqrt(2/L) sin(2 pi k x / L)

A state stores real coefficients against these bases: (y_0, ..., y_d) for
Neumann, (a_0, a_1, b_1, ..., a_d, b_d) for periodic.  Real-valuedness is
structural and the Euclidean coefficient norm equals the L2 norm of the field
(Parseval).  The Laplacian eigenvalue attached to a stored coordinate is
nu_k = (b k pi / L)^2 with b = 1 (Neumann) or 2 (periodic).

Grids: Neumann states are sampled on the midpoint (DCT-II) grid
x_j = (j + 1/2) L / n, periodic states on x_j = j L / n.  Both quadratures are
exact for the trigonometric-polynomial integrands arising from polynomial
local potentials when n >= 2 p0 (d+1).

Transform plans hold no mutable scratch (the allocation-free FFT-order pair
writes into the caller's arrays); they may be shared, but the documented
contract is one plan per task with freely shared immutable states.
The transforms are numpy.fft's real FFTs; the Neumann (DCT-II) pair runs as
one real FFT of the even/odd-permuted samples (Makhoul, IEEE Trans. ASSP 28
(1980) 27).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GridTooSmall


class BoundaryCondition(Enum):
    NEUMANN = "neumann"
    PERIODIC = "periodic"

    @property
    def mode_factor(self) -> int:
        """b in nu_k = (b k pi / L)^2: 1 for Neumann, 2 for periodic."""
        return 1 if self is BoundaryCondition.NEUMANN else 2

    @property
    def bifurcation_length(self) -> float:
        """L at which lambda_1 = (b pi / L)^2 - 1 vanishes: pi (Neumann), 2 pi (periodic)."""
        return self.mode_factor * math.pi

    def n_coeffs(self, d: int) -> int:
        return d + 1 if self is BoundaryCondition.NEUMANN else 2 * d + 1


NEUMANN = BoundaryCondition.NEUMANN
PERIODIC = BoundaryCondition.PERIODIC


def nu(bc: BoundaryCondition, L: float, k: int | np.ndarray):
    """Laplacian eigenvalue nu_k(L) = (b k pi / L)^2 for a scalar or an array k;
    a product, not ** 2 (libm pow), so scalar and array k give the same bits."""
    x = bc.mode_factor * k * math.pi / L
    return x * x


def mode_indices(bc: BoundaryCondition, d: int) -> np.ndarray:
    """Wavenumber k per stored coordinate (cos/sin pairs share their k)."""
    k = np.arange(d + 1)
    return k if bc is NEUMANN else np.concatenate(([0], np.repeat(k[1:], 2)))


def mode_frequencies(bc: BoundaryCondition, L: float, d: int) -> np.ndarray:
    """nu_k per stored coordinate (cos/sin pairs share their nu_k)."""
    return nu(bc, L, mode_indices(bc, d))


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length the FFT factors into radices 2, 3 and 5."""
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def default_grid_size(d: int, p0: int = 2) -> int:
    """Alias-free quadrature size for degree-2*p0 local potentials."""
    return next_fast_len(max(2 * p0 * (d + 1), 2 * d + 2))


def refined_grid_size(d: int, refine: int) -> int:
    """Size of the refined grid of sup_dist and of the Monte Carlo hit check:
    refine (2d + 2) points, rounded up to a fast FFT length; refine must be
    an integer >= 4."""
    if not isinstance(refine, numbers.Integral) or refine < 4:
        raise ValueError(f"refine must be an integer >= 4, got {refine!r}")
    return next_fast_len(refine * (2 * d + 2))


@dataclass(frozen=True)
class FourierState:
    """Galerkin-truncated field: boundary condition, length, cutoff, coefficients."""

    bc: BoundaryCondition
    L: float
    d: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.bc.n_coeffs(self.d),):
            raise ValueError(
                f"expected {self.bc.n_coeffs(self.d)} coefficients for "
                f"{self.bc.value} d={self.d}, got shape {c.shape}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, bc: BoundaryCondition, L: float, d: int) -> "FourierState":
        return cls(bc, L, d, np.zeros(bc.n_coeffs(d)))

    @classmethod
    def constant(cls, value: float, bc: BoundaryCondition, L: float, d: int) -> "FourierState":
        c = np.zeros(bc.n_coeffs(d))
        c[0] = value * math.sqrt(L)
        return cls(bc, L, d, c)

    @property
    def mode_nu(self) -> np.ndarray:
        return mode_frequencies(self.bc, self.L, self.d)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def with_coeffs(self, coeffs: np.ndarray) -> "FourierState":
        return FourierState(self.bc, self.L, self.d, coeffs)


class TransformPlan:
    """Maps coefficient arrays (last axis) to grid samples and back.

    The analyze direction implements the orthonormal-basis inner products by
    the grid's native quadrature (midpoint for Neumann, rectangle for
    periodic) and truncates to |k| <= d.  Both directions pass through bins
    0..d of the real FFT of length n, which its half spectrum holds since
    n >= 2d + 2.  Up to scale, periodic a_0 and the pair (a_k, b_k) are
    bin 0 and (Re, -Im) of bin k, and a Neumann y_k is
    Re(e^{-i pi k / (2n)} V_k), V the FFT of the samples x_0, x_2, x_4, ...
    followed by the odd ones in reverse order, ..., x_3, x_1.

    The FFT-order pair that the Monte Carlo engine runs on writes into the
    caller's half spectrum and output arrays and allocates nothing.
    endpoint_values is one product with the basis at x = 0 and L, built once.
    """

    def __init__(self, bc: BoundaryCondition, L: float, d: int, n_grid: int):
        if n_grid < 2 * d + 2:
            raise GridTooSmall(f"n_grid={n_grid} < 2d+2={2*d+2}")
        self.bc = bc
        self.L = float(L)
        self.d = d
        self.n = int(n_grid)
        n, L = self.n, self.L
        # synthesize and analyze scales of bin 0, then of the pair in bin k >= 1
        self._synth0, self._analyze0 = n / math.sqrt(L), math.sqrt(L) / n
        pair_synth, pair_analyze = 0.5 * n * math.sqrt(2.0 / L), math.sqrt(2.0 * L) / n
        # basis values at x = 0 and x = L, one column each
        self._ends = np.full((bc.n_coeffs(d), 2), math.sqrt(2.0 / L))
        self._ends[0] = 1.0 / math.sqrt(L)
        if bc is NEUMANN:
            # the FFT's sample order x_0, x_2, x_4, ..., x_3, x_1, and back
            self._fft_order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]])
            self._grid_order = np.argsort(self._fft_order)
            twiddle = np.exp(0.5j * np.pi / n * np.arange(d + 1))
            synth = np.concatenate(([self._synth0], np.full(d, pair_synth)))
            analyze = np.concatenate(([self._analyze0], np.full(d, pair_analyze)))
            self._synth_twiddle = synth * twiddle
            self._analyze_re, self._analyze_im = analyze * twiddle.real, analyze * twiddle.imag
            self._ends[1::2, 1] *= -1.0  # cos(k pi) at odd k
        else:
            signs = np.tile([1.0, -1.0], d)
            self._pair_synth = pair_synth * signs
            self._pair_analyze = pair_analyze * signs
            self._ends[2::2] = 0.0  # the sines

    def grid(self) -> np.ndarray:
        if self.bc is NEUMANN:
            return (np.arange(self.n) + 0.5) * (self.L / self.n)
        return np.arange(self.n) * (self.L / self.n)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid samples of the states in coeffs."""
        c = np.asarray(coeffs, dtype=float)
        u = self.synthesize_fft_order(c, np.zeros((*c.shape[:-1], self.n // 2 + 1), complex),
                                      np.empty((*c.shape[:-1], self.n)))
        return u[..., self._grid_order] if self.bc is NEUMANN else u

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of grid samples."""
        v = np.asarray(values, dtype=float)
        if self.bc is NEUMANN:
            v = v[..., self._fft_order]
        return self.analyze_fft_order(v, np.empty((*v.shape[:-1], self.n // 2 + 1), complex),
                                      np.empty((*v.shape[:-1], self.bc.n_coeffs(self.d))))

    def synthesize_fft_order(self, coeffs: np.ndarray, spectrum: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
        """synthesize of coeffs into out, in the order of the FFT's
        samples: the grid's for periodic, x_0, x_2, ..., x_3, x_1 for Neumann.

        spectrum is a complex (..., n // 2 + 1) half spectrum whose bins
        above d, and for periodic the imaginary part of bin 0, are zero; only
        the others are written, so irfft runs on the whole array.  A map
        applied sample by sample does not see the order, so
        analyze_fft_order(f(synthesize_fft_order(c))) is
        analyze(f(synthesize(c))) to the bit, without the permutations.
        """
        d = self.d
        if self.bc is NEUMANN:
            np.multiply(coeffs, self._synth_twiddle, out=spectrum[..., : d + 1])
        else:
            interleaved = spectrum.view(float)  # Re, Im of bin 0, then of bin 1, ...
            np.multiply(coeffs[..., 0], self._synth0, out=interleaved[..., 0])
            np.multiply(coeffs[..., 1:], self._pair_synth, out=interleaved[..., 2 : 2 * d + 2])
        return np.fft.irfft(spectrum, self.n, axis=-1, out=out)

    def analyze_fft_order(self, values: np.ndarray, spectrum: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
        """analyze of values in the order of synthesize_fft_order into out,
        through the complex (..., n // 2 + 1) array spectrum."""
        d = self.d
        spec = np.fft.rfft(values, axis=-1, out=spectrum)
        if self.bc is NEUMANN:
            low = spec[..., : d + 1]
            np.multiply(low.real, self._analyze_re, out=out)
            out += np.multiply(low.imag, self._analyze_im, out=low.imag)
        else:
            interleaved = spec.view(float)
            np.multiply(interleaved[..., 0], self._analyze0, out=out[..., 0])
            np.multiply(interleaved[..., 2 : 2 * d + 2], self._pair_analyze, out=out[..., 1:])
        return out

    def endpoint_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values at x = 0 and x = L (off the Neumann midpoint grid), last axis."""
        return np.asarray(coeffs, dtype=float) @ self._ends


def to_grid(state: FourierState, n_grid: int) -> np.ndarray:
    """Sample the field on the n_grid-point grid native to its basis."""
    plan = TransformPlan(state.bc, state.L, state.d, n_grid)
    return plan.synthesize(state.coeffs)


def from_grid(samples: np.ndarray, bc: BoundaryCondition, L: float, d: int) -> FourierState:
    """Project grid samples onto the first modes (adjoint of to_grid)."""
    samples = np.asarray(samples, dtype=float)
    plan = TransformPlan(bc, L, d, samples.shape[-1])
    return FourierState(bc, L, d, plan.analyze(samples))


def sup_dist(a: FourierState, b: FourierState, refine: int = 8) -> float:
    """Sup-norm distance |u_a - u_b| approximated on a refined grid.

    The Monte Carlo hit check's formula: sup |R c|, c the difference of the
    coefficients (the lower cutoff's zero-padded) and R one plan's synthesis
    on refine*(2d+2) points plus the interval endpoints, which the Neumann
    midpoint grid misses.  Under-approximates the true sup norm by
    O((d / (refine d))^2) times the coefficient norm; refine=8 keeps that
    below ~1% for the profiles arising here.
    """
    if a.bc is not b.bc or a.L != b.L:
        raise ValueError("states must share boundary condition and length")
    d = max(a.d, b.d)
    diff = np.zeros(a.bc.n_coeffs(d))
    diff[: len(a.coeffs)] = a.coeffs
    diff[: len(b.coeffs)] -= b.coeffs
    plan = TransformPlan(a.bc, a.L, d, refined_grid_size(d, refine))
    return float(np.abs(np.concatenate([plan.synthesize(diff), plan.endpoint_values(diff)])).max())


def write_profile_csv(path, x: np.ndarray, u: np.ndarray, **meta) -> None:
    """CSV export: columns x,u with a comment header recording metadata."""
    items = " ".join(f"{k}={v}" for k, v in meta.items())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {items}\n")
        fh.write("x,u\n")
        for xi, ui in zip(x, u):
            fh.write(f"{xi:.17g},{ui:.17g}\n")
