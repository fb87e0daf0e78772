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

Transform plans hold no mutable scratch; they may be shared, but the
documented contract is one plan per task with freely shared immutable states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.fft import dct, idct, next_fast_len, rfft, irfft

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


def linearized_eigenvalue(bc: BoundaryCondition, L: float, k: int,
                          at: str = "origin", pot=None) -> float:
    """Eigenvalue of -Q[u*] for the constant states.

    at="origin": lambda_k = nu_k - 1 (the uniform saddle).
    at="minus_well": nu_k^- = nu_k + U''(u_-); requires pot.
    """
    base = nu(bc, L, k)
    if at == "origin":
        return base - 1.0
    if at == "minus_well":
        if pot is None:
            raise ValueError("minus_well eigenvalue needs the potential")
        return base + pot.derivative(pot.u_minus, 2)
    raise ValueError(f"unknown linearization point {at!r}")


def mode_indices(bc: BoundaryCondition, d: int) -> np.ndarray:
    """Wavenumber k per stored coordinate (cos/sin pairs share their k)."""
    k = np.arange(d + 1)
    return k if bc is NEUMANN else np.concatenate(([0], np.repeat(k[1:], 2)))


def mode_frequencies(bc: BoundaryCondition, L: float, d: int) -> np.ndarray:
    """nu_k per stored coordinate (cos/sin pairs share their nu_k)."""
    return nu(bc, L, mode_indices(bc, d))


def default_grid_size(d: int, p0: int = 2) -> int:
    """Alias-free quadrature size for degree-2*p0 local potentials."""
    return next_fast_len(max(2 * p0 * (d + 1), 2 * d + 2), real=True)


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
    periodic) and truncates to |k| <= d.
    """

    def __init__(self, bc: BoundaryCondition, L: float, d: int, n_grid: int):
        if n_grid < 2 * d + 2:
            raise GridTooSmall(f"n_grid={n_grid} < 2d+2={2*d+2}")
        self.bc = bc
        self.L = float(L)
        self.d = d
        self.n = int(n_grid)
        n, L = self.n, self.L
        # synthesize and analyze scales of coefficient 0 (Neumann: of every coefficient)
        if bc is NEUMANN:
            self._synth0, self._analyze0 = math.sqrt(n / L), math.sqrt(L / n)
        else:
            self._synth0, self._analyze0 = n / math.sqrt(L), math.sqrt(L) / n
        # periodic pairs (a_k, b_k) sit at (Re, Im) of rfft bin k, the b_k with a minus sign
        signs = np.tile([1.0, -1.0], d)
        self._pair_synth = 0.5 * n * math.sqrt(2.0 / L) * signs
        self._pair_analyze = math.sqrt(2.0 * L) / n * signs

    def grid(self) -> np.ndarray:
        if self.bc is NEUMANN:
            return (np.arange(self.n) + 0.5) * (self.L / self.n)
        return np.arange(self.n) * (self.L / self.n)

    def work(self, *lead: int) -> np.ndarray:
        """A zeroed spectrum buffer of shape (*lead, width), for synthesize(..., work=)."""
        if self.bc is NEUMANN:
            return np.zeros((*lead, self.n))
        return np.zeros((*lead, self.n // 2 + 1), dtype=complex)

    def synthesize(self, coeffs: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Grid samples of the states in coeffs.

        work, from self.work(rows) with rows >= len(coeffs), is reused for
        the spectrum of 2-D coeffs: only its first d+1 columns are written,
        so the rest stays zero.
        """
        c = np.asarray(coeffs, dtype=float)
        one = c.ndim == 1
        if one:
            c = c[None]
        d = self.d
        spec = self.work(*c.shape[:-1]) if work is None else work[: len(c)]
        if self.bc is NEUMANN:
            np.multiply(c, self._synth0, out=spec[..., : d + 1])
            out = idct(spec, type=2, norm="ortho", axis=-1)
        else:
            interleaved = spec.view(float)  # Re, Im of bin 0, then of bin 1, ...
            np.multiply(c[..., 0], self._synth0, out=interleaved[..., 0])
            np.multiply(c[..., 1:], self._pair_synth, out=interleaved[..., 2 : 2 * d + 2])
            out = irfft(spec, self.n, axis=-1)
        return out[0] if one else out

    def analyze(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of grid samples; out, if given, receives those of 2-D values."""
        v = np.asarray(values, dtype=float)
        one = v.ndim == 1
        if one:
            v = v[None]
        d = self.d
        if out is None:
            out = np.empty((*v.shape[:-1], self.bc.n_coeffs(d)))
        if self.bc is NEUMANN:
            spec = dct(v, type=2, norm="ortho", axis=-1)
            np.multiply(spec[..., : d + 1], self._analyze0, out=out)
        else:
            interleaved = rfft(v, axis=-1).view(float)
            np.multiply(interleaved[..., 0], self._analyze0, out=out[..., 0])
            np.multiply(interleaved[..., 2 : 2 * d + 2], self._pair_analyze, out=out[..., 1:])
        return out[0] if one else out

    def endpoint_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Field values at x = 0 and x = L (off the Neumann midpoint grid)."""
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))
        L, d = self.L, self.d
        if self.bc is NEUMANN:
            w0 = np.full(d + 1, math.sqrt(2.0 / L))
            w0[0] = 1.0 / math.sqrt(L)
            wL = w0 * (-1.0) ** np.arange(d + 1)
            out = np.stack([c @ w0, c @ wL], axis=-1)
        else:
            w = np.zeros(2 * d + 1)
            w[0] = 1.0 / math.sqrt(L)
            w[1::2] = math.sqrt(2.0 / L)
            vals = c @ w
            out = np.stack([vals, vals], axis=-1)
        return out[0] if np.asarray(coeffs).ndim == 1 else out


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

    Uses refine*(2d+2) points (plus the interval endpoints, which the Neumann
    midpoint grid misses).  Under-approximates the true sup norm by
    O((d / (refine d))^2) times the coefficient norm; refine=8 keeps that
    below ~1% for the profiles arising here.
    """
    if a.bc is not b.bc or a.L != b.L:
        raise ValueError("states must share boundary condition and length")
    if refine < 4:
        raise ValueError("refine must be >= 4")
    d = max(a.d, b.d)
    n = next_fast_len(refine * (2 * d + 2), real=True)
    pa = TransformPlan(a.bc, a.L, a.d, n)
    pb = TransformPlan(b.bc, b.L, b.d, n)
    diff = np.abs(pa.synthesize(a.coeffs) - pb.synthesize(b.coeffs))
    best = float(diff.max())
    ea = pa.endpoint_values(a.coeffs)
    eb = pb.endpoint_values(b.coeffs)
    return max(best, float(np.abs(ea - eb).max()))


def write_profile_csv(path, x: np.ndarray, u: np.ndarray, **meta) -> None:
    """CSV export: columns x,u with a comment header recording metadata."""
    items = " ".join(f"{k}={v}" for k, v in meta.items())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {items}\n")
        fh.write("x,u\n")
        for xi, ui in zip(x, u):
            fh.write(f"{xi:.17g},{ui:.17g}\n")
