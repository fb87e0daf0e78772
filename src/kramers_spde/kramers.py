"""Regime-dispatched Kramers-law predictions of the expected transition time.

The expected first-hitting time of the ball around u*_+ started near u*_-
is prefactor * exp(H0/eps), with one Eyring-Kramers prefactor for all
eight (bc, regime) pairs, nu_k^- = nu_k + U''(u_-) and S_2 =
sum_{k=2}^{d} log(sigma_k / nu_k^-):

  log prefactor = log 2 pi - 1/2 log(|sigma_0| nu_0^-)
                  + h (log x - log nu_1^- + S_2) - log F

h = 1/2 for Neumann and 1 for periodic (each k >= 1 a cos/sin pair).  The
saddle supplies (sigma_0, sigma_1, S_2): the uniform saddle u = 0 has
sigma_0 = -1, sigma_k = lambda_k; above the bifurcation length L_c the
instanton has sigma_k = mu_k.  The regime supplies the mode-1 factor x and
the divisor F, with r = sqrt(C eps) (Neumann) or sqrt(2 C eps) (periodic)
and C = c4():

  regime      saddle             x: N | P                          F: N | P
  small_l     uniform            lambda_1                          1
  near_below  uniform            lambda_1 + r                      Psi_+ | Theta_+ (lambda_1/r)
  near_above  instanton, L > L_c mu_1 + r | r                      Psi_-(mu_1/r) | Theta_-(mu_1/2r)
  large_l     instanton, L > L_c mu_1/4 | sqrt(2 pi eps mu_1)/ell  1

mu_1/4 carries the 1/2 of two Neumann instantons; ell = L ||u'||_L2 is the
saddle_length() of the periodic translation orbit, with ||u'|| the
instanton's own deriv_L2 (from its orbit's quadrature rule).  d is the Galerkin
truncation, math.inf for the infinite product.  Past the saddle's resolved
eigenvalues each factor of S_2 is (nu_k + wbar)/nu_k^-: at the uniform
saddle wbar = U''(0) = -1, exact for every k; at the instanton mu_k is
resolved up to kmax_eig and wbar = c_0 / X is the mean of U''(u*) (Weyl
asymptotics plus first-order perturbation).  So

  S_2 = sum_{k=2}^{min(kmax_eig, d)} log(mu_k / (nu_k + wbar))   (instanton only)
        + log prod_{k=2}^{d} (nu_k + wbar) / nu_k^-,

the product in sin/sinh closed form at d = inf and a sum of logs below
(spectra.lambda_ratio_product_infinite, lambda_ratio_log_sum).  Instanton
spectra are finite differences on the 1024 and 2048 point grids, solved in
the FD Laplacian's cosine/Fourier eigenbasis (periodic: its cosine and sine
sectors, the zero mode the sine ground state) from the cosine moments c_m
of U''(u*) on the instanton's orbit (spectra.eigs_orbit,
stationary.instanton_orbit), which set one coupling block for both grids
(they differ only in the FD Laplacian's eigenvalues kappa_k).  The spectrum
does not depend on eps, so _mu_spectrum keeps the last 64 in a
functools.lru_cache keyed on (U, L, bc, kmax_eig).  Every regime runs on
numpy and the stdlib: the prediction path imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import OutOfRegime, UnsupportedRegime, WrongBoundaryCondition, require_finite
from .potential import LocalPotential
from .spectral import BoundaryCondition, NEUMANN, PERIODIC, nu
from .spectra import eigs_orbit, lambda_ratio_log_sum, lambda_ratio_product_infinite
from .stationary import InstantonOrbit, instanton_orbit
# perfbench/tracing.py patches these two names here; the prediction path no
# longer calls them
from .spectra import eigs_profile  # noqa: F401
from .stationary import instanton  # noqa: F401
from .specialfn import psi, theta

_EXP_MAX = 700.0


class RegimeTag(Enum):
    NEUMANN_SMALL_L = "neumann_small_l"
    NEUMANN_NEAR_BELOW = "neumann_near_below"
    NEUMANN_NEAR_ABOVE = "neumann_near_above"
    NEUMANN_LARGE_L = "neumann_large_l"
    PERIODIC_SMALL_L = "periodic_small_l"
    PERIODIC_NEAR_BELOW = "periodic_near_below"
    PERIODIC_NEAR_ABOVE = "periodic_near_above"
    PERIODIC_LARGE_L = "periodic_large_l"


@dataclass(frozen=True)
class KramersPrediction:
    """Predicted expected transition time and its ingredients."""

    regime: RegimeTag
    bc: BoundaryCondition
    L: float
    eps: float
    H0: float
    prefactor: float
    log_prefactor: float
    expected_time: float
    log10_expected_time: float
    remainder_scale: float
    C4: float
    lambda1: float
    mu1: float | None
    d_used: float  # finite truncation or math.inf


def c4(pot: LocalPotential, L: float, bc: BoundaryCondition) -> float:
    """Quartic normal-form coefficient C4(L) of the bifurcating mode.

    (1/4L) [U''''(0) + r(L) U'''(0)^2] with the rational factor
    r = (2 P - 3 L^2)/(P - L^2), P = (2 L_c)^2 for the bifurcation length L_c
    (4 pi^2 Neumann, 16 pi^2 periodic).  The pole of r (L = 2 L_c: 2 pi resp.
    4 pi) lies outside the supported neighbourhood.
    """
    u3 = float(pot.derivative(0.0, 3))
    u4 = float(pot.derivative(0.0, 4))
    pole = (2.0 * bc.bifurcation_length) ** 2
    denom = pole - L ** 2
    numer = 2.0 * pole - 3.0 * L ** 2
    if abs(denom) < 1e-12 * math.pi ** 2:
        if u3 == 0.0:
            return u4 / (4.0 * L)
        raise OutOfRegime(f"rational factor pole at L = {L}")
    return (u4 + (numer / denom) * u3 ** 2) / (4.0 * L)


def saddle_length(orbit: InstantonOrbit) -> float:
    """Length of the periodic translation family, L * ||u'||_L2 (the orbit's
    deriv_L2; a profile is its orbit)."""
    if orbit.bc is not PERIODIC:
        raise WrongBoundaryCondition("saddle length is defined for periodic profiles")
    return orbit.L * orbit.deriv_L2


def remainder_scale(eps: float, lam: float) -> float:
    """Order of the near-bifurcation relative error band.

    [eps |log eps|^3 / max(|lam|, sqrt(eps |log eps|))]^{1/2}; away from the
    bifurcation |lam| dominates and this reduces to sqrt(eps) |log eps|^{3/2}
    over sqrt(|lam|).
    """
    lg = abs(math.log(eps))
    return math.sqrt(eps * lg ** 3 / max(abs(lam), math.sqrt(eps * lg)))


def _far_remainder(eps: float) -> float:
    return math.sqrt(eps) * abs(math.log(eps)) ** 1.5


def _select_regime(bc: BoundaryCondition, lam1: float, switch: float) -> RegimeTag:
    if lam1 > switch:
        side = "small_l"
    elif lam1 >= 0.0:
        side = "near_below"
    elif lam1 >= -switch:
        side = "near_above"
    else:
        side = "large_l"
    return RegimeTag(f"{bc.value}_{side}")


def _label_mu(ev: np.ndarray, bc: BoundaryCondition, kmax_eig: int) -> np.ndarray:
    """Ascending eigenvalues by mode label, mu_0 .. mu_kmax_eig.

    mu_k itself for Neumann; for periodic [mu_0, mu_1, sqrt(mu_2 mu_-2), ...]
    by pairing consecutive eigenvalues beyond the first three.  The periodic
    translation zero mode ev[1] enters no formula and is dropped, so index k
    is mode k for both b.c.
    """
    if bc is NEUMANN:
        return ev[: kmax_eig + 1]
    pairs = ev[3 : 3 + 2 * (kmax_eig - 1)]
    return np.concatenate((ev[[0, 2]], np.sqrt(pairs[0::2] * pairs[1::2])))


@lru_cache(maxsize=64)
def _mu_spectrum(pot: LocalPotential, L: float, bc: BoundaryCondition, kmax_eig: int):
    """Instanton spectrum data for L above the bifurcation length.

    Returns (orbit, _label_mu(eigenvalues), mean_curvature): the instanton's
    orbit without samples (instanton_orbit), its spectrum from the orbit's
    cosine moments (eigs_orbit) and the mean of U''(u*) (c_0 / X), the
    curvature of S_2's factors past kmax_eig.  The array is read-only.
    None of it depends on eps, so the last 64 results are kept: a sweep
    solves each instanton once.
    """
    orbit = instanton_orbit(pot, L, bc)
    mu = _label_mu(eigs_orbit(orbit, kmax=kmax_eig).eigenvalues, bc, kmax_eig)
    mu.flags.writeable = False
    return orbit, mu, orbit.mean_curvature


def predict_time(pot: LocalPotential, L: float, bc: BoundaryCondition, eps: float,
                 d: float = math.inf, lambda_switch: float = 0.1,
                 force_regime: RegimeTag | None = None,
                 kmax_eig: int = 40) -> KramersPrediction:
    """Expected transition time E[tau_+] with regime dispatch on lambda_1.

    d, an integer >= 1 or math.inf (the convergent infinite product), is
    the Galerkin truncation of the eigenvalue-ratio products.  The regime is
    selected by the sign and size of lambda_1 against lambda_switch >= 0;
    force_regime, one of bc's own regimes, overrides the selection (the
    near-regime formulas stay evaluable on both sides of the bifurcation,
    which is how the continuity check is run).  The prefactor is the module docstring's one
    formula; a forced regime whose mode-1 factor x is not positive raises
    OutOfRegime, and so does a near regime unless C4 > 0 (no quartic normal
    form) or at the pole of C4's rational factor.
    """
    require_finite(L=L, eps=eps)
    if eps <= 0.0 or L <= 0.0:
        raise ValueError("need eps > 0 and L > 0")
    if not lambda_switch >= 0.0:
        raise ValueError(f"lambda_switch must be >= 0, got {lambda_switch}")
    if d != math.inf:
        if not (d >= 1 and d == int(d)):
            raise ValueError(f"d must be an integer >= 1 or math.inf, got {d}")
        d = int(d)
    Lc = bc.bifurcation_length
    if L > 2.0 * Lc:
        raise UnsupportedRegime(
            f"L = {L} beyond the second bifurcation ({2.0 * Lc:.6g}); higher saddles untreated")

    w_minus = float(pot.derivative(pot.u_minus, 2))
    nu1 = nu(bc, L, 1)  # the bits of the nu_1 inside the products
    lam1 = nu1 - 1.0
    nu1m = nu1 + w_minus
    regime = force_regime or _select_regime(bc, lam1, lambda_switch)
    family, side = regime.value.split("_", 1)
    if family != bc.value:
        raise ValueError(f"regime {regime.value} does not apply to bc = {bc.value}")
    near = side.startswith("near")
    try:
        C = c4(pot, L, bc)
    except OutOfRegime:  # the pole of its rational factor, which the near regimes need
        if near:
            raise
        C = math.nan
    if near and C <= 0.0:
        raise OutOfRegime(f"{regime.value} needs C4 > 0, got C4 = {C:.6g} at L = {L}: "
                          "the potential has no quartic normal form there")
    h = 0.5 if bc is NEUMANN else 1.0

    # the saddle supplies sigma_0, sigma_1 and S_2; the regime x and F
    V_minus = L * float(pot.derivative(pot.u_minus, 0))
    orbit, H0, sigma0, sigma1, mu1, wbar = None, -V_minus, -1.0, lam1, None, -1.0
    if side in ("near_above", "large_l"):
        if L > Lc:
            orbit, mu, wbar = _mu_spectrum(pot, L, bc, kmax_eig)
            H0, sigma0, sigma1 = orbit.V_value - V_minus, float(mu[0]), float(mu[1])
        mu1 = sigma1
    if side == "small_l":
        x = sigma1
    elif near:
        r = math.sqrt(2.0 * h * C * eps)
        x = r if side == "near_above" and bc is PERIODIC else sigma1 + r
    elif bc is NEUMANN:
        x = sigma1 / 4.0  # two instantons
    elif orbit is None:
        raise ValueError(f"{regime.value} needs an instanton; L = {L} is not above {Lc:.6g}")
    else:
        x = math.sqrt(2.0 * math.pi * eps * sigma1) / saddle_length(orbit)
    if x <= 0.0:
        raise OutOfRegime(f"{regime.value} does not hold at L = {L}: its mode-1 factor "
                          f"{x:.6g} is not positive")
    s2 = (math.log(lambda_ratio_product_infinite(pot, L, bc, wbar)) if d == math.inf
          else lambda_ratio_log_sum(pot, L, bc, d, wbar))
    if orbit is not None:  # the resolved mu_k in place of nu_k + wbar
        k = np.arange(2, min(kmax_eig, d) + 1)
        s2 = math.fsum([*(np.log(mu[k]) - np.log(nu(bc, L, k) + wbar)), s2])
    F = 1.0
    if side == "near_below":
        F = (psi if bc is NEUMANN else theta)("+", sigma1 / r)
    elif side == "near_above":
        F = psi("-", sigma1 / r) if bc is NEUMANN else theta("-", sigma1 / (2.0 * r))
    log_pref = (math.log(2.0 * math.pi) - 0.5 * math.log(abs(sigma0) * w_minus)
                + h * (math.log(x) - math.log(nu1m) + s2) - math.log(F))
    rem = remainder_scale(eps, sigma1) if near else _far_remainder(eps)

    log_time = log_pref + H0 / eps
    expected = math.exp(log_time) if log_time < _EXP_MAX else math.inf
    return KramersPrediction(
        regime=regime, bc=bc, L=L, eps=eps, H0=H0,
        prefactor=math.exp(log_pref), log_prefactor=log_pref,
        expected_time=expected, log10_expected_time=log_time / math.log(10.0),
        remainder_scale=rem, C4=C, lambda1=lam1, mu1=mu1,
        d_used=d)
