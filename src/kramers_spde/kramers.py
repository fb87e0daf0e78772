"""Regime-dispatched Kramers-law predictions of the expected transition time.

The expected first-hitting time of the ball around u*_+ started near u*_-
is prefactor * exp(H0/eps), with the prefactor assembled from eigenvalue
ratios between the relevant transition state and the starting minimum:

  Neumann, lambda_1 > 0 away from 0 ("small L"):
      2 pi ( prod_{k>=1} lambda_k/nu_k^- / (|lambda_0| nu_0^-) )^{1/2}
  Neumann, lambda_1 < 0 away from 0 ("large L"): same with mu_k and a factor
      pi (two instantons),
  near the bifurcation the k=1 factor is regularized through Psi_+/Psi_-:
      (lambda_1 + sqrt(C eps)) and division by Psi_+(lambda_1/sqrt(C eps)),
      (mu_1 + sqrt(C eps)) and division by Psi_-(mu_1/sqrt(C eps)),

and the periodic analogues with doubly degenerate modes, Theta_+/Theta_- at
arguments lambda_1/sqrt(2 C eps) and mu_1/sqrt(8 C eps), and - away from the
bifurcation - the saddle-length factor sqrt(2 pi eps mu_1) / (L ||u'||_L2)
produced by the translation zero mode.

C is the quartic normal-form coefficient c4().  All products are carried in
log space; d is the Galerkin truncation (math.inf sums the tail to closed
form for the constant spectra and to a Weyl-asymptotic tail for instanton
spectra).  Instanton spectra are finite differences on the instanton's own
4096 samples (spectra.eigs_profile; periodic: its even and odd sectors, the
zero mode the odd ground state).  They do not depend on eps, so
_mu_spectrum keeps the last 64 in a functools.lru_cache keyed on
(U, L, bc, kmax_eig).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import zeta

from .errors import OutOfRegime, UnsupportedRegime, WrongBoundaryCondition
from .potential import LocalPotential
from .spectral import (BoundaryCondition, NEUMANN, PERIODIC, TransformPlan,
                       mode_frequencies)
from .spectra import eigs_profile, lambda_ratio_log_sum, lambda_ratio_product_infinite
from .stationary import InstantonProfile, instanton
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
    r = (8 pi^2 - 3 L^2)/(4 pi^2 - L^2) for Neumann and
    (32 pi^2 - 3 L^2)/(16 pi^2 - L^2) for periodic.  The pole of r (L = 2 pi
    resp. 4 pi) lies outside the supported neighbourhood.
    """
    u3 = float(pot.derivative(0.0, 3))
    u4 = float(pot.derivative(0.0, 4))
    if bc is NEUMANN:
        denom = 4.0 * math.pi ** 2 - L ** 2
        numer = 8.0 * math.pi ** 2 - 3.0 * L ** 2
    else:
        denom = 16.0 * math.pi ** 2 - L ** 2
        numer = 32.0 * math.pi ** 2 - 3.0 * L ** 2
    if abs(denom) < 1e-12 * math.pi ** 2:
        if u3 == 0.0:
            return u4 / (4.0 * L)
        raise OutOfRegime(f"rational factor pole at L = {L}")
    return (u4 + (numer / denom) * u3 ** 2) / (4.0 * L)


def saddle_length(profile: InstantonProfile) -> float:
    """Length of the periodic translation family, L * ||u'||_L2.

    The derivative norm is taken spectrally: the profile is projected on the
    periodic basis and ||u'||^2 = sum nu_k y_k^2 by Parseval.
    """
    if profile.bc is not PERIODIC:
        raise WrongBoundaryCondition("saddle length is defined for periodic profiles")
    n = profile.n_samples
    d = (n - 2) // 2
    plan = TransformPlan(PERIODIC, profile.L, d, n)
    coef = plan.analyze(profile.u[:n])
    nu_k = mode_frequencies(PERIODIC, profile.L, d)
    return profile.L * math.sqrt(float(np.dot(nu_k, coef ** 2)))


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
    """Ascending eigenvalues by mode label, up to k = kmax_eig.

    mu_k itself for Neumann; for periodic the list
    [mu_0, mu_-1, mu_1, sqrt(mu_2 mu_-2), sqrt(mu_3 mu_-3), ...] built by
    pairing consecutive eigenvalues beyond the first three.
    """
    if bc is NEUMANN:
        return ev[: kmax_eig + 1]
    pairs = ev[3 : 3 + 2 * (kmax_eig - 1)]
    return np.concatenate((ev[:3], np.sqrt(pairs[0::2] * pairs[1::2])))


@lru_cache(maxsize=64)
def _mu_spectrum(pot: LocalPotential, L: float, bc: BoundaryCondition, kmax_eig: int):
    """Instanton spectrum data, falling back to the constant saddle at threshold.

    Returns (profile_or_None, _label_mu(eigenvalues), mean_curvature), with
    read-only arrays.  None of it depends on eps, so the last 64 results are
    kept: a sweep solves each instanton once.
    """
    if L <= bc.bifurcation_length:
        # degenerate instanton: the uniform saddle; continuity limit mu_k = lambda_k
        prof, wbar = None, -1.0
        ev = mode_frequencies(bc, L, kmax_eig) - 1.0
    else:
        prof = instanton(pot, L, bc)
        ev = eigs_profile(prof, kmax=kmax_eig).eigenvalues
        wbar = float(np.mean(pot.derivative(prof.u[:prof.n_samples], 2)))
    mu = _label_mu(ev, bc, kmax_eig)
    mu.flags.writeable = False
    return prof, mu, wbar


def _mu_log_sum(mu_by_label, pot, L, bc, k_from, d, kmax_eig, wbar):
    """sum_{k=k_from}^{d} log(mu_k / nu_k^-), asymptotic tail beyond kmax_eig.

    Beyond the resolved eigenvalues, mu_k ~ nu_k(0) + mean(U''(u*)) (Weyl
    plus first-order perturbation), so the tail factors are
    (nu_k0 + wbar)/(nu_k0 + U''(u_-)); for d = inf the tail has a closed
    form in Hurwitz zeta values (_asymptotic_tail_log_inf).
    """
    w_minus = pot.derivative(pot.u_minus, 2)
    b = bc.mode_factor
    if bc is NEUMANN:
        mu_of = lambda k: mu_by_label[k]
    else:
        mu_of = lambda k: mu_by_label[k + 1]  # labeled[2] is mu_1
    k_res = min(kmax_eig, d) if d != math.inf else kmax_eig
    total = 0.0
    for k in range(k_from, k_res + 1):
        nu_km = (b * k * math.pi / L) ** 2 + w_minus
        total += math.log(mu_of(k)) - math.log(nu_km)
    if d == math.inf:
        total += _asymptotic_tail_log_inf(L, b, wbar, w_minus, k_res + 1)
    elif d > k_res:
        k = np.arange(k_res + 1, d + 1, dtype=float)
        nu0 = (b * k * math.pi / L) ** 2
        total += math.fsum(np.log(nu0 + wbar) - np.log(nu0 + w_minus))
    return total


def _asymptotic_tail_log_inf(L, b, w_num, w_den, k_from):
    """log prod_{k >= k_from} (nu_k0 + w_num)/(nu_k0 + w_den), in closed form.

    Written as sum_{k >= k_from} log((k^2+p)/(k^2+q)).  Past N, with
    N^2 >= 64 max(|p|, |q|), the log1p series sums over k to Hurwitz zeta
    values: sum_{k >= N} log(1 + p/k^2) = sum_m (-1)^(m+1) p^m zeta(2m, N)/m,
    whose terms fall by 64 or more each; the terms k_from <= k < N are summed
    directly.  No factor below k_from enters, so the zero factor at the
    bifurcation length (p = -1, k = 1) does no harm.
    """
    s = (L / (b * math.pi)) ** 2
    p, q = w_num * s, w_den * s
    N = max(k_from, math.ceil(8.0 * math.sqrt(max(abs(p), abs(q)))))
    k2 = np.arange(k_from, N, dtype=float) ** 2
    m = np.arange(1, 13)
    series = (-1.0) ** (m + 1) * (p ** m - q ** m) / m * zeta(2.0 * m, N)
    return math.fsum(np.log1p(p / k2) - np.log1p(q / k2)) + math.fsum(series)


def predict_time(pot: LocalPotential, L: float, bc: BoundaryCondition, eps: float,
                 d: float = math.inf, lambda_switch: float = 0.1,
                 force_regime: RegimeTag | None = None,
                 kmax_eig: int = 40) -> KramersPrediction:
    """Expected transition time E[tau_+] with regime dispatch on lambda_1.

    d is the Galerkin truncation of the eigenvalue-ratio products (math.inf
    takes the convergent infinite product).  The regime is selected by the
    sign and size of lambda_1 against lambda_switch; force_regime overrides
    the selection (the near-regime formulas stay evaluable on both sides of
    the bifurcation, which is how the continuity check is run).
    """
    if eps <= 0.0 or L <= 0.0:
        raise ValueError("need eps > 0 and L > 0")
    if d != math.inf:
        d = int(d)
        if d < 1:
            raise ValueError("d must be >= 1 or math.inf")
    second = 2.0 * bc.bifurcation_length
    if L > second:
        raise UnsupportedRegime(
            f"L = {L} beyond the second bifurcation ({second:.6g}); higher saddles untreated")

    w_minus = float(pot.derivative(pot.u_minus, 2))
    lam1 = (bc.bifurcation_length / L) ** 2 - 1.0
    nu1m = (bc.bifurcation_length / L) ** 2 + w_minus
    regime = force_regime or _select_regime(bc, lam1, lambda_switch)
    try:
        C = c4(pot, L, bc)
    except OutOfRegime:
        C = math.nan
    H0_const = -L * float(pot.derivative(pot.u_minus, 0))

    mu1 = None
    need_mu = regime in (RegimeTag.NEUMANN_NEAR_ABOVE, RegimeTag.NEUMANN_LARGE_L,
                         RegimeTag.PERIODIC_NEAR_ABOVE, RegimeTag.PERIODIC_LARGE_L)
    if need_mu:
        prof, mu_lab, wbar = _mu_spectrum(pot, L, bc, kmax_eig)
        H0 = (prof.V_value - L * float(pot.derivative(pot.u_minus, 0))) \
            if prof is not None else H0_const
    else:
        H0 = H0_const

    def lam_sum(k_from):
        if d == math.inf:
            return math.log(lambda_ratio_product_infinite(pot, L, bc, k_from))
        return lambda_ratio_log_sum(pot, L, bc, k_from, d)

    if regime is RegimeTag.NEUMANN_SMALL_L:
        log_pref = math.log(2.0 * math.pi) + 0.5 * (lam_sum(1) - math.log(w_minus))
        rem = _far_remainder(eps)
    elif regime is RegimeTag.NEUMANN_NEAR_BELOW:
        root = math.sqrt(C * eps)
        log_pref = (math.log(2.0 * math.pi)
                    + 0.5 * (math.log(lam1 + root) - math.log(w_minus * nu1m) + lam_sum(2))
                    - math.log(psi("+", lam1 / root)))
        rem = remainder_scale(eps, lam1)
    elif regime is RegimeTag.NEUMANN_NEAR_ABOVE:
        root = math.sqrt(C * eps)
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[1])
        s = _mu_log_sum(mu_lab, pot, L, bc, 2, d, kmax_eig, wbar)
        log_pref = (math.log(2.0 * math.pi)
                    + 0.5 * (math.log(mu1 + root) - math.log(abs(mu0) * w_minus * nu1m) + s)
                    - math.log(psi("-", mu1 / root)))
        rem = remainder_scale(eps, mu1)
    elif regime is RegimeTag.NEUMANN_LARGE_L:
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[1])
        s = _mu_log_sum(mu_lab, pot, L, bc, 1, d, kmax_eig, wbar)
        log_pref = math.log(math.pi) + 0.5 * (s - math.log(abs(mu0) * w_minus))
        rem = _far_remainder(eps)
    elif regime is RegimeTag.PERIODIC_SMALL_L:
        log_pref = math.log(2.0 * math.pi) - 0.5 * math.log(w_minus) + lam_sum(1)
        rem = _far_remainder(eps)
    elif regime is RegimeTag.PERIODIC_NEAR_BELOW:
        root = math.sqrt(2.0 * C * eps)
        log_pref = (math.log(2.0 * math.pi) - 0.5 * math.log(w_minus)
                    + math.log(lam1 + root) - math.log(nu1m) + lam_sum(2)
                    - math.log(theta("+", lam1 / root)))
        rem = remainder_scale(eps, lam1)
    elif regime is RegimeTag.PERIODIC_NEAR_ABOVE:
        root = math.sqrt(2.0 * C * eps)
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[2])
        s = _mu_log_sum(mu_lab, pot, L, bc, 2, d, kmax_eig, wbar)
        log_pref = (math.log(2.0 * math.pi) - 0.5 * math.log(abs(mu0) * w_minus)
                    + math.log(root) - math.log(nu1m) + s
                    - math.log(theta("-", mu1 / math.sqrt(8.0 * C * eps))))
        rem = remainder_scale(eps, mu1)
    elif regime is RegimeTag.PERIODIC_LARGE_L:
        if prof is None:
            raise ValueError("large-L regime needs an instanton; L is below threshold")
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[2])
        s = _mu_log_sum(mu_lab, pot, L, bc, 2, d, kmax_eig, wbar)
        ell = saddle_length(prof)
        log_pref = (math.log(2.0 * math.pi) - 0.5 * math.log(abs(mu0) * w_minus)
                    + 0.5 * math.log(2.0 * math.pi * eps * mu1) - math.log(nu1m) + s
                    - math.log(ell))
        rem = _far_remainder(eps)
    else:  # pragma: no cover
        raise ValueError(f"unhandled regime {regime}")

    log_time = log_pref + H0 / eps
    expected = math.exp(log_time) if log_time < _EXP_MAX else math.inf
    return KramersPrediction(
        regime=regime, bc=bc, L=L, eps=eps, H0=H0,
        prefactor=math.exp(log_pref), log_prefactor=log_pref,
        expected_time=expected, log10_expected_time=log_time / math.log(10.0),
        remainder_scale=rem, C4=C, lambda1=lam1, mu1=mu1,
        d_used=d)
