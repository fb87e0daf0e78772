import json
import math
import re
from collections import Counter
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import simpson

from kramers_spde import (BoundaryCondition, DomainError, KramersPrediction, KramersSpdeError,
                          LocalPotential, NEUMANN, OutOfRegime, PERIODIC, RegimeTag,
                          UnsupportedRegime, WrongBoundaryCondition, c4, closed_form_product,
                          eigs_profile, instanton, predict_time, quartic, saddle_length)
from kramers_spde import kramers, stationary
from kramers_spde.kramers import _select_regime, remainder_scale
from kramers_spde.spectra import (eigs_orbit, lambda_ratio_log_sum,
                                  lambda_ratio_product_infinite)
from kramers_spde.spectral import mode_frequencies, mode_indices, nu
from kramers_spde.specialfn import psi, theta


def test_c4_values(pot):
    assert c4(pot, math.pi, NEUMANN) == pytest.approx(6.0 / (4.0 * math.pi), rel=1e-14)
    # with U'''(0) = 0 the rational factor is irrelevant and both b.c. agree
    for L in (1.0, 2.0, 3.0):
        assert c4(pot, L, NEUMANN) == c4(pot, L, PERIODIC) == pytest.approx(1.5 / L)


def test_c4_consistency_with_cubic_jet():
    from kramers_spde import LocalPotential
    pot3 = LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25])
    u3 = pot3.derivative(0.0, 3)
    u4 = pot3.derivative(0.0, 4)
    L = 2.0
    # oracle: a3/a4 normal-form combination with a3 = U'''(0)/(2 sqrt L),
    # a4 = U''''(0)/(6 L), lambda_0 = -1, lambda_2 = (2 pi / L)^2 - 1
    a3 = u3 / (2.0 * math.sqrt(L))
    a4 = u4 / (6.0 * L)
    lam2 = (2 * math.pi / L) ** 2 - 1.0
    expect = 1.5 * a4 + 2.0 * a3**2 * (1.0 - 1.0 / (2.0 * lam2))
    assert c4(pot3, L, NEUMANN) == pytest.approx(expect, rel=1e-12)


def test_saddle_length(pot):
    prof = instanton(pot, 7.0, PERIODIC)
    ell = saddle_length(prof)
    # oracle: L * ||u'||_L2 from the stored derivative samples (trapezoid)
    n = prof.n_samples
    direct = 7.0 * math.sqrt(np.trapezoid(prof.du**2, dx=7.0 / n))
    assert ell == pytest.approx(direct, rel=1e-8)
    # quadrature self-consistency under resolution doubling
    prof2 = instanton(pot, 7.0, PERIODIC, n_samples=8192)
    assert saddle_length(prof2) == pytest.approx(ell, rel=1e-6)
    with pytest.raises(WrongBoundaryCondition):
        saddle_length(instanton(pot, 4.0, NEUMANN))


@pytest.mark.parametrize("bc, L", [(NEUMANN, 4.5), (NEUMANN, 6.2), (PERIODIC, 9.0),
                                   (PERIODIC, 12.3)])
@pytest.mark.parametrize("coefficients", [None, [0, 0, -0.5, 0.1, 0.25]])
def test_saddle_length_and_energy_match_simpson(pot, coefficients, bc, L):
    # deriv_L2 and V_value come from the orbit rule, not from the samples;
    # the oracle is Simpson's rule on a 32768-sample profile: L * deriv_L2
    # (the periodic saddle length) within 8e-14 of L sqrt(int u'^2), and
    # V_value within 1e-13 of int u'^2/2 + U(u) (measured at most 3.9e-15
    # and 1.1e-14, for the asymmetric potential)
    p = pot if coefficients is None else LocalPotential.from_coefficients(coefficients)
    prof = instanton(p, L, bc)
    fine = instanton(p, L, bc, n_samples=32768)
    ell = L * math.sqrt(simpson(fine.du ** 2, dx=L / fine.n_samples))
    energy = simpson(0.5 * fine.du ** 2 + p.derivative(fine.u, 0), dx=L / fine.n_samples)
    assert abs(L * prof.deriv_L2 - ell) <= 8e-14 * ell
    if bc is PERIODIC:
        assert saddle_length(prof) == L * prof.deriv_L2
    assert abs(prof.V_value - energy) <= 1e-13 * abs(energy)


def test_saddle_length_near_bifurcation_selfconsistent(pot):
    # the measured length follows 2 pi sqrt(mu_1 / (2 C4)) near threshold
    # (the compatible normalization; see the acceptance suite for the variant)
    L = 2 * math.pi + 0.05
    prof = instanton(pot, L, PERIODIC)
    mu1 = eigs_profile(prof, kmax=3).eigenvalues[2]
    expect = 2 * math.pi * math.sqrt(mu1 / (2.0 * c4(pot, L, PERIODIC)))
    assert saddle_length(prof) == pytest.approx(expect, rel=0.01)


def test_predict_headline_example(pot):
    p = predict_time(pot, 1.0, NEUMANN, 0.05)
    assert p.regime is RegimeTag.NEUMANN_SMALL_L
    assert p.H0 == pytest.approx(0.25)
    assert p.prefactor == pytest.approx(closed_form_product(pot, 1.0, NEUMANN), rel=1e-12)
    assert p.expected_time == pytest.approx(3.4841268529728 * math.exp(5.0), rel=1e-9)
    # cross-oracle: truncated product at d = 1e5
    p_trunc = predict_time(pot, 1.0, NEUMANN, 0.05, d=10**5)
    assert p_trunc.expected_time == pytest.approx(p.expected_time, rel=1e-5)


def test_predict_continuity_at_bifurcation(pot):
    for bc, Lc in ((NEUMANN, math.pi), (PERIODIC, 2 * math.pi)):
        below, above = {
            NEUMANN: (RegimeTag.NEUMANN_NEAR_BELOW, RegimeTag.NEUMANN_NEAR_ABOVE),
            PERIODIC: (RegimeTag.PERIODIC_NEAR_BELOW, RegimeTag.PERIODIC_NEAR_ABOVE),
        }[bc]
        lo = predict_time(pot, Lc, bc, 0.01, force_regime=below)
        hi = predict_time(pot, Lc, bc, 0.01, force_regime=above)
        assert hi.expected_time == pytest.approx(lo.expected_time, rel=1e-6)


def test_predict_continuity_through_real_instanton(pot):
    lo = predict_time(pot, math.pi - 1e-8, NEUMANN, 0.01)
    hi = predict_time(pot, math.pi + 1e-8, NEUMANN, 0.01)
    assert lo.regime is RegimeTag.NEUMANN_NEAR_BELOW
    assert hi.regime is RegimeTag.NEUMANN_NEAR_ABOVE
    assert hi.expected_time == pytest.approx(lo.expected_time, rel=1e-5)


def test_overlap_window_consistency(pot):
    # |lambda_1| in [0.05, 0.15]: near and far formulas differ by less than
    # the larger remainder band
    for bc in (NEUMANN, PERIODIC):
        b = bc.mode_factor
        for lam_abs in (0.05, 0.1, 0.15):
            L_below = b * math.pi / math.sqrt(1.0 + lam_abs)
            near_b, far_b = {
                NEUMANN: (RegimeTag.NEUMANN_NEAR_BELOW, RegimeTag.NEUMANN_SMALL_L),
                PERIODIC: (RegimeTag.PERIODIC_NEAR_BELOW, RegimeTag.PERIODIC_SMALL_L),
            }[bc]
            pn = predict_time(pot, L_below, bc, 0.01, force_regime=near_b)
            pf = predict_time(pot, L_below, bc, 0.01, force_regime=far_b)
            gap = abs(pn.expected_time - pf.expected_time) / min(pn.expected_time,
                                                                 pf.expected_time)
            assert gap <= max(pn.remainder_scale, pf.remainder_scale)
            L_above = b * math.pi / math.sqrt(1.0 - lam_abs)
            near_a, far_a = {
                NEUMANN: (RegimeTag.NEUMANN_NEAR_ABOVE, RegimeTag.NEUMANN_LARGE_L),
                PERIODIC: (RegimeTag.PERIODIC_NEAR_ABOVE, RegimeTag.PERIODIC_LARGE_L),
            }[bc]
            pa = predict_time(pot, L_above, bc, 0.01, force_regime=near_a,
                              kmax_eig=24)
            fa = predict_time(pot, L_above, bc, 0.01, force_regime=far_a,
                              kmax_eig=24)
            gap = abs(pa.expected_time - fa.expected_time) / min(pa.expected_time,
                                                                 fa.expected_time)
            assert gap <= max(pa.remainder_scale, fa.remainder_scale)


def test_periodic_sqrt_eps_prefactor_scaling(pot):
    L = 2 * math.pi + 0.3
    p1 = predict_time(pot, L, PERIODIC, 0.05, force_regime=RegimeTag.PERIODIC_LARGE_L)
    p2 = predict_time(pot, L, PERIODIC, 0.0125, force_regime=RegimeTag.PERIODIC_LARGE_L)
    assert p1.prefactor / p2.prefactor == pytest.approx(2.0, rel=1e-12)
    # in the naturally selected near regime the scaling holds approximately
    n1 = predict_time(pot, L, PERIODIC, 0.05)
    n2 = predict_time(pot, L, PERIODIC, 0.0125)
    assert 1.7 <= n1.prefactor / n2.prefactor <= 2.6


def test_d_monotone_convergence(pot):
    pinf = predict_time(pot, 1.0, NEUMANN, 0.05)
    gaps = [abs(predict_time(pot, 1.0, NEUMANN, 0.05, d=dd).expected_time
                - pinf.expected_time) for dd in (8, 16, 32, 64, 128)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # past the resolved modes each factor is (nu_k + wbar)/nu_k^-, so the
    # prefactor at d misses -h sum_{k > d} log((k^2 + s wbar)/(k^2 + s w_-)),
    # s = (L / b pi)^2: h (w_- - wbar) s (1/d - 1/(2 d^2)) up to O(s / d^3),
    # for the uniform saddle (wbar = -1) and the instanton alike
    d = 20000
    for p in (pot, _ASYMMETRIC):
        w_minus = p.derivative(p.u_minus, 2)
        for bc, lengths in ((NEUMANN, (1.0, 3.0, 3.3, 4.5, 6.0)),
                            (PERIODIC, (4.0, 6.0, 6.5, 9.0, 12.0))):
            h = 0.5 if bc is NEUMANN else 1.0
            for L in lengths:
                wbar = (kramers._mu_spectrum(p, L, bc, 40)[2]
                        if L > bc.bifurcation_length else -1.0)
                s = (L / (bc.mode_factor * math.pi)) ** 2
                gap = (predict_time(p, L, bc, 0.05, d=d).log_prefactor
                       - predict_time(p, L, bc, 0.05).log_prefactor)
                rate = h * (w_minus - wbar) * s * (1.0 / d - 0.5 / d ** 2)
                assert abs(gap - rate) <= 1e-11, (bc, L)


@pytest.mark.parametrize("d", [2.5, math.nan, -math.inf, 0, -3, 0.5])
def test_truncation_must_be_a_positive_integer_or_inf(pot, d):
    # a fractional d was truncated silently; NaN and -inf failed in int()
    with pytest.raises(ValueError, match=re.escape(
            f"d must be an integer >= 1 or math.inf, got {d}")):
        predict_time(pot, 4.0, NEUMANN, 0.05, d=d)
    # a whole number of any numeric type is a truncation
    want = predict_time(pot, 4.0, NEUMANN, 0.05, d=15)
    for whole in (15.0, np.int64(15)):
        got = predict_time(pot, 4.0, NEUMANN, 0.05, d=whole)
        assert got.log10_expected_time == want.log10_expected_time and got.d_used == 15


def test_large_L_neumann_prefactor_vs_small_L_structure(pot):
    # the large-L regime (two instantons) carries prefactor pi, not 2 pi:
    # forcing large-L at a point where mu ~ lambda gives half the small-L value
    p = predict_time(pot, 4.0, NEUMANN, 0.05)
    assert p.regime is RegimeTag.NEUMANN_LARGE_L
    assert p.mu1 is not None and p.mu1 > 0
    assert p.H0 < 1.0  # instanton barrier strictly below the uniform-saddle one
    assert p.expected_time > 0


def test_unsupported_regimes(pot):
    with pytest.raises(UnsupportedRegime):
        predict_time(pot, 2 * math.pi + 0.2, NEUMANN, 0.05)
    with pytest.raises(UnsupportedRegime):
        predict_time(pot, 4 * math.pi + 0.2, PERIODIC, 0.05)
    # boundary values are allowed
    predict_time(pot, 2 * math.pi, NEUMANN, 0.05)


def test_remainder_scale_form():
    eps = 0.01
    lg = abs(math.log(eps))
    assert remainder_scale(eps, 1.0) == pytest.approx(math.sqrt(eps * lg**3))
    # small lambda saturates at sqrt(eps |log eps|)
    assert remainder_scale(eps, 0.0) == pytest.approx(
        math.sqrt(eps * lg**3 / math.sqrt(eps * lg)))


def test_prediction_fields(pot):
    p = predict_time(pot, 1.0, NEUMANN, 3e-4)
    assert isinstance(p, KramersPrediction)
    assert p.expected_time == math.inf  # exceeds float range; log10 still finite
    assert p.log10_expected_time == pytest.approx(
        (math.log(p.prefactor) + 0.25 / 3e-4) / math.log(10.0), rel=1e-12)
    assert p.remainder_scale >= 0.0
    assert p.d_used == math.inf


_K_BRUTE = 2_000_000


def _brute_tail(p, q, k_from):
    """sum_{k >= k_from} log((k^2+p)/(k^2+q)): fsum to K = 2e6, then the 1/k^2 remainder."""
    k2 = np.arange(k_from, _K_BRUTE + 1, dtype=float) ** 2
    K = float(_K_BRUTE)
    total = math.fsum(np.log1p(p / k2) - np.log1p(q / k2))
    return total + (p - q) * (1.0 / K - 1.0 / (2.0 * K * K) + 1.0 / (6.0 * K ** 3))


@settings(max_examples=20, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), s=st.floats(0.1, 3.9),
       w_num=st.floats(-1.0, 2.0), w_den=st.floats(0.5, 4.0))
# at the bifurcation length the uniform saddle's k = 1 factor is exactly 0;
# a product from k = 2 with w_num = U''(0) = -1 never meets it
@example(bc=NEUMANN, s=1.0, w_num=-1.0, w_den=2.0)
@example(bc=PERIODIC, s=1.0, w_num=-1.0, w_den=2.0)
# sin(pi (1 - r)) keeps no digit of sin(pi r) at tiny r, so small r takes sin(pi r)
@example(bc=NEUMANN, s=1.0, w_num=-4.490603801025072e-277, w_den=1.0)
def test_tail_closed_form_matches_brute_force(bc, s, w_num, w_den):
    # prod_{k >= 2} (nu_k + w_num)/(nu_k + w_den), nu_k = k^2 / s; the
    # product reads the potential only for its U''(u_-) = w_den
    L = bc.mode_factor * math.pi * math.sqrt(s)
    well = SimpleNamespace(u_minus=-1.0, derivative=lambda u, order: w_den)
    got = math.log(lambda_ratio_product_infinite(well, L, bc, w_num))
    assert got == pytest.approx(_brute_tail(w_num * s, w_den * s, 2), abs=1e-12)


@pytest.fixture()
def cold_memo():
    kramers._mu_spectrum.cache_clear()
    yield
    kramers._mu_spectrum.cache_clear()


def test_instanton_and_spectrum_solved_once_per_length(pot, monkeypatch, cold_memo):
    # the E* solve and the moment spectrum run once per length; the sampled
    # instanton and its FD spectrum not at all
    calls = Counter()

    def counted(name):
        fn = getattr(kramers, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("instanton_orbit", "eigs_orbit", "instanton", "eigs_profile"):
        monkeypatch.setattr(kramers, name, counted(name))
    for eps in (0.02, 0.05, 0.1):
        assert predict_time(pot, 5.0, NEUMANN, eps).regime is RegimeTag.NEUMANN_LARGE_L
    assert calls == {"instanton_orbit": 1, "eigs_orbit": 1}


@pytest.mark.parametrize("bc, L", [(NEUMANN, 4.0), (PERIODIC, 7.0)])
def test_memoised_spectrum_is_read_only(pot, bc, L, cold_memo):
    orbit, mu, *_ = kramers._mu_spectrum(pot, L, bc, 40)
    assert not mu.flags.writeable
    assert not any(a.flags.writeable for a in orbit.rule if isinstance(a, np.ndarray))
    with pytest.raises(ValueError):
        mu[0] = 0.0


_REGIME_LENGTHS = {NEUMANN: (1.0, 3.0, 3.3, 4.5), PERIODIC: (4.0, 6.0, 6.5, 9.0)}


@pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
@pytest.mark.parametrize("coefficients", [None, [0, 0, -0.5, 0.1, 0.25]])
def test_predictions_take_no_instanton_samples(pot, coefficients, bc, monkeypatch, cold_memo):
    # every regime predicts from the orbit's moments: the sampler never runs
    def no_samples(*args, **kwargs):
        raise AssertionError("the prediction path sampled the instanton")

    monkeypatch.setattr(stationary, "_sample_phases", no_samples)
    p = pot if coefficients is None else LocalPotential.from_coefficients(coefficients)
    regimes = {predict_time(p, L, bc, 0.05, d=d).regime
                for L in _REGIME_LENGTHS[bc] for d in (math.inf, 15)}
    assert regimes == {t for t in RegimeTag if t.value.startswith(bc.value)}


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.3), (NEUMANN, 6.0), (PERIODIC, 6.5),
                                   (PERIODIC, 12.0)])
@pytest.mark.parametrize("coefficients", [None, [0, 0, -0.5, 0.1, 0.25]])
def test_mean_curvature_matches_the_trapezoid_rule(pot, coefficients, bc, L, cold_memo):
    # the tail's mean of U''(u*) against the trapezoid rule on 32768 samples
    # (measured within 7.8e-16); a left-rectangle mean of the 4096 samples
    # is off by (U''(u2) - U''(u3)) / 8192 for Neumann b.c., 5.5e-5 for the
    # asymmetric potential at L = 3.3
    p = pot if coefficients is None else LocalPotential.from_coefficients(coefficients)
    wbar = kramers._mu_spectrum(p, L, bc, 40)[2]
    fine = instanton(p, L, bc, n_samples=32768)
    trapezoid = np.trapezoid(p.derivative(fine.u, 2), dx=L / fine.n_samples) / L
    assert abs(wbar - trapezoid) <= 1e-14


@pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
def test_forced_near_above_at_threshold_uses_the_uniform_saddle(pot, bc, monkeypatch):
    def no_instanton(*args, **kwargs):
        raise AssertionError("instanton called at the bifurcation length")

    monkeypatch.setattr(kramers, "instanton", no_instanton)
    regime = RegimeTag(f"{bc.value}_near_above")
    p = predict_time(pot, bc.bifurcation_length, bc, 0.01, force_regime=regime)
    assert p.mu1 == p.lambda1 == 0.0
    assert p.H0 == -bc.bifurcation_length * pot.derivative(pot.u_minus, 0)


@pytest.mark.parametrize("bc, L", [(NEUMANN, 4.0), (PERIODIC, 7.0)])
def test_memo_does_not_change_predictions(pot, bc, L, cold_memo):
    cold = predict_time(pot, L, bc, 0.05)
    warm = predict_time(pot, L, bc, 0.05)
    kramers._mu_spectrum.cache_clear()
    again = predict_time(pot, L, bc, 0.05)
    assert cold.log10_expected_time == warm.log10_expected_time == again.log10_expected_time


_BENCHMARK_PREDICTIONS = (Path(__file__).resolve().parents[1]
                          / "perfbench" / "reference" / "predictions.json")


@pytest.mark.slow
def test_benchmark_reference_predictions(pot):
    # the benchmark's prediction gate, run as a test: every stored
    # (bc, L, eps, d) row keeps its regime and log10_expected_time to 1e-9
    reference = json.loads(_BENCHMARK_PREDICTIONS.read_text())
    assert len(reference) == 554
    drifted = []
    for key, (log10_time, regime) in reference.items():
        bc, L, eps, d = key.split("|")
        p = predict_time(pot, float(L), BoundaryCondition(bc), float(eps),
                         d=math.inf if d == "inf" else int(d))
        if (p.regime.value != regime
                or abs(p.log10_expected_time - log10_time) > 1e-9 * abs(log10_time)):
            drifted.append((key, p.regime.value, p.log10_expected_time))
    assert drifted == []


@pytest.mark.parametrize("bc, L, regime", [(NEUMANN, 3.3, RegimeTag.PERIODIC_NEAR_ABOVE),
                                           (PERIODIC, 9.0, RegimeTag.NEUMANN_LARGE_L)])
def test_forced_regime_of_the_other_bc_is_refused(pot, bc, L, regime):
    with pytest.raises(ValueError, match=f"{regime.value} does not apply to bc = {bc.value}"):
        predict_time(pot, L, bc, 0.05, force_regime=regime)


@pytest.mark.parametrize("d", [math.inf, 15])
def test_negative_lambda_switch_is_refused(pot, d):
    with pytest.raises(ValueError, match="lambda_switch must be >= 0, got -0.5"):
        predict_time(pot, 3.2, NEUMANN, 0.05, d=d, lambda_switch=-0.5)


@pytest.mark.parametrize("d", [math.inf, 1, 15])
@pytest.mark.parametrize("bc, side, L", [
    (NEUMANN, "small_l", 3.3), (PERIODIC, "small_l", 7.0),  # x = lambda_1 < 0
    (NEUMANN, "near_below", 4.0), (PERIODIC, "near_below", 9.0),  # x = lambda_1 + r < 0
    (NEUMANN, "large_l", math.pi),  # x = lambda_1 / 4 = 0
])
def test_forced_regime_with_nonpositive_mode1_factor_names_regime_and_L(pot, bc, side, L, d):
    regime = RegimeTag(f"{bc.value}_{side}")
    with pytest.raises(OutOfRegime, match=f"{regime.value} does not hold at L = {L}"):
        predict_time(pot, L, bc, 0.05, d=d, force_regime=regime)


def test_other_refusals_keep_their_class(pot):
    # lambda_1 < 0 < lambda_1 + r: Psi_+ refuses its negative argument
    with pytest.raises(DomainError):
        predict_time(pot, 3.2, NEUMANN, 0.05, force_regime=RegimeTag.NEUMANN_NEAR_BELOW)
    with pytest.raises(ValueError, match="needs an instanton"):
        predict_time(pot, 6.0, PERIODIC, 0.05, force_regime=RegimeTag.PERIODIC_LARGE_L)


@pytest.mark.parametrize("coefficients", [[0, 0, -0.5, 0, 0, 0, 1.0 / 6.0],  # C4 = 0
                                          [0, 0, -0.5, 0, -0.1, 0, 0.1]])   # C4 < 0
@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.1), (NEUMANN, 3.2),
                                   (PERIODIC, 6.2), (PERIODIC, 6.4)])
def test_near_regimes_refuse_nonpositive_c4_naming_it(coefficients, bc, L):
    # r = sqrt(2 h C4 eps) needs C4 > 0: without a quartic normal form the
    # near regimes name regime, L and C4 instead of failing in the arithmetic
    p = LocalPotential.from_coefficients(coefficients)
    C = c4(p, L, bc)
    assert C <= 0.0
    regime = _select_regime(bc, (bc.bifurcation_length / L) ** 2 - 1.0, 0.1)
    assert regime.value.split("_", 1)[1].startswith("near")
    with pytest.raises(OutOfRegime, match=f"{regime.value} needs C4 > 0, got C4 = "
                                          f"{C:.6g} at L = {L}: .* no quartic normal form"):
        predict_time(p, L, bc, 0.05)


@pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
@pytest.mark.parametrize("side", ["near_below", "near_above"])
def test_near_regimes_refuse_the_pole_of_c4(bc, side):
    # at L = 2 L_c the rational factor of C4 has its pole when U'''(0) != 0;
    # a forced near regime refuses there with c4's own message, other
    # regimes record C4 as NaN
    L = 2.0 * bc.bifurcation_length
    with pytest.raises(OutOfRegime, match="rational factor pole"):
        c4(_ASYMMETRIC, L, bc)
    with pytest.raises(OutOfRegime, match=f"rational factor pole at L = {L}"):
        predict_time(_ASYMMETRIC, L, bc, 0.05, force_regime=RegimeTag(f"{bc.value}_{side}"))
    assert math.isnan(predict_time(_ASYMMETRIC, L, bc, 0.05).C4)


@settings(max_examples=60, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), L=st.floats(0.1, 4.0 * math.pi))
@example(bc=NEUMANN, L=2.757407025695208)  # lengths where (Lc / L) ** 2 - 1 is one
@example(bc=NEUMANN, L=4.1335045935310974)  # ulp off the numpy square's lambda_1
@example(bc=PERIODIC, L=4.518375100857883)
@example(bc=PERIODIC, L=9.449443880709854)
def test_lambda1_has_the_bits_of_the_products_lambda_1(pot, bc, L):
    # the lambda1 column is the lambda_1 = nu_1 - 1 the products use, bit for bit
    assume(L <= 2.0 * bc.bifurcation_length)
    got = predict_time(pot, L, bc, 0.05).lambda1
    assert got == mode_frequencies(bc, L, 1)[1] - 1.0
    # and spectral.nu, the one definition of nu_k, has the bits of every
    # mode_frequencies entry, for a scalar k and for an array of k
    freqs = mode_frequencies(bc, L, 8)
    ks = mode_indices(bc, 8)
    assert all(nu(bc, L, int(k)) == f for k, f in zip(ks, freqs))
    assert nu(bc, L, ks).tobytes() == freqs.tobytes()


# The eight regime branches of predict_time as they stood before the one
# formula, with their own labels (periodic [mu_0, mu_-1, mu_1, ...]), their
# constant-saddle fallback at and below the bifurcation length, and their
# lam_sum: the reference the one formula is held to.

def _branch_label_mu(ev, bc, kmax_eig):
    if bc is NEUMANN:
        return ev[: kmax_eig + 1]
    pairs = ev[3 : 3 + 2 * (kmax_eig - 1)]
    return np.concatenate((ev[:3], np.sqrt(pairs[0::2] * pairs[1::2])))


def _branch_mu_spectrum(pot, L, bc, kmax_eig):
    if L <= bc.bifurcation_length:
        prof, wbar = None, -1.0
        ev = mode_frequencies(bc, L, kmax_eig) - 1.0
    else:
        prof, _, wbar = kramers._mu_spectrum(pot, L, bc, kmax_eig)  # the memoised orbit
        ev = eigs_orbit(prof, kmax=kmax_eig).eigenvalues
    return prof, _branch_label_mu(ev, bc, kmax_eig), wbar


@cache
def _even_zeta(N):
    """Hurwitz zeta(2m, N), m = 1..12, from mpmath."""
    return np.array([float(mpmath.zeta(2 * m, N)) for m in range(1, 13)])


def _zeta_tail(L, b, w_num, w_den, k_from):
    """log prod_{k >= k_from} (nu_k0 + w_num)/(nu_k0 + w_den) as sum log((k^2+p)/(k^2+q)):
    the terms below N, N^2 >= 64 max(|p|, |q|), directly, and past N the log1p
    series sum_m (-1)^(m+1) (p^m - q^m) zeta(2m, N)/m, whose terms fall by 64
    or more each."""
    s = (L / (b * math.pi)) ** 2
    p, q = w_num * s, w_den * s
    N = max(k_from, math.ceil(8.0 * math.sqrt(max(abs(p), abs(q)))))
    k2 = np.arange(k_from, N, dtype=float) ** 2
    m = np.arange(1, 13)
    series = (-1.0) ** (m + 1) * (p ** m - q ** m) / m * _even_zeta(N)
    return math.fsum(np.log1p(p / k2) - np.log1p(q / k2)) + math.fsum(series)


def _branch_mu_log_sum(mu_by_label, pot, L, bc, k_from, d, kmax_eig, wbar):
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
        total += _zeta_tail(L, b, wbar, w_minus, k_res + 1)
    elif d > k_res:
        k = np.arange(k_res + 1, d + 1, dtype=float)
        nu0 = (b * k * math.pi / L) ** 2
        total += math.fsum(np.log(nu0 + wbar) - np.log(nu0 + w_minus))
    return total


def _lambda_log_sum_from_1(pot, L, bc, d):
    """log prod_{k=1}^{d} lambda_k / nu_k^-: from closed_form_product, which is
    2 pi (prod / W)^(1/2) (Neumann) or 2 pi prod / W^(1/2) (periodic), at
    d = inf, else a direct fsum."""
    w_minus = float(pot.derivative(pot.u_minus, 2))
    if d == math.inf:
        log_cf = math.log(closed_form_product(pot, L, bc) / (2.0 * math.pi))
        return (2.0 * log_cf + math.log(w_minus) if bc is NEUMANN
                else log_cf + 0.5 * math.log(w_minus))
    base = nu(bc, L, np.arange(1, d + 1))
    if base[0] <= 1.0:
        raise OutOfRegime("lambda_1 <= 0")
    return math.fsum(np.log(base - 1.0) - np.log(base + w_minus))


def _branch_predict(pot, L, bc, eps, d, regime, kmax_eig=40):
    """(regime, H0, mu1, log_prefactor) from the eight branches."""
    w_minus = float(pot.derivative(pot.u_minus, 2))
    lam1 = (bc.bifurcation_length / L) ** 2 - 1.0
    nu1m = (bc.bifurcation_length / L) ** 2 + w_minus
    regime = regime or _select_regime(bc, lam1, 0.1)
    try:
        C = c4(pot, L, bc)
    except OutOfRegime:
        if regime.value.endswith(("near_below", "near_above")):
            raise
        C = math.nan
    H0_const = -L * float(pot.derivative(pot.u_minus, 0))
    mu1 = None
    if regime.value.endswith(("near_above", "large_l")):
        prof, mu_lab, wbar = _branch_mu_spectrum(pot, L, bc, kmax_eig)
        H0 = (prof.V_value - L * float(pot.derivative(pot.u_minus, 0))) \
            if prof is not None else H0_const
    else:
        H0 = H0_const

    def lam_sum(k_from):
        if k_from == 1:
            return _lambda_log_sum_from_1(pot, L, bc, d)
        if d == math.inf:
            return math.log(lambda_ratio_product_infinite(pot, L, bc, -1.0))
        return lambda_ratio_log_sum(pot, L, bc, d, -1.0)

    if regime is RegimeTag.NEUMANN_SMALL_L:
        log_pref = math.log(2.0 * math.pi) + 0.5 * (lam_sum(1) - math.log(w_minus))
    elif regime is RegimeTag.NEUMANN_NEAR_BELOW:
        root = math.sqrt(C * eps)
        log_pref = (math.log(2.0 * math.pi)
                    + 0.5 * (math.log(lam1 + root) - math.log(w_minus * nu1m) + lam_sum(2))
                    - math.log(psi("+", lam1 / root)))
    elif regime is RegimeTag.NEUMANN_NEAR_ABOVE:
        root = math.sqrt(C * eps)
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[1])
        s = _branch_mu_log_sum(mu_lab, pot, L, bc, 2, d, kmax_eig, wbar)
        log_pref = (math.log(2.0 * math.pi)
                    + 0.5 * (math.log(mu1 + root) - math.log(abs(mu0) * w_minus * nu1m) + s)
                    - math.log(psi("-", mu1 / root)))
    elif regime is RegimeTag.NEUMANN_LARGE_L:
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[1])
        s = _branch_mu_log_sum(mu_lab, pot, L, bc, 1, d, kmax_eig, wbar)
        log_pref = math.log(math.pi) + 0.5 * (s - math.log(abs(mu0) * w_minus))
    elif regime is RegimeTag.PERIODIC_SMALL_L:
        log_pref = math.log(2.0 * math.pi) - 0.5 * math.log(w_minus) + lam_sum(1)
    elif regime is RegimeTag.PERIODIC_NEAR_BELOW:
        root = math.sqrt(2.0 * C * eps)
        log_pref = (math.log(2.0 * math.pi) - 0.5 * math.log(w_minus)
                    + math.log(lam1 + root) - math.log(nu1m) + lam_sum(2)
                    - math.log(theta("+", lam1 / root)))
    elif regime is RegimeTag.PERIODIC_NEAR_ABOVE:
        root = math.sqrt(2.0 * C * eps)
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[2])
        s = _branch_mu_log_sum(mu_lab, pot, L, bc, 2, d, kmax_eig, wbar)
        log_pref = (math.log(2.0 * math.pi) - 0.5 * math.log(abs(mu0) * w_minus)
                    + math.log(root) - math.log(nu1m) + s
                    - math.log(theta("-", mu1 / math.sqrt(8.0 * C * eps))))
    else:  # PERIODIC_LARGE_L
        if prof is None:
            raise ValueError("large-L regime needs an instanton; L is below threshold")
        mu0, mu1 = float(mu_lab[0]), float(mu_lab[2])
        s = _branch_mu_log_sum(mu_lab, pot, L, bc, 2, d, kmax_eig, wbar)
        log_pref = (math.log(2.0 * math.pi) - 0.5 * math.log(abs(mu0) * w_minus)
                    + 0.5 * math.log(2.0 * math.pi * eps * mu1) - math.log(nu1m) + s
                    - math.log(saddle_length(prof)))
    return regime, H0, mu1, log_pref


_ASYMMETRIC = LocalPotential.from_coefficients([0.0, 0.0, -0.5, 0.1, 0.25])
_REFUSALS = (ValueError, ArithmeticError, KramersSpdeError)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_formula_matches_the_regime_branches(data):
    pot = data.draw(st.sampled_from([quartic(), _ASYMMETRIC]), label="pot")
    bc = data.draw(st.sampled_from([NEUMANN, PERIODIC]), label="bc")
    Lc = bc.bifurcation_length
    L = data.draw(st.one_of(st.just(Lc), st.floats(0.2, 2.0 * Lc, exclude_min=True)),
                  label="L")
    eps = data.draw(st.floats(0.005, 0.5), label="eps")
    d = data.draw(st.sampled_from([math.inf, 1, 2, 3, 15, 64]), label="d")
    forced = data.draw(st.sampled_from([None] + [t for t in RegimeTag
                                                 if t.value.startswith(bc.value)]),
                       label="force_regime")
    try:
        regime, H0, mu1, log_pref = _branch_predict(pot, L, bc, eps, d, forced)
    except _REFUSALS:
        with pytest.raises(_REFUSALS):
            predict_time(pot, L, bc, eps, d=d, force_regime=forced)
        return
    p = predict_time(pot, L, bc, eps, d=d, force_regime=forced)
    assert p.regime is regime
    assert p.H0 == H0
    if mu1 is not None and L <= Lc:
        # the uniform saddle's mu_1 is lambda_1 itself; the branches took it
        # from mode_frequencies, whose numpy square can differ from ** 2 by an ulp
        assert p.mu1 == p.lambda1
        assert abs(p.mu1 - mu1) <= math.ulp(mu1 + 1.0)
    else:
        assert p.mu1 == mu1
    assert p.log_prefactor == pytest.approx(log_pref, abs=1e-13)
