"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 5 are split: the clauses whose stated tolerances the measured
mathematics cannot meet (crossover-function limit rates; the printed
saddle-length normalization, which the measurements show carries an exact
factor 2) are isolated in their own tests, implemented literally, and left
failing with the measured values in the assertion message.  Everything else
is green.
"""

import math
import os
import time

import numpy as np
import pytest

from kramers_spde import (NEUMANN, PERIODIC, RegimeTag, SimConfig, c4,
                          closed_form_product, det_ratio, dT_dE, eigs_constant,
                          eigs_profile, energy_V, FourierState, galerkin_error,
                          grad_V, instanton, mc_stats, oracle_identity_1d,
                          oracle_mfpt_1d, predict_time, psi,
                          reduced_potential_1d, saddle_length, theta,
                          turning_points, period_T)

THREADS = min(8, os.cpu_count() or 1)


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_special_function_endpoints(pot):
    t0 = time.time()
    psi0_ref = 0.8600399873245196   # Gamma(1/4)/(2^{5/4} sqrt(pi)), 40-digit oracle
    theta0_ref = math.sqrt(math.pi / 8.0)
    checks = {
        "psi+(0)": abs(psi("+", 0.0) - psi0_ref) <= 1e-9,
        "psi-(0)": abs(psi("-", 0.0) - psi0_ref) <= 1e-9,
        "theta+(0)": abs(theta("+", 0.0) - theta0_ref) <= 1e-12,
        "theta-(0)": abs(theta("-", 0.0) - theta0_ref) <= 1e-12,
        "theta-(50)": abs(theta("-", 50.0) - math.sqrt(math.pi / 2)) <= 1e-6,
    }
    ok = all(checks.values())
    _report("1 (endpoints)", ok, f"{checks}; {time.time()-t0:.2f}s")
    assert ok, checks


def test_criterion_1_limit_tolerances_as_stated():
    # Stated: |psi+(30)-1| <= 1e-3, |psi-(30)-2| <= 1e-2, |theta+(50)-1| <= 1e-3.
    # The functions approach their limits at O(1/alpha) (leading factor
    # sqrt(1+1/alpha) resp. (1+alpha)/alpha), so the measured values are
    # psi+(30) = 1.014852, psi-(30) = 2.047184, theta+(50) = 1.018376 and the
    # stated tolerances cannot be met at these arguments.
    vals = (psi("+", 30.0), psi("-", 30.0), theta("+", 50.0))
    ok = (abs(vals[0] - 1.0) <= 1e-3 and abs(vals[1] - 2.0) <= 1e-2
          and abs(vals[2] - 1.0) <= 1e-3)
    _report("1 (limit rates)", ok,
            f"psi+(30)={vals[0]:.6f}, psi-(30)={vals[1]:.6f}, theta+(50)={vals[2]:.6f}")
    assert abs(vals[0] - 1.0) <= 1e-3, f"psi+(30) = {vals[0]:.6f}: O(1/alpha) limit rate"
    assert abs(vals[1] - 2.0) <= 1e-2, f"psi-(30) = {vals[1]:.6f}"
    assert abs(vals[2] - 1.0) <= 1e-3, f"theta+(50) = {vals[2]:.6f}"


def test_criterion_2_determinant_closed_form(pot):
    t0 = time.time()
    d = 10**5
    ro = eigs_constant(pot, 1.0, NEUMANN, "origin", d)
    rm = eigs_constant(pot, 1.0, NEUMANN, "minus", d)
    mask = np.arange(1, d + 1)
    pref_n = 2 * math.pi * math.sqrt(det_ratio(ro, rm, d, mask, mask) / 2.0)
    cf_n = 2 * math.pi * math.sqrt(math.sin(1.0) / (math.sqrt(2) * math.sinh(math.sqrt(2))))
    rel_n = abs(pref_n - cf_n) / cf_n

    lam = (2 * np.arange(1.0, d + 1) * math.pi) ** 2 - 1.0
    nvm = (2 * np.arange(1.0, d + 1) * math.pi) ** 2 + 2.0
    pref_p = 2 * math.pi / math.sqrt(2.0) * math.exp(math.fsum(np.log(lam) - np.log(nvm)))
    cf_p = 2 * math.pi * math.sin(0.5) / math.sinh(math.sqrt(2.0) / 2.0)
    rel_p = abs(pref_p - cf_p) / cf_p
    elapsed = time.time() - t0
    ok = rel_n <= 1e-4 and rel_p <= 1e-4 and elapsed < 1.0
    _report("2", ok, f"neumann rel {rel_n:.2e}, periodic rel {rel_p:.2e}, {elapsed:.2f}s")
    assert closed_form_product(pot, 1.0, NEUMANN) == pytest.approx(cf_n, rel=1e-14)
    assert closed_form_product(pot, 1.0, PERIODIC) == pytest.approx(cf_p, rel=1e-14)
    assert rel_n <= 1e-4 and rel_p <= 1e-4
    assert elapsed < 1.0


def test_criterion_3_period_function(pot):
    def direct(E, n=400):  # independent oracle, sin^2 substitution
        u2, u3 = turning_points(pot, E)
        x, w = np.polynomial.legendre.leggauss(n)
        th = 0.25 * math.pi * (x + 1.0)
        wt = 0.25 * math.pi * w
        u = u2 + (u3 - u2) * np.sin(th) ** 2
        du = (u3 - u2) * 2 * np.sin(th) * np.cos(th)
        return 2.0 * float(np.sum(wt * du / np.sqrt(2.0 * (E + pot.derivative(u, 0)))))

    # the oracle's 400-node eigen-solve stays outside the timed library calls
    oracle = direct(0.1)
    t0 = time.time()
    gap = abs(period_T(pot, 1e-6) - 2 * math.pi)
    slopes = [dT_dE(pot, float(E))
              for E in np.geomspace(1e-6 * 0.25, 0.999 * 0.25, 20)]
    rel = abs(period_T(pot, 0.1) - oracle) / oracle
    elapsed = time.time() - t0
    ok = gap <= 1e-3 and min(slopes) > 0 and rel <= 1e-6 and elapsed < 1.0
    _report("3", ok, f"|T(1e-6)-2pi|={gap:.2e}, min dT/dE={min(slopes):.3g}, "
                     f"oracle rel={rel:.2e}, {elapsed:.2f}s")
    assert gap <= 1e-3
    assert min(slopes) > 0
    assert rel <= 1e-6
    assert elapsed < 1.0


def test_criterion_4_instanton_validity(pot):
    t0 = time.time()
    prof_n = instanton(pot, 4.0, NEUMANN)
    res = prof_n.residual_sup()
    rep_n = eigs_profile(prof_n, kmax=6)
    prof_p = instanton(pot, 7.0, PERIODIC)
    rep_p = eigs_profile(prof_p, kmax=6)
    mu1 = rep_p.eigenvalues[2]
    zero = abs(rep_p.eigenvalues[1])
    elapsed = time.time() - t0
    ok = (res <= 1e-6 and rep_n.negative_count == 1
          and zero <= 1e-6 * mu1 and rep_p.negative_count == 1 and elapsed < 10.0)
    _report("4", ok, f"residual={res:.2e}, neumann neg={rep_n.negative_count}, "
                     f"|mu_-1|/mu1={zero/mu1:.2e}, {elapsed:.1f}s")
    assert res <= 1e-6
    assert rep_n.negative_count == 1
    assert rep_p.negative_count == 1
    assert zero <= 1e-6 * mu1
    assert elapsed < 10.0


def test_criterion_5_near_bifurcation_eigenvalue_exponent(pot):
    t0 = time.time()
    diffs, lams = [], []
    for delta in (0.02, 0.04, 0.08):
        L = math.pi + delta
        lam1 = abs((math.pi / L) ** 2 - 1.0)
        rep = eigs_profile(instanton(pot, L, NEUMANN), kmax=3)
        diffs.append(abs(rep.eigenvalues[1] - 2.0 * lam1))
        lams.append(lam1)
    slope = float(np.polyfit(np.log(lams), np.log(diffs), 1)[0])
    elapsed = time.time() - t0
    ok = slope >= 1.4
    _report("5 (mu1 exponent)", ok, f"fitted exponent {slope:.2f} >= 1.4, {elapsed:.1f}s")
    assert slope >= 1.4


def test_criterion_5_saddle_length_relation_as_stated(pot):
    # Stated: |ell/(2 pi sqrt(mu1/(8 C4))) - 1| decreasing toward small delta
    # and <= 0.15 at delta = 0.02.  Measured: the ratio converges to 2.000
    # (the compatible normalization is 2 pi sqrt(mu1/(2 C4)), which this
    # library's saddle_length satisfies to O(delta); see the module tests).
    t0 = time.time()
    devs = []
    for delta in (0.02, 0.04, 0.08):
        L = 2 * math.pi + delta
        prof = instanton(pot, L, PERIODIC)
        mu1 = eigs_profile(prof, kmax=3).eigenvalues[2]
        ratio = saddle_length(prof) / (2 * math.pi * math.sqrt(mu1 / (8.0 * c4(pot, L, PERIODIC))))
        devs.append(abs(ratio - 1.0))
    _report("5 (saddle length, stated form)", devs[0] <= 0.15,
            f"|ratio-1| at delta 0.02/0.04/0.08 = "
            f"{devs[0]:.4f}/{devs[1]:.4f}/{devs[2]:.4f}, {time.time()-t0:.1f}s")
    assert devs[0] <= devs[1] <= devs[2]  # agreement improves toward the bifurcation
    assert devs[0] <= 0.15, (
        f"measured |ell/(2 pi sqrt(mu1/(8 C4))) - 1| = {devs[0]:.4f} at delta=0.02; "
        "the measured ratio converges to 2.0, i.e. the stated relation is off by "
        "an exact factor 2 (the compatible form uses 2 C4)")


def test_criterion_6_regime_continuity(pot):
    t0 = time.time()
    rels = []
    for bc, Lc, below, above in (
            (NEUMANN, math.pi, RegimeTag.NEUMANN_NEAR_BELOW, RegimeTag.NEUMANN_NEAR_ABOVE),
            (PERIODIC, 2 * math.pi, RegimeTag.PERIODIC_NEAR_BELOW, RegimeTag.PERIODIC_NEAR_ABOVE)):
        lo = predict_time(pot, Lc, bc, 0.01, force_regime=below)
        hi = predict_time(pot, Lc, bc, 0.01, force_regime=above)
        rels.append(abs(lo.expected_time - hi.expected_time) / lo.expected_time)
    # overlap window on both sides of each bifurcation
    band_ok = True
    for bc in (NEUMANN, PERIODIC):
        b = bc.mode_factor
        near_b, far_b, near_a, far_a = {
            NEUMANN: (RegimeTag.NEUMANN_NEAR_BELOW, RegimeTag.NEUMANN_SMALL_L,
                      RegimeTag.NEUMANN_NEAR_ABOVE, RegimeTag.NEUMANN_LARGE_L),
            PERIODIC: (RegimeTag.PERIODIC_NEAR_BELOW, RegimeTag.PERIODIC_SMALL_L,
                       RegimeTag.PERIODIC_NEAR_ABOVE, RegimeTag.PERIODIC_LARGE_L),
        }[bc]
        for lam_abs in (0.05, 0.1, 0.15):
            Lb = b * math.pi / math.sqrt(1.0 + lam_abs)
            pn = predict_time(pot, Lb, bc, 0.01, force_regime=near_b)
            pf = predict_time(pot, Lb, bc, 0.01, force_regime=far_b)
            gap = abs(pn.expected_time - pf.expected_time) / min(pn.expected_time,
                                                                 pf.expected_time)
            band_ok &= gap <= max(pn.remainder_scale, pf.remainder_scale)
            La = b * math.pi / math.sqrt(1.0 - lam_abs)
            pa = predict_time(pot, La, bc, 0.01, force_regime=near_a, kmax_eig=24)
            fa = predict_time(pot, La, bc, 0.01, force_regime=far_a, kmax_eig=24)
            gap = abs(pa.expected_time - fa.expected_time) / min(pa.expected_time,
                                                                 fa.expected_time)
            band_ok &= gap <= max(pa.remainder_scale, fa.remainder_scale)
    elapsed = time.time() - t0
    ok = max(rels) <= 1e-6 and band_ok
    _report("6", ok, f"continuity rel {max(rels):.2e}, overlap within remainder "
                     f"band: {band_ok}, {elapsed:.1f}s")
    assert max(rels) <= 1e-6
    assert band_ok


@pytest.mark.slow
def test_criterion_7_1d_oracle_agreement(pot):
    t0 = time.time()
    rho = 0.3
    V1 = reduced_potential_1d(pot, 1.0)
    oracle = oracle_mfpt_1d(V1, 0.05, pot.u_minus, pot.u_plus - rho)
    cfg = SimConfig(pot=pot, bc=NEUMANN, L=1.0, d=0, eps=0.05, dt=5e-3,
                    t_max=2e4, rho=rho, seed=2026)
    st = mc_stats(cfg, 400, threads=THREADS)
    z = abs(st.mean - oracle) / st.stderr
    _, _, _, residual = oracle_identity_1d(V1, 0.05, (-1.2, -0.8), (0.8, 1.2))
    elapsed = time.time() - t0
    ok = z <= 3.0 and residual <= 1e-6
    _report("7", ok, f"mc {st.mean:.1f}+-{st.stderr:.1f} vs oracle {oracle:.1f} "
                     f"(z={z:.2f}), identity residual {residual:.1e}, {elapsed:.0f}s")
    assert z <= 3.0
    assert residual <= 1e-6


@pytest.mark.slow
def test_criterion_8_kramers_law_consistency(pot):
    t0 = time.time()
    stats = []
    for eps in (0.08, 0.0625, 0.05):
        pred = predict_time(pot, 1.0, NEUMANN, eps, d=15)
        cfg = SimConfig(pot=pot, bc=NEUMANN, L=1.0, d=15, eps=eps, dt=1e-3,
                        t_max=30.0 * pred.expected_time, seed=2026)
        st = mc_stats(cfg, 200, threads=THREADS)
        stats.append((eps, st.mean / pred.expected_time, st.stderr / st.mean,
                      st.censored))
    elapsed = time.time() - t0
    detail = ", ".join(f"eps={e}: ratio {r:.3f} (se_log {s:.3f}, cens {c})"
                       for e, r, s, c in stats)
    ratio_final = stats[-1][1]
    logs = [abs(math.log(r)) for _, r, _, _ in stats]
    ses = [s for _, _, s, _ in stats]
    monotone = all(logs[i + 1] <= logs[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
                   for i in range(len(logs) - 1))
    ok = 0.6 <= ratio_final <= 1.4 and monotone
    _report("8", ok, f"{detail}; |log ratio| trend ok: {monotone}; {elapsed:.0f}s")
    assert 0.6 <= ratio_final <= 1.4
    assert monotone


def test_criterion_9_galerkin_convergence(pot):
    t0 = time.time()
    cfg = SimConfig(pot=pot, bc=NEUMANN, L=1.0, d=8, eps=0.1, dt=1e-3,
                    t_max=10.0, seed=2026)
    tab = galerkin_error(cfg, [8, 16, 32, 64], T=5.0)
    errs = [r.sup_error for r in tab.rows]
    elapsed = time.time() - t0
    ok = all(a > b for a, b in zip(errs, errs[1:])) and tab.slope <= -0.3
    _report("9", ok, f"errors {['%.3e' % e for e in errs]}, slope {tab.slope:.2f}, "
                     f"{elapsed:.0f}s")
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert tab.slope <= -0.3


def test_criterion_10_gradient_and_symmetries(pot):
    t0 = time.time()
    rng = np.random.default_rng(808)
    worst_fd = 0.0
    for _ in range(100):
        bc = NEUMANN if rng.random() < 0.5 else PERIODIC
        d = int(rng.integers(1, 17))
        L = 0.8 + 2.0 * rng.random()
        st = FourierState(bc, L, d, rng.uniform(-2, 2, bc.n_coeffs(d)))
        g = grad_V(st, pot)
        h = 1e-5
        fd = np.empty_like(g)
        for i in range(len(g)):
            cp = st.coeffs.copy(); cp[i] += h
            cm = st.coeffs.copy(); cm[i] -= h
            fd[i] = (energy_V(st.with_coeffs(cp), pot)
                     - energy_V(st.with_coeffs(cm), pot)) / (2 * h)
        worst_fd = max(worst_fd, float(np.abs(g - fd).max() / (1 + np.abs(g).max())))
    worst_refl = 0.0
    worst_trans = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 9))
        L = 1.0 + rng.random()
        c = rng.uniform(-1.5, 1.5, d + 1)
        cr = c * (-1.0) ** np.arange(d + 1)
        worst_refl = max(worst_refl, abs(
            energy_V(FourierState(NEUMANN, L, d, c), pot)
            - energy_V(FourierState(NEUMANN, L, d, cr), pot)))
        cp = rng.uniform(-1.5, 1.5, 2 * d + 1)
        sp = FourierState(PERIODIC, L, d, cp)
        v0 = energy_V(sp, pot)
        for phi in rng.uniform(0, L, 10):
            ct = cp.copy()
            for k in range(1, d + 1):
                th = 2 * math.pi * k * phi / L
                a, b = cp[2 * k - 1], cp[2 * k]
                ct[2 * k - 1] = math.cos(th) * a + math.sin(th) * b
                ct[2 * k] = -math.sin(th) * a + math.cos(th) * b
            worst_trans = max(worst_trans, abs(
                energy_V(FourierState(PERIODIC, L, d, ct), pot) - v0))
    elapsed = time.time() - t0
    ok = worst_fd <= 1e-5 and worst_refl <= 1e-12 and worst_trans <= 1e-12 \
        and elapsed < 10.0
    _report("10", ok, f"fd {worst_fd:.1e}, reflection {worst_refl:.1e}, "
                      f"translation {worst_trans:.1e}, {elapsed:.1f}s")
    assert worst_fd <= 1e-5
    assert worst_refl <= 1e-12
    assert worst_trans <= 1e-12
    assert elapsed < 10.0
