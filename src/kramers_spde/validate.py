"""Programmatic invariant suite behind the `validate` CLI subcommand.

Each check mirrors a module-level invariant at desk scale and returns a
CheckResult; the CLI exits nonzero if any fails.  quick=True (the default)
skips the two multi-minute Monte Carlo invariants, which run under --full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .potential import (quartic, energy_V, grad_V,
                        energy_lower_bound_constants, h1_norm_squared)
from .spectral import NEUMANN, PERIODIC, FourierState, from_grid, to_grid, sup_dist, nu
from .stationary import InstantonProfile, dT_dE, instanton
from .spectra import closed_form_product, eigs_constant, eigs_orbit, det_ratio
from .specialfn import psi, theta, PSI_AT_ZERO, THETA_AT_ZERO
from .kramers import RegimeTag, predict_time
from .simulate import (SimConfig, mc_stats, oracle_identity_1d, oracle_mfpt_1d,
                       reduced_potential_1d, sample_path, sample_transition)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_gradient_consistency() -> CheckResult:
    q = quartic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        bc = NEUMANN if rng.random() < 0.5 else PERIODIC
        d = int(rng.integers(1, 17))
        st = FourierState(bc, 1.0 + 2.0 * rng.random(), d,
                          rng.uniform(-2, 2, bc.n_coeffs(d)))
        g = grad_V(st, q)
        h = 1e-5
        fd = np.empty_like(g)
        for i in range(len(g)):
            cp = st.coeffs.copy(); cp[i] += h
            cm = st.coeffs.copy(); cm[i] -= h
            fd[i] = (energy_V(st.with_coeffs(cp), q)
                     - energy_V(st.with_coeffs(cm), q)) / (2 * h)
        worst = max(worst, float(np.abs(g - fd).max() / (1.0 + np.abs(g).max())))
    return CheckResult("potential.gradient_consistency", worst <= 1e-5,
                       f"worst rel dev {worst:.2e} (tol 1e-5)")


def _check_energy_symmetries() -> CheckResult:
    q = quartic()
    rng = np.random.default_rng(7)
    worst_r = worst_t = 0.0
    lb_ok = True
    for _ in range(20):
        d = int(rng.integers(1, 9))
        cN = rng.uniform(-1.5, 1.5, d + 1)
        L = 1.0 + rng.random()
        sN = FourierState(NEUMANN, L, d, cN)
        cR = cN * (-1.0) ** np.arange(d + 1)
        worst_r = max(worst_r, abs(energy_V(sN, q)
                                   - energy_V(FourierState(NEUMANN, L, d, cR), q)))
        cP = rng.uniform(-1.5, 1.5, 2 * d + 1)
        sP = FourierState(PERIODIC, L, d, cP)
        v0 = energy_V(sP, q)
        for phi in rng.uniform(0.0, L, 10):
            cT = cP.copy()
            for k in range(1, d + 1):
                th = 2 * math.pi * k * phi / L
                a, b = cP[2 * k - 1], cP[2 * k]
                cT[2 * k - 1] = math.cos(th) * a + math.sin(th) * b
                cT[2 * k] = -math.sin(th) * a + math.cos(th) * b
            worst_t = max(worst_t, abs(energy_V(FourierState(PERIODIC, L, d, cT), q) - v0))
        alpha, beta = energy_lower_bound_constants(q, L, PERIODIC)
        lb_ok &= v0 >= beta * h1_norm_squared(sP) - alpha - 1e-9
    ok = worst_r <= 1e-12 and worst_t <= 1e-11 and lb_ok
    return CheckResult("potential.symmetries_and_lower_bound", ok,
                       f"reflection {worst_r:.1e}, translation {worst_t:.1e}, "
                       f"lower bound {'holds' if lb_ok else 'FAILS'}")


def _check_spectral() -> CheckResult:
    rng = np.random.default_rng(11)
    q = quartic()
    worst_p = worst_rt = 0.0
    for bc in (NEUMANN, PERIODIC):
        for _ in range(10):
            d = int(rng.integers(0, 12))
            L = 0.5 + 2.0 * rng.random()
            st = FourierState(bc, L, d, rng.normal(size=bc.n_coeffs(d)))
            n = 2 * (2 * d + 2)
            g = to_grid(st, n)
            worst_p = max(worst_p, abs(math.sqrt(L / n * float(np.sum(g * g)))
                                       - st.l2_norm()))
            back = from_grid(g, bc, L, d)
            worst_rt = max(worst_rt, float(np.abs(back.coeffs - st.coeffs).max()))
    lam, nv = (eigs_constant(q, 1.3, NEUMANN, which, 4).eigenvalues[4]
               for which in ("origin", "minus"))
    ident = abs((nv - lam) - (q.derivative(q.u_minus, 2) + 1.0))
    ok = worst_p <= 1e-12 and worst_rt <= 1e-12 and ident <= 1e-12
    return CheckResult("spectral.parseval_roundtrip", ok,
                       f"parseval {worst_p:.1e}, roundtrip {worst_rt:.1e}, "
                       f"eigenvalue identity {ident:.1e}")


@cache
def _neumann_l4() -> InstantonProfile:  # 4096 samples, shared by two checks
    return instanton(quartic(), 4.0, NEUMANN)


def _check_period_monotone() -> CheckResult:
    q = quartic()
    E0 = q.orbit_energy_cap
    grid = np.geomspace(1e-6 * E0, 0.999 * E0, 20)
    ds = [dT_dE(q, float(E)) for E in grid]
    prof = _neumann_l4()
    drift = prof.first_integral_variation()
    # the trapezoid rule for int (u'^2/2 + U(u)) dx on the mirror's samples
    mirror = prof.reflected()
    e = (0.5 * mirror.du ** 2 + q.derivative(mirror.u, 0)).tolist()
    energy = (math.fsum(e) - 0.5 * (e[0] + e[-1])) * prof.L / prof.n_samples
    refl = abs(energy - prof.V_value) / abs(prof.V_value)
    ok = all(v > 0 for v in ds) and drift <= 1e-8 * prof.E and refl <= 1e-12
    return CheckResult("stationary.monotone_period", ok,
                       f"min dT/dE {min(ds):.3g}, first-integral drift {drift:.1e}, "
                       f"mirror energy gap {refl:.1e}")


def _check_product_convergence() -> CheckResult:
    q = quartic()
    cf = closed_form_product(q, 1.0, NEUMANN)
    gaps = []
    for d in (10**3, 10**4, 10**5):
        ro = eigs_constant(q, 1.0, NEUMANN, "origin", d)
        rm = eigs_constant(q, 1.0, NEUMANN, "minus", d)
        mask = np.arange(1, d + 1)
        pref = 2 * math.pi * math.sqrt(det_ratio(ro, rm, d, mask, mask) / 2.0)
        gaps.append(abs(pref - cf) / cf)
    prof = _neumann_l4()
    rep = eigs_orbit(prof, kmax=8, n=512)
    nu0 = nu(NEUMANN, 4.0, np.arange(9))
    W = q.derivative(prof.u, 2)
    interlace = bool(np.all((rep.eigenvalues[:9] >= nu0 + W.min() - 1e-9)
                            & (rep.eigenvalues[:9] <= nu0 + W.max() + 1e-9)))
    ok = gaps[-1] <= 1e-4 and gaps[0] > gaps[1] > gaps[2] and interlace
    return CheckResult("spectra.product_convergence", ok,
                       f"gaps {gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e}, "
                       f"interlacing {'ok' if interlace else 'FAILS'}")


def _check_specialfn() -> CheckResult:
    grid = np.linspace(0.0, 1000.0, 2001)
    pp = np.array([psi("+", a) for a in grid])
    pm = np.array([psi("-", a) for a in grid])
    tp = np.array([theta("+", a) for a in grid])
    tm = np.array([theta("-", a) for a in grid])
    bounds = (0.5 <= pp.min() and pp.max() <= 2.5 and 0.5 <= pm.min()
              and pm.max() <= 2.5 and 0.5 <= tp.min() and tp.max() <= 1.5
              and 0.5 <= tm.min() and tm.max() <= 1.5)
    ends = (abs(psi("+", 0.0) - PSI_AT_ZERO) < 1e-14
            and abs(theta("-", 0.0) - THETA_AT_ZERO) < 1e-14
            and abs(psi("+", 1e-7) - PSI_AT_ZERO) < 1e-6
            and abs(psi("-", 1e-7) - PSI_AT_ZERO) < 1e-6)
    return CheckResult("specialfn.bounds_endpoints", bounds and ends,
                       f"ranges psi+[{pp.min():.3f},{pp.max():.3f}] "
                       f"psi-[{pm.min():.3f},{pm.max():.3f}] "
                       f"theta+[{tp.min():.3f},{tp.max():.3f}] "
                       f"theta-[{tm.min():.3f},{tm.max():.3f}]")


def _check_kramers() -> CheckResult:
    q = quartic()
    res = []
    for bc in (NEUMANN, PERIODIC):
        Lc = bc.bifurcation_length
        lo = predict_time(q, Lc, bc, 0.01, force_regime=RegimeTag(f"{bc.value}_near_below"))
        hi = predict_time(q, Lc, bc, 0.01, force_regime=RegimeTag(f"{bc.value}_near_above"))
        res.append(abs(lo.expected_time - hi.expected_time) / lo.expected_time)
    pinf = predict_time(q, 1.0, NEUMANN, 0.05)
    gaps = [abs(predict_time(q, 1.0, NEUMANN, 0.05, d=dd).expected_time
                - pinf.expected_time) for dd in (8, 16, 32, 64, 128)]
    mono = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = max(res) <= 1e-6 and mono
    return CheckResult("kramers.continuity_and_d_convergence", ok,
                       f"bifurcation continuity {max(res):.1e}, "
                       f"d-gaps monotone {'yes' if mono else 'NO'}")


def _check_sim_determinism() -> CheckResult:
    q = quartic()
    cfg = SimConfig(pot=q, bc=NEUMANN, L=1.0, d=3, eps=0.3, dt=1e-3,
                    t_max=100.0, seed=99)
    a = sample_transition(cfg)
    b = sample_transition(cfg)
    grid_ok = a.tau is not None and abs(a.tau / (cfg.check_every * cfg.dt)
                                        - round(a.tau / (cfg.check_every * cfg.dt))) < 1e-9
    try:
        SimConfig(pot=q, bc=NEUMANN, L=1.0, d=3, eps=0.1, dt=1e-3, t_max=1.0, rho=2.5)
        rejected = False
    except ValueError:
        rejected = True
    ok = (a == b) and grid_ok and rejected
    return CheckResult("simulate.determinism", ok,
                       f"bit-identical {a == b}, tau on check grid {grid_ok}, "
                       f"target ball wider than the wells rejected {rejected}")


def _check_scheme_consistency() -> CheckResult:
    q = quartic()
    errs = []
    dts = (1e-2, 5e-3, 2.5e-3)
    for dt in dts:
        n = int(round(1.0 / dt))
        fin = {}
        for scheme in ("semi_implicit", "exponential"):
            cfg = SimConfig(pot=q, bc=NEUMANN, L=1.0, d=4, eps=0.1, dt=dt,
                            t_max=10.0, seed=5, scheme=scheme)
            fin[scheme] = sample_path(cfg, n)[-1]
        a = FourierState(NEUMANN, 1.0, 4, fin["semi_implicit"])
        b = FourierState(NEUMANN, 1.0, 4, fin["exponential"])
        errs.append(sup_dist(a, b))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = slope >= 0.9
    return CheckResult("simulate.scheme_consistency", ok,
                       f"errors {['%.2e' % e for e in errs]}, slope {slope:.2f} (>= 0.9)")


def _check_equilibrium_ks() -> CheckResult:
    q = quartic()
    cfg = SimConfig(pot=q, bc=NEUMANN, L=1.0, d=0, eps=1.0, dt=1e-2,
                    t_max=1.0, seed=31, scheme="exponential")
    path = sample_path(cfg, 1_100_000)[100_000:, 0]
    V1 = reduced_potential_1d(q, 1.0)
    ys = np.linspace(-3.5, 3.5, 2001)
    dens = np.exp(-np.array([V1(y) for y in ys]) / cfg.eps)
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    emp = np.searchsorted(np.sort(path), ys) / len(path)
    ks = float(np.abs(emp - cdf).max())
    return CheckResult("simulate.equilibrium_histogram", ks <= 0.02,
                       f"KS distance {ks:.4f} over {len(path)} samples (tol 0.02)")


def _check_1d_oracle() -> CheckResult:
    q = quartic()
    V1 = reduced_potential_1d(q, 1.0)
    rho = 0.3
    oracle = oracle_mfpt_1d(V1, 0.05, q.u_minus, q.u_plus - rho)
    _, _, _, residual = oracle_identity_1d(V1, 0.05, (-1.2, -0.8), (0.8, 1.2))
    cfg = SimConfig(pot=q, bc=NEUMANN, L=1.0, d=0, eps=0.05, dt=4e-3,
                    t_max=2e4, rho=rho, seed=17)
    stats = mc_stats(cfg, 120)
    z = abs(stats.mean - oracle) / stats.stderr
    ok = z <= 3.5 and residual <= 1e-6
    return CheckResult("simulate.oracle_1d", ok,
                       f"MC {stats.mean:.1f}+-{stats.stderr:.1f} vs oracle "
                       f"{oracle:.1f} (z={z:.2f}), identity residual {residual:.1e}")


_QUICK = [
    _check_gradient_consistency,
    _check_energy_symmetries,
    _check_spectral,
    _check_period_monotone,
    _check_product_convergence,
    _check_specialfn,
    _check_kramers,
    _check_sim_determinism,
    _check_scheme_consistency,
]
_FULL = [_check_equilibrium_ks, _check_1d_oracle]


def run_suite(quick: bool = True) -> list[CheckResult]:
    checks = list(_QUICK) + ([] if quick else list(_FULL))
    out = []
    for fn in checks:
        try:
            out.append(fn())
        except Exception as exc:  # a crashed invariant is a failed invariant
            out.append(CheckResult(fn.__name__, False, f"raised {type(exc).__name__}: {exc}"))
    return out
