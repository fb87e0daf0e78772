import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.fft import irfft, rfft

from kramers_spde import (AllCensored, FourierState, NEUMANN, PERIODIC,
                          SimConfig, TransformPlan, galerkin_error, mc_stats,
                          oracle_identity_1d, oracle_mfpt_1d, quartic, reduced_potential_1d,
                          run_replicas, sample_path, sample_transition, step, sup_dist)
from kramers_spde import simulate
from kramers_spde.simulate import _MATRIX_MAX_D, _Engine, _run_batch, _stats_from_samples
from kramers_spde.spectral import default_grid_size


def _cfg(pot, **kw):
    base = dict(pot=pot, bc=NEUMANN, L=1.0, d=3, eps=0.3, dt=1e-3,
                t_max=100.0, seed=42)
    base.update(kw)
    return SimConfig(**base)


def test_replica_streams_overlap_across_seeds(pot):
    # replica i is keyed seed XOR i, so seed 0's replica 1 is seed 1's replica 0
    a = run_replicas(_cfg(pot, seed=0), 2)
    b = run_replicas(_cfg(pot, seed=1), 1)
    assert (a[1].tau, a[1].steps) == (b[0].tau, b[0].steps)
    assert a[0].tau != a[1].tau


def test_stationary_point_is_fixed_without_noise(pot):
    cfg = _cfg(pot, eps=0.0)
    s = FourierState.constant(pot.u_minus, NEUMANN, 1.0, 3)
    for scheme in ("semi_implicit", "exponential"):
        out = step(s, _cfg(pot, eps=0.0, scheme=scheme), np.zeros(4))
        assert np.abs(out.coeffs - s.coeffs).max() <= 1e-12


def test_linear_mode_decay_semi_implicit(pot):
    # with the nonlinearity off, a single mode follows y (1 + nu dt)^{-n}
    cfg = _cfg(pot, d=2, eps=0.0, dt=1e-2)
    path = sample_path(cfg, 50, linear_only=True)
    # start coeffs: (u_minus sqrt(L), 0, 0); mode 0 has nu = 0 and stays put
    assert path[-1][0] == pytest.approx(pot.u_minus)
    nu1 = (math.pi / 1.0) ** 2
    y0 = 0.7
    eng = _Engine(cfg, nonlinear=False)
    y = np.array([[0.0, y0, 0.0]])
    for n in range(1, 4):
        y = eng.step(y, np.zeros((1, 3)))
        assert y[0, 1] == pytest.approx(y0 * (1 + nu1 * 1e-2) ** (-n), rel=1e-12)
    # matches e^{-nu t} to first order in dt: halving dt halves the defect
    defects = [abs((1 + nu1 * dt) ** (-1.0 / dt) - math.exp(-nu1))
               for dt in (1e-2, 5e-3, 2.5e-3)]
    assert defects[0] / defects[1] == pytest.approx(2.0, rel=0.15)
    assert defects[1] / defects[2] == pytest.approx(2.0, rel=0.15)


def test_ou_stationary_variance(pot):
    # exponential scheme is exact for the linear modes: var -> eps / nu_k
    cfg = _cfg(pot, d=2, eps=0.2, dt=5e-3, scheme="exponential", seed=3)
    path = sample_path(cfg, 200_000, linear_only=True)
    nu = np.array([(k * math.pi) ** 2 for k in range(3)])
    for k in (1, 2):
        var = float(path[:, k].var())
        # effective sample size from the OU autocorrelation time
        n_eff = 200_000 * (1 - math.exp(-2 * nu[k] * 5e-3)) / 2
        se = math.sqrt(2.0 / n_eff) * (0.2 / nu[k])
        assert abs(var - 0.2 / nu[k]) <= 3.0 * se
    # semi-implicit chain has stationary variance eps/(nu (1 + nu dt / 2))
    cfg2 = _cfg(pot, d=1, eps=0.2, dt=5e-3, scheme="semi_implicit", seed=4)
    path2 = sample_path(cfg2, 200_000, linear_only=True)
    k = 1
    target = 0.2 / (nu[k] * (1 + nu[k] * 5e-3 / 2))
    n_eff = 200_000 * nu[k] * 5e-3
    assert abs(float(path2[:, k].var()) - target) <= 4.0 * math.sqrt(2 / n_eff) * target


def test_determinism_and_tau_grid(pot):
    cfg = _cfg(pot)
    a = sample_transition(cfg)
    b = sample_transition(cfg)
    assert a == b
    assert not a.censored
    ratio = a.tau / (cfg.check_every * cfg.dt)
    assert abs(ratio - round(ratio)) < 1e-9  # recorded at the first checked time


def test_batch_matches_single_replicas(pot):
    cfg = _cfg(pot, seed=7)
    batch = run_replicas(cfg, 6)
    singles = [_run_batch(cfg, [i])[0] for i in range(6)]
    assert batch == singles


def test_forced_duplicate_streams_give_zero_stderr(pot):
    cfg = _cfg(pot, seed=9)
    stats = _stats_from_samples(_run_batch(cfg, [1, 1]), cfg)
    assert stats.stderr == 0.0 and stats.min == stats.max


def test_threads_do_not_change_samples(pot):
    # 5 replicas over 2 workers: uneven round-robin chunks, reassembled in order
    cfg = _cfg(pot, seed=7)
    assert run_replicas(cfg, 5, threads=2) == run_replicas(cfg, 5, threads=1)
    assert mc_stats(cfg, 5, threads=2) == mc_stats(cfg, 5, threads=1)


@pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
@pytest.mark.parametrize("d", [0, 15, 32, 33, 64])
def test_engine_transforms_match_transform_plan(pot, bc, d):
    # the engine's transforms and hit check are TransformPlan's, on both
    # sides of its matrix/FFT cutoff and for the constant field of d = 0
    cfg = _cfg(pot, bc=bc, d=d)
    eng = _Engine(cfg)
    plan = TransformPlan(bc, cfg.L, d, default_grid_size(d, pot.p0))
    y = np.random.default_rng(d).normal(scale=0.5, size=(7, bc.n_coeffs(d)))
    y[:, 0] += pot.u_minus
    want = -plan.analyze(pot.derivative(plan.synthesize(y), 1))
    got = -eng.potential_gradient(y, np.empty_like(y))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    target = FourierState.constant(pot.u_plus, bc, cfg.L, d)
    ref = [sup_dist(FourierState(bc, cfg.L, d, row), target, cfg.refine) for row in y]
    assert eng.sup_to_target(y) == pytest.approx(ref, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), L=st.floats(0.3, 20.0),
       d=st.integers(0, _MATRIX_MAX_D), refine=st.integers(4, 12), rows=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
@example(bc=PERIODIC, L=1.0, d=26, refine=8, rows=1, seed=231)  # endpoint sum cancels
def test_matrix_form_matches_transform_plan(bc, L, d, refine, rows, seed):
    # the engine's matrix products are the plans' transforms up to summation
    # order: each row within roundoff of its largest sum of term magnitudes,
    # |input| @ |matrix|, which does not shrink when the terms cancel
    eng = _Engine(SimConfig(pot=quartic(), bc=bc, L=L, d=d, eps=0.1, dt=1e-3, t_max=1.0,
                            refine=refine))
    plan, ref = eng.plan, eng.ref_plan
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(rows, bc.n_coeffs(d)))
    v = rng.normal(size=(rows, plan.n))
    cases = [(y @ eng._synth, plan.synthesize(y), y, eng._synth),
             (v @ eng._proj, plan.analyze(v), v, eng._proj),
             (y @ eng._sup, np.hstack([ref.synthesize(y), ref.endpoint_values(y)]), y, eng._sup)]
    for got, want, x, matrix in cases:
        assert got.shape == want.shape
        terms = (np.abs(x) @ np.abs(matrix)).max(axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= 32 * np.finfo(float).eps * terms)


def _fresh_transforms(eng):
    """(synthesize, analyze) of the engine's transform as plain expressions on fresh arrays."""
    if eng.cfg.d <= _MATRIX_MAX_D:  # the matrix form
        return (lambda c: c @ eng._synth), (lambda v: v @ eng._proj)
    plan = eng.plan
    n, L, d = plan.n, plan.L, plan.d
    if plan.bc is NEUMANN:
        # Makhoul's DCT-II: bin k of the FFT of x_0, x_2, x_4, ..., x_3, x_1
        # is y_k e^{i pi k / (2n)}, scaled like a periodic pair (bin 0 like a_0)
        h = (n + 1) // 2
        twiddle = np.exp(0.5j * np.pi / n * np.arange(d + 1))
        synth_scale = np.full(d + 1, 0.5 * n * math.sqrt(2.0 / L))
        synth_scale[0] = n / math.sqrt(L)
        analyze_scale = np.full(d + 1, math.sqrt(2.0 * L) / n)
        analyze_scale[0] = math.sqrt(L) / n

        def synth(c):
            spec = np.zeros((len(c), n // 2 + 1), dtype=complex)
            spec[:, : d + 1] = c * (synth_scale * twiddle)
            permuted = np.fft.irfft(spec, n, axis=-1)
            x = np.empty_like(permuted)
            x[:, 0::2] = permuted[:, :h]
            x[:, 1::2] = permuted[:, h:][:, ::-1]
            return x

        def ana(v):
            permuted = np.concatenate([v[:, 0::2], v[:, 1::2][:, ::-1]], axis=-1)
            spec = np.fft.rfft(permuted, axis=-1)[:, : d + 1]
            return (spec.real * (analyze_scale * twiddle.real)
                    + spec.imag * (analyze_scale * twiddle.imag))
        return synth, ana

    def synth(c):
        spec = np.zeros((len(c), n // 2 + 1), dtype=complex)
        spec[:, 0] = c[:, 0] * (n / math.sqrt(L))
        spec[:, 1 : d + 1] = 0.5 * n * math.sqrt(2.0 / L) * (c[:, 1::2] - 1j * c[:, 2::2])
        return irfft(spec, n, axis=-1)

    def ana(v):
        spec = rfft(v, axis=-1)
        out = np.empty((len(v), 2 * d + 1))
        out[:, 0] = spec[:, 0].real * (math.sqrt(L) / n)
        out[:, 1::2] = math.sqrt(2.0 * L) / n * spec[:, 1 : d + 1].real
        out[:, 2::2] = -math.sqrt(2.0 * L) / n * spec[:, 1 : d + 1].imag
        return out
    return synth, ana


def _reference_step(eng, y, xi):
    cfg = eng.cfg
    dU = cfg.pot._deriv_scalar[1]
    synth, ana = _fresh_transforms(eng)
    if not eng.nonlinear:
        N = np.zeros_like(y)
    elif cfg.d == 0:
        s = math.sqrt(cfg.L)
        N = -s * np.polyval(dU, y / s)
    else:
        N = -ana(np.polyval(dU, synth(y)))
    if cfg.scheme == "semi_implicit":
        return (y + cfg.dt * N + math.sqrt(2.0 * cfg.eps * cfg.dt) * xi) / (1.0 + eng.nu * cfg.dt)
    return eng.exp_mul * y + eng.phi1dt * N + eng.noise_std * xi


@settings(max_examples=80, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), d=st.sampled_from([0, 3, 15, 40, 64]),
       m=st.sampled_from([1, 7, 200]), scheme=st.sampled_from(["semi_implicit", "exponential"]),
       linear_only=st.booleans(), L=st.floats(0.5, 8.0), eps=st.floats(0.0, 2.0),
       dt=st.floats(1e-4, 1e-2), seed=st.integers(0, 2**32 - 1))
def test_step_is_the_reference_formula_bit_for_bit(bc, d, m, scheme, linear_only, L, eps, dt,
                                                   seed):
    pot = quartic()
    cfg = SimConfig(pot=pot, bc=bc, L=L, d=d, eps=eps, dt=dt, t_max=1.0, scheme=scheme)
    eng = _Engine(cfg, nonlinear=not linear_only)
    gen = np.random.default_rng(seed)
    y = eng.start + gen.normal(scale=0.5, size=(m, bc.n_coeffs(d)))
    other = eng.start + gen.normal(scale=0.5, size=y.shape)  # another live state
    xi = gen.standard_normal(y.shape)
    # step takes the scaled increment; the scaling is the reference formula's product
    dw = (math.sqrt(2.0 * eps * dt) if scheme == "semi_implicit" else eng.noise_std) * xi
    assert np.array_equal(eng.increments(xi), dw)
    y0, other0, dw0 = y.copy(), other.copy(), dw.copy()
    want = _reference_step(eng, y, xi)
    # a fresh result, then one written into a stale buffer, then a step of
    # another state: none may change an earlier result or the inputs
    fresh = eng.step(y, dw)
    stale = np.full_like(y, np.nan)
    assert eng.step(y, dw, out=stale) is stale
    moved = eng.step(other, dw)
    for got in (fresh, stale):
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, y) and not np.shares_memory(got, moved)
    assert np.array_equal(moved, _reference_step(eng, other, xi))
    assert np.array_equal(y, y0) and np.array_equal(other, other0) and np.array_equal(dw, dw0)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), d=st.sampled_from([0, 15, 40]), check_every=st.sampled_from([1, 3, 10]),
       seed=st.integers(0, 2**63 - 1))
def test_batch_samples_do_not_depend_on_batch_or_subset(data, d, check_every, seed):
    # t_max ends 1497 steps in, off the check grid: some replicas are censored
    cfg = SimConfig(pot=quartic(), bc=NEUMANN, L=1.0, d=d, eps=0.5, dt=1e-3, t_max=1.497,
                    rho=1.5, check_every=check_every, seed=seed)
    full = _run_batch(cfg, list(range(8)))
    assume(len({s.steps for s in full if not s.censored}) >= 2)  # hits at different checks
    subset = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
    assert _run_batch(cfg, subset) == [full[i] for i in subset]


@pytest.mark.parametrize("scheme", ["semi_implicit", "exponential"])
@pytest.mark.parametrize("d", [0, 15, 40])
def test_sample_path_is_replica_zero_step_for_step(pot, monkeypatch, d, scheme):
    cfg = _cfg(pot, d=d, eps=0.5, rho=1.5, seed=11, scheme=scheme)
    states = []
    engine_step = _Engine.step

    def recording_step(self, y, dw, out=None):
        out = engine_step(self, y, dw, out)
        states.append(out[0].copy())
        return out

    monkeypatch.setattr(_Engine, "step", recording_step)
    sample = _run_batch(cfg, [0])[0]
    monkeypatch.undo()
    assert not sample.censored and len(states) == sample.steps
    assert np.array_equal(sample_path(cfg, sample.steps), np.array(states))


@pytest.mark.parametrize("scheme", ["semi_implicit", "exponential"])
@pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
@pytest.mark.parametrize("d", [0, 15, 64])
def test_samples_do_not_depend_on_the_noise_window(monkeypatch, d, bc, scheme):
    # one-check windows, the default byte budget and 64-check windows draw
    # each replica's stream in different pieces; hits inside a window move
    # the later rows' increments up
    cfg = SimConfig(pot=quartic(), bc=bc, L=1.0, d=d, eps=0.5, dt=1e-3, t_max=1.497,
                    rho=1.5, seed=5, scheme=scheme)
    default = _run_batch(cfg, list(range(8)))
    hits = [s.steps for s in default if not s.censored]
    assert len(set(hits)) >= 2 and min(hits) < 64 * cfg.check_every
    for budget in (1, 1 << 40):
        monkeypatch.setattr(simulate, "_WINDOW_BYTES", budget)
        assert _run_batch(cfg, list(range(8))) == default


def test_noise_window_memory_is_bounded(pot):
    # every replica is censored at 700 steps, longer than a 64-check window;
    # one check of normals for all 200 replicas is 2 MB
    cfg = SimConfig(pot=pot, bc=PERIODIC, L=1.0, d=64, eps=1e-4, dt=1e-3, t_max=0.7)
    tracemalloc.start()
    try:
        samples = run_replicas(cfg, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(s.censored and s.steps == 700 for s in samples)
    assert peak <= 8e6


def test_no_transition_recorded_after_t_max(pot):
    # t_max = 5 steps, half a check interval: the run ends, and checks, at step 5
    cfg = SimConfig(pot=pot, bc=NEUMANN, L=1.0, d=0, eps=5.0, dt=1e-3, t_max=0.005,
                    rho=1.99, seed=1)
    samples = run_replicas(cfg, 50)
    hits = [s for s in samples if not s.censored]
    assert hits and all(s.steps == 5 and s.tau <= cfg.t_max for s in hits)
    assert all(s.steps == 5 for s in samples if s.censored)


def test_censoring(pot):
    cfg = _cfg(pot, eps=0.01, t_max=0.5)
    s = sample_transition(cfg)
    assert s.censored and s.tau is None
    with pytest.raises(AllCensored):
        mc_stats(cfg, 3)


def test_symmetric_potential_both_directions(pot):
    fwd = mc_stats(_cfg(pot, seed=21, t_max=400.0), 40)
    bwd = mc_stats(_cfg(pot, seed=22, t_max=400.0, start_well="plus"), 40)
    z = abs(fwd.mean - bwd.mean) / math.hypot(fwd.stderr, bwd.stderr)
    assert z <= 3.0


def test_large_target_ball_hits_fast(pot):
    # a roomy (still disjoint) target ball turns the transition into a small
    # excursion; at eps = 0.3 the hit comes within a few time units
    cfg = _cfg(pot, rho=1.5, t_max=100.0)
    s = sample_transition(cfg)
    tight = sample_transition(_cfg(pot, t_max=100.0))
    assert not s.censored
    assert s.tau <= tight.tau


def test_scheme_consistency_order(pot):
    errs = []
    dts = (1e-2, 5e-3, 2.5e-3)
    for dt in dts:
        fin = {}
        for scheme in ("semi_implicit", "exponential"):
            cfg = _cfg(pot, d=4, eps=0.1, dt=dt, t_max=10.0, seed=5, scheme=scheme)
            fin[scheme] = sample_path(cfg, int(round(1.0 / dt)))[-1]
        errs.append(sup_dist(FourierState(NEUMANN, 1.0, 4, fin["semi_implicit"]),
                             FourierState(NEUMANN, 1.0, 4, fin["exponential"])))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert slope >= 0.9


@pytest.mark.parametrize("field, value", [("d", 2.5), ("d", 3.0), ("check_every", 2.5),
                                          ("refine", 8.5), ("refine", math.inf), ("seed", 1.5)])
def test_non_integer_fields_name_the_field(pot, field, value):
    # refused up front, where a TypeError naming no field would come later
    # (d, check_every, seed), refine = 8.5 would silently run on a 68-point
    # grid and refine = inf would never finish sizing the grid
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
        _cfg(pot, **{field: value})


def test_ball_overlap_rejected(pot):
    # rho must stay below u_+ - u_- = 2, or the target ball swallows the start
    with pytest.raises(ValueError, match="rho"):
        _cfg(pot, rho=2.5)


def test_galerkin_deterministic_spectral_decay(pot):
    # eps = 0 with an analytic start: errors fall faster than any small power
    d_ref = 32
    coeffs = np.zeros(d_ref + 1)
    coeffs[0] = 0.3
    coeffs[1:] = 0.8 * 2.0 ** -np.arange(1, d_ref + 1)
    u0 = FourierState(NEUMANN, 1.0, d_ref, coeffs)
    cfg = _cfg(pot, d=16, eps=0.0, dt=1e-3, t_max=10.0)
    tab = galerkin_error(cfg, [4, 8, 16], T=0.5, u0=u0)
    errs = [r.sup_error for r in tab.rows]
    assert errs[0] > errs[1] > errs[2]
    assert tab.slope < -2.0


def test_galerkin_coupled_noise_decreasing(pot):
    cfg = _cfg(pot, d=8, eps=0.1, dt=1e-3, seed=31)
    tab = galerkin_error(cfg, [4, 8, 16], T=1.0)
    errs = [r.sup_error for r in tab.rows]
    assert errs[0] > errs[1] > errs[2]
    assert tab.d_reference == 32


@pytest.mark.slow
def test_mc_vs_prediction_asymmetric_potential():
    # end-to-end check away from the symmetric special case: the barrier is
    # taken from the starting well u_-, and the measured/predicted ratio
    # stays within the leading-order error band
    from kramers_spde import LocalPotential, predict_time
    pot2 = LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25])
    eps = 0.12
    pred = predict_time(pot2, 1.0, NEUMANN, eps, d=8)
    assert pred.H0 == pytest.approx(-pot2.derivative(pot2.u_minus, 0), rel=1e-12)
    cfg = SimConfig(pot=pot2, bc=NEUMANN, L=1.0, d=8, eps=eps, dt=1e-3,
                    t_max=40 * pred.expected_time, seed=2027)
    st = mc_stats(cfg, 150)
    assert st.censored == 0
    assert abs(math.log(st.mean / pred.expected_time)) <= pred.remainder_scale


@pytest.mark.slow
def test_mc_vs_prediction_periodic():
    # periodic pair-basis noise and doubled-mode prefactor, end to end
    from kramers_spde import predict_time, quartic
    pot = quartic()
    eps = 0.09
    pred = predict_time(pot, 1.5, PERIODIC, eps, d=8)
    assert pred.H0 == pytest.approx(1.5 * 0.25)
    cfg = SimConfig(pot=pot, bc=PERIODIC, L=1.5, d=8, eps=eps, dt=1e-3,
                    t_max=40 * pred.expected_time, seed=2027)
    st = mc_stats(cfg, 150)
    assert st.censored == 0
    assert abs(math.log(st.mean / pred.expected_time)) <= pred.remainder_scale


@pytest.mark.slow
def test_equilibrium_histogram_ks(pot):
    # long-run law of the d = 0 coordinate vs exp(-V1/eps)/Z at a small
    # barrier; samples are correlated, hence the coarse 0.02 tolerance
    cfg = SimConfig(pot=pot, bc=NEUMANN, L=1.0, d=0, eps=1.0, dt=1e-2,
                    t_max=1.0, seed=31, scheme="exponential")
    path = sample_path(cfg, 1_100_000)[100_000:, 0]
    V1 = reduced_potential_1d(pot, 1.0)
    ys = np.linspace(-3.5, 3.5, 2001)
    dens = np.exp(-np.array([V1(float(y)) for y in ys]) / cfg.eps)
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    emp = np.searchsorted(np.sort(path), ys) / len(path)
    assert float(np.abs(emp - cdf).max()) <= 0.02


def test_oracle_mfpt_symmetry(pot):
    V1 = reduced_potential_1d(pot, 1.0)
    a = oracle_mfpt_1d(V1, 0.1, -1.0, 1.0)
    b = oracle_mfpt_1d(V1, 0.1, 1.0, -1.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_oracle_mfpt_vs_eyring_kramers(pot):
    # classical 1D asymptotics as cross-oracle at eps = 0.02
    V1 = reduced_potential_1d(pot, 1.0)
    eps = 0.02
    val = oracle_mfpt_1d(V1, eps, -1.0, 1.0)
    ek = 2 * math.pi / math.sqrt(2.0 * 1.0) * math.exp(0.25 / eps)
    assert val == pytest.approx(ek, rel=0.05)


def test_oracle_identity_residual(pot):
    V1 = reduced_potential_1d(pot, 1.0)
    _, J, cap, res = oracle_identity_1d(V1, 0.05, (-1.2, -0.8), (0.8, 1.2))
    assert res <= 1e-6
    assert J > 0 and cap > 0


def test_d0_reduction_matches_full_machinery(pot):
    # V1(y) = L U(y / sqrt L): check against energy_V of the constant state
    from kramers_spde import energy_V
    L = 2.3
    V1 = reduced_potential_1d(pot, L)
    for y in (-1.1, 0.4, 0.9):
        st = FourierState(NEUMANN, L, 0, np.array([y]))
        assert V1(y) == pytest.approx(energy_V(st, pot), rel=1e-12)
