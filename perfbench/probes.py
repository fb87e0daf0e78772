"""Per-layer microbenchmarks: fixed inputs, each timed as the median of several repetitions.

These run with tracing off, after the traced workload phase, and are the
same on every workload.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import library

# Fixed-work Monte Carlo: eps so small that no replica leaves its well, so all
# are censored and the work is exactly m x steps.  Steps give about 0.2 s a run.
_STEPS = {(0, 1): 7000, (0, 20): 6000, (0, 200): 4000,
          (15, 1): 7000, (15, 20): 4000, (15, 200): 900,
          (64, 1): 2500, (64, 20): 900, (64, 200): 100}

# One (bc, L) per regime, at eps = 0.05; the near regimes sit at |lambda_1| = 0.05.
_REGIME_CASES = {
    "neumann_small_l": ("neumann", 2.0),
    "neumann_near_below": ("neumann", math.pi / math.sqrt(1.05)),
    "neumann_near_above": ("neumann", math.pi / math.sqrt(0.95)),
    "neumann_large_l": ("neumann", 4.5),
    "periodic_small_l": ("periodic", 4.0),
    "periodic_near_below": ("periodic", 2 * math.pi / math.sqrt(1.05)),
    "periodic_near_above": ("periodic", 2 * math.pi / math.sqrt(0.95)),
    "periodic_large_l": ("periodic", 9.0),
}


def _median_ns(fn, reps: int, inner: int = 1) -> float:
    """Median over reps of the mean time of one call, over inner back-to-back calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter_ns() - t0) / inner)
    return statistics.median(times)


def _potential(lib, pot, out):
    from kramers_spde.spectral import default_grid_size
    u = np.random.default_rng(1).uniform(-1.5, 1.5, (200, default_grid_size(15, pot.p0)))
    ns = _median_ns(lambda: pot.derivative(u, 1), 21, 20)
    out["potential.derivative_ns.batch"] = (ns, "ns")
    ns = _median_ns(lambda: pot.derivative(0.3, 1), 11, 2000)
    out["potential.derivative_ns.scalar"] = (ns, "ns")


def _spectral(lib, pot, out):
    from kramers_spde.spectral import default_grid_size
    gen = np.random.default_rng(2)
    for d, bc in ((15, lib.NEUMANN), (64, lib.PERIODIC)):
        plan = lib.TransformPlan(bc, 1.0, d, default_grid_size(d, pot.p0))
        c = gen.normal(0.0, 0.1, (200, bc.n_coeffs(d)))
        ns = _median_ns(lambda: plan.analyze(plan.synthesize(c)), 21, 10)
        out[f"spectral.transform_ns_per_row.d{d}"] = (ns / 200, "ns")


def _stationary_spectra(lib, pot, out):
    ns = _median_ns(lambda: lib.turning_points(pot, 0.1), 11, 3)
    out["stationary.turning_points_us"] = (ns / 1e3, "us")
    out["stationary.period_T_ms"] = (_median_ns(lambda: lib.period_T(pot, 0.1), 11) / 1e6, "ms")
    for name, bc, L in (("neumann", lib.NEUMANN, 4.0), ("periodic", lib.PERIODIC, 7.0)):
        prof = lib.instanton(pot, L, bc)
        ns = _median_ns(lambda: lib.instanton(pot, L, bc), 3)
        out[f"stationary.instanton_ms.{name}_L{L:g}"] = (ns / 1e6, "ms")
        ns = _median_ns(lambda: lib.eigs_profile(prof, kmax=40), 5)
        out[f"spectra.eigs_profile_ms.{name}"] = (ns / 1e6, "ms")


def _specialfn(lib, pot, out):
    alphas = [0.05 * 1.2 ** k for k in range(30)]   # 0.05 .. 10.2
    for name, fn in (("psi", lib.psi), ("theta", lib.theta)):
        ns = _median_ns(lambda: [fn(b, a) for b in "+-" for a in alphas], 11)
        out[f"specialfn.{name}_us"] = (ns / (2 * len(alphas)) / 1e3, "us")


def _kramers(lib, pot, out):
    for regime, (bc, L) in _REGIME_CASES.items():
        p = library.predict(lib, pot, (bc, L, 0.05, math.inf))
        if p.regime.value != regime:
            raise AssertionError(f"probe L={L} {bc} selects {p.regime.value}, not {regime}")
        reps = 3 if regime.endswith(("near_above", "large_l")) else 11
        ns = _median_ns(lambda: library.predict(lib, pot, (bc, L, 0.05, math.inf)), reps)
        out[f"kramers.predict_ms.{regime}"] = (ns / 1e6, "ms")


def _simulate(lib, pot, out):
    common = dict(L=1.0, dt=1e-3, check_every=10, scheme="semi_implicit")
    for (d, m), steps in _STEPS.items():
        spec = dict(bc="periodic" if d == 64 else "neumann", d=d, eps=1e-4,
                    t_max=steps * common["dt"])
        cfg = library.sim_config(lib, pot, spec, common, 12345)
        samples = lib.run_replicas(cfg, m)
        if not all(s.censored and s.steps == steps for s in samples):
            raise AssertionError(f"fixed-work probe d={d} m={m} did not run {steps} steps")
        ns = _median_ns(lambda: lib.run_replicas(cfg, m), 3)
        out[f"simulate.ns_per_replica_step.d{d}.m{m}"] = (ns / (m * steps), "ns")
    spec = dict(bc="neumann", d=15, eps=1e-4, t_max=10 * common["dt"])
    cfg = library.sim_config(lib, pot, spec, common, 12345)
    ns = _median_ns(lambda: lib.run_replicas(cfg, 1), 11)
    out["simulate.engine_setup_ms"] = (ns / 1e6, "ms")


def _cli(lib, pot, out, scratch):
    env = dict(os.environ, PYTHONPATH=str(library.SRC))
    cmd = [sys.executable, "-m", "kramers_spde.cli", "predict", "--bc", "neumann",
           "--L", "1", "--eps", "0.05", "--d", "inf", "--out", str(scratch / "cold_predict")]

    def run():
        subprocess.run(cmd, env=env, cwd=library.ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
    out["cli.cold_predict_s"] = (_median_ns(run, 3) / 1e9, "s")


def run_all(lib, pot, scratch) -> dict:
    """{metric name: (value, unit)} for every probe."""
    out = {}
    for probe in (_potential, _spectral, _stationary_spectra, _specialfn, _kramers, _simulate):
        probe(lib, pot, out)
    _cli(lib, pot, out, scratch)
    return out
