"""The benchmark reaches the library from outside, by the names it patches
and calls; each must resolve."""

import importlib.util
import sys
from pathlib import Path

import kramers_spde
from kramers_spde import NEUMANN, PERIODIC, SimConfig, quartic

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def test_tracer_patches_every_name_and_restores_it():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()  # raises if a patched name has moved
    saved = list(tracer._saved)
    try:
        # a large-L and a near-bifurcation prediction of each bc, a d = 15
        # small-L prediction and one replica batch reach the patched names
        # through the names the library looks up
        kramers_spde.predict_time(quartic(), 4.0, NEUMANN, 0.05)
        kramers_spde.predict_time(quartic(), 3.1, NEUMANN, 0.05)
        kramers_spde.predict_time(quartic(), 6.5, PERIODIC, 0.05)
        kramers_spde.predict_time(quartic(), 1.0, NEUMANN, 0.05, d=15)
        kramers_spde.run_replicas(SimConfig(quartic(), NEUMANN, 1.0, 4, 0.5, 1e-3, 0.02), 2)
    finally:
        tracer.uninstall()
    assert len(saved) == len(tracing.PATCHES)
    # not reached: dT_dE, as the library takes T'(E) inside
    # stationary._period_values, together with T(E); instanton and
    # eigs_profile, as predictions take the instanton's orbit and its moment
    # spectrum (instanton_orbit, eigs_orbit) in their place
    unreached = {label for _, _, label, _, _ in tracing.PATCHES if not tracer.counts[label]}
    assert unreached == {"dT_dE", "instanton", "eigs_profile"}
    assert all(owner.__dict__[attr] is original for owner, attr, original in saved)


def test_stationary_spectra_probe_runs_on_the_library(monkeypatch):
    # the per-layer probe calls instanton and eigs_profile by their public
    # names; probes.py imports perfbench's library.py as "library"
    monkeypatch.setitem(sys.modules, "library", _load("library"))
    out = {}
    _load("probes")._stationary_spectra(kramers_spde, quartic(), out)
    assert set(out) == {"stationary.turning_points_us", "stationary.period_T_ms",
                        "stationary.instanton_ms.neumann_L4",
                        "stationary.instanton_ms.periodic_L7",
                        "spectra.eigs_profile_ms.neumann", "spectra.eigs_profile_ms.periodic"}
    assert all(value > 0.0 for value, _ in out.values())


def test_spectral_probe_runs_on_the_library(monkeypatch):
    # the per-layer probe times plan.analyze(plan.synthesize(c)) at Neumann
    # d = 15 and periodic d = 64 through the public TransformPlan names
    monkeypatch.setitem(sys.modules, "library", _load("library"))
    out = {}
    _load("probes")._spectral(kramers_spde, quartic(), out)
    assert set(out) == {"spectral.transform_ns_per_row.d15",
                        "spectral.transform_ns_per_row.d64"}
    assert all(value > 0.0 for value, _ in out.values())
