"""The traced benchmark patches library names from outside; each must resolve."""

import importlib.util
from pathlib import Path

import kramers_spde
from kramers_spde import NEUMANN, quartic

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_restores_it():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()  # raises if a patched name has moved
    saved = list(tracer._saved)
    try:
        # an instanton and a near-bifurcation prediction reach every
        # prediction-path span through the names the library looks up
        kramers_spde.predict_time(quartic(), 4.0, NEUMANN, 0.05)
        kramers_spde.predict_time(quartic(), 3.1, NEUMANN, 0.05)
    finally:
        tracer.uninstall()
    assert len(saved) == len(tracing.PATCHES)
    for label in ("predict_time", "instanton", "eigs_profile", "lambda_ratio_product_infinite",
                  "psi", "period_T", "turning_points", "derivative"):
        assert tracer.counts[label] > 0, label
    assert all(owner.__dict__[attr] is original for owner, attr, original in saved)
