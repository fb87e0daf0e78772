"""Loads the library from the checkout's src/ and turns workload inputs into calls."""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout does not contain the library's sources."""


def import_library():
    """Import kramers_spde from this checkout's src/, never from an installed copy."""
    if not (SRC / "kramers_spde" / "__init__.py").is_file():
        raise MissingProgram(f"no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("kramers_spde")
    if Path(lib.__file__).resolve().parent != SRC / "kramers_spde":
        raise MissingProgram(f"kramers_spde imported from {lib.__file__}, not {SRC}")
    importlib.import_module("kramers_spde.cli")
    return lib


def predict(lib, pot, row):
    bc, L, eps, d = row
    return lib.predict_time(pot, L, lib.BoundaryCondition(bc), eps, d=d)


def sim_config(lib, pot, spec: dict, common: dict, key: int, **overrides):
    fields = dict(common, bc=lib.BoundaryCondition(spec["bc"]), d=spec["d"], eps=spec["eps"],
                  t_max=spec["t_max"], seed=key)
    fields.update(overrides)
    return lib.SimConfig(pot=pot, **fields)


def sample_record(s) -> list:
    """[tau or None, steps] of one TransitionSample, as stored in the references."""
    return [None if s.censored or s.tau is None or not math.isfinite(s.tau) else s.tau, s.steps]
