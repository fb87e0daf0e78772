"""Record the reference outputs that the benchmark's correctness gate compares against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py [predictions] [pools]

With no argument both parts are written to perfbench/reference/; every
entry is computed afresh.  The pools part also stores each batch's wall
time, which documents the baseline cost of every batch; the gate uses only
tau and steps.
"""

from __future__ import annotations

import json
import math
import sys
import time

import library
import workloads as W

OUT = library.ROOT / "perfbench" / "reference"


def _prediction_table(lib, pot, rows) -> dict:
    table = {}
    for row in rows:
        p = library.predict(lib, pot, row)
        table[W.row_key(*row)] = [p.log10_expected_time, p.regime.value]
    return table


def predictions(lib, pot) -> dict:
    """Every lattice row of predict-sweep, and the one prediction of each MC configuration."""
    rows = [(bc, L, eps, math.inf) for bc, _, lattice, _ in W.SWEEP_STRATA
            for L in lattice for eps in W.PREDICT_EPS]
    rows += [W.mc_row(name) for name in W.MC_SPECS]
    return _prediction_table(lib, pot, rows)


def pools(lib, pot) -> dict:
    """Every candidate batch of every Monte Carlo configuration."""
    out = {}
    for name, spec in W.MC_SPECS.items():
        batches = out[name] = []
        for j in range(spec["candidates"]):
            key = W.pool_key(name, j)
            cfg = library.sim_config(lib, pot, spec, W.MC_COMMON, key)
            t0 = time.perf_counter()
            samples = lib.run_replicas(cfg, spec["m"])
            wall = time.perf_counter() - t0
            batches.append({"key": key, "wall_s": round(wall, 3),
                            "samples": [library.sample_record(s) for s in samples]})
            print(f"{name} batch {j}: {wall:.2f} s", file=sys.stderr, flush=True)
    return out


def _write(part: str, data: dict) -> None:
    """One line per entry, and per batch for pools, so that a diff shows what changed."""
    def value(v):
        if isinstance(v, list) and v and isinstance(v[0], dict):
            return "[\n" + ",\n".join(json.dumps(x) for x in v) + "\n]"
        return json.dumps(v)
    body = ",\n".join(f"{json.dumps(k)}: {value(v)}" for k, v in sorted(data.items()))
    (OUT / f"{part}.json").write_text("{\n" + body + "\n}\n", encoding="utf-8")


def main(parts) -> None:
    lib = library.import_library()
    pot = lib.quartic()
    OUT.mkdir(exist_ok=True)
    for part in parts or ("predictions", "pools"):
        _write(part, {"predictions": predictions, "pools": pools}[part](lib, pot))


if __name__ == "__main__":
    main(sys.argv[1:])
