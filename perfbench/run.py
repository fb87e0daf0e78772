"""Benchmark of kramers-spde: one workload per run, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload predict-sweep --seed 1 --seconds 24 --trace 0

Workloads: predict-sweep and mc (see perfbench/README.md).
With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  The
line before it is the environment block.  Every output is checked against
the references in perfbench/reference/; on a mismatch the input is named on
stderr and the exit code is 1.  Without the library's sources next to
perfbench/ the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

import library
import workloads as W

WORKLOADS = ("predict-sweep", "mc")
SETUP_CHILDREN = 4      # set-ups per run in fresh interpreters, besides this process's own
MIN_RUNS = 2            # times each sweep row or MC batch of a run is timed, at least
REL_TOL = 1e-9          # prediction gate: relative drift of log10_expected_time
OUT_DIR = library.ROOT / ".perfbench_out"
# The JSON result carries the metrics that every workload has and that hold
# steady across seeds; the rest are printed on stderr and kept in the result
# file (see README: end-to-end metrics).
JSON_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
SELF_TIME_MODULES = ("potential", "spectral", "spectra", "kramers")   # called on every workload


def _load_reference(part: str):
    with open(library.ROOT / "perfbench" / "reference" / f"{part}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- set-up

def warm_up(lib, pot, workload: str) -> None:
    """One untimed call per path, on inputs outside every timed set."""
    if workload == "predict-sweep":
        library.predict(lib, pot, ("neumann", 4.05, 0.07, math.inf))
        return
    for spec in W.MC_SPECS.values():
        library.predict(lib, pot, (spec["bc"], W.MC_COMMON["L"], 0.05125, spec["d"]))
        lib.run_replicas(library.sim_config(lib, pot, spec, W.MC_COMMON, 1, t_max=0.1), 2)


def _child(args, flag: str) -> str:
    """Last stdout line of this script run with a hidden flag in a fresh interpreter."""
    out = subprocess.run([sys.executable, __file__, flag, "--workload", args.workload,
                          "--seed", str(args.seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.strip().splitlines()[-1]


def setup_in_child(args) -> float:
    return float(_child(args, "--setup-probe"))


# ---------------------------------------------------------------- environment

def _blas() -> dict:
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                threads = int(getattr(lib, name)())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a clone)."""
    git = library.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(library.SRC.rglob("*.py")):
        h.update(str(path.relative_to(library.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, load_at_start, batch_keys) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas(), "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_at_start), "git_commit": _git_commit(),
        "source_sha256": _source_sha256(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "batch_keys": batch_keys,
    }


# ---------------------------------------------------------------- phases

class Phase:
    """Timings, counts and gate results of one run's calls."""

    def __init__(self):
        self.predict_ns: list[int] = []          # every timed predict_time call
        self.pass_ns: list[list[int]] = []       # predict-sweep: call times of each pass
        self.batches: list[dict] = []
        self.taus = {config: [] for config in W.MC_SPECS}   # first runs of the batches only
        self.records: dict[tuple, list] = {}    # (config, candidate) -> records of its first run
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []


def run_predictions(lib, pot, rows, reference, phase: Phase, between=None) -> list[int]:
    """Time and gate one predict_time call per row; returns the call times."""
    start = len(phase.predict_ns)
    for row in rows:
        if between:
            between()
        key = W.row_key(*row)
        phase.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            p = library.predict(lib, pot, row)
        except Exception as exc:  # a failed call is counted and named, and the run goes on
            phase.predict_ns.append(time.perf_counter_ns() - t0)
            phase.failed += 1
            phase.mismatches.append(f"predict {key}: raised {exc!r}")
            continue
        phase.predict_ns.append(time.perf_counter_ns() - t0)
        ref_log10, ref_regime = reference[key]
        drift = abs(p.log10_expected_time - ref_log10) / max(abs(ref_log10), 1e-300)
        if drift > REL_TOL or p.regime.value != ref_regime:
            phase.mismatches.append(
                f"predict {key}: log10_expected_time {p.log10_expected_time!r} regime "
                f"{p.regime.value} vs reference {ref_log10!r} {ref_regime} (rel {drift:.2e})")
    return phase.predict_ns[start:]


def sweep_in_child(args, phase: Phase) -> None:
    """One more predict-sweep pass, gated, in a fresh interpreter.

    A fresh process keeps the pass from reusing anything the library may
    remember from the first one, like a user's next `kramers-spde sweep`.
    """
    child = json.loads(_child(args, "--sweep-pass"))
    phase.attempted += len(child["ns"])
    phase.failed += child["failed"]
    phase.mismatches += [f"pass {len(phase.pass_ns) + 1}: {m}" for m in child["mismatches"]]
    phase.predict_ns += child["ns"]
    phase.pass_ns.append(child["ns"])


def _mean_stderr(taus: list[float]) -> tuple[float, float]:
    n = len(taus)
    mean = math.fsum(taus) / n
    var = math.fsum((t - mean) ** 2 for t in taus) / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def run_batch(lib, pot, config: str, j: int, replay: int, reference: list, phase: Phase) -> None:
    """Run candidate batch j of an MC configuration once.

    Its first run is gated against the reference, a later run against the first.
    """
    spec, ref = W.MC_SPECS[config], reference[j]
    cfg = library.sim_config(lib, pot, spec, W.MC_COMMON, ref["key"])
    label = f"{config} batch {j} (key {ref['key']}) run {replay + 1}"
    phase.attempted += spec["m"]
    t0 = time.perf_counter()
    try:
        samples = lib.run_replicas(cfg, spec["m"])
    except Exception as exc:  # the whole batch is lost: count every replica as failed
        phase.failed += spec["m"]
        phase.mismatches.append(f"{label}: raised {exc!r}")
        return
    wall = time.perf_counter() - t0
    records = [library.sample_record(s) for s in samples]
    taus = [r[0] for r in records if r[0] is not None]
    phase.failed += spec["m"] - len(taus)
    steps = [s.steps for s in samples]
    batch = {"config": config, "candidate": j, "key": ref["key"], "replay": replay,
             "wall_s": wall, "m": spec["m"], "replica_steps": sum(steps),
             "batch_steps": max(steps), "hits": len(taus), "moved": 0}
    if replay:
        # Replica streams are keyed, so a replay must repeat the first run bit for bit.
        first = phase.records.get((config, j))
        if first is not None and records != first:
            phase.mismatches.append(f"{label}: samples differ from the first run of the batch")
        phase.batches.append(batch)
        return
    phase.records[(config, j)] = records
    ref_taus = [r[0] for r in ref["samples"] if r[0] is not None]
    check = W.MC_COMMON["check_every"] * W.MC_COMMON["dt"]
    batch["moved"] = sum(1 for r, q in zip(records, ref["samples"])
                         if (r[0] is None) != (q[0] is None)
                         or (r[0] is not None and abs(r[0] - q[0]) > check * (1 + 1e-9)))
    allowed = max(1, spec["m"] // 100)
    if batch["moved"] > allowed:
        phase.mismatches.append(
            f"{label}: {batch['moved']} of {spec['m']} replicas' tau moved by more than one "
            f"check from the reference (a roundoff change may move at most {allowed})")
    phase.taus[config] += taus
    ref_mean, ref_se = _mean_stderr(ref_taus)
    if len(taus) < 2:
        phase.mismatches.append(f"{label}: only {len(taus)} replicas reached the target")
    else:
        mean, _ = _mean_stderr(taus)
        if abs(mean - ref_mean) > 2.0 * ref_se:
            phase.mismatches.append(
                f"{label}: mean tau {mean!r} is more than 2 standard errors ({ref_se:.4g}) "
                f"from the reference {ref_mean!r}")
    phase.batches.append(batch)


def repeats(args) -> int:
    """predict-sweep passes, or runs of each MC batch, in this run.

    They fill about `--seconds` at the seed state.  A traced run, and the
    untraced run it compares with, make one pass or MIN_RUNS runs: they
    give layer numbers and counts, not the end-to-end figures.
    """
    if args.workload == "predict-sweep":
        single, unit_s = 1, W.SWEEP_PASS_S
    else:
        single = MIN_RUNS
        unit_s = W.KEYS_PER_CONFIG * sum(spec["batch_s"] for spec in W.MC_SPECS.values())
    if args.trace or args.no_children:
        return single
    return max(MIN_RUNS, round(args.seconds / unit_s))


def run_workload(lib, pot, args, between=None) -> Phase:
    """The timed phase; `between` is called before every timed unit in this process."""
    phase = Phase()
    predictions = _load_reference("predictions")
    if args.workload == "predict-sweep":
        phase.pass_ns.append(run_predictions(lib, pot, W.sweep_rows(args.seed), predictions,
                                             phase, between))
        for _ in range(repeats(args) - 1):
            sweep_in_child(args, phase)
        return phase
    run_predictions(lib, pot, [W.mc_row(config) for config in W.MC_SPECS], predictions, phase)
    pools = _load_reference("pools")
    draw = [(config, j) for config in W.MC_SPECS
            for j in W.batch_draw(config, args.seed, pools[config])]
    # Round robin: each batch's runs are spread over the whole run.
    for replay in range(repeats(args)):
        for config, j in draw:
            if between:
                between()
            run_batch(lib, pot, config, j, replay, pools[config], phase)
    return phase


def units_per_run(args) -> int:
    """Timed rows or batches of this process's part of a run."""
    if args.workload == "predict-sweep":
        return len(W.sweep_rows(args.seed))
    return len(W.MC_SPECS) * W.KEYS_PER_CONFIG * repeats(args)


# ---------------------------------------------------------------- metrics

def fastest_runs(phase: Phase) -> list[dict]:
    """The fastest run of each distinct batch, in draw order."""
    best: dict[tuple, dict] = {}
    for b in phase.batches:
        key = (b["config"], b["candidate"])
        if key not in best or b["wall_s"] < best[key]["wall_s"]:
            best[key] = b
    return list(best.values())


def config_runs(phase: Phase) -> dict:
    """Per MC configuration, the fastest run of each of its batches."""
    fastest = fastest_runs(phase)
    return {config: [b for b in fastest if b["config"] == config] for config in W.MC_SPECS}


def workload_wall(args, phase: Phase) -> float:
    """The run's rows or batches, each at its fastest run.

    The host runs interpreter-bound code up to 1.7x slower for seconds at a
    time (README: host noise).  Every row or batch is run several times,
    spread over the run, and its fastest run is the one least touched by a
    slow stretch.
    """
    if args.workload == "predict-sweep":
        return sum(min(calls) for calls in zip(*phase.pass_ns)) / 1e9
    return sum(b["wall_s"] for b in fastest_runs(phase))


def end_to_end(args, phase: Phase, setups: list[float]) -> dict:
    """All end-to-end metrics the workload has, {name: (value, unit)}."""
    m = {"setup_s": (min(setups), "s"),
         "wall_s": (workload_wall(args, phase), "s")}
    if phase.batches:
        for config, runs in config_runs(phase).items():
            wall = sum(b["wall_s"] for b in runs)
            mean, se = _mean_stderr(phase.taus[config])
            m[f"wall_s.{config}"] = (wall, "s")
            m[f"replica_steps_per_s.{config}"] = (
                sum(b["replica_steps"] for b in runs) / wall, "1/s")
            m[f"mc_cost_1pct_s.{config}"] = (wall * (se / mean / 0.01) ** 2, "s")
    else:
        ns = phase.predict_ns
        m["predict_p50_ms"] = (statistics.median(ns) / 1e6, "ms")
        m["predict_p90_ms"] = (statistics.quantiles(ns, n=10)[-1] / 1e6, "ms")
    m["failed_frac"] = (phase.failed / phase.attempted, "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def untraced_wall(args) -> float:
    """wall_s of the same workload and seed, untraced, in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--no-children"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=100)
    if out.returncode != 0:
        raise RuntimeError(f"untraced run failed ({out.returncode}): {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]["wall_s"]["value"]


def per_layer(args, phase: Phase, tracer, probe_values: dict, wall_untraced: float) -> dict:
    b = phase.batches
    m = dict(probe_values)
    for name, v in {
        "potential.derivative_calls": tracer.counts["derivative"],
        "stationary.period_T_calls": tracer.counts["period_T"],
        "stationary.instanton_calls": tracer.counts["instanton"],
        "simulate.replica_steps": sum(x["replica_steps"] for x in b),
        "simulate.batch_steps": sum(x["batch_steps"] for x in b),
        "simulate.hits": sum(x["hits"] for x in b),
        "simulate.tau_moved": sum(x["moved"] for x in b),
    }.items():
        m[name] = (v, "count")
    slots = sum(x["m"] * x["batch_steps"] for x in b)
    m["simulate.occupancy"] = (m["simulate.replica_steps"][0] / slots if slots else 0.0, "ratio")
    for config, runs in config_runs(phase).items():
        m[f"simulate.batches_s.{config}"] = (sum(b["wall_s"] for b in runs), "s")
    m["kramers.self_ms"] = (statistics.median(tracer.span_self_ns("predict_time")) / 1e6, "ms")
    for module in SELF_TIME_MODULES:
        m[f"self_ms.{module}"] = (tracer.self_ns[module] / 1e6, "ms")
    traced = workload_wall(args, phase)
    m["trace.overhead_s"] = (traced - wall_untraced, "s")
    m["trace.overhead_pct"] = (100.0 * (traced - wall_untraced) / wall_untraced, "%")
    return dict(sorted(m.items()))


# ---------------------------------------------------------------- main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the untraced comparison run of a traced run starts no
    # children; the children print a set-up time or one sweep pass.
    ap.add_argument("--no-children", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--sweep-pass", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _measurable(args, phase: Phase) -> bool:
    """False, after naming every failure, when an MC workload completed no batch."""
    if phase.batches or args.workload == "predict-sweep":
        return True
    for line in phase.mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    print("perfbench: nothing left to measure; no result", file=sys.stderr)
    return False


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    try:
        lib = library.import_library()
    except (library.MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    pot = lib.quartic()
    warm_up(lib, pot, args.workload)
    setups = [time.perf_counter() - T_START]
    if args.setup_probe:
        print(repr(setups[0]))
        return 0
    if args.sweep_pass:
        phase = Phase()
        ns = run_predictions(lib, pot, W.sweep_rows(args.seed), _load_reference("predictions"),
                             phase)
        print(json.dumps({"ns": ns, "failed": phase.failed, "mismatches": phase.mismatches}))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    if args.trace:
        import probes
        from tracing import Tracer
        wall_untraced = untraced_wall(args)
        with Tracer() as tracer:
            phase = run_workload(lib, pot, args)
        if not _measurable(args, phase):
            return 1
        tracer.write(OUT_DIR / f"{tag}_spans.json")
        table = per_layer(args, phase, tracer, probes.run_all(lib, pot, OUT_DIR), wall_untraced)
        metrics = table
        self_table = {m: tracer.self_ns[m] / 1e6 for m in sorted(set(tracer.self_ns))}
    else:
        children = 0 if args.no_children else SETUP_CHILDREN
        units, started = units_per_run(args), 0

        def between():
            """Set-ups in fresh interpreters, spread evenly over the timed units."""
            nonlocal started
            started += 1
            while len(setups) - 1 < started * children // units:
                setups.append(setup_in_child(args))

        phase = run_workload(lib, pot, args, between)
        if not _measurable(args, phase):
            return 1
        table = end_to_end(args, phase, setups)
        metrics = {k: table[k] for k in JSON_METRICS}
        self_table = None

    env = environment(args, load_at_start, [b["key"] for b in phase.batches if not b["replay"]])
    correct = not phase.mismatches
    for line in phase.mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: attempted {phase.attempted}, "
          f"failed {phase.failed}, "
          f"correct {correct}, batch runs {len(phase.batches)}, "
          f"tau moved > 1 check {sum(b['moved'] for b in phase.batches)}", file=sys.stderr)
    for k, (v, unit) in table.items():
        print(f"  {k:42s} {v:>16.6g} {unit}", file=sys.stderr)
    if self_table:
        print("  self time by module in the traced workload phase (ms): "
              + ", ".join(f"{m} {self_table.get(m, 0.0):.1f}" for m in
                          ("potential", "spectral", "stationary", "spectra", "specialfn",
                           "kramers", "simulate", "cli")), file=sys.stderr)

    result = {"correct": correct, "attempted": phase.attempted, "failed": phase.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "table": table,
                   "passes_s": [sum(p) / 1e9 for p in phase.pass_ns], "batches": phase.batches,
                   "mismatches": phase.mismatches, "self_ms_by_module": self_table}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
