"""Command-line interface: predict, simulate, stationary, eigen, specialfn,
validate, sweep.

Every run writes a JSON manifest (tool version, timestamp, seed, merged
configuration, output paths, and under "environment" the Python, numpy and
scipy versions, the CPU and affinity counts and the resolved thread count;
predict and sweep add the predictions' wall time under "timings", simulate
the Monte Carlo's and, under "diagnostics", its step counts and censored
fraction; --config ignores all but "config" on reload); CSV outputs carry a
`# manifest:` comment line and use '.'-decimal '.17g' floats with '\n' line
endings, so reruns with the same configuration reproduce them byte for byte.
A previous manifest can be fed back through --config (flags win over file
values).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import AllCensored, KramersSpdeError, require_finite
from .kramers import RegimeTag, _label_mu, predict_time
from .potential import LocalPotential, quartic
from .simulate import SimConfig, mc_stats, run_replicas, _stats_from_samples
from .spectra import _eigenvalue_count, det_ratio, eigs_constant, eigs_orbit
from .spectral import NEUMANN, BoundaryCondition, nu, write_profile_csv
from .stationary import instanton, instanton_orbit


def _fmt(x) -> str:
    """'' for None, '.17g' for a float (nan, inf and -inf included), else str."""
    if x is None:
        return ""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _parse_potential(spec) -> LocalPotential:
    if spec is None or spec == "quartic":
        return quartic()
    if isinstance(spec, dict):
        if "preset" in spec:
            return _parse_potential(spec["preset"])
        return LocalPotential.from_coefficients(spec["coefficients"])
    if isinstance(spec, (list, tuple)):
        return LocalPotential.from_coefficients(spec)
    return LocalPotential.from_coefficients([float(t) for t in spec.split(",")])


def _parse_list(text: str) -> list[float]:
    return [float(t) for t in str(text).split(",") if t != ""]


def _parse_grid(text: str, flag: str) -> list[float]:
    """start:step:stop inclusive grid, or a comma list."""
    if ":" not in str(text):
        return _parse_list(text)
    try:
        a, h, b = (float(p) for p in str(text).split(":"))
        ok = all(map(math.isfinite, (a, h, b))) and h > 0.0 and abs(b - a) / h < math.inf
    except ValueError:   # not three numbers
        ok = False
    if not ok:
        raise ValueError(f"{flag} must be start:step:stop, finite, with step > 0, "
                         f"got {text!r}")
    n = int(math.floor((b - a) / h + 1e-9)) + 1   # none if stop < start
    return [a + i * h for i in range(n)]


def _parse_int(value, flag: str) -> int:
    """A whole number (int, float or text) as an int, else a ValueError naming flag."""
    try:
        n = int(value)
        if n == float(value):
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{flag} must be an integer, got {value!r}")


def _parse_d(text) -> float:
    """predict's and sweep's --d: 'inf' or an integer >= 1."""
    if str(text).lower() in ("inf", "infinity"):
        return math.inf
    d = _parse_int(text, "--d")
    if d < 1:
        raise ValueError(f"--d must be >= 1 or inf, got {d}")
    return d


def _threads(requested) -> int:
    if requested is None:
        return os.cpu_count() or 1
    if requested < 1:
        raise ValueError(f"threads must be >= 1, got {requested}")
    return requested


def _environment(threads: int | None = None) -> dict:
    """What a run's timings depend on besides its configuration."""
    from importlib import metadata  # here: importing the CLI need not load it
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": metadata.version("scipy"), "cpu_count": os.cpu_count(),
           "affinity_cpus": None if affinity is None else len(affinity)}
    if threads is not None:
        env["threads"] = threads
    return env


_NOT_CONFIG = ("config", "func", "subcommand", "defaults")  # argparse plumbing


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """Start from --config JSON (or a manifest), overlay explicitly set flags.

    Keys of the loaded file that the subcommand does not know (such as the
    start-ball radius "r" of older manifests) are dropped.
    """
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        known = (vars(args).keys() | parser_defaults.keys()) - set(_NOT_CONFIG)
        cfg = {k: v for k, v in loaded.get("config", loaded).items() if k in known}
    for key, val in vars(args).items():
        if key in _NOT_CONFIG:
            continue
        if val is not None:
            cfg[key] = val
        elif key not in cfg:
            cfg[key] = parser_defaults.get(key)
    return cfg


def _write_manifest(out_prefix: str, subcommand: str, config: dict,
                    outputs: list[str], **record) -> str:
    """The run's manifest; record adds top-level keys such as timings and diagnostics."""
    path = f"{out_prefix}_manifest.json"
    payload = {
        "tool": "kramers-spde",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "seed": config.get("seed"),
        "config": {k: v for k, v in config.items() if k != "out"},
        "outputs": outputs,
        **record,
    }
    _write_json(path, None, payload)
    return path


def _write_csv(path: str, manifest: str, header: list[str], rows) -> None:
    """Write the header, then each row as it arrives (rows may be a generator)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest: {manifest}\n")
        fh.write(",".join(header) + "\n")
        fh.flush()
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
            fh.flush()


def _write_json(path: str, manifest: str | None, payload: dict) -> None:
    if manifest is not None:
        payload = dict(payload, manifest=manifest)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_PREDICT_HEADER = ["L", "eps", "regime", "lambda1", "mu1", "C4", "H0",
                   "prefactor", "log10_expected_time", "remainder_scale"]


def _prediction_row(p) -> list:
    return [p.L, p.eps, p.regime.value, p.lambda1, p.mu1, p.C4, p.H0,
            p.prefactor, p.log10_expected_time, p.remainder_scale]


def _cmd_predict(cfg: dict) -> int:
    pot = _parse_potential(cfg["potential"])
    bc = BoundaryCondition(cfg["bc"])
    d = _parse_d(cfg["d"])
    rows = []
    t0 = time.perf_counter()
    for L in _parse_list(cfg["L"]):
        for eps in _parse_list(cfg["eps"]):
            p = predict_time(pot, L, bc, eps, d=d, lambda_switch=cfg["lambda_switch"])
            rows.append(_prediction_row(p))
    predict_s = time.perf_counter() - t0
    out = cfg["out"]
    manifest = _write_manifest(out, "predict", cfg, [f"{out}.csv"],
                               environment=_environment(), timings={"predict_s": predict_s})
    _write_csv(f"{out}.csv", manifest, _PREDICT_HEADER, rows)
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


def _cmd_simulate(cfg: dict) -> int:
    pot = _parse_potential(cfg["potential"])
    bc = BoundaryCondition(cfg["bc"])
    sim = SimConfig(pot=pot, bc=bc, L=cfg["L"], d=cfg["d"], eps=cfg["eps"],
                    dt=cfg["dt"], t_max=cfg["tmax"], rho=cfg["rho"],
                    check_every=cfg["check_every"], refine=cfg["refine"],
                    seed=cfg["seed"], scheme=cfg["scheme"])
    threads = _threads(cfg.get("threads"))
    t0 = time.perf_counter()
    samples = run_replicas(sim, cfg["n"], threads=threads)
    mc_s = time.perf_counter() - t0
    stats = _stats_from_samples(samples, sim)
    # keep the finished Monte Carlo where predict_time refuses or fails
    pred, refused = None, f"d = {sim.d}, the prediction needs d >= 1"
    if sim.d >= 1:
        try:
            pred = predict_time(pot, cfg["L"], bc, cfg["eps"], d=sim.d)
        except KramersSpdeError as exc:
            refused = str(exc)
    if pred is None:
        print(f"no prediction: {refused}", file=sys.stderr)
    out = cfg["out"]
    steps = [s.steps for s in samples]
    manifest = _write_manifest(
        out, "simulate", cfg, [f"{out}.csv", f"{out}.json"],
        environment=_environment(threads), timings={"mc_s": mc_s},
        diagnostics={"replica_steps": sum(steps), "batch_steps": max(steps),
                     "replica_steps_per_s": sum(steps) / mc_s,
                     "censored_fraction": stats.censored / len(samples)})
    _write_csv(f"{out}.csv", manifest, ["replica", "seed", "tau", "censored", "steps"],
               [[i, s.seed_used, s.tau, int(s.censored), s.steps]
                for i, s in enumerate(samples)])
    _write_json(f"{out}.json", manifest, {
        "stats": stats.__dict__,
        "prediction": None if pred is None else {
            k: (v.value if isinstance(v, (RegimeTag, BoundaryCondition)) else v)
            for k, v in pred.__dict__.items()},
    })
    print(f"n={stats.n} mean={_fmt(stats.mean)} stderr={_fmt(stats.stderr)} "
          f"censored={stats.censored} "
          f"predicted={_fmt(None if pred is None else pred.expected_time)}")
    return 0


def _cmd_stationary(cfg: dict) -> int:
    pot = _parse_potential(cfg["potential"])
    bc = BoundaryCondition(cfg["bc"])
    L = cfg["L"]
    prof = instanton(pot, L, bc, n_samples=cfg["samples"])
    H0 = prof.V_value - L * float(pot.derivative(pot.u_minus, 0))
    out = cfg["out"]
    manifest = _write_manifest(out, "stationary", cfg, [f"{out}.csv", f"{out}.json"],
                               environment=_environment())
    write_profile_csv(f"{out}.csv", prof.x, prof.u, manifest=manifest,
                      bc=bc.value, L=_fmt(L), d=prof.n_samples)
    _write_json(f"{out}.json", manifest, {
        "E": prof.E, "H0": H0, "transition_state": "instanton", "V_value": prof.V_value,
        "deriv_L2": prof.deriv_L2, "turning": list(prof.turning),
    })
    print(f"E={_fmt(prof.E)} H0={_fmt(H0)} V={_fmt(prof.V_value)} "
          f"deriv_L2={_fmt(prof.deriv_L2)}")
    return 0


def _cmd_eigen(cfg: dict) -> int:
    pot = _parse_potential(cfg["potential"])
    bc = BoundaryCondition(cfg["bc"])
    L, kmax = cfg["L"], cfg["kmax"]
    if cfg["which"] == "instanton":
        if cfg["grid_n"] < 256:
            raise ValueError(f"--grid-n must be >= 256, got {cfg['grid_n']}")
        need = _eigenvalue_count(bc, kmax)
        if need > cfg["grid_n"]:
            raise ValueError(f"--kmax {kmax} needs {need} eigenvalues, more than the "
                             f"--grid-n {cfg['grid_n']} coarse grid has")
        rep = eigs_orbit(instanton_orbit(pot, L, bc), kmax, cfg["grid_n"])
        mu = _label_mu(rep.eigenvalues, bc, kmax)
        nu_minus = nu(bc, L, np.arange(1, kmax + 1)) + pot.derivative(pot.u_minus, 2)
        ratio = math.exp(math.fsum(np.log(mu[1:]) - np.log(nu_minus)))
    else:
        minus = eigs_constant(pot, L, bc, "minus", kmax)
        rep = eigs_constant(pot, L, bc, cfg["which"], kmax)
        # one factor per k = 1..kmax: one entry of each periodic cos/sin pair
        mask = np.arange(1, len(rep.eigenvalues), 1 if bc is NEUMANN else 2)
        ratio = det_ratio(rep, minus, kmax, num_mask=mask, den_mask=mask)
    out = cfg["out"]
    manifest = _write_manifest(out, "eigen", cfg, [f"{out}.csv", f"{out}.json"],
                               environment=_environment())
    _write_csv(f"{out}.csv", manifest, ["index", "eigenvalue"],
               list(enumerate(rep.eigenvalues)))
    _write_json(f"{out}.json", manifest, {
        "eigenvalues": list(rep.eigenvalues),
        "negative_count": rep.negative_count,
        "zero_modes": rep.zero_modes,
        "det_ratio": ratio,
    })
    print(f"negative_count={rep.negative_count} zero_modes={rep.zero_modes} "
          f"det_ratio={_fmt(ratio)}")
    return 0


def _cmd_specialfn(cfg: dict) -> int:
    from .specialfn import psi, theta
    grid = _parse_grid(cfg["grid"], "--grid")
    for a in grid:  # checked before any row, so that a bad grid writes nothing
        if not 0.0 <= a < math.inf:
            raise ValueError(f"--grid values must be finite and >= 0, got {_fmt(a)}")
    rows = [[a, psi("+", a), psi("-", a), theta("+", a), theta("-", a)] for a in grid]
    out = cfg["out"]
    manifest = _write_manifest(out, "specialfn", cfg, [f"{out}.csv"],
                               environment=_environment())
    _write_csv(f"{out}.csv", manifest,
               ["alpha", "psi_plus", "psi_minus", "theta_plus", "theta_minus"], rows)
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


def _cmd_validate(cfg: dict) -> int:
    from .validate import run_suite  # only this command loads the invariant suite
    results = run_suite(quick=not cfg.get("full", False))
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} invariant groups passed")
    return 4 if failed else 0


def _cmd_sweep(cfg: dict) -> int:
    pot = _parse_potential(cfg["potential"])
    bc = BoundaryCondition(cfg["bc"])
    d = _parse_d(cfg["d"])
    Ls = _parse_grid(cfg["L_grid"], "--L-grid") if cfg.get("L_grid") else [cfg["L"]]
    epss = _parse_grid(cfg["eps_grid"], "--eps-grid") if cfg.get("eps_grid") else [cfg["eps"]]
    for name, grid in (("L", Ls), ("eps", epss)):
        for value in grid:
            require_finite(**{name: value})
            if value <= 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
    with_mc = bool(cfg.get("with_mc"))

    def sim_config(L, eps):
        return SimConfig(pot=pot, bc=bc, L=L, d=cfg["mc_d"], eps=eps, dt=cfg["dt"],
                         t_max=cfg["tmax"], rho=cfg["rho"], seed=cfg["seed"])
    header = list(_PREDICT_HEADER)
    if with_mc:
        # the first row's Monte Carlo refuses a bad --mc-d, --dt, --tmax or
        # --rho here, before any output is written
        if Ls and epss:
            sim_config(Ls[0], epss[0])
        if cfg["n"] < 2:
            raise ValueError(f"--n must be >= 2 with --with-mc, got {cfg['n']}")
        header += ["mc_mean", "mc_stderr", "censored"]
    out = cfg["out"]
    threads = _threads(cfg.get("threads"))
    manifest = _write_manifest(out, "sweep", cfg, [f"{out}.csv"],
                               environment=_environment(threads))
    censored = []  # (L, eps) of the rows whose replicas were all censored
    predict_s = 0.0

    def rows():
        nonlocal predict_s
        for L in Ls:
            for eps in epss:
                t0 = time.perf_counter()
                p = predict_time(pot, L, bc, eps, d=d,
                                 lambda_switch=cfg["lambda_switch"])
                predict_s += time.perf_counter() - t0
                row = _prediction_row(p)
                if with_mc:
                    sim = sim_config(L, eps)
                    try:
                        stats = mc_stats(sim, cfg["n"], threads=threads)
                    except AllCensored:
                        # keep the prediction, leave the MC columns empty, go on
                        print(f"error: all {cfg['n']} replicas censored at L = {_fmt(L)}, "
                              f"eps = {_fmt(eps)} (t_max = {_fmt(sim.t_max)}); "
                              "raise --tmax", file=sys.stderr)
                        censored.append((L, eps))
                        row += [None, None, cfg["n"]]
                    else:
                        row += [stats.mean, stats.stderr, stats.censored]
                yield row

    _write_csv(f"{out}.csv", manifest, header, rows())
    # written first so that a partial CSV names its manifest; rewritten once
    # every row is in, with the time the predictions took
    _write_manifest(out, "sweep", cfg, [f"{out}.csv"], environment=_environment(threads),
                    timings={"predict_s": predict_s})
    print(f"wrote {out}.csv ({len(Ls) * len(epss)} rows)")
    return 3 if censored else 0


# (name, handler, help, defaults): a subcommand takes exactly one flag per key
# of its defaults, "--" + key with "_" as "-", typed like the default.
_COMMANDS = (
    ("predict", _cmd_predict, "Kramers-law expected transition times",
     dict(bc="neumann", L="1.0", eps="0.05", d="inf", lambda_switch=0.1,
          out="kramers_predict", potential="quartic")),
    ("simulate", _cmd_simulate, "Monte Carlo first-hitting times",
     dict(bc="neumann", L=1.0, eps=0.05, d=15, dt=1e-3, tmax=1e4, rho=0.3, n=100, seed=0,
          scheme="semi_implicit", check_every=10, refine=8, threads=None,
          out="kramers_simulate", potential="quartic")),
    ("stationary", _cmd_stationary, "instanton profile and barrier height",
     dict(bc="neumann", L=4.0, samples=4096, out="kramers_stationary", potential="quartic")),
    ("eigen", _cmd_eigen, "linearization spectra and determinant ratios",
     dict(bc="neumann", L=1.0, which="origin", kmax=16, grid_n=1024, out="kramers_eigen",
          potential="quartic")),
    ("specialfn", _cmd_specialfn, "crossover functions Psi/Theta on a grid",
     dict(grid="0:0.1:10", out="kramers_specialfn")),
    ("validate", _cmd_validate, "run the module invariant suite", dict(full=False)),
    ("sweep", _cmd_sweep, "parameter sweeps with crash-safe CSV output",
     dict(bc="neumann", L=1.0, eps=0.05, L_grid=None, eps_grid=None, d="inf",
          lambda_switch=0.1, with_mc=False, mc_d=15, n=50, dt=1e-3, tmax=1e4, rho=0.3,
          seed=0, threads=None, out="kramers_sweep", potential="quartic")),
)

_TYPES = {"threads": int}  # for options whose default is None (otherwise strings)
_CHOICES = {
    "bc": ["neumann", "periodic"],
    "scheme": ["semi_implicit", "exponential"],
    "which": ["origin", "minus", "plus", "instanton"],
}
_HELP = {
    "potential": "preset name ('quartic') or ascending comma coefficients",
    "out": "output path prefix",
    "L": "domain length (predict: comma list)",
    "eps": "noise strength (predict: comma list)",
    "d": "Galerkin truncation ('inf' for predict and sweep)",
    "grid": "start:step:stop or comma list",
    "L_grid": "start:step:stop",
    "eps_grid": "start:step:stop",
    "full": "include the slow Monte Carlo invariants",
    "grid_n": "coarse FD grid of --which instanton (the fine one has 2 * grid_n nodes)",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kramers-spde",
        description="Metastable transition times for the 1D stochastic "
                    "Allen-Cahn equation: predictions and Monte Carlo.")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, func, help_text, defaults in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config or manifest; explicit flags win")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            # default=None everywhere: _merge_config tells set flags from unset ones
            if isinstance(default, bool):
                p.add_argument(flag, action="store_true", default=None, help=_HELP.get(key))
            else:
                kind = _TYPES.get(key) if default is None else type(default)
                p.add_argument(flag, type=kind, default=None, choices=_CHOICES.get(key),
                               help=_HELP.get(key))
        p.set_defaults(func=func, defaults=defaults)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        cfg = _merge_config(args, args.defaults)
        if getattr(args, "grid_n", None) is not None and cfg["which"] != "instanton":
            ap.error("--grid-n applies only with --which instanton")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for key, default in args.defaults.items():  # --config values bypass argparse's checks
            flag = "--" + key.replace("_", "-")
            if int in (type(default), _TYPES.get(key)) and cfg[key] is not None:
                cfg[key] = _parse_int(cfg[key], flag)
            if key in _CHOICES and cfg[key] not in _CHOICES[key]:
                raise ValueError(f"{flag} must be one of {', '.join(_CHOICES[key])}, "
                                 f"got {cfg[key]!r}")
        return args.func(cfg)
    except KramersSpdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
