import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from kramers_spde import (AllCensored, NEUMANN, QuadratureNotConverged, SimConfig, cli,
                          mc_stats, quartic, stationary)
from kramers_spde.cli import main


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_predict_headline_row(tmp_path, capsys):
    rc = run(tmp_path, "predict", "--bc", "neumann", "--L", "1", "--eps", "0.05",
             "--d", "inf", "--potential", "quartic", "--out", "p")
    assert rc == 0
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == ("L,eps,regime,lambda1,mu1,C4,H0,prefactor,"
                        "log10_expected_time,remainder_scale")
    row = lines[2].split(",")
    assert float(row[8]) == pytest.approx(math.log10(517.0902729638), rel=1e-10)
    assert row[2] == "neumann_small_l"


def test_predict_csv_schema_golden(tmp_path):
    run(tmp_path, "predict", "--L", "0.5,1.0", "--eps", "0.1,0.05", "--out", "p")
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert len(lines) == 2 + 4  # manifest comment + header + 2x2 grid
    for line in lines[2:]:
        assert len(line.split(",")) == 10


def test_rerun_reproduces_outputs_byte_identical(tmp_path):
    run(tmp_path, "simulate", "--L", "1", "--eps", "0.3", "--d", "2", "--dt", "1e-3",
        "--tmax", "50", "--n", "3", "--seed", "5", "--out", "s1")
    run(tmp_path, "simulate", "--L", "1", "--eps", "0.3", "--d", "2", "--dt", "1e-3",
        "--tmax", "50", "--n", "3", "--seed", "5", "--out", "s2")
    a = (tmp_path / "s1.csv").read_text().splitlines()[1:]
    b = (tmp_path / "s2.csv").read_text().splitlines()[1:]
    assert a == b


def test_manifest_round_trip(tmp_path):
    run(tmp_path, "predict", "--L", "2.5", "--eps", "0.02", "--out", "first")
    manifest = json.loads((tmp_path / "first_manifest.json").read_text())
    assert manifest["subcommand"] == "predict"
    rc = run(tmp_path, "predict", "--config", "first_manifest.json", "--out", "second")
    assert rc == 0
    a = (tmp_path / "first.csv").read_text().splitlines()[1:]
    b = (tmp_path / "second.csv").read_text().splitlines()[1:]
    assert a == b


def test_config_file_flags_win(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"L": "1.0", "eps": "0.1", "bc": "neumann", "d": "inf"}))
    run(tmp_path, "predict", "--config", "cfg.json", "--eps", "0.05", "--out", "p")
    row = (tmp_path / "p.csv").read_text().splitlines()[2].split(",")
    assert float(row[1]) == 0.05


def test_potential_config_coefficients(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"potential": {"coefficients": [0, 0, -0.5, 0.1, 0.25]}, "L": "1.0"}))
    rc = run(tmp_path, "predict", "--config", "cfg.json", "--out", "p")
    assert rc == 0


def test_simulate_outputs(tmp_path):
    rc = run(tmp_path, "simulate", "--L", "1", "--eps", "0.3", "--d", "2",
             "--dt", "1e-3", "--tmax", "50", "--n", "4", "--seed", "3", "--out", "s")
    assert rc == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[1] == "replica,seed,tau,censored,steps"
    assert len(lines) == 2 + 4
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["stats"]["n"] == 4
    assert "prediction" in payload and payload["prediction"]["H0"] == 0.25


@pytest.mark.parametrize("argv", [
    ["--n", "1", "--tmax", "50"],
    ["--n", "2", "--tmax", "3", "--seed", "2"],   # replica 1 censored
])
def test_simulate_stderr_is_empty_below_two_times(tmp_path, capsys, argv):
    # one uncensored time has no standard error: an empty field, null in JSON
    rc = run(tmp_path, "simulate", "--L", "1", "--eps", "0.3", "--d", "2", *argv,
             "--out", "s")
    out = capsys.readouterr().out
    assert rc == 0 and " stderr= " in out
    stats = json.loads((tmp_path / "s.json").read_text())["stats"]
    assert stats["n"] == 1 and stats["stderr"] is None
    assert stats["censored"] == int(argv[1]) - 1


def test_stationary_outputs(tmp_path):
    rc = run(tmp_path, "stationary", "--bc", "neumann", "--L", "4", "--out", "st")
    assert rc == 0
    head = (tmp_path / "st.csv").read_text().splitlines()
    assert head[0].startswith("#") and "bc=neumann" in head[0] and "L=4" in head[0]
    assert head[1] == "x,u"
    payload = json.loads((tmp_path / "st.json").read_text())
    for key in ("E", "H0", "V_value", "deriv_L2", "turning"):
        assert key in payload
    assert payload["transition_state"] == "instanton"


def test_stationary_solves_the_instanton_once(tmp_path, monkeypatch):
    # H0 comes from the profile written out, at its own sample count
    solve, lengths = stationary.instanton, []

    def counted(*args, **kwargs):
        lengths.append(args[1])
        return solve(*args, **kwargs)
    monkeypatch.setattr(cli, "instanton", counted)
    monkeypatch.setattr(stationary, "instanton", counted)
    assert run(tmp_path, "stationary", "--L", "4", "--samples", "1024", "--out", "st") == 0
    assert lengths == [4.0]
    payload = json.loads((tmp_path / "st.json").read_text())
    pot = quartic()
    assert payload["H0"] == payload["V_value"] - 4.0 * pot.derivative(pot.u_minus, 0)


def test_eigen_grid_n_below_256_is_a_usage_error(tmp_path, capsys):
    # the coarse grid has at least 256 nodes, and the refusal names the flag
    rc = run(tmp_path, "eigen", "--L", "4", "--which", "instanton", "--grid-n", "100")
    assert rc == 2 and "--grid-n must be >= 256" in capsys.readouterr().err


@pytest.mark.parametrize("bc, L, kmax", [("neumann", "4", "300"), ("periodic", "7", "127")])
def test_eigen_kmax_beyond_grid_n_is_a_usage_error(tmp_path, capsys, bc, L, kmax):
    # the coarse grid of --grid-n nodes has fewer eigenvalues than --kmax asks for
    rc = run(tmp_path, "eigen", "--bc", bc, "--L", L, "--which", "instanton", "--kmax", kmax,
             "--grid-n", "256")
    err = capsys.readouterr().err
    assert rc == 2 and f"--kmax {kmax} needs" in err and "--grid-n 256" in err
    assert not (tmp_path / "kramers_eigen.csv").exists()


@pytest.mark.parametrize("which", ["origin", "minus", "plus"])
def test_eigen_grid_n_without_instanton_is_a_usage_error(tmp_path, capsys, which):
    # the flag sizes only the instanton's grids; elsewhere it would do nothing
    rc = run(tmp_path, "eigen", "--L", "1", "--which", which, "--grid-n", "512")
    err = capsys.readouterr().err
    assert rc == 2 and "--grid-n" in err and "--which instanton" in err
    assert not (tmp_path / "kramers_eigen.csv").exists()


@pytest.mark.parametrize("bc, L, kmax", [("neumann", "4", "40"), ("periodic", "6.5", "16")])
def test_eigen_grids_that_disagree_name_grid_n_and_kmax(tmp_path, capsys, bc, L, kmax):
    # the 256 and 512 node grids disagree beyond 1% (ResolutionTooLow): a
    # numerical failure, whose message says which inputs would mend it
    rc = run(tmp_path, "eigen", "--bc", bc, "--L", L, "--which", "instanton", "--kmax", kmax,
             "--grid-n", "256")
    err = capsys.readouterr().err
    assert rc == 3 and "grids 256/512 disagree" in err and f"kmax = {kmax}" in err
    assert "a larger grid or a smaller kmax" in err
    assert not (tmp_path / "kramers_eigen.csv").exists()


_EVERY_REGIME = """
import math, sys
import kramers_spde.cli
from kramers_spde import (NEUMANN, PERIODIC, FourierState, SimConfig, predict_time, quartic,
                          run_replicas, sup_dist)
pot = quartic()
regimes = {predict_time(pot, L, bc, 0.05, d=d).regime.value
           for bc, lengths in ((NEUMANN, (1.0, 3.0, 3.3, 4.5)), (PERIODIC, (4.0, 6.0, 6.5, 9.0)))
           for L in lengths for d in (math.inf, 15)}
print(len(regimes), [m in sys.modules for m in LAZY])
for bc, d in ((NEUMANN, 15), (PERIODIC, 64)):
    cfg = SimConfig(pot=pot, bc=bc, L=1.0, d=d, eps=0.5, dt=1e-3, t_max=0.01, seed=1)
    print(len(run_replicas(cfg, 2)), end=" ")
far = [FourierState.constant(u, NEUMANN, 1.0, 40) for u in (-1.0, 1.0)]
print(sup_dist(*far))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # nor any other scipy module: the CLI, a prediction in each of the eight
    # regimes at d = inf and d = 15, a Monte Carlo run on the matrix form
    # (Neumann d = 15) and one on the FFTs (periodic d = 64), and a Neumann
    # d = 40 sup_dist run on numpy and the stdlib
    lazy = ["scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse",
            "scipy.linalg", "scipy.fft", "scipy.special"]
    code = f"LAZY = {lazy!r}" + _EVERY_REGIME
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines() == [f"8 {[False] * len(lazy)}", "2 2 2.0", "[]"]


_COMMANDS_RUN = """
import sys
from kramers_spde.cli import main
codes = [main(argv) for argv in (
    ["predict", "--L", "1,4.5", "--out", "p"],
    ["simulate", "--eps", "0.3", "--d", "2", "--tmax", "50", "--n", "3", "--threads", "1",
     "--out", "s"],
    ["sweep", "--eps", "0.3", "--with-mc", "--mc-d", "2", "--n", "3", "--tmax", "50",
     "--threads", "1", "--out", "w"])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      [m in sys.modules for m in ("concurrent.futures.process", "kramers_spde.validate")])
"""


def test_predict_simulate_and_sweep_load_no_scipy(tmp_path):
    # the manifest reads scipy's version from its installed metadata
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _COMMANDS_RUN], capture_output=True,
                         text=True, env=env, cwd=tmp_path, check=True)
    # nor the process pool (single-thread runs) or the validation suite
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] [] [False, False]"


def test_stationary_below_threshold_exit_code(tmp_path):
    rc = run(tmp_path, "stationary", "--bc", "neumann", "--L", "3", "--out", "st")
    assert rc == 3  # numerical failure: no instanton below the threshold


@pytest.mark.parametrize("bc, L", [("neumann", "17"), ("periodic", "34")])
def test_stationary_too_long_names_the_input(tmp_path, capsys, bc, L):
    # T(E*) is needed so close to E0 that the period quadrature fails its
    # certificate (quartic()'s first failing lengths, test_instanton_reach)
    rc = run(tmp_path, "stationary", "--bc", bc, "--L", L, "--out", "st")
    assert rc == 3
    assert f"{bc} L = {L}.0 is too long for the period quadrature" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, name", [
    (["simulate", "--L", "0"], "L must be > 0, got 0.0"),
    (["simulate", "--L", "-1"], "L must be > 0, got -1.0"),
    (["simulate", "--d", "-1"], "d must be >= 0, got -1"),
    (["simulate", "--n", "0"], "n_replicas must be >= 1, got 0"),
    (["stationary", "--samples", "0"], "n_samples must be >= 1, got 0"),
    (["stationary", "--samples", "-4"], "n_samples must be >= 1, got -4"),
    (["eigen", "--L", "0"], "L must be > 0, got 0.0"),
    (["eigen", "--L", "-2", "--which", "minus"], "L must be > 0, got -2.0"),
    (["eigen", "--which", "instanton", "--L", "4", "--kmax", "-1"], "kmax must be >= 1"),
    (["simulate", "--threads", "0"], "threads must be >= 1, got 0"),
    (["simulate", "--threads", "-2"], "threads must be >= 1, got -2"),
    (["sweep", "--threads", "0"], "threads must be >= 1, got 0"),
    # NaN passes every ordered comparison, and an infinite L or eps gave
    # rows that mean nothing
    (["predict", "--L", "nan"], "L must be finite, got nan"),
    (["predict", "--L", "inf"], "L must be finite, got inf"),
    (["predict", "--eps", "nan"], "eps must be finite, got nan"),
    (["predict", "--eps", "inf"], "eps must be finite, got inf"),
    (["eigen", "--L", "nan"], "L must be finite, got nan"),
    (["eigen", "--L", "nan", "--which", "minus"], "L must be finite, got nan"),
    (["stationary", "--L", "nan"], "L must be finite, got nan"),
    (["simulate", "--L", "nan"], "L must be finite, got nan"),
    (["simulate", "--eps", "nan"], "eps must be finite, got nan"),
    (["simulate", "--dt", "nan"], "dt must be finite, got nan"),
    (["simulate", "--tmax", "inf"], "t_max must be finite, got inf"),
    # a sweep checks its whole grid, and a grid its text, before writing
    (["sweep", "--L", "nan"], "L must be finite, got nan"),
    (["sweep", "--eps-grid", "0.1:0:1"], "--eps-grid must be start:step:stop"),
    (["sweep", "--L-grid", "nan:1:5"], "--L-grid must be start:step:stop"),
    (["sweep", "--L-grid", "1,0"], "L must be > 0, got 0.0"),
    (["specialfn", "--grid", "0:0.5:inf"], "--grid must be start:step:stop"),
    (["specialfn", "--grid", "1:2"], "--grid must be start:step:stop"),
    # psi's DomainError exited 3 mid-grid; every alpha is checked first
    (["specialfn", "--grid", "1,nan"], "--grid values must be finite and >= 0, got nan"),
    (["specialfn", "--grid=-1,2"], "--grid values must be finite and >= 0, got -1"),
    (["specialfn", "--grid", "1,inf"], "--grid values must be finite and >= 0, got inf"),
    (["specialfn", "--grid=-1:1:2"], "--grid values must be finite and >= 0, got -1"),
    # a truncation is a whole number: 2.5 was refused by int(), naming no flag
    (["predict", "--d", "2.5"], "--d must be an integer, got '2.5'"),
    (["predict", "--d", "nan"], "--d must be an integer, got 'nan'"),
    (["predict", "--d=-inf"], "--d must be an integer, got '-inf'"),
    (["predict", "--d", "0"], "--d must be >= 1 or inf, got 0"),
    (["sweep", "--d", "2.5"], "--d must be an integer, got '2.5'"),
    (["simulate", "--d", "2.5"], "argument --d: invalid int value: '2.5'"),
    (["sweep", "--with-mc", "--mc-d", "2.5"], "argument --mc-d: invalid int value: '2.5'"),
])
def test_bad_numeric_input_names_the_input(tmp_path, capsys, argv, name):
    rc = run(tmp_path, *argv, "--out", "bad")
    err = capsys.readouterr().err
    assert rc == 2 and f"error: {name}" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())  # refused before any output is written


@pytest.mark.parametrize("command, config, name", [
    # a config file bypasses argparse's types: 2.5 was truncated to 2
    ("predict", {"d": 2.5}, "--d must be an integer, got 2.5"),
    ("simulate", {"d": 2.5}, "--d must be an integer, got 2.5"),
    ("simulate", {"d": "2.5"}, "--d must be an integer, got '2.5'"),
    ("sweep", {"with_mc": True, "mc_d": 2.5}, "--mc-d must be an integer, got 2.5"),
    # every integer key: int() raised a TypeError traceback mid-run (sweep's
    # after writing its manifest and CSV header), or truncated 1.7 to 1
    ("simulate", {"seed": 1.5}, "--seed must be an integer, got 1.5"),
    ("simulate", {"n": 10.5}, "--n must be an integer, got 10.5"),
    ("simulate", {"check_every": 2.5}, "--check-every must be an integer, got 2.5"),
    ("simulate", {"threads": 1.7}, "--threads must be an integer, got 1.7"),
    ("stationary", {"samples": 100.5}, "--samples must be an integer, got 100.5"),
    ("eigen", {"kmax": 4.5}, "--kmax must be an integer, got 4.5"),
    ("sweep", {"with_mc": True, "n": 3.5}, "--n must be an integer, got 3.5"),
])
def test_non_integer_config_values_name_the_flag(tmp_path, capsys, command, config, name):
    (tmp_path / "cfg.json").write_text(json.dumps({"config": config}))
    rc = run(tmp_path, command, "--config", "cfg.json", "--out", "bad")
    err = capsys.readouterr().err
    assert rc == 2 and f"error: {name}" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, key", [
    (name, key) for name, _, _, defaults in cli._COMMANDS for key in defaults
    if key in cli._CHOICES])
def test_config_values_outside_the_choices_name_the_flag(tmp_path, capsys, command, key):
    # a config file bypasses argparse's choices: eigen's which died in a
    # KeyError traceback, predict's bc exited 3, simulate's scheme named no flag
    (tmp_path / "cfg.json").write_text(json.dumps({"config": {key: "bogus"}}))
    rc = run(tmp_path, command, "--config", "cfg.json", "--out", "bad")
    err = capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    assert rc == 2 and "Traceback" not in err
    assert f"error: {flag} must be one of {', '.join(cli._CHOICES[key])}, got 'bogus'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("value, text", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"),
    (None, ""), (12, "12"), (0.1, "0.10000000000000001")])
def test_fmt_writes_every_field(value, text):
    assert cli._fmt(value) == text


def test_eigen_outputs(tmp_path):
    rc = run(tmp_path, "eigen", "--bc", "periodic", "--L", "7", "--which",
             "instanton", "--kmax", "5", "--out", "e")
    assert rc == 0
    payload = json.loads((tmp_path / "e.json").read_text())
    assert payload["negative_count"] == 1
    assert payload["zero_modes"] == 1
    assert payload["det_ratio"] > 0
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines[1] == "index,eigenvalue"


@pytest.mark.parametrize("which", ["origin", "minus", "plus", "instanton"])
def test_eigen_periodic_det_ratio_takes_one_factor_per_k(tmp_path, which):
    # every --which takes one factor per k <= kmax, as predict_time counts:
    # sigma_1/nu_1^- prod_{k>=2} sqrt(sigma_k sigma_-k)/nu_k^-, read off the
    # CSV's ascending eigenvalues (ev[2k-1], ev[2k] the pair of k); the
    # instanton's ev[1] is its translation zero mode, and mu_1 = ev[2]
    pot, kmax = quartic(), 4
    nu_m = [(2 * k * math.pi / 7.0) ** 2 + pot.derivative(pot.u_minus, 2)
            for k in range(kmax + 1)]
    assert run(tmp_path, "eigen", "--bc", "periodic", "--L", "7", "--which", which,
               "--kmax", str(kmax), "--out", "e") == 0
    ev = [float(row.split(",")[1])
          for row in (tmp_path / "e.csv").read_text().splitlines()[2:]]
    ratio = json.loads((tmp_path / "e.json").read_text())["det_ratio"]
    sigma1 = ev[2] if which == "instanton" else ev[1]
    assert ratio == pytest.approx(
        sigma1 / nu_m[1] * math.prod(math.sqrt(ev[2 * k - 1] * ev[2 * k]) / nu_m[k]
                                     for k in range(2, kmax + 1)), rel=1e-12)
    if which == "origin":  # lambda_1 < 0 above L = 2 pi
        assert ratio == pytest.approx(-0.015905, rel=1e-4)


def test_specialfn_grid_endpoints(tmp_path):
    rc = run(tmp_path, "specialfn", "--grid", "0:0.5:1", "--out", "sf")
    assert rc == 0
    lines = (tmp_path / "sf.csv").read_text().splitlines()
    assert lines[1] == "alpha,psi_plus,psi_minus,theta_plus,theta_minus"
    first = lines[2].split(",")
    assert float(first[1]) == pytest.approx(0.8600399873245196, abs=1e-12)
    assert float(first[3]) == pytest.approx(math.sqrt(math.pi / 8), abs=1e-13)
    assert len(lines) == 2 + 3


def test_sweep_empty_grid(tmp_path):
    rc = run(tmp_path, "sweep", "--L-grid", "5:1:4", "--eps", "0.05", "--out", "sw")
    assert rc == 0
    lines = (tmp_path / "sw.csv").read_text().splitlines()
    assert len(lines) == 2  # manifest comment + header only


def test_sweep_near_bifurcation_continuity(tmp_path):
    rc = run(tmp_path, "sweep", "--bc", "neumann",
             "--L-grid", f"{math.pi - 0.2}:0.02:{math.pi + 0.2}",
             "--eps", "0.01", "--out", "sw")
    assert rc == 0
    lines = (tmp_path / "sw.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    pref = np.array([float(r[7]) for r in rows])
    rem = np.array([float(r[9]) for r in rows])
    jumps = np.abs(np.diff(pref)) / pref[:-1]
    assert jumps.max() <= rem.max()
    regimes = {r[2] for r in rows}
    assert "neumann_near_below" in regimes and "neumann_near_above" in regimes


def test_usage_error_exit_2(tmp_path):
    assert run(tmp_path, "predict", "--bc", "nonsense") == 2
    assert run(tmp_path, "nonexistent") == 2


def test_flags_outside_the_config_keys_are_usage_errors(tmp_path):
    # a subcommand's flags are its configuration keys: validate writes no
    # output and takes no potential, specialfn takes no potential
    assert run(tmp_path, "validate", "--out", "v") == 2
    assert run(tmp_path, "validate", "--potential", "quartic") == 2
    assert run(tmp_path, "specialfn", "--potential", "quartic", "--out", "sf") == 2
    assert not list(tmp_path.iterdir())


def test_thread_count_comes_from_flag_or_config_only(monkeypatch):
    # explicit flags win: no environment variable overrides --threads
    monkeypatch.setenv("KRAMERS_SPDE_THREADS", "7")
    assert cli._threads(3) == 3
    assert cli._threads(None) == (os.cpu_count() or 1)


def test_validate_quick(tmp_path, capsys):
    rc = run(tmp_path, "validate")
    out = capsys.readouterr().out
    assert rc == 0
    assert "invariant groups passed" in out
    assert "FAIL" not in out


def test_sweep_with_mc_writes_every_row_past_an_all_censored_one(tmp_path, capsys):
    # at eps = 0.02 no replica leaves the well by t_max = 20; the eps = 0.3
    # row is still written, with the Monte Carlo of the golden sweep-with-mc
    rc = run(tmp_path, "sweep", "--L", "1", "--eps-grid", "0.02,0.3", "--with-mc", "--n", "6",
             "--mc-d", "15", "--tmax", "20", "--seed", "3", "--threads", "1", "--out", "sw")
    assert rc == 3
    assert "censored at L = 1, eps = 0.02" in capsys.readouterr().err
    rows = [line.split(",") for line in (tmp_path / "sw.csv").read_text().splitlines()[2:]]
    assert len(rows) == 2
    assert rows[0][1] == "0.02" and rows[0][10:] == ["", "", "6"]
    assert rows[0][8] != ""  # the prediction is kept
    assert rows[1][1] == "0.29999999999999999"
    assert rows[1][10:] == ["5.0433333333333339", "1.42437042622736", "0"]


def test_sweep_with_mc_gives_every_row_the_same_seed(tmp_path, monkeypatch):
    # so replica i of every row draws the same normals: rows are correlated
    seeds = []

    def record(sim, n, threads=1):
        seeds.append(sim.seed)
        raise AllCensored("recorded")

    monkeypatch.setattr(cli, "mc_stats", record)
    run(tmp_path, "sweep", "--L", "1", "--eps-grid", "0.2,0.3", "--with-mc", "--seed", "5",
        "--out", "sw")
    assert seeds == [5, 5]


@pytest.mark.parametrize("d", ["inf", "15"])
def test_predict_negative_lambda_switch_names_it(tmp_path, capsys, d):
    rc = run(tmp_path, "predict", "--bc", "neumann", "--L", "3.2", "--eps", "0.05",
             "--d", d, "--lambda-switch", "-0.5", "--out", "p")
    assert rc == 2
    assert "error: lambda_switch must be >= 0, got -0.5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, threads", [
    (["predict", "--L", "1"], None),
    (["simulate", "--L", "1", "--eps", "0.3", "--d", "2", "--tmax", "50", "--n", "3",
      "--threads", "1"], 1),
    (["stationary", "--L", "4", "--samples", "256"], None),
    (["eigen", "--L", "1", "--kmax", "4"], None),
    (["specialfn", "--grid", "0:1:2"], None),
    (["sweep", "--L", "1", "--threads", "2"], 2),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_manifest_records_environment(tmp_path, argv, threads):
    # every subcommand that writes a manifest (all but validate) records the
    # environment beside the configuration, which stays free of it
    assert run(tmp_path, *argv, "--out", "m") == 0
    manifest = json.loads((tmp_path / "m_manifest.json").read_text())
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
    assert env["cpu_count"] == os.cpu_count() and env["affinity_cpus"] >= 1
    assert env.get("threads") == threads
    assert "environment" not in manifest["config"]


def test_sweep_mc_d_zero_runs_d_zero(tmp_path):
    rc = run(tmp_path, "sweep", "--L", "1", "--eps", "0.3", "--with-mc", "--n", "6",
             "--mc-d", "0", "--tmax", "200", "--seed", "3", "--threads", "1", "--out", "sw")
    assert rc == 0
    row = (tmp_path / "sw.csv").read_text().splitlines()[2].split(",")
    cfg = SimConfig(pot=quartic(), bc=NEUMANN, L=1.0, d=0, eps=0.3, dt=1e-3,
                    t_max=200.0, seed=3)
    assert float(row[10]) == mc_stats(cfg, 6).mean


@pytest.mark.parametrize("flags, message", [
    (["--mc-d", "-1"], "d must be >= 0, got -1"),
    (["--n", "1"], "--n must be >= 2 with --with-mc, got 1"),
    (["--dt", "0"], "dt > 0"),
    (["--tmax", "inf"], "t_max must be finite, got inf"),
    (["--rho", "5"], "rho = 5.0 must lie in"),
])
def test_sweep_refuses_bad_mc_inputs_before_any_output(tmp_path, capsys, flags, message):
    rc = run(tmp_path, "sweep", "--L-grid", "1:1:2", "--with-mc", *flags, "--out", "s")
    assert rc == 2 and message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "s_manifest.json").exists()


def test_simulate_keeps_mc_when_prediction_refused(tmp_path, capsys):
    # predict_time needs d >= 1; the d = 0 Monte Carlo is still written
    rc = run(tmp_path, "simulate", "--L", "1", "--eps", "0.3", "--d", "0", "--tmax", "50",
             "--n", "3", "--seed", "5", "--threads", "1", "--out", "s")
    assert rc == 0
    assert capsys.readouterr().out.rstrip().endswith("predicted=")
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 2 + 3
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["prediction"] is None and payload["stats"]["d"] == 0


def test_simulate_keeps_mc_beyond_second_bifurcation(tmp_path, capsys):
    # L = 7 > 2 pi is past the second Neumann bifurcation: predict_time refuses it
    rc = run(tmp_path, "simulate", "--L", "7", "--eps", "2", "--d", "1", "--tmax", "50",
             "--n", "3", "--seed", "5", "--threads", "1", "--out", "s")
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.rstrip().endswith("predicted=")
    assert "second bifurcation" in captured.err
    assert json.loads((tmp_path / "s.json").read_text())["prediction"] is None


def test_simulate_keeps_mc_when_prediction_fails(tmp_path, monkeypatch, capsys):
    # a prediction that fails numerically keeps the finished Monte Carlo too
    def fail(*args, **kwargs):
        raise QuadratureNotConverged("forced")

    monkeypatch.setattr(cli, "predict_time", fail)
    rc = run(tmp_path, "simulate", "--L", "1", "--eps", "0.3", "--d", "1", "--tmax", "50",
             "--n", "3", "--seed", "5", "--threads", "1", "--out", "s")
    assert rc == 0 and "no prediction: forced" in capsys.readouterr().err
    assert json.loads((tmp_path / "s.json").read_text())["prediction"] is None


def test_simulate_keeps_mc_where_the_normal_form_is_out_of_regime(tmp_path, capsys):
    # L = 3.1 is near-below the Neumann bifurcation, where this potential's
    # quartic normal-form coefficient C4 is negative: predict_time raises
    # OutOfRegime, and the Monte Carlo is still written
    rc = run(tmp_path, "simulate", "--L", "3.1", "--eps", "0.5", "--d", "3", "--n", "4",
             "--tmax", "200", "--potential", "0,0,-0.5,0,-0.5,0,0.3", "--threads", "1",
             "--out", "s")
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.rstrip().endswith("predicted=")
    assert "no prediction: neumann_near_below needs C4 > 0" in captured.err
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 2 + 4
    assert json.loads((tmp_path / "s.json").read_text())["prediction"] is None
    assert (tmp_path / "s_manifest.json").exists()


def test_old_manifest_with_start_radius_still_runs(tmp_path):
    # manifests used to record a start-ball radius "r"; it is ignored on reload
    argv = ["simulate", "--L", "1", "--eps", "0.3", "--d", "2", "--tmax", "50", "--n", "3",
            "--seed", "5", "--threads", "1"]
    assert run(tmp_path, *argv, "--out", "first") == 0
    manifest = json.loads((tmp_path / "first_manifest.json").read_text())
    assert "r" not in manifest["config"]
    manifest["config"]["r"] = 0.3
    (tmp_path / "old_manifest.json").write_text(json.dumps(manifest))
    assert run(tmp_path, "simulate", "--config", "old_manifest.json", "--out", "second") == 0
    a = (tmp_path / "first.csv").read_text().splitlines()[1:]
    b = (tmp_path / "second.csv").read_text().splitlines()[1:]
    assert a == b
    second = json.loads((tmp_path / "second_manifest.json").read_text())
    assert "r" not in second["config"]


def test_simulate_manifest_records_mc_time_and_steps(tmp_path, capsys):
    argv = ["simulate", "--L", "1", "--eps", "1", "--d", "2", "--tmax", "3", "--n", "5",
            "--seed", "5", "--threads", "1"]
    assert run(tmp_path, *argv, "--out", "first") == 0
    first_stdout = capsys.readouterr().out
    manifest = json.loads((tmp_path / "first_manifest.json").read_text())
    rows = [line.split(",") for line in (tmp_path / "first.csv").read_text().splitlines()[2:]]
    steps = [int(r[4]) for r in rows]
    censored = sum(int(r[3]) for r in rows)
    assert 0 < censored < 5
    mc_s = manifest["timings"]["mc_s"]
    assert mc_s > 0
    diag = manifest["diagnostics"]
    assert diag["replica_steps"] == sum(steps) and diag["batch_steps"] == max(steps)
    assert diag["replica_steps_per_s"] == pytest.approx(sum(steps) / mc_s)
    assert diag["censored_fraction"] == censored / 5
    # reloaded through --config (whole or flattened), the record keys are dropped
    flat = dict(manifest["config"], timings=manifest["timings"], diagnostics=diag)
    (tmp_path / "flat.json").write_text(json.dumps(flat))
    for source, out in (("first_manifest.json", "second"), ("flat.json", "third")):
        assert run(tmp_path, "simulate", "--config", source, "--out", out) == 0
        assert capsys.readouterr().out == first_stdout
        again = json.loads((tmp_path / f"{out}_manifest.json").read_text())
        assert again["config"] == manifest["config"]
        assert ({k: v for k, v in again["diagnostics"].items() if k != "replica_steps_per_s"}
                == {k: v for k, v in diag.items() if k != "replica_steps_per_s"})
        assert ((tmp_path / f"{out}.csv").read_text().splitlines()[1:]
                == (tmp_path / "first.csv").read_text().splitlines()[1:])


@pytest.mark.parametrize("argv", [["predict", "--L", "1,3.3", "--eps", "0.05,0.1"],
                                  ["sweep", "--L-grid", "1:2.3:3.3", "--eps", "0.05"]],
                         ids=lambda v: v[0])
def test_predict_and_sweep_manifests_record_prediction_time(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--out", "first") == 0
    first_stdout = capsys.readouterr().out
    manifest = json.loads((tmp_path / "first_manifest.json").read_text())
    assert list(manifest["timings"]) == ["predict_s"] and manifest["timings"]["predict_s"] > 0
    # a record, not configuration: a rerun from the manifest writes the same rows
    assert run(tmp_path, argv[0], "--config", "first_manifest.json", "--out", "second") == 0
    assert capsys.readouterr().out == first_stdout.replace("first", "second")
    assert ((tmp_path / "second.csv").read_text().splitlines()[1:]
            == (tmp_path / "first.csv").read_text().splitlines()[1:])


@pytest.mark.parametrize("spec, C4", [("0,0,-0.5,0,0,0,0.1666666666666667", "0"),
                                      ("0,0,-0.5,0,-0.1,0,0.1", "-0.193548")])
def test_predict_without_quartic_normal_form_names_c4(tmp_path, capsys, spec, C4):
    rc = run(tmp_path, "predict", "--potential", spec, "--bc", "neumann", "--L", "3.1",
             "--out", "p")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: neumann_near_below needs C4 > 0, got C4 = {C4} at L = 3.1")


# CSV data rows recorded before the Galerkin transform, the replica fan-out
# and the instanton eigenvalue pairing were each merged into one definition
# (the specialfn rows before Psi/Theta moved onto scipy.special).  The fields
# that come from an instanton's FD spectrum, the eigen-instanton eigenvalues
# and the instanton rows' mu1, prefactor and log10_expected_time, were
# recorded after each FD grid came to be solved by Rayleigh-Ritz in the FD
# Laplacian's eigenbasis; they lie within 7e-14 of the values that
# long-double Sturm bisection of the same FD matrices gives, well inside
# the 1e-12 below.
# A refactor must reproduce them.  Entries: (id, argv, stride, rows),
# where stride keeps every stride-th data row.
GOLDEN = [
    ('predict-neumann', ['predict', '--bc', 'neumann', '--L', '1,3.0,3.3,4.5', '--eps', '0.05'], 1, [
        '1,0.050000000000000003,neumann_small_l,8.869604401089358,,1.5,0.25,3.4841268529728091,2.7135663682925224,1.1594165608104088',
        '3,0.050000000000000003,neumann_near_below,0.096622711232150715,,0.5,0.75,0.57249496731639871,6.272188901785464,1.8636795888007989',
        '3.2999999999999998,0.050000000000000003,neumann_near_above,-0.093700238651114875,0.18660017317478395,0.45454545454545459,0.82015736761100133,0.45318997355224255,6.7800766738118732,1.8636795888007989',
        '4.5,0.050000000000000003,neumann_large_l,-0.51261212834126635,0.98431208882755306,0.33333333333333331,0.92253815440265063,1.2563137101963564,8.1121626953157673,1.1594165608104088',
    ]),
    ('predict-periodic-d15', ['predict', '--bc', 'periodic', '--L', '6.5,9', '--eps', '0.05', '--d', '15'], 1, [
        '6.5,0.050000000000000003,periodic_near_above,-0.065599583328818323,0.13081763335157814,0.23076923076923078,1.620329034398081,0.062899605085058,12.872647088871716,1.8636795888007989',
        '9,0.050000000000000003,periodic_large_l,-0.51261212834126635,0.98431208883970145,0.16666666666666666,1.8450763088054492,0.035790684341099513,14.579899194554118,1.1594165608104088',
    ]),
    ('sweep', ['sweep', '--bc', 'neumann', '--L-grid', '2.9:0.2:3.3', '--eps', '0.01'], 1, [
        '2.8999999999999999,0.01,neumann_small_l,0.17355581463607117,,0.51724137931034486,0.72499999999999998,0.47027703629655876,31.158703710580067,0.98825387644110385',
        '3.1000000000000001,0.01,neumann_near_below,0.027013985545198738,,0.48387096774193544,0.77500000000000002,0.34673343175956778,33.197818065503121,2.1333254060207807',
        '3.2999999999999998,0.01,neumann_near_above,-0.093700238651114875,0.18660017317478395,0.45454545454545459,0.82015736761100133,0.28651814900660044,35.076134041398163,2.1333254060207807',
    ]),
    ('sweep-with-mc', ['sweep', '--L', '1', '--eps-grid', '0.3:0.1:0.4', '--with-mc', '--n', '6', '--mc-d', '15', '--tmax', '200', '--seed', '3', '--threads', '1'], 1, [
        '1,0.29999999999999999,neumann_small_l,8.869604401089358,,1.5,0.25,3.4841268529728091,0.90400602702897337,0.7235784816076285,5.0433333333333339,1.42437042622736,0',
        '1,0.40000000000000002,neumann_small_l,8.869604401089358,,1.5,0.25,3.4841268529728091,0.81352800996579577,0.55472780686370482,4.416666666666667,1.3160893248982422,0',
    ]),
    ('eigen-origin', ['eigen', '--bc', 'neumann', '--L', '1', '--which', 'origin', '--kmax', '4'], 1, [
        '0,-1',
        '1,8.869604401089358',
        '2,38.478417604357432',
        '3,87.826439609804225',
        '4,156.91367041742973',
    ]),
    ('eigen-instanton-neumann', ['eigen', '--bc', 'neumann', '--L', '4', '--which', 'instanton', '--kmax', '4'], 1, [
        '0,-0.32475884073477707',
        '1,0.74751113657504231',
        '2,2.3247588407331201',
        '3,5.3508450109981931',
        '4,9.6622368153072191',
        '5,15.211073071231018',
    ]),
    ('eigen-instanton-periodic', ['eigen', '--bc', 'periodic', '--L', '7', '--which', 'instanton', '--kmax', '4'], 1, [
        '0,-0.63039852474464408',
        '1,3.3621798994766713e-14',
        '2,0.38480965206917594',
        '3,2.6151903478826921',
        '4,2.6303985246963584',
        '5,6.6464705105705946',
        '6,6.6464705105704747',
        '7,12.284905726023917',
        '8,12.284905726023903',
        '9,19.535469753946007',
        '10,19.535469753946',
    ]),
    ('stationary', ['stationary', '--bc', 'periodic', '--L', '7'], 512, [
        '0,-0.50649754989142748',
        '0.875,-0.36520021647145245',
        '1.75,-3.4692301115191171e-14',
        '2.625,0.36520021647140621',
        '3.5,0.50649754989142848',
        '4.375,0.36520021647149942',
        '5.25,1.0492117157728797e-13',
        '6.125,-0.36520021647135981',
        '7,-0.50649754989142748',
    ]),
    ('simulate-d15', ['simulate', '--L', '1', '--eps', '0.3', '--d', '15', '--tmax', '200', '--n', '6', '--seed', '7', '--threads', '1'], 1, [
        '0,7,1.6500000000000001,0,1650',
        '1,6,8.5800000000000001,0,8580',
        '2,5,14.790000000000001,0,14790',
        '3,4,10.450000000000001,0,10450',
        '4,3,1.26,0,1260',
        '5,2,2.8199999999999998,0,2820',
    ]),
    ('simulate-d40-periodic', ['simulate', '--bc', 'periodic', '--L', '1', '--eps', '0.3', '--d', '40', '--tmax', '200', '--n', '4', '--seed', '7', '--threads', '1'], 1, [
        '0,7,18.18,0,18180',
        '1,6,3.4399999999999999,0,3440',
        '2,5,3.2000000000000002,0,3200',
        '3,4,8.1600000000000001,0,8160',
    ]),
    ('specialfn', ['specialfn', '--grid', '0:0.5:10'], 1, [
        '0,0.86003998732451969,0.86003998732451969,0.62665706865775006,0.62665706865775006',
        '0.5,0.94214582351689835,1.1119181550713746,0.77836843189029514,0.75036710207862634',
        '1,0.98673638496452354,1.3406167316368527,0.87636445645369221,0.86661967813769214',
        '1.5,1.012179457428305,1.548791113392687,0.94071397382925992,0.96927887267918966',
        '2,1.0270233835602345,1.7359087547926026,0.98351931362819767,1.0544692646038243',
        '2.5,1.0356941950703977,1.9007145087366766,1.0122531055833544,1.1209017823746477',
        '3,1.0406421054092774,2.0421586118114052,1.0316312764359266,1.1695837274907583',
        '3.5,1.0432891411805831,2.1597954217172002,1.0446905880887447,1.2031074296891389',
        '4,1.0444905767672232,2.2539320998960259,1.0534230732201362,1.2248010753190541',
        '4.5,1.0447754094933375,2.3256316225583107,1.0591577996956953,1.2379930329157058',
        '5,1.0444782117107996,2.3766231316119932,1.0627953339893812,1.2455314759747069',
        '5.5,1.0438143806202926,2.4091552953187527,1.0649545227442938,1.2495795579271534',
        '6,1.0429245174551045,2.4258209632568337,1.0660660454853614,1.2516222910285237',
        '6.5,1.0419013332238569,2.4293764560391633,1.0664330503068491,1.2525909436722866',
        '7,1.0408063514245782,2.4225739746225425,1.066271075872895,1.2530225800019943',
        '7.5,1.0396804919763709,2.4080203709423582,1.0657347236368515,1.253203322681975',
        '8,1.0385508994474215,2.3880701364530252,1.0649357231110226,1.2532744433003644',
        '8.5,1.0374354183433454,2.3647554099423753,1.0639553246056859,1.2533007412350394',
        '9,1.0363455672072059,2.3397515342066471,1.0628529022101594,1.2533098789637389',
        '9.5,1.0352885392387414,2.3143735158672607,1.0616719923235363,1.2533128625906935',
        '10,1.0342685623503667,2.2895967912828112,1.0604445759342371,1.2533137780510326',
    ]),
]


# Each case's manifest "config", recorded before the option table replaced the
# hand-built subparsers: it pins every option's type per subcommand (L is the
# string "1,3.0,3.3,4.5" for predict and the float 1.0 for simulate).
# specialfn no longer takes --potential, so its config has no "potential".
GOLDEN_CONFIG = {
    'predict-neumann': {
        'L': '1,3.0,3.3,4.5', 'bc': 'neumann', 'd': 'inf', 'eps': '0.05', 'lambda_switch': 0.1,
        'potential': 'quartic',
    },
    'predict-periodic-d15': {
        'L': '6.5,9', 'bc': 'periodic', 'd': '15', 'eps': '0.05', 'lambda_switch': 0.1,
        'potential': 'quartic',
    },
    'sweep': {
        'L': 1.0, 'L_grid': '2.9:0.2:3.3', 'bc': 'neumann', 'd': 'inf', 'dt': 0.001, 'eps': 0.01,
        'eps_grid': None, 'lambda_switch': 0.1, 'mc_d': 15, 'n': 50, 'potential': 'quartic',
        'rho': 0.3, 'seed': 0, 'threads': None, 'tmax': 10000.0, 'with_mc': False,
    },
    'sweep-with-mc': {
        'L': 1.0, 'L_grid': None, 'bc': 'neumann', 'd': 'inf', 'dt': 0.001, 'eps': 0.05,
        'eps_grid': '0.3:0.1:0.4', 'lambda_switch': 0.1, 'mc_d': 15, 'n': 6,
        'potential': 'quartic', 'rho': 0.3, 'seed': 3, 'threads': 1, 'tmax': 200.0,
        'with_mc': True,
    },
    'eigen-origin': {
        'L': 1.0, 'bc': 'neumann', 'grid_n': 1024, 'kmax': 4, 'potential': 'quartic',
        'which': 'origin',
    },
    'eigen-instanton-neumann': {
        'L': 4.0, 'bc': 'neumann', 'grid_n': 1024, 'kmax': 4, 'potential': 'quartic',
        'which': 'instanton',
    },
    'eigen-instanton-periodic': {
        'L': 7.0, 'bc': 'periodic', 'grid_n': 1024, 'kmax': 4, 'potential': 'quartic',
        'which': 'instanton',
    },
    'stationary': {'L': 7.0, 'bc': 'periodic', 'potential': 'quartic', 'samples': 4096},
    'simulate-d15': {
        'L': 1.0, 'bc': 'neumann', 'check_every': 10, 'd': 15, 'dt': 0.001, 'eps': 0.3, 'n': 6,
        'potential': 'quartic', 'refine': 8, 'rho': 0.3, 'scheme': 'semi_implicit', 'seed': 7,
        'threads': 1, 'tmax': 200.0,
    },
    'simulate-d40-periodic': {
        'L': 1.0, 'bc': 'periodic', 'check_every': 10, 'd': 40, 'dt': 0.001, 'eps': 0.3, 'n': 4,
        'potential': 'quartic', 'refine': 8, 'rho': 0.3, 'scheme': 'semi_implicit', 'seed': 7,
        'threads': 1, 'tmax': 200.0,
    },
    'specialfn': {'grid': '0:0.5:10'},
}


def _same_field(got: str, want: str) -> bool:
    """Integers and strings exactly, floats to 1e-12 relative.

    The 1e-12 absolute floor only matters for entries that are zero up to
    roundoff, such as the periodic translation zero mode.
    """
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        return float(got) == pytest.approx(float(want), rel=1e-12, abs=1e-12)
    except ValueError:
        return got == want


@pytest.mark.parametrize("case, argv, stride, want", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_csv_rows(tmp_path, case, argv, stride, want):
    assert run(tmp_path, *argv, "--out", "g") == 0
    manifest = json.loads((tmp_path / "g_manifest.json").read_text())
    assert manifest["config"] == GOLDEN_CONFIG[case]
    lines = (tmp_path / "g.csv").read_text().splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:][::stride]
    assert len(rows) == len(want)
    for got_row, want_row in zip(rows, want):
        got, exp = got_row.split(","), want_row.split(",")
        assert len(got) == len(exp), (got_row, want_row)
        assert all(_same_field(g, w) for g, w in zip(got, exp)), (got_row, want_row)
