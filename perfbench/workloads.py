"""Workload inputs: seeded draws from fixed lattices, so every input has a stored reference.

* predict-sweep: a stratified Kramers prediction sweep.
* mc: Galerkin Monte Carlo batches of two configurations, mc-d15 and
  mc-d64-periodic, drawn from a pool of replica keys per configuration,
  after the prediction at each configuration's own (L, bc, eps, d) that
  `simulate` prints beside its measurement.

Only plain numbers leave this module; the runner turns them into library
objects.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import math
import random

PREDICT_EPS = (0.02, 0.05, 0.1)   # every predict-sweep L is evaluated at these


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    return [round(lo + i * step, 6) for i in range(n + 1)]


def _band(b: int, lams: list[float]) -> list[float]:
    """Domain lengths with lambda_1 = (b pi / L)^2 - 1 equal to each lam."""
    return [round(b * math.pi / math.sqrt(1.0 + lam), 9) for lam in lams]


_NEAR = [round(0.005 * i, 3) for i in range(1, 20)]   # |lambda_1| in 0.005..0.095

# (bc, stratum, lattice of L, draws per seed).  Per bc: 9 L values, 6 of
# them above the bifurcation, so two thirds of the rows solve an instanton.
SWEEP_STRATA = [
    ("neumann", "small", _lattice(0.5, 2.9, 0.1), 1),
    ("neumann", "near_below", _band(1, _NEAR), 2),
    ("neumann", "near_above", _band(1, [-x for x in _NEAR]), 2),
    ("neumann", "large", _lattice(3.4, 5.0, 0.1), 2),
    ("neumann", "below_second", _lattice(5.1, 6.2, 0.1), 2),
    ("periodic", "small", _lattice(1.0, 5.8, 0.2), 1),
    ("periodic", "near_below", _band(2, _NEAR), 2),
    ("periodic", "near_above", _band(2, [-x for x in _NEAR]), 2),
    ("periodic", "large", _lattice(6.8, 10.0, 0.2), 2),
    ("periodic", "below_second", _lattice(10.2, 12.4, 0.2), 2),
]
SWEEP_PASS_S = 13.0   # baseline wall time of one pass on the reference host, which sizes a run

# Monte Carlo configurations of the mc workload; a name also seeds its pool
# keys.  t_max is 30x the d-truncated prediction at eps, fixed here so that it
# is an input and not an output of the code under test.
MC_COMMON = dict(L=1.0, dt=1e-3, check_every=10, scheme="semi_implicit")
# candidates: batch keys simulated for the reference; batch_s: baseline wall
# time of one typical batch on the reference host, which sizes a run.
MC_SPECS = {
    "mc-d15": dict(bc="neumann", d=15, eps=0.5, m=200, t_max=174.0,
                   candidates=60, batch_s=2.4),
    "mc-d64-periodic": dict(bc="periodic", d=64, eps=0.5, m=20, t_max=194.4,
                            candidates=80, batch_s=2.4),
}
TYPICAL_TOL = 0.15   # pool = candidates within 15% of the median batch and replica steps
KEYS_PER_CONFIG = 2  # distinct batches per configuration and run; each is replayed
BALANCE_TOL = 0.03   # a draw's summed batch and replica steps within 3% of 2 median batches


def rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def row_key(bc: str, L: float, eps: float, d) -> str:
    return f"{bc}|{L!r}|{eps!r}|{d}"


def sweep_rows(seed: int) -> list[tuple[str, float, float, float]]:
    """(bc, L, eps, d) rows of predict-sweep, ordered like the CLI sweep: by L, then eps."""
    r = rng("predict-sweep", seed)
    rows = []
    for bc, _, lattice, k in SWEEP_STRATA:
        for L in r.sample(lattice, k):
            rows += [(bc, L, eps, math.inf) for eps in PREDICT_EPS]
    return sorted(rows, key=lambda row: (row[0], row[1], row[2]))


def mc_row(config: str) -> tuple[str, float, float, float]:
    """(bc, L, eps, d) of the prediction `simulate` prints beside a configuration's measurement."""
    spec = MC_SPECS[config]
    return (spec["bc"], MC_COMMON["L"], spec["eps"], spec["d"])


def pool_key(config: str, j: int) -> int:
    """Philox seed of batch j of a configuration's pool (63 bits, so seed ^ i stays distinct)."""
    digest = hashlib.sha256(f"{config}:{j}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _work(candidate: dict) -> tuple[int, int]:
    """(replica steps, batch steps) of a candidate: the sum and the max of its replicas' steps."""
    steps = [r[1] for r in candidate["samples"]]
    return sum(steps), max(steps)


def typical(candidates: list[dict]) -> list[int]:
    """Indices of the candidate batches whose work is within TYPICAL_TOL of the median.

    A batch's work is set by its replica steps (sum of tau/dt) and its batch
    steps (the slowest replica).  Batch steps vary by a factor of 3 to 6
    between keys, which would make a run's wall time depend on the seed more
    than on the code; screening keeps the replicas seed-dependent and the
    work steady.
    """
    work = [_work(c) for c in candidates]
    mid = [sorted(w[i] for w in work)[len(work) // 2] for i in (0, 1)]
    return [j for j, w in enumerate(work)
            if all(abs(w[i] / mid[i] - 1.0) <= TYPICAL_TOL for i in (0, 1))]


def batch_draw(config: str, seed: int, candidates: list[dict]) -> list[int]:
    """KEYS_PER_CONFIG distinct candidate indices from the typical pool, with balanced work.

    Even seeds draw from the even positions of the pool and odd seeds from
    the odd ones, so a seed of the other parity runs disjoint batches: the
    seed-holdout rule of the README.  Of up to 2000 seeded draws the first
    whose summed replica and batch steps are both within BALANCE_TOL of
    KEYS_PER_CONFIG median batches is taken (else the best balanced one), so
    that every seed asks for the same amount of work.
    """
    pool = typical(candidates)
    half = pool[seed % 2::2]
    work = [_work(c) for c in candidates]
    mid = [sorted(work[j][i] for j in pool)[len(pool) // 2] for i in (0, 1)]
    r = rng(config + ":batches", seed)
    best, best_dev = None, math.inf
    for _ in range(2000):
        pick = r.sample(half, KEYS_PER_CONFIG)
        dev = max(abs(sum(work[j][i] for j in pick) / (KEYS_PER_CONFIG * mid[i]) - 1.0)
                  for i in (0, 1))
        if dev < best_dev:
            best, best_dev = pick, dev
        if dev <= BALANCE_TOL:
            break
    return best
