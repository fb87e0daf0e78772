"""Spectral Galerkin SDE integration and first-hitting-time Monte Carlo.

The truncated field y(t) solves dy_k = -dV/dy_k dt + sqrt(2 eps) dW_k with
independent Brownian motions on every stored (real) coordinate.  The drift
splits into the stiff linear part -nu_k y_k, treated implicitly
(semi_implicit scheme) or exactly (exponential scheme), plus the transform
of -U'(u(.)).

Replica streams come from counter-based Philox generators keyed by
seed XOR replica_index, consumed strictly sequentially per replica, so a
replica's trajectory is bit-identical whether it runs alone or inside a
vectorized batch.  Hitting of the sup-norm ball around u*_+ is checked every
check_every steps, and at the last step ceil(t_max/dt), on a refined
evaluation grid; the recorded tau is the first checked time.  Replicas that
reach t_max are censored and reported separately (their exclusion makes the
mean a lower bound).

Also here: the exact 1D potential-theory oracles used to validate the d=0
reduction (mean first passage by double quadrature, and the
expected-time = J/capacity identity).
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import AllCensored, NonFinite, QuadratureNotConverged, require_finite
from .potential import LocalPotential, horner_into
from .spectral import (BoundaryCondition, FourierState, TransformPlan,
                       default_grid_size, mode_frequencies, refined_grid_size, sup_dist)

_MASK64 = (1 << 64) - 1
_WINDOW_BYTES = 1 << 20  # a batch's window of normals, all live rows together
_MAX_WINDOW_CHECKS = 64
_MATRIX_MAX_D = 32  # largest cutoff whose engine transforms run as matrix products
_ORACLE_RTOL = 1e-8  # the d = 0 oracles' quadrature tolerance (a tenth for E[tau]'s inner one)


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce a transition-time simulation."""

    pot: LocalPotential
    bc: BoundaryCondition
    L: float
    d: int
    eps: float
    dt: float
    t_max: float
    rho: float = 0.3
    check_every: int = 10
    refine: int = 8
    seed: int = 0
    scheme: str = "semi_implicit"
    start_well: str = "minus"

    def __post_init__(self):
        require_finite(L=self.L, eps=self.eps, dt=self.dt, t_max=self.t_max)
        for name in ("d", "check_every", "refine", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.L <= 0.0:
            raise ValueError(f"L must be > 0, got {self.L}")
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if self.eps < 0.0 or self.dt <= 0.0 or self.t_max <= 0.0:
            raise ValueError("need eps >= 0, dt > 0, t_max > 0")
        gap = self.pot.u_plus - self.pot.u_minus
        if not 0.0 < self.rho < gap:
            raise ValueError(
                f"target ball radius rho = {self.rho} must lie in (0, u_+ - u_-) = (0, {gap})")
        if self.scheme not in ("semi_implicit", "exponential"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.check_every < 1 or self.refine < 4:
            raise ValueError("check_every >= 1 and refine >= 4 required")
        if self.start_well not in ("minus", "plus"):
            raise ValueError("start_well must be 'minus' or 'plus'")


@dataclass(frozen=True)
class TransitionSample:
    tau: float | None
    censored: bool
    steps: int
    seed_used: int


@dataclass(frozen=True)
class TransitionStats:
    n: int
    mean: float
    stderr: float | None  # None below two uncensored times
    min: float
    max: float
    censored: int
    mean_is_lower_bound: bool
    eps: float
    d: int
    dt: float


class _Engine:
    """Vectorized stepping over a batch of replicas sharing one SimConfig.

    Up to d = _MATRIX_MAX_D the transforms are matrix products, the plans
    applied to identity matrices, so the Galerkin basis keeps its one
    definition in TransformPlan; above it they are the plan's FFT-order
    pair.  Per replica-step on a 2-core x86 host, OpenBLAS on one thread,
    matrices against FFTs: 205 against 578 ns at Neumann d = 15 with 200
    replicas, 3950 against 3044 ns at periodic d = 64 with 20.  Past the
    cutoff the products are also large enough for OpenBLAS to spread them
    over all cores, so replica worker processes oversubscribe the host.
    Two worker processes, periodic, eps = 0.2, 100 replicas per worker:
    matrices 9.9 s against FFTs 14.6 s at d = 32, but 37.3 s against
    18.1 s at d = 40.  One d = 64 drift over 200 replicas: 1.41 ms against
    1.30 ms on a quiet host, 22.6 ms against 1.07 ms while another process
    held one core.

    step() takes the scaled noise increment dw = increments(xi), so a
    caller scales a whole window of normals in one call; the products are
    the same ones either way.  It writes into a caller's buffer and works
    in scratch buffers the engine owns (the samples, the FFT form's two
    half spectra, the grid values of U', the linear term), grown to the
    widest batch seen, so a batch step allocates nothing.  Its arithmetic
    is the textbook update (y + dt N + sqrt(2 eps dt) xi) / (1 + nu dt), or
    e^{-nu dt} y + phi1(nu dt) dt N + sd xi, in that order of operations,
    with N = -analyze(U'(synthesize(y))) and U' by Horner, on the samples
    in the FFT's order (U' acts sample by sample).  So a replica's
    trajectory is the same to the bit whatever the buffers or the window of
    normals; folding dt or the denominators into the transform matrices
    would change the roundoff and move hits by a check.
    """

    def __init__(self, cfg: SimConfig, nonlinear: bool = True):
        self.cfg = cfg
        pot = cfg.pot
        self.plan = plan = TransformPlan(cfg.bc, cfg.L, cfg.d, default_grid_size(cfg.d, pot.p0))
        self.ref_plan = ref = TransformPlan(cfg.bc, cfg.L, cfg.d,
                                            refined_grid_size(cfg.d, cfg.refine))
        self._matrices = cfg.d <= _MATRIX_MAX_D
        if self._matrices:
            eye = np.eye(cfg.bc.n_coeffs(cfg.d))
            self._synth = plan.synthesize(eye)        # (ncf, n)
            self._proj = plan.analyze(np.eye(plan.n))  # (n, ncf)
            self._sup = np.hstack([ref.synthesize(eye), ref.endpoint_values(eye)])
        self.nu = mode_frequencies(cfg.bc, cfg.L, cfg.d)
        self.nonlinear = nonlinear
        self._dU = pot._deriv_scalar[1]
        self._term = self._diff = np.empty((0, len(self.nu)))  # grown by _grow, sup_to_target
        start_u = pot.u_minus if cfg.start_well == "minus" else pot.u_plus
        target_u = pot.u_plus if cfg.start_well == "minus" else pot.u_minus
        self.start = FourierState.constant(start_u, cfg.bc, cfg.L, cfg.d).coeffs
        self.target = FourierState.constant(target_u, cfg.bc, cfg.L, cfg.d).coeffs
        dt = cfg.dt
        self._implicit = cfg.scheme == "semi_implicit"
        if self._implicit:
            self.denom = 1.0 + self.nu * dt
            self._drift_mul = -dt  # dt N = -dt analyze(U'(u)) to the bit: negation is exact
            self._noise_scale = math.sqrt(2.0 * cfg.eps * dt)
        else:
            em = np.exp(-self.nu * dt)
            self.exp_mul = em
            small = self.nu * dt < 1e-8
            with np.errstate(divide="ignore", invalid="ignore"):
                self.phi1dt = np.where(small, dt * (1.0 - 0.5 * self.nu * dt),
                                       (1.0 - em) / np.where(small, 1.0, self.nu))
                var = np.where(small, 2.0 * cfg.eps * dt * (1.0 - self.nu * dt),
                               cfg.eps * (-np.expm1(-2.0 * self.nu * dt))
                               / np.where(small, 1.0, self.nu))
            self._drift_mul = -self.phi1dt
            self.noise_std = self._noise_scale = np.sqrt(var)

    def _grow(self, rows: int) -> None:
        n = self.plan.n
        self._samples, self._grid = np.empty((rows, n)), np.empty((rows, n))
        self._term = np.empty((rows, len(self.nu)))
        if not self._matrices:  # the half spectra of synthesis (bins above d stay 0) and analysis
            self._spectra = np.zeros((2, rows, n // 2 + 1), complex)

    def potential_gradient(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """analyze(U'(synthesize(y))) into out: minus the nonlinear drift N."""
        k = len(y)
        if k > len(self._term):
            self._grow(k)
        g = self._grid[:k]
        if not self.nonlinear:
            out.fill(0.0)
        elif self.cfg.d == 0:  # a constant field: the transform collapses
            s = math.sqrt(self.cfg.L)
            x = np.divide(y, s, out=self._term[:k])
            horner_into(self._dU, x, out)
            out *= s
        elif self._matrices:
            horner_into(self._dU, np.matmul(y, self._synth, out=self._samples[:k]), g)
            np.matmul(g, self._proj, out=out)
        else:
            u = self.plan.synthesize_fft_order(y, self._spectra[0, :k], self._samples[:k])
            horner_into(self._dU, u, g)
            self.plan.analyze_fft_order(g, self._spectra[1, :k], out)
        return out

    def increments(self, xi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The noise increments of step() for the standard normals xi (last axis: coordinates):
        sqrt(2 eps dt) xi, or the exponential scheme's per-mode sd times xi."""
        return np.multiply(xi, self._noise_scale, out=out)

    def step(self, y: np.ndarray, dw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The state after one step from y with the noise increments dw, written into out.

        out (allocated when None) must not share memory with y or dw.
        """
        if out is None:
            out = np.empty(y.shape)
        self.potential_gradient(y, out)
        out *= self._drift_mul
        if self._implicit:
            out += y
            out += dw
            out /= self.denom
        else:
            out += np.multiply(y, self.exp_mul, out=self._term[: len(y)])
            out += dw
        return out

    def sup_to_target(self, y: np.ndarray) -> np.ndarray:
        """sup |R (y - t)| per row, R the refined grid's samples (in any order)
        and endpoint values, t the target; its buffers grow to the rows seen."""
        k = len(y)
        if k > len(self._diff):
            n = self.ref_plan.n
            self._diff = np.empty((k, len(self.nu)))
            if self._matrices:  # R's output holds the two endpoint values too
                self._ref = np.empty((k, n + 2))
            else:
                self._ref, self._ref_spectrum = np.empty((k, n)), np.zeros((k, n // 2 + 1), complex)
        diff = np.subtract(y, self.target, out=self._diff[:k])
        if self._matrices:
            r = np.matmul(diff, self._sup, out=self._ref[:k])
            return np.abs(r, out=r).max(axis=-1)
        r = self.ref_plan.synthesize_fft_order(diff, self._ref_spectrum[:k], self._ref[:k])
        ends = np.abs(self.ref_plan.endpoint_values(diff)).max(axis=-1)
        return np.maximum(np.abs(r, out=r).max(axis=-1), ends)

    def hit_mask(self, y: np.ndarray, rho: float) -> np.ndarray:
        """sup_to_target(y) < rho, with an exact mean-mode pre-filter.

        The field average deviates from the target by |y_0 - t_0|/sqrt(L),
        a lower bound for the sup distance, so rows failing it need no
        transform.
        """
        cand = np.abs(y[:, 0] - self.target[0]) / math.sqrt(self.cfg.L) < rho
        out = np.zeros(len(y), dtype=bool)
        if np.any(cand):
            out[cand] = self.sup_to_target(y[cand]) < rho
        return out


def step(state: FourierState, cfg: SimConfig, gaussians: np.ndarray) -> FourierState:
    """One time step of the chosen scheme driven by the supplied normals."""
    gaussians = np.asarray(gaussians, dtype=float)
    if gaussians.shape != state.coeffs.shape:
        raise ValueError("need one standard normal per stored coordinate")
    eng = _Engine(cfg)
    out = eng.step(state.coeffs[None, :], eng.increments(gaussians[None, :]))[0]
    if not np.all(np.isfinite(out)):
        raise NonFinite("state left the representable range (reduce dt?)")
    return state.with_coeffs(out)


def _replica_key(seed: int, index: int) -> int:
    """Philox key of replica index in a run seeded seed (its seed_used)."""
    return (seed ^ index) & _MASK64


def _replica_generator(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_replica_key(seed, index)))


def _run_batch(cfg: SimConfig, replica_indices: list[int]) -> list[TransitionSample]:
    """Samples of the given replicas, run side by side.

    The k live replicas are the first k rows of the state, of its swap
    buffer and of the window of noise increments, in replica order.  A
    window spans whole checks and holds about _WINDOW_BYTES for the k rows
    of its draw (at least one check, at most _MAX_WINDOW_CHECKS), so memory
    does not grow with the replica count beyond one check per replica.
    Each replica fills its row in one call on its own stream, consumed in
    order, and the window is scaled once; so the samples do not depend on
    the window.  A hit moves the later rows up in one indexed copy.
    Checks come every check_every steps and at max_steps, where the run
    ends.
    """
    eng = _Engine(cfg)
    m = len(replica_indices)
    gens = [_replica_generator(cfg.seed, i) for i in replica_indices]
    order = np.arange(m)
    y = np.tile(eng.start, (m, 1))
    y_next = np.empty_like(y)
    ncf = y.shape[1]
    max_steps = int(math.ceil(cfg.t_max / cfg.dt))

    def window(rows: int) -> int:
        """Steps per window for rows live replicas: the whole checks that fit
        _WINDOW_BYTES, at least one, at most _MAX_WINDOW_CHECKS and max_steps."""
        checks = _WINDOW_BYTES // (8 * rows * ncf * cfg.check_every)
        return min(cfg.check_every * min(max(checks, 1), _MAX_WINDOW_CHECKS), max_steps)

    buf = np.empty(max(rows * window(rows) for rows in range(1, m + 1)) * ncf)
    results: dict[int, TransitionSample] = {}
    k = m
    step_no = 0
    while k and step_no < max_steps:
        b = min(window(k), max_steps - step_no)
        noise = buf[: k * b * ncf].reshape(k, b, ncf)
        for row in range(k):
            gens[order[row]].standard_normal(out=noise[row])
        eng.increments(noise, out=noise)
        j = 0
        while j < b:
            for _ in range(min(cfg.check_every, b - j)):
                eng.step(y[:k], noise[:k, j], out=y_next[:k])
                y, y_next = y_next, y
                j += 1
            step_no_check = step_no + j
            live = y[:k]
            if not np.all(np.isfinite(live)):
                bad = order[~np.all(np.isfinite(live), axis=1)][0]
                raise NonFinite(
                    f"replica {replica_indices[bad]} diverged at step {step_no_check}")
            hit = eng.hit_mask(live, cfg.rho)
            if np.any(hit):
                for pos in order[:k][hit]:
                    results[pos] = TransitionSample(
                        tau=step_no_check * cfg.dt, censored=False,
                        steps=step_no_check,
                        seed_used=_replica_key(cfg.seed, replica_indices[pos]))
                kept = np.flatnonzero(~hit)
                first = int(np.argmax(hit))
                noise[first : len(kept), j:] = noise[kept[first:], j:]
                k = len(kept)
                y[:k] = live[kept]
                order[:k] = order[kept]
                if not k:
                    break
        step_no += b
    for pos in order[:k]:
        results[pos] = TransitionSample(
            tau=None, censored=True, steps=max_steps,
            seed_used=_replica_key(cfg.seed, replica_indices[pos]))
    return [results[i] for i in range(m)]


def sample_transition(cfg: SimConfig) -> TransitionSample:
    """Integrate one replica from the starting well until it hits the target ball."""
    return _run_batch(cfg, [0])[0]


def _stats_from_samples(samples: list[TransitionSample], cfg: SimConfig) -> TransitionStats:
    taus = [s.tau for s in samples if not s.censored]
    censored = sum(1 for s in samples if s.censored)
    if not taus:
        raise AllCensored(f"all {len(samples)} replicas censored at t_max = {cfg.t_max}")
    n = len(taus)
    mean = math.fsum(taus) / n
    stderr = None
    if n >= 2:
        stderr = math.sqrt(math.fsum((t - mean) ** 2 for t in taus) / (n - 1) / n)
    return TransitionStats(
        n=n, mean=mean, stderr=stderr, min=min(taus), max=max(taus),
        censored=censored, mean_is_lower_bound=censored > 0,
        eps=cfg.eps, d=cfg.d, dt=cfg.dt)


def run_replicas(cfg: SimConfig, n_replicas: int, threads: int = 1) -> list[TransitionSample]:
    """Per-replica samples in replica order.

    Replica i uses the stream keyed by seed XOR i, so the samples do not
    depend on threads; threads > 1 deals replicas round robin to worker
    processes.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    indices = list(range(n_replicas))
    if threads <= 1 or n_replicas < 2 * threads:
        return _run_batch(cfg, indices)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_run_batch, [cfg] * threads,
                              [indices[i::threads] for i in range(threads)]))
    return [parts[i % threads][i // threads] for i in indices]


def mc_stats(cfg: SimConfig, n_replicas: int, threads: int = 1) -> TransitionStats:
    """Monte Carlo transition-time statistics over the samples of run_replicas.

    Aggregation is order-independent (compensated summation).
    """
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas")
    return _stats_from_samples(run_replicas(cfg, n_replicas, threads), cfg)


def sample_path(cfg: SimConfig, n_steps: int, linear_only: bool = False) -> np.ndarray:
    """Coefficient trajectory of replica 0 after each of n_steps steps
    (diagnostics: OU variance, equilibrium histograms, scheme consistency).
    linear_only drops the nonlinear drift, leaving independent
    Ornstein-Uhlenbeck modes."""
    eng = _Engine(cfg, nonlinear=not linear_only)
    gen = _replica_generator(cfg.seed, 0)
    y = eng.start[None, :].copy()
    y_next, xi = np.empty_like(y), np.empty_like(y)
    out = np.empty((n_steps, y.shape[1]))
    for i in range(n_steps):
        eng.step(y, eng.increments(gen.standard_normal(out=xi), out=xi), out=y_next)
        y, y_next = y_next, y
        out[i] = y[0]
    if not np.all(np.isfinite(y)):
        raise NonFinite("trajectory diverged")
    return out


@dataclass(frozen=True)
class GalerkinErrorRow:
    d: int
    sup_error: float


@dataclass(frozen=True)
class GalerkinErrorTable:
    rows: tuple[GalerkinErrorRow, ...]
    slope: float
    d_reference: int
    T: float


def galerkin_error(cfg: SimConfig, d_list: list[int], T: float,
                   u0: FourierState | None = None) -> GalerkinErrorTable:
    """Coupled-noise Galerkin truncation errors against a reference run.

    All runs share the mode-wise Wiener increments of the reference
    dimension d_ref = 2 max(d_list) (modes |k| <= d see the same draws, by
    truncation of the reference noise).  Reports sup over checked times of
    the sup-norm distance to the reference, plus the log-log slope in d.
    """
    if sorted(d_list) != list(d_list) or len(d_list) < 2:
        raise ValueError("d_list must be ascending with at least two entries")
    d_ref = 2 * max(d_list)
    dims = list(d_list) + [d_ref]
    engines = [_Engine(replace(cfg, d=di)) for di in dims]
    if u0 is None:
        states = [e.start[None, :].copy() for e in engines]
    else:
        if u0.d != d_ref or u0.bc is not cfg.bc:
            raise ValueError(f"u0 must live at the reference dimension d={d_ref}")
        states = [u0.coeffs[None, : e.nu.shape[0]].copy() for e in engines]
    gen = _replica_generator(cfg.seed, 0)
    n_steps = int(round(T / cfg.dt))
    ncf_ref = engines[-1].nu.shape[0]
    errs = np.zeros(len(d_list))
    for start_step in range(0, n_steps, cfg.check_every):
        b = min(cfg.check_every, n_steps - start_step)
        noise = gen.standard_normal((b, ncf_ref))
        for j in range(b):
            for e_i, eng in enumerate(engines):
                nc = eng.nu.shape[0]
                states[e_i] = eng.step(states[e_i], eng.increments(noise[j : j + 1, :nc]))
        ref_state = FourierState(cfg.bc, cfg.L, d_ref, states[-1][0])
        for i, di in enumerate(d_list):
            st = FourierState(cfg.bc, cfg.L, di, states[i][0])
            errs[i] = max(errs[i], sup_dist(st, ref_state, cfg.refine))
        if not all(np.all(np.isfinite(s)) for s in states):
            raise NonFinite("a coupled run diverged")
    slope = float(np.polyfit(np.log(np.asarray(d_list, float)), np.log(errs), 1)[0])
    rows = tuple(GalerkinErrorRow(d, float(e)) for d, e in zip(d_list, errs))
    return GalerkinErrorTable(rows=rows, slope=slope, d_reference=d_ref, T=T)


# ---------------------------------------------------------------------------
# 1D potential-theory oracles


def reduced_potential_1d(pot: LocalPotential, L: float):
    """The d=0 Galerkin reduction: V1(y0) = L U(y0 / sqrt(L))."""
    s = math.sqrt(L)

    def V1(y: float) -> float:
        return L * float(pot.derivative(y / s, 0))

    return V1


def _quad(f, a, b, rtol, points=None) -> float:
    from scipy.integrate import quad  # only the d = 0 oracles integrate
    val, err = quad(f, a, b, epsabs=0.0, epsrel=rtol, limit=400, points=points)
    if err > 50 * rtol * max(abs(val), 1e-300):
        raise QuadratureNotConverged(
            f"adaptive quadrature error {err:.2e} on value {val:.6e}")
    return val


def _support_floor(V1, lo_hint: float, hi: float, eps: float) -> tuple[float, float]:
    """(z_lo, floor): left truncation point and the potential floor.

    z_lo is where exp(-(V1-floor)/eps) falls below ~1e-33 of its peak.
    """
    grid = np.linspace(lo_hint - 5.0, hi, 4001)
    vals = np.array([V1(float(g)) for g in grid])
    floor = float(vals.min())
    z = grid[0]
    while V1(z) < floor + 76.0 * eps:
        z -= 0.5
        if z < grid[0] - 1e4:
            raise QuadratureNotConverged("potential does not confine on the left")
    return z, floor


def oracle_mfpt_1d(V1, eps: float, start: float, target: float) -> float:
    """Exact 1D mean first-passage time by double quadrature.

    E[tau] = (1/eps) int_start^target e^{V1(x)/eps} int_{-inf}^x e^{-V1(z)/eps} dz dx
    for target > start (mirrored otherwise), with the inner integral
    truncated where its integrand is below ~1e-33 of the peak.
    """
    if target == start:
        return 0.0
    if target < start:
        return oracle_mfpt_1d(lambda x: V1(-x), eps, -start, -target)
    z_lo, floor = _support_floor(V1, start, target, eps)
    xs = np.linspace(start, target, 1001)
    vx = np.array([V1(float(x)) for x in xs])
    ceil_ = float(vx.max())
    x_peak = float(xs[np.argmax(vx)])

    def inner(x: float) -> float:
        return _quad(lambda z: math.exp(-(V1(z) - floor) / eps), z_lo, x, 0.1 * _ORACLE_RTOL)

    def outer_integrand(x: float) -> float:
        return math.exp((V1(x) - ceil_) / eps) * inner(x)

    pts = [x_peak] if start < x_peak < target else None
    I = _quad(outer_integrand, start, target, _ORACLE_RTOL, points=pts)
    scale = (ceil_ - floor) / eps
    if scale > 600.0:
        raise ValueError("barrier/eps too large for a plain float result")
    return I * math.exp(scale) / eps


def oracle_identity_1d(V1, eps: float, A: tuple[float, float],
                       B: tuple[float, float]) -> tuple[float, float, float, float]:
    """Check of the potential-theory identity E_nu[tau_B] = J / capacity in 1D.

    A and B are intervals with A left of B.  Returns (Etau, J, cap, residual)
    where Etau is the mean first-passage from the right edge of A to the left
    edge of B (where the equilibrium measure concentrates), cap the 1D
    capacity, J the equilibrium-potential integral, and
    residual = |Etau * cap - J| / J.
    """
    a1, a2 = A
    b1, b2 = B
    if not (a1 < a2 < b1 < b2):
        raise ValueError("need a1 < a2 < b1 < b2")
    z_lo, floor = _support_floor(V1, a1, b2, eps)
    xs = np.linspace(a2, b1, 1001)
    vx = np.array([V1(float(x)) for x in xs])
    ceil_ = float(vx.max())
    x_peak = float(xs[np.argmax(vx)])

    def w(x: float) -> float:  # e^{(V1-ceil)/eps}, the harmonic-function weight
        return math.exp((V1(x) - ceil_) / eps)

    pts = [x_peak] if a2 < x_peak < b1 else None
    Z = _quad(w, a2, b1, _ORACLE_RTOL, points=pts)
    log_cap = math.log(eps) - ceil_ / eps - math.log(Z)

    def h(x: float) -> float:  # P_x[hit A before B] on [a2, b1]
        return _quad(w, x, b1, _ORACLE_RTOL, points=[x_peak] if x < x_peak else None) / Z

    def mu(x: float) -> float:
        return math.exp(-(V1(x) - floor) / eps)

    J_left = _quad(mu, z_lo, a2, _ORACLE_RTOL)
    J_mid = _quad(lambda x: h(x) * mu(x), a2, b1, _ORACLE_RTOL)
    log_J = math.log(J_left + J_mid) - floor / eps
    Etau = oracle_mfpt_1d(V1, eps, a2, b1)
    residual = abs(math.exp(math.log(Etau) + log_cap - log_J) - 1.0)
    return Etau, math.exp(log_J), math.exp(log_cap), residual
