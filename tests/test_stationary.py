import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ellipj, ellipk

from kramers_spde import (EnergyOutOfRange, InstantonProfile, LocalPotential, NEUMANN,
                          NoInstanton, NotMonotone, PERIODIC, QuadratureNotConverged,
                          barrier_height, dT_dE, instanton, period_T, potential,
                          stationary, turning_points)
from kramers_spde.kramers import c4

# U = -u^2/2 + u^3/8 + u^4/16 + u^6/16: asymmetric, sextic, and its shallower
# well is the quartic's (U(1) = -1/4), so both potentials share E0 = 1/4 and
# every bracket energy of instanton
SAME_CAP = LocalPotential.from_coefficients([0, 0, -0.5, 0.125, 0.0625, 0, 0.0625],
                                            normalize=False)
ASYMMETRIC = LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25])


def quartic_turning_oracle(E):
    # closed form for U = u^4/4 - u^2/2: U(u) = -E at u^2 = 1 - sqrt(1-4E)
    inner = math.sqrt(1.0 - math.sqrt(1.0 - 4.0 * E))
    return -inner, inner


def test_turning_points_closed_form(pot):
    for E in (3.0 / 16.0, 0.01, 0.2):
        u2, u3 = turning_points(pot, E)
        o2, o3 = quartic_turning_oracle(E)
        assert u2 == pytest.approx(o2, abs=1e-12)
        assert u3 == pytest.approx(o3, abs=1e-12)
        assert abs(pot.derivative(u2, 0) + E) <= 1e-12
    u2, u3 = turning_points(pot, 1e-10)
    assert abs(u2) < 2e-5 and abs(u3) < 2e-5


def test_turning_points_energy_range(pot):
    for E in (0.0, 0.25, 0.3, -0.1):
        with pytest.raises(EnergyOutOfRange):
            turning_points(pot, E)


def test_period_harmonic_limit(pot):
    assert abs(period_T(pot, 1e-6) - 2.0 * math.pi) <= 1e-3


def test_period_divergence_near_cap(pot):
    assert period_T(pot, 0.2499) > 10.0


def test_period_matches_direct_integral_oracle(pot):
    # independent oracle: T = 2 int_{u2}^{u3} du / sqrt(2 (E + U(u))) with the
    # sin^2 substitution removing the endpoint singularities
    def direct(E, n=400):
        u2, u3 = turning_points(pot, E)
        x, w = np.polynomial.legendre.leggauss(n)
        th = 0.25 * math.pi * (x + 1.0)
        wt = 0.25 * math.pi * w
        u = u2 + (u3 - u2) * np.sin(th) ** 2
        du = (u3 - u2) * 2.0 * np.sin(th) * np.cos(th)
        return 2.0 * float(np.sum(wt * du / np.sqrt(2.0 * (E + pot.derivative(u, 0)))))

    for E in (0.1, 0.02, 0.2):
        assert period_T(pot, E) == pytest.approx(direct(E), rel=1e-6)


def test_dT_dE_positive_and_matches_fd(pot):
    E0 = pot.orbit_energy_cap
    for E in np.geomspace(1e-6 * E0, 0.999 * E0, 20):
        assert dT_dE(pot, float(E)) > 0.0
    for E in (0.05, 0.1, 0.2):
        h = 1e-6
        fd = (period_T(pot, E + h) - period_T(pot, E - h)) / (2.0 * h)
        assert dT_dE(pot, E) == pytest.approx(fd, rel=1e-4)


def test_dT_dE_consistent_with_expansion_sign(pot):
    # near E = 0 the slope of T(E) has the sign of the quartic-jet criterion
    slope = (period_T(pot, 1e-4) - 2.0 * math.pi) / 1e-4
    assert slope > 0.0
    assert dT_dE(pot, 1e-4) == pytest.approx(slope, rel=1e-2)


def test_instanton_neumann_L4(pot):
    prof = instanton(pot, 4.0, NEUMANN)
    assert prof.residual_sup() <= 1e-6
    assert prof.first_integral_variation() <= 1e-8 * prof.E
    assert abs(prof.du[0]) <= 1e-12 and abs(prof.du[-1]) <= 1e-10
    interior = prof.u[np.abs(prof.u) > 1e-12]
    assert int(np.sum(np.diff(np.sign(interior)) != 0)) == 1
    assert period_T(pot, prof.E) == pytest.approx(8.0, rel=1e-9)


def test_instanton_thresholds(pot):
    with pytest.raises(NoInstanton):
        instanton(pot, 3.0, NEUMANN)
    with pytest.raises(NoInstanton):
        instanton(pot, math.pi, NEUMANN)
    with pytest.raises(NoInstanton):
        instanton(pot, 6.0, PERIODIC)


def test_instanton_near_bifurcation_amplitude(pot):
    # small-amplitude regime: sup amplitude = sqrt(2 |lambda_1| / (C4 L)),
    # the bifurcating-coordinate value mapped through the orthonormal basis
    L = math.pi + 0.05
    prof = instanton(pot, L, NEUMANN)
    lam1 = (math.pi / L) ** 2 - 1.0
    amp = math.sqrt(2.0 * abs(lam1) / (c4(pot, L, NEUMANN) * L))
    assert np.abs(prof.u).max() == pytest.approx(amp, rel=0.2)


def test_instanton_periodic_closes(pot):
    prof = instanton(pot, 7.0, PERIODIC)
    assert abs(prof.u[0] - prof.u[-1]) <= 1e-8
    assert abs(prof.du[0] - prof.du[-1]) <= 1e-8
    assert prof.u[0] <= prof.u.min() + 1e-12  # phase convention: minimum at x = 0
    assert prof.residual_sup() <= 1e-6


def test_instanton_reflection(pot):
    prof = instanton(pot, 4.0, NEUMANN)
    mirror = prof.reflected()
    assert mirror.V_value == prof.V_value
    assert mirror.u[0] == prof.u[-1]
    assert np.abs(mirror.u[::-1] - prof.u).max() == 0.0


def test_periodic_translation_family(pot):
    prof = instanton(pot, 7.0, PERIODIC)
    shifted = prof.translated(1.0)
    assert shifted.u.shape == prof.u.shape
    # the family direction is nontrivial: d/dphi has positive norm
    assert prof.deriv_L2 > 0.1
    assert abs(shifted.V_value - prof.V_value) == 0.0  # metadata unchanged


def test_barrier_height(pot):
    H0, tag = barrier_height(pot, 1.0, NEUMANN)
    assert (H0, tag) == (0.25, "constant")
    H4, tag4 = barrier_height(pot, 4.0, NEUMANN)
    assert tag4 == "instanton"
    assert H4 < 1.0  # strictly below the constant-saddle value -L U(u_-)
    # continuity at the bifurcation: instanton degenerates to the uniform saddle
    Hpi, tagpi = barrier_height(pot, math.pi, NEUMANN)
    assert tagpi == "constant"
    eps_L = 1e-6
    Hnear, _ = barrier_height(pot, math.pi + eps_L, NEUMANN)
    assert Hnear == pytest.approx(Hpi + 0.25 * eps_L, rel=1e-4)


def test_instanton_energy_vs_shooting_oracle(pot):
    # independent shooting oracle: integrate with a different integrator
    # (midpoint rule, 10x steps) and compare the boundary derivative
    prof = instanton(pot, 4.0, NEUMANN, n_samples=2048)
    u, v = prof.turning[0], 0.0
    n = 40960
    h = 4.0 / n
    for _ in range(n):
        um = u + 0.5 * h * v
        vm = v + 0.5 * h * pot.derivative(u, 1)
        u += h * vm
        v += h * pot.derivative(um, 1)
    assert abs(v) <= 1e-5  # Neumann closure reproduced by the oracle
    assert u == pytest.approx(prof.u[-1], abs=1e-5)


def test_constant_profile_helper(pot):
    prof = InstantonProfile.constant(pot.u_minus, pot, NEUMANN, 2.0)
    assert prof.V_value == pytest.approx(2.0 * pot.derivative(pot.u_minus, 0))
    assert prof.deriv_L2 == 0.0


# --- the energy solve against the algorithm it replaced: one root solve per
# --- rule, per call of period_T and dT_dE, written out here as the reference

def _reference_branch_values(pot, E, phi, u2, u3):
    """f_E(phi) for one rule: 16 halvings with np.where and np.polyval, 4 Newton polishes."""
    target = E * np.cos(phi) ** 2
    lo = np.where(phi < 0.5 * math.pi, u2, 0.0)
    hi = np.where(phi < 0.5 * math.pi, 0.0, u3)
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        g = -pot.derivative(mid, 0) - target
        left = phi < 0.5 * math.pi
        go_right = np.where(left, g > 0.0, g < 0.0)
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    f = 0.5 * (lo + hi)
    for _ in range(4):
        du = pot.derivative(f, 1)
        safe = np.abs(du) > 1e-14
        step = np.where(safe, (-pot.derivative(f, 0) - target) / np.where(safe, -du, 1.0), 0.0)
        f = f - step
    return f


def _reference_period(pot, E, derivative, n0=128, target=1e-8, n_max=8192):
    """period_T (derivative False) or dT_dE (True), solving the roots afresh for every rule."""
    def integral(n):
        phi, w = stationary._gl_nodes(n)[:2]
        u2, u3 = turning_points(pot, E)
        f = _reference_branch_values(pot, E, phi, u2, u3)
        du = pot.derivative(f, 1)
        c = np.cos(phi)
        if not derivative:
            vals = math.sqrt(2.0 * E) * c / du
        else:
            expr = du ** 2 - 2.0 * pot.derivative(f, 0) * pot.derivative(f, 2)
            vals = expr * c / (math.sqrt(2.0 * E) * du ** 3)
        return 2.0 * float(np.sum(w * vals))

    prev = integral(n0)
    n = 2 * n0
    while n <= n_max:
        cur = integral(n)
        rel = abs(cur - prev) / max(abs(cur), 1e-300)
        if rel <= target:
            return cur
        prev = cur
        n *= 2
    if rel <= max(1e-6, 10.0 * target):
        return cur
    raise QuadratureNotConverged(f"rel change {rel:.2e}")


def _reference_instanton_energy(pot, L, bc):
    """E* by period calls at every bracket, one bisection step and Newton steps."""
    target = 2.0 * L if bc is NEUMANN else L
    E0 = pot.orbit_energy_cap
    lo = 1e-13 * E0
    for j in range(1, 46):
        cand = E0 * (1.0 - 0.5 ** j)
        if _reference_period(pot, cand, False) > target:
            hi = cand
            break
        lo = cand
    mid = 0.5 * (lo + hi)
    if _reference_period(pot, mid, False) > target:
        hi = mid
    else:
        lo = mid
    E = 0.5 * (lo + hi)
    for _ in range(40):
        step = (_reference_period(pot, E, False) - target) / _reference_period(pot, E, True)
        En = E - step
        if not lo * 0.5 <= En <= min(2.0 * hi, E0 * (1 - 1e-15)):
            En = 0.5 * (lo + hi)
        E = En
        if abs(step) <= 1e-10 * E:
            break
    return E


_open_unit = st.floats(1e-13, 1.0, exclude_max=True)  # E / E0, from the bracket's low end


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(["quartic", "asymmetric sextic"]), frac=_open_unit,
       n0=st.sampled_from([64, 128]),
       mult=st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3, unique=True))
def test_orbit_nodes_match_one_rule_at_a_time(pot, which, frac, n0, mult):
    # the n0, 2 n0 and 4 n0 rules solved together, in any order, give the
    # bits of each rule solved alone by the reference bisection
    p = pot if which == "quartic" else SAME_CAP
    E = frac * p.orbit_energy_cap
    turning = turning_points(p, E)
    ns = tuple(m * n0 for m in mult)
    got = stationary._orbit_nodes(p, E, turning, ns)
    for n in ns:
        want = _reference_branch_values(p, E, stationary._gl_nodes(n)[0], *turning)
        assert got[n].tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(["quartic", "asymmetric sextic"]), frac=st.floats(1e-13, 0.9),
       n0=st.sampled_from([64, 128]),
       mult=st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3, unique=True))
def test_orbit_nodes_within_4_ulps_of_mpmath_roots(pot, which, frac, n0, mult):
    # an oracle that knows nothing of the solve's schedule: Newton in 40
    # digits from each node, on -U(u) = E cos^2 phi, which has one root on
    # the node's half bracket [u2, 0] or [0, u3]
    p = pot if which == "quartic" else SAME_CAP
    E = frac * p.orbit_energy_cap
    u2, u3 = turning_points(p, E)
    ns = tuple(m * n0 for m in mult)
    got = stationary._orbit_nodes(p, E, (u2, u3), ns)
    with mpmath.workdps(40):
        U = [mpmath.mpf(c) for c in reversed(p.coefficients)]
        dU = [k * c for k, c in zip(range(len(U) - 1, 0, -1), U[:-1])]
        for n in ns:
            for phi, f in zip(stationary._gl_nodes(n)[0], got[n]):
                target = E * mpmath.cos(phi) ** 2
                root = mpmath.mpf(f)
                for _ in range(4):
                    step = (mpmath.polyval(U, root) + target) / mpmath.polyval(dU, root)
                    root -= step
                assert abs(step) <= 1e-30 * abs(root)
                assert (u2 <= root <= 0.0) if phi < 0.5 * math.pi else (0.0 <= root <= u3)
                assert abs(f - root) <= 4.0 * math.ulp(float(root))


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(["quartic", "asymmetric sextic"]), frac=_open_unit)
def test_period_and_slope_match_one_solve_per_call(pot, which, frac):
    p = pot if which == "quartic" else SAME_CAP
    E = frac * p.orbit_energy_cap
    try:
        want = (_reference_period(p, E, False), _reference_period(p, E, True))
    except QuadratureNotConverged:
        with pytest.raises(QuadratureNotConverged):
            stationary._doubling(p, E, turning_points(p, E), (False, True))
        return
    assert stationary._doubling(p, E, turning_points(p, E), (False, True)) == list(want)
    assert (period_T(p, E), dT_dE(p, E)) == want


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.3), (NEUMANN, 4.5), (NEUMANN, 6.1),
                                   (PERIODIC, 6.5), (PERIODIC, 9.0), (PERIODIC, 12.3)])
def test_instanton_energy_matches_reference_solve(pot, bc, L, monkeypatch):
    want = _reference_instanton_energy(pot, L, bc)
    stationary._bracket_period.cache_clear()
    cold = instanton(pot, L, bc, n_samples=256)
    warm = instanton(pot, L, bc, n_samples=256)  # bracket periods from the memo
    assert cold.E == warm.E == want
    assert cold.turning == warm.turning == turning_points(pot, want)


def test_instanton_root_solves_counted(pot, monkeypatch):
    assert SAME_CAP.orbit_energy_cap == pot.orbit_energy_cap
    solve_turning, solve_period = stationary.turning_points, stationary.period_T
    solve_roots = stationary._orbit_roots
    turning_calls, period_calls = [], []

    def counted_turning(p, E):
        turning_calls.append(E)
        return solve_turning(p, E)

    def counted_period(p, E, *args, **kwargs):
        period_calls.append((p.coefficients, E))
        return solve_period(p, E, *args, **kwargs)

    def checked_roots(p, E, turning, *nodes):
        assert turning == solve_turning(p, E)  # the roots passed are this energy's
        return solve_roots(p, E, turning, *nodes)

    monkeypatch.setattr(stationary, "turning_points", counted_turning)
    monkeypatch.setattr(stationary, "period_T", counted_period)
    monkeypatch.setattr(stationary, "_orbit_roots", checked_roots)
    stationary._bracket_period.cache_clear()
    for L in (3.5, 4.5, 6.0):
        for p in (pot, SAME_CAP):
            turning_calls.clear()
            instanton(p, L, NEUMANN, n_samples=256)
            assert turning_calls and max(Counter(turning_calls).values()) == 1
    for p in (pot, SAME_CAP):
        E0 = p.orbit_energy_cap
        bracket = {1e-13 * E0} | {E0 * (1.0 - 0.5 ** j) for j in range(1, 46)}
        counts = Counter(E for key, E in period_calls if key == p.coefficients and E in bracket)
        assert counts and set(counts.values()) == {1}  # once per potential, not per L


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.2), (NEUMANN, 3.5), (NEUMANN, 4.5),
                                   (NEUMANN, 6.0), (NEUMANN, 6.2), (PERIODIC, 6.35),
                                   (PERIODIC, 6.5), (PERIODIC, 9.0), (PERIODIC, 12.3)])
def test_instanton_orbit_node_solves_within_budget(pot, bc, L, monkeypatch):
    # a work count, not a wall time: with the bracket periods cached, one
    # bisection step, Newton and the sampler's node solve at E* need at
    # most 8 orbit-node solves per instanton
    instanton(pot, L, bc, n_samples=256)  # caches the bracket periods
    solve, calls = stationary._orbit_roots, []

    def counted(*args):
        calls.append(args[1])
        return solve(*args)
    monkeypatch.setattr(stationary, "_orbit_roots", counted)
    instanton(pot, L, bc, n_samples=256)
    assert 1 <= len(calls) <= 8


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.2), (NEUMANN, 6.2), (PERIODIC, 9.0),
                                   (PERIODIC, 12.3)])
def test_warm_instanton_scalar_horner_calls_within_budget(pot, bc, L, monkeypatch):
    # the turning-point solves are the only scalar work; the samples come
    # from vectorized solves on the orbit map, not a step-by-step integration
    instanton(pot, L, bc)  # caches the bracket periods
    horner, calls = potential.horner, []

    def counted(coef, u):
        calls.append(u)
        return horner(coef, u)
    monkeypatch.setattr(stationary, "horner", counted)
    monkeypatch.setattr(potential, "horner", counted)
    instanton(pot, L, bc)
    assert 1 <= len(calls) <= 2000


def _jacobi_instanton(L, bc, n):
    """quartic()'s instanton in closed form at x = j L / n: u* =
    sqrt(2m/(1+m)) sn((x - L/q)/sqrt(1+m) | m) with q K(m) sqrt(1+m) = L,
    q = 2 (Neumann) or 4 (periodic); m by bisection to the last bit."""
    q = 2 if bc is NEUMANN else 4
    lo, hi = 0.0, 1.0
    while True:
        m = 0.5 * (lo + hi)
        if m in (lo, hi):
            break
        if q * ellipk(m) * math.sqrt(1.0 + m) > L:
            hi = m
        else:
            lo = m
    s = math.sqrt(1.0 + m)
    sn, cn, dn, _ = ellipj((np.linspace(0.0, L, n + 1) - L / q) / s, m)
    amp = math.sqrt(2.0 * m / (1.0 + m))
    return amp * sn, amp * cn * dn / s


@pytest.mark.parametrize("bc, L, tol", [
    (NEUMANN, 3.3, 2e-14), (NEUMANN, 4.5, 2e-14), (NEUMANN, 6.2, 2e-14),
    (PERIODIC, 6.6, 2e-14), (PERIODIC, 9.0, 2e-14), (PERIODIC, 12.4, 2e-14),
    # near E0 what is left is E*'s own error
    (NEUMANN, 14.0, 1e-9), (PERIODIC, 28.0, 1e-9)])
def test_instanton_samples_match_jacobi_closed_form(pot, bc, L, tol):
    prof = instanton(pot, L, bc)
    u, du = _jacobi_instanton(L, bc, prof.n_samples)
    assert np.abs(prof.u - u).max() <= tol
    assert np.abs(prof.du - du).max() <= tol


@pytest.mark.parametrize("n", [256, 1023, 1024, 4096])
@pytest.mark.parametrize("which", ["quartic", "asymmetric"])
@pytest.mark.parametrize("bc, L", [(NEUMANN, 4.5), (PERIODIC, 9.0)])
def test_instanton_sample_structure(pot, which, bc, L, n):
    # the periodic profile is its half orbit mirrored, bit for bit, for odd
    # n too; both ends of a half orbit are turning points (u' = 0); every
    # sample lies on the level set H = E to roundoff
    p = pot if which == "quartic" else ASYMMETRIC
    prof = instanton(p, L, bc, n_samples=n)
    assert prof.du[0] == 0.0
    if bc is PERIODIC:
        assert np.array_equal(prof.u, prof.u[::-1])
        assert np.array_equal(prof.du, -prof.du[::-1])
    else:
        assert abs(prof.du[-1]) <= 1e-14
    assert prof.first_integral_variation() <= 1e-14 * prof.E


def test_instanton_bracket_refusals(pot, monkeypatch):
    # both refusals of the bracket step, with the periods it reads stubbed
    for period, message in ((7.0, "harmonic end"), (1.0, "could not bracket")):
        monkeypatch.setattr(stationary, "period_T", lambda p, E, T=period: T)
        stationary._bracket_period.cache_clear()
        with pytest.raises(NotMonotone, match=message):
            instanton(pot, 3.3, NEUMANN)


def _count_newton_steps(monkeypatch, transform=None):
    """Patch _doubling so the Newton loop's (T, T') evaluations are counted,
    and optionally rewritten by transform(E, [T, T'])."""
    solve, newton = stationary._doubling, []

    def counted(p, E, turning, derivatives, *args, **kwargs):
        values = solve(p, E, turning, derivatives, *args, **kwargs)
        if derivatives == (False, True):
            newton.append(E)
            if transform is not None:
                values = transform(E, values)
        return values
    monkeypatch.setattr(stationary, "_doubling", counted)
    return newton


@pytest.mark.parametrize("bc, L", [(PERIODIC, 2.0 * math.pi + 1e-6),
                                   (NEUMANN, math.pi + 1e-8)])
def test_instanton_newton_stops_near_the_bifurcation(pot, bc, L, monkeypatch):
    # E* is about 2e-7 and 4e-9 here, where the step test |step| <= 1e-10 E
    # is out of reach; T within a few ulps of its target ends the loop
    newton = _count_newton_steps(monkeypatch)
    prof = instanton(pot, L, bc, n_samples=256)
    assert 1 <= len(newton) <= 5
    target = 2.0 * L if bc is NEUMANN else L
    assert abs(period_T(pot, prof.E) - target) <= 8.0 * math.ulp(target)


def test_instanton_newton_falls_back_to_bisection(pot, monkeypatch):
    # a vanishing slope throws every Newton step out of the bracket; the loop
    # then bisects the bracket it narrows, and either converges or refuses
    newton = _count_newton_steps(
        monkeypatch, lambda E, values: [values[0], math.copysign(1e-300, values[1])])
    target = 8.0
    try:
        prof = instanton(pot, 4.0, NEUMANN, n_samples=256)
    except NotMonotone as exc:
        assert "neumann, L = 4.0" in str(exc) and len(newton) == 40
    else:
        assert abs(period_T(pot, prof.E) - target) <= 4.0 * math.ulp(target)
        assert prof.E == newton[-1]  # the bisection point, not a step from it
    assert len(set(newton)) == len(newton)  # each fallback bisects a narrower bracket


def test_instanton_newton_refuses_when_unconverged(pot, monkeypatch):
    # a period that never meets its target: after 40 steps the loop raises
    # NotMonotone naming the length and boundary condition
    newton = _count_newton_steps(monkeypatch, lambda E, values: [values[0] + 1.0, values[1]])
    with pytest.raises(NotMonotone, match=r"periodic, L = 7\.0"):
        instanton(pot, 7.0, PERIODIC, n_samples=256)
    assert len(newton) == 40
