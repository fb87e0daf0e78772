import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ellipj, ellipk

from kramers_spde import (EnergyOutOfRange, LocalPotential, NEUMANN, NoInstanton,
                          NotMonotone, PERIODIC, QuadratureNotConverged,
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


def test_instanton_profiles_compare_and_hash_by_identity(pot):
    # field-wise equality would compare the sample arrays (and raise); a
    # profile is the orbit it was sampled on, and its mirror and translates
    # keep that orbit's rule, so their spectra are the instanton's
    a, b = (instanton(pot, 7.0, PERIODIC, n_samples=256) for _ in range(2))
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    assert a.rule is not b.rule
    assert a.translated(1.0).rule is a.rule and a.translated(1.0) != a


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


_open_unit = st.floats(1e-13, 1.0, exclude_max=True)  # E / E0, from the bracket's low end


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(["quartic", "asymmetric sextic"]), frac=_open_unit)
def test_orbit_nodes_match_one_rule_at_a_time(pot, which, frac):
    # the graded rule solved together with its certificate's panels gives
    # the bits of each solved alone, and the rule without them (the samples'
    # and the moments') is the leading part of the one with them, bit for
    # bit; its geometry is built once per levels, read-only
    p = pot if which == "quartic" else SAME_CAP
    E = frac * p.orbit_energy_cap
    turning = turning_points(p, E)
    rule = stationary._orbit_rule(p, E, turning)
    cos_phi, f = rule[3], rule[5]
    ends = stationary._ENDS
    for part in (slice(None, -ends), slice(-ends, None)):
        assert f[part].tobytes() == stationary._orbit_roots(p, E, turning, cos_phi[part]).tobytes()
    fine = stationary._orbit_rule(p, E, turning, certificate=False)
    for full, part, panel in zip(rule, fine, (True, True, False, False, False, False)):
        assert part.tobytes() == (full[:-2] if panel else full[:-ends]).tobytes()
    again = stationary._orbit_rule(p, E, turning)
    assert all(a is b and not a.flags.writeable for a, b in zip(rule[:5], again[:5]))


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(["quartic", "asymmetric sextic"]), frac=st.floats(1e-13, 0.9))
def test_orbit_nodes_within_4_ulps_of_mpmath_roots(pot, which, frac):
    # an oracle that knows nothing of the solve's schedule: Newton in 40
    # digits from each node of the graded rule and its certificate's panels,
    # on -U(u) = E cos^2 phi, which has one root on the node's half bracket
    # [u2, 0] or [0, u3]
    p = pot if which == "quartic" else SAME_CAP
    E = frac * p.orbit_energy_cap
    u2, u3 = turning_points(p, E)
    _, _, nodes, _, _, roots = stationary._orbit_rule(p, E, (u2, u3))
    with mpmath.workdps(40):
        U = [mpmath.mpf(c) for c in reversed(p.coefficients)]
        dU = [k * c for k, c in zip(range(len(U) - 1, 0, -1), U[:-1])]
        for phi, f in zip(nodes, roots):
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
    # T and T' sharing one root solve give the bits of period_T and dT_dE,
    # each of which solves its own roots
    p = pot if which == "quartic" else SAME_CAP
    E = frac * p.orbit_energy_cap
    try:
        want = [period_T(p, E), dT_dE(p, E)]
    except QuadratureNotConverged:
        with pytest.raises(QuadratureNotConverged):
            stationary._period_values(p, E, turning_points(p, E), (False, True))
        return
    assert stationary._period_values(p, E, turning_points(p, E), (False, True)) == want


def _elliptic_period(E):
    """quartic()'s T(E) = 4 K(m) sqrt(1+m) with E = m/(1+m)^2, in the
    working precision (m = 2E / (1 - 2E + sqrt(1 - 4E)), free of cancellation)."""
    m = 2 * E / (1 - 2 * E + mpmath.sqrt(1 - 4 * E))
    return 4 * mpmath.ellipk(m) * mpmath.sqrt(1 + m)


@settings(max_examples=40, deadline=None)
@given(frac=st.floats(1e-13, 0.9999))
@example(frac=1e-13)
@example(frac=0.9999)
def test_period_and_slope_match_elliptic_closed_form(pot, frac):
    # T and T' of quartic() within 1e-13 relative of the closed form and of
    # its derivative, both in 40 digits (measured at most 3.1e-14, T' at
    # E = 0.9999 E0)
    E = frac * pot.orbit_energy_cap
    with mpmath.workdps(40):
        T = float(_elliptic_period(mpmath.mpf(E)))
        slope = float(mpmath.diff(_elliptic_period, mpmath.mpf(E)))
    assert abs(period_T(pot, E) - T) <= 1e-13 * T
    assert abs(dT_dE(pot, E) - slope) <= 1e-13 * slope


def _elliptic_energy(L, bc):
    """quartic()'s E* = m/(1+m)^2 with q K(m) sqrt(1+m) = L, q = 2 (Neumann)
    or 4 (periodic), in 40 digits."""
    q = 2 if bc is NEUMANN else 4
    with mpmath.workdps(40):
        m = mpmath.findroot(lambda m: q * mpmath.ellipk(m) * mpmath.sqrt(1 + m) - L,
                            (mpmath.mpf("1e-30"), 1 - mpmath.mpf("1e-30")), solver="anderson")
        return m / (1 + m) ** 2


_JACOBI_LENGTHS = [(NEUMANN, 3.3), (NEUMANN, 4.5), (NEUMANN, 6.2), (PERIODIC, 6.6),
                   (PERIODIC, 9.0), (PERIODIC, 12.4), (NEUMANN, 14.0), (PERIODIC, 28.0)]


@pytest.mark.parametrize("bc, L", _JACOBI_LENGTHS)
def test_instanton_energy_matches_elliptic_closed_form(pot, bc, L):
    # within 2 ulps of the closed form (0.34 to 1.25 ulps measured), cold
    # and with the bracket periods from the memo alike
    stationary._bracket_period.cache_clear()
    cold = instanton(pot, L, bc, n_samples=256)
    warm = instanton(pot, L, bc, n_samples=256)
    assert cold.E == warm.E
    assert cold.turning == warm.turning == turning_points(pot, cold.E)
    want = _elliptic_energy(L, bc)
    assert abs(cold.E - want) <= 2.0 * math.ulp(float(want))


@pytest.mark.parametrize("bc, L", _JACOBI_LENGTHS[:6])
def test_instanton_energy_meets_the_sextic_target(bc, L):
    # T(E*) within 8 ulps of its target for the asymmetric sextic.  Near E0
    # one ulp of E moves T by hundreds of ulps (about 700 at Neumann L = 6.2);
    # there E* is held to within two ulps of the root instead
    E = instanton(SAME_CAP, L, bc, n_samples=256).E
    target = 2.0 * L if bc is NEUMANN else L
    tol = 8.0 * math.ulp(target)
    below, at, above = (period_T(SAME_CAP, E + k * math.ulp(E)) for k in (-2, 0, 2))
    assert below - tol <= target <= above + tol
    if above - below <= tol:
        assert abs(at - target) <= tol


@pytest.mark.parametrize("bc, solves, fails", [(NEUMANN, 16.98, 17.0),
                                               (PERIODIC, 33.95, 34.0)])
def test_instanton_reach(pot, bc, solves, fails):
    # quartic()'s longest domains, probed in steps of 0.02 (Neumann) and
    # 0.05 (periodic): the period rule certifies itself at every energy E*
    # needs up to the first length, not at the second (there the roots'
    # rounding near the well's minimum moves T' by 1.9e-8)
    prof = instanton(pot, solves, bc, n_samples=256)
    assert prof.E < pot.orbit_energy_cap
    with pytest.raises(QuadratureNotConverged, match=rf"{bc.value} L = {fails}"):
        instanton(pot, fails, bc, n_samples=256)


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
        bracket = {1e-13 * E0} | {E0 * r for r in stationary._RUNGS}
        counts = Counter(E for key, E in period_calls if key == p.coefficients and E in bracket)
        assert counts and set(counts.values()) == {1}  # once per potential, not per L


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.2), (NEUMANN, 3.5), (NEUMANN, 4.5),
                                   (NEUMANN, 6.0), (NEUMANN, 6.2), (PERIODIC, 6.35),
                                   (PERIODIC, 6.5), (PERIODIC, 9.0), (PERIODIC, 12.3)])
def test_instanton_orbit_node_solves_within_budget(pot, bc, L, monkeypatch):
    # a work count, not a wall time: with the bracket periods cached, Newton
    # from the interpolated start and the sampler's node solve at E* need at
    # most 3 orbit-node solves per instanton
    instanton(pot, L, bc, n_samples=256)  # caches the bracket periods
    solve, calls = stationary._orbit_roots, []

    def counted(*args):
        calls.append(args[1])
        return solve(*args)
    monkeypatch.setattr(stationary, "_orbit_roots", counted)
    instanton(pot, L, bc, n_samples=256)
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.2), (NEUMANN, 6.2), (PERIODIC, 9.0),
                                   (PERIODIC, 12.3)])
def test_warm_instanton_scalar_horner_calls_within_budget(pot, bc, L, monkeypatch):
    # the turning-point solves are the only scalar work: at most 3 solves
    # of 2 roots, each 8 halvings, 3 polishes of 2 calls and a last Newton
    # step of 2 (96 calls measured); E0 is computed once per potential, and
    # the samples come from vectorized solves on the orbit map, not a
    # step-by-step integration
    instanton(pot, L, bc)  # caches the bracket periods
    horner, calls = potential.horner, []

    def counted(coef, u):
        calls.append(u)
        return horner(coef, u)
    monkeypatch.setattr(stationary, "horner", counted)
    monkeypatch.setattr(potential, "horner", counted)
    instanton(pot, L, bc)
    assert 1 <= len(calls) <= 104


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
    """Patch _period_values so the Newton loop's (T, T') evaluations are
    counted, and optionally rewritten by transform(E, [T, T'])."""
    solve, newton = stationary._period_values, []

    def counted(p, E, turning, derivatives, *args, **kwargs):
        values = solve(p, E, turning, derivatives, *args, **kwargs)
        if derivatives == (False, True):
            newton.append(E)
            if transform is not None:
                values = transform(E, values)
        return values
    monkeypatch.setattr(stationary, "_period_values", counted)
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


@pytest.mark.parametrize("bc, L", [
    (NEUMANN, 3.198057118), (NEUMANN, 3.30236888), (NEUMANN, 4.3), (NEUMANN, 4.8),
    (NEUMANN, 5.5), (NEUMANN, 6.1), (PERIODIC, 6.429514537), (PERIODIC, 6.568547144),
    (PERIODIC, 7.4), (PERIODIC, 9.6), (PERIODIC, 10.4), (PERIODIC, 12.4)])
def test_instanton_newton_energies_within_budget(pot, bc, L, monkeypatch):
    # a work count at the instanton lengths of a prediction sweep: with the
    # bracket periods cached, Newton from the interpolated start in s
    # evaluates T and T' at 2 energies (4 or 5 from one bisection step)
    instanton(pot, L, bc, n_samples=256)  # caches the bracket periods
    newton = _count_newton_steps(monkeypatch)
    instanton(pot, L, bc, n_samples=256)
    assert 1 <= len(newton) <= 2


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
