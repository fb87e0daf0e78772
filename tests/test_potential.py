import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from kramers_spde import (FourierState, InvalidPotential, LocalPotential, NEUMANN,
                          PERIODIC, SimConfig, TransformPlan, check_assumptions, energy_V,
                          grad_V, quartic)
from kramers_spde.potential import energy_lower_bound_constants, h1_norm_squared, horner_into
from kramers_spde.spectral import default_grid_size


def test_eval_quartic_values(pot):
    assert pot.derivative(1.0, 0) == -0.25
    assert pot.derivative(0.0, 2) == -1.0
    assert pot.derivative(0.7, 4) == 6.0
    assert pot.derivative(0.3, 5) == 0.0
    assert pot.derivative(1, 0) == -0.25 and type(pot.derivative(1, 0)) is float


@pytest.mark.parametrize("which", ["quartic", "asymmetric", "sextic"])
def test_array_derivative_is_polyval_bit_for_bit(pot, which):
    # lists, 0-d and 2-D arrays go through horner_into; np.polyval on the
    # same table is the reference, down to the sign of a zero
    p = {"quartic": pot, "sextic": _SEXTIC,
         "asymmetric": LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25])}[which]
    grid = np.random.default_rng(3).uniform(-2.0, 2.0, (4, 6))
    grid[0, :3] = (0.0, -0.0, 1.0)
    for order in range(6):
        table = p._deriv_scalar[order]
        for u in ([0.0, -0.0, 0.5, -1.5, 2], np.array(-0.0), np.array(0.7), grid):
            got = p.derivative(u, order)
            want = np.polyval(table, np.asarray(u, float))
            assert isinstance(got, np.ndarray) and got.shape == np.shape(u)
            assert got.tobytes() == np.asarray(want).tobytes(), (order, u)


def test_potentials_compare_and_hash_on_coefficients():
    # the derivative tables follow from the coefficients and take no part,
    # so a potential can key a functools cache
    assert quartic() == quartic()
    assert hash(quartic()) == hash(quartic())
    other = LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25])
    assert other != quartic() and other.coefficients != quartic().coefficients
    config = dict(bc=NEUMANN, L=1.0, d=4, eps=0.1, dt=1e-3, t_max=1.0)
    assert SimConfig(pot=quartic(), **config) == SimConfig(pot=quartic(), **config)


def test_is_even_reads_the_coefficients(pot):
    # exact zeros in every odd power, with or without normalization; a
    # nearly even potential is not even
    assert pot.is_even
    assert LocalPotential.from_coefficients([0, 0, -0.5, 0, 0.1, 0, 0.05]).is_even
    assert LocalPotential.from_coefficients([0, 0, -0.5, 0, 0.1, 0, 0.05],
                                            normalize=False).is_even
    assert not LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25]).is_even
    assert not LocalPotential.from_coefficients([0, 0, -0.5, 1e-15, 0.25]).is_even


def test_eval_order_range(pot):
    with pytest.raises(ValueError):
        pot.derivative(0.0, 6)


def test_critical_points_quartic(pot):
    assert (pot.u_minus, pot.u_plus) == (-1.0, 1.0)
    assert pot.derivative(pot.u_minus, 1) == pot.derivative(0.0, 1) == 0.0


def test_critical_points_asymmetric_match_root_oracle():
    pot = LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25])
    # independent oracle: numpy root finder on U' = u^3 + 0.3 u^2 - u
    roots = np.sort(np.roots([1.0, 0.3, -1.0, 0.0]))
    assert pot.u_minus == pytest.approx(roots[0], rel=1e-12)
    assert pot.u_plus == pytest.approx(roots[2], rel=1e-12)
    assert pot.u_minus != -pot.u_plus
    for r in (pot.u_minus, pot.u_plus):
        assert abs(pot.derivative(r, 1)) <= 1e-12


def test_normalization_reported():
    # unnormalized double well: maximum off origin, curvature != -1
    base = np.polynomial.Polynomial([0, 0, -0.5, 0, 0.25])
    shifted = base(np.polynomial.Polynomial([-0.3, 1.0])) * 2.0 + 5.0
    pot = LocalPotential.from_coefficients(shifted.coef)
    shift, scale = pot.normalization
    assert shift == pytest.approx(0.3, rel=1e-9)
    assert scale == pytest.approx(0.5, rel=1e-9)
    assert pot.derivative(0.0, 0) == 0.0
    assert pot.derivative(0.0, 2) == -1.0
    # the recorded affine change undoes the construction exactly
    assert pot.u_minus == pytest.approx(-1.0, rel=1e-9)


def test_four_well_rejected():
    # U' = u (u^2-1)(u^2-4)(u^2-9) / 10 has 7 real critical points
    dU = np.polynomial.Polynomial([0, -36, 0, 49, 0, -14, 0, 1]) / 10.0
    U = dU.integ()
    with pytest.raises(InvalidPotential):
        LocalPotential.from_coefficients(U.coef)


def test_wrong_curvature_rejected():
    with pytest.raises(InvalidPotential):
        LocalPotential.from_coefficients([0, 0, 0.5, 0, 0.25], normalize=False)
    with pytest.raises(InvalidPotential):  # odd degree
        LocalPotential.from_coefficients([0, 0, -0.5, 0.25])
    with pytest.raises(InvalidPotential):  # negative leading coefficient
        LocalPotential.from_coefficients([0, 0, 0.5, 0, -0.25])


def test_check_assumptions_quartic(pot):
    rep = check_assumptions(pot)
    assert rep.monotone_period_sufficient
    assert rep.period_increasing_at_zero  # 6 > 0
    assert rep.supercritical


def test_check_assumptions_inequality_direct():
    # U''''(0) = -10 < -(5/3) U'''(0)^2 = -5/3 must fail the expansion test;
    # build the report arithmetic directly on a potential with those jets.
    coef = [0.0, 0.0, -0.5, 1.0 / 6.0, -10.0 / 24.0, 0.0, 1.0, 0.0, 0.0]
    # ensure confinement: degree 8 with tiny high-order terms -> normalize off
    coef = np.array(coef)
    pot = LocalPotential.from_coefficients(coef, normalize=False)
    assert pot.derivative(0.0, 3) == pytest.approx(1.0)
    assert pot.derivative(0.0, 4) == pytest.approx(-10.0)
    rep = check_assumptions(pot)
    assert not rep.period_increasing_at_zero
    assert not rep.supercritical


def test_energy_constant_states(pot):
    s = FourierState.constant(-1.0, NEUMANN, 1.0, 3)
    assert energy_V(s, pot) == pytest.approx(-0.25, abs=1e-15)
    z = FourierState.zeros(NEUMANN, 1.0, 3)
    assert energy_V(z, pot) == 0.0


def test_energy_single_mode_vs_dense_trapezoid(pot):
    # oracle: 10^6-point midpoint/trapezoid quadrature of the quartic integrand
    coeffs = np.zeros(4)
    coeffs[1] = 0.3
    s = FourierState(NEUMANN, 1.0, 3, coeffs)
    n = 10**6
    x = (np.arange(n) + 0.5) / n
    u = 0.3 * math.sqrt(2.0) * np.cos(math.pi * x)
    ref = 0.5 * math.pi**2 * 0.09 + np.mean(0.25 * u**4 - 0.5 * u**2)
    assert energy_V(s, pot) == pytest.approx(ref, abs=1e-10)


def test_grad_zero_at_stationary_points(pot):
    for value in (pot.u_minus, 0.0):
        s = FourierState.constant(value, PERIODIC, 2.0, 5)
        assert np.abs(grad_V(s, pot)).max() <= 1e-12


def test_grad_matches_finite_differences(pot, rng):
    # oracle: central finite differences of energy_V, 100 random states
    worst = 0.0
    for _ in range(100):
        bc = NEUMANN if rng.random() < 0.5 else PERIODIC
        d = int(rng.integers(1, 17))
        L = 0.8 + 2.4 * rng.random()
        st = FourierState(bc, L, d, rng.uniform(-2.0, 2.0, bc.n_coeffs(d)))
        g = grad_V(st, pot)
        h = 1e-5
        fd = np.empty_like(g)
        for i in range(len(g)):
            cp = st.coeffs.copy(); cp[i] += h
            cm = st.coeffs.copy(); cm[i] -= h
            fd[i] = (energy_V(st.with_coeffs(cp), pot)
                     - energy_V(st.with_coeffs(cm), pot)) / (2.0 * h)
        worst = max(worst, float(np.abs(g - fd).max() / (1.0 + np.abs(g).max())))
    assert worst <= 1e-5


def test_neumann_reflection_symmetry(pot, rng):
    for _ in range(10):
        d = int(rng.integers(1, 10))
        L = 0.7 + rng.random()
        c = rng.uniform(-1.5, 1.5, d + 1)
        cr = c * (-1.0) ** np.arange(d + 1)
        va = energy_V(FourierState(NEUMANN, L, d, c), pot)
        vb = energy_V(FourierState(NEUMANN, L, d, cr), pot)
        assert abs(va - vb) <= 1e-12 * max(1.0, abs(va))


def test_periodic_translation_invariance(pot, rng):
    d, L = 6, 2.5
    c = rng.uniform(-1.5, 1.5, 2 * d + 1)
    v0 = energy_V(FourierState(PERIODIC, L, d, c), pot)
    for phi in rng.uniform(0.0, L, 10):
        ct = c.copy()
        for k in range(1, d + 1):
            th = 2.0 * math.pi * k * phi / L
            a, b = c[2 * k - 1], c[2 * k]
            ct[2 * k - 1] = math.cos(th) * a + math.sin(th) * b
            ct[2 * k] = -math.sin(th) * a + math.cos(th) * b
        vt = energy_V(FourierState(PERIODIC, L, d, ct), pot)
        assert abs(vt - v0) <= 1e-11 * max(1.0, abs(v0))


def test_energy_lower_bound(pot, rng):
    for bc in (NEUMANN, PERIODIC):
        L = 1.7
        alpha, beta = energy_lower_bound_constants(pot, L, bc)
        for _ in range(100):
            d = int(rng.integers(0, 12))
            st = FourierState(bc, L, d, rng.uniform(-2, 2, bc.n_coeffs(d)))
            assert energy_V(st, pot) >= beta * h1_norm_squared(st) - alpha - 1e-9


_SEXTIC = LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.2, -0.03, 0.05])


@settings(max_examples=200, deadline=None)
@given(p0=strategies.sampled_from([2, 3]), bc=strategies.sampled_from([NEUMANN, PERIODIC]),
       L=strategies.floats(0.3, 20.0), d=strategies.integers(0, 40),
       seed=strategies.integers(0, 2**32 - 1))
def test_energy_quadrature_is_alias_free(pot, p0, bc, L, d, seed):
    # U(u(x)) is a trigonometric polynomial of degree 2 p0 d, which the default
    # grid integrates exactly: a 4x finer grid moves V by roundoff only,
    # measured against the sizes of the summed terms
    p = pot if p0 == 2 else _SEXTIC
    ncf = bc.n_coeffs(d)
    coeffs = np.random.default_rng(seed).normal(scale=math.sqrt(L / ncf), size=ncf)
    state = FourierState(bc, L, d, coeffs)
    n_fine = 4 * default_grid_size(d, p.p0)
    u_fine = TransformPlan(bc, L, d, n_fine).synthesize(coeffs)
    scale = (0.5 * float(np.dot(state.mode_nu, coeffs ** 2))
             + L * float(np.mean(np.abs(p.derivative(u_fine, 0)))))
    assert abs(energy_V(state, p) - energy_V(state, p, n_quad=n_fine)) <= 1e-13 * scale


@settings(max_examples=200, deadline=None)
@given(which=strategies.sampled_from(["quartic", "sextic"]),
       order=strategies.integers(0, 5), u=strategies.floats(-3.0, 3.0))
def test_scalar_derivative_is_bit_identical_to_array_path(pot, which, order, u):
    p = pot if which == "quartic" else _SEXTIC
    scalar = p.derivative(u, order)
    assert type(scalar) is float and type(p.derivative(np.float64(u), order)) is float
    for arr in (np.array(u), np.array([u])):
        assert np.float64(scalar).tobytes() == p.derivative(arr, order).reshape(()).tobytes()


@settings(max_examples=200, deadline=None)
@given(coef=strategies.lists(strategies.sampled_from([0.0, 1.0, -1.0, 0.25, -0.7, 3.0]),
                             min_size=1, max_size=7),
       seed=strategies.integers(0, 2**32 - 1))
def test_in_place_horner_is_polyval(coef, seed):
    # the skipped steps (0*x + c, 1*x, y + 0.0) are exact, so only a zero's sign may differ
    x = np.random.default_rng(seed).uniform(-3.0, 3.0, (5, 9))
    out = np.full_like(x, np.nan)
    assert horner_into(tuple(coef), x, out) is out
    assert np.array_equal(out, np.polyval(coef, x))
