import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kramers_spde import (FourierState, GridTooSmall, NEUMANN, PERIODIC,
                          from_grid, linearized_eigenvalue, sup_dist, to_grid)
from kramers_spde.spectral import TransformPlan, default_grid_size, mode_frequencies


def test_linearized_eigenvalues(pot):
    assert linearized_eigenvalue(NEUMANN, math.pi / 2, 1, "origin") == pytest.approx(3.0)
    assert linearized_eigenvalue(NEUMANN, 1.0, 0, "minus_well", pot=pot) == pytest.approx(2.0)
    assert linearized_eigenvalue(PERIODIC, 2 * math.pi, 1, "origin") == pytest.approx(0.0, abs=1e-14)


def test_eigenvalue_identities(pot):
    for bc in (NEUMANN, PERIODIC):
        for k in range(4):
            lam = linearized_eigenvalue(bc, 1.3, k, "origin")
            nv = linearized_eigenvalue(bc, 1.3, k, "minus_well", pot=pot)
            assert nv - lam == pytest.approx(pot.derivative(pot.u_minus, 2) + 1.0)


def test_to_grid_zero_and_single_mode():
    z = FourierState.zeros(NEUMANN, 1.0, 4)
    assert np.all(to_grid(z, 16) == 0.0)
    c = np.zeros(5)
    c[1] = 1.0
    s = FourierState(NEUMANN, 1.0, 4, c)
    g = to_grid(s, 16)
    x = (np.arange(16) + 0.5) / 16.0
    assert np.abs(g - math.sqrt(2.0) * np.cos(math.pi * x)).max() <= 1e-13


def test_grid_too_small():
    s = FourierState.zeros(NEUMANN, 1.0, 4)
    with pytest.raises(GridTooSmall):
        to_grid(s, 9)


@st.composite
def transform_cases(draw):
    """(bc, L, d, n, seed) with any grid n >= 2d+2 the transforms accept."""
    d = draw(st.integers(0, 40))
    return (draw(st.sampled_from([NEUMANN, PERIODIC])), draw(st.floats(0.3, 20.0)), d,
            draw(st.integers(2 * d + 2, 4 * d + 70)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(case=transform_cases())
@example(case=(NEUMANN, 1.9, 6, 32, 20260808))
@example(case=(PERIODIC, 1.9, 6, 32, 20260808))
def test_round_trip_matches_direct_summation(case):
    # oracle: direct O(d n) basis summation
    bc, L, d, n, seed = case
    state = FourierState(bc, L, d, np.random.default_rng(seed).normal(size=bc.n_coeffs(d)))
    plan = TransformPlan(bc, L, d, n)
    x = plan.grid()
    direct = np.full(n, state.coeffs[0] / math.sqrt(L))
    for k in range(1, d + 1):
        if bc is NEUMANN:
            direct += state.coeffs[k] * math.sqrt(2 / L) * np.cos(k * math.pi * x / L)
        else:
            direct += state.coeffs[2 * k - 1] * math.sqrt(2 / L) * np.cos(2 * math.pi * k * x / L)
            direct += state.coeffs[2 * k] * math.sqrt(2 / L) * np.sin(2 * math.pi * k * x / L)
    assert np.abs(plan.synthesize(state.coeffs) - direct).max() <= 1e-12
    back = from_grid(plan.synthesize(state.coeffs), bc, L, d)
    assert np.abs(back.coeffs - state.coeffs).max() <= 1e-12


def test_projection_kills_high_modes():
    d, L, n = 3, 1.0, 32
    plan_hi = TransformPlan(NEUMANN, L, d + 3, n)
    c_hi = np.zeros(d + 4)
    c_hi[-1] = 1.0  # pure k = d+3 basis function
    samples = plan_hi.synthesize(c_hi)
    low = from_grid(samples, NEUMANN, L, d)
    assert np.abs(low.coeffs).max() <= 1e-13
    c_hi2 = np.zeros(d + 4)
    c_hi2[2] = 1.0  # pure k = 2 survives exactly
    low2 = from_grid(plan_hi.synthesize(c_hi2), NEUMANN, L, d)
    expect = np.zeros(d + 1)
    expect[2] = 1.0
    assert np.abs(low2.coeffs - expect).max() <= 1e-13


def test_from_grid_matches_quadrature_inner_products(rng):
    # oracle: dense quadrature of the basis inner products on a smooth profile;
    # the profile's spectrum decays fast enough that truncation at the test
    # grid is below the tolerance
    L, d, n = 1.4, 5, 256
    plan = TransformPlan(PERIODIC, L, d, n)
    x = plan.grid()

    def profile(xx):
        return np.exp(np.sin(2 * math.pi * xx / L)) - 1.2 * np.cos(4 * math.pi * xx / L)

    st = from_grid(profile(x), PERIODIC, L, d)
    nq = 200_000
    xq = np.arange(nq) * L / nq
    uq = profile(xq)
    ref = [float(L / nq * np.sum(uq / math.sqrt(L)))]
    for k in range(1, d + 1):
        ref.append(float(L / nq * np.sum(uq * math.sqrt(2 / L) * np.cos(2 * math.pi * k * xq / L))))
        ref.append(float(L / nq * np.sum(uq * math.sqrt(2 / L) * np.sin(2 * math.pi * k * xq / L))))
    assert np.abs(st.coeffs - np.array(ref)).max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(case=transform_cases())
@example(case=(NEUMANN, 2.2, 8, default_grid_size(8), 20260808))
@example(case=(PERIODIC, 2.2, 8, default_grid_size(8), 20260808))
def test_parseval(case):
    bc, L, d, n, seed = case
    state = FourierState(bc, L, d, np.random.default_rng(seed).normal(size=bc.n_coeffs(d)))
    g = to_grid(state, n)
    assert math.sqrt(L / n * float(np.sum(g * g))) == pytest.approx(state.l2_norm(), abs=1e-12)


def test_sup_dist_basic(rng):
    a = FourierState.zeros(NEUMANN, 1.0, 3)
    assert sup_dist(a, a) == 0.0
    c = np.zeros(4)
    c[1] = 0.5
    b = FourierState(NEUMANN, 1.0, 3, c)
    # single cosine mode peaks at the endpoint x = 0 with value 0.5 sqrt(2)
    assert sup_dist(b, a, refine=16) == pytest.approx(0.5 * math.sqrt(2.0), abs=1e-6)


def test_sup_dist_refinement_consistency(rng):
    d, L = 10, 1.3
    a = FourierState(NEUMANN, L, d, rng.normal(size=d + 1))
    b = FourierState(NEUMANN, L, d, rng.normal(size=d + 1))
    lo = sup_dist(a, b, refine=4)
    hi = sup_dist(a, b, refine=64)
    assert abs(lo - hi) <= 0.01 * hi


def test_sup_dist_mixed_cutoffs(rng):
    # galerkin comparisons measure distances across different truncations
    a = FourierState(PERIODIC, 2.0, 3, rng.normal(size=7))
    b = FourierState(PERIODIC, 2.0, 6, np.concatenate([a.coeffs, np.zeros(6)]))
    assert sup_dist(a, b) == 0.0


def test_mode_frequencies_layout():
    nu = mode_frequencies(PERIODIC, 2.0, 2)
    expect = [(2 * k * math.pi / 2.0) ** 2 for k in (0, 1, 1, 2, 2)]
    assert np.allclose(nu, expect)
