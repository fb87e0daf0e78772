import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

from kramers_spde import (NEUMANN, OutOfRegime, PERIODIC, ZeroDenominator,
                          closed_form_product, det_ratio, eigs_constant,
                          eigs_profile, instanton)
from kramers_spde.spectra import (lambda_ratio_log_sum,
                                  lambda_ratio_product_infinite)
from kramers_spde.stationary import InstantonProfile


def test_eigs_constant_values(pot):
    rep = eigs_constant(pot, 1.0, NEUMANN, "minus", 3)
    expect = [2.0, 2.0 + math.pi**2, 2.0 + 4 * math.pi**2, 2.0 + 9 * math.pi**2]
    assert np.allclose(rep.eigenvalues, expect, rtol=1e-14)
    assert rep.negative_count == 0 and rep.zero_modes == 0

    rep2 = eigs_constant(pot, 2.0, NEUMANN, "origin", 1)
    assert rep2.eigenvalues[0] == -1.0
    assert rep2.eigenvalues[1] == pytest.approx((math.pi / 2) ** 2 - 1.0)
    assert rep2.negative_count == 1

    rep4 = eigs_constant(pot, 4.0, NEUMANN, "origin", 3)
    assert rep4.negative_count == 2  # the uniform saddle is no longer the pass


def test_eigs_constant_periodic_degeneracy(pot):
    rep = eigs_constant(pot, 3.0, PERIODIC, "minus", 2)
    assert len(rep.eigenvalues) == 5
    assert rep.eigenvalues[1] == rep.eigenvalues[2]


def test_eigs_profile_matches_constant_closed_form(pot):
    rep_c = eigs_constant(pot, 1.0, NEUMANN, "minus", 6)
    prof = InstantonProfile.constant(pot.u_minus, pot, NEUMANN, 1.0)
    rep_f = eigs_profile(prof, kmax=4)
    m = len(rep_f.eigenvalues)
    rel = np.abs(rep_f.eigenvalues - rep_c.eigenvalues[:m]) / rep_c.eigenvalues[:m]
    assert rel.max() <= 1e-6


def _reference_eigs_profile(profile, kmax, grid_n):
    """The Richardson spectrum as it was computed before: U'' from a cubic
    spline of the profile, resampled on grid_n and 2 grid_n points, and the
    cyclic matrix assembled in LIL form with its two corners written after."""
    def curvature(n):
        if profile.bc is PERIODIC:
            u = profile.u.copy()
            u[-1] = u[0]
            spline = CubicSpline(profile.x, u, bc_type="periodic")
            xs = np.arange(n) * (profile.L / n)
        else:
            spline = CubicSpline(profile.x, profile.u,
                                 bc_type=((1, profile.du[0]), (1, profile.du[-1])))
            xs = (np.arange(n) + 0.5) * (profile.L / n)
        return profile.pot.derivative(spline(xs), 2)

    def smallest(W, m):
        n = len(W)
        inv = 1.0 / (profile.L / n) ** 2
        diag = 2.0 * inv + W
        off = np.full(n - 1, -inv)
        if profile.bc is NEUMANN:
            diag[0] -= inv
            diag[-1] -= inv
            return eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                    select_range=(0, m - 1))
        A = sp.diags([off, diag, off], [-1, 0, 1], format="lil")
        A[0, -1] = -inv
        A[-1, 0] = -inv
        vals = eigsh(A.tocsc(), k=m, sigma=float(W.min()) - 1.0, which="LM",
                     v0=np.full(n, 1.0 / math.sqrt(n)), return_eigenvectors=False, tol=0)
        return np.sort(vals)

    m = kmax + 2 if profile.bc is NEUMANN else 2 * kmax + 3
    coarse, fine = smallest(curvature(grid_n), m), smallest(curvature(2 * grid_n), m)
    return (4.0 * fine - coarse) / 3.0


@settings(max_examples=25, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), above=st.floats(1e-4, 1.0),
       n_samples=st.sampled_from([1024, 2048, 4096]))
def test_eigs_profile_runs_on_the_profile_samples(pot, bc, above, n_samples):
    # the FD grids are slices of the samples, where the spline reproduced
    # the samples themselves: the spectrum keeps every bit
    prof = instanton(pot, bc.bifurcation_length * (1.0 + above), bc, n_samples=n_samples)
    want = _reference_eigs_profile(prof, 6, n_samples // 4)
    assert eigs_profile(prof, kmax=6).eigenvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_samples", [1000, 2050])
def test_eigs_profile_needs_a_multiple_of_four_samples(pot, n_samples):
    prof = InstantonProfile.constant(pot.u_minus, pot, NEUMANN, 1.0, n_samples=n_samples)
    with pytest.raises(ValueError, match="n_samples"):
        eigs_profile(prof, kmax=4)


def test_eigs_profile_instanton_counts(pot):
    prof = instanton(pot, 4.0, NEUMANN)
    rep = eigs_profile(prof, kmax=6)
    assert rep.negative_count == 1
    assert rep.zero_modes == 0
    assert np.all(np.diff(rep.eigenvalues) > 0)


def test_periodic_zero_mode(pot):
    prof = instanton(pot, 7.0, PERIODIC)
    rep = eigs_profile(prof, kmax=6)
    assert rep.negative_count == 1
    assert rep.zero_modes == 1
    mu1 = rep.eigenvalues[2]
    assert abs(rep.eigenvalues[1]) <= 1e-6 * mu1


def test_interlacing_form_bound(pot):
    # eigenvalues of -Delta + W lie within [nu_k0 + min W, nu_k0 + max W]
    prof = instanton(pot, 4.0, NEUMANN)
    rep = eigs_profile(prof, kmax=8)
    nu0 = np.array([(k * math.pi / 4.0) ** 2 for k in range(len(rep.eigenvalues))])
    W = pot.derivative(prof.u, 2)
    assert np.all(rep.eigenvalues >= nu0 + W.min() - 1e-9)
    assert np.all(rep.eigenvalues <= nu0 + W.max() + 1e-9)


def test_near_bifurcation_mu1(pot):
    # mu_1 ~ 2 |lambda_1| with a remainder exponent >= 1.4
    diffs, lams = [], []
    for delta in (0.02, 0.04, 0.08):
        L = math.pi + delta
        lam1 = abs((math.pi / L) ** 2 - 1.0)
        prof = instanton(pot, L, NEUMANN)
        rep = eigs_profile(prof, kmax=3)
        mu1 = rep.eigenvalues[1]
        assert mu1 == pytest.approx(2.0 * lam1, rel=0.05)
        diffs.append(abs(mu1 - 2.0 * lam1))
        lams.append(lam1)
    slope = np.polyfit(np.log(lams), np.log(diffs), 1)[0]
    assert slope >= 1.4


def test_det_ratio_identity_and_errors(pot):
    rep = eigs_constant(pot, 1.0, NEUMANN, "minus", 10)
    assert det_ratio(rep, rep, 10) == pytest.approx(1.0, abs=0)
    ratios_above_one = eigs_constant(pot, 1.0, NEUMANN, "plus", 10)
    assert det_ratio(ratios_above_one, rep, 10) == pytest.approx(1.0)
    zero = eigs_constant(pot, 2 * math.pi, PERIODIC, "origin", 3)
    with pytest.raises(ZeroDenominator):
        det_ratio(rep, zero, 3)


def test_det_ratio_monotone_property(pot, rng):
    from kramers_spde.spectra import SpectrumReport
    base = np.sort(rng.uniform(1.0, 5.0, 12))
    num = SpectrumReport(NEUMANN, 1.0, "x", base * 1.3, 0, 0, 11)
    den = SpectrumReport(NEUMANN, 1.0, "x", base, 0, 0, 11)
    assert det_ratio(num, den, 12) > 1.0


def test_truncated_product_converges_to_closed_form(pot):
    cf = closed_form_product(pot, 1.0, NEUMANN)
    gaps = []
    for d in (10**3, 10**4, 10**5):
        ro = eigs_constant(pot, 1.0, NEUMANN, "origin", d)
        rm = eigs_constant(pot, 1.0, NEUMANN, "minus", d)
        mask = np.arange(1, d + 1)
        pref = 2 * math.pi * math.sqrt(det_ratio(ro, rm, d, mask, mask) / 2.0)
        gaps.append(abs(pref - cf) / cf)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4


def test_closed_form_values(pot):
    cf = closed_form_product(pot, 1.0, NEUMANN)
    # oracle: direct evaluation of 2 pi sqrt(sin 1 / (sqrt(2) sinh sqrt(2)))
    assert cf == pytest.approx(
        2 * math.pi * math.sqrt(math.sin(1.0) / (math.sqrt(2) * math.sinh(math.sqrt(2)))),
        rel=1e-14)
    assert cf == pytest.approx(3.4841268529728, rel=1e-12)
    cfp = closed_form_product(pot, 1.0, PERIODIC)
    assert cfp == pytest.approx(
        2 * math.pi * math.sin(0.5) / math.sinh(math.sqrt(2.0) / 2.0), rel=1e-14)
    with pytest.raises(OutOfRegime):
        closed_form_product(pot, math.pi, NEUMANN)
    with pytest.raises(OutOfRegime):
        closed_form_product(pot, 2 * math.pi, PERIODIC)


def test_infinite_product_helpers(pot):
    # tail helpers agree with long truncations for both boundary conditions
    for bc, L in ((NEUMANN, 1.0), (NEUMANN, 2.5), (PERIODIC, 3.0)):
        full = lambda_ratio_product_infinite(pot, L, bc, 1)
        trunc = math.exp(lambda_ratio_log_sum(pot, L, bc, 1, 200_000))
        assert trunc == pytest.approx(full, rel=1e-4)
        from2 = lambda_ratio_product_infinite(pot, L, bc, 2)
        lam1 = (bc.mode_factor * math.pi / L) ** 2 - 1.0
        nu1 = (bc.mode_factor * math.pi / L) ** 2 + pot.derivative(pot.u_minus, 2)
        assert from2 * lam1 / nu1 == pytest.approx(full, rel=1e-13)
