import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.fft import dct, rfft
from scipy.linalg import eigvalsh
from scipy.sparse.linalg import eigsh

from kramers_spde import (NEUMANN, LocalPotential, OutOfRegime, PERIODIC, ResolutionTooLow,
                          ZeroDenominator, closed_form_product, det_ratio, eigs_constant,
                          eigs_profile, instanton, spectra, stationary)
from kramers_spde.spectra import (eigs_orbit, lambda_ratio_log_sum,
                                  lambda_ratio_product_infinite)
from kramers_spde.spectral import nu
from kramers_spde.stationary import InstantonOrbit, instanton_orbit


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


ASYMMETRIC = LocalPotential.from_coefficients([0, 0, -0.5, 0.1, 0.25])


def _sample_curvature(profile, step):
    """U''(u*) on every step-th sample: from x = 0 (periodic), or at the
    Neumann cell midpoints, the samples at odd multiples of step/2."""
    start = 0 if profile.bc is PERIODIC else step // 2
    return profile.pot.derivative(profile.u[start:profile.n_samples:step], 2)


def _sample_sums(W, bc, mirror):
    """The cosine sums T of W on its n-point grid, the reference for the
    orbit's moments: one DCT-II (Neumann, T(m) for m < 2n) or one real FFT
    (periodic, m <= n) of W made exactly even about x = 0 (periodic) and,
    with mirror, about L/2 (Neumann) or of period L/2 (periodic)."""
    n = len(W)
    if bc is NEUMANN:
        if mirror:
            W = 0.5 * (W + W[::-1])
        # T(m) = sum_i W_i cos(pi m (i + 1/2) / n): T(n) = 0, T(2n - m) = -T(m)
        T = 0.5 * dct(W, type=2)
        return np.concatenate([T, [0.0], -T[:0:-1]])
    half = n // 2
    sym = (0.5 * (W + np.roll(W[::-1], 1)))[: half + 1]
    if mirror:
        sym = 0.5 * (sym + sym[::-1])
    # T(m) = sum_i W_i cos(2 pi m i / n) = T(n - m), for m = 0..n
    T = rfft(np.concatenate([sym, sym[n - half - 1 : 0 : -1]])).real
    return T[np.minimum(np.arange(n + 1), n - np.arange(n + 1))]


def _fd_smallest(W, L, bc, m, even_potential=False):
    """The lowest m eigenvalues of the FD matrix with W on its grid of n
    nodes, by the library's Rayleigh-Ritz core on W's sample sums T taken as
    the moments (X / n) T of the half length X, split by mode parity for an
    even potential's instanton (but on odd periodic grids, whose sample
    sums do not carry that parity)."""
    split = even_potential and (bc is NEUMANN or len(W) % 2 == 0)
    n, X = len(W), L / bc.mode_factor
    T = (X / n) * _sample_sums(W, bc, split)
    return spectra._ritz_smallest(lambda count: T, X, L, bc, (n,), m, split)[0]


def _sample_spectrum(profile, kmax):
    """The Richardson spectrum (4 mu_2n - mu_n) / 3 of the FD matrices on
    every 4th and every 2nd of the profile's samples."""
    m = kmax + 2 if profile.bc is NEUMANN else 2 * kmax + 3
    coarse, fine = (_fd_smallest(_sample_curvature(profile, step), profile.L, profile.bc, m,
                                 profile.pot.is_even) for step in (4, 2))
    return (4.0 * fine - coarse) / 3.0


@settings(max_examples=25, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), above=st.floats(1e-4, 1.0),
       n_samples=st.sampled_from([1024, 2048, 4096]), even=st.booleans())
def test_eigs_profile_is_eigs_orbit_of_the_profile(pot, bc, above, n_samples, even):
    # a profile is its orbit: its orbit fields are instanton_orbit's and its
    # spectrum is the orbit's, bit for bit, whatever its sample count;
    # translating or reflecting the samples keeps the rule and the spectrum
    assert eigs_profile is eigs_orbit
    prof = instanton(pot if even else ASYMMETRIC, bc.bifurcation_length * (1.0 + above), bc,
                     n_samples=n_samples)
    orbit = instanton_orbit(prof.pot, prof.L, bc)
    assert isinstance(prof, InstantonOrbit)
    assert (np.array([prof.E, *prof.turning, prof.V_value, prof.deriv_L2]).tobytes()
            == np.array([orbit.E, *orbit.turning, orbit.V_value, orbit.deriv_L2]).tobytes())
    want = eigs_orbit(orbit, 6).eigenvalues
    moved = [prof.reflected()] + ([prof.translated(1.0)] if bc is PERIODIC else [])
    assert all(m.rule is prof.rule for m in moved)
    for profile in (prof, *moved):
        assert eigs_orbit(profile, 6).eigenvalues.tobytes() == want.tobytes()


def _fd_matrix(W, L, bc):
    """The whole FD matrix: the midpoint grid with ghost reflection
    (Neumann) or the cyclic one (periodic)."""
    n = len(W)
    inv = 1.0 / (L / n) ** 2
    diag = 2.0 * inv + W
    if bc is NEUMANN:
        diag[[0, -1]] -= inv
        return sp.diags([np.full(n - 1, -inv), diag, np.full(n - 1, -inv)], [-1, 0, 1],
                        format="csc")
    return sp.diags([np.full(n - 1, -inv), diag, np.full(n - 1, -inv),
                     [-inv], [-inv]], [-1, 0, 1, n - 1, 1 - n], format="csc")


def _whole_matrix_smallest(W, L, bc, m):
    """The lowest m eigenvalues of the whole FD matrix with W on its grid,
    dense eigvalsh up to 1024 nodes, ARPACK shift-invert beyond, and a
    bound on the matrix's norm."""
    A = _fd_matrix(W, L, bc)
    if len(W) <= 1024:
        want = eigvalsh(A.toarray(), subset_by_index=(0, m - 1))
    else:
        want = np.sort(eigsh(A, k=m, sigma=float(W.min()) - 1.0, which="LM",
                             v0=np.full(len(W), len(W) ** -0.5),
                             return_eigenvectors=False, tol=0))
    return want, 4.0 / (L / len(W)) ** 2 + float(np.abs(W).max())  # >= ||A||_2


def _assert_split_matches_the_whole_matrix(prof, m):
    # the split (even potential) or unsplit Ritz path on the sample sums of
    # both grids, against an independent solve of the whole matrix
    for step in (4, 2):
        W = _sample_curvature(prof, step)
        want, norm = _whole_matrix_smallest(W, prof.L, prof.bc, m)
        got = _fd_smallest(W, prof.L, prof.bc, m, prof.pot.is_even)
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * norm


@settings(max_examples=12, deadline=None)
@given(L=st.floats(2 * math.pi + 1e-3, 4 * math.pi - 1e-3),
       n_samples=st.sampled_from([1024, 2048, 4096]),
       asymmetric=st.booleans())
def test_periodic_split_matches_the_cyclic_matrix(pot, L, n_samples, asymmetric):
    prof = instanton(ASYMMETRIC if asymmetric else pot, L, PERIODIC, n_samples=n_samples)
    _assert_split_matches_the_whole_matrix(prof, 83)


@settings(max_examples=12, deadline=None)
@given(L=st.floats(math.pi + 1e-3, 2 * math.pi - 1e-3),
       n_samples=st.sampled_from([1024, 2048, 4096]),
       asymmetric=st.booleans())
def test_neumann_split_matches_the_whole_matrix(pot, L, n_samples, asymmetric):
    prof = instanton(ASYMMETRIC if asymmetric else pot, L, NEUMANN, n_samples=n_samples)
    _assert_split_matches_the_whole_matrix(prof, 42)


@settings(max_examples=60, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), n=st.integers(8, 80), m=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_mirror_split_matches_the_whole_matrix(bc, n, m, seed):
    # any W with the symmetry of an even potential's instanton: even about
    # L/2 (Neumann, n of both parities); even about x = 0 and of period L/2
    # (periodic, even n), where odd n keeps the unsplit path bit for bit
    m = min(m, n)
    W = np.random.default_rng(seed).uniform(-30.0, 30.0, n)
    if bc is PERIODIC and n % 2 == 0:
        W = np.resize(W[: n // 2], n)
    W = 0.5 * (W + (W[::-1] if bc is NEUMANN else np.roll(W[::-1], 1)))
    L = 3.0
    got = _fd_smallest(W, L, bc, m, even_potential=True)
    if bc is PERIODIC and n % 2:
        assert got.tobytes() == _fd_smallest(W, L, bc, m).tobytes()
    want = eigvalsh(_fd_matrix(W, L, bc).toarray(), subset_by_index=(0, m - 1))
    norm = 4.0 / (L / n) ** 2 + float(np.abs(W).max())
    assert np.abs(got - want).max() <= 32 * np.finfo(float).eps * norm


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 80), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_periodic_split_keeps_the_smallest_of_both_sectors(n, m, seed):
    # any W even about node 0 (either parity of n, any m): the merged
    # selection is the smallest m of the two full sector spectra
    m = min(m, n)
    W = np.random.default_rng(seed).uniform(-30.0, 30.0, n)
    W = 0.5 * (W + np.roll(W[::-1], 1))
    L = 3.0
    A = _fd_matrix(W, L, PERIODIC).toarray()
    half = n // 2
    even = np.zeros((n, half + 1))  # orthonormal bases of the two sectors
    odd = np.zeros((n, (n - 1) // 2))
    for j in range(half + 1):
        even[[j, -j % n], j] = 1.0
        even[:, j] /= np.linalg.norm(even[:, j])
    for j in range(1, (n - 1) // 2 + 1):
        odd[j, j - 1], odd[n - j, j - 1] = 2 ** -0.5, -(2 ** -0.5)
    sectors = np.concatenate([eigvalsh(even.T @ A @ even), eigvalsh(odd.T @ A @ odd)])
    want = np.sort(sectors)[:m]
    got = _fd_smallest(W, L, PERIODIC, m)
    norm = 4.0 / (L / n) ** 2 + float(np.abs(W).max())
    assert np.abs(got - want).max() <= 32 * np.finfo(float).eps * norm


def _fd_tridiagonals(W, L, bc):
    """The FD matrix in long double, as tridiagonals with the same spectra:
    the Neumann matrix itself, or, for W even about node 0, the periodic
    matrix's cosine (nodes 0..n/2) and sine (nodes 1..(n-1)/2) sectors."""
    W = W.astype(np.longdouble)
    n = len(W)
    inv = 1 / (np.longdouble(L) / n) ** 2
    if bc is NEUMANN:
        diag = 2 * inv + W
        diag[[0, -1]] -= inv
        return [(diag, np.full(n - 1, -inv))]
    half = n // 2
    cos_diag, sin_diag = 2 * inv + W[: half + 1], 2 * inv + W[1 : (n + 1) // 2]
    off = np.full(half, -inv)
    off[0] *= np.sqrt(np.longdouble(2))
    if n % 2:
        cos_diag[-1] -= inv
        sin_diag[-1] += inv
    else:
        off[-1] *= np.sqrt(np.longdouble(2))
    return [(cos_diag, off), (sin_diag, off[1 : len(sin_diag)])]


def _sturm_lowest(diag, off, k):
    """The k lowest eigenvalues of a symmetric tridiagonal by bisection on
    Sturm counts (the negative LDL^T pivots), from its Gershgorin interval."""
    radius = 2 * np.abs(off).max()
    lo = np.full(k, diag.min() - radius)
    hi = np.full(k, diag.max() + radius)
    tiny = np.finfo(np.longdouble).tiny
    for _ in range(64):
        x = 0.5 * (lo + hi)
        q = diag[0] - x
        below = (q < 0).astype(int)
        for d, e2 in zip(diag[1:], off * off):
            q = d - x - e2 / np.where(q == 0, tiny, q)
            below += q < 0
        up = below > np.arange(k)
        hi, lo = np.where(up, x, hi), np.where(up, lo, x)
    return 0.5 * (lo + hi)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble has no extra precision here")
@pytest.mark.parametrize("bc, L", [(NEUMANN, 4.5), (PERIODIC, 9.0)])
@pytest.mark.parametrize("asymmetric", [False, True])
def test_fd_smallest_matches_long_double_sturm_bisection(pot, bc, L, asymmetric):
    # each grid's lowest m (kmax = 40) against bisection of the same FD
    # matrix in long double, after the same mirror means the solver takes
    prof = instanton(ASYMMETRIC if asymmetric else pot, L, bc)
    m = 42 if bc is NEUMANN else 83
    for step in (4, 2):
        W = _sample_curvature(prof, step)
        got = _fd_smallest(W, L, bc, m, prof.pot.is_even)
        half = len(W) // 2
        if bc is NEUMANN and not asymmetric:
            W = 0.5 * (W + W[::-1])
        if bc is PERIODIC:
            W = 0.5 * (W + np.roll(W[::-1], 1))
            if not asymmetric:
                W = 0.5 * (W + np.roll(W[::-1], half + 1))  # W[j] = W[n/2 - j]
        k = m if bc is NEUMANN else m // 2 + 1
        want = np.sort(np.concatenate([_sturm_lowest(d, e, min(k, len(d)))
                                       for d, e in _fd_tridiagonals(W, L, bc)]))[:m]
        assert np.all(np.abs(got - want) <= 5e-12 * np.maximum(1.0, np.abs(want)))


def test_instanton_mu0_mu1_match_lame(pot):
    # quartic()'s Neumann instanton is u* = sqrt(2m/(1+m)) sn(x/sqrt(1+m) | m)
    # with 2 K(m) sqrt(1+m) = L; mu_0 and mu_1 are n = 2 Lame band edges
    # E/(1+m) - 1, E = 2(1+m) - 2 sqrt(1 - m + m^2) and E = 1 + 4m
    # (Maier & Stein, PRL 87 (2001) 270601)
    L = 4.5
    with mpmath.workdps(30):
        k2 = mpmath.findroot(lambda k2: 2 * mpmath.ellipk(k2) * mpmath.sqrt(1 + k2) - L, 0.5)
        mu0 = float((2 * (1 + k2) - 2 * mpmath.sqrt(1 - k2 + k2 * k2)) / (1 + k2) - 1)
        mu1 = float((1 + 4 * k2) / (1 + k2) - 1)
    ev = eigs_profile(instanton(pot, L, NEUMANN), kmax=40).eigenvalues
    assert abs(ev[0] - mu0) <= 2e-12 and abs(ev[1] - mu1) <= 2e-12


@settings(max_examples=40, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), above=st.floats(1e-4, 1.0),
       asymmetric=st.booleans(), kmax=st.sampled_from([4, 40]))
def test_moment_spectrum_matches_the_sampled_instanton(pot, bc, above, asymmetric, kmax):
    # the orbit's cosine moments give the FD spectrum of the instanton's
    # 4096 samples (their DCT/rfft sums) without the samples: within 1e-13
    # of the largest eigenvalue (measured at most 3.0e-15 over 58 lengths of
    # both potentials)
    p = ASYMMETRIC if asymmetric else pot
    L = bc.bifurcation_length * (1.0 + above)
    want = _sample_spectrum(instanton(p, L, bc), kmax)
    got = eigs_orbit(instanton_orbit(p, L, bc), kmax=kmax).eigenvalues
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.3), (NEUMANN, 6.0), (PERIODIC, 6.5),
                                   (PERIODIC, 12.0)])
@pytest.mark.parametrize("asymmetric", [False, True])
def test_cosine_moments_match_the_sample_sums(pot, bc, L, asymmetric):
    # (n / X) c_m is the DCT-II (Neumann) or real-FFT (periodic) cosine sum
    # of U''(u*) on the n = 1024 and 2048 grids of the 4096 samples, for the
    # m < 2M + 2 = 130 that kmax = 40's largest blocks (M = 64) read
    # (measured within 1.7e-15 n)
    p = ASYMMETRIC if asymmetric else pot
    prof, orbit = instanton(p, L, bc), instanton_orbit(p, L, bc)
    c = orbit.cosine_moments(130)
    for step in (4, 2):
        W = _sample_curvature(prof, step)
        n = len(W)
        T = _sample_sums(W, bc, p.is_even)[:130]
        assert np.abs(T - n / orbit.rule.X * c).max() <= 1e-14 * n


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.3), (NEUMANN, 6.0), (PERIODIC, 6.5),
                                   (PERIODIC, 12.0)])
@pytest.mark.parametrize("asymmetric", [False, True])
def test_refined_cosine_moments_match_a_fine_grid(pot, bc, L, asymmetric):
    # c_m for all m < 2n = 2048, where a 64-node panel resolves cos(m pi x / X)
    # only while m (its width in x) / X < 54 (m < 200 to 400 here), against
    # the sums on the finest grid of 16384 samples (8192 Neumann midpoints,
    # 16384 periodic nodes), whose aliasing is far below roundoff for these
    # m.  With the panels cut, within 1e-14 (1 + m / n) of that grid's size,
    # the roundoff of the phase m pi x / X growing like m (measured at most
    # 0.38 of the bound); uncut, at least 0.1 of its size from m = 200 to 400
    p = ASYMMETRIC if asymmetric else pot
    prof = instanton(p, L, bc, n_samples=16384)
    W = _sample_curvature(prof, 2 if bc is NEUMANN else 1)
    size, count = len(W), 2048
    T = _sample_sums(W, bc, p.is_even)[:count]
    assert count * prof.rule.widest / prof.rule.X > 54.0

    def error():
        return np.abs(T - size / prof.rule.X * prof.cosine_moments(count))

    assert np.all(error() <= 1e-14 * size * (1.0 + np.arange(count) / 1024))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stationary, "_MOMENT_SPAN", math.inf)  # never cut
        assert error().max() > 1e-2 * size


@pytest.mark.parametrize("bc, L", [(NEUMANN, 6.0), (PERIODIC, 12.0)])
def test_blocked_cosine_moments_keep_their_bits(pot, bc, L):
    # the powers z^(16 q) in blocks of _MOMENT_ROWS rows give every c_m the
    # bits of one block over all q: 49 rows, four blocks, the last partial
    orbit = instanton_orbit(pot, L, bc)
    count = 16 * (3 * stationary._MOMENT_ROWS) + 5
    got = orbit.cosine_moments(count)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stationary, "_MOMENT_ROWS", 1 << 20)
        assert got.tobytes() == orbit.cosine_moments(count).tobytes()


def test_cosine_moments_memory_is_bounded_in_the_count(pot):
    # count 8192 at Neumann L = 6 (the rule cut 25 times, 19 200 nodes): all
    # 512 rows of powers at once peaked at 164 MB, the blocks at 24 MB
    orbit = instanton_orbit(pot, 6.0, NEUMANN)
    tracemalloc.start()
    try:
        orbit.cosine_moments(8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6


@pytest.mark.parametrize("bc, L", [(NEUMANN, 3.3), (PERIODIC, 6.5)])
@pytest.mark.parametrize("kmax", [150, 250])
def test_fine_grid_moment_spectra_match_the_whole_matrix(pot, bc, L, kmax):
    # eigen --grid-n 4096: the Ritz values of the 4096 and 8192 node grids
    # from the refined moments, against ARPACK on the whole FD matrix of the
    # curvature on every 4th and 2nd of 16384 samples (measured at most 0.09
    # of the bound; with uncut panels, 5e6 times it and more)
    prof = instanton(pot, L, bc, n_samples=16384)
    grids, ritz = [], spectra._ritz_smallest

    def per_grid(*args):
        grids.extend(ritz(*args))
        return grids[-2:]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_ritz_smallest", per_grid)
        eigs_orbit(prof, kmax, 4096)
    assert len(grids) == 2
    m = kmax + 2 if bc is NEUMANN else 2 * kmax + 3
    for step, got in zip((4, 2), grids):
        W = _sample_curvature(prof, step)
        want, norm = _whole_matrix_smallest(W, L, bc, m)
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * norm


@settings(max_examples=16, deadline=None)
@given(bc=st.sampled_from([NEUMANN, PERIODIC]), above=st.floats(1e-4, 1.0),
       asymmetric=st.booleans())
@example(bc=NEUMANN, above=1.0, asymmetric=False).via("the second bifurcation")
@example(bc=PERIODIC, above=1.0, asymmetric=True).via("the second bifurcation")
def test_prediction_path_solve_budget(pot, bc, above, asymmetric):
    # predict_time's kmax = 40, from a profile or from its orbit, both on
    # the orbit's moments: the Ritz core returns both grids' values from at
    # most two eigvalsh calls, each on the stacked blocks of both grids and
    # of every sector and parity half, of at most 64 modes (the second size
    # confirms the first), and the moments are computed once, for the
    # largest block; the sine sector of the 64-mode block reads c(2 * 64)
    p = ASYMMETRIC if asymmetric else pot
    L = bc.bifurcation_length * (1.0 + above)
    orbit = instanton_orbit(p, L, bc)
    moments = InstantonOrbit.cosine_moments
    m = 42 if bc is NEUMANN else 83
    halves = 2 if p.is_even else 1
    stacked = 2 * (1 if bc is NEUMANN else 2) * halves
    for spectrum, source in ((eigs_profile, instanton(p, L, bc)), (eigs_orbit, orbit)):
        grids, calls, counts = [], [], []
        solve, ritz = np.linalg.eigvalsh, spectra._ritz_smallest

        def per_grid(*args):
            grids.extend(ritz(*args))
            return grids[-2:]

        def counted(a):
            calls.append(a.shape)
            return solve(a)

        def counted_moments(self, count):
            counts.append(count)
            return moments(self, count)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_ritz_smallest", per_grid)
            mp.setattr(np.linalg, "eigvalsh", counted)
            mp.setattr(InstantonOrbit, "cosine_moments", counted_moments)
            spectrum(source, kmax=40)
        assert len(grids) == 2 and all(len(values) == m for values in grids)
        assert 1 <= len(calls) <= 2
        assert all(len(shape) == 3 and shape[0] == stacked and shape[-1] * halves <= 64
                   for shape in calls)
        assert counts == [129]


@settings(max_examples=10, deadline=None)
@given(kmax=st.sampled_from([4, 40]), f=st.floats(1e-4, 1.0))
def test_odd_grid_split_matches_the_unsplit_solve(pot, kmax, f):
    # the moment couplings carry the even potential's parity on any grid: on
    # the odd coarse grid n = 1023 (periodic, quartic()) eigs_orbit's split
    # blocks give the unsplit solve of the same couplings within 32 eps of
    # the largest block's norm
    orbit = instanton_orbit(pot, PERIODIC.bifurcation_length * (1.0 + f), PERIODIC)
    m = 2 * kmax + 3
    grids, norms = [], []
    ritz, solve = spectra._ritz_smallest, np.linalg.eigvalsh

    def per_grid(*args):
        grids.extend(ritz(*args))
        return grids[-2:]

    def normed(a):
        values = solve(a)
        norms.append(float(np.abs(values).max()))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_ritz_smallest", per_grid)
        mp.setattr(np.linalg, "eigvalsh", normed)
        eigs_orbit(orbit, kmax, 1023)
        unsplit = ritz(orbit.cosine_moments, orbit.rule.X, orbit.L, PERIODIC, (1023, 2046), m,
                       False)
    assert pot.is_even and len(grids) == 2
    for got, want in zip(grids, unsplit):
        assert np.abs(got - want).max() <= 32 * np.finfo(float).eps * max(norms)


@pytest.mark.parametrize("bc", [NEUMANN, PERIODIC])
def test_rough_potential_grows_to_the_whole_basis(bc):
    # a W with no smoothness gives no converged truncation: the block grows
    # to the whole basis, where it is the FD matrix itself
    n, m, L = 300, 12, 3.0
    W = np.random.default_rng(7).uniform(-30.0, 30.0, n)
    if bc is PERIODIC:
        W = 0.5 * (W + np.roll(W[::-1], 1))
    sizes, solve = [], np.linalg.eigvalsh

    def counted(a):
        sizes.append(a.shape[-1])
        return solve(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", counted)
        got = _fd_smallest(W, L, bc, m)
    assert (n if bc is NEUMANN else n // 2 + 1) in sizes
    want = eigvalsh(_fd_matrix(W, L, bc).toarray(), subset_by_index=(0, m - 1))
    norm = 4.0 / (L / n) ** 2 + float(np.abs(W).max())
    assert np.abs(got - want).max() <= 32 * np.finfo(float).eps * norm


@pytest.mark.parametrize("bc, kmax", [(NEUMANN, 255), (PERIODIC, 127)])
def test_eigs_orbit_refuses_kmax_beyond_the_coarse_grid(pot, bc, kmax):
    # kmax + 2 (Neumann) or 2 kmax + 3 (periodic) values, one more than the
    # 256 nodes of the coarse grid
    orbit = instanton_orbit(pot, 1.3 * bc.bifurcation_length, bc)
    with pytest.raises(ValueError, match=f"kmax = {kmax} needs 257 eigenvalues, more "
                                         "than the 256-node coarse grid"):
        eigs_orbit(orbit, kmax, 256)


@pytest.mark.parametrize("bc, L, kmax", [(NEUMANN, 4.0, 40), (PERIODIC, 6.5, 16)])
def test_coarse_grids_that_disagree_raise_resolution_too_low(pot, bc, L, kmax):
    # the 256 and 512 node grids disagree by more than 1% at the top of
    # kmax; the message names both inputs that would mend it
    with pytest.raises(ResolutionTooLow, match=f"grids 256/512 .* at kmax = {kmax}: use a "
                                               "larger grid or a smaller kmax"):
        eigs_orbit(instanton_orbit(pot, L, bc), kmax, 256)
    assert eigs_orbit(instanton_orbit(pot, L, bc), kmax, 1024).negative_count == 1


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
    num = SpectrumReport(base * 1.3, 0, 0)
    den = SpectrumReport(base, 0, 0)
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


@pytest.mark.parametrize("bc, L, w", [(NEUMANN, 1.0, -1.0), (NEUMANN, 4.5, 0.7),
                                      (PERIODIC, 3.0, -1.0)])
def test_log_sum_blocks_keep_the_one_block_sum(pot, bc, L, w):
    # the terms of all blocks go to one fsum, so the result is the one-block
    # sum's to the bit, also where a block ends just before the last term
    for k_from, k_to in ((2, 100_000), (2, 2 + spectra._LOG_SUM_BLOCK), (3, 3)):
        base = nu(bc, L, np.arange(k_from, k_to + 1))
        want = math.fsum(np.log(base + w) - np.log(base + pot.derivative(pot.u_minus, 2)))
        assert lambda_ratio_log_sum(pot, L, bc, k_from, k_to, w) == want


def test_log_sum_memory_does_not_grow_with_d(pot):
    tracemalloc.start()
    try:
        lambda_ratio_log_sum(pot, 1.0, NEUMANN, 2, 2_000_000, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # one block; the 2 * 10^6 terms at once took 80 MB


def test_infinite_product_helpers(pot):
    # tail helpers agree with long truncations for both boundary conditions
    for bc, L in ((NEUMANN, 1.0), (NEUMANN, 2.5), (PERIODIC, 3.0)):
        full = lambda_ratio_product_infinite(pot, L, bc, 1, -1.0)
        trunc = math.exp(lambda_ratio_log_sum(pot, L, bc, 1, 200_000, -1.0))
        assert trunc == pytest.approx(full, rel=1e-4)
        from2 = lambda_ratio_product_infinite(pot, L, bc, 2, -1.0)
        lam1 = (bc.mode_factor * math.pi / L) ** 2 - 1.0
        nu1 = (bc.mode_factor * math.pi / L) ** 2 + pot.derivative(pot.u_minus, 2)
        assert from2 * lam1 / nu1 == pytest.approx(full, rel=1e-13)
