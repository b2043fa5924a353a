"""Oracle and property tests for the core linear-algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lowrank_ncvx import core


def rand_orthonormal(rng, n, r):
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Q


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable_and_sensitive():
    a = core.derive_seed(7, "cell", 3)
    assert a == core.derive_seed(7, "cell", 3)
    assert a != core.derive_seed(8, "cell", 3)
    assert a != core.derive_seed(7, "cell", 4)
    # separator prevents concatenation collisions
    assert core.derive_seed(7, "ab", "c") != core.derive_seed(7, "a", "bc")


def test_make_rng_reproducible():
    x = core.make_rng(123).standard_normal(5)
    y = core.make_rng(123).standard_normal(5)
    assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# procrustes / dist_factors
# ---------------------------------------------------------------------------

def test_procrustes_identity_and_rotation():
    rng = core.make_rng(31)
    X = rng.standard_normal((6, 3))
    H = core.procrustes(X, X)
    assert np.allclose(H, np.eye(3), atol=1e-10)
    Q = rand_orthonormal(rng, 3, 3)
    H = core.procrustes(X @ Q, X)
    assert np.allclose(H, Q.T, atol=1e-10)
    assert np.linalg.norm((X @ Q) @ H - X) < 1e-10


def test_procrustes_beats_random_search():
    rng = core.make_rng(77)
    X = rng.standard_normal((5, 2))
    Xstar = rng.standard_normal((5, 2))
    ours = core.dist_factors(X, Xstar)
    best = np.inf
    for _ in range(10_000):
        Q = rand_orthonormal(rng, 2, 2)
        if rng.random() < 0.5:
            Q[:, 0] *= -1  # cover reflections too
        best = min(best, float(np.linalg.norm(X @ Q - Xstar)))
    assert ours <= best + 1e-12


def test_dist_factors_zero_cases_and_sign_oracle():
    rng = core.make_rng(13)
    X = rng.standard_normal((5, 2))
    assert core.dist_factors(X, X) == pytest.approx(0.0, abs=1e-12)
    Q = rand_orthonormal(rng, 2, 2)
    assert core.dist_factors(X @ Q, X) == pytest.approx(0.0, abs=1e-10)
    x = rng.standard_normal((4, 1))
    xs = rng.standard_normal((4, 1))
    oracle = min(np.linalg.norm(x - xs), np.linalg.norm(x + xs))
    assert core.dist_factors(x, xs) == pytest.approx(oracle, abs=1e-12)


def test_dist_factors_rotation_invariance_100_rotations():
    rng = core.make_rng(99)
    X = rng.standard_normal((7, 3))
    Xstar = rng.standard_normal((7, 3))
    base = core.dist_factors(X, Xstar)
    for _ in range(100):
        Q = rand_orthonormal(rng, 3, 3)
        assert core.dist_factors(X @ Q, Xstar) == pytest.approx(base, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-6, 1.0]))
def test_dist_factors_is_invariant_under_an_orthogonal_h(n, r, seed, spread):
    # Xstar is X turned by an orthogonal matrix plus noise of size spread,
    # and Q may be a reflection.
    rng = core.make_rng(seed)
    X = rng.standard_normal((n, r))
    Xstar = X @ rand_orthonormal(rng, r, r) + spread * rng.standard_normal((n, r))
    Q = rand_orthonormal(rng, r, r)
    scale = np.linalg.norm(X) + np.linalg.norm(Xstar)
    assert core.dist_factors(X @ Q, Xstar) == pytest.approx(
        core.dist_factors(X, Xstar), rel=1e-12, abs=1e-12 * scale)


# ---------------------------------------------------------------------------
# dist_subspace
# ---------------------------------------------------------------------------

def test_dist_subspace_basics():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert core.dist_subspace(e1, e1) == pytest.approx(0.0, abs=1e-12)
    assert core.dist_subspace(e1, e2) == pytest.approx(1.0, abs=1e-12)


def test_dist_subspace_matches_dense_projector_norm():
    rng = core.make_rng(55)
    for n in (6, 16, 32):
        U = rand_orthonormal(rng, n, 2)
        V = rand_orthonormal(rng, n, 2)
        ours = core.dist_subspace(U, V)
        oracle = np.linalg.norm(U @ U.T - V @ V.T, 2)
        assert ours == pytest.approx(oracle, abs=1e-8)
        assert core.dist_subspace(V, U) == pytest.approx(ours, abs=1e-12)
        assert ours <= 1.0 + 1e-12


def test_dist_subspace_rejects_nonorthonormal():
    U = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    V = np.eye(3)[:, :2]
    with pytest.raises(ValueError, match="orthonormal"):
        core.dist_subspace(U, V)


# ---------------------------------------------------------------------------
# dist_vector / dist_bd
# ---------------------------------------------------------------------------

def test_dist_vector_sign_minimized():
    rng = core.make_rng(2)
    x = rng.standard_normal(6)
    y = rng.standard_normal(6)
    oracle = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
    assert core.dist_vector(x, y) == pytest.approx(oracle, abs=1e-12)
    assert core.dist_vector(x, -x) == pytest.approx(0.0, abs=1e-12)


def test_dist_bd_trivial_and_scaling_invariance():
    rng = core.make_rng(8)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert core.dist_bd(h, x, h, x) < 1e-10
    for c in (2.0, -0.5 + 1.3j, 1e-3j, 40 - 7j):
        assert core.dist_bd(h / np.conj(c), c * x, h, x) < 1e-8


def test_dist_bd_matches_polar_grid_oracle():
    rng = core.make_rng(88)
    for _ in range(5):
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        hs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ours = core.dist_bd(h, x, hs, xs)

        def grid_min(rho_lo, rho_hi, phi_lo, phi_hi):
            rhos = np.geomspace(rho_lo, rho_hi, 400)
            phis = np.linspace(phi_lo, phi_hi, 400)
            alpha = rhos[:, None] * np.exp(1j * phis[None, :])  # 400x400 polar grid
            a = alpha.ravel()
            d2 = (np.sum(np.abs(h[None, :] / np.conj(a)[:, None] - hs[None, :]) ** 2, axis=1)
                  + np.sum(np.abs(a[:, None] * x[None, :] - xs[None, :]) ** 2, axis=1))
            k = int(np.argmin(d2))
            return a[k], math.sqrt(float(d2[k]))

        rho0 = math.sqrt(np.linalg.norm(hs) / np.linalg.norm(h))
        a1, _ = grid_min(1e-2 * rho0, 1e2 * rho0, 0.0, 2 * np.pi)
        # one refinement pass around the coarse winner keeps the oracle a pure
        # grid search while pushing its own resolution error below 1e-6
        r1 = abs(a1)
        p1 = np.angle(a1)
        _, oracle = grid_min(r1 * 0.97, r1 * 1.03, p1 - 0.02, p1 + 0.02)
        assert ours <= oracle + 1e-10
        assert abs(ours - oracle) < 1e-4


def _polar_grid_dist_bd(h, x, hs, xs):
    """Brute-force dist_bd: min of the residual over alpha = rho e^{i phi}
    on a polar grid of 360 phases and at least 2000 radii, 2000 per factor
    1e4, then three zooms by 25x around the best point.  The radii span
    [||h|| / (M + N), (M + N) / ||x||] (M = max(||hs||, ||xs||), N =
    sqrt(||h|| ||x||)), which holds every minimizing |alpha|, widened by a
    factor 2 at each end."""
    def d2(alpha):
        return (np.sum(np.abs(h[None, :] / np.conj(alpha)[:, None] - hs[None, :]) ** 2, axis=1)
                + np.sum(np.abs(alpha[:, None] * x[None, :] - xs[None, :]) ** 2, axis=1))

    nh, nx = np.linalg.norm(h), np.linalg.norm(x)
    mn = max(np.linalg.norm(hs), np.linalg.norm(xs)) + math.sqrt(nh * nx)
    lo, hi = 0.5 * nh / mn, 2.0 * mn / nx
    rhos = np.geomspace(lo, hi, max(2000, math.ceil(500 * math.log10(hi / lo))))
    phis = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    best, arg = np.inf, None
    for chunk in np.array_split(rhos, 20):
        alpha = (chunk[:, None] * np.exp(1j * phis)[None, :]).ravel()
        v = d2(alpha)
        k = int(np.argmin(v))
        if v[k] < best:
            best, arg = float(v[k]), alpha[k]
    dr, dphi = math.log(rhos[1] / rhos[0]), phis[1]
    for _ in range(3):
        alpha = (abs(arg) * np.exp(np.linspace(-dr, dr, 101))[:, None]
                 * np.exp(1j * (np.angle(arg) + np.linspace(-dphi, dphi, 101)))[None, :]).ravel()
        v = d2(alpha)
        k = int(np.argmin(v))
        if v[k] < best:
            best, arg = float(v[k]), alpha[k]
        dr, dphi = dr / 25, dphi / 25
    return math.sqrt(best)


def test_dist_bd_finds_the_deeper_of_two_basins():
    # c_h and c_x point 160 degrees apart, so g has a sharp local maximum
    # between two basins; the 121-point scan favours the shallower one
    # (4.63432 at rho = 1.26), while the minimum is 4.63365 at rho = 0.69.
    h = np.array([-0.552 + 0.529j, -0.708 - 0.805j, -1.129 - 0.391j, -0.816 + 1.349j])
    x = np.array([-1.143 + 0.196j, -0.826 + 1.601j, -0.377 - 0.487j, 1.274 + 0.911j])
    hs = np.array([-1.523 + 0.142j, 0.248 + 0.111j, 0.499 - 1.348j, -0.997 - 0.147j])
    xs = np.array([1.461 - 0.157j, 0.574 - 0.347j, -0.254 + 1.238j, 1.138 - 1.19j])
    ours = core.dist_bd(h, x, hs, xs)
    oracle = _polar_grid_dist_bd(h, x, hs, xs)
    assert ours <= oracle + 1e-10
    assert ours == pytest.approx(4.633651816, abs=1e-8)


_entries = st.floats(-3.0, 3.0, allow_nan=False)
_cvec = st.lists(st.tuples(_entries, _entries), min_size=3, max_size=3).map(
    lambda v: np.array([complex(a, b) for a, b in v]))
_scalings = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda t: 10.0 ** t[0] * complex(math.cos(t[1]), math.sin(t[1])))


_E3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def _usable(*vs):
    return all(np.linalg.norm(v) > 0.1 for v in vs)


_real_pair = st.lists(st.tuples(_entries, _entries), min_size=1, max_size=6).map(
    lambda v: (np.array([a for a, _ in v]), np.array([b for _, b in v])))


@settings(max_examples=100, deadline=None)
@given(_real_pair)
def test_dist_vector_real_is_the_nearer_of_x_minus_and_x_plus_xstar(pair):
    x, xs = pair
    d = core.dist_vector(x, xs)
    minus, plus = np.linalg.norm(x - xs), np.linalg.norm(x + xs)
    # One of the two candidates bitwise, and the smaller one up to the
    # rounding of a near-tie.
    assert d in (minus, plus)
    assert d <= min(minus, plus) + 1e-12 * (np.linalg.norm(x) + np.linalg.norm(xs))
    assert core.dist_vector(x, x) == core.dist_vector(-x, x) == 0.0
    assert core.dist_vector(xs, xs) == core.dist_vector(-xs, xs) == 0.0
    if float(x @ xs) != 0.0:
        # Off a tie the sign flips with x, so the aligned difference negates.
        assert core.dist_vector(-x, xs) == d


def test_dist_vector_real_sign_survives_an_underflowing_inner_product():
    # x . x underflows to -0.0 for -x, so the sign test alone would keep x + x.
    x = np.array([9.10704195e-163])
    assert float(-x @ x) == 0.0
    assert core.dist_vector(-x, x) == core.dist_vector(x, -x) == 0.0
    # A truly orthogonal pair keeps x - xstar.
    assert core.dist_vector(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == math.sqrt(5.0)


@settings(max_examples=60, deadline=None)
@given(_cvec, _cvec)
def test_dist_vector_complex_matches_a_dense_phase_grid(x, xs):
    d = core.dist_vector(x, xs)
    # The complex path: the optimal phase of <xs, x>, then a complex norm.
    w = complex(np.vdot(xs, x))
    c = w / abs(w) if w != 0 else 1.0
    assert d == float(np.linalg.norm(x - c * xs))
    # d^2 = |x|^2 + |xs|^2 - 2|w|; the grid's best phase lies within pi/n of
    # the optimal one, which costs at most |w| (pi/n)^2 in d^2.
    n = 4096
    phases = np.exp(2j * np.pi * np.arange(n) / n)
    grid = np.linalg.norm(x[None, :] - phases[:, None] * xs[None, :], axis=1).min()
    tol = 1e-12 * (np.linalg.norm(x) ** 2 + np.linalg.norm(xs) ** 2)
    assert d * d <= grid * grid + tol
    assert d * d >= grid * grid - abs(w) * (np.pi / n) ** 2 - tol
    # Real data stored as complex takes this path and agrees with the real one.
    r, rs = x.real, xs.real
    assert core.dist_vector(r + 0j, rs) == pytest.approx(core.dist_vector(r, rs),
                                                         rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(_cvec, _cvec, _cvec, _cvec, _scalings)
def test_dist_bd_invariant_under_the_scaling_ambiguity(h, x, hs, xs, c):
    assume(_usable(h, x, hs, xs))
    scale = math.hypot(np.linalg.norm(hs), np.linalg.norm(xs))
    d = core.dist_bd(h, x, hs, xs)
    assert core.dist_bd(h / np.conj(c), c * x, hs, xs) == pytest.approx(d, rel=1e-9, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(_cvec, _cvec, _cvec, _cvec, st.lists(_scalings, min_size=1, max_size=20))
def test_dist_bd_is_never_above_the_residual_at_any_scaling(h, x, hs, xs, alphas):
    assume(_usable(h, x, hs, xs))
    scale = math.hypot(np.linalg.norm(hs), np.linalg.norm(xs))
    d = core.dist_bd(h, x, hs, xs)
    for a in alphas:
        r = math.sqrt(np.linalg.norm(h / np.conj(a) - hs) ** 2 + np.linalg.norm(a * x - xs) ** 2)
        assert d <= r + 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(_cvec, _cvec, _scalings)
def test_dist_bd_of_an_exact_scaling_is_zero_to_rounding(hs, xs, c):
    assume(_usable(hs, xs))
    scale = math.hypot(np.linalg.norm(hs), np.linalg.norm(xs))
    assert core.dist_bd(hs / np.conj(c), c * xs, hs, xs) <= 1e-12 * scale


@settings(max_examples=15, deadline=None)
@given(_cvec, _cvec, _cvec, _cvec, st.floats(-0.3, 0.3), st.floats(-1.0, 1.0))
# The minimizing |alpha| is 80.5, which a grid over [1e-2, 1e2] sqrt(||hs||
# / ||h||) = [0.007, 70.7] misses.
@example(2j * _E3, 0.25j * _E3, 1j * _E3, 2j * _E3, 0.0, -1.0)
def test_dist_bd_matches_polar_grid_oracle_near_anti_parallel(h, x, hs, xs, tilt, logscale):
    # Turn x so that xstar^H x points opposite hstar^H h, up to the tilt.
    ch, cx = np.vdot(hs, h), np.vdot(xs, x)
    assume(_usable(h, x, hs, xs) and abs(ch) > 1e-3 and abs(cx) > 1e-3)
    x = x * (-ch / abs(ch)) / (cx / abs(cx)) * complex(math.cos(tilt), math.sin(tilt))
    x = x * 10.0 ** logscale
    ours = core.dist_bd(h, x, hs, xs)
    oracle = _polar_grid_dist_bd(h, x, hs, xs)
    assert ours <= oracle + 1e-10
    assert ours >= oracle * (1 - 1e-3)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dist_bd_non_finite_input_gives_nan_and_overflow_inf():
    v = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        w = v.copy()
        w[0] = bad
        for args in ((w, v, v, v), (v, w, v, v), (v, v, w, v), (v, v, v, w)):
            assert math.isnan(core.dist_bd(*args))
    for big in (1e300 * v, 1e200 * v):
        assert core.dist_bd(v, v, big, v) == math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dist_bd_pairs_whose_squared_norms_under_or_overflow():
    one = np.ones(2)
    v = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    # ||h||^2 underflows to 0: only x can fit, at alpha = 1, leaving hstar.
    assert core.dist_bd(1e-300 * one, one, one, one) == pytest.approx(math.sqrt(2), rel=1e-14)
    # An exact scaling of the truth whose squared norms under- and overflow.
    assert core.dist_bd(1e-160 * one, 1e160 * one, one, one) <= 1e-15
    # h = k v against x = v: the best |alpha| is sqrt(k), which leaves
    # sqrt(2) ||v|| (sqrt(k) - 1).
    for k in (1e200, 1e300):
        assert core.dist_bd(k * v, v, v, v) == pytest.approx(
            math.sqrt(2) * np.linalg.norm(v) * (math.sqrt(k) - 1), rel=1e-12)


def _cdraw(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_dist_bd_extreme_pairs_match_their_orbit_and_their_limit():
    rng = core.make_rng(11)
    for _ in range(10):
        h, x, hs, xs = (_cdraw(rng, 5) for _ in range(4))
        d = core.dist_bd(h, x, hs, xs)
        # (h / 2^j, 2^j x) is an exact point of the orbit, with ||h||^2 or
        # ||x||^2 out of range.
        for j in (600, -600, 1000, -1000):
            moved = (np.ldexp(h.real, -j) + 1j * np.ldexp(h.imag, -j),
                     np.ldexp(x.real, j) + 1j * np.ldexp(x.imag, j))
            assert core.dist_bd(*moved, hs, xs) == pytest.approx(d, rel=1e-9)
        # A pair 1e-300 times smaller fits hstar or xstar alone, at best as
        # well as its projection: sqrt(C - max(|hstar^H h| / ||h||, |xstar^H x| / ||x||)^2).
        fit = max(abs(np.vdot(hs, h)) / np.linalg.norm(h), abs(np.vdot(xs, x)) / np.linalg.norm(x))
        limit = math.sqrt(np.linalg.norm(hs) ** 2 + np.linalg.norm(xs) ** 2 - fit ** 2)
        assert core.dist_bd(1e-300 * h, x, hs, xs) == pytest.approx(limit, rel=1e-12)


_orbit_moves = st.tuples(st.integers(-500, 500), st.floats(0.0, 2 * math.pi)).map(
    lambda t: math.ldexp(1.0, t[0]) * complex(math.cos(t[1]), math.sin(t[1])))


@settings(max_examples=60, deadline=None)
@given(_cvec, _cvec, _cvec, _cvec, _orbit_moves)
def test_dist_bd_invariant_along_the_whole_orbit(h, x, hs, xs, c):
    # c = 2^j e^{i phi} with |j| <= 500.  A search window tied to
    # sqrt(||hstar|| / ||h||) held this only for |c| within about 1e+-4: at
    # c = 1e5 it read 20.7 where the distance is 0.
    assume(_usable(h, x, hs, xs))
    scale = math.hypot(np.linalg.norm(hs), np.linalg.norm(xs))
    d = core.dist_bd(h, x, hs, xs)
    assert core.dist_bd(h / np.conj(c), c * x, hs, xs) == pytest.approx(d, rel=1e-9, abs=1e-12 * scale)


def test_dist_bd_near_convergence_matches_the_first_order_oracle():
    # bd_deconv stops on distances ~1e-6 of ||(hstar, xstar)||.  There the
    # distance is the norm of the offset off the real span of the orbit's
    # tangents (-hstar, xstar) and (i hstar, i xstar), which are orthogonal
    # under Re<.,.>, up to a relative O(1e-6).
    rng = core.make_rng(21)
    for k in range(20):
        hs, xs = 2.0 ** (k % 5 - 2) * _cdraw(rng, 8), _cdraw(rng, 8)
        delta = _cdraw(rng, 16)
        delta *= 1e-6 * math.hypot(np.linalg.norm(hs), np.linalg.norm(xs)) / np.linalg.norm(delta)
        rest = delta.copy()
        for t in (np.concatenate((-hs, xs)), np.concatenate((1j * hs, 1j * xs))):
            rest -= (np.vdot(t, delta).real / np.vdot(t, t).real) * t
        d = core.dist_bd(hs + delta[:8], xs + delta[8:], hs, xs)
        assert d == pytest.approx(np.linalg.norm(rest), rel=1e-4)


def test_dist_bd_rejects_zero_vectors():
    h = np.ones(3, dtype=complex)
    with pytest.raises(ValueError):
        core.dist_bd(np.zeros(3), h, h, h)
    with pytest.raises(ValueError):
        core.dist_bd(h, np.zeros(3), h, h)


# ---------------------------------------------------------------------------
# incoherence / cosine
# ---------------------------------------------------------------------------

def test_incoherence_mu_flat_and_spiky():
    n = 6
    assert core.incoherence_mu(np.ones((n, n)), 1) == pytest.approx(1.0, abs=1e-8)
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    assert core.incoherence_mu(E, 1) == pytest.approx(float(n), abs=1e-8)


def test_incoherence_mu_matches_definition():
    rng = core.make_rng(4)
    M = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
    mu = core.incoherence_mu(M, 2)
    U, s, Vt = np.linalg.svd(M)
    U, V = U[:, :2], Vt[:2, :].T
    mu_oracle = max(8 / 2 * np.max(np.sum(U**2, axis=1)),
                    6 / 2 * np.max(np.sum(V**2, axis=1)))
    assert mu == pytest.approx(mu_oracle, rel=1e-8)


@pytest.mark.parametrize("n1, n2, r, spike", [
    (5, 5, 1, 0.0), (12, 7, 3, 0.0), (9, 20, 2, 0.0), (30, 30, 4, 0.0),
    (16, 16, 2, 25.0), (25, 11, 5, 100.0),
])
def test_incoherence_mu_matches_full_svd_oracle(n1, n2, r, spike):
    # Random rank-r matrices with an optional heavy first row, so mu runs
    # from near 1 (flat) to near n (spiky); the oracle reads the top-r
    # singular vectors off a full np.linalg.svd.
    rng = core.make_rng(n1 * 100 + n2 + r)
    L = rng.standard_normal((n1, r))
    L[0] *= 1.0 + spike
    M = L @ rng.standard_normal((r, n2))
    U, _, Vt = np.linalg.svd(M)
    U, V = U[:, :r], Vt[:r, :].T
    want = max(n1 / r * np.max(np.sum(U**2, axis=1)),
               n2 / r * np.max(np.sum(V**2, axis=1)))
    assert 1.0 - 1e-12 <= want <= max(n1, n2) / r + 1e-12
    assert core.incoherence_mu(M, r) == pytest.approx(want, rel=1e-8)


def test_incoherence_mu_rejects_rank_deficient():
    M = np.outer(np.arange(1.0, 5.0), np.ones(4))
    with pytest.raises(ValueError, match="rank"):
        core.incoherence_mu(M, 2)


def test_bd_incoherence_dft_flat_and_scale_invariant():
    m, K = 16, 4
    j = np.arange(m)[:, None]
    k = np.arange(K)[None, :]
    B = np.exp(-2j * np.pi * j * k / m) / math.sqrt(m)  # unit-modulus/sqrt(m) entries
    h = np.zeros(K, dtype=complex)
    h[0] = 1.0
    assert core.bd_incoherence(h, B) == pytest.approx(1.0, abs=1e-12)
    rng = core.make_rng(6)
    h = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    assert core.bd_incoherence(3.7j * h, B) == pytest.approx(core.bd_incoherence(h, B), rel=1e-12)
    # re-evaluation with explicit loop over rows; row j of B is b_j^H
    oracle = math.sqrt(m) * max(abs(B[i] @ h) for i in range(m)) / np.linalg.norm(h)
    assert core.bd_incoherence(h, B) == pytest.approx(oracle, rel=1e-12)


def test_cosine_sq():
    x = np.array([1.0, 0.0])
    assert core.cosine_sq(x, x) == pytest.approx(1.0)
    assert core.cosine_sq(x, np.array([0.0, 2.0])) == pytest.approx(0.0)
    rng = core.make_rng(7)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    oracle = float((a @ b) ** 2 / ((a @ a) * (b @ b)))
    assert core.cosine_sq(a, b) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(ValueError):
        core.cosine_sq(np.zeros(3), a[:3])


# ---------------------------------------------------------------------------
# Perturbation-theory sanity (Weyl, Davis-Kahan)
# ---------------------------------------------------------------------------

def test_weyl_inequality_holds():
    rng = core.make_rng(14)
    for _ in range(50):
        A = rng.standard_normal((7, 7))
        Y = (A + A.T) / 2
        D = rng.standard_normal((7, 7))
        Delta = (D + D.T) / 2
        lam0 = np.linalg.eigvalsh(Y)
        lam1 = np.linalg.eigvalsh(Y + Delta)
        assert np.max(np.abs(lam1 - lam0)) <= np.linalg.norm(Delta, 2) + 1e-10


def test_davis_kahan_bound_holds():
    rng = core.make_rng(15)
    n, r = 8, 2
    for _ in range(50):
        U = rand_orthonormal(rng, n, r)
        lam = np.array([3.0, 2.5])
        Y = (U * lam) @ U.T
        D = rng.standard_normal((n, n))
        Delta = (D + D.T) / 2
        Delta *= 0.1 / np.linalg.norm(Delta, 2)
        nd = np.linalg.norm(Delta, 2)
        basis = np.linalg.eigh(Y + Delta)[1][:, ::-1][:, :r]
        gap = lam[-1] - 0.0  # lambda_{r+1}(Y) = 0
        assert core.dist_subspace(basis, U) <= nd / (gap - nd) + 1e-8


# ---------------------------------------------------------------------------
# FactorPoint / Trace
# ---------------------------------------------------------------------------

def test_factor_point_roundtrip_and_ops():
    rng = core.make_rng(1)
    p = core.FactorPoint.asym(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)))
    g = tuple(np.ones_like(a) for a in p.parts)
    q = p.add_scaled(-0.5, g)
    assert np.allclose(q.L, p.L - 0.5)
    assert p.isfinite()
    assert p.norm() == pytest.approx(math.sqrt(np.sum(p.L**2) + np.sum(p.R**2)))
    with pytest.raises(ValueError):
        core.FactorPoint("weird", (np.ones(2),))
    with pytest.raises(ValueError):
        core.FactorPoint("pair", (np.ones(2),))


def _unchecked_points():
    # Real sym and asym points and complex vector and pair points, with
    # parts of very different scales.
    rng = np.random.default_rng(8)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return [
        core.FactorPoint.sym(1e3 * rng.standard_normal((7, 3))),
        core.FactorPoint.asym(rng.standard_normal((5, 2)), 1e-4 * rng.standard_normal((6, 2))),
        core.FactorPoint.vector(cplx(9)),
        core.FactorPoint.pair(cplx(4), 1e5 * cplx(6)),
    ]


def test_add_scaled_and_copy_skip_the_checks_but_keep_the_part_count():
    for p in _unchecked_points():
        q = p.add_scaled(0.5, p.parts)
        assert q.kind == p.kind and len(q.parts) == len(p.parts)
        for a, b in zip(q.parts, p.parts):
            assert np.array_equal(a, b + 0.5 * b)
        c = p.copy()
        assert c.kind == p.kind
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(c.parts, p.parts))
        too_few, too_many = p.parts[:-1], p.parts + (p.parts[0],)
        for direction in (too_few, too_many):
            with pytest.raises(ValueError):
                p.add_scaled(1.0, direction)


def test_factor_point_norm_matches_the_norm_of_the_stacked_parts():
    for p in _unchecked_points():
        ref = np.linalg.norm(np.concatenate([a.ravel() for a in p.parts]))
        assert abs(p.norm() - ref) <= 1e-15 * ref


def test_factor_point_isfinite_sees_nan_and_inf_in_any_part():
    for p in _unchecked_points():
        assert p.isfinite()
        for k in range(len(p.parts)):
            for bad in (np.nan, np.inf, -np.inf):
                parts = [a.copy() for a in p.parts]
                parts[k].flat[-1] = bad
                assert not core.FactorPoint(p.kind, tuple(parts)).isfinite()


def test_factor_point_accessors_raise_for_other_kinds():
    sym = core.FactorPoint.sym(np.ones((3, 1)))
    for name in ("L", "R", "x", "h"):
        with pytest.raises(ValueError, match=f"'sym' point has no part {name}"):
            getattr(sym, name)
    pair = core.FactorPoint.pair(np.ones(2), 2.0 * np.ones(2))
    assert np.array_equal(pair.h, np.ones(2)) and np.array_equal(pair.x, 2.0 * np.ones(2))
    with pytest.raises(ValueError, match="'pair' point has no part X"):
        pair.X
    with pytest.raises(ValueError, match="'vector' point has no part h"):
        core.FactorPoint.vector(np.ones(2)).h


def test_factor_point_vector_keeps_complex_input_and_real_input_bitwise():
    z = np.array([1 + 2j, 3 - 1j])
    assert np.array_equal(core.FactorPoint.vector(z).x, z)
    assert np.array_equal(core.FactorPoint.vector([1 + 2j, 3 - 1j]).x, z)
    r = np.array([0.1, -2.5, 3.0])
    assert core.FactorPoint.vector(r).x is r
    ints = core.FactorPoint.vector([1, 2]).x
    assert ints.dtype == np.float64 and np.array_equal(ints, [1.0, 2.0])


def test_factor_point_real_factors_reject_complex_input():
    Z = np.ones((3, 1), dtype=complex)
    with pytest.raises(ValueError, match="factor X must be real"):
        core.FactorPoint.sym(Z)
    with pytest.raises(ValueError, match="factor L must be real"):
        core.FactorPoint.asym(Z, np.ones((2, 1)))
    with pytest.raises(ValueError, match="factor R must be real"):
        core.FactorPoint.asym(np.ones((3, 1)), Z)
    assert core.FactorPoint.sym(np.ones((3, 1), dtype=np.float32)).X.dtype == np.float64


def test_trace_csv_layout(tmp_path):
    tr = core.Trace()
    tr.start_clock()
    tr.append(0, 1.5, 0.25, dist=2.0, incoh=0.5)
    tr.append(1, 0.75, 0.125)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,loss,grad_norm,dist,incoh,ms"
    assert lines[1].startswith("0,1.5,0.25,2.0,0.5,")
    assert lines[1].endswith(",0.0")  # ms zeroed by default for reproducible files
    tr.to_csv(path, wall_time=True)
    row1 = path.read_text().splitlines()[1].split(",")
    assert float(row1[-1]) >= 0.0


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------

def _walk(last, first=0, losses=None, gnorms=None, stop=None, step_to=None):
    """core.iterate on a counter: the point moves from 0 up by one per step
    (or to step_to(t)), row t reports losses[t] and gnorms[t], and every step
    call is logged with the aux it received."""
    steps = []

    def evaluate(t, point):
        row = {"loss": 1.0 if losses is None else losses[t],
               "grad_norm": 1.0 if gnorms is None else gnorms[t],
               "dist": float(point.x[0]), "incoh": 0.0, "tag": -t}
        return row, ("aux", t)

    def step(t, point, aux):
        steps.append((t, aux))
        nxt = point.x + 1.0 if step_to is None else step_to(t)
        return core.FactorPoint.vector(nxt)

    point, trace = core.iterate(core.FactorPoint.vector([0.0]), evaluate, step, last,
                                first=first, stop=stop)
    return point, trace, steps


def test_iterate_records_rows_first_to_last_without_a_final_step():
    point, trace, steps = _walk(4)
    assert trace.iters == [0, 1, 2, 3, 4]
    assert trace.dist == [0.0, 1.0, 2.0, 3.0, 4.0]  # row t is t steps from the start
    assert trace.extras["tag"] == [0, -1, -2, -3, -4]
    assert steps == [(t, ("aux", t)) for t in range(4)]  # none after row 4
    assert trace.outcome == "max_iters" and point.x[0] == 4.0
    assert len(trace.ms) == 5

    # Rows before `first` are stepped through unrecorded, with no aux.
    point, trace, steps = _walk(4, first=2)
    assert trace.iters == [2, 3, 4] and trace.dist == [2.0, 3.0, 4.0]
    assert steps == [(0, None), (1, None), (2, ("aux", 2)), (3, ("aux", 3))]
    assert point.x[0] == 4.0

    # An empty row range steps nowhere and returns the start.
    point, trace, steps = _walk(0, first=1)
    assert len(trace) == 0 and steps == [] and point.x[0] == 0.0
    assert trace.outcome == "max_iters"


def test_iterate_checks_the_stop_predicate_before_the_step():
    seen = []

    def stop(trace, point):
        seen.append((trace.iters[-1], point.x[0]))
        return trace.iters[-1] == 2

    point, trace, steps = _walk(10, stop=stop)
    assert trace.iters == [0, 1, 2]
    assert trace.outcome == "converged"
    assert seen == [(0, 0.0), (1, 1.0), (2, 2.0)]
    assert [t for t, _ in steps] == [0, 1]
    assert point.x[0] == 2.0  # the last recorded point


def test_iterate_diverges_on_non_finite_values_recording_the_row():
    nan, inf = float("nan"), float("inf")
    for losses, gnorms, step_to, bad_row in [
        ([1.0, 0.5, nan, 0.1], None, None, 2),
        ([1.0, 0.5, -inf, 0.1], None, None, 2),
        (None, [1.0, inf, 1.0, 1.0], None, 1),
        (None, None, lambda t: [nan] if t == 1 else [1.0], 2),  # the point
    ]:
        stopped_at = []
        point, trace, steps = _walk(
            3, losses=losses, gnorms=gnorms, step_to=step_to,
            stop=lambda tr, p: stopped_at.append(tr.iters[-1]) or False)
        assert trace.outcome == "diverged"
        assert trace.iters == list(range(bad_row + 1))  # the offending row is last
        assert stopped_at == list(range(bad_row))  # divergence is tested first
        assert len(steps) == bad_row
    assert math.isnan(point.x[0])  # the offending point is returned


def test_iterate_blow_up_is_relative_to_the_first_loss():
    # loss - loss0 must exceed 1e6 |loss0|: a negative loss0 scales the same.
    _, trace, _ = _walk(3, losses=[-1.0, -5.0, 1e6 - 1.0, 1e6])
    assert trace.outcome == "diverged" and trace.iters == [0, 1, 2, 3]
    _, trace, _ = _walk(3, losses=[2.0, 1e6, 2e6 + 2.0, 2e6 + 3.0])
    assert trace.outcome == "diverged" and trace.iters == [0, 1, 2, 3]
    _, trace, _ = _walk(3, losses=[-1.0, -10.0, -1e9, -1e12])
    assert trace.outcome == "max_iters"
    # A first loss of exactly 0 leaves only the finiteness test.
    _, trace, _ = _walk(3, losses=[0.0, 1e-300, 1e300, 1.0])
    assert trace.outcome == "max_iters"
    _, trace, _ = _walk(3, losses=[0.0, 1e300, float("inf"), 1.0])
    assert trace.outcome == "diverged" and trace.iters == [0, 1, 2]
    # loss0 is the first recorded row's loss, also when rows start later.
    _, trace, _ = _walk(3, first=1, losses=[None, 1.0, 1e6 + 1.0, 1e6 + 1.5])
    assert trace.outcome == "diverged" and trace.iters == [1, 2, 3]


def test_factored_svd_is_the_thin_svd_of_the_product():
    rng = np.random.default_rng(3)
    L, R = rng.standard_normal((9, 3)), rng.standard_normal((7, 3))
    Q1, U, s, V, Q2 = core.factored_svd(L, R)
    left, right = Q1 @ U, Q2 @ V
    np.testing.assert_allclose((left * s) @ right.T, L @ R.T, atol=1e-12)
    np.testing.assert_allclose(s, np.linalg.svd(L @ R.T, compute_uv=False)[:3], rtol=1e-12)
    for B in (left, right):
        np.testing.assert_allclose(B.T @ B, np.eye(3), atol=1e-12)
