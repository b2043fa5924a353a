"""Oracle and property tests for the core linear-algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
# top_r_symmetric
# ---------------------------------------------------------------------------

def test_top_r_symmetric_diagonal():
    est = core.top_r_symmetric(np.diag([3.0, 2.0, 1.0]), 1)
    assert est.values.shape == (1,)
    assert abs(est.values[0] - 3.0) < 1e-10
    assert abs(abs(est.basis[0, 0]) - 1.0) < 1e-8
    assert abs(est.gap - 1.0) < 1e-8


def test_top_r_symmetric_degenerate_spectrum():
    est = core.top_r_symmetric(np.eye(3), 2)
    assert np.allclose(est.values, [1.0, 1.0], atol=1e-10)
    assert abs(est.gap) < 1e-8
    # any orthonormal basis of a 2-dim eigenspace is fine
    assert np.allclose(est.basis.T @ est.basis, np.eye(2), atol=1e-10)


def test_top_r_symmetric_matches_dense_oracle():
    rng = core.make_rng(42)
    for trial in range(5):
        A = rng.standard_normal((8, 8))
        M = (A + A.T) / 2
        est = core.top_r_symmetric(M, 3)
        w, V = np.linalg.eigh(M)  # dense oracle
        w_top = w[::-1][:3]
        V_top = V[:, ::-1][:, :3]
        assert np.allclose(est.values, w_top, atol=1e-8)
        P_ours = est.basis @ est.basis.T
        P_oracle = V_top @ V_top.T
        assert np.linalg.norm(P_ours - P_oracle, 2) < 1e-8


def test_top_r_symmetric_projector_oracle_up_to_32():
    rng = core.make_rng(3)
    for n in (5, 12, 32):
        U = rand_orthonormal(rng, n, n)
        vals = np.sort(rng.uniform(-2, 2, size=n))[::-1]
        vals[2] = vals[3] + 1.0  # keep a clean gap at r=3
        M = (U * vals) @ U.T
        M = (M + M.T) / 2
        est = core.top_r_symmetric(M, 3)
        w, V = np.linalg.eigh(M)
        Vt = V[:, ::-1][:, :3]
        assert np.linalg.norm(est.basis @ est.basis.T - Vt @ Vt.T, 2) < 1e-8


def test_top_r_symmetric_complex_hermitian():
    rng = core.make_rng(11)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = (A + A.conj().T) / 2
    est = core.top_r_symmetric(M, 2)
    w = np.linalg.eigvalsh(M)[::-1]
    assert np.allclose(est.values, w[:2], atol=1e-8)
    assert np.max(np.abs(M @ est.basis - est.basis * est.values)) < 1e-8


def test_top_r_symmetric_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        core.top_r_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)


def test_top_r_symmetric_nonconvergence_reports_residual():
    rng = core.make_rng(5)
    A = rng.standard_normal((10, 10))
    M = (A + A.T) / 2
    with pytest.raises(RuntimeError, match="residual"):
        core.top_r_symmetric(M, 2, tol=1e-300, max_iters=2)


# ---------------------------------------------------------------------------
# top_r_svd
# ---------------------------------------------------------------------------

def test_top_r_svd_diagonal_padded():
    M = np.zeros((3, 2))
    M[0, 0], M[1, 1] = 2.0, 1.0
    left, right = core.top_r_svd(M, 1)
    assert abs(left.values[0] - 2.0) < 1e-10
    assert np.allclose(left.values, right.values)


def test_top_r_svd_rank1_exact():
    rng = core.make_rng(9)
    u = rng.standard_normal(7)
    v = rng.standard_normal(4)
    M = np.outer(u, v)
    left, right = core.top_r_svd(M, 1)
    s = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(left.values[0] - s) < 1e-10 * s
    # up to joint sign
    uu = u / np.linalg.norm(u)
    vv = v / np.linalg.norm(v)
    sign = np.sign(uu @ left.basis[:, 0])
    assert np.allclose(sign * left.basis[:, 0], uu, atol=1e-8)
    assert np.allclose(sign * right.basis[:, 0], vv, atol=1e-8)


def test_top_r_svd_matches_full_svd_oracle():
    rng = core.make_rng(20)
    M = rng.standard_normal((10, 6))
    left, right = core.top_r_svd(M, 2)
    # oracle: full SVD via eigendecomposition of M^T M
    w, V = np.linalg.eigh(M.T @ M)
    sig = np.sqrt(np.maximum(w[::-1], 0.0))
    Vt = V[:, ::-1]
    assert np.allclose(left.values, sig[:2], atol=1e-8)
    P_right = right.basis @ right.basis.T
    P_oracle = Vt[:, :2] @ Vt[:, :2].T
    assert np.linalg.norm(P_right - P_oracle, 2) < 1e-8
    U_oracle = M @ Vt[:, :2] / sig[:2]
    assert np.linalg.norm(left.basis @ left.basis.T - U_oracle @ U_oracle.T, 2) < 1e-8


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
    on a 2000 x 360 polar grid with rho in [1e-2, 1e2] rho0, then three
    zooms by 25x around the best point."""
    def d2(alpha):
        return (np.sum(np.abs(h[None, :] / np.conj(alpha)[:, None] - hs[None, :]) ** 2, axis=1)
                + np.sum(np.abs(alpha[:, None] * x[None, :] - xs[None, :]) ** 2, axis=1))

    rho0 = math.sqrt(np.linalg.norm(hs) / np.linalg.norm(h))
    rhos = rho0 * np.geomspace(1e-2, 1e2, 2000)
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


def _usable(*vs):
    return all(np.linalg.norm(v) > 0.1 for v in vs)


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
        est = core.top_r_symmetric(Y + Delta, r)
        gap = lam[-1] - 0.0  # lambda_{r+1}(Y) = 0
        assert core.dist_subspace(est.basis, U) <= nd / (gap - nd) + 1e-8


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
