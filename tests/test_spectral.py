"""Oracle tests for the spectral initializers: population-limit exactness for
every surrogate, forced-matrix probes with known factors, preprocessing
semantics (including the documented failure of mean-scale trimming at small
sample budgets), and Monte Carlo hit rates at the calibrated sizes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank_ncvx import core, problems, spectral
from lowrank_ncvx.core import FactorPoint
from lowrank_ncvx.problems import (
    ProblemInstance,
    forward_model,
    gen_blind_deconv,
    gen_identity_sensing,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_phase_sync,
    gen_quadratic_sensing,
    gen_rpca,
)
from lowrank_ncvx.spectral import (
    Preprocessing,
    apply_preprocessing,
    bd_estimate_from_surrogate,
    factors_from_surrogate,
    hard_threshold,
    init_blind_deconv,
    init_matrix_completion,
    init_phase_retrieval,
    init_phase_sync,
    init_quadratic_sensing,
    init_rpca,
    init_sensing,
    init_sparse_pr,
    optimal_T,
    pr_estimate_from_surrogate,
    qs_estimate_from_surrogate,
    rho_table_to_csv,
    rho_vs_alpha_experiment,
    surrogate_blind_deconv,
    surrogate_completion,
    surrogate_quadratic,
    surrogate_sensing,
)


def _stacked_dist(point, L, R):
    return core.dist_factors(np.vstack([point.L, point.R]), np.vstack([L, R]))


# ---------------------------------------------------------------------------
# Surrogate assembly
# ---------------------------------------------------------------------------

def _manual_sensing(A, y):
    m, n1, n2 = A.shape
    return ProblemInstance(
        "MatrixSensingAsym", 0,
        {"n1": n1, "n2": n2, "r": 1, "m": m, "symmetric": False},
        {}, {"kind": "gaussian", "A": A}, np.asarray(y, dtype=float),
    )


def test_surrogate_single_identity_measurement():
    inst = _manual_sensing(np.eye(3)[None, :, :], [2.5])
    np.testing.assert_array_equal(surrogate_sensing(inst), 2.5 * np.eye(3))


def test_surrogate_is_linear_in_y_and_matches_loop():
    rng = core.make_rng(3)
    A = rng.standard_normal((7, 4, 5))
    y1 = rng.standard_normal(7)
    y2 = rng.standard_normal(7)
    Y1 = surrogate_sensing(_manual_sensing(A, y1))
    Y2 = surrogate_sensing(_manual_sensing(A, y2))
    Y12 = surrogate_sensing(_manual_sensing(A, y1 + 2.0 * y2))
    np.testing.assert_allclose(Y12, Y1 + 2.0 * Y2, atol=1e-12)
    loop = sum(y1[i] * A[i] for i in range(7)) / 7
    np.testing.assert_allclose(Y1, loop, atol=1e-12)


def test_surrogate_family_guards():
    pr = gen_phase_retrieval(6, 12, seed=0)
    with pytest.raises(ValueError):
        surrogate_sensing(pr)
    sens = gen_matrix_sensing(5, 5, 1, 10, True, seed=0)
    with pytest.raises(ValueError):
        surrogate_completion(sens)


# ---------------------------------------------------------------------------
# Matrix sensing initialization
# ---------------------------------------------------------------------------

def test_init_sensing_identity_operator_is_exact():
    inst = gen_identity_sensing(6, 5, 2, seed=4)
    est = init_sensing(inst, 2)
    d = _stacked_dist(est.point, inst.truth["L"], inst.truth["R"])
    assert d < 1e-8


def test_init_sensing_population_surrogate_recovers_truth():
    inst = gen_matrix_sensing(8, 8, 2, 10, True, seed=9)
    X = inst.truth["X"]
    point, _, scale = factors_from_surrogate(X @ X.T, 2, symmetric=True)
    assert core.dist_factors(point.X, X) < 1e-8
    assert abs(scale - inst.truth["sigma"][0]) < 1e-8


def test_init_sensing_monte_carlo_hit_rate():
    n, r = 30, 2
    hits = 0
    for t in range(100):
        inst = gen_matrix_sensing(n, n, r, 40 * n * r, False,
                                  seed=core.derive_seed(3, "sa", t))
        est = init_sensing(inst, r)
        d2 = _stacked_dist(est.point, inst.truth["L"], inst.truth["R"]) ** 2
        sigma_r = inst.truth["sigma"][-1]
        hits += d2 <= 0.25 * sigma_r
    assert hits >= 90


def test_init_sensing_factor_scales_never_negative():
    # tiny sample budget: raw eigenvalues of the surrogate dip below zero,
    # the factor columns must come from the clipped values
    inst = gen_matrix_sensing(8, 8, 2, 20, True, seed=2)
    est = init_sensing(inst, 6)
    raw = est.subspaces[0].values
    assert raw.min() < 0
    col_sq = np.sum(est.point.X ** 2, axis=0)
    np.testing.assert_allclose(col_sq, np.clip(raw, 0.0, None), atol=1e-12)
    assert np.all(np.isfinite(est.point.X))


def test_init_sensing_rank_guards():
    inst = gen_matrix_sensing(6, 6, 2, 12, True, seed=0)
    with pytest.raises(ValueError):
        init_sensing(inst, 0)
    with pytest.raises(ValueError):
        init_sensing(inst, 6)  # symmetric route needs r < n


# ---------------------------------------------------------------------------
# Phase retrieval initialization and preprocessing
# ---------------------------------------------------------------------------

def test_trim_infinite_gamma_is_identity():
    inst = gen_phase_retrieval(12, 60, seed=7)
    a = init_phase_retrieval(inst, prep=Preprocessing.trim(np.inf), scale_rule="mean")
    b = init_phase_retrieval(inst, prep=None, scale_rule="mean")
    np.testing.assert_array_equal(a.point.x, b.point.x)


def test_scale_rule_resolution():
    # plentiful samples, raw surrogate: auto takes the eigenvalue rule
    big = gen_phase_retrieval(16, 12800, seed=1)
    auto = init_phase_retrieval(big)
    eig = init_phase_retrieval(big, scale_rule="third_eig")
    np.testing.assert_array_equal(auto.point.x, eig.point.x)
    # any preprocessing forces the mean rule
    trimmed = init_phase_retrieval(big, prep=Preprocessing.trim(9.0))
    mean = init_phase_retrieval(big, prep=Preprocessing.trim(9.0), scale_rule="mean")
    np.testing.assert_array_equal(trimmed.point.x, mean.point.x)
    with pytest.raises(ValueError):
        init_phase_retrieval(big, scale_rule="nope")


def test_init_pr_population_surrogate_both_scale_rules():
    rng = core.make_rng(11)
    x = rng.standard_normal(9)
    EY = 2.0 * np.outer(x, x) + np.dot(x, x) * np.eye(9)
    for rule in ("third_eig", "mean"):
        est = pr_estimate_from_surrogate(EY, float(np.dot(x, x)), rule)
        err = min(np.linalg.norm(est.point.x - x), np.linalg.norm(est.point.x + x))
        assert err < 1e-8 * np.linalg.norm(x)


def test_init_pr_monte_carlo_hit_rate():
    hits = 0
    for t in range(100):
        inst = gen_phase_retrieval(16, 12800, seed=core.derive_seed(3, "pr", t))
        est = init_phase_retrieval(inst)
        x0, xs = est.point.x, inst.truth["x"]
        err = min(np.linalg.norm(x0 - xs), np.linalg.norm(x0 + xs))
        hits += err <= 0.1 * np.linalg.norm(xs)
    assert hits >= 95


@pytest.mark.xfail(
    strict=True,
    reason="mean-scale trimming at gamma=3 discards the top 8% of samples, which "
    "carry most of the fourth-moment signal; measured medians are 0.11 (trim) "
    "vs 0.57 (identity), so the claimed ordering does not hold at this size",
)
def test_trim_gamma3_beats_identity_at_six_n():
    n, m = 64, 6 * 64
    id_rho, trim_rho = [], []
    for t in range(200):
        inst = gen_phase_retrieval(n, m, seed=core.derive_seed(5, "pairs", t))
        xs = inst.truth["x"]
        e_id = init_phase_retrieval(inst)
        e_tr = init_phase_retrieval(inst, prep=Preprocessing.trim(3.0))
        id_rho.append(core.cosine_sq(e_id.point.x, xs))
        trim_rho.append(core.cosine_sq(e_tr.point.x, xs))
    assert np.median(trim_rho) > np.median(id_rho)


def test_subset_beats_identity_at_six_n():
    # the small-budget contrast the trimmed example reaches for does hold for
    # the subset design, on the same paired instances
    n, m = 64, 6 * 64
    id_rho, sub_rho = [], []
    for t in range(200):
        inst = gen_phase_retrieval(n, m, seed=core.derive_seed(5, "pairs", t))
        xs = inst.truth["x"]
        id_rho.append(core.cosine_sq(init_phase_retrieval(inst).point.x, xs))
        est = init_phase_retrieval(inst, prep=Preprocessing.subset())
        sub_rho.append(core.cosine_sq(est.point.x, xs))
    assert np.median(sub_rho) > np.median(id_rho)


def test_preprocessing_that_removes_everything_raises():
    y = np.ones(8)
    with pytest.raises(ValueError, match="removed every sample"):
        apply_preprocessing(Preprocessing.trim(0.5), y)
    inst = gen_phase_retrieval(6, 8, seed=0)
    inst.y = np.ones(8)
    with pytest.raises(ValueError, match="removed every sample"):
        init_phase_retrieval(inst, prep=Preprocessing.trim(0.5))


def test_preprocessing_validation():
    with pytest.raises(ValueError):
        Preprocessing("bogus")
    with pytest.raises(ValueError):
        Preprocessing.trim(0.0)
    with pytest.raises(ValueError):
        Preprocessing.subset(1.5)
    with pytest.raises(ValueError):
        Preprocessing.optimal_weak(0.5)
    # describe() prints the parameter, so a transform without one refuses it
    for tag in ("identity", "optimal_uniform"):
        with pytest.raises(ValueError, match=f"{tag} takes no parameter"):
            Preprocessing(tag, 3.0)
    assert Preprocessing.median_trim(2.5).describe() == "median(2.5)"
    assert Preprocessing.optimal_uniform().describe() == "optimal_uniform"


@given(
    y=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
    g_small=st.floats(0.05, 20.0),
    g_extra=st.floats(0.0, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_trim_retention_is_monotone_in_gamma(y, g_small, g_extra):
    y = np.asarray(y)

    def kept(gamma):
        try:
            return set(np.flatnonzero(apply_preprocessing(Preprocessing.trim(gamma), y)))
        except ValueError:
            return set()

    assert kept(g_small) <= kept(g_small + g_extra)


# ---------------------------------------------------------------------------
# Limit-optimal preprocessing
# ---------------------------------------------------------------------------

def test_optimal_T_exact_values():
    assert optimal_T(1.0) == 0.0
    assert optimal_T(2.0) == 0.5
    np.testing.assert_array_equal(optimal_T(np.array([1.0, 2.0])), [0.0, 0.5])


def test_optimal_weak_finite_at_threshold_limit():
    # alpha approaching the phase-transition point from above stays finite
    # wherever T*(y) < 1
    for y in (0.5, 1.0, 2.0, 50.0):
        v = optimal_T(y, "weak", alpha=0.5 + 1e-12)
        assert np.isfinite(v)
    with pytest.raises(ValueError):
        optimal_T(1.0, "weak", alpha=0.5)
    with pytest.raises(ValueError):
        optimal_T(1.0, "unknown")


def test_optimal_uniform_dominates_subset_at_moderate_budgets():
    # directional form of the uniform-optimality statement, paired seeds
    for alpha in (4.0, 8.0):
        t_star = rho_vs_alpha_experiment(
            64, [alpha], Preprocessing.optimal_uniform(), trials=200, seed=777)
        subs = rho_vs_alpha_experiment(
            64, [alpha], Preprocessing.subset(1.0 / 6.0), trials=200, seed=777)
        assert t_star[0]["mean_rho"] >= subs[0]["mean_rho"] - 0.02


def test_rho_curve_endpoints_and_monotonicity():
    from scipy import stats

    alphas = [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0]
    rows = rho_vs_alpha_experiment(128, alphas, Preprocessing.identity(),
                                   trials=40, seed=123)
    means = [row["mean_rho"] for row in rows]
    assert means[0] < 0.2
    assert means[-1] > 0.8
    assert stats.spearmanr(alphas, means).statistic > 0.9


def test_rho_experiment_is_deterministic_and_csv_round_trips(tmp_path):
    args = (24, [1.0, 3.0], Preprocessing.subset(), 5, 42)
    rows1 = rho_vs_alpha_experiment(*args)
    rows2 = rho_vs_alpha_experiment(*args)
    assert rows1 == rows2
    path = tmp_path / "rho.csv"
    rho_table_to_csv(rows1, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "alpha,prep,mean_rho,std_rho,trials"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and first[1] == "subset(0.166667)"
    assert float(first[2]) == rows1[0]["mean_rho"]


# ---------------------------------------------------------------------------
# Quadratic sensing initialization
# ---------------------------------------------------------------------------

def test_init_qs_population_surrogate_is_exact():
    inst = gen_quadratic_sensing(10, 2, 40, seed=5)
    X = inst.truth["X"]
    sigma = float(np.linalg.norm(X) ** 2)
    EY = 2.0 * X @ X.T + sigma * np.eye(10)
    est = qs_estimate_from_surrogate(EY, sigma, 2)
    assert core.dist_factors(est.point.X, X) < 1e-8
    assert est.scale == sigma


def test_init_qs_shift_clips_at_zero():
    Y = np.diag([10.0, 1.0, 1.0, 1.0])
    est = qs_estimate_from_surrogate(Y, 4.0, 2)
    col_sq = np.sum(est.point.X ** 2, axis=0)
    np.testing.assert_allclose(col_sq, [3.0, 0.0], atol=1e-12)


def test_init_qs_monte_carlo_hit_rate():
    # flat spectrum: the fixed budget of the size-calibrated check is a
    # conditioning statement, see the m=128n companion below for the default
    n, r = 24, 2
    hits = 0
    for t in range(100):
        inst = gen_quadratic_sensing(n, r, 64 * n, spectrum=[1.0, 1.0],
                                     seed=core.derive_seed(7, "qs2", 64, t))
        est = init_quadratic_sensing(inst, r)
        d2 = core.dist_factors(est.point.X, inst.truth["X"]) ** 2
        hits += d2 <= 0.25 * inst.truth["sigma"][-1]
    assert hits >= 90


def test_init_qs_default_spectrum_needs_double_budget():
    n, r = 24, 2
    hits = 0
    for t in range(100):
        inst = gen_quadratic_sensing(n, r, 128 * n,
                                     seed=core.derive_seed(7, "qs", 128, t))
        est = init_quadratic_sensing(inst, r)
        d2 = core.dist_factors(est.point.X, inst.truth["X"]) ** 2
        hits += d2 <= 0.25 * inst.truth["sigma"][-1]
    assert hits >= 90


def test_init_qs_rank_guard():
    inst = gen_quadratic_sensing(6, 2, 24, seed=0)
    with pytest.raises(ValueError):
        init_quadratic_sensing(inst, 6)


# ---------------------------------------------------------------------------
# Blind deconvolution initialization
# ---------------------------------------------------------------------------

def test_init_bd_population_surrogate_is_exact():
    rng = core.make_rng(8)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    est = bd_estimate_from_surrogate(np.outer(h, x.conj()))
    assert core.dist_bd(est.point.h, est.point.x, h, x) < 1e-8


def test_init_bd_norms_and_determinism():
    inst = gen_blind_deconv(6, 6, 256, seed=3)
    est = init_blind_deconv(inst)
    root = math.sqrt(est.scale)
    assert abs(np.linalg.norm(est.point.h) - root) < 1e-12
    assert abs(np.linalg.norm(est.point.x) - root) < 1e-12
    again = init_blind_deconv(gen_blind_deconv(6, 6, 256, seed=3))
    np.testing.assert_array_equal(est.point.h, again.point.h)
    np.testing.assert_array_equal(est.point.x, again.point.x)


def test_init_bd_large_sample_hit_rate():
    hits = 0
    for t in range(100):
        inst = gen_blind_deconv(8, 8, 65536, seed=core.derive_seed(3, "bd64k", t))
        est = init_blind_deconv(inst)
        d = core.dist_bd(est.point.h, est.point.x, inst.truth["h"], inst.truth["x"])
        hits += d <= 0.2 * np.linalg.norm(inst.truth["h"])
    assert hits >= 90


# ---------------------------------------------------------------------------
# Matrix completion initialization
# ---------------------------------------------------------------------------

def test_init_mc_full_observation_is_exact():
    sym = gen_matrix_completion(12, 12, 2, 1.0, True, seed=6)
    est = init_matrix_completion(sym, 2)
    assert core.dist_factors(est.point.X, sym.truth["X"]) < 1e-8
    asym = gen_matrix_completion(10, 8, 2, 1.0, False, seed=6)
    est = init_matrix_completion(asym, 2)
    assert _stacked_dist(est.point, asym.truth["L"], asym.truth["R"]) < 1e-8


def test_init_mc_surrogate_mean_over_masks_approaches_matrix():
    base = gen_matrix_completion(30, 30, 2, 0.5, True, seed=11)
    M = base.truth["M"]
    acc = np.zeros_like(M)
    for t in range(500):
        inst = gen_matrix_completion(30, 30, 2, 0.5, True,
                                     seed=core.derive_seed(11, "replay", t))
        inst.truth = base.truth
        inst.y = forward_model(inst)
        acc += surrogate_completion(inst)
    acc /= 500
    assert np.linalg.norm(acc - M) < 0.05 * np.linalg.norm(M)


def test_init_mc_monte_carlo_hit_rates():
    # the log-factor budget from the size-calibrated check saturates p at 1
    n, r = 80, 2
    p = min(1.0, 40 * r ** 2 * math.log(n) / n)
    assert p == 1.0
    inst = gen_matrix_completion(n, n, r, p, symmetric=True, seed=0)
    est = init_matrix_completion(inst, r)
    assert core.dist_factors(est.point.X, inst.truth["X"]) ** 2 <= 1e-16
    # genuinely sparse sampling
    hits = 0
    for t in range(100):
        inst = gen_matrix_completion(n, n, r, 0.35, symmetric=True,
                                     seed=core.derive_seed(3, "mcs", t))
        est = init_matrix_completion(inst, r)
        d2 = core.dist_factors(est.point.X, inst.truth["X"]) ** 2
        hits += d2 <= 0.25 * inst.truth["sigma"][-1]
    assert hits >= 90


def test_init_mc_guards():
    inst = gen_matrix_completion(8, 8, 2, 0.5, True, seed=0)
    with pytest.raises(ValueError):
        init_matrix_completion(inst, 8)
    sens = gen_matrix_sensing(5, 5, 1, 10, True, seed=0)
    with pytest.raises(ValueError):
        init_matrix_completion(sens, 1)


def test_empty_observation_set_is_refused_before_any_surrogate(monkeypatch):
    # p = 0 gives the all-zero CSR surrogate, from which ARPACK cannot start
    # ("Starting vector is zero").  The inits refuse the instance by name
    # before forming a surrogate or robust PCA's dense residual.
    def unreachable(*args):
        raise AssertionError("formed a surrogate of an empty observation set")

    monkeypatch.setattr(spectral, "surrogate_completion", unreachable)
    monkeypatch.setattr(spectral, "sparse_part", unreachable)
    for symmetric in (True, False):
        inst = gen_matrix_completion(20, 20, 2, 0.0, symmetric, seed=0)
        with pytest.raises(ValueError, match="empty observation set"):
            init_matrix_completion(inst, 2)
    with pytest.raises(ValueError, match="empty observation set"):
        init_rpca(gen_rpca(20, 20, 2, 0.0, 0.05, 3.0, seed=0), 2)


def test_init_rpca_refuses_a_bad_rank_before_the_sparse_part(monkeypatch):
    # sparse_part densifies the residual and runs two full partitions; a rank
    # the estimate would refuse is refused before it.
    def unreachable(*args):
        raise AssertionError("ran sparse_part for a refused rank")

    monkeypatch.setattr(spectral, "sparse_part", unreachable)
    for n2 in (12, 10):  # symmetric and asymmetric truth
        inst = gen_rpca(12, n2, 2, 0.7, 0.05, 3.0, seed=1)
        for r in (0, n2 + 1):
            with pytest.raises(ValueError, match=r"^r must be |^need 1 <= r <= min\(n1, n2\)$"):
                init_rpca(inst, r)
    with pytest.raises(ValueError, match="^the symmetric route needs r < n$"):
        init_rpca(gen_rpca(12, 12, 2, 0.7, 0.05, 3.0, seed=1), 12)


# ---------------------------------------------------------------------------
# Robust PCA initialization
# ---------------------------------------------------------------------------

def test_hard_threshold_matches_brute_force():
    rng = core.make_rng(13)
    A = rng.permutation(np.arange(1.0, 37.0)).reshape(6, 6)
    A *= np.where(rng.standard_normal((6, 6)) > 0, 1.0, -1.0)
    mag = np.abs(A)
    for l in (1, 2, 3, 4):
        out = hard_threshold(A, l, l)
        expect = np.zeros_like(A)
        for i in range(6):
            for j in range(6):
                row_rank = np.sum(mag[i, :] > mag[i, j])
                col_rank = np.sum(mag[:, j] > mag[i, j])
                if row_rank < l and col_rank < l:
                    expect[i, j] = A[i, j]
        np.testing.assert_array_equal(out, expect)


def test_hard_threshold_keeps_ties_and_empties_at_zero():
    A = np.array([[3.0, 3.0, 1.0], [0.5, 0.2, 0.1], [0.4, 0.3, 0.2]])
    out = hard_threshold(A, 1, 1)
    np.testing.assert_array_equal(out, [[3.0, 3.0, 0], [0, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(hard_threshold(A, 0, 2), np.zeros((3, 3)))


def test_init_rpca_without_outliers_matches_completion_init():
    inst = gen_rpca(14, 14, 2, 0.6, 0.0, 5.0, seed=21)
    est, S0 = init_rpca(inst, 2)
    np.testing.assert_array_equal(S0, np.zeros((14, 14)))
    twin = ProblemInstance(
        "MatrixCompletionSym", 21,
        {"n1": 14, "n2": 14, "r": 2, "p": 0.6, "symmetric": True},
        inst.truth, {"mask": inst.design["mask"]}, inst.y.copy(),
    )
    mc = init_matrix_completion(twin, 2)
    np.testing.assert_array_equal(est.point.X, mc.point.X)


def test_init_rpca_retained_entries_are_top_l_both_axes():
    inst = gen_rpca(20, 20, 2, 0.8, 0.05, 10.0, seed=8)
    _, S0 = init_rpca(inst, 2)
    obs = np.zeros((20, 20))
    obs[inst.design["mask"]] = inst.y
    mag, smag = np.abs(obs), np.abs(S0)
    p = inst.params
    l_row = math.ceil(3.0 * p["alpha_out"] * p["p"] * p["n2"])
    l_col = math.ceil(3.0 * p["alpha_out"] * p["p"] * p["n1"])
    for i, j in zip(*np.nonzero(S0)):
        assert np.sum(mag[i, :] > smag[i, j]) < l_row
        assert np.sum(mag[:, j] > smag[i, j]) < l_col


# ---------------------------------------------------------------------------
# Sparse phase retrieval initialization
# ---------------------------------------------------------------------------

def _spiked_pr(n, m, seed):
    inst = gen_phase_retrieval(n, m, seed=seed)
    xs = np.zeros(n)
    xs[0] = 1.0
    inst.truth["x"] = xs
    inst.y = forward_model(inst)
    return inst


def test_init_sparse_pr_flags_the_planted_coordinate():
    # E[Y_ii] = ||x||^2 + 2 x_i^2 = 3 on the support, 1 off it
    for t in range(10):
        inst = _spiked_pr(32, 4096, seed=core.derive_seed(3, "spr", t))
        est, support = init_sparse_pr(inst, gamma=2.0)
        assert 0 in support
        off = np.delete(np.arange(32), support)
        assert np.all(est.point.x[off] == 0.0)
        assert np.any(est.point.x[support] != 0.0)


def test_init_sparse_pr_k_variant_and_errors():
    inst = _spiked_pr(16, 2048, seed=77)
    est, support = init_sparse_pr(inst, k=3)
    assert support.shape == (3,) and 0 in support
    assert np.all(np.diff(support) > 0)
    with pytest.raises(ValueError, match="empty support"):
        init_sparse_pr(inst, gamma=np.inf)
    with pytest.raises(ValueError):
        init_sparse_pr(inst, k=0)
    with pytest.raises(ValueError):
        init_sparse_pr(inst)


def test_init_sparse_pr_single_coordinate_support():
    # A 1 x 1 surrogate goes through the same eigensolver: the basis is [[1]],
    # the point is sqrt(mean y) on the one coordinate, and the gap is Y_00.
    inst = _spiked_pr(16, 2048, seed=77)
    est, support = init_sparse_pr(inst, k=1)
    assert support.tolist() == [0]
    y = inst.y
    want = np.zeros(16)
    want[0] = math.sqrt(max(float(np.mean(y)), 0.0))
    assert np.array_equal(est.point.x, want)
    (sub,) = est.subspaces
    assert np.array_equal(sub.basis, [[1.0]])
    Y00 = float(surrogate_quadratic(y, inst.design["A"][:, support])[0, 0])
    assert sub.values[0] == Y00 and sub.gap == Y00


# ---------------------------------------------------------------------------
# Phase synchronization initialization
# ---------------------------------------------------------------------------

def test_init_phase_sync_noiseless_is_exact_and_unimodular():
    inst = gen_phase_sync(25, 0.0, seed=14)
    x0 = init_phase_sync(inst).x
    np.testing.assert_allclose(np.abs(x0), 1.0, atol=1e-12)
    assert core.dist_vector(x0, inst.truth["x"]) < 1e-8


def test_init_phase_sync_noisy_hit_rate():
    n = 40
    sigma = 0.5 * math.sqrt(n / math.log(n))
    hits = 0
    for t in range(100):
        inst = gen_phase_sync(n, sigma, seed=core.derive_seed(3, "ps", t))
        x0 = init_phase_sync(inst).x
        xs = inst.truth["x"]
        hits += core.dist_vector(x0, xs) / np.linalg.norm(xs) < 0.3
    assert hits >= 90


def test_init_family_guards():
    pr = gen_phase_retrieval(6, 12, seed=0)
    with pytest.raises(ValueError):
        init_phase_sync(pr)
    with pytest.raises(ValueError):
        init_blind_deconv(pr)
    with pytest.raises(ValueError):
        init_quadratic_sensing(pr, 1)
    mc = gen_matrix_completion(6, 6, 1, 0.5, True, seed=0)
    with pytest.raises(ValueError):
        init_rpca(mc, 1)
    with pytest.raises(ValueError):
        init_sparse_pr(mc, k=1)
