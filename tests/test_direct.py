"""Tests for the subproblem-solve family: alternating least squares on
sensing and completion, Error Reduction, singular value projection, and the
projected power method.  Exact desk cases pin the update algebra; the Monte
Carlo batteries run at calibrated sizes with frozen seeds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowrank_ncvx.core import FactorPoint, derive_seed, dist_factors, dist_vector, make_rng
from lowrank_ncvx.direct import (
    _GRAM_CUT,
    AltMinConfig,
    SvpConfig,
    _batchable,
    _cond_bound,
    _decoupled_ls,
    altmin_mc,
    altmin_sensing,
    er_phase_retrieval,
    ppm,
    svp,
)
from lowrank_ncvx.gd import dist_to_truth, trace_row
from lowrank_ncvx.problems import (
    EntryGroups,
    ProblemInstance,
    _balanced,
    estimate_rip,
    gen_identity_sensing,
    gen_joint_alignment,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_phase_sync,
    gen_rpca,
    linear_operator,
    loss_and_grad,
    observed_entries,
)
from lowrank_ncvx.spectral import (
    init_matrix_completion,
    init_sensing,
    init_phase_retrieval,
    init_phase_sync,
)


def _interleaved(trace):
    # half-step loss then full loss, round by round
    chain = []
    for k in range(len(trace)):
        chain.append(trace.extras["half_loss"][k])
        chain.append(trace.loss[k])
    return np.asarray(chain)


def _assert_non_increasing(seq, scale=1.0):
    d = np.diff(np.asarray(seq))
    assert d.size == 0 or d.max() <= 1e-12 * max(abs(scale), 1.0)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def test_altmin_config_rejects_bad_fields():
    for kw in (
        {"max_outer": -1},
        {"max_outer": 2.5},
        {"inner_tol": 0.0},
        {"splits": 0},
        {"splits": 1.5},
        {"lam": -0.1},
        {"tol": -1.0},
    ):
        with pytest.raises(ValueError):
            AltMinConfig(**kw)


def test_svp_config_rejects_bad_fields():
    for kw in (
        {"r": 0},
        {"r": 1.5},
        {"eta": 0.0},
        {"eta": -1.0},
        {"max_iters": -1},
        {"tol": -1e-3},
    ):
        with pytest.raises(ValueError):
            SvpConfig(**dict({"r": 2}, **kw))


# ---------------------------------------------------------------------------
# Alternating least squares on sensing
# ---------------------------------------------------------------------------

def test_altmin_sensing_identity_design_exact_after_one_round():
    inst = gen_identity_sensing(6, 5, 2, seed=11)
    L0 = make_rng(derive_seed(11, "L0")).standard_normal((6, 2))
    L, R, tr = altmin_sensing(inst, L0, AltMinConfig(max_outer=1))
    assert np.linalg.norm(L @ R.T - inst.truth["M"]) < 1e-10
    assert tr.iters == [1]


def test_altmin_sensing_identity_design_round_stays_small():
    # The identity design's half-steps use Kronecker rows, O(m n r) memory,
    # rather than a dense m x n1 x n2 basis tensor (201 MiB at n = 60).
    inst = gen_identity_sensing(60, 60, 2, seed=5)
    L0 = make_rng(derive_seed(5, "L0")).standard_normal((60, 2))
    tracemalloc.start()
    try:
        L, R, _ = altmin_sensing(inst, L0, AltMinConfig(max_outer=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.linalg.norm(L @ R.T - inst.truth["M"]) < 1e-10


def test_altmin_sensing_guards():
    sym = gen_matrix_sensing(6, 6, 1, 40, True, seed=1)
    with pytest.raises(ValueError, match="asymmetric"):
        altmin_sensing(sym, np.ones((6, 1)))
    inst = gen_matrix_sensing(6, 5, 2, 80, False, seed=2)
    with pytest.raises(ValueError, match="exact on the full sample"):
        altmin_sensing(inst, np.ones((6, 2)), AltMinConfig(splits=2))
    with pytest.raises(ValueError, match="6 x r"):
        altmin_sensing(inst, np.ones((5, 2)))


def test_altmin_sensing_rank_deficient_errors():
    inst = gen_matrix_sensing(6, 5, 2, 80, False, seed=2)
    flat = np.ones((6, 2))  # rank-1 left factor degenerates the R system
    with pytest.raises(ValueError, match="right half-step.*rank-deficient"):
        altmin_sensing(inst, flat, AltMinConfig(max_outer=1))
    skinny = gen_matrix_sensing(6, 5, 2, 8, False, seed=3)  # m < n2 r
    L0 = make_rng(derive_seed(3, "L0")).standard_normal((6, 2))
    with pytest.raises(ValueError, match="rank-deficient"):
        altmin_sensing(skinny, L0, AltMinConfig(max_outer=1))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_altmin_sensing_non_finite_factor_ends_diverged(capfd):
    inst = gen_matrix_sensing(6, 5, 2, 80, False, seed=2)
    for bad in (np.nan, np.inf):
        _, _, tr = altmin_sensing(inst, np.full((6, 2), bad), AltMinConfig(max_outer=2))
        assert tr.outcome == "diverged" and tr.iters == [1]
    assert capfd.readouterr().err == ""  # no LAPACK complaints


def test_altmin_sensing_battery_and_monotone_half_steps():
    # n=20, r=2, m=12nr; exact-LS rounds keep the interleaved
    # half/full loss chain non-increasing.  Measured 100/100, median
    # 21 rounds to the 1e-22 loss floor.
    succ = 0
    for t in range(100):
        inst = gen_matrix_sensing(20, 20, 2, 480, False, derive_seed(303, "ams", t))
        L0 = make_rng(derive_seed(303, "ams0", t)).standard_normal((20, 2))
        L, R, tr = altmin_sensing(inst, L0, AltMinConfig(max_outer=30, tol=1e-22))
        succ += np.linalg.norm(L @ R.T - inst.truth["M"]) <= 1e-8
        chain = _interleaved(tr)
        _assert_non_increasing(chain, scale=chain[0])
    assert succ >= 90


def test_altmin_dist_reaches_zero_on_an_exact_recovery():
    # Alternating least squares leaves (L, R) unbalanced, which no rotation
    # undoes: the dist column once stalled at 0.507 here while L R^T met M*
    # to 2.5e-15.  The row measures the balanced factors of L R^T instead;
    # the iterate is left as it is.
    inst = gen_matrix_sensing(30, 30, 2, 1800, False, 0)
    L0 = init_sensing(inst, 2).point.L
    L, R, tr = altmin_sensing(inst, L0)
    M, t = inst.truth["M"], inst.truth
    scale = np.linalg.norm(np.vstack((t["L"], t["R"])))
    assert np.linalg.norm(L @ R.T - M) <= 1e-13 * np.linalg.norm(M)
    assert tr.dist[-1] <= 1e-12 * scale
    assert tr.dist[-1] == dist_factors(np.vstack(_balanced(L, R)), np.vstack((t["L"], t["R"])))
    Lb, Rb = _balanced(L, R)
    np.testing.assert_allclose(Lb.T @ Lb, Rb.T @ Rb, atol=1e-12 * scale**2)
    np.testing.assert_allclose(Lb @ Rb.T, L @ R.T, atol=1e-13 * np.linalg.norm(M))


# ---------------------------------------------------------------------------
# Error Reduction
# ---------------------------------------------------------------------------

def test_er_truth_is_fixed_point():
    inst = gen_phase_retrieval(64, 512, seed=7)
    xs = inst.truth["x"]
    x, tr = er_phase_retrieval(inst, xs, AltMinConfig(max_outer=3))
    # sqrt of a squared double is exact, so the sign fit reproduces Ax*
    # and only least-squares roundoff moves the iterate
    assert tr.loss[0] == 0.0
    assert dist_vector(x, xs) < 1e-12 * np.linalg.norm(xs)


def test_er_guards():
    mc = gen_matrix_completion(8, 8, 2, 0.5, False, seed=1)
    with pytest.raises(ValueError, match="phase retrieval"):
        er_phase_retrieval(mc, np.ones(8))
    inst = gen_phase_retrieval(16, 64, seed=2)
    with pytest.raises(ValueError, match="no sampling variants"):
        er_phase_retrieval(inst, np.ones(16), AltMinConfig(lam=1.0))


def test_er_battery_monotone_and_recovers():
    # n=64, m=8n, plain spectral init.  Measured 100/100 with median 5
    # sign/solve rounds to the 1e-18 loss floor.
    succ = 0
    for t in range(100):
        inst = gen_phase_retrieval(64, 512, seed=derive_seed(303, "er", t))
        x0 = init_phase_retrieval(inst).point.x
        x, tr = er_phase_retrieval(inst, x0, AltMinConfig(max_outer=100, tol=1e-18))
        rel = dist_vector(x, inst.truth["x"]) / np.linalg.norm(inst.truth["x"])
        succ += rel < 1e-6
        _assert_non_increasing(tr.loss, scale=tr.loss[0])
        assert tr.iters[0] == 0  # row zero records the start point
    assert succ >= 90


# ---------------------------------------------------------------------------
# Alternating least squares on completion
# ---------------------------------------------------------------------------

def test_altmin_mc_full_observation_exact_after_one_round():
    inst = gen_matrix_completion(8, 7, 2, 1.0, False, seed=3)
    L0 = make_rng(derive_seed(3, "L0")).standard_normal((8, 2))
    L, R, tr = altmin_mc(inst, L0, AltMinConfig(max_outer=1))
    assert np.linalg.norm(L @ R.T - inst.truth["M"]) < 1e-10


@pytest.mark.parametrize("make, solver", [
    (lambda: gen_matrix_completion(30, 24, 2, 0.5, False, seed=5), altmin_mc),
    (lambda: gen_matrix_sensing(6, 5, 2, 80, False, seed=5), altmin_sensing),
])
def test_half_step_loss_is_the_plain_risk_bit_for_bit(make, solver):
    inst = make()
    L0 = make_rng(derive_seed(5, "L0")).standard_normal((inst.params["n1"], 2))
    _, R1, tr = solver(inst, L0, AltMinConfig(max_outer=1))
    assert tr.extras["half_loss"][0] == loss_and_grad(inst, FactorPoint.asym(L0, R1))[0]


def test_completion_row_and_altmin_round_stay_entry_sized():
    # At n = 3000 and p = 0.002 the n1 x n2 model would take 72 MB; a
    # completion row (loss, gradient, trace fields) and an AltMin round
    # allocate O((|Omega| + n1 + n2) r).  A band of r entries per row and
    # column lets every AltMin group see r observations.
    n, r = 3000, 3
    inst = gen_matrix_completion(n, n, r, 0.002, False, seed=7)
    rng = make_rng(derive_seed(7, "L0"))
    point = FactorPoint.asym(rng.standard_normal((n, r)), rng.standard_normal((n, r)))
    mask = inst.design["mask"].copy()
    for k in range(r):
        mask[np.arange(n), (np.arange(n) + k) % n] = True
    banded = ProblemInstance("MatrixCompletionAsym", 7, dict(inst.params), inst.truth,
                             {"mask": mask}, inst.truth["M"][mask])
    loss_and_grad(inst, point)  # builds the observed index and imports scipy.sparse
    linear_operator(banded)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def row():
        val, grad = loss_and_grad(inst, point)
        trace_row(inst, point, val, grad)

    for run, entries in ((row, inst.y.shape[0]), (
            lambda: altmin_mc(banded, point.L, AltMinConfig(max_outer=1)), banded.y.shape[0])):
        used = peak(run)
        assert used <= 16 * 8 * r * (entries + 2 * n), used
        assert used <= n * n * 8 / 16, used


def test_altmin_mc_guards_and_starved_indices():
    sym = gen_matrix_completion(8, 8, 2, 0.9, True, seed=1)
    with pytest.raises(ValueError, match="asymmetric"):
        altmin_mc(sym, np.ones((8, 2)))
    L0 = make_rng(derive_seed(5, "L0")).standard_normal((8, 2))
    starved_col = gen_matrix_completion(8, 7, 2, 1.0, False, seed=5)
    mask = starved_col.design["mask"].copy()
    mask[1:, 4] = False
    starved_col.design["mask"] = mask
    starved_col.y = starved_col.truth["M"][mask]
    with pytest.raises(ValueError, match="column 4 has fewer than 2"):
        altmin_mc(starved_col, L0, AltMinConfig(max_outer=2))
    starved_row = gen_matrix_completion(8, 7, 2, 1.0, False, seed=5)
    mask = starved_row.design["mask"].copy()
    mask[2, 1:] = False
    starved_row.design["mask"] = mask
    starved_row.y = starved_row.truth["M"][mask]
    with pytest.raises(ValueError, match="row 2 has fewer than 2"):
        altmin_mc(starved_row, L0, AltMinConfig(max_outer=2))


def _full_completion_with_mask(mask):
    # The fully observed 8 x 7 rank-2 instance of seed 5, restricted to mask.
    inst = gen_matrix_completion(8, 7, 2, 1.0, False, seed=5)
    inst.design["mask"] = mask
    inst.y = inst.truth["M"][mask]
    return inst


def _collinear_start():
    # Rows 0-2 of this start are multiples of one vector.
    L0 = make_rng(derive_seed(5, "L0")).standard_normal((8, 2))
    L0[:3] = np.outer([1.0, -2.0, 0.5], L0[0])
    return L0


def test_altmin_mc_collinear_observed_rows_are_rank_deficient():
    # Column 4 sees rows 0-2 only: enough rows for r = 2, but collinear ones.
    mask = np.ones((8, 7), dtype=bool)
    mask[3:, 4] = False
    with pytest.raises(ValueError, match="column 4 normal equations are rank-deficient"):
        altmin_mc(_full_completion_with_mask(mask), _collinear_start(),
                  AltMinConfig(max_outer=1))


def test_altmin_mc_error_names_the_lowest_failing_group():
    # One column sees only collinear rows, another one row: the lower raises.
    for collinear, starved, message in ((2, 5, "column 2 normal equations are rank-deficient"),
                                        (5, 2, "column 2 has fewer than 2 observations")):
        mask = np.ones((8, 7), dtype=bool)
        mask[3:, collinear] = False
        mask[1:, starved] = False
        with pytest.raises(ValueError, match=message):
            altmin_mc(_full_completion_with_mask(mask), _collinear_start(),
                      AltMinConfig(max_outer=1))


def test_altmin_mc_non_finite_factor_ends_diverged(capfd):
    inst = gen_matrix_completion(30, 30, 2, 0.5, False, 1)
    for bad in (np.nan, np.inf):
        for kw in ({}, {"splits": 2}, {"lam": 1e-6}):
            _, _, tr = altmin_mc(inst, np.full((30, 2), bad),
                                 AltMinConfig(max_outer=2, **kw))
            assert tr.outcome == "diverged" and tr.iters == [1]
    assert capfd.readouterr().err == ""  # no LAPACK complaints


def _lstsq_half_step(basis, groups, r, rcond=1e-10):
    # One lstsq per group: the reference that the batched half-step follows.
    ptr = groups.ptr
    sol = np.empty((ptr.shape[0] - 1, r))
    for j in range(sol.shape[0]):
        sol[j] = np.linalg.lstsq(basis[groups.other[ptr[j]:ptr[j + 1]]],
                                 groups.vals[ptr[j]:ptr[j + 1]], rcond=rcond)[0]
    return sol


def test_altmin_mc_half_steps_match_per_group_lstsq():
    inst = gen_matrix_completion(60, 50, 3, 0.3, False, seed=17)
    rows, cols = observed_entries(inst)
    by_col = EntryGroups.of(cols, rows, inst.y, 50)
    by_row = EntryGroups.of(rows, cols, inst.y, 60)
    L = make_rng(derive_seed(17, "L0")).standard_normal((60, 3))
    for _ in range(4):
        R = _decoupled_ls(L, by_col, "column", 3, 1e-10)
        ref = _lstsq_half_step(L, by_col, 3)
        assert np.max(np.abs(R - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert not np.array_equal(R, ref)  # the batched solve did run
        L = _decoupled_ls(R, by_row, "row", 3, 1e-10)
        ref = _lstsq_half_step(R, by_row, 3)
        assert np.max(np.abs(L - ref)) <= 1e-12 * np.max(np.abs(ref))
    for scale in (1e150, 1e-150):
        ref = _lstsq_half_step(scale * L, by_col, 3)
        R = _decoupled_ls(scale * L, by_col, "column", 3, 1e-10)
        assert np.max(np.abs(R - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_ridge_half_step_matches_the_dense_normal_equations():
    # r = 2.  Column 0 sees nothing, column 1 one entry, column 2 two nearly
    # parallel rows (Gram + lam I has condition ~2e4, past the certificate);
    # columns 3-7 see four random rows each.
    r, lam = 2, 1e-4
    rng = make_rng(8)
    basis = np.vstack([[[1.0, 2.0], [1.0, 0.0], [1.0, 1e-9]],
                       rng.standard_normal((20, r))])
    key = np.concatenate([[1, 2, 2], np.repeat(np.arange(3, 8), 4)])
    vals = rng.standard_normal(key.shape[0])
    groups = EntryGroups.of(key, np.arange(key.shape[0]), vals, 8)
    gram, rhs = groups.normal_equations(basis)
    batch, _ = _batchable(gram + lam * np.eye(r), rhs, np.diff(groups.ptr) + r, 1e-10)
    assert batch.tolist() == [True, False, False] + [True] * 5
    sol = _decoupled_ls(basis, groups, "column", r, 1e-10, lam)
    for k in range(8):
        B = basis[groups.other[groups.ptr[k]:groups.ptr[k + 1]]]
        v = groups.vals[groups.ptr[k]:groups.ptr[k + 1]]
        ref = np.linalg.solve(B.T @ B + lam * np.eye(r), B.T @ v)
        assert np.linalg.norm(sol[k] - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.array_equal(sol[0], np.zeros(r))


def test_altmin_mc_ill_conditioned_group_falls_back_to_lstsq():
    # Group 1 sees basis rows with condition number ~1e6: lstsq accepts them
    # at rcond 1e-10, while its normal equations would lose ~1e-4 relative.
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0],
                      [1.0, 0.0], [1.0, 1e-6], [1.0, -1e-6], [1.0, 2e-6]])
    key = np.repeat([0, 1], 4)
    vals = make_rng(3).standard_normal(8)
    groups = EntryGroups.of(key, np.arange(8), vals, 2)
    sol = _decoupled_ls(basis, groups, "column", 2, 1e-10)
    ref = _lstsq_half_step(basis, groups, 2)
    assert np.linalg.cond(basis[4:]) == pytest.approx(1e6, rel=0.5)
    assert np.array_equal(sol[1], ref[1])
    assert np.max(np.abs(sol[0] - ref[0])) <= 1e-12 * np.max(np.abs(ref[0]))


def test_altmin_mc_half_step_follows_lstsq_at_a_large_rcond():
    # At rcond 0.5, lstsq keeps singular value ratio 0.51 and rejects 0.49.
    groups = EntryGroups.of(np.zeros(2, dtype=int), np.arange(2), np.array([1.0, 2.0]), 1)
    kept = np.diag([1.0, 0.51])
    assert np.array_equal(_decoupled_ls(kept, groups, "column", 2, 0.5),
                          _lstsq_half_step(kept, groups, 2, rcond=0.5))
    with pytest.raises(ValueError, match="column 0 normal equations are rank-deficient"):
        _decoupled_ls(np.diag([1.0, 0.49]), groups, "column", 2, 0.5)


_EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.floats(0.0, 14.0), st.floats(-100.0, 100.0),
       st.integers(0, 2**32 - 1))
def test_cholesky_bound_brackets_the_condition_number(r, log_kappa, log_scale, seed):
    # G = Q diag(lam) Q^T with eigenvalues 1 and kappa (for r > 1) and the
    # rest between them, times 10^log_scale.
    rng = make_rng(seed)
    lam = np.exp(rng.uniform(0.0, log_kappa * math.log(10.0), r))
    lam[0] = 1.0
    if r > 1:
        lam[1] = 10.0 ** log_kappa
    Q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    gram = (Q * (lam * 10.0 ** log_scale)) @ Q.T
    gram = 0.5 * (gram + gram.T)
    w = np.linalg.eigvalsh(gram)
    assert w[0] > 0.0
    kappa = w[-1] / w[0]
    # Both sides carry rounding of relative size ~ r eps kappa.
    slack = 32 * r * _EPS * kappa
    bound = _cond_bound(gram[None])[0][0]
    assert bound >= kappa * (1.0 - slack)
    if kappa <= 1e8:
        assert bound <= r**1.5 * kappa * (1.0 + slack)


def test_cholesky_bound_flags_a_singular_or_indefinite_gram_on_its_own():
    good = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    indefinite = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    stack = np.stack([good, singular, indefinite, np.zeros((3, 3)), 4.0 * good])
    bound, _ = _cond_bound(stack, limit=5e3)
    assert np.isinf(bound[1:4]).all()
    assert bound[0] == bound[4] == _cond_bound(good[None])[0][0]
    w = np.linalg.eigvalsh(good)
    assert w[-1] / w[0] <= bound[0] <= 3**1.5 * w[-1] / w[0]


def test_altmin_mc_uncertified_group_reaches_lstsq():
    # Column 1 sees rows 2-4: exactly collinear, a zero Cholesky pivot.
    # Column 2 sees rows 5-6, nearly parallel: a pivot far below the Gram's
    # norm that lstsq still accepts at rcond 1e-10.
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0],
                      [3.0, 3.0], [1.0, 0.0], [1.0, 1e-9]])
    key = np.array([0, 0, 1, 1, 1, 2, 2])
    vals = make_rng(4).standard_normal(7)
    groups = EntryGroups.of(key, np.arange(7), vals, 3)
    gram, rhs = groups.normal_equations(basis)
    assert _batchable(gram, rhs, np.diff(groups.ptr), 1e-10)[0].tolist() == [True, False, False]
    with pytest.raises(ValueError, match="column 1 normal equations are rank-deficient"):
        _decoupled_ls(basis, groups, "column", 2, 1e-10)
    keep = key != 1
    groups = EntryGroups.of(np.where(key[keep] == 2, 1, 0), np.flatnonzero(keep), vals[keep], 2)
    sol = _decoupled_ls(basis, groups, "column", 2, 1e-10)
    ref = _lstsq_half_step(basis, groups, 2)
    assert np.array_equal(sol[1], ref[1])
    assert np.max(np.abs(sol[0] - ref[0])) <= 1e-12 * np.max(np.abs(ref[0]))


def _eigvalsh_batch(gram, rhs, counts, rcond):
    # The classification by eigenvalues that the Cholesky bound replaced,
    # less its range test, which every Gram here passes.
    r = gram.shape[1]
    batch = (counts >= r) & np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    w = np.linalg.eigvalsh(gram[batch])
    batch[batch] = w[:, 0] > max(_GRAM_CUT, 4.0 * rcond * rcond) * w[:, -1]
    return batch


@pytest.mark.parametrize("n, r, p, seed, moved", [
    (200, 4, 0.04, 1, 1),  # Gram condition up to 3.7e3
    (200, 4, 0.03, 2, 1),  # up to 6.2e3
    (300, 5, 0.04, 3, 0),  # up to 353
    (200, 3, 0.3, 4, 0),   # up to 3.4
])
def test_certified_batch_is_within_the_eigenvalue_rule(n, r, p, seed, moved):
    inst = gen_matrix_completion(n, n, r, p, False, seed)
    rows, cols = observed_entries(inst)
    groups = EntryGroups.of(cols, rows, inst.y, n)
    L = make_rng(derive_seed(seed, "L0")).standard_normal((n, r))
    gram, rhs = groups.normal_equations(L)
    counts = np.diff(groups.ptr)
    ours, _ = _batchable(gram, rhs, counts, 1e-10)
    theirs = _eigvalsh_batch(gram, rhs, counts, 1e-10)
    assert not (ours & ~theirs).any()
    # Groups with condition below 1e4 / (2 r^1.5) are always certified.
    w = np.linalg.eigvalsh(gram[theirs])
    assert ours[theirs][w[:, -1] < 1e4 / (2 * r**1.5) * w[:, 0]].all()
    assert np.count_nonzero(theirs & ~ours) == moved


def test_altmin_mc_sample_split_round_uses_its_part():
    # Round one of a T=3 split must match a reuse round on the instance
    # whose mask is exactly the first round-robin part.
    inst = gen_matrix_completion(8, 7, 2, 1.0, False, seed=3)
    L0 = make_rng(derive_seed(3, "L0")).standard_normal((8, 2))
    order = np.argwhere(inst.design["mask"])
    part0 = np.zeros_like(inst.design["mask"])
    pos = order[0::3]
    part0[pos[:, 0], pos[:, 1]] = True
    sub = gen_matrix_completion(8, 7, 2, 1.0, False, seed=3)
    sub.design["mask"] = part0
    sub.y = sub.truth["M"][part0]
    La, Ra, _ = altmin_mc(inst, L0, AltMinConfig(max_outer=1, splits=3))
    Lb, Rb, _ = altmin_mc(sub, L0, AltMinConfig(max_outer=1))
    assert np.array_equal(La, Lb) and np.array_equal(Ra, Rb)


def test_altmin_mc_sample_split_can_starve_a_column():
    # On an even width the row-major round-robin with T=2 gives part 0
    # only the even columns, so the odd ones trip the observation check.
    inst = gen_matrix_completion(8, 8, 2, 1.0, False, seed=3)
    L0 = make_rng(derive_seed(3, "L0")).standard_normal((8, 2))
    with pytest.raises(ValueError, match="column 1 has fewer than 2"):
        altmin_mc(inst, L0, AltMinConfig(max_outer=2, splits=2))


def test_altmin_mc_regularized_variant_converges():
    inst = gen_matrix_completion(8, 7, 2, 1.0, False, seed=3)
    L0 = make_rng(derive_seed(3, "L0")).standard_normal((8, 2))
    nrm = np.linalg.norm(inst.truth["M"])
    L, R, _ = altmin_mc(inst, L0, AltMinConfig(max_outer=30, lam=1e-8, inner_tol=1e-12))
    assert np.linalg.norm(L @ R.T - inst.truth["M"]) / nrm < 1e-6
    part = gen_matrix_completion(30, 30, 2, 0.5, False, seed=9)
    L0b = make_rng(derive_seed(9, "L0")).standard_normal((30, 2))
    L, R, _ = altmin_mc(part, L0b, AltMinConfig(max_outer=40, lam=1e-6, inner_tol=1e-10))
    rel = np.linalg.norm(L @ R.T - part.truth["M"]) / np.linalg.norm(part.truth["M"])
    assert rel < 1e-5


def test_altmin_mc_battery_reuse():
    # n=60, r=2, p=0.35, spectral start.  Measured 100/100, median 30
    # rounds; the full-mask residual chain stays non-increasing.
    succ = 0
    for t in range(100):
        inst = gen_matrix_completion(60, 60, 2, 0.35, False, derive_seed(303, "amc", t))
        L0 = init_matrix_completion(inst, 2).point.L
        L, R, tr = altmin_mc(inst, L0, AltMinConfig(max_outer=50, tol=1e-20))
        rel = np.linalg.norm(L @ R.T - inst.truth["M"]) / np.linalg.norm(inst.truth["M"])
        succ += rel < 1e-6
        chain = _interleaved(tr)
        _assert_non_increasing(chain, scale=chain[0])
    assert succ >= 85


# ---------------------------------------------------------------------------
# Singular value projection
# ---------------------------------------------------------------------------

def test_svp_guards():
    pr = gen_phase_retrieval(8, 32, seed=1)
    with pytest.raises(ValueError, match="sensing and completion"):
        svp(pr, SvpConfig(r=1))
    mc = gen_matrix_completion(8, 8, 2, 0.5, False, seed=1)
    with pytest.raises(ValueError, match="SvpConfig"):
        svp(mc, AltMinConfig())
    # r above min(n1, n2) used to run, its (8, 9) iterate turning (8, 6)
    with pytest.raises(ValueError, match=r"^need 1 <= r <= min\(n1, n2\)$"):
        svp(gen_matrix_completion(8, 6, 2, 0.8, False, 1), SvpConfig(r=9))


def test_svp_loss_column_is_twice_the_plain_risk():
    inst = gen_matrix_completion(9, 7, 2, 0.6, False, seed=4)
    M, tr = svp(inst, SvpConfig(r=2, max_iters=2))
    U, s, Vt = np.linalg.svd(M)
    plain, _ = loss_and_grad(inst, FactorPoint.asym(U[:, :2] * s[:2], Vt[:2].T))
    assert tr.loss[-1] == pytest.approx(2.0 * plain, rel=1e-12)


def test_svp_identity_design_single_step():
    inst = gen_identity_sensing(6, 5, 2, seed=13)
    M, tr = svp(inst, SvpConfig(r=2, eta=1.0, max_iters=1))
    assert np.abs(M - inst.truth["M"]).max() < 1e-12
    assert tr.extras["rank"] == [0, 2]
    # the default step resolves to 1 as well: identity probes report
    # delta_hat exactly 0
    M2, _ = svp(inst, SvpConfig(r=2, max_iters=1))
    np.testing.assert_array_equal(M, M2)


def test_svp_full_observation_single_step():
    inst = gen_matrix_completion(9, 9, 2, 1.0, False, seed=4)
    M, tr = svp(inst, SvpConfig(r=2, max_iters=1))
    assert np.abs(M - inst.truth["M"]).max() < 1e-12


def test_svp_completion_battery_at_saturated_rate():
    # n=80, r=2 with n^2 p = 40 r^2 n log(n)/6 pushes p past 1, so the
    # clamped rate observes everything and one projected step recovers
    # the truth exactly on every seed.
    p = min(1.0, 40 * 4 * math.log(80) / (6 * 80))
    assert p == 1.0
    succ = 0
    for t in range(100):
        inst = gen_matrix_completion(80, 80, 2, p, False, derive_seed(303, "svpt", t))
        M, tr = svp(inst, SvpConfig(r=2, max_iters=200, tol=1e-18))
        succ += np.abs(M - inst.truth["M"]).max() <= 1e-6
        assert tr.outcome == "converged" and len(tr) <= 3
    assert succ >= 85


def test_svp_completion_battery_partial_observation():
    # Companion run where iteration actually happens: p=0.4, eta=1.
    # Measured 93/100 within 300 steps (median 120); every iterate keeps
    # rank at most r by construction.
    succ = 0
    for t in range(100):
        inst = gen_matrix_completion(80, 80, 2, 0.4, False, derive_seed(303, "svpc", t))
        M, tr = svp(inst, SvpConfig(r=2, max_iters=300, tol=1e-18))
        succ += np.abs(M - inst.truth["M"]).max() <= 1e-6
        assert max(tr.extras["rank"]) <= 2
    assert succ >= 85


def test_svp_sensing_contracts_inside_rip_regime():
    # n=12, r=1, m=500 Gaussian sensing: measured delta_hat for rank 2
    # stays below 1/3 (max 0.194) and every run contracts per step
    # (worst ratio 0.52) down to the loss floor.
    contracting = 0
    for t in range(50):
        inst = gen_matrix_sensing(12, 12, 1, 500, False,
                                  derive_seed(303, "svps", 500, t))
        assert estimate_rip(inst, 2, 20, 0).delta_hat < 1 / 3
        M, tr = svp(inst, SvpConfig(r=1, max_iters=100, tol=1e-24))
        d = np.asarray(tr.dist)
        dd = d[d > 1e-10 * d[0]]
        ratios = dd[1:] / dd[:-1]
        good = len(ratios) > 3 and ratios.max() < 0.65
        contracting += good and tr.dist[-1] < 1e-8 * d[0]
    assert contracting >= 45


# ---------------------------------------------------------------------------
# Projected power method
# ---------------------------------------------------------------------------

def test_ppm_guards():
    pr = gen_phase_retrieval(8, 32, seed=1)
    with pytest.raises(ValueError, match="phase"):
        ppm(pr, np.ones(8))
    inst = gen_phase_sync(6, 0.1, seed=1)
    with pytest.raises(ValueError, match="max_iters"):
        ppm(inst, np.ones(6), max_iters=-1)
    with pytest.raises(ValueError, match="max_iters"):
        ppm(inst, np.ones(6), max_iters=2.5)


def test_ppm_noiseless_sync_fixed_point():
    inst = gen_phase_sync(12, 0.0, seed=5)
    x, tr = ppm(inst, inst.truth["x"], max_iters=5)
    assert dist_to_truth(inst, FactorPoint("vector", (x,))) < 1e-10
    assert tr.iters[0] == 0


def test_ppm_projection_zeros_and_ties():
    inst = gen_phase_sync(6, 0.1, seed=2)
    x, _ = ppm(inst, np.zeros(6, dtype=complex), max_iters=0)
    np.testing.assert_array_equal(x, np.ones(6, dtype=complex))
    ja = gen_joint_alignment(5, 3, 0.0, seed=2)
    x, _ = ppm(ja, np.ones(15), max_iters=0)  # all-tied blocks pick symbol 0
    np.testing.assert_array_equal(x.reshape(5, 3),
                                  np.tile([1.0, 0.0, 0.0], (5, 1)))


@given(st.lists(st.floats(-5, 5), min_size=24, max_size=24))
@example([0.0] * 12 + [5e-324] + [0.0] * 11)
@example([0.0] * 7 + [2.2250738585e-313] + [0.0] * 11 + [2.2250738585e-313] + [0.0] * 4)
@settings(max_examples=60, deadline=None)
def test_ppm_sync_projection_feasible_idempotent(vals):
    inst = gen_phase_sync(12, 0.3, seed=4)
    v = np.asarray(vals[:12]) + 1j * np.asarray(vals[12:])
    x, _ = ppm(inst, v, max_iters=0)
    assert np.all(np.abs(np.abs(x) - 1.0) < 1e-12)
    again, _ = ppm(inst, x, max_iters=0)
    # re-projection renormalizes by a modulus of 1 +/- ulp, so equality
    # holds to roundoff rather than bitwise
    assert np.max(np.abs(again - x)) < 1e-14


@given(st.lists(st.floats(-5, 5), min_size=15, max_size=15))
@settings(max_examples=60, deadline=None)
def test_ppm_alignment_projection_feasible_idempotent(vals):
    inst = gen_joint_alignment(5, 3, 0.1, seed=4)
    x, _ = ppm(inst, np.asarray(vals), max_iters=0)
    blocks = x.reshape(5, 3)
    assert np.all(blocks.sum(axis=1) == 1.0)
    assert np.all((blocks == 0.0) | (blocks == 1.0))
    again, _ = ppm(inst, x, max_iters=0)
    assert np.array_equal(again, x)


def test_ppm_objective_monotone_at_large_step():
    # Power-method regime (the projection is scale invariant, so every step
    # is large): Re x^H L x never decreases beyond roundoff (measured worst
    # dip 6e-16 relative).
    for t in range(20):
        n = 20
        sig = 0.3 * math.sqrt(n / math.log(n))
        inst = gen_phase_sync(n, sig, seed=derive_seed(909, "mono", t))
        x0 = init_phase_sync(inst).x
        _, tr = ppm(inst, x0, max_iters=60)
        obj = -np.asarray(tr.loss)
        assert np.diff(obj).min() >= -1e-12 * np.abs(obj).max()


def test_ppm_sync_battery_settles_near_optimum():
    # sigma = 0.3 sqrt(n/log n) at n=40: the optimum sits Theta(sigma)
    # from the truth, so success means the 100-step iterate has settled
    # onto the 400-step fixed point and recovered macroscopically.
    n = 40
    sig = 0.3 * math.sqrt(n / math.log(n))
    succ = 0
    for t in range(100):
        inst = gen_phase_sync(n, sig, seed=derive_seed(505, "ps", t))
        x0 = init_phase_sync(inst).x
        x100, _ = ppm(inst, x0, max_iters=100)
        x400, _ = ppm(inst, x0, max_iters=400)
        settled = dist_vector(x100, x400) < 1e-3 * math.sqrt(n)
        close = dist_to_truth(inst, FactorPoint("vector", (x100,))) < 0.5 * math.sqrt(n)
        succ += settled and close
    assert succ >= 85


def test_ppm_alignment_battery_exact_recovery():
    # n=12 nodes, 3 symbols, 5% flips; mismatch 0.0 means exact up to
    # the undetermined global shift.  Measured 100/100, typically one
    # step from the eigenvector start.
    succ = 0
    for t in range(100):
        inst = gen_joint_alignment(12, 3, 0.05, seed=derive_seed(505, "ja", t))
        x0 = np.linalg.eigh(inst.design["L"])[1][:, -1]
        x, tr = ppm(inst, x0, max_iters=50)
        succ += dist_to_truth(inst, FactorPoint("vector", (x,))) == 0.0
        assert tr.outcome == "converged"
    assert succ >= 85
