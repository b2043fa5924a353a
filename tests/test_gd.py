"""Tests for the descent engine: desk-scale contraction against the known
rank-1 rate, outcome labeling, projection and truncation oracles, geodesic and
mini-batch single steps, and the Monte Carlo batteries at calibrated sizes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank_ncvx import core
from lowrank_ncvx.core import FactorPoint, derive_seed, make_rng
from lowrank_ncvx.direct import grassmann_step
from lowrank_ncvx.gd import (
    DEFAULT_TWF_THRESHOLDS,
    SolverConfig,
    default_step_size,
    dist_to_truth,
    fitted_rate,
    incoherence_proxy,
    make_incoherent_projector,
    median_mask,
    project_incoherent,
    project_l1,
    project_sparse_k,
    regularity_witness,
    run_gd,
    run_rpca,
    run_truncated_gd,
    sgd_step,
    twf_mask,
)
from lowrank_ncvx.problems import (
    ProblemInstance,
    alignment_mismatch,
    corrupt_outliers,
    gen_blind_deconv,
    gen_joint_alignment,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_phase_sync,
    gen_quadratic_sensing,
    gen_rpca,
    loss_and_grad,
)
from lowrank_ncvx.spectral import (
    Preprocessing,
    init_blind_deconv,
    init_matrix_completion,
    init_phase_retrieval,
    init_quadratic_sensing,
    init_rpca,
    init_sensing,
)


def _rank1_factorization_desk():
    # f(x) = 1/4 ||xx^T - M||_F^2 as a fully observed completion instance;
    # the truth slot carries sqrt(2) e1 so the trace dist tracks the
    # distance the rank-1 contraction bound speaks about.
    M = np.diag([2.0, 1.0])
    mask = np.ones((2, 2), dtype=bool)
    xs = np.array([[math.sqrt(2.0)], [0.0]])
    return ProblemInstance(
        "MatrixCompletionSym", 0,
        {"n1": 2, "n2": 2, "r": 1, "p": 1.0, "symmetric": True},
        {"X": xs, "M": M, "sigma": np.array([2.0])},
        {"mask": mask}, M[mask],
    )


def _pr_run(inst, eta_scale=0.1, max_iters=500, truncated=False, **kw):
    est = init_phase_retrieval(inst)
    nx = float(np.linalg.norm(inst.truth["x"]))
    eta = eta_scale / float(est.point.x @ est.point.x)
    cfg = SolverConfig(eta=eta, max_iters=max_iters, dist_tol=1e-7 * nx, **kw)
    runner = run_truncated_gd if truncated else run_gd
    _, trace = runner(inst, est.point, cfg)
    return trace, nx


# ---------------------------------------------------------------------------
# Configuration and default steps
# ---------------------------------------------------------------------------

def test_config_rejects_bad_fields():
    for kw in (
        {"eta": 0.0},
        {"eta": -1.0},
        {"max_iters": -1},
        {"max_iters": 2.5},
        {"grad_tol": -1e-9},
        {"loss": "huber"},
        {"twf_thresholds": (1.0, 0.5, 5.0)},
        {"twf_thresholds": (0.1, 0.5, 0.0)},
        {"median_factor": 0.0},
        {"batch_k": 0},
        {"project": 7},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**kw)


def test_default_step_closed_forms():
    inst = gen_phase_retrieval(10, 60, seed=1)
    x0 = FactorPoint.vector(np.array([1.0, 2.0] + [0.0] * 8))
    assert default_step_size(inst, x0) == pytest.approx(0.1 / 5.0)

    mc = gen_matrix_completion(8, 8, 1, 1.0, True, seed=2)
    X0 = np.zeros((8, 1))
    X0[0, 0] = 2.0
    assert default_step_size(mc, FactorPoint.sym(X0)) == pytest.approx(1 / 18.0)

    sens1 = gen_matrix_sensing(8, 8, 1, 30, True, seed=3)
    assert default_step_size(sens1, FactorPoint.sym(X0)) == pytest.approx(1 / 12.0)

    sens2 = gen_matrix_sensing(8, 8, 2, 30, True, seed=4)
    X2 = np.zeros((8, 2))
    X2[0, 0] = 2.0
    X2[1, 1] = 1.0
    assert default_step_size(sens2, FactorPoint.sym(X2)) == pytest.approx(0.4 / 4.0)

    mcp = gen_matrix_completion(8, 8, 2, 0.5, True, seed=5)
    assert default_step_size(mcp, FactorPoint.sym(X2)) == pytest.approx(0.25 / 4.0)

    qs = gen_quadratic_sensing(8, 2, 200, seed=6)
    lam1, kap = 4.0, 4.0
    want = 1.0 / ((2 * kap + math.log(8)) ** 2 * lam1)
    assert default_step_size(qs, FactorPoint.sym(X2)) == pytest.approx(want)

    bd = gen_blind_deconv(4, 4, 64, seed=7)
    est = init_blind_deconv(bd)
    assert default_step_size(bd, est.point) == 0.1

    # Asymmetric inits read sigma_1 as ||L||_2 ||R||_2 = 2 * 3.
    L0, R0 = X2.copy(), np.zeros((8, 2))
    R0[0, 0] = 3.0
    asym = FactorPoint.asym(L0, R0)
    sens_a = gen_matrix_sensing(8, 8, 2, 30, False, seed=8)
    assert default_step_size(sens_a, asym) == pytest.approx(0.4 / 6.0)
    mc_a = gen_matrix_completion(8, 8, 2, 0.5, False, seed=9)
    assert default_step_size(mc_a, asym) == pytest.approx(0.25 / 6.0)

    # Robust PCA keeps 0.25 / sigma_1, also for a rank-1 symmetric init at
    # p = 1: the 1 / 4.5 constant is symmetric completion's alone.
    rp = gen_rpca(8, 8, 1, 1.0, 0.05, 3.0, seed=10)
    assert default_step_size(rp, FactorPoint.sym(X0)) == pytest.approx(0.25 / 4.0)
    rp_a = gen_rpca(8, 6, 2, 0.5, 0.05, 3.0, seed=11)
    assert default_step_size(rp_a, FactorPoint.asym(L0, R0[:6])) == pytest.approx(0.25 / 6.0)

    with pytest.raises(ValueError):
        default_step_size(sens2, FactorPoint.vector(np.ones(8)))


def test_default_step_refuses_nonsmooth_families():
    ps = gen_phase_sync(6, 0.1, seed=0)
    with pytest.raises(ValueError, match="no default step"):
        default_step_size(ps, FactorPoint.vector(np.ones(6)))
    ja = gen_joint_alignment(5, 3, 0.1, seed=0)
    with pytest.raises(ValueError, match="no default step"):
        default_step_size(ja, FactorPoint.vector(np.ones(15)))


# ---------------------------------------------------------------------------
# The engine on the desk-scale rank-1 problem
# ---------------------------------------------------------------------------

def test_rank1_contraction_within_stated_basin():
    inst = _rank1_factorization_desk()
    radius = (2.0 - 1.0) / (15.0 * math.sqrt(2.0))
    bound = 35.0 / 36.0
    rng = make_rng(17)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(2)
        x0 = inst.truth["X"] + (u / np.linalg.norm(u) * radius).reshape(2, 1)
        cfg = SolverConfig(eta=1.0 / 9.0, max_iters=200)
        _, tr = run_gd(inst, FactorPoint.sym(x0), cfg)
        d = np.asarray(tr.dist)
        keep = d[:-1] > 1e-11  # below that, one ulp flips the ratio
        worst = max(worst, float(np.max(d[1:][keep] / d[:-1][keep])))
        assert d[-1] < 1e-9
    assert worst <= bound + 1e-9


def test_rank1_fitted_rate_matches_theory():
    inst = _rank1_factorization_desk()
    x0 = inst.truth["X"] + np.array([[0.6], [0.8]]) * 0.04
    cfg = SolverConfig(eta=1.0 / 9.0, max_iters=200, dist_tol=1e-11)
    _, tr = run_gd(inst, FactorPoint.sym(x0), cfg)
    assert tr.outcome == "converged"
    slope, ratio = fitted_rate(tr)
    assert slope < 0
    assert ratio <= 35.0 / 36.0 + 0.01


def test_init_at_truth_stays_at_truth():
    inst = gen_matrix_sensing(12, 12, 2, 200, True, seed=8)
    start = FactorPoint.sym(inst.truth["X"])
    final, tr = run_gd(inst, start, SolverConfig(eta=0.01, max_iters=40))
    assert np.array_equal(final.X, inst.truth["X"])
    assert all(d == 0.0 for d in tr.dist)
    assert tr.grad_norm[0] == 0.0


def test_outcome_labels():
    inst = gen_phase_retrieval(16, 160, seed=3)
    est = init_phase_retrieval(inst)
    nx = float(np.linalg.norm(inst.truth["x"]))

    _, tr = run_gd(inst, est.point, SolverConfig(eta=1e-6, max_iters=5))
    assert tr.outcome == "max_iters"
    assert len(tr) == 6
    assert list(tr.iters) == list(range(6))

    eta = 0.1 / float(est.point.x @ est.point.x)
    _, tr = run_gd(inst, est.point,
                   SolverConfig(eta=eta, max_iters=500, dist_tol=1e-7 * nx))
    assert tr.outcome == "converged"
    assert tr.final_dist <= 1e-7 * nx

    # loss blowup and numeric overflow both get the diverged label, no raise
    _, tr = run_gd(inst, est.point, SolverConfig(eta=1e6, max_iters=50))
    assert tr.outcome == "diverged"
    _, tr = run_gd(inst, est.point, SolverConfig(eta=1e300, max_iters=50))
    assert tr.outcome == "diverged"
    assert np.all(np.isfinite(np.asarray(tr.loss)[:-1]))  # only the last row may blow up


def _solved_at(inst, **fields):
    # dist_tol 1e-6 ||[L*; R*]|| within 100 rows
    t = inst.truth
    return SolverConfig(max_iters=100, dist_tol=1e-6 * np.linalg.norm(np.vstack((t["L"], t["R"]))),
                        **fields)


def _completion_run(seed, loss):
    inst = gen_matrix_completion(400, 400, 5, 0.1, False, seed)
    return run_gd(inst, init_matrix_completion(inst, 5).point, _solved_at(inst, loss=loss))[1]


def _sensing_run(seed):
    inst = gen_matrix_sensing(30, 30, 3, 1500, False, seed)
    return run_gd(inst, init_sensing(inst, 3).point, _solved_at(inst))[1]


def _rpca_run():
    inst = gen_rpca(60, 50, 2, 0.5, 0.02, 1.0, 7)
    est, S0 = init_rpca(inst, 2)
    project = make_incoherent_projector(inst, est.point)
    return run_rpca(inst, est.point, S0, _solved_at(inst, project=project))[2]


ASYMMETRIC_RUNS = {
    "completion-0": lambda: _completion_run(0, "plain"),
    "completion-1": lambda: _completion_run(1, "plain"),
    "completion-0-regularized": lambda: _completion_run(0, "regularized"),
    "completion-1-regularized": lambda: _completion_run(1, "regularized"),
    "sensing-0": lambda: _sensing_run(0),
    "sensing-1": lambda: _sensing_run(1),
    "rpca": _rpca_run,
}


@pytest.mark.parametrize("run", sorted(ASYMMETRIC_RUNS))
def test_solved_asymmetric_descent_stops_on_dist(run):
    # A solved asymmetric run keeps some mix (L G, R G^-T) of the truth's
    # factors.  A rotation-only gap left its dist near 1e-3 ||[L*; R*]||, so
    # each of these ran to max_iters with L R^T = M* to round-off.
    tr = ASYMMETRIC_RUNS[run]()
    assert tr.outcome == "converged" and len(tr) <= 100


def test_plateau_and_grad_stops():
    inst = _rank1_factorization_desk()
    x0 = FactorPoint.sym(inst.truth["X"] + 0.03)
    _, tr = run_gd(inst, x0, SolverConfig(eta=1.0 / 9.0, max_iters=5000,
                                          grad_tol=1e-9))
    assert tr.outcome == "converged" and tr.grad_norm[-1] <= 1e-9
    _, tr = run_gd(inst, x0, SolverConfig(eta=1.0 / 9.0, max_iters=5000,
                                          plateau_tol=1e-14))
    assert tr.outcome == "converged" and len(tr) < 5001


def test_projection_hook_runs_every_iteration():
    inst = gen_matrix_completion(10, 10, 2, 0.8, True, seed=11)
    est = init_matrix_completion(inst, 2)

    def squash(point):
        X = point.X.copy()
        X[-1] = 0.0
        return FactorPoint.sym(X)

    final, _ = run_gd(inst, est.point,
                      SolverConfig(eta=0.01, max_iters=3, project=squash))
    assert np.all(final.X[-1] == 0.0)


def test_monotone_descent_at_conservative_steps():
    # eta_default/10 keeps every family strictly inside the smooth regime
    for t in range(20):
        cases = []
        inst = gen_matrix_sensing(16, 16, 2, 500, True,
                                  seed=derive_seed(501, "ms", t))
        cases.append((inst, init_sensing(inst, 2).point))
        inst = gen_matrix_sensing(14, 10, 2, 500, False,
                                  seed=derive_seed(501, "ma", t))
        cases.append((inst, init_sensing(inst, 2).point))
        inst = gen_phase_retrieval(32, 320, seed=derive_seed(501, "pr", t))
        cases.append((inst, init_phase_retrieval(inst).point))
        inst = gen_quadratic_sensing(20, 2, 1280, seed=derive_seed(501, "qs", t))
        cases.append((inst, init_quadratic_sensing(inst, 2).point))
        inst = gen_matrix_completion(24, 24, 2, 0.6, True,
                                     seed=derive_seed(501, "mc", t))
        cases.append((inst, init_matrix_completion(inst, 2).point))
        inst = gen_matrix_completion(20, 14, 2, 0.6, False,
                                     seed=derive_seed(501, "mca", t))
        cases.append((inst, init_matrix_completion(inst, 2).point))
        inst = gen_blind_deconv(8, 8, 1024, seed=derive_seed(501, "bd", t))
        cases.append((inst, init_blind_deconv(inst).point))
        inst = gen_rpca(24, 24, 2, 0.7, 0.05, 1.0, seed=derive_seed(501, "rp", t))
        cases.append((inst, init_rpca(inst, 2)[0].point))
        for inst, p0 in cases:
            eta = default_step_size(inst, p0) / 10.0
            _, tr = run_gd(inst, p0, SolverConfig(eta=eta, max_iters=80))
            dl = np.diff(tr.loss)
            assert np.all(dl <= 1e-12 * max(abs(tr.loss[0]), 1.0)), inst.family


def test_phase_retrieval_wf_monte_carlo():
    n = 64
    m = int(10 * n * math.log(n))
    hits = 0
    for t in range(100):
        inst = gen_phase_retrieval(n, m, seed=derive_seed(101, "wf", t))
        tr, nx = _pr_run(inst)
        hits += tr.final_dist < 1e-5 * nx
    assert hits >= 95


def test_implicit_regularization_along_wf_paths():
    # on successful runs the iterates stay spread out against the design:
    # max_i |a_i^T (x_t - x*)| <= 6 sqrt(log m) ||x*|| for every t
    n = 32
    m = int(10 * n * math.log(n))
    checked = 0
    for t in range(50):
        inst = gen_phase_retrieval(n, m, seed=derive_seed(502, "ir", t))
        tr, nx = _pr_run(inst)
        if tr.final_dist > 1e-5 * nx:
            continue
        checked += 1
        assert max(tr.incoh) <= 6.0 * math.sqrt(math.log(m)) * nx
    assert checked >= 45


def test_regularity_witness_is_recorded_for_pr_only():
    inst = gen_phase_retrieval(24, 240, seed=6)
    tr, _ = _pr_run(inst)
    report = regularity_witness(tr)
    assert report["mu"] > 0 and report["lam"] > 0
    assert 0.0 <= report["fraction"] <= 1.0
    sens = gen_matrix_sensing(8, 8, 1, 40, True, seed=6)
    _, tr2 = run_gd(sens, init_sensing(sens, 1).point,
                    SolverConfig(eta=0.01, max_iters=5))
    with pytest.raises(ValueError, match="witness"):
        regularity_witness(tr2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_regularity_witness_reports_the_strongest_best_pair(seed):
    # A brute-force scan of the same grid: among the pairs with the best
    # fraction, the one with the largest mu lam, the first in grid order on
    # ties.  On these runs several pairs reach fraction 1.0, and the winner
    # is not the grid's weakest corner mu = lam = 1e-3.
    inst = gen_phase_retrieval(6, 60, seed)
    _, tr = run_gd(inst, init_phase_retrieval(inst).point, SolverConfig(max_iters=79))
    ip, g2, d2 = (np.asarray(tr.extras[k]) for k in ("rc_ip", "rc_g2", "rc_d2"))
    grid = np.logspace(-3.0, 3.0, 25)
    pairs = [(mu, lam) for mu in grid for lam in grid]
    fracs = [float(np.mean(2.0 * ip - mu * g2 - lam * d2 >= 0.0)) for mu, lam in pairs]
    top = max(fracs)
    strongest = max(mu * lam for (mu, lam), f in zip(pairs, fracs) if f == top)
    mu, lam = next(p for p, f in zip(pairs, fracs) if f == top and p[0] * p[1] == strongest)
    assert regularity_witness(tr) == {"mu": float(mu), "lam": float(lam), "fraction": top}
    assert top == 1.0 and mu * lam > 1e-6


def test_default_step_trace_csv_keeps_every_column(tmp_path):
    # The extras (witness terms, eta, rejected) follow the fixed columns in
    # the order they first appeared, and every column reads back bit for
    # bit; with ms zeroed, two reruns write the same bytes.
    inst = gen_phase_retrieval(6, 60, 0)
    x0 = init_phase_retrieval(inst).point
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        _, tr = run_gd(inst, x0, SolverConfig(max_iters=30))
        tr.to_csv(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header, *rows = paths[0].read_text().splitlines()
    assert header.split(",") == [*core.TRACE_COLUMNS, *tr.extras]
    assert {"eta", "rejected", "rc_ip", "rc_g2", "rc_d2"} <= set(tr.extras)
    want = [tr.iters, tr.loss, tr.grad_norm, tr.dist, tr.incoh, [0.0] * len(tr),
            *tr.extras.values()]
    cells = zip(*(row.split(",") for row in rows))
    for column, got in zip(want, cells, strict=True):
        assert np.array(column, dtype=float).tobytes() == \
            np.array([float(c) for c in got]).tobytes()


def test_fitted_rate_guards():
    inst = gen_phase_retrieval(16, 160, seed=9)
    tr, _ = _pr_run(inst, max_iters=0)
    with pytest.raises(ValueError, match="two positive"):
        fitted_rate(tr)


# ---------------------------------------------------------------------------
# Distances and proxies
# ---------------------------------------------------------------------------

def test_dist_to_truth_vector_sign_and_pair_guard():
    inst = gen_phase_retrieval(6, 30, seed=12)
    xs = inst.truth["x"]
    assert dist_to_truth(inst, FactorPoint.vector(-xs)) < 1e-12
    bd = gen_blind_deconv(4, 4, 64, seed=12)
    collapsed = FactorPoint.pair(np.zeros(4), np.ones(4))
    want = math.hypot(np.linalg.norm(bd.truth["h"]), np.linalg.norm(bd.truth["x"]))
    assert dist_to_truth(bd, collapsed) == pytest.approx(want)


def test_a_tiny_nonzero_pair_is_not_taken_for_a_collapsed_one():
    # ||1e-170 hstar|| underflows to 0 through its squares.  The pair still
    # fits xstar exactly, at distance ||hstar|| = 1, and its design-coherence
    # is hstar's; a norm test read it as collapsed (sqrt(2) and 0.0).
    inst = gen_blind_deconv(8, 8, 64, 3)
    hs, xs = inst.truth["h"], inst.truth["x"]
    tiny = FactorPoint.pair(1e-170 * hs, xs)
    assert dist_to_truth(inst, tiny) == pytest.approx(core.dist_bd(tiny.h, xs, hs, xs), rel=1e-12)
    assert dist_to_truth(inst, tiny) == pytest.approx(np.linalg.norm(hs), rel=1e-12)
    want = core.bd_incoherence(hs, inst.design["B"])
    assert want == pytest.approx(1.544, abs=1e-3)
    assert incoherence_proxy(inst, tiny) == pytest.approx(want, rel=1e-12)


def test_alignment_mismatch_is_shift_invariant():
    ja = gen_joint_alignment(8, 4, 0.0, seed=13)
    labels = ja.truth["x"]

    def encode(lab):
        x = np.zeros((8, 4))
        x[np.arange(8), lab] = 1.0
        return x.ravel()

    assert dist_to_truth(ja, FactorPoint.vector(encode(labels))) == 0.0
    shifted = (labels + 2) % 4
    assert alignment_mismatch(encode(shifted), labels, 4) == 0.0
    wrong = shifted.copy()
    wrong[0] = (wrong[0] + 1) % 4
    assert alignment_mismatch(encode(wrong), labels, 4) == pytest.approx(1 / 8)


def test_incoherence_proxy_matches_direct_formula():
    inst = gen_phase_retrieval(10, 50, seed=14)
    xs = inst.truth["x"]
    rng = make_rng(14)
    x = -xs + 0.01 * rng.standard_normal(10)
    want = np.max(np.abs(inst.design["A"] @ (x + xs)))  # sign-aligned error
    assert incoherence_proxy(inst, FactorPoint.vector(x)) == pytest.approx(want)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_project_incoherent_clips_only_offending_rows():
    X = np.vstack([np.eye(4), 10.0 * np.ones((1, 4))])
    radius = math.sqrt(2.0 * 1.0 * 4 / 5) * 2.0
    out = project_incoherent(X, 2.0, 1.0, 4)
    np.testing.assert_array_equal(out[:4], X[:4])  # inside rows untouched
    assert np.linalg.norm(out[4]) == pytest.approx(radius, rel=1e-12)
    inside = 0.1 * np.eye(4)
    np.testing.assert_array_equal(project_incoherent(inside, 2.0, 1.0, 4),
                                  inside)


def test_project_incoherent_idempotent_and_nonexpansive():
    rng = make_rng(15)
    for _ in range(100):
        X = rng.standard_normal((12, 3)) * rng.uniform(0.1, 5.0)
        once = project_incoherent(X, 1.0, 1.0, 3)
        twice = project_incoherent(once, 1.0, 1.0, 3)
        assert np.max(np.abs(twice - once)) <= 1e-12 * max(np.abs(once).max(), 1.0)
        feasible = project_incoherent(rng.standard_normal((12, 3)), 1.0, 1.0, 3)
        assert (np.linalg.norm(once - feasible)
                <= np.linalg.norm(X - feasible) + 1e-12)


def test_project_l1_trivial_cases():
    x = np.array([0.3, -0.2, 0.1])
    np.testing.assert_array_equal(project_l1(x, 1.0), x)
    np.testing.assert_array_equal(project_l1(x, 0.0), np.zeros(3))
    with pytest.raises(ValueError):
        project_l1(x, -1.0)


def test_project_l1_matches_active_set_oracle():
    import itertools

    def oracle(x, radius):
        a, s = np.abs(x), np.sign(x)
        if a.sum() <= radius:
            return x.copy()
        best, bd = None, np.inf
        for size in range(1, len(x) + 1):
            for S in itertools.combinations(range(len(x)), size):
                theta = (a[list(S)].sum() - radius) / size
                if theta < -1e-12:
                    continue
                z = np.zeros_like(x)
                ok = True
                for i in range(len(x)):
                    if i in S:
                        z[i] = s[i] * max(a[i] - theta, 0.0)
                    elif a[i] > theta + 1e-10:
                        ok = False
                        break
                if not ok or abs(np.abs(z).sum() - radius) > 1e-8:
                    continue
                d = np.linalg.norm(z - x)
                if d < bd:
                    bd, best = d, z
        return best

    rng = make_rng(55)
    for _ in range(50):
        x = rng.standard_normal(6) * rng.uniform(0.5, 3.0)
        radius = rng.uniform(0.2, 4.0)
        assert np.linalg.norm(project_l1(x, radius) - oracle(x, radius)) < 1e-8


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12),
       st.floats(0.01, 20.0))
@settings(max_examples=80, deadline=None)
def test_project_l1_feasible_idempotent_nonexpansive(vals, radius):
    x = np.asarray(vals)
    out = project_l1(x, radius)
    assert np.abs(out).sum() <= radius * (1 + 1e-12) + 1e-12
    again = project_l1(out, radius)
    assert np.max(np.abs(again - out)) <= 1e-12 * max(radius, 1.0)
    assert np.linalg.norm(out) <= np.linalg.norm(x) + 1e-12  # 0 is feasible


def test_project_sparse_k_exhaustive_and_edges():
    import itertools

    rng = make_rng(16)
    for _ in range(25):
        x = rng.standard_normal(8)
        out = project_sparse_k(x, 3)
        assert np.count_nonzero(out) <= 3
        best = min(
            np.linalg.norm(x - np.where(np.isin(np.arange(8), S), x, 0.0))
            for S in itertools.combinations(range(8), 3)
        )
        assert np.linalg.norm(x - out) == pytest.approx(best)
    x = rng.standard_normal(5)
    np.testing.assert_array_equal(project_sparse_k(x, 5), x)
    np.testing.assert_array_equal(project_sparse_k(x, 0), np.zeros(5))
    with pytest.raises(ValueError):
        project_sparse_k(x, -1)


def test_incoherent_projector_factory_matches_rowwise_op():
    inst = gen_matrix_completion(12, 12, 2, 0.7, True, seed=18)
    est = init_matrix_completion(inst, 2)
    proj = make_incoherent_projector(inst, est.point)
    point = FactorPoint.sym(est.point.X * 3.0)
    out = proj(point)
    mu = core.incoherence_mu(inst.truth["M"], 2)
    bound = float(np.linalg.norm(est.point.X, 2))
    np.testing.assert_array_equal(
        out.X, project_incoherent(point.X, bound, mu, 2))
    with pytest.raises(ValueError):
        make_incoherent_projector(inst, FactorPoint.vector(np.ones(3)))


def _planted_parts(truth):
    return (truth["X"],) if "X" in truth else (truth["L"], truth["R"])


def test_incoherent_projector_default_mu_is_the_planted_incoherence():
    # The default mu comes from thin QRs of the planted factors, not an SVD
    # of M.  Every row of a point this large is clipped to the radius, so the
    # output moves with sqrt(mu): it must match incoherence_mu(M, r)'s to 1e-12.
    rng = make_rng(20)
    for inst in (gen_matrix_completion(20, 20, 3, 0.6, True, seed=19),
                 gen_matrix_completion(24, 18, 3, 0.6, False, seed=19),
                 gen_rpca(24, 18, 2, 0.6, 0.02, 3.0, seed=19),
                 gen_matrix_sensing(6, 6, 2, 80, True, seed=19)):
        r = inst.params["r"]
        mu = core.incoherence_mu(inst.truth["M"], r)
        parts = tuple(rng.standard_normal(F.shape) for F in _planted_parts(inst.truth))
        init = FactorPoint.derived("sym" if len(parts) == 1 else "asym", parts)
        point = FactorPoint.derived(init.kind, tuple(1e3 * F for F in parts))
        out = make_incoherent_projector(inst, init)(point)
        for F, F0, G in zip(point.parts, parts, out.parts):
            want = project_incoherent(F, float(np.linalg.norm(F0, 2)), mu, r)
            assert (np.linalg.norm(want, axis=1) < 0.5 * np.linalg.norm(F, axis=1)).all()
            assert np.max(np.abs(G - want)) <= 1e-12 * np.max(np.abs(want))
    # A planted matrix of rank below r is refused, as incoherence_mu refuses it.
    v = rng.standard_normal((8, 1))
    for truth in ({"X": np.hstack((v, 2.0 * v))},
                  {"L": np.hstack((v, 2.0 * v)), "R": rng.standard_normal((8, 2))}):
        parts = tuple(np.ones((8, 2)) for _ in _planted_parts(truth))
        inst = ProblemInstance("MatrixCompletionSym" if len(parts) == 1 else "MatrixCompletionAsym",
                               0, {"n1": 8, "n2": 8, "r": 2, "p": 1.0}, truth,
                               {"mask": np.ones((8, 8), dtype=bool)}, np.zeros(64))
        init = FactorPoint.derived("sym" if len(parts) == 1 else "asym", parts)
        with pytest.raises(ValueError, match="rank-deficient"):
            make_incoherent_projector(inst, init)


# ---------------------------------------------------------------------------
# Truncation masks
# ---------------------------------------------------------------------------

def test_twf_mask_trivial_thresholds_keep_everything():
    inst = gen_phase_retrieval(12, 60, seed=19)
    x = init_phase_retrieval(inst).point.x
    assert twf_mask(inst, x, (0.0, np.inf, np.inf)).all()


def test_twf_mask_keeps_all_at_noiseless_truth():
    inst = gen_phase_retrieval(12, 60, seed=20)
    # residuals vanish at the truth, so the residual clause accepts every
    # sample; leave the band clause wide open
    assert twf_mask(inst, inst.truth["x"], (0.0, np.inf, 5.0)).all()


def test_twf_mask_matches_loop_reference():
    inst = gen_phase_retrieval(10, 50, seed=21)
    x = make_rng(21).standard_normal(10)
    lb, ub, ah = DEFAULT_TWF_THRESHOLDS
    A, y, m = inst.design["A"], inst.y, 50
    nrm = np.linalg.norm(x)
    total = sum(abs(y[j] - float(A[j] @ x) ** 2) for j in range(m))
    want = np.array([
        lb <= abs(float(A[i] @ x)) / nrm <= ub
        and abs(y[i] - float(A[i] @ x) ** 2)
        <= (ah / m) * total * abs(float(A[i] @ x)) / nrm
        for i in range(m)
    ])
    np.testing.assert_array_equal(twf_mask(inst, x, (lb, ub, ah)), want)


def test_mask_guards():
    sens = gen_matrix_sensing(6, 6, 1, 12, True, seed=0)
    with pytest.raises(ValueError, match="phase retrieval"):
        twf_mask(sens, np.ones(6), DEFAULT_TWF_THRESHOLDS)
    with pytest.raises(ValueError, match="phase retrieval"):
        median_mask(sens, np.ones(6), 5.0)
    inst = gen_phase_retrieval(6, 30, seed=0)
    with pytest.raises(ValueError, match="thresholds"):
        twf_mask(inst, np.ones(6), (1.0, 0.5, 5.0))
    with pytest.raises(ValueError, match="positive"):
        median_mask(inst, np.ones(6), 0.0)


def test_median_mask_drops_planted_outliers_at_truth():
    clean = gen_phase_retrieval(32, 200, seed=22)
    inst = corrupt_outliers(clean, 0.10, seed=23)
    mask = median_mask(inst, inst.truth["x"], 5.0)
    assert not mask[inst.design["outlier_idx"]].any()
    keep_clean = np.ones(200, dtype=bool)
    keep_clean[inst.design["outlier_idx"]] = False
    assert mask[keep_clean].all()
    np.testing.assert_array_equal(mask, median_mask(inst, inst.truth["x"], 5.0))
    assert median_mask(inst, inst.truth["x"], np.inf).all()


def test_median_mask_uses_lower_middle_order_statistic():
    # |residuals| = 1, 2, 3, 10 -> lower-middle median 2; an averaged median
    # (2.5) would also keep the residual at 3 under factor 1.4
    A = np.ones((4, 1))
    y = np.array([2.0, 3.0, 4.0, 11.0])
    inst = ProblemInstance("PhaseRetrieval", 0, {"n": 1, "m": 4, "norm": 1.0},
                           {"x": np.array([1.0])}, {"A": A}, y)
    mask = median_mask(inst, np.array([1.0]), 1.4)
    np.testing.assert_array_equal(mask, [True, True, False, False])


# ---------------------------------------------------------------------------
# Truncated runs
# ---------------------------------------------------------------------------

def test_keep_all_truncation_reproduces_vanilla_bitwise():
    inst = gen_phase_retrieval(16, 160, seed=24)
    est = init_phase_retrieval(inst)
    cfg = SolverConfig(eta=0.05, max_iters=30,
                       twf_thresholds=(0.0, np.inf, np.inf))
    fa, ta = run_truncated_gd(inst, est.point, cfg)
    fb, tb = run_gd(inst, est.point, SolverConfig(eta=0.05, max_iters=30))
    assert np.array_equal(fa.x, fb.x)
    assert ta.loss == tb.loss


def test_truncated_config_conflicts():
    inst = gen_phase_retrieval(8, 40, seed=0)
    x0 = init_phase_retrieval(inst).point
    with pytest.raises(ValueError, match="not both"):
        run_truncated_gd(inst, x0, SolverConfig(
            eta=0.1, twf_thresholds=DEFAULT_TWF_THRESHOLDS, median_factor=5.0))
    with pytest.raises(ValueError, match="run_truncated_gd does not read SolverConfig.batch_k"):
        run_truncated_gd(inst, x0, SolverConfig(eta=0.1, batch_k=4))


def test_truncation_widens_the_step_budget_at_eight_n():
    # at a shared aggressive step the kept-sample rule pays off; both arms
    # share data, init, and step size
    n, m = 64, 8 * 64
    twf_wins, wf_wins = 0, 0
    for t in range(100):
        inst = gen_phase_retrieval(n, m, seed=derive_seed(101, "twf", t))
        tr_t, nx = _pr_run(inst, eta_scale=0.2, truncated=True)
        tr_v, _ = _pr_run(inst, eta_scale=0.2)
        twf_wins += tr_t.final_dist < 1e-5 * nx
        wf_wins += tr_v.final_dist < 1e-5 * nx
    assert twf_wins >= 90
    assert twf_wins > wf_wins


def test_median_truncation_survives_five_percent_outliers():
    n, m = 64, 640
    hits = 0
    for t in range(100):
        clean = gen_phase_retrieval(n, m, seed=derive_seed(101, "med", t))
        inst = corrupt_outliers(clean, 0.05, seed=derive_seed(101, "medc", t))
        est = init_phase_retrieval(inst, prep=Preprocessing.median_trim(3.0))
        nx = float(np.linalg.norm(inst.truth["x"]))
        eta = 0.1 / float(est.point.x @ est.point.x)
        cfg = SolverConfig(eta=eta, max_iters=6000, dist_tol=1e-5 * nx,
                           median_factor=5.0)
        _, tr = run_truncated_gd(inst, est.point, cfg)
        hits += tr.outcome == "converged" and tr.final_dist < 1e-5 * nx
    assert hits >= 85


# ---------------------------------------------------------------------------
# Sparse-plus-low-rank runs
# ---------------------------------------------------------------------------

def test_rpca_guards():
    mc = gen_matrix_completion(8, 8, 2, 0.5, True, seed=0)
    with pytest.raises(ValueError, match="robust PCA"):
        run_rpca(mc, FactorPoint.sym(np.ones((8, 2))), None, None)
    inst = gen_rpca(8, 8, 2, 0.5, 0.05, 1.0, seed=0)
    est, S0 = init_rpca(inst, 2)
    with pytest.raises(ValueError, match="run_rpca does not read SolverConfig.batch_k"):
        run_rpca(inst, est.point, S0, SolverConfig(eta=0.01, batch_k=4))


_UNREAD = {"median_factor": 5.0, "twf_thresholds": (0.3, 5.0, 5.0), "seed": 3,
           "loss_params": {}}


@pytest.mark.parametrize("solver, fields", [
    (run_gd, ("median_factor", "twf_thresholds")),
    (run_truncated_gd, ("seed",)),
    (run_rpca, ("median_factor", "twf_thresholds", "loss_params", "seed")),
])
def test_entry_point_refuses_config_fields_it_does_not_read(solver, fields):
    if solver is run_rpca:
        inst = gen_rpca(8, 8, 1, 0.8, 0.05, 5.0, seed=1)
        est, S0 = init_rpca(inst, 1)

        def run(cfg):
            return run_rpca(inst, est.point, S0, cfg)
    else:
        pr = gen_phase_retrieval(8, 40, seed=1)

        def run(cfg):
            return solver(pr, FactorPoint.vector(np.ones(8)), cfg)
    for name in fields:
        with pytest.raises(ValueError, match=f"{solver.__name__} does not read "
                                             f"SolverConfig.{name}"):
            run(SolverConfig(max_iters=1, **{name: _UNREAD[name]}))


def test_rpca_without_outliers_is_projected_completion():
    inst = gen_rpca(20, 20, 2, 0.6, 0.0, 1.0, seed=77)
    twin = ProblemInstance(
        "MatrixCompletionSym", 77,
        {"n1": 20, "n2": 20, "r": 2, "p": 0.6, "symmetric": True},
        dict(inst.truth), dict(inst.design), inst.y.copy(),
    )
    est, S0 = init_rpca(inst, 2)
    assert not np.any(S0)
    proj = make_incoherent_projector(inst, est.point)
    cfg = SolverConfig(eta=0.05, max_iters=60, project=proj)
    fin_r, S, tr_r = run_rpca(inst, est.point, S0, cfg)
    fin_m, tr_m = run_gd(twin, est.point, cfg)
    assert np.array_equal(fin_r.X, fin_m.X)
    assert tr_r.loss == tr_m.loss
    assert not np.any(S)


def test_rpca_sparse_part_lives_on_observed_entries():
    inst = gen_rpca(24, 24, 2, 0.5, 0.05, 1.0, seed=78)
    est, S0 = init_rpca(inst, 2)
    _, S, _ = run_rpca(inst, est.point, S0,
                       SolverConfig(eta=0.02, max_iters=10))
    assert not np.any(S[~inst.design["mask"]])


def test_rpca_monte_carlo_recovery():
    hits = 0
    for t in range(100):
        inst = gen_rpca(60, 60, 2, 0.5, 0.02, 1.0,
                        seed=derive_seed(202, "rpca", t))
        est, S0 = init_rpca(inst, 2)
        sr = float(inst.truth["sigma"][-1])
        proj = make_incoherent_projector(inst, est.point)
        eta = default_step_size(inst, est.point)
        cfg = SolverConfig(eta=eta, max_iters=600, project=proj,
                           dist_tol=math.sqrt(1e-8 * sr) * 0.999)
        final, _, tr = run_rpca(inst, est.point, S0, cfg)
        hits += tr.final_dist ** 2 <= 1e-8 * sr
    assert hits >= 85


# ---------------------------------------------------------------------------
# Geodesic steps
# ---------------------------------------------------------------------------

def test_grassmann_exact_basis_is_a_fixed_point():
    rng = make_rng(21)
    n1, n2, r = 12, 10, 3
    L = np.eye(n1)[:, :r]
    R = rng.standard_normal((n2, r))
    M = L @ R.T
    mask = np.ones((n1, n2), dtype=bool)
    inst = ProblemInstance(
        "MatrixCompletionAsym", 0,
        {"n1": n1, "n2": n2, "r": r, "p": 1.0, "symmetric": False},
        {"L": 1.0 * L, "R": R}, {"mask": mask}, M[mask],
    )
    out = grassmann_step(inst, L, 0.3)
    assert np.array_equal(out, L)  # residual is exactly zero on this basis


def test_grassmann_true_span_is_stationary_at_full_observation():
    inst = gen_matrix_completion(12, 10, 3, 1.0, False, seed=5)
    L, _ = np.linalg.qr(inst.truth["L"])
    out = grassmann_step(inst, L, 0.3)
    assert np.max(np.abs(out - L)) < 1e-10


def test_grassmann_output_stays_orthonormal():
    rng = make_rng(8)
    inst = gen_matrix_completion(12, 10, 3, 0.6, False, seed=6)
    L = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    for _ in range(20):
        L = grassmann_step(inst, L, 0.05)
        assert np.max(np.abs(L.T @ L - np.eye(3))) < 1e-8


def test_grassmann_rank1_form_matches_general():
    # At r = 1 the geodesic has the closed form cos(s eta) L - sin(s eta)/s grad,
    # s = ||grad||, grad the horizontal gradient at the exact right factor.
    rng = make_rng(9)
    inst = gen_matrix_completion(12, 10, 1, 0.6, False, seed=7)
    L = np.linalg.qr(rng.standard_normal((12, 1)))[0]
    rows, cols = np.nonzero(inst.design["mask"])
    R = np.array([[inst.y[cols == j] @ L[rows[cols == j], 0]
                   / (L[rows[cols == j], 0] @ L[rows[cols == j], 0])] for j in range(10)])
    E = np.zeros((12, 10))
    E[rows, cols] = inst.y - (L @ R.T)[rows, cols]
    grad = -2.0 * E @ R
    grad -= L @ (L.T @ grad)
    s = float(np.linalg.norm(grad))
    oracle = math.cos(0.05 * s) * L - (math.sin(0.05 * s) / s) * grad
    assert np.max(np.abs(grassmann_step(inst, L, 0.05) - oracle)) < 1e-10


def test_grassmann_guards_and_deficient_column():
    rng = make_rng(10)
    inst = gen_matrix_completion(10, 8, 2, 0.6, False, seed=9)
    L2 = np.linalg.qr(rng.standard_normal((10, 2)))[0]
    pr = gen_phase_retrieval(8, 40, seed=0)
    with pytest.raises(ValueError, match="completion"):
        grassmann_step(pr, L2, 0.1)
    with pytest.raises(ValueError, match="orthonormal"):
        grassmann_step(inst, np.ones((10, 2)), 0.1)
    with pytest.raises(ValueError, match="r must be a positive integer"):
        grassmann_step(inst, np.zeros((10, 0)), 0.1)
    mask = inst.design["mask"].copy()
    mask[:, 3] = False
    mask[0, 3] = True  # one observation cannot determine two coefficients
    M = inst.truth["L"] @ inst.truth["R"].T
    starved = ProblemInstance(inst.family, 9, dict(inst.params),
                              dict(inst.truth), {"mask": mask}, M[mask])
    with pytest.raises(ValueError, match="column 3"):
        grassmann_step(starved, L2, 0.1)


@pytest.mark.parametrize("ratio, refused", [(1e-13, True), (1e-10, False)])
def test_grassmann_refuses_a_column_at_gram_ratio_1e_12(ratio, refused):
    # Orthonormal columns a e0 + ... and b e1 + ...: column 0 observes rows 0
    # and 1 only, so its Gram is diag(a^2, b^2) with eigenvalue ratio
    # b^2 / a^2; the other columns observe every row (Gram I).
    a = 0.9
    b = a * math.sqrt(ratio)
    L = np.zeros((4, 2))
    L[[0, 2], 0] = a, math.sqrt(1.0 - a * a)
    L[[1, 3], 1] = b, math.sqrt(1.0 - b * b)
    mask = np.ones((4, 3), dtype=bool)
    mask[2:, 0] = False
    M = make_rng(2).standard_normal((4, 3))
    inst = ProblemInstance("MatrixCompletionAsym", 0,
                           {"n1": 4, "n2": 3, "r": 2, "p": 1.0, "symmetric": False},
                           {}, {"mask": mask}, M[mask])
    w = np.linalg.eigvalsh(L[:2].T @ L[:2])
    assert w[0] / w[-1] == pytest.approx(ratio, rel=1e-6)
    if refused:
        with pytest.raises(ValueError, match="column 0"):
            grassmann_step(inst, L, 0.1)
    else:
        out = grassmann_step(inst, L, 0.1)
        assert np.allclose(out.T @ out, np.eye(2), atol=1e-10)


# ---------------------------------------------------------------------------
# Mini-batch steps
# ---------------------------------------------------------------------------

def test_sgd_full_batch_equals_full_gradient_step():
    inst = gen_phase_retrieval(8, 40, seed=13)
    x = init_phase_retrieval(inst).point
    _, g = loss_and_grad(inst, x)
    full = x.add_scaled(-0.01, g.parts)
    out = sgd_step(inst, x, 40, 0.01, make_rng(1))
    assert np.array_equal(out.x, full.x)


def test_sgd_expected_direction_is_batch_fraction_of_gradient():
    inst = gen_phase_retrieval(8, 40, seed=13)
    x = init_phase_retrieval(inst).point
    _, g = loss_and_grad(inst, x)
    rng = make_rng(derive_seed(99, "sgdexp"))
    m, k, eta = 40, 10, 0.01
    acc = np.zeros(8)
    for _ in range(10_000):
        acc += (x.x - sgd_step(inst, x, k, eta, rng).x) / eta
    scaled = (m / k) * (acc / 10_000)
    assert np.linalg.norm(scaled - g.x) < 0.02 * np.linalg.norm(g.x)


def test_sgd_deterministic_and_guarded():
    inst = gen_phase_retrieval(8, 40, seed=13)
    x = init_phase_retrieval(inst).point
    a = sgd_step(inst, x, 5, 0.01, make_rng(77))
    b = sgd_step(inst, x, 5, 0.01, make_rng(77))
    assert np.array_equal(a.x, b.x)
    with pytest.raises(ValueError, match=r"\[1, 40\]"):
        sgd_step(inst, x, 0, 0.01, make_rng(0))
    with pytest.raises(ValueError, match=r"\[1, 40\]"):
        sgd_step(inst, x, 41, 0.01, make_rng(0))
    mc = gen_matrix_completion(8, 8, 2, 0.5, True, seed=0)
    with pytest.raises(ValueError, match="MatrixCompletionSym"):
        sgd_step(mc, FactorPoint.sym(np.ones((8, 2))), 4, 0.01, make_rng(0))


def test_minibatch_engine_steps_as_sgd_step_on_the_minibatch_stream():
    # Both draw a batch as w[rng.choice(m, k, replace=False)] = 1; the engine
    # from derive_seed(seed, "minibatch"), one draw per row.
    inst = gen_phase_retrieval(16, 160, seed=25)
    x0 = init_phase_retrieval(inst).point
    eta = 0.1 / float(x0.x @ x0.x)
    final, _ = run_gd(inst, x0, SolverConfig(eta=eta, max_iters=8, batch_k=40, seed=5))
    rng = make_rng(derive_seed(5, "minibatch"))
    x, reference = x0, make_rng(derive_seed(5, "minibatch"))
    for _ in range(8):
        w = np.zeros(160)
        w[reference.choice(160, size=40, replace=False)] = 1.0
        _, g = loss_and_grad(inst, x, weights=w)
        step = sgd_step(inst, x, 40, eta, rng)
        x = x.add_scaled(-eta, g.parts)
        assert np.array_equal(step.x, x.x)
    assert np.array_equal(final.x, x.x)


def test_minibatch_config_drives_the_engine():
    inst = gen_phase_retrieval(16, 160, seed=25)
    est = init_phase_retrieval(inst)
    eta = 0.1 / float(est.point.x @ est.point.x)
    cfg = SolverConfig(eta=eta, max_iters=50, batch_k=40, seed=5)
    _, tr = run_gd(inst, est.point, cfg)
    assert len(tr) == 51
    assert np.all(np.isfinite(tr.loss))
    # same seed, same batch sequence, same trajectory
    _, tr2 = run_gd(inst, est.point, cfg)
    assert tr.loss == tr2.loss
    mc = gen_matrix_completion(8, 8, 2, 0.5, True, seed=0)
    with pytest.raises(ValueError, match="per-sample"):
        run_gd(mc, FactorPoint.sym(np.ones((8, 2))),
               SolverConfig(eta=0.01, max_iters=3, batch_k=4))


def test_negative_initial_loss_is_not_mistaken_for_divergence():
    # The phase synchronization loss -Re x^H L x starts negative and falls;
    # a rule comparing the loss with 1e6 times its initial value flagged
    # this run as diverged at t = 1.
    from lowrank_ncvx.spectral import init_phase_sync

    inst = gen_phase_sync(40, 0.3, 1)
    x0 = init_phase_sync(inst)
    _, tr = run_gd(inst, x0, SolverConfig(eta=0.01, max_iters=20))
    assert tr.loss[0] < 0.0
    assert tr.outcome == "max_iters"
    assert len(tr.loss) == 21
    assert tr.loss[-1] < tr.loss[0]


def test_blind_deconvolution_blow_up_reports_diverged():
    # The step overflows the pair on the first iteration; the trace's
    # distance used to raise "math domain error" from dist_bd instead.
    inst = gen_blind_deconv(8, 8, 64, 3)
    est = init_blind_deconv(inst)
    _, tr = run_gd(inst, est.point, SolverConfig(eta=1e300, max_iters=20))
    assert tr.outcome == "diverged"
    assert tr.iters == [0, 1]
    assert not math.isfinite(tr.dist[-1])
