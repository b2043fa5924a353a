"""The phase-retrieval descent row computes A x once and shares it between the
mask, the loss and the incoherence proxy, and forms one sign-aligned
difference x - s x* for the distance and the witness terms.  Checked against
a hand-written loop that evaluates every term from its own product, through
the public loss_and_grad, twf_mask and median_mask, with the distance from
core.dist_vector and the proxy max|A x - s A x*| from its own two products;
it calls neither dist_to_truth nor incoherence_proxy, which share the row's
truth fields: the ``gap`` of the family's problems.FAMILIES record, where
the rows' truth metrics live.  The trajectories and every trace column
must be bitwise equal.  The row subtracts A x*, formed once per instance,
from the shared A x, and the reference's max|A (x - s x*)| must agree with
it to round-off.  The rows of
quadratic sensing, blind deconvolution, Error Reduction, symmetric descent
and AltMin are checked the same way, by the design products and Procrustes
rotations they make."""

import math

import numpy as np
import pytest

from lowrank_ncvx import core, problems
from lowrank_ncvx.core import (
    FactorPoint,
    bd_incoherence,
    derive_seed,
    dist_bd,
    dist_factors,
    dist_vector,
    make_rng,
    max_row_norm,
)
from lowrank_ncvx.direct import AltMinConfig, altmin_mc, er_phase_retrieval
from lowrank_ncvx.gd import (
    DEFAULT_TWF_THRESHOLDS,
    SolverConfig,
    median_mask,
    run_gd,
    run_truncated_gd,
    twf_mask,
)
from lowrank_ncvx.problems import (
    _balanced,
    corrupt_outliers,
    gen_blind_deconv,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_quadratic_sensing,
    loss_and_grad,
)
from lowrank_ncvx.spectral import (
    Preprocessing,
    init_blind_deconv,
    init_matrix_completion,
    init_phase_retrieval,
    init_quadratic_sensing,
)


def _reference_run(inst, x0, cfg, rule=None):
    # The descent row written out, each term computing its own A x; returns
    # the final point, the outcome and the trace columns.
    A, xs, m = inst.design["A"], inst.truth["x"], inst.params["m"]
    if cfg.batch_k is not None:
        rng = make_rng(derive_seed(cfg.seed, "minibatch"))
    cols = {k: [] for k in ("loss", "grad_norm", "dist", "incoh", "incoh_public",
                            "rc_ip", "rc_g2", "rc_d2")}
    point, grad, outcome = x0.copy(), None, "max_iters"
    for t in range(cfg.max_iters + 1):
        if t > 0:
            point = point.add_scaled(-cfg.eta, grad.parts)
        if rule == "threshold":
            w = twf_mask(inst, point.x, DEFAULT_TWF_THRESHOLDS).astype(float)
        elif rule == "median":
            w = median_mask(inst, point.x, cfg.median_factor).astype(float)
        elif cfg.batch_k is not None:
            w = np.zeros(m)
            w[rng.choice(m, size=cfg.batch_k, replace=False)] = 1.0
        else:
            w = None
        with np.errstate(over="ignore", invalid="ignore"):
            val, grad = loss_and_grad(inst, point, loss=cfg.loss, weights=w)
            gnorm = grad.norm()
            s = -1.0 if float(point.x @ xs) < 0.0 else 1.0
            diff = point.x - s * xs
            row = {"loss": val, "grad_norm": gnorm,
                   "dist": dist_vector(point.x, xs),
                   "incoh": float(np.max(np.abs(A @ diff))),
                   "incoh_public": float(np.max(np.abs(A @ point.x - s * (A @ xs)))),
                   "rc_ip": float(grad.x @ diff), "rc_g2": gnorm * gnorm,
                   "rc_d2": float(diff @ diff)}
        for k, v in row.items():
            cols[k].append(v)
        loss0 = cols["loss"][0]
        if not (math.isfinite(val) and math.isfinite(gnorm) and point.isfinite()) \
                or (loss0 != 0.0 and val - loss0 > 1e6 * abs(loss0)):
            outcome = "diverged"
            break
        if row["dist"] <= cfg.dist_tol:
            outcome = "converged"
            break
    return point, outcome, cols


@pytest.fixture(scope="module")
def pr():
    inst = gen_phase_retrieval(16, 160, seed=31)
    est = init_phase_retrieval(inst, Preprocessing.trim(9.0))
    return inst, est.point


def _knobs(x0, eta_scale=0.1):
    return {"eta": eta_scale / float(x0.x @ x0.x), "max_iters": 600}


# Outcomes at this instance: converged, except max_iters for the median
# factor 1.5 and diverged at the large step.
@pytest.mark.parametrize("runner, rule, extra", [
    (run_gd, None, {}),
    (run_gd, None, {"loss": "amplitude"}),
    (run_gd, None, {"batch_k": 60, "seed": 7}),
    (run_truncated_gd, "threshold", {}),
    (run_truncated_gd, "threshold", {"loss": "amplitude"}),
    (run_truncated_gd, "threshold", {"eta_scale": 5.0}),
    (run_truncated_gd, "median", {"median_factor": 5.0}),
    (run_truncated_gd, "median", {"median_factor": 1.5}),
])
def test_shared_forward_row_matches_the_reference_loop(pr, runner, rule, extra):
    inst, x0 = pr
    extra = dict(extra)
    knobs = _knobs(x0, extra.pop("eta_scale", 0.1))
    cfg = SolverConfig(dist_tol=1e-7 * float(np.linalg.norm(inst.truth["x"])),
                       **knobs, **extra)
    final, tr = runner(inst, x0, cfg)
    ref_final, ref_outcome, ref = _reference_run(inst, x0, cfg, rule)
    assert len(tr) >= 3
    assert tr.iters == list(range(len(ref["loss"])))
    assert tr.outcome == ref_outcome
    assert np.array_equal(final.x, ref_final.x)
    for col in ("loss", "grad_norm", "dist"):
        assert getattr(tr, col) == ref[col], col
    assert tr.incoh == ref["incoh_public"]
    for col in ("rc_ip", "rc_g2", "rc_d2"):
        assert tr.extras[col] == ref[col], col
    # max|A x - s A x*| against max|A (x - s x*)|: the two products are
    # each exact to round-off on the scale of max|A x*|, and near the truth
    # the proxy is many orders below that scale.
    scale = float(np.max(np.abs(inst.design["A"] @ inst.truth["x"])))
    np.testing.assert_allclose(tr.incoh, ref["incoh"], rtol=1e-12, atol=1e-12 * scale)


def test_shared_forward_median_rule_with_outliers_bitwise():
    clean = gen_phase_retrieval(16, 160, seed=32)
    inst = corrupt_outliers(clean, 0.05, seed=33)
    x0 = init_phase_retrieval(inst, Preprocessing.median_trim(3.0)).point
    cfg = SolverConfig(dist_tol=1e-7 * float(np.linalg.norm(inst.truth["x"])),
                       median_factor=5.0, **_knobs(x0))
    final, tr = run_truncated_gd(inst, x0, cfg)
    ref_final, ref_outcome, ref = _reference_run(inst, x0, cfg, "median")
    assert (tr.outcome, tr.loss, tr.dist) == (ref_outcome, ref["loss"], ref["dist"])
    assert np.array_equal(final.x, ref_final.x)


def test_precomputed_forward_product_is_bitwise_neutral(pr):
    inst, x0 = pr
    c = inst.design["A"] @ x0.x
    w = twf_mask(inst, x0.x, DEFAULT_TWF_THRESHOLDS).astype(float)
    for loss in ("plain", "amplitude"):
        unit = loss_and_grad(inst, x0, loss=loss, weights=np.ones(160))
        for weights in (None, w, np.ones(160)):
            val, g = loss_and_grad(inst, x0, loss=loss, weights=weights)
            val_c, g_c = loss_and_grad(inst, x0, loss=loss, weights=weights, forward=c)
            assert val == val_c
            assert np.array_equal(g.x, g_c.x)
            if weights is None:
                # Skipping unit weights is exact.
                assert (val, g.x.tolist()) == (unit[0], unit[1].x.tolist())
    np.testing.assert_array_equal(twf_mask(inst, x0.x, DEFAULT_TWF_THRESHOLDS, c), w > 0)
    np.testing.assert_array_equal(median_mask(inst, x0.x, 5.0, c),
                                  median_mask(inst, x0.x, 5.0))
    sens = gen_matrix_sensing(6, 6, 1, 12, True, seed=0)
    with pytest.raises(ValueError, match="forward product"):
        loss_and_grad(sens, FactorPoint.sym(np.ones((6, 1))), forward=np.ones(12))


def test_misshapen_forward_product_is_refused():
    # An unchecked product of the wrong shape broadcasts into a gradient of the
    # wrong shape: (6, 2) for the phase-retrieval vector, (6,) for the
    # quadratic-sensing part.
    pr = gen_phase_retrieval(6, 40, seed=0)
    with pytest.raises(ValueError, match=r"shape \(40,\), got \(40, 2\)"):
        loss_and_grad(pr, FactorPoint.vector(np.ones(6)), forward=np.ones((40, 2)))
    qs = gen_quadratic_sensing(6, 2, 40, 0)
    with pytest.raises(ValueError, match=r"shape \(40, 2\), got \(40,\)"):
        loss_and_grad(qs, FactorPoint.sym(np.ones((6, 2))), forward=np.ones(40))
    bd = gen_blind_deconv(3, 4, 9, seed=0)
    with pytest.raises(ValueError, match=r"shape \(9,\), got \(3,\)"):
        loss_and_grad(bd, FactorPoint.pair(np.ones(3), np.ones(4)), forward=np.ones(3))


def test_blind_deconvolution_row_shares_b_h_bitwise():
    inst = gen_blind_deconv(8, 8, 64, seed=35)
    x0 = init_blind_deconv(inst).point
    final, tr = run_gd(inst, x0, SolverConfig(eta=0.1, max_iters=20))
    point, loss, dist, incoh = x0.copy(), [], [], []
    hs, xs, B = inst.truth["h"], inst.truth["x"], inst.design["B"]
    for _ in range(len(tr)):
        val, grad = loss_and_grad(inst, point)
        loss.append(val)
        dist.append(dist_bd(point.h, point.x, hs, xs))
        incoh.append(bd_incoherence(point.h, B))
        last, point = point, point.add_scaled(-0.1, grad.parts)
    assert (tr.loss, tr.dist, tr.incoh) == (loss, dist, incoh)
    assert np.array_equal(final.h, last.h) and np.array_equal(final.x, last.x)
    # The shared B h is bitwise neutral in the loss and in bd_incoherence,
    # which ignores it for an h whose squared norm underflows.
    B = inst.design["B"]
    u = B @ x0.h
    for loss_tag in ("plain", "regularized"):
        val, g = loss_and_grad(inst, x0, loss=loss_tag)
        val_u, g_u = loss_and_grad(inst, x0, loss=loss_tag, forward=u)
        assert val == val_u
        assert np.array_equal(g.h, g_u.h) and np.array_equal(g.x, g_u.x)
    assert bd_incoherence(x0.h, B, u) == bd_incoherence(x0.h, B)
    tiny = 1e-170 * x0.h
    assert bd_incoherence(tiny, B, np.zeros(64)) == bd_incoherence(tiny, B) > 0.0


def _counting(M, log, truth=None):
    # M as an ndarray subclass that logs each `M @ v` (and transposed or
    # conjugated views of M): "forward" for M's own shape, "adjoint" for
    # the transpose, and "truth" for a product with the array ``truth``.
    class Counted(np.ndarray):
        def __matmul__(self, other):
            kind = "forward" if self.shape == M.shape else "adjoint"
            log.append("truth" if other is truth else kind)
            return np.matmul(self.view(np.ndarray), other)

        def __rmatmul__(self, other):
            log.append("right")
            return np.matmul(other, self.view(np.ndarray))

    return M.view(Counted)


@pytest.mark.parametrize("runner, extra", [
    (run_gd, {}),
    (run_gd, {"loss": "amplitude"}),
    (run_gd, {"batch_k": 60, "seed": 7}),
    (run_truncated_gd, {}),
    (run_truncated_gd, {"median_factor": 5.0}),
])
def test_phase_retrieval_row_makes_one_forward_and_one_adjoint_product(pr, runner, extra):
    _, x0 = pr
    inst = gen_phase_retrieval(16, 160, seed=31)  # the fixture's, left unwrapped
    log = []
    inst.design["A"] = _counting(inst.design["A"], log, inst.truth["x"])
    rows = 6
    cfg = SolverConfig(**{**_knobs(x0), "max_iters": rows - 1, **extra})
    for run in range(2):
        del log[:]
        _, tr = runner(inst, x0, cfg)
        assert (len(tr), tr.outcome) == (rows, "max_iters")
        # One A x and one A^T r per row, and A x* once per instance: in the
        # first row of the first run.
        assert [k for k in log if k != "truth"] == ["forward", "adjoint"] * rows
        assert log.count("truth") == (1 if run == 0 else 0)


@pytest.mark.parametrize("extra", [{}, {"batch_k": 60, "seed": 7}])
def test_quadratic_sensing_row_makes_one_forward_and_one_adjoint_product(extra):
    # Quadratic sensing shares A X the way phase retrieval shares A x: one
    # A X per loss evaluation, row or rejected trial of the default step's
    # line search, and one A^T r per row.
    inst = gen_quadratic_sensing(10, 2, 120, seed=38)
    X0 = init_quadratic_sensing(inst, 2).point
    log = []
    inst.design["A"] = _counting(inst.design["A"], log)
    rows = 6
    _, tr = run_gd(inst, X0, SolverConfig(max_iters=rows - 1, **extra))
    assert (len(tr), tr.outcome) == (rows, "max_iters")
    evaluations = rows + sum(tr.extras.get("rejected", ()))
    assert (log.count("forward"), log.count("adjoint"), len(log)) \
        == (evaluations, rows, evaluations + rows)
    C = inst.design["A"].view(np.ndarray) @ X0.X
    for weights in (None, np.linspace(0.0, 2.0, 120)):
        val, g = loss_and_grad(inst, X0, weights=weights)
        val_c, g_c = loss_and_grad(inst, X0, weights=weights, forward=C)
        assert val == val_c and np.array_equal(g.X, g_c.X)


def _bd_product_logs(rows, loss="plain", given_mu=True):
    # The products with A and B that run_gd makes in `rows` rows; the
    # regularized loss gets mu, taken from the truth before B is wrapped,
    # unless given_mu is False.
    inst = gen_blind_deconv(8, 8, 64, seed=35)
    x0 = init_blind_deconv(inst).point
    params = {"mu": bd_incoherence(inst.truth["h"], inst.design["B"])} \
        if loss == "regularized" and given_mu else None
    logs = {"A": [], "B": []}
    for key in logs:
        inst.design[key] = _counting(inst.design[key], logs[key])
    _, tr = run_gd(inst, x0, SolverConfig(max_iters=rows - 1, loss=loss, loss_params=params))
    assert (len(tr), tr.outcome) == (rows, "max_iters")
    return logs, rows + sum(tr.extras["rejected"])


# A default-step run values the loss once per row and once per rejected
# trial: one forward product with each of A and B per evaluation, and one
# adjoint product with each per row, for that row's gradient.

def test_blind_deconvolution_row_makes_one_product_per_factor_and_side():
    rows = 6
    logs, evaluations = _bd_product_logs(rows)
    for key, log in logs.items():
        assert sorted(log) == ["adjoint"] * rows + ["forward"] * evaluations, key


def test_regularized_blind_deconvolution_row_with_mu_makes_one_forward_b_product():
    # A given mu is the only incoherence scale the regularized row needs;
    # its hinge gradient rides on the data term's adjoint B product.
    rows = 6
    logs, evaluations = _bd_product_logs(rows, loss="regularized")
    assert sorted(logs["A"]) == ["adjoint"] * rows + ["forward"] * evaluations
    assert sorted(logs["B"]) == ["adjoint"] * rows + ["forward"] * evaluations


def test_regularized_blind_deconvolution_default_mu_is_formed_once_per_instance():
    # Without mu the row takes the planted pair's incoherence, one forward B
    # product formed once per instance; the losses are those of the given mu.
    rows = 6
    logs, evaluations = _bd_product_logs(rows, loss="regularized", given_mu=False)
    assert sorted(logs["A"]) == ["adjoint"] * rows + ["forward"] * evaluations
    assert sorted(logs["B"]) == ["adjoint"] * rows + ["forward"] * (evaluations + 1)
    inst = gen_blind_deconv(8, 8, 64, seed=35)
    x0 = init_blind_deconv(inst).point
    mu = bd_incoherence(inst.truth["h"], inst.design["B"])
    _, tr = run_gd(inst, x0, SolverConfig(max_iters=rows - 1, loss="regularized"))
    _, given = run_gd(inst, x0, SolverConfig(max_iters=rows - 1, loss="regularized",
                                             loss_params={"mu": mu}))
    assert tr.loss == given.loss


def test_error_reduction_row_makes_one_forward_product_and_shares_it_with_the_step():
    inst = gen_phase_retrieval(16, 160, seed=31)
    x0 = init_phase_retrieval(inst, Preprocessing.trim(9.0)).point
    ref_x, ref = er_phase_retrieval(inst, x0.x, AltMinConfig(max_outer=5))
    log = []
    inst.design["A"] = _counting(inst.design["A"], log, inst.truth["x"])
    x, tr = er_phase_retrieval(inst, x0.x, AltMinConfig(max_outer=5))
    rows = 6
    assert (len(tr), tr.outcome) == (rows, "max_iters")
    # One A x per row, shared by the loss, the proxy and the sign step, one
    # A^T r for the loss gradient, and A x* once per instance.
    assert [k for k in log if k != "truth"] == ["forward", "adjoint"] * rows
    assert log.count("truth") == 1
    assert np.array_equal(x, ref_x) and (tr.loss, tr.incoh) == (ref.loss, ref.incoh)
    assert tr.dist[-1] == dist_vector(x, inst.truth["x"])


def _procrustes_calls(monkeypatch):
    # The (F, Fs) pairs of every Procrustes rotation made through core's or
    # problems' binding (the rows' truth gap), core.dist_factors included.
    calls, procrustes = [], core.procrustes

    def counted(F, Fs):
        calls.append((F.copy(), Fs))
        return procrustes(F, Fs)

    monkeypatch.setattr(core, "procrustes", counted)
    monkeypatch.setattr(problems, "procrustes", counted)
    return calls


def _assert_rows_align_once(tr, calls):
    run = list(calls)  # the checks below add rotations of their own
    assert len(run) == len(tr)
    for k, (F, Fs) in enumerate(run):
        assert tr.dist[k] == dist_factors(F, Fs)
        assert tr.incoh[k] == max_row_norm(F @ core.procrustes(F, Fs) - Fs)
    return run[-1][0]


def test_symmetric_descent_row_makes_one_procrustes_rotation(monkeypatch):
    inst = gen_matrix_completion(30, 30, 2, 0.5, True, seed=36)
    x0 = init_matrix_completion(inst, 2).point
    calls = _procrustes_calls(monkeypatch)
    final, tr = run_gd(inst, x0, SolverConfig(max_iters=5))
    assert (len(tr), tr.outcome) == (6, "max_iters")
    assert np.array_equal(_assert_rows_align_once(tr, calls), final.X)


def test_altmin_row_makes_one_procrustes_rotation(monkeypatch):
    # The row aligns the balanced factors of L R^T, not the iterate itself.
    inst = gen_matrix_completion(30, 24, 2, 0.5, False, seed=37)
    L0 = init_matrix_completion(inst, 2).point.L
    calls = _procrustes_calls(monkeypatch)
    L, R, tr = altmin_mc(inst, L0, AltMinConfig(max_outer=5))
    assert (len(tr), tr.outcome) == (5, "max_iters")
    assert np.array_equal(_assert_rows_align_once(tr, calls), np.vstack(_balanced(L, R)))
