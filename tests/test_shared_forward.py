"""The phase-retrieval descent row computes A x once and shares it between the
mask, the loss and the incoherence proxy.  Checked against a hand-written
loop that evaluates every term from its own product, through the public
loss_and_grad, twf_mask and median_mask: the trajectories must be bitwise
equal, and the proxy, which now subtracts a memoized A x* from A x, must
agree to round-off.  Also checks the A x* memo itself."""

import json
import math

import numpy as np
import pytest

from lowrank_ncvx.core import FactorPoint, derive_seed, make_rng
from lowrank_ncvx.gd import (
    DEFAULT_TWF_THRESHOLDS,
    SolverConfig,
    dist_to_truth,
    incoherence_proxy,
    median_mask,
    run_gd,
    run_truncated_gd,
    twf_mask,
)
from lowrank_ncvx.problems import (
    corrupt_outliers,
    gen_matrix_sensing,
    gen_phase_retrieval,
    instance_from_json,
    instance_to_json,
    instances_equal,
    loss_and_grad,
)
from lowrank_ncvx.spectral import Preprocessing, init_phase_retrieval


def _reference_run(inst, x0, cfg, rule=None):
    # The descent row written out, each term computing its own A x; returns
    # the final point, the outcome and the trace columns.
    A, xs, m = inst.design["A"], inst.truth["x"], inst.params["m"]
    if cfg.batch_k is not None:
        rng = make_rng(derive_seed(cfg.seed, "minibatch"))
    cols = {k: [] for k in ("loss", "grad_norm", "dist", "incoh",
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
                   "dist": dist_to_truth(inst, point),
                   "incoh": float(np.max(np.abs(A @ diff))),
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
    assert incoherence_proxy(inst, x0, c) == incoherence_proxy(inst, x0)
    sens = gen_matrix_sensing(6, 6, 1, 12, True, seed=0)
    with pytest.raises(ValueError, match="forward product"):
        loss_and_grad(sens, FactorPoint.sym(np.ones((6, 1))), forward=np.ones(12))


def test_truth_forward_memo_follows_the_design_and_stays_out_of_json():
    inst = gen_phase_retrieval(12, 60, seed=34)
    text = instance_to_json(inst)
    x = FactorPoint.vector(make_rng(34).standard_normal(12))
    first = incoherence_proxy(inst, x)
    assert "_truth_forward" in vars(inst)
    assert instance_to_json(inst) == text
    assert "_truth_forward" not in text
    assert instances_equal(inst, instance_from_json(text))
    assert set(json.loads(text)["design"]) == {"A"}
    # A replaced design matrix rebuilds the memo ...
    inst.design["A"] = 2.0 * inst.design["A"]
    assert incoherence_proxy(inst, x) == pytest.approx(2.0 * first, rel=1e-12)
    assert vars(inst)["_truth_forward"][0] is inst.design["A"]
    # ... and so does a replaced truth.
    inst.truth["x"] = 0.5 * inst.truth["x"]
    xs = inst.truth["x"]
    s = -1.0 if float(x.x @ xs) < 0.0 else 1.0
    want = float(np.max(np.abs(inst.design["A"] @ (x.x - s * xs))))
    assert incoherence_proxy(inst, x) == pytest.approx(want, rel=1e-12)
