"""The backtracking default step of gd's descent runs.

With eta None (and no mini-batch), each row's step comes from an Armijo line
search: a trial x+ passes if f(x+) <= f(x) - ||x+ - x||_M^2 / (2 eta), and
each failure halves eta.  The first trial is the two-point step of Barzilai
and Borwein (1988), falling back to the last accepted step (gd._descend
gives the rule).  The trace records the accepted step ("eta") and the
refused trials ("rejected") of every row.

A projected run tests its trials in the proximal-gradient form
f(x+) <= f(x) + <g, x+ - x> + ||x+ - x||^2 / (2 eta), which implies the test
above from a point inside the convex constraint set and, unlike it, passes
at a small enough eta from an init outside the set.

The oracle below replays a run from those two columns alone, through the
public loss_and_grad and the run's projector, with the step metric and the
first-trial rule written out here: every row must be the replayed point,
satisfy the decrease test, and be the first trial of its row's halving
sequence that does, and that sequence must start from the replayed first
trial (to the round-off of a two-point step's inner products).
"""

import math

import numpy as np
import pytest

from lowrank_ncvx import gd, problems
from lowrank_ncvx.core import FactorPoint
from lowrank_ncvx.gd import (
    SolverConfig,
    default_step_size,
    make_incoherent_projector,
    run_gd,
    run_rpca,
    run_truncated_gd,
)
from lowrank_ncvx.problems import (
    gen_blind_deconv,
    gen_matrix_completion,
    gen_phase_retrieval,
    gen_rpca,
    loss_and_grad,
)
from lowrank_ncvx.spectral import (
    Preprocessing,
    init_blind_deconv,
    init_matrix_completion,
    init_phase_retrieval,
    init_rpca,
)


def _metric(point, a, b):
    # <a, b>_M for steps a, b (parts lists) from point: Euclidean, except
    # Re<a_h, b_h> ||x||^2 + Re<a_x, b_x> ||h||^2 for a blind-deconvolution pair.
    d = [float(np.sum(np.conj(u) * v).real) for u, v in zip(a, b)]
    if point.kind == "pair":
        h, x = point.parts
        return d[0] * np.linalg.norm(x) ** 2 + d[1] * np.linalg.norm(h) ** 2
    return sum(d)


def _minus(a, b):
    return [u - v for u, v in zip(a, b)]


def _abs(a):
    return [np.abs(u) for u in a]


_EPS = np.finfo(float).eps


def _replay(inst, x0, tr, project=None):
    """Check every row of the default-step run ``tr`` from x0 against its
    eta and rejected columns; return the replayed final point, the number of
    trials that refused, and each row's first-trial rule: "held" (no last
    step: the first row, or the row after a null step), "flat" (<y, y>_M =
    0), "negative" (<s, y>_M < 0), "bb2", or None where round-off leaves the
    sign of <s, y>_M open.  The first three start from the held step.  A row with eta 0.0 is a null step: all of its trials
    refused and the point stays."""
    etas, rejected = tr.extras["eta"], tr.extras["rejected"]
    assert math.isnan(etas[0]) and rejected[0] == 0
    held = default_step_size(inst, x0)
    point, refused, kinds, s, prev = x0, 0, [None], None, None
    val, grad = loss_and_grad(inst, point)
    assert val == tr.loss[0]

    def trial(step):
        # (x+, the run's test, the Armijo test); a round-off allowance covers
        # the other summation order of the metric and inner product here.
        new = point.add_scaled(-step, grad.parts)
        new = new if project is None else project(new)
        d = _minus(new.parts, point.parts)
        fval, slack = loss_and_grad(inst, new)[0], 1e-13 * abs(val)
        decrease = _metric(point, d, d) / (2.0 * step)
        if project is None:
            armijo = fval <= val - decrease + slack
            return new, armijo, armijo
        linear = sum(float(np.sum(g * e)) for g, e in zip(grad.parts, d))
        prox = fval <= val + linear + decrease + slack
        # The proximal test implies the Armijo test when <g + d / step, d>
        # <= 0, which the projection gives in exact arithmetic.  Rounding the
        # free point x - step g and the difference d = x+ - x errs by
        # |e_i| <= b_i = 2 eps (|x_i| + |x+_i|), moving that product by at
        # most sum |g_i| b_i + sum b_i^2 / step; unclipped, d = -step g + e
        # and the product is exactly <e, e / step - g>.
        b = [2.0 * _EPS * (np.abs(p) + np.abs(q)) for p, q in zip(point.parts, new.parts)]
        rounding = sum(float(np.sum(np.abs(g) * c + c * c / step))
                       for g, c in zip(grad.parts, b))
        return new, prox, fval <= val - decrease + slack + rounding

    for t in range(1, len(tr)):
        k, kind, first = rejected[t], "held", held
        if s is not None:
            # The run sums <s, y>_M and <y, y>_M over the n entries in another
            # order; each order errs by at most (n + 2) eps <|s|, |y|>_M, so
            # the two two-point steps agree to rel, and the sign of <s, y>_M
            # is known where |<s, y>_M| exceeds twice that.
            y = _minus(grad.parts, prev)
            sy, yy = _metric(point, s, y), _metric(point, y, y)
            c = 2.0 * (sum(u.size for u in s) + 2) * _EPS
            mag = _metric(point, _abs(s), _abs(y))
            if yy == 0.0:
                kind = "flat"
            elif sy < -c * mag:
                kind = "negative"
            elif sy > c * mag:
                kind, first, rel = "bb2", sy / yy, c * (mag / sy + 2.0)
            else:
                kind = None
        kinds.append(kind)
        refused += k
        if etas[t] == 0.0:  # a null step
            assert k == gd._HALVINGS + 1, t
            s = None
            assert loss_and_grad(inst, point)[0] == tr.loss[t], t
            # The run's first trial is known exactly only where it is the
            # held step; one known to round-off cannot replay trials at the
            # floor, where null steps happen.
            if kind in ("held", "flat", "negative"):
                for j in range(k):
                    assert not trial(first * 0.5 ** j)[1], (t, j)
            continue
        eta0 = etas[t] * 2.0 ** k  # the run's first trial, exactly
        if kind in ("held", "flat", "negative"):
            assert eta0 == first, t
        elif kind == "bb2":
            assert math.isclose(eta0, first, rel_tol=rel), t
        for j in range(k):  # the larger trials of the row all failed
            assert not trial(eta0 * 0.5 ** j)[1], (t, j)
        new, ok, armijo = trial(etas[t])
        assert ok and armijo, t
        s, prev, held = _minus(new.parts, point.parts), grad.parts, etas[t]
        point = new
        val, grad = loss_and_grad(inst, point)
        assert val == tr.loss[t], t
    return point, refused, kinds


def _pr():
    inst = gen_phase_retrieval(16, 160, seed=31)
    return inst, init_phase_retrieval(inst, Preprocessing.trim(9.0)).point


def _bd():
    inst = gen_blind_deconv(8, 8, 64, seed=35)
    return inst, init_blind_deconv(inst).point


def _mc(symmetric):
    def make():
        inst = gen_matrix_completion(30, 30, 2, 0.5, symmetric, seed=36)
        return inst, init_matrix_completion(inst, 2).point
    return make


def _pr_random():
    # Far from the truth, where the loss has negative curvature and the
    # two-point step meets <s, y> <= 0.
    inst = gen_phase_retrieval(16, 160, seed=31)
    return inst, FactorPoint.vector(np.random.default_rng(0).standard_normal(16))


@pytest.mark.parametrize("make, projected", [
    (_pr, False), (_pr_random, False), (_mc(True), False), (_mc(False), False),
    (_mc(True), True), (_bd, False),
], ids=["phase-retrieval", "phase-retrieval-random-init", "sym-completion", "asym-completion",
        "projected-completion", "blind-deconvolution"])
def test_every_default_step_row_passes_the_decrease_test(make, projected):
    inst, x0 = make()
    proj = make_incoherent_projector(inst, x0) if projected else None
    final, tr = run_gd(inst, x0, SolverConfig(max_iters=80, project=proj))
    assert tr.outcome == "max_iters"
    replayed, refused, kinds = _replay(inst, x0, tr, proj)
    assert all(np.array_equal(a, b) for a, b in zip(replayed.parts, final.parts))
    assert refused == sum(tr.extras["rejected"]) > 0
    assert all(b <= a for a, b in zip(tr.loss, tr.loss[1:]))
    if make is _pr_random:
        assert "negative" in kinds


def test_projected_run_from_an_init_outside_the_set_converges():
    # A spiky init row that the projector clips: from x0 the Armijo test
    # fails at every trial step, since x+ tends to the clipped x0 and not to
    # x0, and the proximal-gradient test passes at the first.
    inst, x0 = _mc(True)()
    X0 = x0.X.copy()
    X0[0] *= 20.0
    spiky = FactorPoint.sym(X0)
    proj = make_incoherent_projector(inst, x0)
    assert not np.array_equal(proj(spiky).X, X0)
    val, grad = loss_and_grad(inst, spiky)
    eta = default_step_size(inst, spiky)
    for k in (0, 10, 30, 60):
        new = proj(spiky.add_scaled(-eta * 0.5 ** k, grad.parts))
        d = _minus(new.parts, spiky.parts)
        assert loss_and_grad(inst, new)[0] > val - _metric(spiky, d, d) / (2.0 * eta * 0.5 ** k)
    tol = 1e-8 * float(np.linalg.norm(inst.truth["X"]))
    _, tr = run_gd(inst, spiky, SolverConfig(max_iters=500, project=proj, dist_tol=tol))
    assert tr.outcome == "converged" and tr.extras["rejected"][1] == 0
    assert all(b <= a for a, b in zip(tr.loss, tr.loss[1:]))


def test_blind_deconvolution_backtracking_is_scale_invariant():
    # The pair metric makes the test read the same at every scale of the
    # truth; a Euclidean test stalls the small-norm instance.
    runs = []
    for norm in (0.01, 1.0, 100.0):
        inst = gen_blind_deconv(16, 16, 256, seed=5, norm=norm)
        x0 = init_blind_deconv(inst).point
        tol = 1e-6 * math.sqrt(2.0) * norm
        _, tr = run_gd(inst, x0, SolverConfig(max_iters=3000, dist_tol=tol))
        assert tr.outcome == "converged" and tr.dist[-1] <= tol
        runs.append((len(tr), sum(tr.extras["rejected"])))
    assert runs[0] == runs[1] == runs[2] and runs[0][0] < 60


def _counting(M, log, truth):
    # M as an ndarray subclass that logs each product with it: "forward" for
    # M @ v, "adjoint" for M^T @ v, and "truth" for M @ truth.
    class Counted(np.ndarray):
        def __matmul__(self, other):
            kind = "forward" if self.shape == M.shape else "adjoint"
            log.append("truth" if other is truth else kind)
            return np.matmul(self.view(np.ndarray), other)

    return M.view(Counted)


def test_plain_default_step_run_evaluates_rows_plus_rejections():
    # The accepted trial's evaluation is the next row's: each of the
    # len(trace) + sum(rejected) evaluations is one A x, and only a row forms
    # its gradient, one A^T r, from the accepted trial's deferred value.
    inst, x0 = _pr()
    ref, ref_tr = run_gd(inst, x0, SolverConfig(max_iters=40))
    log = []
    inst.design["A"] = _counting(inst.design["A"], log, inst.truth["x"])
    final, tr = run_gd(inst, x0, SolverConfig(max_iters=40))
    assert np.array_equal(final.x, ref.x) and tr.loss == ref_tr.loss
    evaluations = len(tr) + sum(tr.extras["rejected"])
    assert sum(tr.extras["rejected"]) > 0
    assert log.count("forward") == evaluations
    assert log.count("adjoint") == len(tr)
    assert log.count("truth") == 1  # A x*, once per instance, for the trace's gap


@pytest.mark.parametrize("extra", [{}, {"median_factor": 5.0}], ids=["threshold", "median"])
def test_truncated_default_step_run_forms_one_gradient_per_row(extra):
    # A trial is valued with the row's mask frozen and its gradient is never
    # formed; the next row values the accepted trial again under its fresh
    # mask, from the trial's A x, and forms that row's one A^T r.
    inst, x0 = _pr()
    cfg = SolverConfig(max_iters=40, **extra)
    ref, ref_tr = run_truncated_gd(inst, x0, cfg)
    log = []
    inst.design["A"] = _counting(inst.design["A"], log, inst.truth["x"])
    final, tr = run_truncated_gd(inst, x0, cfg)
    assert np.array_equal(final.x, ref.x) and tr.loss == ref_tr.loss
    assert sum(tr.extras["rejected"]) > 0
    assert log.count("forward") == len(tr) + sum(tr.extras["rejected"])
    assert log.count("adjoint") == len(tr)
    assert log.count("truth") == 1


def _sampling_calls(monkeypatch):
    # Counts of the sampling operator's model products and adjoints.
    calls = {"measure_factors": 0, "adjoint": 0}
    for name in calls:
        method = getattr(problems._EntrySampling, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(problems._EntrySampling, name, counted)
    return calls


def test_completion_default_step_run_measures_each_valued_point_once(monkeypatch):
    # The model on the index is completion's shared product: each of the
    # len(trace) + sum(rejected) evaluations measures it once, and only a
    # row forms a gradient, one adjoint.
    inst = gen_matrix_completion(30, 30, 2, 0.5, True, seed=36)
    x0 = init_matrix_completion(inst, 2).point
    ref, ref_tr = run_gd(inst, x0, SolverConfig(max_iters=40))
    calls = _sampling_calls(monkeypatch)
    final, tr = run_gd(inst, x0, SolverConfig(max_iters=40))
    assert np.array_equal(final.X, ref.X) and tr.loss == ref_tr.loss
    assert sum(tr.extras["rejected"]) > 0
    assert calls["measure_factors"] == len(tr) + sum(tr.extras["rejected"])
    assert calls["adjoint"] == len(tr)


def test_rpca_default_step_run_forms_one_gradient_per_row(monkeypatch):
    # Products of the sampling operator.  The model is measured once at the
    # init and once per trial; a row refreshes S from its accepted trial's
    # model and values the point again at its fresh S from the same model.
    # Only a row forms a gradient, one adjoint, and each row after the first
    # refreshes S from the adjoint of one residual.
    inst = gen_rpca(60, 60, 2, 0.5, 0.02, 1.0, seed=7)
    est, S0 = init_rpca(inst, 2)
    cfg = SolverConfig(max_iters=40, project=make_incoherent_projector(inst, est.point))
    ref, ref_S, ref_tr = run_rpca(inst, est.point, S0, cfg)
    calls = _sampling_calls(monkeypatch)
    final, S, tr = run_rpca(inst, est.point, S0, cfg)
    assert np.array_equal(final.X, ref.X) and np.array_equal(S, ref_S)
    assert tr.loss == ref_tr.loss
    assert sum(tr.extras["rejected"]) > 0
    refreshes = len(tr) - 1
    trials = len(tr) - 1 + sum(tr.extras["rejected"])
    assert calls["measure_factors"] == 1 + trials
    assert calls["adjoint"] == len(tr) + refreshes


@pytest.mark.parametrize("make", [_pr, _bd], ids=["phase-retrieval", "blind-deconvolution"])
def test_run_started_at_the_truth_rejects_nothing(make):
    inst, _ = make()
    t = inst.truth
    x = FactorPoint.vector(t["x"]) if "h" not in t else FactorPoint.pair(t["h"], t["x"])
    _, tr = run_gd(inst, x, SolverConfig(max_iters=200))
    assert (len(tr), tr.outcome) == (201, "max_iters")
    assert tr.loss == [0.0] * 201
    assert sum(tr.extras["rejected"]) == 0
    # A null step never grows the step, so no row tries an overflowing one.
    assert set(tr.extras["eta"][1:]) == {default_step_size(inst, x)}


def test_row_after_a_null_step_starts_from_the_held_step(monkeypatch):
    # With at most three halvings a row, phase retrieval meets null steps at
    # its round-off floor.  A null step leaves no last step to take a
    # two-point step from, so the next row's first trial is the held step:
    # exactly the last accepted step.
    monkeypatch.setattr(gd, "_HALVINGS", 3)
    inst, x0 = _pr()
    final, tr = run_gd(inst, x0, SolverConfig(max_iters=200))
    etas, rejected = tr.extras["eta"], tr.extras["rejected"]
    null = [t for t, eta in enumerate(etas) if eta == 0.0]
    replayed, _, kinds = _replay(inst, x0, tr)
    assert np.array_equal(replayed.x, final.x)
    assert all(b <= a for a, b in zip(tr.loss, tr.loss[1:]))
    after = [t + 1 for t in null if t + 1 < len(tr) and etas[t + 1] > 0.0]
    assert after
    for t in after:
        last = [eta for eta in etas[1:t] if eta > 0.0][-1]
        assert kinds[t] == "held" and etas[t] * 2.0 ** rejected[t] == last, t


def test_unprojected_default_step_converges_where_the_constant_step_diverges():
    # Symmetric completion at n = 2000, p = 0.02: the spectral init has a row
    # of norm 26.5 against at most 5.4 in the truth, and the constant default
    # step diverges within a few rows.
    inst = gen_matrix_completion(2000, 2000, 5, 0.02, True, 6000)
    x0 = init_matrix_completion(inst, 5).point
    tol = 1e-6 * float(np.linalg.norm(inst.truth["X"]))
    _, const = run_gd(inst, x0, SolverConfig(eta=default_step_size(inst, x0), max_iters=50))
    assert const.outcome == "diverged"
    _, tr = run_gd(inst, x0, SolverConfig(max_iters=500, dist_tol=tol))
    assert tr.outcome == "converged" and tr.dist[-1] <= tol
    assert all(b <= a for a, b in zip(tr.loss, tr.loss[1:]))


@pytest.mark.parametrize("make", [_pr, _bd], ids=["phase-retrieval", "blind-deconvolution"])
def test_run_past_the_round_off_floor_ends_in_bounded_evaluations(make):
    inst, x0 = make()
    # Rows to the floor: the first row whose distance no later row beats.
    _, probe = run_gd(inst, x0, SolverConfig(max_iters=300))
    floor = int(np.argmin(probe.dist))
    assert probe.dist[floor] <= 1e-14
    _, tr = run_gd(inst, x0, SolverConfig(max_iters=floor + 400))
    assert (len(tr), tr.outcome) == (floor + 401, "max_iters")
    assert tr.dist[-1] <= 1e-14
    # Each row tried at most 61 steps; on these instances the rows past the
    # floor take null or round-off steps at one evaluation each.
    assert sum(tr.extras["rejected"]) <= len(tr)
    assert sum(tr.extras["rejected"][floor:]) <= 20


def test_mini_batch_default_step_is_the_constant_default_step():
    inst, x0 = _pr()
    cfg = SolverConfig(max_iters=30, batch_k=40, seed=5)
    fa, ta = run_gd(inst, x0, cfg)
    fb, tb = run_gd(inst, x0, SolverConfig(max_iters=30, batch_k=40, seed=5,
                                           eta=default_step_size(inst, x0)))
    assert np.array_equal(fa.x, fb.x)
    assert (ta.loss, ta.grad_norm, ta.dist) == (tb.loss, tb.grad_norm, tb.dist)
    assert "eta" not in ta.extras and "rejected" not in ta.extras


def test_truncated_and_rpca_runs_backtrack_with_the_row_weights_frozen():
    inst, x0 = _pr()
    nx = float(np.linalg.norm(inst.truth["x"]))
    for extra in ({}, {"median_factor": 5.0}):
        _, tr = run_truncated_gd(inst, x0, SolverConfig(max_iters=3000, dist_tol=1e-7 * nx,
                                                        **extra))
        assert tr.outcome == "converged" and len(tr) < 300
        assert all(math.isfinite(e) and e > 0 for e in tr.extras["eta"][1:])
    inst = gen_rpca(60, 60, 2, 0.5, 0.02, 1.0, seed=7)
    est, S0 = init_rpca(inst, 2)
    sr = float(inst.truth["sigma"][-1])
    cfg = SolverConfig(max_iters=600, project=make_incoherent_projector(inst, est.point),
                       dist_tol=math.sqrt(1e-8 * sr))
    _, _, tr = run_rpca(inst, est.point, S0, cfg)
    _, _, const = run_rpca(inst, est.point, S0,
                           SolverConfig(eta=default_step_size(inst, est.point), max_iters=600,
                                        project=cfg.project, dist_tol=cfg.dist_tol))
    assert tr.outcome == const.outcome == "converged"
    assert len(tr) < len(const)
