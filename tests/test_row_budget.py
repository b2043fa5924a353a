"""Guards on the descent row that wall times cannot give.

A traced run replaces the module bindings of the library's functions with
span wrappers, so a row that reaches loss_and_grad, the masks, dist_bd or
bd_incoherence some other way (a local alias, a private helper) silently
drops out of the per-layer view.  The first tests wrap the module bindings
the row calls through (gd's, and problems' for the truth gap's dist_bd and
bd_incoherence) with counters and require one call per row; a default-step
row also values each line-search trial through gd's loss_value binding.

The next requires that no row builds a point through FactorPoint's checked
constructor: one re-check per row fits inside the slack of the budgets
below.  The last four count the Python function calls a row makes (the
default-step row: per loss evaluation, rejected trials included), as
sys.setprofile reports them.  Unlike its wall time, that count is the same
on every machine, so a row that gains interpreter work (a re-check, a
re-lookup, a per-row counter) fails here instead of silently eating the
time of its arithmetic.  The bounds are the counts of the current row plus
20%.
"""

import sys

import pytest

from lowrank_ncvx import gd, problems
from lowrank_ncvx.core import FactorPoint
from lowrank_ncvx.direct import AltMinConfig, altmin_mc, ppm
from lowrank_ncvx.gd import SolverConfig, run_gd, run_truncated_gd
from lowrank_ncvx.problems import (
    gen_blind_deconv,
    gen_matrix_completion,
    gen_phase_retrieval,
    gen_phase_sync,
)
from lowrank_ncvx.spectral import (
    Preprocessing,
    init_blind_deconv,
    init_matrix_completion,
    init_phase_retrieval,
    init_phase_sync,
)

ROWS = 20
# Python calls per row of the runs below, with NumPy 2.4, whose own Python
# wrappers (np.linalg.norm, ndarray.sum, np.vdot) count too, so a NumPy
# upgrade may move them.  Before the row was trimmed of its per-row checks
# and lookups they read 67.4 and 105.3.
TWF_CALLS_PER_ROW = 35.4
BD_CALLS_PER_ROW = 55.4
# Per loss evaluation (row or rejected trial) of the default-step
# blind-deconvolution run, whose line search adds the step metric.
BD_SEARCH_CALLS_PER_EVALUATION = 62.8
# Per loss evaluation of the default-step truncated phase-retrieval run,
# whose rows also value the accepted trial again under their fresh mask.
TWF_SEARCH_CALLS_PER_EVALUATION = 39.1
_BOUND = ("loss_and_grad", "loss_value", "twf_mask", "median_mask", "dist_bd",
          "bd_incoherence")


@pytest.fixture(scope="module")
def pr():
    inst = gen_phase_retrieval(16, 160, seed=31)
    x0 = init_phase_retrieval(inst, Preprocessing.trim(9.0)).point
    return inst, x0, 0.1 / float(x0.x @ x0.x)


@pytest.fixture(scope="module")
def bd():
    inst = gen_blind_deconv(8, 8, 64, seed=35)
    return inst, init_blind_deconv(inst).point, 0.1


def _count_bound_calls(monkeypatch):
    calls = dict.fromkeys(_BOUND, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in _BOUND:
        mod = problems if name in ("dist_bd", "bd_incoherence") else gd
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls


@pytest.mark.parametrize("runner, extra, expected", [
    (run_gd, {}, ("loss_and_grad",)),
    (run_truncated_gd, {}, ("loss_and_grad", "twf_mask")),
    (run_truncated_gd, {"median_factor": 5.0}, ("loss_and_grad", "median_mask")),
])
def test_phase_retrieval_row_calls_the_traced_bindings_once(monkeypatch, pr, runner, extra,
                                                            expected):
    inst, x0, eta = pr
    calls = _count_bound_calls(monkeypatch)
    _, tr = runner(inst, x0, SolverConfig(eta=eta, max_iters=ROWS - 1, **extra))
    assert (len(tr), tr.outcome) == (ROWS, "max_iters")
    assert calls == {name: (ROWS if name in expected else 0) for name in _BOUND}


def test_blind_deconvolution_row_calls_the_traced_bindings_once(monkeypatch, bd):
    inst, x0, eta = bd
    calls = _count_bound_calls(monkeypatch)
    _, tr = run_gd(inst, x0, SolverConfig(eta=eta, max_iters=ROWS - 1))
    assert (len(tr), tr.outcome) == (ROWS, "max_iters")
    assert calls == {"loss_and_grad": ROWS, "loss_value": 0, "twf_mask": 0, "median_mask": 0,
                     "dist_bd": ROWS, "bd_incoherence": ROWS}


@pytest.mark.parametrize("extra, mask", [
    ({}, "twf_mask"), ({"median_factor": 5.0}, "median_mask"),
])
def test_default_step_truncated_row_values_its_trials_through_loss_value(monkeypatch, pr, extra,
                                                                          mask):
    # Each row forms its one gradient through loss_and_grad, under its own
    # mask; each trial, rejected or accepted, is only valued.
    inst, x0, _ = pr
    calls = _count_bound_calls(monkeypatch)
    _, tr = run_truncated_gd(inst, x0, SolverConfig(max_iters=ROWS - 1, **extra))
    assert (len(tr), tr.outcome) == (ROWS, "max_iters")
    trials = ROWS - 1 + sum(tr.extras["rejected"])
    assert calls == {name: 0 for name in _BOUND} | {"loss_and_grad": ROWS, "loss_value": trials,
                                                    mask: ROWS}


def _checked_points(monkeypatch, run):
    # FactorPoint.__post_init__ calls (the checked constructor) during run.
    calls, check = [], FactorPoint.__post_init__

    def counted(self):
        calls.append(self.kind)
        check(self)

    monkeypatch.setattr(FactorPoint, "__post_init__", counted)
    _, tr = run()
    assert (len(tr), tr.outcome) == (ROWS, "max_iters")
    return len(calls)


def test_descent_rows_build_no_checked_point(monkeypatch, pr, bd):
    # Points derived from valid ones (the step, the copy, the gradients)
    # skip the constructor's checks; a re-checked point in the row would
    # hide inside the call budgets' slack below.
    inst, x0, eta = pr
    cfg = SolverConfig(eta=eta, max_iters=ROWS - 1)
    assert _checked_points(monkeypatch, lambda: run_truncated_gd(inst, x0, cfg)) == 0
    inst, x0, eta = bd
    cfg = SolverConfig(eta=eta, max_iters=ROWS - 1)
    assert _checked_points(monkeypatch, lambda: run_gd(inst, x0, cfg)) == 0
    # Projected completion descent: the projector returns a derived point.
    inst = gen_matrix_completion(30, 30, 2, 0.5, True, seed=36)
    x0 = init_matrix_completion(inst, 2).point
    cfg = SolverConfig(max_iters=ROWS - 1, project=gd.make_incoherent_projector(inst, x0))
    assert _checked_points(monkeypatch, lambda: run_gd(inst, x0, cfg)) == 0
    # AltMin rounds and projected power steps: the one checked point is the
    # start, built where the input enters.
    inst = gen_matrix_completion(30, 30, 2, 0.5, False, seed=36)
    L0 = init_matrix_completion(inst, 2).point.L
    cfg = AltMinConfig(max_outer=ROWS)
    assert _checked_points(monkeypatch, lambda: altmin_mc(inst, L0, cfg)[1:]) == 1
    inst = gen_phase_sync(30, 1.0, seed=37)
    x0 = init_phase_sync(inst).x
    assert _checked_points(monkeypatch, lambda: ppm(inst, x0, max_iters=ROWS - 1)) == 1


def _python_calls_per_row(run, per_evaluation=False):
    # Python-level function calls (sys.setprofile "call" events) of one run,
    # per recorded row, or per loss evaluation: rows plus rejected trials.
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        _, tr = run()
    finally:
        sys.setprofile(None)
    assert (len(tr), tr.outcome) == (ROWS, "max_iters")
    return count / (ROWS + (sum(tr.extras["rejected"]) if per_evaluation else 0))


def test_truncated_phase_retrieval_row_python_call_budget(pr):
    inst, x0, eta = pr
    cfg = SolverConfig(eta=eta, max_iters=ROWS - 1)
    per_row = _python_calls_per_row(lambda: run_truncated_gd(inst, x0, cfg))
    assert per_row <= 1.2 * TWF_CALLS_PER_ROW, per_row


def test_blind_deconvolution_row_python_call_budget(bd):
    inst, x0, eta = bd
    cfg = SolverConfig(eta=eta, max_iters=ROWS - 1)
    per_row = _python_calls_per_row(lambda: run_gd(inst, x0, cfg))
    assert per_row <= 1.2 * BD_CALLS_PER_ROW, per_row


def test_default_step_truncated_phase_retrieval_python_call_budget(pr):
    inst, x0, _ = pr
    cfg = SolverConfig(max_iters=ROWS - 1)
    per_evaluation = _python_calls_per_row(lambda: run_truncated_gd(inst, x0, cfg),
                                           per_evaluation=True)
    assert per_evaluation <= 1.2 * TWF_SEARCH_CALLS_PER_EVALUATION, per_evaluation


def test_default_step_blind_deconvolution_python_call_budget(bd):
    inst, x0, _ = bd
    cfg = SolverConfig(max_iters=ROWS - 1)
    per_evaluation = _python_calls_per_row(lambda: run_gd(inst, x0, cfg), per_evaluation=True)
    assert per_evaluation <= 1.2 * BD_SEARCH_CALLS_PER_EVALUATION, per_evaluation
