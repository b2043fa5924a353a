"""Tests for the landscape descent loops: perturbed descent against a
hand-written gradient loop, saddle escape from an exact strict saddle, the
over-parametrized walk parked at the origin, and a divergence rule that does
not depend on the objective's additive constant."""

import math

import numpy as np

from lowrank_ncvx.gd import SolverConfig
from lowrank_ncvx.landscape import (
    LandscapeOracle,
    SaddleEscapeConfig,
    overparam_gd_experiment,
    perturbed_gd,
    rank1_oracle,
)
from lowrank_ncvx.problems import gen_phase_retrieval

M_DIAG = np.diag([2.0, 1.0, -0.5])
X0 = np.array([0.3, 0.2, 0.1])


def test_perturbed_gd_without_trigger_is_plain_descent_bitwise():
    oracle = rank1_oracle(M_DIAG)
    x, trace = perturbed_gd(oracle, X0, SaddleEscapeConfig(eta=0.1, trigger=0.0,
                                                           max_iters=50))
    ref = X0.copy()
    losses = [oracle.loss(ref)]
    for _ in range(50):
        ref = ref - 0.1 * oracle.grad(ref)
        losses.append(oracle.loss(ref))
    assert np.array_equal(x, ref)
    assert trace.loss == losses
    assert trace.iters == list(range(51))
    assert trace.outcome == "max_iters"
    assert trace.extras["perturbed"] == [0.0] * 51


def test_perturbed_gd_escapes_exact_saddle_only_with_noise():
    oracle = rank1_oracle(M_DIAG)
    saddle = np.array([0.0, 1.0, 0.0])
    assert np.linalg.norm(oracle.grad(saddle)) == 0.0
    x, trace = perturbed_gd(oracle, saddle, SaddleEscapeConfig(
        eta=0.05, trigger=1e-3, max_iters=400))
    assert min(np.linalg.norm(x - m) for m in oracle.minima) < 1e-2
    assert trace.dist[-1] < 1e-2
    assert trace.extras["perturbed"][0] == 1.0

    x, trace = perturbed_gd(oracle, saddle, SaddleEscapeConfig(
        eta=0.05, trigger=0.0, max_iters=400))
    assert np.array_equal(x, saddle)
    assert abs(trace.dist[-1] - math.sqrt(3.0)) < 1e-12


def test_overparam_walk_from_zero_init_parks_at_origin():
    inst = gen_phase_retrieval(6, 60, seed=3)
    xs = inst.truth["x"]
    trace = overparam_gd_experiment(inst, 6, 0.0, SolverConfig(eta=0.01, max_iters=20))
    assert len(trace) == 21
    assert trace.outcome == "max_iters"
    assert len(set(trace.loss)) == 1
    assert trace.extras["effective_rank"] == [0] * 21
    assert trace.dist == [float(np.linalg.norm(np.outer(xs, xs)))] * 21


def test_perturbed_gd_outcome_ignores_an_additive_constant():
    # Minus the constant ||M||_F^2 / 4 the loss starts negative (-0.1026) and
    # keeps falling; the walk must not read that as divergence.
    oracle = rank1_oracle(M_DIAG)
    shift = float(np.sum(M_DIAG * M_DIAG)) / 4.0
    shifted = LandscapeOracle(lambda x: oracle.loss(x) - shift, oracle.grad,
                              oracle.hess, oracle.hess_source, oracle.minima)
    assert shifted.loss(X0) < 0.0
    cfg = SaddleEscapeConfig(eta=0.1, max_iters=200)
    x, trace = perturbed_gd(oracle, X0, cfg)
    xs, trace_s = perturbed_gd(shifted, X0, cfg)
    assert trace_s.outcome == trace.outcome == "max_iters"
    assert np.array_equal(xs, x)
    assert trace.dist[-1] < 1e-9
