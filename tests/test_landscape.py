"""Tests for the landscape toolkit: perturbed descent against a hand-written
gradient loop, saddle escape from an exact strict saddle, the
over-parametrized walk parked at the origin, a divergence rule that does not
depend on the objective's additive constant, analytic Hessians against finite
differences, the closed-form critical-point census against dense Hessian
classification, the trust-region step against its optimality conditions
and random feasible steps, and the cubic and trust-region steps' stationarity
next to a saddle."""

import math

import numpy as np
import pytest

from lowrank_ncvx.core import make_rng
from lowrank_ncvx.gd import SolverConfig
from lowrank_ncvx.landscape import (
    LandscapeOracle,
    SaddleEscapeConfig,
    classify_point,
    classify_rank1_criticals,
    cubic_step,
    factored_oracle,
    fd_hessian,
    oracle_from_instance,
    overparam_gd_experiment,
    perturbed_gd,
    rank1_hessian,
    rank1_oracle,
    trust_region_step,
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


# ---------------------------------------------------------------------------
# Hessians, critical points and the trust-region step
# ---------------------------------------------------------------------------

def _sym(rng, n):
    G = rng.standard_normal((n, n))
    return 0.5 * (G + G.T)


def _sym_with_spectrum(rng, lam):
    Q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    return (Q * np.asarray(lam)) @ Q.T


@pytest.mark.parametrize("n", [2, 5, 8])
def test_analytic_hessians_match_finite_differences(n):
    # The gradients are cubic, so the central difference's error is its
    # step squared times a third derivative of order one: about 1e-10 here.
    rng = make_rng(40 + n)
    M = _sym(rng, n)
    x = rng.standard_normal(n)
    H = rank1_hessian(M, x)
    np.testing.assert_allclose(fd_hessian(rank1_oracle(M).grad, x), H,
                               rtol=0, atol=1e-9 * np.max(np.abs(H)))
    assert np.array_equal(rank1_oracle(M).hess(x), H)
    fo = factored_oracle(M, 2)
    v = rng.standard_normal(2 * n)
    H2 = fo.hess(v)
    np.testing.assert_allclose(fd_hessian(fo.grad, v), H2,
                               rtol=0, atol=1e-9 * np.max(np.abs(H2)))
    # At rank 1 the factored Hessian is the rank-1 one.
    np.testing.assert_allclose(factored_oracle(M, 1).hess(x), H, rtol=0, atol=1e-12)
    po = oracle_from_instance(gen_phase_retrieval(n, 10 * n, seed=n))
    H3 = po.hess(x)
    np.testing.assert_allclose(fd_hessian(po.grad, x), H3,
                               rtol=0, atol=1e-9 * np.max(np.abs(H3)))


@pytest.mark.parametrize("lam", [
    [4.0, 2.0, 1.0, 0.5],        # positive definite: the origin is a local max
    [3.0, 1.5, 0.7, 0.0, 0.0],   # singular: the origin is a strict saddle
    [1.0, 1e-3],
])
def test_rank1_census_agrees_with_dense_classification(lam):
    M = _sym_with_spectrum(make_rng(len(lam)), lam)
    oracle = rank1_oracle(M)
    points = classify_rank1_criticals(M)
    assert len(points) == 2 * sum(v > 0 for v in lam) + 1
    scale = max(lam)
    for p in points:
        dense = classify_point(oracle, p.location)
        assert dense.kind == p.kind
        assert p.grad_norm <= 1e-12 * scale
        assert dense.grad_norm == pytest.approx(p.grad_norm, abs=1e-12 * scale)
        np.testing.assert_allclose(dense.hessian_extremes, p.hessian_extremes,
                                   rtol=0, atol=1e-12 * scale)
    kinds = [p.kind for p in points]
    assert kinds[:2] == ["global_min"] * 2
    assert kinds[-1] == ("local_max" if min(lam) > 0 else "strict_saddle")


@pytest.mark.parametrize("start", ["random", "saddle", "near_min", "origin"])
@pytest.mark.parametrize("radius", [0.05, 0.5, 3.0])
def test_trust_region_step_is_feasible_and_beats_random_feasible_steps(start, radius):
    rng = make_rng(int(radius * 100))
    M = _sym_with_spectrum(make_rng(50), [3.0, 1.0, 0.5, -0.4])
    oracle = rank1_oracle(M)
    lam, U = np.linalg.eigh(M)
    x = {"random": rng.standard_normal(4),
         "saddle": math.sqrt(lam[-2]) * U[:, -2],
         "near_min": math.sqrt(lam[-1]) * U[:, -1] + 1e-3 * rng.standard_normal(4),
         "origin": np.zeros(4)}[start]
    s = trust_region_step(oracle, x, radius) - x
    ns = float(np.linalg.norm(s))
    assert ns <= radius * (1.0 + 1e-12)
    # Optimality: (H + mu I) s = -g with H + mu I PSD and mu >= 0, where mu
    # is 0 inside the ball (More-Sorensen).
    g, H = oracle.grad(x), oracle.hess(x)
    tol = 1e-10 * max(1.0, float(np.linalg.norm(H, 2)), float(np.linalg.norm(g)))
    mu = 0.0 if ns < radius * (1.0 - 1e-9) else -float(s @ (H @ s + g)) / ns**2
    assert mu >= -tol
    assert np.linalg.eigvalsh(H)[0] + mu >= -tol
    assert np.linalg.norm(H @ s + mu * s + g) <= tol

    def model(d):
        return float(g @ d + 0.5 * d @ H @ d)

    best = model(s)
    slack = 1e-12 * max(1.0, abs(best))
    assert best <= slack
    for _ in range(400):
        d = rng.standard_normal(4)
        d *= radius * rng.random() ** 0.25 / np.linalg.norm(d)
        assert best <= model(d) + slack


@pytest.mark.parametrize("name,oracle,n", [("rank1", rank1_oracle(M_DIAG), 3),
                                          ("factored_r2", factored_oracle(M_DIAG, 2), 6)])
def test_cubic_and_trust_region_steps_are_stationary_near_a_saddle(name, oracle, n):
    # Near the strict saddle at the origin, the shift that solves either
    # step nearly cancels the bottom eigenvalue w_0.  Formed as w_0 + shift,
    # it left relative residuals up to ~2e-7 in the cubic step and ~1e-9 in
    # the trust-region step on these draws; formed as (w_i - w_0) + delta,
    # both stay at ~1e-11 or below.
    rng = make_rng(7)
    for norm in (0.01, 0.1, 1.0, 10.0):
        for _ in range(20):
            x = rng.standard_normal(n)
            x *= norm / np.linalg.norm(x)
            g, H = oracle.grad(x), oracle.hess(x)
            gn = float(np.linalg.norm(g))
            for lipschitz in (0.01, 0.1, 1.0):
                s = cubic_step(oracle, x, lipschitz) - x
                r = H @ s + 0.5 * lipschitz * np.linalg.norm(s) * s + g
                assert np.linalg.norm(r) <= 1e-10 * gn, (name, norm, lipschitz)
            for radius in (0.01, 0.1, 1.0, 10.0):
                s = trust_region_step(oracle, x, radius) - x
                ns = float(np.linalg.norm(s))
                mu = 0.0 if ns < radius * (1.0 - 1e-9) else -float(s @ (H @ s + g)) / ns**2
                assert np.linalg.norm(H @ s + mu * s + g) <= 1e-10 * gn, (name, norm, radius)
