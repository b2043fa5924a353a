"""Tests for the landscape toolkit: perturbed descent against a hand-written
gradient loop, saddle escape from an exact strict saddle, the
over-parametrized walk parked at the origin and, from a nonzero init, against
a plain NumPy lifted loss and its central differences, a divergence rule that
does not depend on the objective's additive constant, analytic Hessians
against finite differences, the closed-form critical-point census against
dense Hessian classification, the strict-saddle check and the JSON report
against the census, the trust-region step against its optimality conditions
and random feasible steps and its length far from the origin, the cubic and
trust-region steps' stationarity next to a saddle and in the hard case, and
the random-init descent study against a plain loop of run_gd."""

import json
import math

import numpy as np
import pytest


from lowrank_ncvx.core import FactorPoint, derive_seed, make_rng
from lowrank_ncvx.gd import SolverConfig, run_gd
from lowrank_ncvx.landscape import (
    LandscapeOracle,
    SaddleEscapeConfig,
    classify_point,
    classify_rank1_criticals,
    critical_report,
    cubic_step,
    factored_oracle,
    fd_hessian,
    oracle_from_instance,
    overparam_gd_experiment,
    perturbed_gd,
    random_init_gd_experiment,
    rank1_hessian,
    rank1_oracle,
    strict_saddle_check,
    _shifted_step,
    trust_region_step,
)
from lowrank_ncvx.problems import (
    FAMILIES,
    factorization_instance,
    gen_blind_deconv,
    gen_joint_alignment,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_phase_sync,
    gen_quadratic_sensing,
    gen_rpca,
)

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


def test_perturbed_gd_makes_one_gradient_call_per_row_and_injection():
    # A trigger test that moves nothing hands its gradient on to the row.
    oracle = rank1_oracle(M_DIAG)
    for trigger in (0.0, 1e-3):
        calls = []
        counted = LandscapeOracle(oracle.loss, lambda x: calls.append(x) or oracle.grad(x),
                                  oracle.hess, oracle.minima)
        _, trace = perturbed_gd(counted, X0, SaddleEscapeConfig(eta=0.1, trigger=trigger,
                                                                max_iters=100))
        injections = int(sum(trace.extras["perturbed"]))
        assert len(calls) == len(trace) + injections
    assert injections > 0


def test_overparam_walk_from_zero_init_parks_at_origin():
    inst = gen_phase_retrieval(6, 60, seed=3)
    xs = inst.truth["x"]
    trace = overparam_gd_experiment(inst, 6, 0.0, SolverConfig(eta=0.01, max_iters=20))
    assert len(trace) == 21
    assert trace.outcome == "max_iters"
    assert len(set(trace.loss)) == 1
    assert trace.extras["effective_rank"] == [0] * 21
    assert trace.dist == [float(np.linalg.norm(np.outer(xs, xs)))] * 21


def _lifted_loss(A, y, X):
    # (1/m) sum_i (<A_i, X X^T> - y_i)^2 over sensors A of shape (m, n, n).
    e = np.einsum("kij,ij->k", A, X @ X.T) - y
    return float(e @ e) / y.shape[0]


def _central_difference_grad(f, X, h=1e-5):
    G = np.empty_like(X)
    for idx in np.ndindex(*X.shape):
        E = np.zeros_like(X)
        E[idx] = h
        G[idx] = (f(X + E) - f(X - E)) / (2.0 * h)
    return G


def test_overparam_walk_refuses_config_fields_it_does_not_read():
    inst = gen_phase_retrieval(4, 40, seed=5)
    for kw in ({"grad_tol": 1e-6}, {"plateau_tol": 1e-6}, {"project": lambda p: p},
               {"batch_k": 4}, {"median_factor": 5.0}):
        with pytest.raises(ValueError, match="overparam_gd_experiment does not read "
                                             f"SolverConfig.{next(iter(kw))}"):
            overparam_gd_experiment(inst, 4, 0.1, SolverConfig(eta=0.01, max_iters=1, **kw))


@pytest.mark.parametrize("family", ["PhaseRetrieval", "MatrixSensingSym"])
def test_overparam_walk_from_nonzero_init_descends_the_lifted_loss(family):
    n, eta, scale, seed, steps = 4, 0.01, 0.3, 11, 5
    if family == "PhaseRetrieval":
        inst = gen_phase_retrieval(n, 40, seed=5)
        a = inst.design["A"]
        A = a[:, :, None] * a[:, None, :]  # the rank-1 sensors a_i a_i^T
        Mstar = np.outer(inst.truth["x"], inst.truth["x"])
    else:
        inst = gen_matrix_sensing(n, n, 1, 60, True, seed=5)
        A, Mstar = inst.design["A"], inst.truth["M"]
    trace = overparam_gd_experiment(
        inst, n, scale, SolverConfig(eta=eta, max_iters=steps, seed=seed))
    assert len(trace) == steps + 1
    assert trace.outcome == "max_iters"

    def f(X):
        return _lifted_loss(A, inst.y, X)

    X = scale * make_rng(derive_seed(seed, "overparam")).standard_normal((n, n))
    for t in range(steps + 1):
        G = _central_difference_grad(f, X)
        # Row 0 is the init itself; later rows carry the difference error
        # of the reference steps, about 1e-10 relative.
        rtol = 1e-12 if t == 0 else 1e-8
        assert trace.loss[t] == pytest.approx(f(X), rel=rtol)
        assert trace.grad_norm[t] == pytest.approx(float(np.linalg.norm(G)), rel=1e-7)
        assert trace.dist[t] == pytest.approx(float(np.linalg.norm(X @ X.T - Mstar)),
                                              rel=rtol)
        X = X - eta * G
    assert trace.loss[-1] < trace.loss[0]


def test_perturbed_gd_outcome_ignores_an_additive_constant():
    # Minus the constant ||M||_F^2 / 4 the loss starts negative (-0.1026) and
    # keeps falling; the walk must not read that as divergence.
    oracle = rank1_oracle(M_DIAG)
    shift = float(np.sum(M_DIAG * M_DIAG)) / 4.0
    shifted = LandscapeOracle(lambda x: oracle.loss(x) - shift, oracle.grad,
                              oracle.hess, oracle.minima)
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


HVP_RECORDS = {
    "phase_retrieval": lambda: gen_phase_retrieval(8, 80, seed=21),
    "quadratic_sensing_r2": lambda: gen_quadratic_sensing(5, 2, 60, seed=22),
    "sensing_sym_r1": lambda: gen_matrix_sensing(5, 5, 1, 60, True, seed=23),
    "sensing_sym_r2": lambda: gen_matrix_sensing(5, 5, 2, 60, True, seed=24),
    "completion_sym_p06": lambda: gen_matrix_completion(6, 6, 1, 0.6, True, seed=25),
    "factorization_r3": lambda: factorization_instance(_sym(make_rng(26), 5), 3),
}


def test_every_record_with_an_hvp_is_covered():
    covered = {make().family for make in HVP_RECORDS.values()}
    assert covered == {name for name, spec in FAMILIES.items() if spec.hvp is not None}


@pytest.mark.parametrize("name", sorted(HVP_RECORDS))
def test_one_oracle_assembles_each_hvp_into_the_finite_difference_hessian(name):
    inst = HVP_RECORDS[name]()
    oracle = oracle_from_instance(inst)
    truth = inst.truth["x" if "x" in inst.truth else "X"]
    v = make_rng(derive_seed(27, name)).standard_normal(truth.size)
    H = oracle.hess(v)
    assert np.array_equal(H, H.T)
    np.testing.assert_allclose(fd_hessian(oracle.grad, v), H,
                               rtol=0, atol=1e-9 * np.max(np.abs(H)))
    # The minima are the +-truth pair exactly when the truth is rank 1.
    if truth.size == truth.shape[0]:
        xs = truth.ravel()
        assert len(oracle.minima) == 2
        assert np.array_equal(oracle.minima[0], xs)
        assert np.array_equal(oracle.minima[1], -xs)
        for m in oracle.minima:
            assert np.linalg.norm(oracle.grad(m)) <= 1e-12 * max(1.0, np.max(np.abs(H)))
    else:
        assert oracle.minima == ()


@pytest.mark.parametrize("make", [
    lambda: gen_matrix_sensing(4, 3, 1, 20, False, seed=1),
    lambda: gen_matrix_completion(4, 3, 1, 0.5, False, seed=1),
    lambda: gen_rpca(4, 4, 1, 0.5, 0.1, 1.0, seed=1),
    lambda: gen_blind_deconv(3, 3, 8, seed=1),
    lambda: gen_phase_sync(4, 0.1, seed=1),
    lambda: gen_joint_alignment(3, 2, 0.1, seed=1),
])
def test_one_oracle_refuses_a_record_without_an_hvp(make):
    inst = make()
    assert FAMILIES[inst.family].hvp is None
    with pytest.raises(ValueError, match=f"^{inst.family} has no Hessian-vector product"):
        oracle_from_instance(inst)


def test_one_symmetry_rule_for_every_explicit_matrix_entry():
    # A skew of 5e-6 passed np.allclose's default rtol of 1e-5.
    M = np.array([[3.0, 1.0], [1.0 + 5e-6, 2.0]])
    for call in (lambda: factorization_instance(M, 1), lambda: rank1_oracle(M),
                 lambda: factored_oracle(M, 2), lambda: classify_rank1_criticals(M)):
        with pytest.raises(ValueError, match="^M must be symmetric$"):
            call()


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


def test_trust_region_step_far_from_the_origin_keeps_its_length():
    # At ||x|| = 18 the gradient is huge next to a 1e-3 ball, so the step
    # lies on the boundary.  Recovered as (x + s) - x it misses the radius
    # by up to 1.2e-12 relative on these draws; the step itself does not.
    radius = 1e-3
    for k in range(300):
        rng = make_rng(derive_seed(18, "far_step", k))
        G = rng.standard_normal((6, 6))
        oracle = rank1_oracle(0.5 * (G + G.T))
        x = rng.standard_normal(6)
        x *= 18.0 / np.linalg.norm(x)
        s = _shifted_step(oracle, x, lambda shift: radius)
        assert abs(float(np.linalg.norm(s)) / radius - 1.0) <= 1e-12, k
        assert np.array_equal(trust_region_step(oracle, x, radius), x + s)


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


def test_strict_saddle_check_and_report_agree_with_the_census():
    M = _sym_with_spectrum(make_rng(60), [3.0, 1.5, 0.5, 0.0])
    oracle = rank1_oracle(M)
    points = classify_rank1_criticals(M)
    saddles = [p for p in points if p.kind == "strict_saddle"]
    gamma = 0.5 * min(-p.hessian_extremes[0] for p in saddles)
    eps, zeta = 1e-6, 1e-6
    for p in points:
        held = strict_saddle_check(oracle, p.location, eps, gamma, zeta, oracle.minima)
        assert "strong_gradient" not in held
        if p.kind == "global_min":
            assert held == {"near_minimum"}
        else:
            assert held == {"negative_curvature"}
        # No listed minimizer means no point is near one.
        assert "near_minimum" not in strict_saddle_check(oracle, p.location, eps,
                                                         gamma, zeta, ())
    off = points[0].location + 0.1
    assert "strong_gradient" in strict_saddle_check(oracle, off, eps, gamma, zeta,
                                                    oracle.minima)
    with pytest.raises(ValueError):
        strict_saddle_check(oracle, off, 0.0, gamma, zeta, oracle.minima)

    rows = json.loads(critical_report(points))
    assert [r["kind"] for r in rows] == [p.kind for p in points]
    for r, p in zip(rows, points):
        assert (r["lambda_min"], r["lambda_max"]) == p.hessian_extremes
        assert r["location"] == p.location.tolist()
        assert r["grad_norm"] == p.grad_norm


def test_hard_case_steps_with_a_nonzero_gradient():
    # At x = e_2 / 2 the gradient lies on e_2 while the Hessian
    # diag(-1.75, -0.25, 0.75) bottoms out on e_1, so neither step's shift
    # can come from the secular equation: both pad along e_1.
    oracle = rank1_oracle(M_DIAG)
    x = np.array([0.0, 0.5, 0.0])
    g, H = oracle.grad(x), oracle.hess(x)
    np.testing.assert_allclose(g, [0.0, -0.375, 0.0], rtol=0, atol=1e-15)
    shift0 = 1.75
    gn = float(np.linalg.norm(g))
    for radius in (0.5, 1.0, 3.0):
        s = trust_region_step(oracle, x, radius) - x
        ns = float(np.linalg.norm(s))
        assert ns == pytest.approx(radius, rel=1e-12)
        assert abs(s[0]) > 0.0
        mu = -float(s @ (H @ s + g)) / ns**2
        assert mu == pytest.approx(shift0, rel=1e-12)
        assert np.linalg.norm(H @ s + mu * s + g) <= 1e-10 * gn
    for lipschitz in (0.5, 1.0, 10.0):
        s = cubic_step(oracle, x, lipschitz) - x
        ns = float(np.linalg.norm(s))
        assert ns == pytest.approx(2.0 * shift0 / lipschitz, rel=1e-12)
        assert abs(s[0]) > 0.0
        r = H @ s + 0.5 * lipschitz * ns * s + g
        assert np.linalg.norm(r) <= 1e-10 * gn


def test_random_init_study_matches_a_run_gd_loop_and_converges():
    n, m, seed = 32, 320, 5
    out = random_init_gd_experiment(n, m, 3, seed)
    success, stage1, stage2 = [], [], []
    for t in range(3):
        inst = gen_phase_retrieval(n, m, derive_seed(seed, "random_init", t))
        nx = np.linalg.norm(inst.truth["x"])
        x0 = make_rng(derive_seed(seed, "random_init_x0", t)).standard_normal(n) * (nx / math.sqrt(n))
        _, tr = run_gd(inst, FactorPoint.vector(x0),
                       SolverConfig(eta=0.1, max_iters=5000, dist_tol=1e-5))
        first = next(k for k, d in enumerate(tr.dist) if d <= 0.5 * nx)
        success.append(tr.outcome == "converged")
        stage1.append(first)
        stage2.append(len(tr) - 1 - first)
    assert out == {"family": "PhaseRetrieval", "n": n, "m": m, "trials": 3, "seed": seed,
                   "success": success, "stage1_iters": stage1, "stage2_iters": stage2}
    # Random inits at m = 10n all reach the truth, through a short stage 1.
    assert all(success) and max(stage1) < min(stage2)
    # Without a stage-2 tolerance met in the budget, only stage 1 is counted.
    short = random_init_gd_experiment(n, m, 3, seed, max_iters=max(stage1))
    assert short["success"] == [False] * 3 and short["stage2_iters"] == [None] * 3
    assert short["stage1_iters"] == stage1


def test_random_init_study_argument_errors():
    for trials in (0, -1, 1.5):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            random_init_gd_experiment(8, 80, trials, 0)
