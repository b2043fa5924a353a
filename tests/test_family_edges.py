"""Edge inputs over the family table: for each problems.FAMILIES key, every
degenerate instance its generator accepts (p = 0, p = 1, r = min(n1, n2),
alpha_out = 0, m = 1, K = N = m = 1) goes through generate, initialize and
one solver with warnings raised as errors, and must return or raise
ValueError.  The same instances check that every family loss defers its
gradient exactly: loss_value's value and forced gradient are loss_and_grad's
bit for bit."""

import numpy as np
import pytest

from lowrank_ncvx import direct, gd, spectral
from lowrank_ncvx.core import FactorPoint
from lowrank_ncvx.problems import (
    FAMILIES,
    gen_blind_deconv,
    gen_joint_alignment,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_phase_sync,
    gen_quadratic_sensing,
    gen_rpca,
    lift_assignment,
    loss_and_grad,
    loss_value,
)

_CFG = gd.SolverConfig(max_iters=3)


def _descend(init):
    return lambda inst: gd.run_gd(inst, init(inst).point, _CFG)


def _rank(init):
    return _descend(lambda inst: init(inst, inst.params["r"]))


def _rpca(inst):
    est, S0 = spectral.init_rpca(inst, inst.params["r"])
    return gd.run_rpca(inst, est.point, S0, _CFG)


def _completion(inst):
    # GD and AltMin from one spectral init.
    est = spectral.init_matrix_completion(inst, inst.params["r"])
    gd.run_gd(inst, est.point, _CFG)
    return direct.altmin_mc(inst, est.point.L, direct.AltMinConfig(max_outer=3))


EDGES = [
    ("MatrixSensingSym", "m=1", lambda: gen_matrix_sensing(3, 3, 1, 1, True, 1),
     _rank(spectral.init_sensing)),
    ("MatrixSensingSym", "r=n", lambda: gen_matrix_sensing(3, 3, 3, 20, True, 1),
     _rank(spectral.init_sensing)),
    ("MatrixSensingAsym", "m=1", lambda: gen_matrix_sensing(3, 2, 1, 1, False, 1),
     _rank(spectral.init_sensing)),
    ("MatrixSensingAsym", "r=min", lambda: gen_matrix_sensing(3, 2, 2, 20, False, 1),
     _rank(spectral.init_sensing)),
    ("PhaseRetrieval", "m=1", lambda: gen_phase_retrieval(3, 1, 1),
     _descend(spectral.init_phase_retrieval)),
    ("PhaseRetrieval", "n=m=1", lambda: gen_phase_retrieval(1, 1, 1),
     _descend(spectral.init_phase_retrieval)),
    ("QuadraticSensing", "m=1", lambda: gen_quadratic_sensing(3, 1, 1, 1),
     _rank(spectral.init_quadratic_sensing)),
    ("QuadraticSensing", "r=n", lambda: gen_quadratic_sensing(3, 3, 20, 1),
     _rank(spectral.init_quadratic_sensing)),
    ("MatrixCompletionSym", "p=0", lambda: gen_matrix_completion(4, 4, 1, 0.0, True, 1),
     _rank(spectral.init_matrix_completion)),
    ("MatrixCompletionSym", "p=1", lambda: gen_matrix_completion(4, 4, 1, 1.0, True, 1),
     _rank(spectral.init_matrix_completion)),
    ("MatrixCompletionSym", "r=n", lambda: gen_matrix_completion(4, 4, 4, 0.5, True, 1),
     _rank(spectral.init_matrix_completion)),
    ("MatrixCompletionAsym", "p=0", lambda: gen_matrix_completion(5, 4, 1, 0.0, False, 1),
     _completion),
    ("MatrixCompletionAsym", "p=1", lambda: gen_matrix_completion(5, 4, 1, 1.0, False, 1),
     _completion),
    ("MatrixCompletionAsym", "r=min", lambda: gen_matrix_completion(5, 4, 4, 0.5, False, 1),
     _completion),
    ("MatrixCompletionAsym", "r=min p=1",
     lambda: gen_matrix_completion(5, 4, 4, 1.0, False, 1), _completion),
    ("BlindDeconv", "K=N=m=1", lambda: gen_blind_deconv(1, 1, 1, 1),
     _descend(spectral.init_blind_deconv)),
    ("RobustPCA", "p=0", lambda: gen_rpca(4, 4, 1, 0.0, 0.1, 1.0, 1), _rpca),
    ("RobustPCA", "p=1", lambda: gen_rpca(4, 4, 1, 1.0, 0.1, 1.0, 1), _rpca),
    ("RobustPCA", "alpha_out=0", lambda: gen_rpca(4, 4, 1, 0.5, 0.0, 1.0, 1), _rpca),
    ("RobustPCA", "r=min", lambda: gen_rpca(5, 4, 4, 0.5, 0.1, 1.0, 1), _rpca),
    ("PhaseSync", "n=1", lambda: gen_phase_sync(1, 0.0, 1),
     lambda inst: direct.ppm(inst, spectral.init_phase_sync(inst).x, 3)),
    ("JointAlignment", "n=m=2", lambda: gen_joint_alignment(2, 2, 0.0, 1),
     lambda inst: direct.ppm(inst, np.ones(4), 3)),
]


def test_every_family_has_an_edge_case():
    assert {family for family, *_ in EDGES} == set(FAMILIES)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family, edge, gen, solve", EDGES,
                         ids=[f"{family}-{edge}" for family, edge, *_ in EDGES])
def test_edge_instance_returns_or_raises_value_error(family, edge, gen, solve):
    try:
        inst = gen()
        assert inst.family == family
        trace = solve(inst)[-1]
    except ValueError:
        return
    assert len(trace) >= 1 and trace.outcome in ("converged", "max_iters", "diverged")


@pytest.mark.filterwarnings("error")
def test_ridge_altmin_gives_unobserved_columns_zero_rows():
    inst = gen_matrix_completion(5, 4, 1, 0.05, False, 1)
    unseen = ~inst.design["mask"].any(axis=0)
    assert np.count_nonzero(unseen) == 2
    est = spectral.init_matrix_completion(inst, 1)
    L, R, trace = direct.altmin_mc(inst, est.point.L,
                                   direct.AltMinConfig(max_outer=3, lam=1e-3))
    assert np.array_equal(R[unseen], np.zeros((2, 1)))
    assert np.isfinite(R).all() and np.isfinite(L).all() and len(trace) == 3


def _jitter(rng, a):
    # 2 a plus noise: off the truth, with the regularizers' hinges active.
    noise = rng.standard_normal(a.shape)
    if np.iscomplexobj(a):
        noise = noise + 1j * rng.standard_normal(a.shape)
    return 2.0 * a + 0.3 * noise


def _points(inst, rng):
    # A point off the truth of every kind the family's record accepts.
    t = inst.truth
    for kind in FAMILIES[inst.family].kinds:
        if kind == "pair":
            yield FactorPoint.derived(kind, (_jitter(rng, t["h"]), _jitter(rng, t["x"])))
        elif kind == "vector":
            x = t["x"] if inst.family != "JointAlignment" \
                else lift_assignment(t["x"], inst.params["alphabet_m"])
            yield FactorPoint.derived(kind, (_jitter(rng, x),))
        elif kind == "sym" and "X" in t:
            yield FactorPoint.derived(kind, (_jitter(rng, t["X"]),))
        elif kind == "asym":
            L, R = (t["L"], t["R"]) if "L" in t else (t["X"], t["X"])
            yield FactorPoint.derived(kind, (_jitter(rng, L), _jitter(rng, R)))


def _loss_params(inst, keys, rng):
    # No parameters, and then every key the tag's loss reads, given.
    yield None
    if keys:
        yield {k: rng.standard_normal(inst.truth["M"].shape) if k == "S" else 0.7 for k in keys}


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.parametrize("family, edge, gen", [e[:3] for e in EDGES],
                         ids=[f"{family}-{edge}" for family, edge, *_ in EDGES])
def test_loss_value_defers_exactly_loss_and_grads_gradient(family, edge, gen):
    # Every loss tag, with and without loss parameters, weights and the
    # shared product where the record allows them.  All values are taken
    # before any gradient is forced, and each gradient is forced twice, in
    # reverse order: a finish that read state another call changed, or that
    # changed its own intermediates, would differ from loss_and_grad's.
    inst = gen()
    spec = FAMILIES[family]
    rng = np.random.default_rng(7)
    pending = []
    with np.errstate(all="ignore"):
        for point in _points(inst, rng):
            forwards = [None] + ([spec.shared(inst, point)] if spec.shared else [])
            weights = [None] + ([rng.uniform(0.0, 2.0, inst.y.shape)] if spec.sample_sum else [])
            for tag, keys in spec.losses.items():
                for lp in _loss_params(inst, keys, rng):
                    for w in weights:
                        for c in forwards:
                            args = (inst, point, tag, lp, w, c)
                            pending.append((loss_value(*args), loss_and_grad(*args)))
        assert pending
        for (val, finish), (ref_val, ref_grad) in reversed(pending):
            assert _same(val, ref_val)
            for grad in (finish(), finish()):
                assert grad.kind == ref_grad.kind
                assert all(map(_same, grad.parts, ref_grad.parts))


@pytest.mark.parametrize("zero", ["h", "x", "both"])
def test_blind_deconv_zero_factor_gets_a_finite_gradient_and_descends(zero):
    # A zero factor leaves its partner's Wirtinger part exactly zero, and the
    # norm scaling keeps it 0: the run descends instead of ending "diverged".
    inst = gen_blind_deconv(8, 8, 64, 3)
    h, x = inst.truth["h"], inst.truth["x"]
    h0 = np.zeros_like(h) if zero in ("h", "both") else h
    x0 = np.zeros_like(x) if zero in ("x", "both") else x
    init = FactorPoint.pair(h0, x0)
    _, grad = loss_and_grad(inst, init)
    gh, gx = grad.parts
    assert np.isfinite(gh).all() and np.isfinite(gx).all()
    assert not (gx if zero == "h" else gh).any()
    if zero == "both":
        # the plain gradient vanishes at (0, 0): the run stays put
        point, trace = gd.run_gd(inst, init, gd.SolverConfig(grad_tol=1e-12))
        assert (trace.outcome, trace.iters[-1]) == ("converged", 0)
        assert not point.h.any() and not point.x.any()
        return
    tol = 1e-6 * np.linalg.norm(np.concatenate([h, x]))
    _, trace = gd.run_gd(inst, init, gd.SolverConfig(dist_tol=tol))
    assert trace.outcome == "converged" and trace.iters[-1] < 60


def test_blind_deconv_penalty_over_a_zero_factor_still_diverges():
    # The regularized loss's norm hinge gives the h part a nonzero value at
    # x = 0; divided by ||x||^2 = 0 it is infinite, and the run says so.
    inst = gen_blind_deconv(8, 8, 64, 3)
    init = FactorPoint.pair(3.0 * inst.truth["h"], np.zeros_like(inst.truth["x"]))
    with np.errstate(divide="ignore", invalid="ignore"):
        _, grad = loss_and_grad(inst, init, "regularized")
    assert not np.isfinite(grad.parts[0]).all()
    _, trace = gd.run_gd(inst, init, gd.SolverConfig(loss="regularized", max_iters=5))
    assert trace.outcome == "diverged"
