"""Edge inputs over the family table: for each problems.FAMILIES key, every
degenerate instance its generator accepts (p = 0, p = 1, r = min(n1, n2),
alpha_out = 0, m = 1, K = N = m = 1) goes through generate, initialize and
one solver with warnings raised as errors, and must return or raise
ValueError."""

import numpy as np
import pytest

from lowrank_ncvx import direct, gd, spectral
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
