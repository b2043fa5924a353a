"""Oracle tests for the observed-entry path of the sampled-entry families:
losses and gradients against the dense P_Omega formulas written out here,
ARPACK factors of sparse surrogates against LAPACK on the same matrix, the
memoized index, and the import cost of the dense-only paths."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from lowrank_ncvx.core import FactorPoint, dist_subspace, make_rng
from lowrank_ncvx.problems import (
    factorization_instance,
    gen_matrix_completion,
    gen_rpca,
    loss_and_grad,
    observed_entries,
)
from lowrank_ncvx.spectral import factors_from_surrogate, surrogate_completion

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# Loss and gradient against the dense formulas
# ---------------------------------------------------------------------------

def _hinge2(z):
    t = np.maximum(z - 1.0, 0.0)
    return t * t, 2.0 * t


def _dense_completion(inst, point, S=None, regularized=False):
    """(1/4p) ||P_Omega(model + S) - y||_F^2 and its gradient, with P_Omega
    applied to dense n1 x n2 matrices through the boolean mask."""
    mask = inst.design["mask"]
    p = max(inst.params["p"], np.finfo(float).tiny)
    if point.kind == "sym":
        A, B = point.X, point.X
    else:
        A, B = point.L, point.R
    model = A @ B.T + (0.0 if S is None else S)
    resid = np.zeros(mask.shape)
    resid[mask] = model[mask] - inst.y
    val = float(np.sum(resid * resid)) / (4.0 * p)
    if point.kind == "sym":
        return val, [(resid + resid.T) @ A / (2.0 * p)]
    gL, gR = resid @ B / (2.0 * p), resid.T @ A / (2.0 * p)
    if regularized:
        # The default hinges of the asymmetric regularizer, lam = 1.
        t = inst.truth
        a1, a2 = 1.0 / np.sum(t["L"] ** 2), 1.0 / np.sum(t["R"] ** 2)
        a3 = 1.0 / np.max(np.sum(t["L"] ** 2, axis=1))
        a4 = 1.0 / np.max(np.sum(t["R"] ** 2, axis=1))
        for F, g, a_all, a_row in ((A, gL, a1, a3), (B, gR, a2, a4)):
            h, d = _hinge2(a_all * np.sum(F * F))
            val += float(h)
            g += d * a_all * 2.0 * F
            h, d = _hinge2(a_row * np.sum(F * F, axis=1))
            val += float(np.sum(h))
            g += (d * a_row * 2.0)[:, None] * F
    return val, [gL, gR]


def _random_point(inst, rng):
    r = inst.params["r"]
    if "X" in inst.truth:
        return FactorPoint.sym(rng.standard_normal((inst.params["n1"], r)))
    return FactorPoint.asym(rng.standard_normal((inst.params["n1"], r)),
                            rng.standard_normal((inst.params["n2"], r)))


DENSE_ORACLE_CASES = [
    ("completion_sym", lambda: gen_matrix_completion(9, 9, 2, 0.5, True, 11), "plain", None),
    ("completion_asym", lambda: gen_matrix_completion(9, 7, 2, 0.5, False, 11), "plain", None),
    ("completion_asym_reg", lambda: gen_matrix_completion(9, 7, 2, 0.5, False, 11),
     "regularized", None),
    ("rpca_sym_random_S", lambda: gen_rpca(9, 9, 2, 0.6, 0.1, 3.0, 11), "plain", "random"),
    ("rpca_asym_random_S", lambda: gen_rpca(9, 7, 2, 0.6, 0.1, 3.0, 11), "plain", "random"),
    ("rpca_sym_no_S", lambda: gen_rpca(9, 9, 2, 0.6, 0.1, 3.0, 11), "plain", None),
    ("rpca_asym_no_S", lambda: gen_rpca(9, 7, 2, 0.6, 0.1, 3.0, 11), "plain", None),
    ("empty_mask", lambda: gen_matrix_completion(6, 5, 2, 0.0, False, 11), "plain", None),
    ("factorization_full_mask",
     lambda: factorization_instance(np.diag([3.0, 2.0, 1.0, 0.5]), 2), "plain", None),
]


@pytest.mark.parametrize("name,make,loss,S_kind", DENSE_ORACLE_CASES,
                         ids=[c[0] for c in DENSE_ORACLE_CASES])
def test_observed_entry_loss_matches_dense_formula(name, make, loss, S_kind):
    inst = make()
    rng = make_rng(7)
    for _ in range(5):
        point = _random_point(inst, rng)
        S = None
        if S_kind == "random":
            S = rng.standard_normal((inst.params["n1"], inst.params["n2"]))
        lp = {"S": S} if inst.family == "RobustPCA" else None
        val, grad = loss_and_grad(inst, point, loss=loss, loss_params=lp)
        ref_val, ref_grad = _dense_completion(inst, point, S, loss == "regularized")
        assert abs(val - ref_val) <= 1e-12 * abs(ref_val)
        for g, ref in zip(grad.parts, ref_grad):
            assert g.shape == ref.shape
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


def test_empty_mask_gives_zero_loss_and_gradient():
    inst = gen_matrix_completion(6, 5, 2, 0.0, False, 11)
    assert observed_entries(inst)[0].size == 0
    val, grad = loss_and_grad(inst, _random_point(inst, make_rng(3)))
    assert val == 0.0
    assert all(not np.any(g) for g in grad.parts)


# ---------------------------------------------------------------------------
# The memoized index
# ---------------------------------------------------------------------------

def test_observed_entries_are_row_major_in_the_order_of_y():
    inst = gen_matrix_completion(8, 6, 2, 0.5, False, 4)
    rows, cols = observed_entries(inst)
    np.testing.assert_array_equal(np.stack([rows, cols], axis=1),
                                  np.argwhere(inst.design["mask"]))
    L, R, M = inst.truth["L"], inst.truth["R"], inst.truth["M"]
    np.testing.assert_array_equal(np.sum(L[rows] * R[cols], axis=1), inst.y)
    assert np.abs(M[rows, cols] - inst.y).max() <= 4 * np.finfo(float).eps * np.abs(M).max()


def test_observed_entries_follow_a_replaced_mask():
    inst = gen_matrix_completion(8, 6, 2, 0.7, False, 4)
    before = observed_entries(inst)
    assert observed_entries(inst)[0] is before[0]  # memoized
    mask = inst.design["mask"].copy()
    mask[:, 2] = False
    inst.design["mask"] = mask
    inst.y = inst.truth["M"][mask]
    rows, cols = observed_entries(inst)
    np.testing.assert_array_equal(rows, np.nonzero(mask)[0])
    np.testing.assert_array_equal(cols, np.nonzero(mask)[1])
    assert not np.any(cols == 2)


def test_index_memo_stays_out_of_the_design():
    inst = gen_matrix_completion(8, 6, 2, 0.5, False, 4)
    observed_entries(inst)
    assert set(inst.design) == {"mask"}


# ---------------------------------------------------------------------------
# ARPACK on sparse surrogates against LAPACK on the same matrix
# ---------------------------------------------------------------------------

SURROGATE_CASES = [
    ("asym", lambda: gen_matrix_completion(40, 30, 3, 0.5, False, 2), 3, False),
    ("sym", lambda: gen_matrix_completion(40, 40, 3, 0.5, True, 2), 3, True),
    ("asym_densified", lambda: gen_matrix_completion(6, 3, 2, 0.9, False, 2), 2, False),
    ("sym_densified", lambda: gen_matrix_completion(3, 3, 2, 0.9, True, 2), 2, True),
]


@pytest.mark.parametrize("name,make,r,symmetric", SURROGATE_CASES,
                         ids=[c[0] for c in SURROGATE_CASES])
def test_sparse_surrogate_factors_match_dense(name, make, r, symmetric):
    Y = surrogate_completion(make())
    assert scipy.sparse.issparse(Y)
    if symmetric:
        Y = 0.5 * (Y + Y.T)
    _, sparse_subs, sparse_scale = factors_from_surrogate(Y, r, symmetric)
    _, dense_subs, dense_scale = factors_from_surrogate(Y.toarray(), r, symmetric)
    assert abs(sparse_scale - dense_scale) <= 1e-10 * abs(dense_scale)
    for got, ref in zip(sparse_subs, dense_subs):
        assert np.max(np.abs(got.values - ref.values)) <= 1e-10 * np.max(np.abs(ref.values))
        assert abs(got.gap - ref.gap) <= 1e-10 * np.max(np.abs(ref.values))
        assert dist_subspace(got.basis, ref.basis) <= 1e-8


def test_sparse_spectral_init_is_deterministic():
    inst = gen_matrix_completion(50, 40, 3, 0.3, False, 5)
    Y = surrogate_completion(inst)
    a, _, _ = factors_from_surrogate(Y, 3, False)
    b, _, _ = factors_from_surrogate(Y, 3, False)
    assert np.array_equal(a.L, b.L) and np.array_equal(a.R, b.R)


# ---------------------------------------------------------------------------
# Import cost of the dense-only paths
# ---------------------------------------------------------------------------

def test_dense_paths_do_not_load_scipy_sparse():
    script = textwrap.dedent("""
        import sys
        from lowrank_ncvx import direct, gd, landscape, problems, spectral
        inst = problems.gen_phase_retrieval(16, 160, 3)
        est = spectral.init_phase_retrieval(inst)
        gd.run_gd(inst, est.point, gd.SolverConfig(max_iters=5))
        loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
        assert not loaded, loaded
        # Blind deconvolution traces dist_bd, whose scaling search is in-house.
        inst = problems.gen_blind_deconv(8, 8, 64, 3)
        est = spectral.init_blind_deconv(inst)
        gd.run_gd(inst, est.point, gd.SolverConfig(max_iters=5))
        loaded = sorted(m for m in sys.modules
                        if m.startswith(("scipy.sparse", "scipy.optimize")))
        assert not loaded, loaded
        # Gaussian and identity sensing: init, GD, AltMin, SVP and RIP probes.
        for inst in (problems.gen_matrix_sensing(6, 5, 2, 80, False, 3),
                     problems.gen_identity_sensing(6, 5, 2, 3)):
            est = spectral.init_sensing(inst, 2)
            gd.run_gd(inst, est.point, gd.SolverConfig(max_iters=5))
            direct.altmin_sensing(inst, est.point.L, direct.AltMinConfig(max_outer=1))
            direct.svp(inst, direct.SvpConfig(r=2, max_iters=2))
            problems.estimate_rip(inst, 2, 5, 0)
        # The incoherence projector's default mu.
        inst = problems.gen_matrix_sensing(6, 6, 2, 80, True, 3)
        gd.make_incoherent_projector(inst, spectral.init_sensing(inst, 2).point)
        loaded = sorted(m for m in sys.modules if m.startswith("scipy.sparse"))
        assert not loaded, loaded
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0, out.stderr
