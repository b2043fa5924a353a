"""Oracle tests for the observation models: forced-design probes with known
answers, moment checks against closed-form expectations, finite-difference
validation of every loss gradient, and bit-exact replay/serialization."""

import ast
import gc
import hashlib
import itertools
import json
import math
import pathlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lowrank_ncvx import core, problems
from lowrank_ncvx.core import FactorPoint
from lowrank_ncvx.problems import (
    ProblemInstance,
    corrupt_outliers,
    estimate_rip,
    factorization_instance,
    forward_model,
    gen_blind_deconv,
    gen_identity_sensing,
    gen_joint_alignment,
    gen_matrix_completion,
    gen_matrix_sensing,
    gen_phase_retrieval,
    gen_phase_sync,
    gen_quadratic_sensing,
    gen_rpca,
    instance_from_json,
    instance_to_json,
    instances_equal,
    lift_assignment,
    loss_and_grad,
)

ALL_GENERATORS = [
    lambda seed: gen_matrix_sensing(5, 5, 2, 12, True, seed),
    lambda seed: gen_matrix_sensing(5, 4, 2, 12, False, seed),
    lambda seed: gen_identity_sensing(4, 3, 2, seed),
    lambda seed: gen_phase_retrieval(6, 20, seed),
    lambda seed: gen_quadratic_sensing(6, 2, 20, seed),
    lambda seed: gen_matrix_completion(7, 7, 2, 0.6, True, seed),
    lambda seed: gen_matrix_completion(7, 5, 2, 0.6, False, seed),
    lambda seed: gen_blind_deconv(3, 4, 9, seed),
    lambda seed: gen_rpca(8, 8, 2, 0.7, 0.05, 3.0, seed),
    lambda seed: gen_rpca(8, 6, 2, 0.7, 0.05, 3.0, seed),
    lambda seed: gen_phase_sync(6, 0.4, seed),
    lambda seed: gen_joint_alignment(4, 3, 0.2, seed),
]


# ---------------------------------------------------------------------------
# Replay and determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_same_seed_reproduces_instance(make):
    assert instances_equal(make(314), make(314))


@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_forward_model_replays_observations(make):
    inst = make(2718)
    assert np.array_equal(forward_model(inst), inst.y)


# The first 16 hex digits of a SHA-256 over the arrays each ALL_GENERATORS
# entry takes straight from its random stream through elementwise arithmetic
# (the designs A, mask, W and z, robust PCA's S, joint alignment's labels x),
# at seeds 0 and 1.  Arrays that pass through LAPACK or libm (truth factors,
# M, y, the DFT block B) are left out.  Every matrix generator draws its truth
# before its design, so a change in how the truth uses the stream shows here.
# Identity sensing stores no drawn array: its digest is that of no bytes.
STREAM_DIGESTS = [
    ("0aec4fbfecbbe7bc", "76a6aefeb5724599"), ("f1c098161ba82a4f", "9e6ef1942aa38c1b"),
    ("e3b0c44298fc1c14", "e3b0c44298fc1c14"), ("b8f75a7f9fd108ab", "bb61837356603051"),
    ("fbc1f5af9dba30a2", "e9e3096f35eb67c1"), ("48f6845593f5e9fd", "5012c43aec96e963"),
    ("42cacd7390b3979d", "b2767a071e4fe1f6"), ("71593365dfd7f1bb", "68465c312df6bcb8"),
    ("de0e25c4e6b31b58", "75fbf55577621925"), ("791edd03afea07a4", "a021982c5ba934b9"),
    ("f0aac9a9eb1d5d10", "1c244ac16cae6359"), ("588f7b076a726b39", "ceb45ef16a76137f"),
]


@pytest.mark.parametrize("make, digests", zip(ALL_GENERATORS, STREAM_DIGESTS))
def test_generator_random_streams_are_pinned(make, digests):
    for seed, want in enumerate(digests):
        inst = make(seed)
        arrays = [inst.design[k] for k in ("A", "mask", "W", "z") if k in inst.design]
        arrays += [inst.truth["S"]] if "S" in inst.truth else []
        arrays += [inst.truth["x"]] if inst.family == "JointAlignment" else []
        h = hashlib.sha256()
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        assert h.hexdigest()[:16] == want, (inst.family, seed)


# ---------------------------------------------------------------------------
# Truth gaps
# ---------------------------------------------------------------------------

# Each move returns the truth of an instance as a point and the truth moved
# along the family's ambiguity by a random element of it.

def _rotated(inst, rng):
    # A rotation Q of symmetric factors; asymmetric ones take the general
    # invertible mix (L G, R G^-T), G = Q diag(d), so G^-T = Q diag(1/d).
    t = inst.truth
    key = "X" if "X" in t else "L"
    Q = np.linalg.qr(rng.standard_normal((t[key].shape[1],) * 2))[0]
    if key == "X":
        return FactorPoint.sym(t["X"]), FactorPoint.sym(t["X"] @ Q)
    d = rng.uniform(0.5, 2.0, Q.shape[1])
    return FactorPoint.asym(t["L"], t["R"]), FactorPoint.asym(t["L"] @ Q * d, t["R"] @ Q / d)


def _negated(inst, rng):
    x = inst.truth["x"]
    return FactorPoint.vector(x), FactorPoint.vector(-x)


def _scaled_pair(inst, rng):
    (h, x), a = (inst.truth["h"], inst.truth["x"]), complex(*rng.standard_normal(2))
    return FactorPoint.pair(h, x), FactorPoint.pair(h / np.conj(a), a * x)


def _phased(inst, rng):
    x = inst.truth["x"]
    return (FactorPoint.vector(x),
            FactorPoint.vector(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * x))


def _shifted_labels(inst, rng):
    labels, m = inst.truth["x"], inst.params["alphabet_m"]
    return (FactorPoint.vector(lift_assignment(labels, m)),
            FactorPoint.vector(lift_assignment(labels + rng.integers(1, m), m)))


# The families whose ambiguity is not _rotated's move of the factors
AMBIGUITY_MOVES = {"PhaseRetrieval": _negated, "BlindDeconv": _scaled_pair,
                   "PhaseSync": _phased, "JointAlignment": _shifted_labels}


@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_truth_gap_vanishes_on_the_ambiguity_orbit(make):
    inst = make(1618)
    rng = core.make_rng(1618)
    move = AMBIGUITY_MOVES.get(inst.family, _rotated)
    gap = problems.FAMILIES[inst.family].gap
    for _ in range(3):
        at, moved = move(inst, rng)
        assert gap(inst, at, None)[0]["dist"] == 0.0
        dist = gap(inst, moved, None)[0]["dist"]
        if inst.family == "JointAlignment":
            assert dist == 0.0
        else:
            scale = math.sqrt(sum(np.vdot(p, p).real for p in at.parts))
            assert dist <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Matrix sensing
# ---------------------------------------------------------------------------

def test_sensing_identity_probe_reads_trace():
    inst = gen_matrix_sensing(4, 4, 4, 1, False, seed=5)
    probe = ProblemInstance(
        inst.family, inst.seed, inst.params, inst.truth,
        {"kind": "gaussian", "A": np.eye(4)[None]}, None,
    )
    probe.y = forward_model(probe)
    np.testing.assert_allclose(probe.y[0], np.trace(inst.truth["M"]), rtol=1e-13)


def test_sensing_symmetric_design_is_isotropic_on_symmetric_probes():
    # E <A, T>^2 = ||T||_F^2 for the symmetrized Gaussian design.
    inst = gen_matrix_sensing(6, 6, 2, 200, True, seed=11)
    rng = core.make_rng(99)
    G = rng.standard_normal((6, 6))
    T = 0.5 * (G + G.T)
    T /= np.linalg.norm(T)
    vals = np.tensordot(inst.design["A"], T, axes=([1, 2], [0, 1])) ** 2
    assert abs(np.mean(vals) - 1.0) < 0.15


def test_sensing_symmetric_design_has_symmetric_matrices():
    inst = gen_matrix_sensing(5, 5, 1, 7, True, seed=3)
    A = inst.design["A"]
    assert np.array_equal(A, np.transpose(A, (0, 2, 1)))


def test_sensing_spectrum_control():
    inst = gen_matrix_sensing(8, 6, 2, 5, False, seed=0, spectrum=[5.0, 1.0])
    s = np.linalg.svd(inst.truth["M"], compute_uv=False)
    np.testing.assert_allclose(s[:2], [5.0, 1.0], atol=1e-10)
    assert np.all(s[2:] < 1e-10)
    sym = gen_matrix_sensing(8, 8, 2, 5, True, seed=0, spectrum=[4.0, 2.0])
    w = np.linalg.eigvalsh(sym.truth["M"])
    np.testing.assert_allclose(np.sort(w)[-2:], [2.0, 4.0], atol=1e-10)


SENSING_DESIGNS = {
    "sym": lambda seed: gen_matrix_sensing(5, 5, 2, 30, True, seed),
    "asym": lambda seed: gen_matrix_sensing(5, 4, 2, 30, False, seed),
    "identity": lambda seed: gen_identity_sensing(5, 4, 2, seed),
}


@settings(deadline=None, max_examples=30)
@given(design=st.sampled_from(sorted(SENSING_DESIGNS)),
       seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3))
def test_sensing_operator_adjoint_and_rows(design, seed, r):
    inst = SENSING_DESIGNS[design](seed)
    op = problems.sensing_operator(inst)
    n1, n2 = inst.params["n1"], inst.params["n2"]
    rng = core.make_rng(core.derive_seed(seed, "adjointness"))
    T = rng.standard_normal((n1, n2))
    e = rng.standard_normal(inst.params["m"])
    lhs = float(op.measure(T) @ e)
    rhs = float(np.sum(T * op.adjoint(e)))
    scale = np.linalg.norm(op.measure(T)) * np.linalg.norm(e)
    assert abs(lhs - rhs) <= 1e-12 * scale
    L, R = rng.standard_normal((n1, r)), rng.standard_normal((n2, r))
    want = op.measure(L @ R.T)
    norm = np.linalg.norm(want)
    assert np.linalg.norm(op.rows(L, 1) @ R.ravel() - want) <= 1e-12 * norm
    assert np.linalg.norm(op.rows(R, 2) @ L.ravel() - want) <= 1e-12 * norm
    if design == "identity":
        assert np.array_equal(op.apply(T), T.ravel())


def _rows_emptied(seed):
    # A completion instance whose first, middle and last rows are unobserved.
    inst = gen_matrix_completion(7, 5, 2, 0.6, False, seed)
    mask = inst.design["mask"].copy()
    mask[[0, 3, 6]] = False
    return ProblemInstance(inst.family, seed, dict(inst.params), inst.truth,
                           {"mask": mask}, inst.truth["M"][mask])


SAMPLED_DESIGNS = {
    "completion_sym": lambda seed: gen_matrix_completion(6, 6, 2, 0.5, True, seed),
    "completion_asym": lambda seed: gen_matrix_completion(6, 4, 2, 0.5, False, seed),
    "rpca_sym": lambda seed: gen_rpca(6, 6, 2, 0.6, 0.1, 3.0, seed),
    "rpca_asym": lambda seed: gen_rpca(6, 4, 2, 0.6, 0.1, 3.0, seed),
    "empty_mask": lambda seed: gen_matrix_completion(5, 4, 2, 0.0, False, seed),
    "full_mask": lambda seed: gen_matrix_completion(5, 4, 2, 1.0, False, seed),
    "empty_rows": _rows_emptied,
}


@settings(deadline=None, max_examples=30)
@given(design=st.sampled_from(sorted(SAMPLED_DESIGNS)),
       seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3))
@example(design="empty_mask", seed=0, r=2)
@example(design="full_mask", seed=0, r=3)
@example(design="empty_rows", seed=0, r=1)
def test_entry_sampling_operator_adjoint_and_factors(design, seed, r):
    # P_Omega through the operator every linear family shares: <A(T), e> =
    # <T, A*(e)>, and the row-dot model equals the measured product for
    # C-ordered, F-ordered and strided (reversed, every other) factor views.
    inst = SAMPLED_DESIGNS[design](seed)
    op = problems.linear_operator(inst)
    n1, n2 = inst.params["n1"], inst.params["n2"]
    assert op.shape == (n1, n2)
    rng = core.make_rng(core.derive_seed(seed, "adjointness"))
    T = rng.standard_normal((n1, n2))
    e = rng.standard_normal(inst.y.shape[0])
    lhs = float(op.measure(T) @ e)
    rhs = float(np.sum(T * op.adjoint(e).toarray()))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(op.measure(T)) * np.linalg.norm(e)
    A = rng.standard_normal((2 * n1, 2 * r))[::2, ::2]
    B = rng.standard_normal((n2, r))[::-1]
    want = op.measure(A @ B.T)
    for a, b in ((A, B), (np.asfortranarray(A), np.asfortranarray(B)),
                 (np.ascontiguousarray(A), np.ascontiguousarray(B))):
        got = op.measure_factors(a, b)
        assert got.shape == inst.y.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_linear_operator_names_a_family_without_one():
    with pytest.raises(ValueError, match="PhaseRetrieval"):
        problems.linear_operator(gen_phase_retrieval(4, 8, seed=1))


def test_identity_sensing_and_full_mask_completion_share_one_risk():
    # Both observe every entry of the same truth, so the plain losses,
    # ||A(L R^T) - y||^2 / 4m and ||L R^T - M||_F^2 / 4, and their gradients
    # agree.
    for seed in range(5):
        comp = gen_matrix_completion(6, 5, 2, 1.0, False, seed)
        sens = ProblemInstance("MatrixSensingAsym", seed,
                               {"n1": 6, "n2": 5, "r": 2, "m": 30, "symmetric": False},
                               comp.truth, {"kind": "identity"}, None)
        sens.y = forward_model(sens)
        rng = core.make_rng(seed)
        point = FactorPoint.asym(rng.standard_normal((6, 2)), rng.standard_normal((5, 2)))
        val_c, g_c = loss_and_grad(comp, point)
        val_s, g_s = loss_and_grad(sens, point)
        assert abs(val_s - val_c) <= 1e-12 * val_c
        for a, b in zip(g_s.parts, g_c.parts):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_gaussian_right_rows_do_not_copy_the_design():
    # rows(L, 1) contracts the design's middle axis; its peak allocation is
    # its output, not a transposed copy of the (m, n1, n2) design.
    inst = gen_matrix_sensing(30, 30, 2, 1800, False, seed=3)
    op = problems.sensing_operator(inst)
    tracemalloc.start()
    try:
        out = op.rows(inst.truth["L"], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


# Every matrix generator, each symmetric/asymmetric branch, as
# make(n1, n2, r, seed); robust PCA plants a symmetric truth when n1 == n2.
MATRIX_GENERATORS = [
    lambda n1, n2, r, seed: gen_matrix_sensing(n1, n2, r, 1, False, seed),
    lambda n1, n2, r, seed: gen_matrix_sensing(n1, n1, r, 1, True, seed),
    lambda n1, n2, r, seed: gen_identity_sensing(n1, n2, r, seed),
    lambda n1, n2, r, seed: gen_quadratic_sensing(n1, r, 1, seed),
    lambda n1, n2, r, seed: gen_matrix_completion(n1, n2, r, 0.5, False, seed),
    lambda n1, n2, r, seed: gen_matrix_completion(n1, n1, r, 0.5, True, seed),
    lambda n1, n2, r, seed: gen_rpca(n1, n2, r, 0.5, 0.0, 1.0, seed),
    lambda n1, n2, r, seed: gen_rpca(n1, n1, r, 0.5, 0.0, 1.0, seed),
]


@settings(deadline=None, max_examples=40)
@given(
    n1=st.integers(2, 6), n2=st.integers(2, 6),
    r=st.integers(1, 2), seed=st.integers(0, 10_000),
)
def test_truth_factors_are_balanced(n1, n2, r, seed):
    # X^T X = diag(sigma) for every planted symmetric truth, and L^T L =
    # R^T R = diag(sigma) for every asymmetric one.
    r = min(r, n1, n2)
    for make in MATRIX_GENERATORS:
        t = make(n1, n2, r, seed).truth
        sigma = t["sigma"]
        for F in ([t["X"]] if "X" in t else [t["L"], t["R"]]):
            np.testing.assert_allclose(F.T @ F, np.diag(sigma), atol=1e-8 * max(1.0, sigma[0]))


# ---------------------------------------------------------------------------
# Phase retrieval and quadratic sensing
# ---------------------------------------------------------------------------

def test_phase_retrieval_forced_probe():
    inst = ProblemInstance(
        "PhaseRetrieval", 0, {"n": 2, "m": 1, "norm": 1.0},
        {"x": np.array([1.0, 0.0])}, {"A": np.array([[1.0, 0.0]])}, None,
    )
    inst.y = forward_model(inst)
    assert inst.y.tolist() == [1.0]


def test_phase_retrieval_observations_nonnegative_and_concentrate():
    inst = gen_phase_retrieval(10, 2000, seed=4, norm=1.7)
    assert np.all(inst.y >= 0)
    assert abs(np.mean(inst.y) / 1.7**2 - 1.0) < 0.1


def test_phase_retrieval_hand_worked_loss_and_grad():
    inst = ProblemInstance(
        "PhaseRetrieval", 0, {"n": 2, "m": 1, "norm": 1.0},
        {"x": np.array([1.0, 0.0])}, {"A": np.array([[1.0, 0.0]])}, None,
    )
    inst.y = forward_model(inst)
    val, g = loss_and_grad(inst, FactorPoint.vector([2.0, 0.0]))
    assert abs(val - 2.25) < 1e-12
    np.testing.assert_allclose(g.parts[0], [6.0, 0.0], atol=1e-12)


def test_amplitude_loss_zero_subgradient_at_kink():
    inst = ProblemInstance(
        "PhaseRetrieval", 0, {"n": 2, "m": 2, "norm": 1.0},
        {"x": np.array([1.0, 2.0])},
        {"A": np.array([[1.0, 0.0], [0.0, 1.0]])}, None,
    )
    inst.y = np.array([1.0, 4.0])
    val, g = loss_and_grad(inst, FactorPoint.vector([0.0, 1.0]), loss="amplitude")
    assert abs(val - 0.5) < 1e-12
    np.testing.assert_allclose(g.parts[0], [0.0, -0.5], atol=1e-12)


def test_quadratic_sensing_rank_one_matches_phase_retrieval_model():
    inst = gen_quadratic_sensing(7, 1, 50, seed=9)
    col = inst.truth["X"][:, 0]
    np.testing.assert_allclose(inst.y, (inst.design["A"] @ col) ** 2, rtol=1e-12)


def test_quadratic_sensing_mean_concentrates():
    inst = gen_quadratic_sensing(8, 3, 2000, seed=21)
    assert np.all(inst.y >= 0)
    fro2 = np.sum(inst.truth["X"] ** 2)
    assert abs(np.mean(inst.y) / fro2 - 1.0) < 0.1


# ---------------------------------------------------------------------------
# Matrix completion
# ---------------------------------------------------------------------------

def test_completion_p_edges():
    full = gen_matrix_completion(5, 4, 2, 1.0, False, seed=1)
    assert np.all(full.design["mask"])
    np.testing.assert_array_equal(full.y, full.truth["M"].ravel())
    empty = gen_matrix_completion(5, 4, 2, 0.0, False, seed=1)
    assert empty.y.size == 0


def test_completion_mask_density_concentrates():
    n, p = 100, 0.3
    inst = gen_matrix_completion(n, n, 3, p, False, seed=8)
    frac = np.mean(inst.design["mask"])
    assert abs(frac - p) <= 4.0 * math.sqrt(p / (n * n))


@pytest.mark.parametrize("shape", [(1, 1), (3, 50000), (2001, 7), (257, 2000)])
@pytest.mark.parametrize("p", [0, 0.02, 0.5, 1])
def test_blocked_mask_draw_is_the_one_shot_draw(shape, p):
    # Rows longer than a block, blocks spanning rows and a last partial
    # block: the mask and the generator state after it are those of one
    # n1 x n2 draw.
    for seed in (0, 1):
        rng, ref = core.make_rng(seed), core.make_rng(seed)
        mask = problems._bernoulli_mask(rng, *shape, p)
        want = ref.random(shape) < p
        assert mask.dtype == want.dtype and np.array_equal(mask, want)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [0, 0.02, 0.5, 1])
def test_split_mask_draw_keeps_the_stream(monkeypatch, workers, p):
    # Prior draws leave Philox's four-double block partly used (buffer_pos
    # 1 to 4) and, after a float32 draw, a pending 32-bit half; sizes are
    # multiples of neither 4 nor the worker count, and the worker count
    # reaches one block each.  The mask and every draw after it are those of
    # one n1 x n2 draw.
    monkeypatch.setattr(core, "_mask_workers", lambda size: workers)
    for k, half, shape in itertools.product(
            range(6), (False, True), [(1, 1), (7, 11), (13, 17), (1999, 7), (257, 2003)]):
        rng, ref = core.make_rng(k), core.make_rng(k)
        for g in (rng, ref):
            g.standard_normal(k)
            if half:
                g.random(dtype=np.float32)
        mask = core._bernoulli_mask(rng, *shape, p)
        assert np.array_equal(mask, ref.random(shape) < p), (k, half, shape)
        assert rng.random(dtype=np.float32) == ref.random(dtype=np.float32)
        assert rng.random() == ref.random()
        assert rng.standard_normal() == ref.standard_normal()


def test_mask_workers_follow_the_cpus_and_the_draw_floor(monkeypatch):
    floor = core._MASK_MIN_DRAWS
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert [core._mask_workers(n) for n in (1, floor - 1, floor, 5 * floor + 3, 100 * floor)] \
        == [1, 1, 1, 5, 8]
    monkeypatch.delattr(core.os, "sched_getaffinity")
    monkeypatch.setattr(core.os, "cpu_count", lambda: 3)
    assert core._mask_workers(100 * floor) == 3


@pytest.mark.parametrize("on_caller", [True, False])
def test_split_mask_draw_joins_its_threads(monkeypatch, on_caller):
    # The default worker count on a mask of three floors, then a forced
    # split in which the calling thread's range (skip 0) or the pool's
    # ranges raise: the exception reaches the caller and no worker thread
    # outlives the call.
    before = threading.active_count()
    rng, ref = core.make_rng(4), core.make_rng(4)
    shape = (3, core._MASK_MIN_DRAWS)
    assert np.array_equal(core._bernoulli_mask(rng, *shape, 0.3), ref.random(shape) < 0.3)
    assert rng.random() == ref.random()
    assert threading.active_count() == before

    fill = core._fill_mask_range

    def failing(key, counter, skip, *rest):
        if (skip == 0) == on_caller:
            raise RuntimeError("worker failed")
        fill(key, counter, skip, *rest)

    monkeypatch.setattr(core, "_fill_mask_range", failing)
    monkeypatch.setattr(core, "_mask_workers", lambda size: 3)
    with pytest.raises(RuntimeError, match="^worker failed$"):
        core._bernoulli_mask(core.make_rng(4), 50, 50, 0.3)
    assert threading.active_count() == before


def test_split_mask_draw_without_threads_is_the_one_shot_draw(monkeypatch):
    # No pool thread can start: the calling thread fills every range, and
    # the mask and the stream are those of one n1 x n2 draw.
    before = threading.active_count()
    starts = []

    def refused(thread):
        starts.append(thread)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refused)
    monkeypatch.setattr(core, "_mask_workers", lambda size: 3)
    rng, ref = core.make_rng(6), core.make_rng(6)
    assert np.array_equal(core._bernoulli_mask(rng, 50, 50, 0.3), ref.random((50, 50)) < 0.3)
    assert rng.random() == ref.random()
    assert len(starts) == 2  # one refused start per pool range
    assert threading.active_count() == before


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937])
def test_mask_from_a_generator_without_counters_is_the_one_shot_draw(monkeypatch, bitgen):
    # Only Philox can be split; any other generator draws the mask alone.
    monkeypatch.setattr(core, "_mask_workers", lambda size: 3)
    rng, ref = np.random.Generator(bitgen(5)), np.random.Generator(bitgen(5))
    rng.standard_normal(3), ref.standard_normal(3)
    assert np.array_equal(core._bernoulli_mask(rng, 50, 50, 0.3), ref.random((50, 50)) < 0.3)
    assert rng.random() == ref.random()


def test_completion_instance_peak_is_its_truth_and_mask():
    # No n1 x n2 float array besides M: the mask is drawn through one small
    # reused buffer.  The bound is M (8 n1 n2 bytes) plus the mask (n1 n2)
    # plus 2 MiB.
    gen_matrix_completion(20, 20, 5, 0.02, False, 0)  # one-time imports, untraced
    n1 = n2 = 1000
    tracemalloc.start()
    try:
        gen_matrix_completion(n1, n2, 5, 0.02, False, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * n1 * n2 + 2**21


def test_completion_truth_has_computable_incoherence():
    inst = gen_matrix_completion(30, 30, 2, 0.5, True, seed=2)
    mu = core.incoherence_mu(inst.truth["M"], 2)
    assert 1.0 <= mu < 30.0


# ---------------------------------------------------------------------------
# Blind deconvolution
# ---------------------------------------------------------------------------

def test_blind_deconv_subspace_is_unitary_and_norms_match():
    inst = gen_blind_deconv(4, 5, 16, seed=12, norm=2.0)
    B = inst.design["B"]
    np.testing.assert_allclose(B.conj().T @ B, np.eye(4), atol=1e-10)
    assert abs(np.linalg.norm(inst.truth["h"]) - 2.0) < 1e-12
    assert abs(np.linalg.norm(inst.truth["x"]) - 2.0) < 1e-12


@pytest.mark.parametrize("m, K", [(16, 4), (9, 9), (7, 1), (1, 1), (512, 32)])
def test_blind_deconv_basis_is_the_partial_dft_bit_for_bit(m, K):
    jk = np.arange(m)[:, None] * np.arange(K)[None, :]
    B = gen_blind_deconv(K, 2, m, seed=0).design["B"]
    assert np.array_equal(B, np.exp((-2j * np.pi / m) * jk) / np.sqrt(m))


def test_blind_deconv_instances_of_one_size_share_one_read_only_basis():
    a, b = gen_blind_deconv(6, 3, 23, seed=1), gen_blind_deconv(6, 5, 23, seed=2)
    other = gen_blind_deconv(6, 3, 24, seed=1)
    assert a.design["B"] is b.design["B"]
    assert other.design["B"] is not a.design["B"]
    with pytest.raises(ValueError, match="read-only"):
        a.design["B"][0, 0] = 0
    # nothing is held once the instances are gone
    del a, b
    gc.collect()
    assert (23, 6) not in problems._DFT and (24, 6) in problems._DFT


def test_blind_deconv_json_round_trip_gets_its_own_writable_basis():
    inst = gen_blind_deconv(4, 3, 16, seed=3)
    back = instance_from_json(instance_to_json(inst))
    assert instances_equal(inst, back)
    assert back.design["B"] is not inst.design["B"] and back.design["B"].flags.writeable


def test_blind_deconv_scalar_probe():
    h, x = 2.0 + 1.0j, 1.0 - 3.0j
    inst = ProblemInstance(
        "BlindDeconv", 0, {"K": 1, "N": 1, "m": 1, "norm": 1.0},
        {"h": np.array([h]), "x": np.array([x])},
        {"B": np.array([[1.0 + 0j]]), "A": np.array([[1.0 + 0j]])}, None,
    )
    inst.y = forward_model(inst)
    assert abs(inst.y[0] - h * np.conj(x)) < 1e-14


def test_blind_deconv_requires_enough_samples():
    with pytest.raises(ValueError, match="m >= K"):
        gen_blind_deconv(8, 4, 6, seed=0)


# ---------------------------------------------------------------------------
# Robust PCA
# ---------------------------------------------------------------------------

def test_rpca_outlier_support_respects_caps():
    n1, n2, alpha = 20, 15, 0.1
    inst = gen_rpca(n1, n2, 2, 0.8, alpha, 5.0, seed=6)
    S = inst.truth["S"]
    assert np.count_nonzero(S) == round(alpha * n1 * n2)
    assert np.all(np.count_nonzero(S, axis=1) <= math.ceil(alpha * n2))
    assert np.all(np.count_nonzero(S, axis=0) <= math.ceil(alpha * n1))
    assert set(np.unique(np.abs(S[S != 0]))) == {5.0}


def test_rpca_no_outliers_mode():
    inst = gen_rpca(6, 6, 2, 1.0, 0.0, 1.0, seed=3)
    assert np.count_nonzero(inst.truth["S"]) == 0
    np.testing.assert_array_equal(inst.y, inst.truth["M"].ravel())


def test_rpca_square_truth_is_psd():
    inst = gen_rpca(7, 7, 2, 0.5, 0.02, 2.0, seed=1)
    w = np.linalg.eigvalsh(inst.truth["M"])
    assert w.min() > -1e-10


def test_rpca_tight_budgets_place_every_outlier():
    # round(0.1 * 30 * 30) = 90 outliers under caps of 3 per row and column:
    # every row must fill exactly, and the permutation scan alone stalls on
    # seeds 1, 3 and 4.  An instance the scan completes keeps its random
    # stream: seed 0's support, signs and mask are pinned.
    for seed in range(20):
        inst = gen_rpca(30, 30, 2, 0.6, 0.1, 3.0, seed)
        S = inst.truth["S"]
        assert np.count_nonzero(S) == 90
        assert np.count_nonzero(S, axis=1).max() <= 3
        assert np.count_nonzero(S, axis=0).max() <= 3
        if seed == 0:
            digest = hashlib.sha256(S.tobytes() + inst.design["mask"].tobytes()).hexdigest()
            assert digest == "31c2387657939bb33b0fe35d89eceb0531aced41d3b8b4a3c54ecca8fe6a7a7c"


def test_sparse_support_reaches_every_feasible_count():
    # Every other budget is tight, count = n1 a = n2 b, which needs every row
    # and column full; the permutation scan alone stalls on about a quarter
    # of those at a = 3.  Every count up to min(n1 a, n2 b) is placed
    # exactly, on distinct cells within the caps; a larger one raises.
    rng = np.random.default_rng(11)
    for t in range(300):
        n1, n2 = (int(v) for v in rng.integers(1, 13, size=2))
        a, b = (int(v) for v in rng.integers(1, 6, size=2))
        if t % 2:
            n2, b = n1, a
        top = min(n1 * min(a, n2), n2 * min(b, n1))
        for count in (top, top - 1, int(rng.integers(0, top + 1))):
            cells = problems._sparse_support(core.make_rng(t), n1, n2, max(count, 0), a, b)
            S = np.zeros((n1, n2), dtype=int)
            for i, j in cells:
                S[i, j] += 1
            assert S.max(initial=0) <= 1 and S.sum() == max(count, 0)
            assert S.sum(axis=1).max() <= a and S.sum(axis=0).max() <= b
        with pytest.raises(RuntimeError, match="caps"):
            problems._sparse_support(core.make_rng(t), n1, n2, top + 1, a, b)


# ---------------------------------------------------------------------------
# Phase synchronization
# ---------------------------------------------------------------------------

def test_phase_sync_noiseless_is_exact_rank_one():
    inst = gen_phase_sync(9, 0.0, seed=7)
    x = inst.truth["x"]
    np.testing.assert_array_equal(inst.y, np.outer(x, np.conj(x)))
    assert np.all(np.abs(np.abs(x) - 1.0) < 1e-14)


def test_phase_sync_observation_is_hermitian():
    inst = gen_phase_sync(12, 0.8, seed=5)
    L = inst.y
    assert np.max(np.abs(L - L.conj().T)) < 1e-12


def test_phase_sync_noise_mass_matches_model():
    # E ||L - x x^H||_F^2 = sigma^2 n^2 for this noise normalization.
    inst = gen_phase_sync(50, 0.3, seed=13)
    x = inst.truth["x"]
    dev = np.linalg.norm(inst.y - np.outer(x, np.conj(x))) / 0.3
    assert abs(dev / 50.0 - 1.0) < 0.2


def test_phase_sync_truth_maximizes_noiseless_objective():
    inst = gen_phase_sync(8, 0.0, seed=17)
    x = inst.truth["x"]
    L = inst.y
    truth_score = float(np.real(np.conj(x) @ (L @ x)))
    rng = core.make_rng(23)
    Z = np.exp(2j * np.pi * rng.random((10_000, 8)))
    scores = np.real(np.einsum("ki,ij,kj->k", np.conj(Z), L, Z))
    assert truth_score > scores.max()


# ---------------------------------------------------------------------------
# Joint alignment
# ---------------------------------------------------------------------------

def test_joint_alignment_certificate_shape_and_symmetry():
    inst = gen_joint_alignment(4, 3, 0.3, seed=2)
    L = inst.design["L"]
    assert L.shape == (12, 12)
    assert np.array_equal(L, L.T)
    for i in range(4):
        assert np.all(L[i * 3:(i + 1) * 3, i * 3:(i + 1) * 3] == 0.0)


def test_joint_alignment_noiseless_bruteforce_recovery():
    # With no noise the maximizers of the lifted certificate over one-hot
    # assignments are exactly the global shifts of the truth.
    inst = gen_joint_alignment(3, 2, 0.0, seed=44)
    L = inst.design["L"]
    truth = inst.truth["x"]
    scores = {}
    for assign in itertools.product(range(2), repeat=3):
        v = lift_assignment(np.array(assign), 2)
        scores[assign] = float(v @ (L @ v))
    best = max(scores.values())
    winners = {a for a, s in scores.items() if s >= best - 1e-9}
    shifts = {tuple((truth + s) % 2) for s in range(2)}
    assert winners == shifts


def _certificate_loop(y, mm, q):
    # The block-by-block construction the vectorized certificate replaced.
    n = y.shape[0]
    log_match = math.log(max(1.0 - q, 1e-12))
    log_miss = math.log(max(q / (mm - 1), 1e-12))
    delta = (np.arange(mm)[:, None] - np.arange(mm)[None, :]) % mm
    L = np.zeros((n * mm, n * mm))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            block = np.where(delta == y[i, j], log_match, log_miss)
            L[i * mm:(i + 1) * mm, j * mm:(j + 1) * mm] = block
    return L


@pytest.mark.parametrize("n, mm, q", [
    (2, 2, 0.0), (3, 2, 0.5), (5, 3, 0.3), (7, 4, 0.0), (6, 5, 0.9), (12, 7, 0.4),
])
def test_joint_alignment_certificate_matches_the_block_loop(n, mm, q):
    inst = gen_joint_alignment(n, mm, q, seed=n + mm)
    L = inst.design["L"]
    want = _certificate_loop(inst.y, mm, q)
    assert L.dtype == want.dtype and L.flags.c_contiguous
    assert np.array_equal(L, want)


def test_joint_alignment_mirrored_measurements():
    inst = gen_joint_alignment(5, 4, 0.4, seed=9)
    y, mmod = inst.y, 4
    assert np.array_equal(y, (-y.T) % mmod)
    assert np.all(np.diag(y) == 0)


# ---------------------------------------------------------------------------
# Loss and gradient: zero residual at the truth
# ---------------------------------------------------------------------------

def _truth_point(inst):
    t = inst.truth
    if inst.family in ("MatrixSensingSym", "QuadraticSensing", "MatrixCompletionSym"):
        return FactorPoint.sym(t["X"])
    if inst.family in ("MatrixSensingAsym", "MatrixCompletionAsym"):
        return FactorPoint.asym(t["L"], t["R"])
    if inst.family == "PhaseRetrieval":
        return FactorPoint.vector(t["x"])
    if inst.family == "BlindDeconv":
        return FactorPoint.pair(t["h"], t["x"])
    if inst.family == "RobustPCA":
        return FactorPoint.sym(t["X"]) if "X" in t else FactorPoint.asym(t["L"], t["R"])
    raise AssertionError(inst.family)


RESIDUAL_CASES = [
    (lambda s: gen_matrix_sensing(5, 5, 2, 12, True, s), "plain", None),
    (lambda s: gen_matrix_sensing(5, 4, 2, 12, False, s), "plain", None),
    (lambda s: gen_identity_sensing(4, 3, 2, s), "plain", None),
    (lambda s: gen_phase_retrieval(6, 20, s), "plain", None),
    (lambda s: gen_phase_retrieval(6, 20, s), "amplitude", None),
    (lambda s: gen_quadratic_sensing(6, 2, 20, s), "plain", None),
    (lambda s: gen_matrix_completion(7, 7, 2, 0.6, True, s), "plain", None),
    (lambda s: gen_matrix_completion(7, 5, 2, 0.6, False, s), "plain", None),
    (lambda s: gen_blind_deconv(3, 4, 9, s), "plain", None),
    (lambda s: gen_rpca(8, 8, 2, 0.7, 0.05, 3.0, s), "plain", "use_truth_S"),
    (lambda s: gen_rpca(8, 6, 2, 0.7, 0.05, 3.0, s), "plain", "use_truth_S"),
]


@pytest.mark.parametrize("make,loss,flag", RESIDUAL_CASES)
def test_truth_is_a_global_zero(make, loss, flag):
    inst = make(99)
    lp = {"S": inst.truth["S"]} if flag == "use_truth_S" else None
    val, g = loss_and_grad(inst, _truth_point(inst), loss=loss, loss_params=lp)
    scale = max(1.0, float(np.max(np.abs(inst.y)))) if inst.y.size else 1.0
    assert abs(val) < 1e-12 * scale
    assert g.norm() < 1e-12 * scale


# ---------------------------------------------------------------------------
# Loss and gradient: finite differences
# ---------------------------------------------------------------------------

def _random_point_like(rng, point_kind, inst, scale=1.0):
    t, p = inst.truth, inst.params
    if point_kind == "sym":
        n = t["X"].shape[0] if "X" in t else p["n1"]
        r = p["r"]
        return FactorPoint.sym(scale * rng.standard_normal((n, r)))
    if point_kind == "asym":
        return FactorPoint.asym(
            scale * rng.standard_normal((p["n1"], p["r"])),
            scale * rng.standard_normal((p["n2"], p["r"])),
        )
    if point_kind == "vector":
        if inst.family == "JointAlignment":
            dim = p["n"] * p["alphabet_m"]
            return FactorPoint.vector(scale * rng.standard_normal(dim))
        n = t["x"].shape[0]
        if np.iscomplexobj(t["x"]):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return FactorPoint("vector", (scale * z,))
        return FactorPoint.vector(scale * rng.standard_normal(n))
    if point_kind == "pair":
        h = rng.standard_normal(p["K"]) + 1j * rng.standard_normal(p["K"])
        x = rng.standard_normal(p["N"]) + 1j * rng.standard_normal(p["N"])
        return FactorPoint.pair(scale * h, scale * x)
    raise AssertionError(point_kind)


def _random_direction_like(rng, point):
    parts = []
    for prt in point.parts:
        d = rng.standard_normal(prt.shape)
        if np.iscomplexobj(prt):
            d = d + 1j * rng.standard_normal(prt.shape)
        d /= np.linalg.norm(d)
        parts.append(d)
    return tuple(parts)


def _analytic_rate(inst, grad, direction):
    # Real families: <g, d>.  Complex families: 2 Re <g, d> after unfolding
    # the norm scalings blind deconvolution folds into its direction.
    if inst.family == "BlindDeconv":
        return 0.0  # handled by the caller, which knows the point
    total = 0.0
    for g, d in zip(grad.parts, direction):
        if np.iscomplexobj(g) or np.iscomplexobj(d):
            total += 2.0 * float(np.real(np.sum(np.conj(g) * d)))
        else:
            total += float(np.sum(g * d))
    return total


def _fd_check(inst, point, loss, lp=None, weights=None, rng=None, rel=1e-5):
    val, grad = loss_and_grad(inst, point, loss=loss, loss_params=lp, weights=weights)
    direction = _random_direction_like(rng, point)
    if inst.family == "BlindDeconv":
        nh2 = float(np.sum(np.abs(point.h) ** 2))
        nx2 = float(np.sum(np.abs(point.x) ** 2))
        analytic = 2.0 * float(np.real(np.sum(np.conj(grad.parts[0] * nx2) * direction[0])))
        analytic += 2.0 * float(np.real(np.sum(np.conj(grad.parts[1] * nh2) * direction[1])))
    else:
        analytic = _analytic_rate(inst, grad, direction)
    h = 1e-6 * max(1.0, point.norm())
    fplus, _ = loss_and_grad(inst, point.add_scaled(h, direction), loss=loss, loss_params=lp, weights=weights)
    fminus, _ = loss_and_grad(inst, point.add_scaled(-h, direction), loss=loss, loss_params=lp, weights=weights)
    fd = (fplus - fminus) / (2.0 * h)
    denom = max(abs(fd), abs(analytic), 1e-10 * (1.0 + abs(val)))
    assert abs(fd - analytic) < rel * denom, (inst.family, loss, fd, analytic)


FD_CASES = [
    ("sensing_sym", lambda s: gen_matrix_sensing(5, 5, 2, 12, True, s), "sym", "plain", None, False),
    ("sensing_asym", lambda s: gen_matrix_sensing(5, 4, 2, 12, False, s), "asym", "plain", None, False),
    ("sensing_asym_reg", lambda s: gen_matrix_sensing(5, 4, 2, 12, False, s), "asym", "regularized", {"lam": 1 / 32}, False),
    ("sensing_identity", lambda s: gen_identity_sensing(4, 3, 2, s), "asym", "plain", None, False),
    ("pr_plain", lambda s: gen_phase_retrieval(6, 20, s), "vector", "plain", None, True),
    ("pr_amplitude", lambda s: gen_phase_retrieval(6, 20, s), "vector", "amplitude", None, True),
    ("qs", lambda s: gen_quadratic_sensing(6, 2, 20, s), "sym", "plain", None, True),
    ("mc_sym", lambda s: gen_matrix_completion(7, 7, 2, 0.6, True, s), "sym", "plain", None, False),
    ("mc_sym_reg", lambda s: gen_matrix_completion(7, 7, 2, 0.6, True, s), "sym", "regularized", {"lam": 0.7, "alpha": 0.2}, False),
    ("mc_asym", lambda s: gen_matrix_completion(7, 5, 2, 0.6, False, s), "asym", "plain", None, False),
    ("mc_asym_reg", lambda s: gen_matrix_completion(7, 5, 2, 0.6, False, s), "asym", "regularized", {"lam": 0.7}, False),
    ("bd_plain", lambda s: gen_blind_deconv(3, 4, 9, s), "pair", "plain", None, True),
    ("bd_reg", lambda s: gen_blind_deconv(3, 4, 9, s), "pair", "regularized", {"lam": 0.5}, False),
    ("rpca", lambda s: gen_rpca(8, 8, 2, 0.7, 0.05, 3.0, s), "sym", "plain", "random_S", False),
    ("rpca_asym", lambda s: gen_rpca(8, 6, 2, 0.7, 0.05, 3.0, s), "asym", "plain", "random_S", False),
    ("phase_sync", lambda s: gen_phase_sync(6, 0.4, s), "vector", "plain", None, False),
    ("joint_alignment", lambda s: gen_joint_alignment(4, 3, 0.2, s), "vector", "plain", None, False),
]


@pytest.mark.parametrize("name,make,kind,loss,lp,try_weights", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_gradients_match_finite_differences(name, make, kind, loss, lp, try_weights):
    inst = make(404)
    rng = core.make_rng(core.derive_seed(77, name))
    for trial in range(20):
        scale = 0.5 + 2.5 * rng.random()
        point = _random_point_like(rng, kind, inst, scale=scale)
        params = lp
        if lp == "random_S":
            params = {"S": rng.standard_normal(inst.design["mask"].shape)}
        weights = None
        if try_weights and trial % 2 == 1:
            weights = rng.random(inst.params["m"])
        _fd_check(inst, point, loss, lp=params, weights=weights, rng=rng)


def test_uniform_weights_match_unweighted_bitwise():
    inst = gen_phase_retrieval(6, 30, seed=1)
    rng = core.make_rng(5)
    point = FactorPoint.vector(rng.standard_normal(6))
    v0, g0 = loss_and_grad(inst, point)
    v1, g1 = loss_and_grad(inst, point, weights=np.ones(30))
    assert v0 == v1
    assert np.array_equal(g0.parts[0], g1.parts[0])


def test_weight_and_loss_validation():
    inst = gen_matrix_completion(5, 5, 1, 0.5, True, seed=0)
    point = FactorPoint.sym(np.ones((5, 1)))
    with pytest.raises(ValueError, match="weights"):
        loss_and_grad(inst, point, weights=np.ones(5))
    with pytest.raises(ValueError, match="amplitude"):
        loss_and_grad(inst, point, loss="amplitude")
    with pytest.raises(ValueError, match="unknown loss"):
        loss_and_grad(inst, point, loss="huber")
    pr = gen_phase_retrieval(4, 6, seed=0)
    with pytest.raises(ValueError, match="vector"):
        loss_and_grad(pr, point)


@pytest.mark.parametrize("make, point", [
    (lambda: gen_phase_retrieval(4, 12, seed=0), FactorPoint.vector(np.ones(4))),
    (lambda: gen_blind_deconv(3, 3, 12, seed=0),
     FactorPoint.pair(np.ones(3), np.ones(3))),
])
def test_weights_of_the_wrong_shape_are_rejected_at_loss_and_grad(make, point):
    # The family losses trust their weights; loss_and_grad checks them.
    inst = make()
    for bad in (np.ones(11), np.ones(13), np.ones((12, 1)), np.ones((1, 12))):
        for loss in problems.FAMILIES[inst.family].losses:
            with pytest.raises(ValueError, match=r"weights must have shape \(12,\)"):
                loss_and_grad(inst, point, loss=loss, weights=bad)
    val, _ = loss_and_grad(inst, point, weights=[1] * 12)
    assert val == loss_and_grad(inst, point)[0]


_EVERY_LOSS_KEY = {key for spec in problems.FAMILIES.values()
                   for keys in spec.losses.values() for key in keys} | {"lamda"}

_ANY_POINT = {
    "sym": FactorPoint.sym(np.ones((2, 1))),
    "asym": FactorPoint.asym(np.ones((2, 1)), np.ones((2, 1))),
    "vector": FactorPoint.vector(np.ones(2)),
    "pair": FactorPoint.pair(np.ones(2), np.ones(2)),
}


@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_loss_contract_errors_name_the_family(make):
    # Every check runs before any arithmetic, so a point of the right kind
    # and the wrong shape reaches each of them.
    inst = make(0)
    fam = inst.family
    spec = problems.FAMILIES[fam]
    ok = _ANY_POINT[spec.kinds[0]]
    wrong = next(p for kind, p in _ANY_POINT.items() if kind not in spec.kinds)
    with pytest.raises(ValueError, match=f"{fam} expects a .*, got {wrong.kind!r}"):
        loss_and_grad(inst, wrong)
    for tag in {"huber", "plain", "regularized", "amplitude"} - set(spec.losses):
        with pytest.raises(ValueError, match=f"unknown loss tag {tag!r} for {fam}"):
            loss_and_grad(inst, ok, loss=tag)
    if not spec.sample_sum:
        with pytest.raises(ValueError, match=f"{fam} has no per-sample weights"):
            loss_and_grad(inst, ok, weights=np.ones(3))
    if spec.shared is None:
        with pytest.raises(ValueError, match=f"{fam} takes no forward product"):
            loss_and_grad(inst, ok, forward=np.ones(3))
    # A loss parameter the tag's loss does not read: a typo, or a key another
    # tag or family reads (lam of the plain loss, robust PCA's S on sensing).
    for tag, reads in spec.losses.items():
        for key in sorted(_EVERY_LOSS_KEY - set(reads)):
            with pytest.raises(ValueError, match=f"{fam}'s {tag!r} loss does not read "
                                                 f"the loss parameter {key!r}"):
                loss_and_grad(inst, ok, loss=tag, loss_params={key: 1.0})


def test_loss_parameters_change_the_loss_only_where_read():
    # Before loss parameters were checked, these three calls returned a loss:
    # the first two the unparametrized one, the third one that adds A(S).
    mc = gen_matrix_completion(7, 5, 2, 0.6, False, 3)
    sens = gen_matrix_sensing(5, 5, 2, 12, True, 3)
    rng = np.random.default_rng(3)
    p_mc = FactorPoint.asym(rng.standard_normal((7, 2)), rng.standard_normal((5, 2)))
    p_sens = FactorPoint.sym(rng.standard_normal((5, 2)))
    for inst, point, loss, lp in ((mc, p_mc, "regularized", {"lamda": 100.0}),
                                  (mc, p_mc, "plain", {"lam": 100.0}),
                                  (sens, p_sens, "plain", {"S": np.ones((5, 5))})):
        with pytest.raises(ValueError, match=f"does not read the loss parameter "
                                             f"{next(iter(lp))!r}"):
            loss_and_grad(inst, point, loss=loss, loss_params=lp)
    base = loss_and_grad(mc, p_mc, loss="regularized")[0]
    assert loss_and_grad(mc, p_mc, loss="regularized", loss_params={"lam": 100.0})[0] != base


# ---------------------------------------------------------------------------
# Small-matrix factorization wrapper
# ---------------------------------------------------------------------------

def test_factorization_instance_quarter_frobenius_loss():
    M = np.diag([2.0, 1.0])
    inst = factorization_instance(M, 1)
    np.testing.assert_allclose(inst.truth["X"], [[math.sqrt(2.0)], [0.0]], atol=1e-12)
    x = np.array([[1.5], [0.3]])
    val, g = loss_and_grad(inst, FactorPoint.sym(x))
    E = x @ x.T - M
    assert abs(val - 0.25 * np.sum(E * E)) < 1e-12
    np.testing.assert_allclose(g.parts[0], E @ x, atol=1e-12)


def test_factorization_instance_clamps_negative_spectrum():
    M = np.diag([3.0, -2.0])
    inst = factorization_instance(M, 2)
    np.testing.assert_allclose(inst.truth["sigma"], [3.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Outlier corruption
# ---------------------------------------------------------------------------

def test_corrupt_outliers_contract():
    inst = gen_phase_retrieval(12, 200, seed=31)
    bad = corrupt_outliers(inst, 0.1, seed=7)
    idx = bad.design["outlier_idx"]
    assert idx.shape == (20,)
    clean = np.setdiff1d(np.arange(200), idx)
    assert np.array_equal(bad.y[clean], inst.y[clean])
    assert np.all(bad.y[idx] <= 10.0 * np.max(inst.y))
    # the source instance is untouched
    assert np.array_equal(forward_model(inst), inst.y)
    again = corrupt_outliers(inst, 0.1, seed=7)
    assert np.array_equal(again.y, bad.y)


def test_corrupt_outliers_zero_fraction_is_identity():
    inst = gen_phase_retrieval(5, 40, seed=2)
    out = corrupt_outliers(inst, 0.0, seed=3)
    assert np.array_equal(out.y, inst.y)
    assert out.design["outlier_idx"].size == 0


# ---------------------------------------------------------------------------
# Restricted isometry probes
# ---------------------------------------------------------------------------

def test_rip_identity_design_is_exactly_zero():
    inst = gen_identity_sensing(5, 4, 2, seed=8)
    est = estimate_rip(inst, 2, trials=25, seed=3)
    assert est.delta_hat == 0.0
    assert est.r == 2 and est.trials == 25


def test_rip_estimate_monotone_in_trials():
    inst = gen_matrix_sensing(6, 6, 2, 120, True, seed=5)
    deltas = [estimate_rip(inst, 2, trials=t, seed=11).delta_hat for t in (1, 5, 20, 60)]
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))


def test_rip_gaussian_sample_size_gives_small_constant():
    hits = 0
    for seed in range(100):
        inst = gen_matrix_sensing(8, 8, 1, 640, True, seed=seed)
        if estimate_rip(inst, 1, trials=30, seed=seed).delta_hat < 0.5:
            hits += 1
    assert hits >= 95


def test_rip_rejects_non_sensing_instances():
    inst = gen_phase_retrieval(4, 8, seed=0)
    with pytest.raises(ValueError, match="sensing"):
        estimate_rip(inst, 1, trials=2, seed=0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_json_round_trip_is_bit_exact(make):
    inst = make(57)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert instances_equal(inst, back)
    # serialization itself is deterministic
    assert instance_to_json(back) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(ALL_GENERATORS) - 1), st.integers(0, 2**32 - 1),
       st.floats(allow_nan=False, allow_subnormal=True))
@example(10, 0, -0.0)  # a complex observation with real part -0.0
def test_json_round_trip_is_bit_exact_for_any_seed_and_float(k, seed, value):
    # Every family at any seed, with one observation replaced by any finite
    # or infinite float (-0.0 and subnormals included) where y is not integer.
    inst = ALL_GENERATORS[k](seed)
    if inst.y.dtype.kind in "fc":
        inst.y.flat[0] = value
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert instances_equal(inst, back)
    assert np.array_equal(np.signbit(np.real(back.y)), np.signbit(np.real(inst.y)))
    assert instance_to_json(back) == text


def test_json_round_trip_preserves_dtypes():
    inst = gen_blind_deconv(3, 4, 9, seed=5)
    back = instance_from_json(instance_to_json(inst))
    assert back.design["B"].dtype == np.complex128
    assert back.y.dtype == np.complex128
    mc = gen_matrix_completion(5, 5, 1, 0.5, True, seed=5)
    back = instance_from_json(instance_to_json(mc))
    assert back.design["mask"].dtype == bool
    ja = gen_joint_alignment(3, 2, 0.0, seed=5)
    back = instance_from_json(instance_to_json(ja))
    assert back.truth["x"].dtype == np.int64
    assert json.loads(instance_to_json(ja))["family"] == "JointAlignment"


def test_corrupted_instance_round_trips():
    bad = corrupt_outliers(gen_phase_retrieval(6, 50, seed=3), 0.08, seed=4)
    assert instances_equal(bad, instance_from_json(instance_to_json(bad)))


# ---------------------------------------------------------------------------
# Generator validation
# ---------------------------------------------------------------------------

def test_generator_argument_validation():
    with pytest.raises(ValueError, match="n1 == n2"):
        gen_matrix_sensing(4, 5, 1, 3, True, seed=0)
    with pytest.raises(ValueError, match="spectrum"):
        gen_matrix_sensing(4, 4, 2, 3, True, seed=0, spectrum=[1.0, 2.0])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        gen_matrix_completion(4, 4, 1, 1.5, False, seed=0)
    with pytest.raises(ValueError, match="alphabet"):
        gen_joint_alignment(3, 1, 0.0, seed=0)
    with pytest.raises(ValueError, match="two nodes"):
        gen_joint_alignment(1, 3, 0.0, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        gen_phase_sync(4, -0.1, seed=0)
    with pytest.raises(ValueError, match="phase retrieval"):
        corrupt_outliers(gen_quadratic_sensing(4, 1, 6, 0), 0.1, seed=0)
    # A non-finite spectrum used to plant a non-finite truth and observations.
    for spectrum in ([math.nan, 1.0], [math.inf, 1.0], [2.0, math.nan]):
        for make in (lambda s: gen_matrix_sensing(4, 4, 2, 3, True, 0, spectrum=s),
                     lambda s: gen_matrix_sensing(4, 3, 2, 3, False, 0, spectrum=s),
                     lambda s: gen_identity_sensing(4, 3, 2, 0, spectrum=s),
                     lambda s: gen_quadratic_sensing(4, 2, 6, 0, spectrum=s),
                     lambda s: gen_matrix_completion(5, 5, 2, 0.5, True, 0, spectrum=s),
                     lambda s: gen_matrix_completion(5, 4, 2, 0.5, False, 0, spectrum=s),
                     lambda s: gen_rpca(5, 5, 2, 0.5, 0.1, 1.0, 0, spectrum=s),
                     lambda s: gen_rpca(5, 4, 2, 0.5, 0.1, 1.0, 0, spectrum=s)):
            with pytest.raises(ValueError, match="^spectrum entries must be finite and positive$"):
                make(spectrum)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 300, 70000])
def test_entry_groups_order_is_the_stable_int64_order(n):
    # The keys sort as the narrowest unsigned type holding n - 1 (uint8,
    # uint16, uint32 here); the order must be the int64 stable argsort's,
    # ties included.
    rng = np.random.default_rng(n)
    key = rng.integers(0, n, size=3 * n + 5)
    key[:2] = (0, n - 1)
    vals = rng.standard_normal(key.shape[0])
    groups = problems.EntryGroups.of(key, np.arange(key.shape[0]), vals, n)
    order = np.argsort(key, kind="stable")
    assert np.array_equal(groups.other, order)
    assert np.array_equal(np.repeat(np.arange(n), np.diff(groups.ptr)), key[order])
    assert np.array_equal(groups.vals, vals[order])


def _family_dispatch_sites(package=pathlib.Path(problems.__file__).parent):
    # Comparisons with a family-name literal (or a tuple of them) in the
    # library, except in the test of an ``if`` whose body ends in ``raise``:
    # those are input checks.  Dict and set literals keyed by family names
    # count too (a dict lookup on the family name is the same branch), all
    # but the FAMILIES table itself.
    names = set(problems.FAMILIES)
    sites = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        checks = {id(n) for node in ast.walk(tree)
                  if isinstance(node, ast.If) and isinstance(node.body[-1], ast.Raise)
                  for n in ast.walk(node.test)}
        table = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "FAMILIES" for t in node.targets)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and id(node) not in checks:
                sides = [node.left, *node.comparators]
                consts = [e for s in sides for e in (s.elts if isinstance(s, ast.Tuple) else [s])]
            elif isinstance(node, ast.Dict) and id(node) not in table:
                consts = node.keys
            elif isinstance(node, ast.Set):
                consts = node.elts
            else:
                continue
            if any(isinstance(c, ast.Constant) and c.value in names for c in consts):
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_every_linear_family_loss_is_the_one_linear_risk():
    # A linear family's loss is _loss_linear, whose "regularized" tag adds the
    # record's penalty: the tag is listed exactly when a penalty is declared.
    # A family without a linear operator declares no penalty.
    for name, spec in problems.FAMILIES.items():
        if spec.operator is None:
            assert spec.penalty is None, name
        else:
            assert spec.loss is problems._loss_linear, name
            assert ("regularized" in spec.losses) == (spec.penalty is not None), name


def test_family_dispatch_guard_counts_dict_and_set_literals(tmp_path):
    (tmp_path / "mod.py").write_text(
        'FAMILIES = {"PhaseRetrieval": 1}\n'
        'pick = {"PhaseRetrieval": 1}.get(family)\n'
        'seen = family in {"BlindDeconv"}\n'
        'meta = {"family": "PhaseSync"}\n')
    assert sorted(_family_dispatch_sites(tmp_path)) == ["mod.py:2", "mod.py:3"]


def test_family_names_decide_nothing_outside_input_checks():
    # Per-family decisions live in the FAMILIES records; a family name may
    # still select an input check that raises.
    sites = _family_dispatch_sites()
    assert len(sites) <= 2, sites
