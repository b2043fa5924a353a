"""Observation models for the factorization families: ground-truth synthesis,
measurement designs, losses with exact gradients, and faithful round-tripping
of generated instances.

Each family is declared once, as a ``Family`` record in the ``FAMILIES``
table (observation map y = A(M*), loss, accepted point kinds and loss tags,
per-sample weights, shared design product, linear operator, default step
and step metric, truth gap, the power families' matrix and projection, the
over-parametrized lift, the plain risk's Hessian-vector product, the
regularized loss's penalty); ``forward_model``, ``loss_value``,
``loss_and_grad``, ``gd.default_step_size``, ``gd.trace_row``, ``gd.run_gd``,
``direct.ppm``, ``landscape.overparam_gd_experiment`` and
``landscape.oracle_from_instance`` read it rather than branch on the family
name.

The six matrix generators (Gaussian and identity sensing, quadratic sensing,
completion, robust PCA) plant their low-rank truth, X X^T or L R^T with
balanced factors, through one function, ``_planted``.  The five linear
families (sensing, completion, robust PCA) share one forward model and one
loss, ``_loss_linear``, through their ``linear_operator``: the plain
least-squares risk, to which the "regularized" tag adds the record's
penalty (the balancing term of asymmetric sensing, the incoherence hinges of
completion).  Phase retrieval and quadratic sensing share one forward model
and one risk through their shared product A x or A X; phase synchronization
and joint alignment share the loss -Re x^H L x.

Conventions shared by every family:

  * instances are frozen after generation; solvers never mutate them,
  * generators define ``y = forward_model(...)``, so replaying the forward
    model on a stored instance reproduces the observations bit for bit,
  * losses over sample sums accept per-sample weights, so truncated and
    stochastic variants reuse the exact arithmetic of the full loss,
  * a loss forms its value first and its gradient only on demand
    (loss_value), so a caller that needs the value alone pays no adjoint,
  * data derived from the stored arrays (the observed-entry index, A x*) is
    memoized on the instance outside its fields, never reaching the JSON.

Gradients of the complex-valued families (blind deconvolution, phase
synchronization) are Wirtinger gradients: for a real loss f and reported
direction g, a real perturbation d changes f at rate 2 Re<g, d>.  For blind
deconvolution the customary 1/||x||^2 and 1/||h||^2 scalings are folded into
the reported direction, so a solver can apply a constant step size.
"""

from __future__ import annotations

import json
import math
import operator
import weakref
from dataclasses import dataclass, field

import numpy as np

from .core import (FactorPoint, _bernoulli_mask, bd_incoherence, bd_truth_norms, check_fields,
                   derive_seed, dist_bd, dist_vector, factored_svd, make_rng, max_row_norm,
                   procrustes, setting)

@dataclass
class ProblemInstance:
    """One generated problem: truth, measurement design, and observations.

    ``params`` holds the scalar knobs the generator was called with,
    ``truth`` the planted factors (arrays), ``design`` the data of the
    measurement operator (arrays: the sensing designs with a "kind" tag,
    the boolean mask of the sampled-entry families; linear_operator builds
    the operator of a linear family from them), and ``y`` the
    observations.  All fields are plain data so an instance can round-trip
    through JSON without loss; ``family`` must name a ``FAMILIES`` entry.
    A design array that depends only on the size (blind deconvolution's B)
    may be one read-only array shared by every instance of that size.
    """

    family: str
    seed: int
    params: dict
    truth: dict
    design: dict
    y: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


@dataclass
class RipEstimate:
    """Empirical restricted-isometry probe: worst |  ||A(T)||^2 - 1  | seen."""

    r: int
    delta_hat: float
    trials: int

    def __post_init__(self):
        check_fields(self, delta_hat="bound")


# ---------------------------------------------------------------------------
# Ground truth synthesis
# ---------------------------------------------------------------------------

def _planted(rng, n1, n2, r, symmetric, spectrum):
    """The planted rank-r truth of every matrix generator, drawn from rng.

    Symmetric: the PSD M = X X^T, X = U diag(sqrt(sigma)) with U the left
    singular subspace of a Gaussian n1 x r draw.  Asymmetric: M = L R^T with
    L = U diag(sqrt(sigma)) and R = V diag(sqrt(sigma)) from the singular
    triples of a Gaussian product G = A B^T, which core.factored_svd gives
    without forming G: O((n1 + n2) r^2), not a dense n1 x n2 SVD.  Either
    way the factors are balanced, X^T X (and L^T L = R^T R) = diag(sigma).
    sigma is the draw's own (squared singular values of the symmetric
    draw, singular values of G) unless ``spectrum`` replaces it: r finite,
    positive, non-increasing values, checked before the first draw.
    Returns the truth dict, {"X", "M", "sigma"} or {"L", "R", "M", "sigma"}.
    """
    if spectrum is not None:
        spectrum = np.asarray(spectrum, dtype=float)
        if spectrum.shape != (r,):
            raise ValueError(f"spectrum must have length {r}")
        if not np.all(np.isfinite(spectrum) & (spectrum > 0)):
            raise ValueError("spectrum entries must be finite and positive")
        if np.any(np.diff(spectrum) > 0):
            raise ValueError("spectrum must be non-increasing")
    if symmetric:
        U, s, _ = np.linalg.svd(rng.standard_normal((n1, r)), full_matrices=False)
        sigma = s**2 if spectrum is None else spectrum
        X = U * np.sqrt(sigma)
        return {"X": X, "M": X @ X.T, "sigma": np.asarray(sigma, dtype=float)}
    QA, U, s, V, QB = factored_svd(rng.standard_normal((n1, r)), rng.standard_normal((n2, r)))
    sigma = s if spectrum is None else spectrum
    L, R = (QA @ U) * np.sqrt(sigma), (QB @ V) * np.sqrt(sigma)
    return {"L": L, "R": R, "M": L @ R.T, "sigma": np.asarray(sigma, dtype=float)}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _shape(r, **sides):
    # The sides and rank of a planted factor, each checked by core.setting,
    # with r at most the smallest side.
    checked = [setting(name, v, "positive count") for name, v in sides.items()]
    r = setting("r", r, "positive count")
    if r > min(checked):
        top = ", ".join(sides)
        raise ValueError(f"need 1 <= r <= {top if len(sides) == 1 else f'min({top})'}")
    return (*checked, r)


def _fraction(name, value, closed=False):
    # A probability or fraction: core.setting's bound, at most 1, and below 1
    # unless closed.
    value = setting(name, value, "bound")
    if value > 1.0 or (value == 1.0 and not closed):
        raise ValueError(f"{name} must lie in [0, 1{']' if closed else ')'}")
    return value


def _observed(inst):
    # Every generator ends here: y = forward_model(inst), so replaying the
    # forward model on a stored instance reproduces y bit for bit.
    inst.y = forward_model(inst)
    return inst


def gen_matrix_sensing(n1, n2, r, m, symmetric, seed, spectrum=None):
    """Random Gaussian matrix sensing.

    Symmetric instances use symmetrized Gaussian matrices (G + G^T)/2, which
    have unit-variance diagonal and variance-1/2 off-diagonal entries; that
    design is isotropic over symmetric probes.  Asymmetric instances use iid
    standard Gaussian matrices.
    """
    n1, n2, r = _shape(r, n1=n1, n2=n2)
    m = setting("m", m, "positive count")
    if symmetric and n1 != n2:
        raise ValueError("symmetric sensing needs n1 == n2")
    rng = make_rng(derive_seed(seed, "matrix_sensing", int(symmetric)))
    truth = _planted(rng, n1, n2, r, symmetric, spectrum)
    A = rng.standard_normal((m, n1, n2))
    if symmetric:
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    family = "MatrixSensingSym" if symmetric else "MatrixSensingAsym"
    params = {"n1": n1, "n2": n2, "r": r, "m": m, "symmetric": bool(symmetric)}
    design = {"kind": "gaussian", "A": A}
    return _observed(ProblemInstance(family, seed, params, truth, design, None))


def gen_identity_sensing(n1, n2, r, seed, spectrum=None):
    """Sensing whose operator is an exact isometry: A_i = sqrt(n1 n2) E_i.

    One measurement per entry, so A(T) is vec(T) after the 1/sqrt(m)
    normalization.  The design is stored symbolically, as {"kind":
    "identity"}, and sensing_operator serves it without ever forming the
    m x n1 x n2 basis tensor.  Empirical RIP probes of this instance report
    exactly 0.
    """
    n1, n2, r = _shape(r, n1=n1, n2=n2)
    truth = _planted(make_rng(derive_seed(seed, "identity_sensing")), n1, n2, r, False, spectrum)
    params = {"n1": n1, "n2": n2, "r": r, "m": n1 * n2, "symmetric": False}
    return _observed(ProblemInstance(
        "MatrixSensingAsym", seed, params, truth, {"kind": "identity"}, None))


def gen_phase_retrieval(n, m, seed, norm=1.0):
    """Real Gaussian phase retrieval: y_i = (a_i^T x)^2, a_i ~ N(0, I_n)."""
    n, m = setting("n", n, "positive count"), setting("m", m, "positive count")
    norm = setting("norm", norm, "finite positive bound")
    rng = make_rng(derive_seed(seed, "phase_retrieval"))
    x = rng.standard_normal(n)
    x *= norm / np.linalg.norm(x)
    A = rng.standard_normal((m, n))
    params = {"n": n, "m": m, "norm": float(norm)}
    return _observed(ProblemInstance("PhaseRetrieval", seed, params, {"x": x}, {"A": A}, None))


def gen_quadratic_sensing(n, r, m, seed, spectrum=None):
    """Quadratic sensing: y_i = ||a_i^T X||^2.  Rank one recovers the phase
    retrieval observation model."""
    n, r = _shape(r, n=n)
    m = setting("m", m, "positive count")
    rng = make_rng(derive_seed(seed, "quadratic_sensing"))
    truth = _planted(rng, n, n, r, True, spectrum)
    A = rng.standard_normal((m, n))
    params = {"n": n, "r": r, "m": m}
    return _observed(ProblemInstance("QuadraticSensing", seed, params, truth, {"A": A}, None))


def gen_matrix_completion(n1, n2, r, p, symmetric, seed, spectrum=None):
    """Bernoulli-sampled matrix completion.

    Each entry lands in the observed set independently with probability p:
    the mask is drawn in row-major blocks from the same stream as one
    n1 x n2 uniform draw (core._bernoulli_mask), bit for bit.  Philox is
    counter-based, so the whole blocks of that stream are split into one
    contiguous range per thread, one thread per CPU this process may run
    on with at least 2**20 entries each; a smaller mask is drawn on the
    calling thread.  The instance depends on the seed alone, not on the
    thread count.  The boolean mask is the stored form of the design (and
    of its JSON); every computation reads the sampling operator P_Omega
    that linear_operator builds on the observed-entry index derived from
    it, and y = P_Omega(M) lists M on that index in row-major order.
    p = 0 is legal and produces an empty observation set.
    """
    n1, n2, r = _shape(r, n1=n1, n2=n2)
    p = _fraction("p", p, closed=True)
    if symmetric and n1 != n2:
        raise ValueError("symmetric completion needs n1 == n2")
    rng = make_rng(derive_seed(seed, "matrix_completion", int(symmetric)))
    truth = _planted(rng, n1, n2, r, symmetric, spectrum)
    family = "MatrixCompletionSym" if symmetric else "MatrixCompletionAsym"
    mask = _bernoulli_mask(rng, n1, n2, p)
    params = {"n1": n1, "n2": n2, "r": r, "p": float(p), "symmetric": bool(symmetric)}
    return _observed(ProblemInstance(family, seed, params, truth, {"mask": mask}, None))


_DFT = weakref.WeakValueDictionary()  # (m, K) -> B, while an instance holds it


def _dft_columns(m, K):
    # The first K columns of the unitary m-point DFT, built directly so that a
    # large m never materializes the full m x m transform.  Read-only and
    # shared while any instance of the size is alive; dropped with the last.
    B = _DFT.get((m, K))
    if B is None:
        jk = np.arange(m)[:, None] * np.arange(K)[None, :]
        B = np.exp((-2j * np.pi / m) * jk) / np.sqrt(m)
        B.flags.writeable = False
        _DFT[m, K] = B
    return B


def gen_blind_deconv(K, N, m, seed, norm=1.0):
    """Blind deconvolution in the lifted bilinear form y_j = b_j^H h (x^H a_j).

    B holds the first K columns of the unitary m-point DFT, so B^H B = I_K;
    the a_j are iid CN(0, I_N).  Truth vectors are drawn complex Gaussian and
    rescaled to a common norm, removing the scale ambiguity from the planted
    pair itself (solvers still have to resolve it).  B depends only on
    (m, K) and draws nothing: live instances of one size share one read-only
    B (``_dft_columns``), so an in-place write into ``design["B"]`` raises.
    """
    K, N, m = (setting(name, v, "positive count") for name, v in (("K", K), ("N", N), ("m", m)))
    if m < K:
        raise ValueError("need m >= K so the subspace map is injective")
    norm = setting("norm", norm, "finite positive bound")
    rng = make_rng(derive_seed(seed, "blind_deconv"))
    B = _dft_columns(m, K)
    A = (rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))) / np.sqrt(2.0)
    h = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    h *= norm / np.linalg.norm(h)
    x *= norm / np.linalg.norm(x)
    params = {"K": K, "N": N, "m": m, "norm": float(norm)}
    return _observed(ProblemInstance(
        "BlindDeconv", seed, params, {"h": h, "x": x}, {"B": B, "A": A}, None,
    ))


def _sparse_support(rng, n1, n2, count, row_cap, col_cap):
    """A random support of ``count`` cells, at most row_cap of them in a row
    and col_cap in a column, as a list of (row, column) pairs.

    Scans a random permutation of all cells and rejects any cell whose row or
    column budget is exhausted.  Tight budgets can stall the scan (count =
    n1 row_cap needs every row full); it then leaves no free cell whose row
    and column both have room, and each missing cell comes from a swap that
    keeps it so.  For a row i and a column j with room, the col_cap cells of
    a column j2 free in row i cannot all lie in the fewer rows picked in
    column j, so some picked (i2, j2) has (i2, j) free; trading it for
    (i, j2) and (i2, j) adds one.  Only a count above min(n1 row_cap,
    n2 col_cap) is out of reach, and raises.
    """
    row_cap, col_cap = min(row_cap, n2), min(col_cap, n1)
    if count > min(n1 * row_cap, n2 * col_cap):
        raise RuntimeError("could not place the outlier support under the row/column caps")
    rows = np.zeros(n1, dtype=int)
    cols = np.zeros(n2, dtype=int)
    picked = []
    for flat in rng.permutation(n1 * n2):
        if len(picked) == count:
            break
        i, j = divmod(int(flat), n2)
        if rows[i] < row_cap and cols[j] < col_cap:
            rows[i] += 1
            cols[j] += 1
            picked.append((i, j))
    if len(picked) == count:
        return picked
    S = np.zeros((n1, n2), dtype=bool)
    S[tuple(np.array(picked, dtype=int).reshape(-1, 2).T)] = True
    for _ in range(count - len(picked)):
        i, j = np.argmax(S.sum(axis=1) < row_cap), np.argmax(S.sum(axis=0) < col_cap)
        i2, j2 = np.argwhere(S & ~S[:, [j]] & ~S[i])[0]
        S[i2, j2], S[i, j2], S[i2, j] = False, True, True
    return list(zip(*np.nonzero(S)))


def gen_rpca(n1, n2, r, p, alpha_out, magnitude, seed, spectrum=None):
    """Robust PCA: observe a Bernoulli(p) subset of M + S.

    S has round(alpha_out * n1 * n2) entries of size +-magnitude, placed so
    that no row holds more than ceil(alpha_out * n2) outliers and no column
    more than ceil(alpha_out * n1).  Square instances plant a PSD truth.  As
    in gen_matrix_completion, the mask is drawn in row-major blocks from the
    same stream as one n1 x n2 uniform draw; the boolean mask is the stored
    form, and y = P_Omega(M + S) is read through the same sampling operator.
    """
    n1, n2, r = _shape(r, n1=n1, n2=n2)
    p, alpha_out = _fraction("p", p, closed=True), _fraction("alpha_out", alpha_out)
    magnitude = setting("magnitude", magnitude, "finite positive bound")
    rng = make_rng(derive_seed(seed, "rpca"))
    truth = _planted(rng, n1, n2, r, n1 == n2, spectrum)
    S = np.zeros((n1, n2))
    count = int(round(alpha_out * n1 * n2))
    if count:
        support = _sparse_support(
            rng, n1, n2, count,
            row_cap=math.ceil(alpha_out * n2), col_cap=math.ceil(alpha_out * n1),
        )
        signs = rng.integers(0, 2, size=count) * 2 - 1
        for (i, j), s in zip(support, signs):
            S[i, j] = s * magnitude
    truth["S"] = S
    mask = _bernoulli_mask(rng, n1, n2, p)
    params = {
        "n1": n1, "n2": n2, "r": r, "p": float(p),
        "alpha_out": float(alpha_out), "magnitude": float(magnitude),
    }
    return _observed(ProblemInstance("RobustPCA", seed, params, truth, {"mask": mask}, None))


def gen_phase_sync(n, sigma, seed):
    """Phase synchronization: L = x x^H + sigma W with unit-modulus truth.

    W is Hermitian with iid standard complex Gaussian entries above the
    diagonal and standard real Gaussian entries on it, so E ||W||_F^2 = n^2.
    The observation is the matrix L itself.
    """
    n, sigma = setting("n", n, "positive count"), setting("sigma", sigma, "finite bound")
    rng = make_rng(derive_seed(seed, "phase_sync"))
    x = np.exp(2j * np.pi * rng.random(n))
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Wu = np.triu(G, 1)
    W = Wu + Wu.conj().T + np.diag(rng.standard_normal(n))
    params = {"n": n, "sigma": float(sigma)}
    return _observed(ProblemInstance("PhaseSync", seed, params, {"x": x}, {"W": W}, None))


def gen_joint_alignment(n, alphabet_m, noise_flip_prob, seed):
    """Joint discrete alignment over Z_m from pairwise offset measurements.

    y_ij = x_i - x_j + z_ij (mod m) for i < j, where z_ij is 0 with
    probability 1 - q and otherwise uniform over the m - 1 wrong offsets;
    y_ji is the mirrored measurement -y_ij.  The labels x are drawn first,
    then one flip and one wrong offset for every pair i < j, row-major.  The
    lifted certificate matrix L holds per-pair log-likelihood blocks,
    floored at 1e-12 before the log so noiseless instances stay finite, with
    zero diagonal blocks.
    """
    n, mm = setting("n", n, "count"), setting("alphabet_m", alphabet_m, "count")
    if n < 2:
        raise ValueError("need at least two nodes")
    if mm < 2:
        raise ValueError("alphabet must have at least two symbols")
    noise_flip_prob = _fraction("noise_flip_prob", noise_flip_prob)
    rng = make_rng(derive_seed(seed, "joint_alignment"))
    x = rng.integers(0, mm, size=n)
    upper = np.triu_indices(n, 1)
    flip = rng.random(upper[0].shape[0]) < noise_flip_prob
    z = np.zeros((n, n), dtype=np.int64)
    z[upper] = np.where(flip, rng.integers(1, mm, size=flip.shape[0]), 0)
    z[upper[::-1]] = (-z[upper]) % mm
    params = {"n": n, "alphabet_m": mm, "noise_flip_prob": float(noise_flip_prob)}
    inst = _observed(ProblemInstance("JointAlignment", seed, params, {"x": x}, {"z": z}, None))
    inst.design["L"] = _alignment_certificate(inst.y, mm, noise_flip_prob)
    return inst


def _alignment_certificate(y, mm, q):
    """Lifted log-likelihood matrix for pairwise offset measurements.

    Block (i, j) scores assignment (a, b) by log P(y_ij | a - b).  Mirrored
    measurements make the matrix exactly symmetric.
    """
    n = y.shape[0]
    log_match = math.log(max(1.0 - q, 1e-12))
    log_miss = math.log(max(q / (mm - 1), 1e-12))
    delta = (np.arange(mm)[:, None] - np.arange(mm)[None, :]) % mm
    blocks = np.where(delta == y[:, :, None, None], log_match, log_miss)
    blocks[np.arange(n), np.arange(n)] = 0.0
    return blocks.transpose(0, 2, 1, 3).reshape(n * mm, n * mm)


def lift_assignment(assignment, alphabet_m):
    """One-hot lifting of a discrete assignment into the certificate's space."""
    assignment = np.asarray(assignment, dtype=int)
    n = assignment.shape[0]
    v = np.zeros(n * alphabet_m)
    v[np.arange(n) * alphabet_m + assignment % alphabet_m] = 1.0
    return v


def _check_symmetric(M):
    # The one symmetry rule of every explicit matrix: square, with a skew of
    # at most 1e-12 (1 + max|M|), symmetrized so downstream algebra is exact.
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be a square matrix")
    scale = float(np.max(np.abs(M), initial=0.0))
    if float(np.max(np.abs(M - M.T), initial=0.0)) > 1e-12 * (1.0 + scale):
        raise ValueError("M must be symmetric")
    return 0.5 * (M + M.T)


def factorization_instance(M, r):
    """Wrap an explicit symmetric matrix as a fully observed completion problem.

    The plain loss is then (1/4) ||X X^T - M||_F^2 with gradient
    (X X^T - M) X, the small-scale factorization objective used throughout
    the landscape analyses.  Truth factors come from the top-r eigenpairs
    with negative eigenvalues clamped to zero.
    """
    M = _check_symmetric(M)
    n, r = _shape(r, n=M.shape[0])
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    sigma = np.clip(w[:r], 0.0, None)
    X = V[:, :r] * np.sqrt(sigma)
    params = {"n1": n, "n2": n, "r": r, "p": 1.0, "symmetric": True}
    return _observed(ProblemInstance(
        "MatrixCompletionSym", 0, params,
        {"X": X, "M": M, "sigma": sigma},
        {"mask": np.ones((n, n), dtype=bool)}, None,
    ))


def corrupt_outliers(instance, alpha_out, seed):
    """Replace a uniform subset of phase retrieval observations by junk.

    Corrupted values are uniform on [0, 10 * max clean y]; the indices are
    recorded in the returned instance's design.  The input instance is left
    untouched and uncorrupted entries are copied bit for bit.
    """
    if instance.family != "PhaseRetrieval":
        raise ValueError("outlier corruption is defined for phase retrieval instances")
    alpha_out = _fraction("alpha_out", alpha_out)
    m = instance.params["m"]
    k = int(round(alpha_out * m))
    rng = make_rng(derive_seed(seed, "outliers"))
    idx = np.sort(rng.choice(m, size=k, replace=False)) if k else np.zeros(0, dtype=int)
    y = instance.y.copy()
    if k:
        y[idx] = rng.uniform(0.0, 10.0 * float(np.max(instance.y)), size=k)
    params = dict(instance.params)
    params["alpha_out"] = float(alpha_out)
    design = dict(instance.design)
    design["outlier_idx"] = np.asarray(idx, dtype=np.int64)
    return ProblemInstance(
        instance.family, instance.seed, params, dict(instance.truth), design, y,
    )


# ---------------------------------------------------------------------------
# Derived data: A x* and the observed-entry index of the sampled-entry families
# ---------------------------------------------------------------------------

def _memo(instance, name, sources, build):
    # build(), memoized on the instance under name, outside its fields, for
    # as long as each array of sources is the same object: replacing one by
    # assignment invalidates the memo, editing it in place does not.
    memo = instance.__dict__.get("_memo")
    if memo is None:
        memo = instance.__dict__["_memo"] = {}
    hit = memo.get(name)
    if hit is None or not all(map(operator.is_, hit[0], sources)):
        hit = memo[name] = (sources, build())
    return hit[1]


def _observed_index(instance):
    # (rows, cols, indptr) of the mask, built once per mask from its flat
    # row-major indices (the same int64 arrays as a 2-D np.nonzero, faster)
    mask = instance.design["mask"]

    def build():
        rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])
        return rows, cols, _offsets(rows, mask.shape[0])

    return _memo(instance, "observed", (mask,), build)


def observed_entries(instance):
    """(rows, cols) of the observed entries of a completion or robust PCA
    instance, in row-major order, which is the order of ``y``."""
    rows, cols, _ = _observed_index(instance)
    return rows, cols


def _offsets(keys, n):
    # Group offsets of integer keys in [0, n), as the keys sort them
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


def csr(data, indices, indptr, shape):
    """A scipy CSR array from its three arrays, with no sort.

    scipy.sparse is imported here rather than at module level: it more than
    doubles the resident size of a bare NumPy process, a cost that only the
    sampled-entry paths should pay.
    """
    from scipy.sparse import csr_array
    return csr_array((data, indices, indptr), shape=shape)


@dataclass
class EntryGroups:
    """Observed entries grouped by the index of the factor row they solve
    for: group k holds ``other[ptr[k]:ptr[k + 1]]``, the rows of the fixed
    factor it sees (ascending), and the matching ``vals``."""

    other: np.ndarray
    vals: np.ndarray
    ptr: np.ndarray
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, key, other, vals, n):
        """Group the entries (key, other, vals) by key in [0, n), stably.  The
        keys sort as the narrowest unsigned type that holds n - 1, which
        NumPy radix-sorts up to 16 bits (n <= 65536)."""
        order = np.argsort(key.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
        return cls(other[order], vals[order], _offsets(key, n))

    def operators(self, n_other):
        """The len(ptr) - 1 by n_other CSR matrices with ones and with ``vals``
        on the grouped entries, built on the first call for each n_other and
        kept: the arrays must not be replaced after it."""
        ops = self._operators.get(n_other)
        if ops is None:
            shape = (self.ptr.shape[0] - 1, n_other)
            ops = self._operators[n_other] = (
                csr(np.ones(self.other.shape[0]), self.other, self.ptr, shape),
                csr(self.vals, self.other, self.ptr, shape))
        return ops

    def normal_equations(self, basis):
        """Every group's least-squares normal equations at once.

        Group k fits c in min ||B_k c - v_k||, where B_k holds the rows of
        ``basis`` it sees and v_k its ``vals``.  Returns the stacked Grams
        B_k^T B_k, shape (groups, r, r), and right-hand sides B_k^T v_k,
        shape (groups, r): two sparse products over the entries, the Grams'
        from the r(r + 1)/2 column products of the basis rows.  The Grams
        are a view of an (r, r, groups) array, whose rows the certified
        batch solve of the half-steps reads without a copy.
        """
        n_other, r = basis.shape
        ones, vals = self.operators(n_other)
        iu, ju = np.triu_indices(r)
        upper = (ones @ (basis[:, iu] * basis[:, ju])).T
        gram = np.empty((r, r, self.ptr.shape[0] - 1))
        gram[iu, ju] = gram[ju, iu] = upper
        return np.moveaxis(gram, -1, 0), vals @ basis


# ---------------------------------------------------------------------------
# Linear measurement operators and the forward model
# ---------------------------------------------------------------------------

class _GaussianSensing:
    """Stored design matrices A_i, an (m, n1, n2) array."""

    def __init__(self, A):
        self.A = A
        self.shape = A.shape[1:]
        self.m = self.scale = A.shape[0]

    def measure(self, T):
        return np.tensordot(self.A, T, axes=([1, 2], [0, 1]))

    def measure_factors(self, A, B):
        return self.measure(A @ B.T)

    def apply(self, T):
        return self.measure(T) / math.sqrt(self.m)

    def adjoint(self, e):
        return np.tensordot(e, self.A, axes=([0], [0]))

    def rows(self, F, side):
        if side == 1:
            # A batched product on the transposed view: tensordot would copy
            # the whole design into that layout first.
            return np.matmul(self.A.transpose(0, 2, 1), F).reshape(self.m, -1)
        return np.tensordot(self.A, F, axes=([2], [0])).reshape(self.m, -1)


class _IdentitySensing:
    """The symbolic design A_i = sqrt(m) E_i, measurement i reading entry i
    of vec(T) in row-major order; no basis matrix is ever formed."""

    def __init__(self, n1, n2):
        self.shape = (n1, n2)
        self.m = self.scale = n1 * n2
        self.root = math.sqrt(self.m)

    def measure(self, T):
        return self.root * np.ravel(T)

    def measure_factors(self, A, B):
        return self.measure(A @ B.T)

    def apply(self, T):
        # the sqrt(m) scaling cancels the 1/sqrt(m) normalization exactly
        return np.ravel(T)

    def adjoint(self, e):
        return self.root * np.reshape(e, self.shape)

    def rows(self, F, side):
        # sqrt(m) (F kron I), its columns ordered as vec of the free factor.
        # Filled by assignment, so every zero is +0: a signed zero would
        # steer lstsq's Householder signs.
        n = self.shape[2 - side]
        K = np.zeros(self.shape + (n, F.shape[1]))
        d = np.arange(n)
        if side == 1:
            K[:, d, d] = self.root * F[:, None]
        else:
            K[d, :, d] = self.root * F
        return K.reshape(self.m, -1)


class _EntrySampling:
    """P_Omega on the observed-entry index of a completion or robust PCA
    instance, in the order of y; the adjoint is a CSR matrix on the index."""

    def __init__(self, instance):
        rows, cols, self.indptr = _observed_index(instance)
        self.index = (rows, cols)
        self.counts = np.diff(self.indptr)
        self.shape = (instance.params["n1"], instance.params["n2"])
        # Empty masks (p = 0) make the risk vacuous; keep it finite.
        self.scale = max(instance.params["p"], np.finfo(float).tiny)

    def measure(self, T):
        return T[self.index]

    def measure_factors(self, A, B):
        """The entries of A B^T on the index as r-term row dots, never the
        n1 x n2 model.  The index is row-major, so repeating A's columns by
        the row counts gathers the left side, and the (r, |Omega|) operands
        make the einsum r passes along the entries, not one short sum each."""
        return np.einsum("ij,ij->j", np.repeat(A.T, self.counts, axis=1),
                         np.take(B.T, self.index[1], axis=1))

    def adjoint(self, e):
        return csr(e, self.index[1], self.indptr, self.shape)


def sensing_operator(instance):
    """The measurement operator of a sensing instance.

    Besides the members every linear operator has (see linear_operator),
    apply(T) gives the normalized map A(T) = measure(T) / sqrt(m), and
    rows(F, side) the m x (n r) least-squares rows of the factor left free
    when F fills axis side (1 or 2) of T: rows(L, 1) @ vec(R) and
    rows(R, 2) @ vec(L) both equal measure(L R^T), vec in row-major order.
    """
    if instance.family not in ("MatrixSensingSym", "MatrixSensingAsym"):
        raise ValueError("measurement map applies to sensing instances")
    if instance.design["kind"] == "identity":
        return _IdentitySensing(instance.params["n1"], instance.params["n2"])
    return _GaussianSensing(instance.design["A"])


def linear_operator(instance):
    """The measurement operator A of a sensing, completion or robust PCA
    instance, y = A(M*) (robust PCA: A(M* + S)).  measure(T) gives the
    unnormalized <A_i, T> for T of size ``shape``, measure_factors(A, B) the
    same at T = A B^T, adjoint(e) the sum of e_i A_i (a CSR matrix for
    sampled entries), and ``scale`` the risk's normalization s (m for
    sensing, p for sampled entries)."""
    build = FAMILIES[instance.family].operator
    if build is None:
        raise ValueError(f"{instance.family} has no linear measurement operator")
    return build(instance)


def forward_model(instance):
    """Recompute the observation array from the stored truth and design."""
    return FAMILIES[instance.family].observe(instance)


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

def _quartic_hinge(z, alpha):
    # max(z - alpha, 0)^4 and its derivative in z.
    t = np.maximum(z - alpha, 0.0)
    return t**4, 4.0 * t**3


def _square_hinge(z):
    # max(z - 1, 0)^2 and its derivative in z.
    t = np.maximum(z - 1.0, 0.0)
    return t**2, 2.0 * t


def loss_and_grad(instance, point, loss="plain", loss_params=None, weights=None,
                  forward=None):
    """Evaluate a family's loss and its exact gradient at a factor point.

    loss:
      "plain"        the family's empirical risk
      "regularized"  plain plus the family's balancing or incoherence penalty
      "amplitude"    phase retrieval only; the amplitude-based risk

    Returns (value, gradient) with the gradient packaged as a FactorPoint of
    the same kind as ``point``.  ``weights`` applies per-sample factors, one
    per observation, to the families that are sample sums; it must be None
    elsewhere.
    ``forward`` is the product A x (A X) of a phase-retrieval (quadratic
    sensing) point, or B h of a blind-deconvolution pair, when the caller
    already holds it, of shape y.shape + the point's trailing shape; it must
    be None elsewhere.  The family's FAMILIES record decides all of this,
    and a call it does not allow raises a ValueError naming the family; so
    does a ``loss_params`` key that the tag's loss does not read.

    This is loss_value with its gradient formed at once.  A default-step
    descent run values its line-search trials through loss_value and forms
    the gradient len(trace) times, one per row.
    """
    val, finish = loss_value(instance, point, loss, loss_params, weights, forward)
    return val, finish()


def loss_value(instance, point, loss="plain", loss_params=None, weights=None, forward=None):
    """loss_and_grad's value, with its gradient deferred.

    Takes loss_and_grad's arguments, checked the same way, and returns
    (value, finish): value is loss_and_grad's bit for bit, and finish()
    builds its gradient from the intermediates the value left (the residual,
    the shared product), by the same operations in the same order.  A
    caller that needs only the value (a line-search trial, a half-step
    loss) never calls finish and skips the gradient's adjoint products.
    """
    fam = instance.family
    spec = FAMILIES[fam]
    if point.kind not in spec.kinds:
        raise ValueError(f"{fam} expects a {' or '.join(map(repr, spec.kinds))} "
                         f"point, got {point.kind!r}")
    if loss not in spec.losses:
        raise ValueError(f"unknown loss tag {loss!r} for {fam}, which defines "
                         f"{', '.join(spec.losses)}")
    for key in loss_params or ():
        if key not in spec.losses[loss]:
            raise ValueError(f"{fam}'s {loss!r} loss does not read the loss parameter {key!r}")
    if weights is not None:
        if not spec.sample_sum:
            raise ValueError(f"{fam} has no per-sample weights")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != instance.y.shape:
            raise ValueError(f"weights must have shape {instance.y.shape}")
    if spec.shared is None:
        if forward is not None:
            raise ValueError(f"{fam} takes no forward product")
    elif forward is None:
        forward = spec.shared(instance, point)
    elif np.asarray(forward).shape != instance.y.shape + point.parts[0].shape[1:]:
        want = instance.y.shape + point.parts[0].shape[1:]
        raise ValueError(f"{fam} needs a forward product of shape {want}, "
                         f"got {np.shape(forward)}")
    return spec.loss(instance, point, loss, dict(loss_params or {}), weights, forward)


# Each family loss takes (instance, point, loss, lp, weights, c): lp the loss
# parameters and c the family's shared product (None for families without
# one), with the kind, tag and weights already checked against its record;
# weights is None (unit weights, which are skipped) or a float array of shape
# (m,).  It forms the value first and returns (value, finish), finish() the
# gradient from the intermediates the value holds: a derived point, built
# without the constructors' checks.  Forcing finish repeats nothing the
# value did, and forcing it twice gives equal gradients.

def _linear_risk(instance, point, weights=None, offset=None):
    # The plain risk sum_i w_i e_i^2 / 4s of a linear family, e = A(X X^T)
    # (sym) or A(L R^T) (asym), plus offset, minus y, and the callable that
    # forms its gradient parts.  Sensing, completion and robust PCA share
    # it; unit weights are skipped.
    op = linear_operator(instance)
    s = op.scale
    A, B = (point.X, point.X) if point.kind == "sym" else (point.L, point.R)
    model = op.measure_factors(A, B)
    e = (model if offset is None else model + offset) - instance.y
    we = e if weights is None else weights * e

    def parts():
        S = op.adjoint(we)
        if point.kind == "sym":
            return ((S @ A + S.T @ A) / (2.0 * s),)
        return (S @ B / (2.0 * s), S.T @ A / (2.0 * s))

    return float(we @ e) / (4.0 * s), parts


def _loss_linear(instance, point, loss, lp, weights, c):
    # The plain risk, of the model plus the loss parameter "S" if given:
    # robust PCA's sparse part, measured on the index; "regularized" adds
    # the record's penalty.
    S = lp.get("S")
    S = None if S is None else linear_operator(instance).measure(np.asarray(S, dtype=float))
    val, parts = _linear_risk(instance, point, weights, S)
    if loss == "regularized":
        val, parts = FAMILIES[instance.family].penalty(instance, point, lp, val, parts)
    return val, lambda: FactorPoint.derived(point.kind, parts())


# Each penalty takes (instance, point, lp, val, parts), the plain risk's
# value and gradient-parts callable, and returns them with the family's
# regularizer added: its value terms now, its gradient in place on the
# risk's parts when the returned callable runs.

def _balance_penalty(instance, point, lp, val, parts):
    # lam ||L^T L - R^T R||_F^2, lam = 1/32 by default
    L, R = point.L, point.R
    lam = float(lp.get("lam", 1.0 / 32.0))
    D = L.T @ L - R.T @ R

    def penalized():
        gL, gR = parts()
        gL += 4.0 * lam * (L @ D)
        gR -= 4.0 * lam * (R @ D)
        return gL, gR

    return val + lam * float(np.sum(D * D)), penalized


def _row_hinge_penalty(instance, point, lp, val, parts):
    # lam sum_i max(||X_i|| - alpha, 0)^4, discouraging spiky rows; lam and
    # alpha are 1 by default
    X = point.X
    lam, alpha = float(lp.get("lam", 1.0)), float(lp.get("alpha", 1.0))
    rn = np.sqrt(np.sum(X * X, axis=1))
    h, dh = _quartic_hinge(rn, alpha)

    def penalized():
        (g,) = parts()
        active = dh > 0
        if np.any(active):
            g[active] += lam * (dh[active] / rn[active])[:, None] * X[active]
        return (g,)

    return val + lam * float(np.sum(h)), penalized


def _completion_penalty(instance, point, lp, val, parts):
    # lam times the square hinges max(z - 1, 0)^2 of alpha1 ||L||_F^2,
    # alpha2 ||R||_F^2 and, row by row, alpha3 ||L_i||^2 and alpha4 ||R_j||^2.
    # The default alphas make each hinge activate just above the planted
    # truth's Frobenius mass and row norms; explicit ones decouple the
    # penalty from the truth.  lam is 1 by default.
    L, R, t = point.L, point.R, instance.truth
    lam = float(lp.get("lam", 1.0))
    a1 = float(lp.get("alpha1", 1.0 / np.sum(t["L"] ** 2)))
    a2 = float(lp.get("alpha2", 1.0 / np.sum(t["R"] ** 2)))
    a3 = float(lp.get("alpha3", 1.0 / np.max(np.sum(t["L"] ** 2, axis=1))))
    a4 = float(lp.get("alpha4", 1.0 / np.max(np.sum(t["R"] ** 2, axis=1))))
    h1, d1 = _square_hinge(a1 * np.sum(L * L))
    h2, d2 = _square_hinge(a2 * np.sum(R * R))
    val += lam * (float(h1) + float(h2))
    hr, dr = _square_hinge(a3 * np.sum(L * L, axis=1))
    val += lam * float(np.sum(hr))
    hc, dc = _square_hinge(a4 * np.sum(R * R, axis=1))
    val += lam * float(np.sum(hc))

    def penalized():
        gL, gR = parts()
        gL += lam * d1 * a1 * 2.0 * L
        gR += lam * d2 * a2 * 2.0 * R
        gL += lam * (dr * a3 * 2.0)[:, None] * L
        gR += lam * (dc * a4 * 2.0)[:, None] * R
        return gL, gR

    return val, penalized


def _quadratic_forward(inst, point):
    # The shared product A x (phase retrieval) or A X (quadratic sensing)
    return inst.design["A"] @ point.parts[0]


def _loss_quadratic(instance, point, loss, lp, weights, c):
    # The plain risk sum_i w_i e_i^2 / 4m, e_i = ||c_i||^2 - y_i, of phase
    # retrieval (c = A x) and quadratic sensing (c = A X), or phase
    # retrieval's amplitude risk.  Unit weights are skipped; multiplying by
    # them is exact anyway.
    m = instance.params["m"]
    A, y = instance.design["A"], instance.y
    if loss == "plain":
        vec = c.ndim == 1
        e = (c * c if vec else np.sum(c * c, axis=1)) - y
        we = e if weights is None else weights * e
        val = float(we @ e) / (4.0 * m)

        def finish():
            g = A.T @ (we * c if vec else we[:, None] * c) / m
            return FactorPoint.derived(point.kind, (g,))
    else:
        # sign(0) = 0 picks the zero subgradient at kinks.
        root = np.sqrt(y)
        e = np.abs(c) - root
        we = e if weights is None else weights * e
        val = float(np.sum(we * e)) / (2.0 * m)

        def finish():
            r = c - root * np.sign(c)
            g = A.T @ (r if weights is None else weights * r) / m
            return FactorPoint.derived(point.kind, (g,))

    return val, finish


def _loss_blind_deconv(instance, point, loss, lp, weights, u):
    m = instance.params["m"]
    B, A, y = instance.design["B"], instance.design["A"], instance.y
    h, x = point.parts
    c = A @ np.conj(x)
    e = u * c - y
    # Unit weights are skipped; multiplying by them is exact anyway.
    we, e2 = (e, np.abs(e) ** 2) if weights is None else (weights * e, weights * np.abs(e) ** 2)
    val = float(e2.sum())
    if loss == "regularized":
        # Incoherence and norm hinges.
        lam = float(lp.get("lam", 1.0))
        t = instance.truth  # default scales: the planted pair's, formed once
        mu = float(lp["mu"]) if "mu" in lp else _memo(
            instance, "bd_mu", (B, t["h"]), lambda: bd_incoherence(t["h"], B))
        d0 = float(lp["d0"]) if "d0" in lp else _memo(
            instance, "bd_d0", (t["h"], t["x"]),
            lambda: float(np.linalg.norm(t["h"]) * np.linalg.norm(t["x"])))
        row = m * np.abs(u) ** 2 / (8.0 * mu**2 * d0)
        hr, dr = _square_hinge(row)
        val += lam * float(np.sum(hr))
        hn, dn = _square_hinge(np.sum(np.abs(h) ** 2) / (2.0 * d0))
        val += lam * float(hn)
        xn, dxn = _square_hinge(np.sum(np.abs(x) ** 2) / (2.0 * d0))
        val += lam * float(xn)

    def finish():
        coef = we * np.conj(c)  # gh's B^H coefficients
        gx = A.T @ (np.conj(we) * u)
        if loss == "regularized":
            coef += lam * dr * m / (8.0 * mu**2 * d0) * u  # one B^H product for both
            gx += lam * dxn / (2.0 * d0) * x
        gh = np.conj(B.T @ np.conj(coef))  # B^H coef, without copying conj(B)
        if loss == "regularized":
            gh += lam * dn / (2.0 * d0) * h
        # Fold the customary norm scalings into the reported direction.  A
        # zero factor leaves its partner's part exactly zero (x = 0 gives c = 0,
        # h = 0 gives u = 0), which stays 0 rather than 0/0; a nonzero part
        # over a zero norm (the penalty terms) is still infinite.
        nx, nh = float((np.abs(x) ** 2).sum()), float((np.abs(h) ** 2).sum())
        if nx or gh.any():
            gh /= nx
        if nh or gx.any():
            gx /= nh
        return FactorPoint.derived("pair", (gh, gx))

    return val, finish


def _loss_power(instance, point, loss, lp, weights, c):
    # -Re x^H L x on the power family's matrix L, with the Wirtinger gradient
    # -L x of a complex L (phase synchronization) or the real -2 L x
    L = FAMILIES[instance.family].matrix(instance)
    Lx = L @ point.x
    val = -float(np.real(np.conj(point.x) @ Lx))
    return val, lambda: FactorPoint.derived(
        "vector", (-(Lx if np.iscomplexobj(L) else 2.0 * Lx),))


def _phase_project(v):
    # Entrywise onto unit modulus, zeros to 1.  Real and imaginary parts are
    # divided by the modulus separately: complex division by a subnormal
    # modulus overflows its reciprocal (5e-324j would map to nan+infj).  A
    # subnormal modulus has also lost most of its digits, so those entries
    # are first divided by their larger part; others by 1.
    re, im = np.real(v), np.imag(v)
    mag = np.abs(v)
    sub = (mag > 0.0) & (mag < np.finfo(float).tiny)
    scale = np.where(sub, np.maximum(np.abs(re), np.abs(im)), 1.0)
    re, im = re / scale, im / scale
    mag = np.where(sub, np.hypot(re, im), mag)
    safe = np.where(mag > 0.0, mag, 1.0)
    unit = re / safe + 1j * (im / safe)
    return np.where(mag > 0.0, unit, 1.0 + 0.0j).astype(complex)


def _vertex_project(inst, v):
    # Each length-m block onto its nearest one-hot vertex, ties to the lowest symbol
    m = inst.params["alphabet_m"]
    return np.eye(m)[np.argmax(np.real(v).reshape(inst.params["n"], m), axis=1)].ravel()


# ---------------------------------------------------------------------------
# Hessian-vector products of the plain risk
# ---------------------------------------------------------------------------

# Each hvp takes (instance, point, direction), direction a parts tuple
# shaped like the point's, and returns the plain risk's Hessian applied to
# it as a parts tuple: the derivative of loss_and_grad's gradient along it.

def _hvp_quadratic(instance, point, direction):
    # (1/m) A^T (e o D + 2 rowsum(C o D) o C) with C = A X, D = A Z and
    # e = rowsum(C o C) - y; phase retrieval's x and z enter as one column,
    # where this is (1/m) A^T ((3 c^2 - y) o d).
    A, (X,), (Z,) = instance.design["A"], point.parts, direction
    C, D = A @ X.reshape(X.shape[0], -1), A @ Z.reshape(X.shape[0], -1)
    e = np.sum(C * C, axis=1) - instance.y
    H = A.T @ (e[:, None] * D + 2.0 * np.sum(C * D, axis=1)[:, None] * C)
    return ((H / instance.params["m"]).reshape(Z.shape),)


def _hvp_linear(instance, point, direction):
    # ((S + S^T) Z + (T + T^T) X) / 2s with S = A*(A(X X^T) - y) and
    # T = A*(A(X Z^T + Z X^T)), on a symmetric linear family's operator
    op = linear_operator(instance)
    (X,), (Z,) = point.parts, direction
    S = op.adjoint(op.measure_factors(X, X) - instance.y)
    T = op.adjoint(op.measure(X @ Z.T + Z @ X.T))
    return ((S @ Z + S.T @ Z + T @ X + T.T @ X) / (2.0 * op.scale),)


# ---------------------------------------------------------------------------
# Truth gaps: the distance to the truth modulo each family's ambiguity
# ---------------------------------------------------------------------------

# Each gap takes (instance, point, c), c the family's shared product at the
# point if the caller holds it, and returns ({"dist", "incoh"[, "rc_d2"]}, d):
# d is the aligned difference x - s x* of a phase-retrieval point, else None.
# A point that equals the truth bitwise reads a dist of exactly 0.

def _balanced(L, R):
    """The balanced factors (Q1 U S^1/2, Q2 V S^1/2) of L R^T, from its
    factored_svd.  Non-finite factors are returned as they are."""
    if not (np.isfinite(L).all() and np.isfinite(R).all()):
        return L, R
    Q1, U, s, V, Q2 = factored_svd(L, R)
    root = np.sqrt(s)
    return Q1 @ (U * root), Q2 @ (V * root)


def _gap_procrustes(instance, point, c):
    # Procrustes on X (sym) or on the stacked [L; R] (asym) of the balanced
    # factors of L R^T, which undo the mix (L G, R G^-T) no rotation can;
    # incoh is the 2,inf norm of the aligned factor error.
    t = instance.truth
    F, Fs = (point.X, t["X"]) if point.kind == "sym" else (
        np.vstack(point.parts), np.vstack((t["L"], t["R"])))
    exact = np.array_equal(F, Fs)
    if point.kind == "asym" and not exact:
        F = np.vstack(_balanced(*point.parts))
    D = F @ procrustes(F, Fs) - Fs
    dist = 0.0 if exact else float(np.linalg.norm(D))
    return {"dist": dist, "incoh": max_row_norm(D)}, None


def _gap_sign(instance, point, c):
    # The global sign of phase retrieval: d = x - s x* and incoh =
    # max|A x - s A x*|, A x* formed once per instance.
    (x,), xs, A = point.parts, instance.truth["x"], instance.design["A"]
    c = A @ x if c is None else c
    truth = _memo(instance, "truth_forward", (A, xs), lambda: A @ xs)
    if float(x @ xs) < 0.0:
        d, e = x + xs, c + truth
    else:
        d, e = x - xs, c - truth
    d2 = float(d @ d)
    return {"dist": math.sqrt(d2), "incoh": float(np.abs(e).max()), "rc_d2": d2}, d


def _gap_pair(instance, point, u):
    # dist_bd over the complex scaling (h / conj(a), a x), with the truth
    # norms taken once per instance; incoh is bd_incoherence of h, from the
    # shared u = B h if held.
    (h, x), (hs, xs) = point.parts, (instance.truth["h"], instance.truth["x"])
    # A collapsed pair makes the scaling ambiguity vacuous.  An exact test:
    # the norm of a tiny nonzero factor underflows to 0.
    live = h.any()
    if not (live and x.any()):
        dist = float(np.hypot(np.linalg.norm(hs), np.linalg.norm(xs)))
    elif h[0] == hs[0] and np.array_equal(h, hs) and np.array_equal(x, xs):
        dist = 0.0  # dist_bd leaves round-off here; h[0] is the cheap reject
    else:
        dist = dist_bd(h, x, hs, xs, truth_norms=_memo(
            instance, "truth_norms", (hs, xs), lambda: bd_truth_norms(hs, xs)))
    incoh = bd_incoherence(h, instance.design["B"], u) if live else 0.0
    return {"dist": dist, "incoh": incoh}, None


def _gap_phase(instance, point, c):
    # The global phase of phase synchronization
    x, xs = point.x, instance.truth["x"]
    return {"dist": 0.0 if np.array_equal(x, xs) else dist_vector(x, xs), "incoh": 0.0}, None


def _gap_alignment(instance, point, c):
    # The global label shift of joint alignment
    dist = alignment_mismatch(point.x, instance.truth["x"], instance.params["alphabet_m"])
    return {"dist": dist, "incoh": 0.0}, None


def alignment_mismatch(x, labels, alphabet_m):
    """Fraction of nodes whose decoded label misses the truth, minimized over
    the global shift that pairwise offset measurements cannot determine.
    Decoding is per-block argmax with ties to the lowest symbol."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    blocks = np.real(np.asarray(x)).reshape(n, alphabet_m)
    decoded = np.argmax(blocks, axis=1)
    offsets = (decoded - labels) % alphabet_m
    agree = np.bincount(offsets, minlength=alphabet_m).max()
    return 1.0 - float(agree) / n


# ---------------------------------------------------------------------------
# Step metrics: the inner product <a, b>_M of two steps (parts tuples) from
# a point, so ||delta||_M^2 = metric(point, delta, delta)
# ---------------------------------------------------------------------------

def _euclidean_metric(point, a, b):
    return sum([float(np.vdot(u, v).real) for u, v in zip(a, b)])


def _pair_metric(point, a, b):
    # Re<a_h, b_h> ||x||^2 + Re<a_x, b_x> ||h||^2 at the point (h, x).  Blind
    # deconvolution reports the Wirtinger gradients divided by ||x||^2 and
    # ||h||^2, so in this metric a step -eta g is predicted to lower the loss
    # by 2 eta ||g||_M^2 at every scale of the pair.
    (h, x), (ah, ax), (bh, bx) = point.parts, a, b
    return float(np.vdot(ah, bh).real * np.vdot(x, x).real
                 + np.vdot(ax, bx).real * np.vdot(h, h).real)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One family's contract: observe(instance) forms y = A(M*), as
    forward_model replays it; loss takes points of ``kinds``, the tags of
    ``losses`` (each mapped to the loss_params keys its loss reads), and
    per-sample weights if ``sample_sum``; shared(instance, point) is the
    design product the loss and a solver's row share;
    operator(instance) builds a linear family's linear_operator;
    step(instance, init) is the step gd.default_step_size gives,
    scale-normalized by the init (None: the family has none): where gd's
    backtracking line search starts (see gd._descend), and the constant
    step of a mini-batch run; metric(point, a, b) is <a, b>_M, the real
    inner product of two steps a and b (parts tuples) from point, in the
    metric at point that the family's reported gradient is scaled for
    (Euclidean unless the record names another), which that line search
    reads as ||delta||_M^2 = metric(point, delta, delta) in its decrease
    test and as <s, y>_M / <y, y>_M in its two-point first trial (Barzilai
    and Borwein 1988, falling back to the last accepted step); and
    gap(instance, point, c) is the distance to the truth modulo the
    family's ambiguity, with its incoherence proxy, that gd.trace_row
    records (unless the record names another, a rotation of X or of the
    balanced factors of L R^T).
    A power family declares matrix(instance), the L of its loss
    -Re x^H L x, and project(instance, v), the projection onto its
    constraint set, which direct.ppm iterates as x <- project(L x).
    lift(instance) is the instance whose loss at a square n x n factor X is
    the family's over-parametrized lift, which
    landscape.overparam_gd_experiment descends (None: the family has
    none).  hvp(instance, point, direction) is the plain risk's
    Hessian-vector product, a parts tuple, from which
    landscape.oracle_from_instance assembles its dense Hessians (None: the
    family has no landscape oracle).  A linear family's loss is
    _loss_linear, and penalty(instance, point, lp, val, parts) is what its
    "regularized" tag adds to that plain risk: given the risk's value and
    the callable forming its gradient parts, it returns both with the
    regularizer added (None: the family has no regularized tag, or, as
    blind deconvolution, keeps its regularizer inside its own loss)."""

    observe: object
    loss: object
    kinds: tuple
    losses: dict = field(default_factory=lambda: {"plain": ()})
    sample_sum: bool = False
    shared: object = None
    operator: object = None
    step: object = None
    metric: object = _euclidean_metric
    gap: object = _gap_procrustes
    matrix: object = None
    project: object = None
    lift: object = None
    hvp: object = None
    penalty: object = None


def _observe_linear(inst):
    # A(M*), plus A(S) for the sparse part S of robust PCA
    op = linear_operator(inst)
    y = op.measure(inst.truth["M"])
    return y + op.measure(inst.truth["S"]) if "S" in inst.truth else y


def _observe_quadratic(inst):
    # y_i = ||C_i||^2 for C = A x* (phase retrieval) or A X* (quadratic sensing)
    C = inst.design["A"] @ inst.truth["x" if "x" in inst.truth else "X"]
    return C * C if C.ndim == 1 else np.sum(C * C, axis=1)


def _quadratic_lift(inst):
    # Phase retrieval measures x x^T through the rank-1 sensors a_i a_i^T, so
    # its lift is quadratic sensing at rank n on the same (A, y)
    n, x = inst.params["n"], inst.truth["x"]
    return ProblemInstance("QuadraticSensing", inst.seed, {"n": n, "r": n, "m": inst.params["m"]},
                           {"M": np.outer(x, x)}, inst.design, inst.y)


# The default steps, where gd's line search starts.  Truth scales are never
# consulted: the init's norms stand in for them, which is what a spectral
# initialization estimates anyway.  Rank-1 factorization and rank-1 sensing use the sharper
# constants their local convergence rates allow; the remaining factor
# families use conservative fractions of 1/sigma_1.
def _factor_step(inst, init, const=0.25, sharp=None):
    # const / sigma_1, sigma_1 read as ||X||_2^2 or ||L||_2 ||R||_2, or
    # 1 / (sharp sigma_1) for a rank-1 init when sharp is given
    if init.kind == "sym":
        top = float(np.linalg.norm(init.X, 2)) ** 2
    elif init.kind == "asym":
        top = float(np.linalg.norm(init.L, 2)) * float(np.linalg.norm(init.R, 2))
    else:
        raise ValueError(f"unexpected point kind {init.kind!r} for {inst.family}")
    top = max(top, _TINY)
    return 1.0 / (sharp * top) if sharp is not None and init.X.shape[1] == 1 else const / top


def _quadratic_sensing_step(inst, init):
    lam = np.linalg.svd(init.X, compute_uv=False) ** 2
    kappa = lam[0] / max(lam[-1], _TINY)
    return 1.0 / max((init.X.shape[1] * kappa + math.log(inst.params["n"])) ** 2 * lam[0],
                     _TINY)


_TINY = np.finfo(float).tiny

FAMILIES = {
    "MatrixSensingSym": Family(_observe_linear, _loss_linear, ("sym",),
                               sample_sum=True, operator=sensing_operator,
                               step=lambda inst, init: _factor_step(inst, init, 0.4, 3.0),
                               lift=lambda inst: inst, hvp=_hvp_linear),
    "MatrixSensingAsym": Family(_observe_linear, _loss_linear, ("asym",),
                                {"plain": (), "regularized": ("lam",)},
                                sample_sum=True, operator=sensing_operator,
                                step=lambda inst, init: _factor_step(inst, init, 0.4),
                                penalty=_balance_penalty),
    "PhaseRetrieval": Family(
        _observe_quadratic, _loss_quadratic, ("vector",), {"plain": (), "amplitude": ()},
        sample_sum=True, shared=_quadratic_forward,
        step=lambda inst, init: 0.1 / max(float(np.sum(np.abs(init.x) ** 2)), _TINY),
        gap=_gap_sign, lift=_quadratic_lift, hvp=_hvp_quadratic),
    "QuadraticSensing": Family(_observe_quadratic, _loss_quadratic, ("sym",),
                               sample_sum=True, shared=_quadratic_forward,
                               step=_quadratic_sensing_step, hvp=_hvp_quadratic),
    "MatrixCompletionSym": Family(
        _observe_linear, _loss_linear, ("sym",),
        {"plain": (), "regularized": ("lam", "alpha")}, operator=_EntrySampling,
        step=lambda inst, init: _factor_step(
            inst, init, sharp=4.5 if inst.params["p"] == 1.0 else None),
        hvp=_hvp_linear, penalty=_row_hinge_penalty),
    "MatrixCompletionAsym": Family(
        _observe_linear, _loss_linear, ("asym",),
        {"plain": (), "regularized": ("lam", "alpha1", "alpha2", "alpha3", "alpha4")},
        operator=_EntrySampling, step=_factor_step, penalty=_completion_penalty),
    "BlindDeconv": Family(
        lambda inst: (inst.design["B"] @ inst.truth["h"])
        * (inst.design["A"] @ np.conj(inst.truth["x"])),
        _loss_blind_deconv, ("pair",), {"plain": (), "regularized": ("lam", "mu", "d0")},
        sample_sum=True, shared=lambda inst, point: inst.design["B"] @ point.h,
        step=lambda inst, init: 0.1, metric=_pair_metric, gap=_gap_pair),
    "RobustPCA": Family(_observe_linear, _loss_linear, ("sym", "asym"),
                        {"plain": ("S",)}, operator=_EntrySampling, step=_factor_step),
    "PhaseSync": Family(
        lambda inst: np.outer(inst.truth["x"], np.conj(inst.truth["x"]))
        + inst.params["sigma"] * inst.design["W"],
        _loss_power, ("vector",), gap=_gap_phase,
        matrix=lambda inst: inst.y, project=lambda inst, v: _phase_project(v)),
    "JointAlignment": Family(
        lambda inst: (inst.truth["x"][:, None] - inst.truth["x"][None, :]
                      + inst.design["z"]) % inst.params["alphabet_m"],
        _loss_power, ("vector",), gap=_gap_alignment,
        matrix=lambda inst: inst.design["L"], project=_vertex_project),
}


# ---------------------------------------------------------------------------
# Restricted isometry probing
# ---------------------------------------------------------------------------

def estimate_rip(instance, r, trials, seed):
    """Empirical lower bound on the rank-r restricted isometry constant.

    Samples random unit-Frobenius rank-<= r probes (symmetric ones for the
    symmetric design, which annihilates antisymmetric directions) and records
    the worst deviation of ||A(T)||^2 from 1.  Probe t depends only on
    (seed, t), so the estimate is monotone in the trial count.
    """
    op, p = sensing_operator(instance), instance.params
    n1, n2, r = _shape(r, n1=p["n1"], n2=p["n2"])
    trials = setting("trials", trials, "positive count")
    worst = 0.0
    for t in range(trials):
        rng = make_rng(derive_seed(seed, "rip_probe", t))
        if p["symmetric"]:
            G = rng.standard_normal((n1, r))
            signs = rng.integers(0, 2, size=r) * 2 - 1
            T = (G * signs) @ G.T
        else:
            T = rng.standard_normal((n1, r)) @ rng.standard_normal((n2, r)).T
        flat = np.ravel(T)
        z = op.apply(T)
        val = float(np.dot(z, z)) / float(np.dot(flat, flat))
        worst = max(worst, abs(val - 1.0))
    return RipEstimate(r=r, delta_hat=worst, trials=trials)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _encode_value(v):
    if isinstance(v, np.ndarray):
        if np.iscomplexobj(v):
            data = np.stack([v.real, v.imag], axis=-1).reshape(-1).tolist()
        elif v.dtype == bool:
            data = v.reshape(-1).astype(int).tolist()
        else:
            data = v.reshape(-1).tolist()
        return {"__array__": str(v.dtype), "shape": list(v.shape), "data": data}
    if isinstance(v, (np.integer, np.floating, np.bool_)):
        return v.item()
    return v


def _decode_value(v):
    if isinstance(v, dict) and "__array__" in v:
        dtype = np.dtype(v["__array__"])
        shape = tuple(v["shape"])
        if dtype.kind == "c":
            # a view, since x + 1j y turns a real part of -0.0 into 0.0
            arr = np.asarray(v["data"], dtype=float).view(complex).astype(dtype)
        elif dtype.kind == "b":
            arr = np.asarray(v["data"], dtype=int).astype(bool)
        else:
            arr = np.asarray(v["data"], dtype=dtype)
        return arr.reshape(shape)
    return v


def instance_to_json(instance):
    """Serialize an instance so that every float and complex entry survives
    a round trip bit for bit (shortest-roundtrip decimal floats)."""
    payload = {
        "family": instance.family,
        "seed": int(instance.seed),
        "params": {k: _encode_value(v) for k, v in instance.params.items()},
        "truth": {k: _encode_value(v) for k, v in instance.truth.items()},
        "design": {k: _encode_value(v) for k, v in instance.design.items()},
        "y": _encode_value(instance.y),
    }
    return json.dumps(payload, sort_keys=True)


def instance_from_json(text):
    payload = json.loads(text)
    return ProblemInstance(
        family=payload["family"],
        seed=payload["seed"],
        params={k: _decode_value(v) for k, v in payload["params"].items()},
        truth={k: _decode_value(v) for k, v in payload["truth"].items()},
        design={k: _decode_value(v) for k, v in payload["design"].items()},
        y=_decode_value(payload["y"]),
    )


def instances_equal(a, b):
    """Field-by-field equality with bitwise array comparison."""
    if a.family != b.family or a.seed != b.seed:
        return False

    def same(u, v):
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            u, v = np.asarray(u), np.asarray(v)
            return u.dtype == v.dtype and u.shape == v.shape and bool(np.all(u == v))
        return u == v

    for da, db in ((a.params, b.params), (a.truth, b.truth), (a.design, b.design)):
        if set(da) != set(db) or not all(same(da[k], db[k]) for k in da):
            return False
    return same(a.y, b.y)
