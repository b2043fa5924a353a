"""Observation models for the factorization families: ground-truth synthesis,
measurement designs, losses with exact gradients, and faithful round-tripping
of generated instances.

Conventions shared by every family:

  * instances are frozen after generation; solvers never mutate them,
  * generators define ``y = forward_model(...)``, so replaying the forward
    model on a stored instance reproduces the observations bit for bit,
  * losses over sample sums accept per-sample weights, so truncated and
    stochastic variants reuse the exact arithmetic of the full loss.

Gradients of the complex-valued families (blind deconvolution, phase
synchronization) are Wirtinger gradients: for a real loss f and reported
direction g, a real perturbation d changes f at rate 2 Re<g, d>.  For blind
deconvolution the customary 1/||x||^2 and 1/||h||^2 scalings are folded into
the reported direction, so a solver can apply a constant step size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import bd_incoherence, derive_seed, make_rng, FactorPoint

FAMILIES = (
    "MatrixSensingSym",
    "MatrixSensingAsym",
    "PhaseRetrieval",
    "QuadraticSensing",
    "MatrixCompletionSym",
    "MatrixCompletionAsym",
    "BlindDeconv",
    "RobustPCA",
    "PhaseSync",
    "JointAlignment",
)

_SAMPLE_SUM_FAMILIES = (
    "MatrixSensingSym",
    "MatrixSensingAsym",
    "PhaseRetrieval",
    "QuadraticSensing",
    "BlindDeconv",
)


@dataclass
class ProblemInstance:
    """One generated problem: truth, measurement design, and observations.

    ``params`` holds the scalar knobs the generator was called with,
    ``truth`` the planted factors (arrays), ``design`` the measurement
    operator (arrays plus a "kind" tag where relevant), and ``y`` the
    observations.  All fields are plain data so an instance can round-trip
    through JSON without loss.  Derived data, such as the observed-entry index
    of a completion mask, is memoized as a private attribute outside the
    fields, so it never reaches the JSON form.
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
        if self.delta_hat < 0:
            raise ValueError("delta_hat must be nonnegative")


# ---------------------------------------------------------------------------
# Ground truth synthesis
# ---------------------------------------------------------------------------

def _check_spectrum(spectrum, r):
    if spectrum is None:
        return None
    s = np.asarray(spectrum, dtype=float)
    if s.shape != (r,):
        raise ValueError(f"spectrum must have length {r}")
    if np.any(s <= 0):
        raise ValueError("spectrum entries must be positive")
    if np.any(np.diff(s) > 0):
        raise ValueError("spectrum must be non-increasing")
    return s


def _sym_truth(rng, n, r, spectrum=None):
    """Planted PSD truth M = X X^T with X = U diag(sqrt(sigma)).

    Draws a Gaussian factor, keeps its left singular subspace, and either
    keeps the squared singular values as the spectrum or substitutes the
    requested one.  The factor is balanced by construction: X^T X = diag(sigma).
    """
    G = rng.standard_normal((n, r))
    U, s, _ = np.linalg.svd(G, full_matrices=False)
    sigma = s**2 if spectrum is None else spectrum
    X = U * np.sqrt(sigma)
    return X, X @ X.T, np.asarray(sigma, dtype=float)


def _asym_truth(rng, n1, n2, r, spectrum=None):
    """Planted truth M = L R^T with balanced factors L^T L = R^T R = diag(sigma).

    The singular triples of the Gaussian product G = A B^T come from thin QRs
    of the two factors and an r x r SVD of R_A R_B^T, so G itself is never
    formed: the cost is O((n1 + n2) r^2), not a dense n1 x n2 SVD.
    """
    QA, RA = np.linalg.qr(rng.standard_normal((n1, r)))
    QB, RB = np.linalg.qr(rng.standard_normal((n2, r)))
    Uc, s, Vct = np.linalg.svd(RA @ RB.T)
    sigma = s if spectrum is None else spectrum
    L = (QA @ Uc) * np.sqrt(sigma)
    R = (QB @ Vct.T) * np.sqrt(sigma)
    return L, R, L @ R.T, np.asarray(sigma, dtype=float)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_matrix_sensing(n1, n2, r, m, symmetric, seed, spectrum=None):
    """Random Gaussian matrix sensing.

    Symmetric instances use symmetrized Gaussian matrices (G + G^T)/2, which
    have unit-variance diagonal and variance-1/2 off-diagonal entries; that
    design is isotropic over symmetric probes.  Asymmetric instances use iid
    standard Gaussian matrices.
    """
    if not (1 <= r <= min(n1, n2)):
        raise ValueError("need 1 <= r <= min(n1, n2)")
    if m < 1:
        raise ValueError("need at least one measurement")
    if symmetric and n1 != n2:
        raise ValueError("symmetric sensing needs n1 == n2")
    spectrum = _check_spectrum(spectrum, r)
    rng = make_rng(derive_seed(seed, "matrix_sensing", int(symmetric)))
    if symmetric:
        X, M, sigma = _sym_truth(rng, n1, r, spectrum)
        truth = {"X": X, "M": M, "sigma": sigma}
        family = "MatrixSensingSym"
        G = rng.standard_normal((m, n1, n2))
        A = 0.5 * (G + np.transpose(G, (0, 2, 1)))
    else:
        L, R, M, sigma = _asym_truth(rng, n1, n2, r, spectrum)
        truth = {"L": L, "R": R, "M": M, "sigma": sigma}
        family = "MatrixSensingAsym"
        A = rng.standard_normal((m, n1, n2))
    params = {"n1": n1, "n2": n2, "r": r, "m": m, "symmetric": bool(symmetric)}
    inst = ProblemInstance(family, seed, params, truth, {"kind": "gaussian", "A": A}, None)
    inst.y = forward_model(inst)
    return inst


def gen_identity_sensing(n1, n2, r, seed, spectrum=None):
    """Sensing whose operator is an exact isometry: A_i = sqrt(n1 n2) E_i.

    One measurement per entry, so A(T) is vec(T) after the 1/sqrt(m)
    normalization.  The design is stored symbolically, never as explicit
    basis matrices.  Empirical RIP probes of this instance report exactly 0.
    """
    if not (1 <= r <= min(n1, n2)):
        raise ValueError("need 1 <= r <= min(n1, n2)")
    spectrum = _check_spectrum(spectrum, r)
    rng = make_rng(derive_seed(seed, "identity_sensing"))
    L, R, M, sigma = _asym_truth(rng, n1, n2, r, spectrum)
    params = {"n1": n1, "n2": n2, "r": r, "m": n1 * n2, "symmetric": False}
    inst = ProblemInstance(
        "MatrixSensingAsym", seed, params,
        {"L": L, "R": R, "M": M, "sigma": sigma}, {"kind": "identity"}, None,
    )
    inst.y = forward_model(inst)
    return inst


def gen_phase_retrieval(n, m, seed, norm=1.0):
    """Real Gaussian phase retrieval: y_i = (a_i^T x)^2, a_i ~ N(0, I_n)."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if norm <= 0:
        raise ValueError("truth norm must be positive")
    rng = make_rng(derive_seed(seed, "phase_retrieval"))
    x = rng.standard_normal(n)
    x *= norm / np.linalg.norm(x)
    A = rng.standard_normal((m, n))
    params = {"n": n, "m": m, "norm": float(norm)}
    inst = ProblemInstance("PhaseRetrieval", seed, params, {"x": x}, {"A": A}, None)
    inst.y = forward_model(inst)
    return inst


def gen_quadratic_sensing(n, r, m, seed, spectrum=None):
    """Quadratic sensing: y_i = ||a_i^T X||^2.  Rank one recovers the phase
    retrieval observation model."""
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    if m < 1:
        raise ValueError("need at least one measurement")
    spectrum = _check_spectrum(spectrum, r)
    rng = make_rng(derive_seed(seed, "quadratic_sensing"))
    X, M, sigma = _sym_truth(rng, n, r, spectrum)
    A = rng.standard_normal((m, n))
    params = {"n": n, "r": r, "m": m}
    inst = ProblemInstance(
        "QuadraticSensing", seed, params,
        {"X": X, "M": M, "sigma": sigma}, {"A": A}, None,
    )
    inst.y = forward_model(inst)
    return inst


def gen_matrix_completion(n1, n2, r, p, symmetric, seed, spectrum=None):
    """Bernoulli-sampled matrix completion.

    Each entry lands in the observed set independently with probability p.
    The boolean mask is the stored form of the design (and of its JSON);
    every computation reads the observed-entry index that observed_entries
    derives from it, and y lists M on that index in row-major order.  p = 0
    is legal and produces an empty observation set.
    """
    if not (1 <= r <= min(n1, n2)):
        raise ValueError("need 1 <= r <= min(n1, n2)")
    if not (0.0 <= p <= 1.0):
        raise ValueError("sampling probability must lie in [0, 1]")
    if symmetric and n1 != n2:
        raise ValueError("symmetric completion needs n1 == n2")
    spectrum = _check_spectrum(spectrum, r)
    rng = make_rng(derive_seed(seed, "matrix_completion", int(symmetric)))
    if symmetric:
        X, M, sigma = _sym_truth(rng, n1, r, spectrum)
        truth = {"X": X, "M": M, "sigma": sigma}
        family = "MatrixCompletionSym"
    else:
        L, R, M, sigma = _asym_truth(rng, n1, n2, r, spectrum)
        truth = {"L": L, "R": R, "M": M, "sigma": sigma}
        family = "MatrixCompletionAsym"
    mask = rng.random((n1, n2)) < p
    params = {"n1": n1, "n2": n2, "r": r, "p": float(p), "symmetric": bool(symmetric)}
    inst = ProblemInstance(family, seed, params, truth, {"mask": mask}, None)
    inst.y = forward_model(inst)
    return inst


def gen_blind_deconv(K, N, m, seed, norm=1.0):
    """Blind deconvolution in the lifted bilinear form y_j = b_j^H h (x^H a_j).

    B holds the first K columns of the unitary m-point DFT, so B^H B = I_K;
    the a_j are iid CN(0, I_N).  Truth vectors are drawn complex Gaussian and
    rescaled to a common norm, removing the scale ambiguity from the planted
    pair itself (solvers still have to resolve it).
    """
    if K < 1 or N < 1:
        raise ValueError("need K >= 1 and N >= 1")
    if m < K:
        raise ValueError("need m >= K so the subspace map is injective")
    if norm <= 0:
        raise ValueError("truth norm must be positive")
    rng = make_rng(derive_seed(seed, "blind_deconv"))
    # first K columns of the unitary m-point DFT, built directly so that a
    # large m never materializes the full m x m transform
    jk = np.arange(m)[:, None] * np.arange(K)[None, :]
    B = np.exp((-2j * np.pi / m) * jk) / np.sqrt(m)
    A = (rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))) / np.sqrt(2.0)
    h = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    h *= norm / np.linalg.norm(h)
    x *= norm / np.linalg.norm(x)
    params = {"K": K, "N": N, "m": m, "norm": float(norm)}
    inst = ProblemInstance(
        "BlindDeconv", seed, params, {"h": h, "x": x}, {"B": B, "A": A}, None,
    )
    inst.y = forward_model(inst)
    return inst


def _sparse_support(rng, n1, n2, count, row_cap, col_cap):
    """Uniform support of the requested size respecting per-row/column budgets.

    Scans a random permutation of all cells and rejects any cell whose row or
    column budget is exhausted; with the budgets used here the target count
    is always reachable.
    """
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
    if len(picked) < count:
        raise RuntimeError("could not place the outlier support under the row/column caps")
    return picked


def gen_rpca(n1, n2, r, p, alpha_out, magnitude, seed, spectrum=None):
    """Robust PCA: observe a Bernoulli(p) subset of M + S.

    S has round(alpha_out * n1 * n2) entries of size +-magnitude, placed so
    that no row holds more than ceil(alpha_out * n2) outliers and no column
    more than ceil(alpha_out * n1).  Square instances plant a PSD truth.  As
    in gen_matrix_completion, the boolean mask is the stored form and the
    observed-entry index is derived from it.
    """
    if not (1 <= r <= min(n1, n2)):
        raise ValueError("need 1 <= r <= min(n1, n2)")
    if not (0.0 <= p <= 1.0):
        raise ValueError("sampling probability must lie in [0, 1]")
    if not (0.0 <= alpha_out < 1.0):
        raise ValueError("outlier fraction must lie in [0, 1)")
    if magnitude <= 0:
        raise ValueError("outlier magnitude must be positive")
    spectrum = _check_spectrum(spectrum, r)
    rng = make_rng(derive_seed(seed, "rpca"))
    if n1 == n2:
        X, M, sigma = _sym_truth(rng, n1, r, spectrum)
        truth = {"X": X, "M": M, "sigma": sigma}
    else:
        L, R, M, sigma = _asym_truth(rng, n1, n2, r, spectrum)
        truth = {"L": L, "R": R, "M": M, "sigma": sigma}
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
    mask = rng.random((n1, n2)) < p
    params = {
        "n1": n1, "n2": n2, "r": r, "p": float(p),
        "alpha_out": float(alpha_out), "magnitude": float(magnitude),
    }
    inst = ProblemInstance("RobustPCA", seed, params, truth, {"mask": mask}, None)
    inst.y = forward_model(inst)
    return inst


def gen_phase_sync(n, sigma, seed):
    """Phase synchronization: L = x x^H + sigma W with unit-modulus truth.

    W is Hermitian with iid standard complex Gaussian entries above the
    diagonal and standard real Gaussian entries on it, so E ||W||_F^2 = n^2.
    The observation is the matrix L itself.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if sigma < 0:
        raise ValueError("noise level must be nonnegative")
    rng = make_rng(derive_seed(seed, "phase_sync"))
    x = np.exp(2j * np.pi * rng.random(n))
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Wu = np.triu(G, 1)
    W = Wu + Wu.conj().T + np.diag(rng.standard_normal(n))
    params = {"n": n, "sigma": float(sigma)}
    inst = ProblemInstance("PhaseSync", seed, params, {"x": x}, {"W": W}, None)
    inst.y = forward_model(inst)
    return inst


def gen_joint_alignment(n, alphabet_m, noise_flip_prob, seed):
    """Joint discrete alignment over Z_m from pairwise offset measurements.

    y_ij = x_i - x_j + z_ij (mod m) for i < j, where z_ij is 0 with
    probability 1 - q and otherwise uniform over the m - 1 wrong offsets;
    y_ji is the mirrored measurement -y_ij.  The lifted certificate matrix L
    holds per-pair log-likelihood blocks, floored at 1e-12 before the log so
    noiseless instances stay finite, with zero diagonal blocks.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if alphabet_m < 2:
        raise ValueError("alphabet must have at least two symbols")
    if not (0.0 <= noise_flip_prob < 1.0):
        raise ValueError("flip probability must lie in [0, 1)")
    mm = int(alphabet_m)
    rng = make_rng(derive_seed(seed, "joint_alignment"))
    x = rng.integers(0, mm, size=n)
    z = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if noise_flip_prob > 0.0 and rng.random() < noise_flip_prob:
                z[i, j] = int(rng.integers(1, mm))
            z[j, i] = (-z[i, j]) % mm
    params = {"n": n, "alphabet_m": mm, "noise_flip_prob": float(noise_flip_prob)}
    inst = ProblemInstance(
        "JointAlignment", seed, params, {"x": x}, {"z": z}, None,
    )
    inst.y = forward_model(inst)
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


def factorization_instance(M, r):
    """Wrap an explicit symmetric matrix as a fully observed completion problem.

    The plain loss is then (1/4) ||X X^T - M||_F^2 with gradient
    (X X^T - M) X, the small-scale factorization objective used throughout
    the landscape analyses.  Truth factors come from the top-r eigenpairs
    with negative eigenvalues clamped to zero.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    if not np.allclose(M, M.T, atol=1e-10 * max(1.0, np.linalg.norm(M))):
        raise ValueError("M must be symmetric")
    n = M.shape[0]
    if not (1 <= r <= n):
        raise ValueError("need 1 <= r <= n")
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    sigma = np.clip(w[:r], 0.0, None)
    X = V[:, :r] * np.sqrt(sigma)
    params = {"n1": n, "n2": n, "r": r, "p": 1.0, "symmetric": True}
    inst = ProblemInstance(
        "MatrixCompletionSym", 0, params,
        {"X": X, "M": M, "sigma": sigma},
        {"mask": np.ones((n, n), dtype=bool)}, None,
    )
    inst.y = forward_model(inst)
    return inst


def corrupt_outliers(instance, alpha_out, seed):
    """Replace a uniform subset of phase retrieval observations by junk.

    Corrupted values are uniform on [0, 10 * max clean y]; the indices are
    recorded in the returned instance's design.  The input instance is left
    untouched and uncorrupted entries are copied bit for bit.
    """
    if instance.family != "PhaseRetrieval":
        raise ValueError("outlier corruption is defined for phase retrieval instances")
    if not (0.0 <= alpha_out < 1.0):
        raise ValueError("outlier fraction must lie in [0, 1)")
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
# Observed-entry index of the sampled-entry families
# ---------------------------------------------------------------------------

def _observed_index(instance):
    # (rows, cols, indptr) of the mask, memoized per mask object: replacing
    # design["mask"] by assignment invalidates the memo, editing the stored
    # array in place does not.
    mask = instance.design["mask"]
    memo = instance.__dict__.get("_observed")
    if memo is None or memo[0] is not mask:
        rows, cols = np.nonzero(mask)
        memo = (mask, rows, cols, _offsets(rows, mask.shape[0]))
        instance._observed = memo
    return memo[1:]


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

    key: np.ndarray
    other: np.ndarray
    vals: np.ndarray
    ptr: np.ndarray

    @classmethod
    def of(cls, key, other, vals, n):
        """Group the entries (key, other, vals) by key in [0, n), stably."""
        order = np.argsort(key, kind="stable")
        return cls(key[order], other[order], vals[order], _offsets(key, n))

    def sparse(self, data, n_other):
        """The len(ptr) - 1 by n_other CSR matrix with ``data`` on the grouped
        entries."""
        return csr(data, self.other, self.ptr, (self.ptr.shape[0] - 1, n_other))

    def normal_equations(self, basis):
        """Every group's least-squares normal equations at once.

        Group k fits c in min ||B_k c - v_k||, where B_k holds the rows of
        ``basis`` it sees and v_k its ``vals``.  Returns the stacked Grams
        B_k^T B_k, shape (groups, r, r), and right-hand sides B_k^T v_k,
        shape (groups, r): two sparse products over the entries, the Grams'
        from the r(r + 1)/2 column products of the basis rows.
        """
        n_other, r = basis.shape
        iu, ju = np.triu_indices(r)
        upper = self.sparse(np.ones(self.other.shape[0]), n_other) \
            @ (basis[:, iu] * basis[:, ju])
        gram = np.empty((self.ptr.shape[0] - 1, r, r))
        gram[:, iu, ju] = upper
        gram[:, ju, iu] = upper
        return gram, self.sparse(self.vals, n_other) @ basis


def observed_csr(instance, values):
    """The n1 x n2 sparse matrix holding ``values`` (in the order of ``y``)
    on the observed entries of a completion or robust PCA instance."""
    _, cols, indptr = _observed_index(instance)
    return csr(values, cols, indptr, (instance.params["n1"], instance.params["n2"]))


# ---------------------------------------------------------------------------
# Forward models
# ---------------------------------------------------------------------------

def _sensing_apply(design, T, m):
    """The normalized map A(T), one coordinate per measurement.

    The identity design returns vec(T) itself: its symbolic sqrt(m) scaling
    cancels the 1/sqrt(m) normalization with no rounding at all.
    """
    if design["kind"] == "identity":
        return np.ravel(T)
    return np.tensordot(design["A"], T, axes=([1, 2], [0, 1])) / math.sqrt(m)


def _sensing_measure(design, T, m):
    # Unnormalized measurements <A_i, T>.
    if design["kind"] == "identity":
        return math.sqrt(m) * np.ravel(T)
    return np.tensordot(design["A"], T, axes=([1, 2], [0, 1]))


def _sensing_adjoint_weighted(design, e, n1, n2, m):
    # sum_i e_i A_i, the piece shared by every sensing gradient.
    if design["kind"] == "identity":
        return math.sqrt(m) * np.reshape(e, (n1, n2))
    return np.tensordot(e, design["A"], axes=([0], [0]))


def sensing_measurements(instance, T):
    """<A_i, T> for each measurement of a sensing instance (unnormalized)."""
    if instance.family not in ("MatrixSensingSym", "MatrixSensingAsym"):
        raise ValueError("measurement map applies to sensing instances")
    return _sensing_measure(instance.design, np.asarray(T, dtype=float),
                            instance.params["m"])


def sensing_adjoint(instance, e):
    """sum_i e_i A_i, the adjoint of the unnormalized measurement map."""
    if instance.family not in ("MatrixSensingSym", "MatrixSensingAsym"):
        raise ValueError("measurement map applies to sensing instances")
    p = instance.params
    e = np.asarray(e, dtype=float)
    if e.shape != (p["m"],):
        raise ValueError(f"expected {p['m']} measurement coefficients")
    return _sensing_adjoint_weighted(instance.design, e, p["n1"], p["n2"], p["m"])


def forward_model(instance):
    """Recompute the observation array from the stored truth and design."""
    fam = instance.family
    t, d, p = instance.truth, instance.design, instance.params
    if fam in ("MatrixSensingSym", "MatrixSensingAsym"):
        return _sensing_measure(d, t["M"], p["m"])
    if fam == "PhaseRetrieval":
        return (d["A"] @ t["x"]) ** 2
    if fam == "QuadraticSensing":
        return np.sum((d["A"] @ t["X"]) ** 2, axis=1)
    if fam in ("MatrixCompletionSym", "MatrixCompletionAsym"):
        return t["M"][observed_entries(instance)]
    if fam == "BlindDeconv":
        return (d["B"] @ t["h"]) * (d["A"] @ np.conj(t["x"]))
    if fam == "RobustPCA":
        idx = observed_entries(instance)
        return t["M"][idx] + t["S"][idx]
    if fam == "PhaseSync":
        return np.outer(t["x"], np.conj(t["x"])) + p["sigma"] * d["W"]
    if fam == "JointAlignment":
        x = t["x"]
        return (x[:, None] - x[None, :] + d["z"]) % p["alphabet_m"]
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------

def _weights(weights, m):
    if weights is None:
        return np.ones(m)
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"weights must have shape ({m},)")
    return w


def _expect_kind(point, kind, fam):
    if point.kind != kind:
        raise ValueError(f"{fam} expects a {kind!r} point, got {point.kind!r}")


def _entry_residual(instance, A, B, offset=None):
    # (A B^T + offset)[rows, cols] - y over the observed entries, in the
    # order of y: one r-term row dot per entry, never the n1 x n2 model.
    rows, cols = observed_entries(instance)
    # np.take gathers rows several times faster than A[rows]
    model = np.einsum("ij,ij->i", np.take(A, rows, axis=0), np.take(B, cols, axis=0))
    if offset is not None:
        model += offset
    return model - instance.y


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
    the same kind as ``point``.  ``weights`` applies per-sample factors to
    the families that are sample sums; it must be None elsewhere.
    ``forward`` is the product A x of a phase-retrieval point when the caller
    already holds it; it must be None elsewhere.
    """
    if loss not in ("plain", "regularized", "amplitude"):
        raise ValueError(f"unknown loss tag {loss!r}")
    if loss == "amplitude" and instance.family != "PhaseRetrieval":
        raise ValueError("the amplitude loss is specific to phase retrieval")
    if weights is not None and instance.family not in _SAMPLE_SUM_FAMILIES:
        raise ValueError(f"{instance.family} has no per-sample weights")
    lp = dict(loss_params or {})
    fam = instance.family
    if forward is not None:
        if fam != "PhaseRetrieval":
            raise ValueError("only phase retrieval takes a forward product")
        return _loss_phase_retrieval(instance, point, loss, lp, weights, forward)
    dispatch = {
        "MatrixSensingSym": _loss_sensing_sym,
        "MatrixSensingAsym": _loss_sensing_asym,
        "PhaseRetrieval": _loss_phase_retrieval,
        "QuadraticSensing": _loss_quadratic_sensing,
        "MatrixCompletionSym": _loss_completion_sym,
        "MatrixCompletionAsym": _loss_completion_asym,
        "BlindDeconv": _loss_blind_deconv,
        "RobustPCA": _loss_rpca,
        "PhaseSync": _loss_phase_sync,
        "JointAlignment": _loss_joint_alignment,
    }
    return dispatch[fam](instance, point, loss, lp, weights)


def _loss_sensing_sym(instance, point, loss, lp, weights):
    _expect_kind(point, "sym", instance.family)
    if loss != "plain":
        raise ValueError("symmetric sensing defines only the plain loss")
    p = instance.params
    m = p["m"]
    w = _weights(weights, m)
    X = point.X
    z = _sensing_measure(instance.design, X @ X.T, m)
    e = z - instance.y
    val = float(np.sum(w * e * e)) / (4.0 * m)
    S = _sensing_adjoint_weighted(instance.design, w * e, p["n1"], p["n2"], m)
    g = (0.5 * (S + S.T)) @ X / m
    return val, FactorPoint("sym", (g,))


def _loss_sensing_asym(instance, point, loss, lp, weights):
    _expect_kind(point, "asym", instance.family)
    p = instance.params
    m = p["m"]
    w = _weights(weights, m)
    L, R = point.L, point.R
    z = _sensing_measure(instance.design, L @ R.T, m)
    e = z - instance.y
    val = float(np.sum(w * e * e)) / (4.0 * m)
    S = _sensing_adjoint_weighted(instance.design, w * e, p["n1"], p["n2"], m)
    gL = S @ R / (2.0 * m)
    gR = S.T @ L / (2.0 * m)
    if loss == "regularized":
        # Balancing penalty lam * ||L^T L - R^T R||_F^2; lam = 1/32 by default.
        lam = float(lp.get("lam", 1.0 / 32.0))
        D = L.T @ L - R.T @ R
        val += lam * float(np.sum(D * D))
        gL += 4.0 * lam * (L @ D)
        gR -= 4.0 * lam * (R @ D)
    return val, FactorPoint("asym", (gL, gR))


def _loss_phase_retrieval(instance, point, loss, lp, weights, c=None):
    _expect_kind(point, "vector", instance.family)
    if loss == "regularized":
        raise ValueError("phase retrieval defines plain and amplitude losses only")
    m = instance.params["m"]
    A, y = instance.design["A"], instance.y
    c = A @ point.x if c is None else c
    if loss == "plain":
        e = c * c - y
        # Unit weights are skipped; multiplying by them is exact anyway.
        we = e if weights is None else _weights(weights, m) * e
        val = float(np.sum(we * e)) / (4.0 * m)
        g = A.T @ (we * c) / m
    else:
        # Amplitude loss; sign(0) = 0 picks the zero subgradient at kinks.
        w = _weights(weights, m)
        root = np.sqrt(y)
        e = np.abs(c) - root
        val = float(np.sum(w * e * e)) / (2.0 * m)
        g = A.T @ (w * (c - root * np.sign(c))) / m
    return val, FactorPoint("vector", (g,))


def _loss_quadratic_sensing(instance, point, loss, lp, weights):
    _expect_kind(point, "sym", instance.family)
    if loss != "plain":
        raise ValueError("quadratic sensing defines only the plain loss")
    m = instance.params["m"]
    w = _weights(weights, m)
    A, y = instance.design["A"], instance.y
    C = A @ point.X
    e = np.sum(C * C, axis=1) - y
    val = float(np.sum(w * e * e)) / (4.0 * m)
    g = A.T @ ((w * e)[:, None] * C) / m
    return val, FactorPoint("sym", (g,))


def _completion_scale(params):
    # Empty masks (p = 0) make the risk vacuous; keep it finite.
    return max(params["p"], np.finfo(float).tiny)


def _loss_completion_sym(instance, point, loss, lp, weights):
    _expect_kind(point, "sym", instance.family)
    X = point.X
    p = _completion_scale(instance.params)
    e = _entry_residual(instance, X, X)
    val = float(e @ e) / (4.0 * p)
    E = observed_csr(instance, e)
    g = (E @ X + E.T @ X) / (2.0 * p)
    if loss == "regularized":
        # Row-norm hinge sum_i max(||X_i|| - alpha, 0)^4, discouraging spiky rows.
        lam = float(lp.get("lam", 1.0))
        alpha = float(lp.get("alpha", 1.0))
        rn = np.sqrt(np.sum(X * X, axis=1))
        h, dh = _quartic_hinge(rn, alpha)
        val += lam * float(np.sum(h))
        active = dh > 0
        if np.any(active):
            g[active] += lam * (dh[active] / rn[active])[:, None] * X[active]
    return val, FactorPoint("sym", (g,))


def _completion_reg_scales(instance, lp):
    """Penalty scales for the asymmetric completion regularizer.

    Defaults calibrate each hinge to activate just above the planted truth's
    Frobenius mass and row norms; pass explicit values to decouple the
    penalty from the truth.
    """
    t = instance.truth
    a1 = float(lp.get("alpha1", 1.0 / np.sum(t["L"] ** 2)))
    a2 = float(lp.get("alpha2", 1.0 / np.sum(t["R"] ** 2)))
    a3 = float(lp.get("alpha3", 1.0 / np.max(np.sum(t["L"] ** 2, axis=1))))
    a4 = float(lp.get("alpha4", 1.0 / np.max(np.sum(t["R"] ** 2, axis=1))))
    return a1, a2, a3, a4


def _loss_completion_asym(instance, point, loss, lp, weights):
    _expect_kind(point, "asym", instance.family)
    L, R = point.L, point.R
    p = _completion_scale(instance.params)
    e = _entry_residual(instance, L, R)
    val = float(e @ e) / (4.0 * p)
    E = observed_csr(instance, e)
    gL = E @ R / (2.0 * p)
    gR = E.T @ L / (2.0 * p)
    if loss == "regularized":
        lam = float(lp.get("lam", 1.0))
        a1, a2, a3, a4 = _completion_reg_scales(instance, lp)
        h1, d1 = _square_hinge(a1 * np.sum(L * L))
        h2, d2 = _square_hinge(a2 * np.sum(R * R))
        val += lam * (float(h1) + float(h2))
        gL += lam * d1 * a1 * 2.0 * L
        gR += lam * d2 * a2 * 2.0 * R
        hr, dr = _square_hinge(a3 * np.sum(L * L, axis=1))
        val += lam * float(np.sum(hr))
        gL += lam * (dr * a3 * 2.0)[:, None] * L
        hc, dc = _square_hinge(a4 * np.sum(R * R, axis=1))
        val += lam * float(np.sum(hc))
        gR += lam * (dc * a4 * 2.0)[:, None] * R
    return val, FactorPoint("asym", (gL, gR))


def _loss_blind_deconv(instance, point, loss, lp, weights):
    _expect_kind(point, "pair", instance.family)
    m = instance.params["m"]
    w = _weights(weights, m)
    B, A, y = instance.design["B"], instance.design["A"], instance.y
    h, x = point.h, point.x
    u = B @ h
    c = A @ np.conj(x)
    e = u * c - y
    val = float(np.sum(w * np.abs(e) ** 2))
    gh = B.conj().T @ (w * e * np.conj(c))
    gx = A.T @ (w * np.conj(e) * u)
    if loss == "regularized":
        # Incoherence and norm hinges; scales default to the planted pair.
        lam = float(lp.get("lam", 1.0))
        mu = float(lp.get("mu", bd_incoherence(instance.truth["h"], B)))
        d0 = float(lp.get(
            "d0",
            np.linalg.norm(instance.truth["h"]) * np.linalg.norm(instance.truth["x"]),
        ))
        row = m * np.abs(u) ** 2 / (8.0 * mu**2 * d0)
        hr, dr = _square_hinge(row)
        val += lam * float(np.sum(hr))
        gh += B.conj().T @ (lam * dr * m / (8.0 * mu**2 * d0) * u)
        hn, dn = _square_hinge(np.sum(np.abs(h) ** 2) / (2.0 * d0))
        val += lam * float(hn)
        gh += lam * dn / (2.0 * d0) * h
        xn, dxn = _square_hinge(np.sum(np.abs(x) ** 2) / (2.0 * d0))
        val += lam * float(xn)
        gx += lam * dxn / (2.0 * d0) * x
    # Fold the customary norm scalings into the reported direction.
    gh /= float(np.sum(np.abs(x) ** 2))
    gx /= float(np.sum(np.abs(h) ** 2))
    return val, FactorPoint("pair", (gh, gx))


def _loss_rpca(instance, point, loss, lp, weights):
    if loss != "plain":
        raise ValueError("robust PCA defines only the plain loss")
    p = _completion_scale(instance.params)
    S = lp.get("S")
    if S is not None:
        S = np.asarray(S, dtype=float)[observed_entries(instance)]
    if point.kind == "sym":
        X = point.X
        e = _entry_residual(instance, X, X, S)
        E = observed_csr(instance, e)
        g = (E @ X + E.T @ X) / (2.0 * p)
        return float(e @ e) / (4.0 * p), FactorPoint("sym", (g,))
    _expect_kind(point, "asym", instance.family)
    L, R = point.L, point.R
    e = _entry_residual(instance, L, R, S)
    E = observed_csr(instance, e)
    val = float(e @ e) / (4.0 * p)
    return val, FactorPoint("asym", (E @ R / (2.0 * p), E.T @ L / (2.0 * p)))


def _loss_phase_sync(instance, point, loss, lp, weights):
    _expect_kind(point, "vector", instance.family)
    if loss != "plain":
        raise ValueError("phase synchronization defines only the plain loss")
    L = instance.y
    x = point.x
    val = -float(np.real(np.conj(x) @ (L @ x)))
    g = -(L @ x)
    return val, FactorPoint("vector", (g,))


def _loss_joint_alignment(instance, point, loss, lp, weights):
    _expect_kind(point, "vector", instance.family)
    if loss != "plain":
        raise ValueError("joint alignment defines only the plain loss")
    L = instance.design["L"]
    x = point.x
    val = -float(x @ (L @ x))
    return val, FactorPoint("vector", (-2.0 * (L @ x),))


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
    if instance.family not in ("MatrixSensingSym", "MatrixSensingAsym"):
        raise ValueError("restricted isometry probes apply to sensing instances")
    if trials < 1:
        raise ValueError("need at least one trial")
    p = instance.params
    n1, n2, m = p["n1"], p["n2"], p["m"]
    if not (1 <= r <= min(n1, n2)):
        raise ValueError("need 1 <= r <= min(n1, n2)")
    symmetric = instance.family == "MatrixSensingSym"
    worst = 0.0
    for t in range(trials):
        rng = make_rng(derive_seed(seed, "rip_probe", t))
        if symmetric:
            G = rng.standard_normal((n1, r))
            signs = rng.integers(0, 2, size=r) * 2 - 1
            T = (G * signs) @ G.T
        else:
            T = rng.standard_normal((n1, r)) @ rng.standard_normal((n2, r)).T
        flat = np.ravel(T)
        z = _sensing_apply(instance.design, T, m)
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
            flat = np.asarray(v["data"], dtype=float).reshape(-1, 2)
            arr = (flat[:, 0] + 1j * flat[:, 1]).astype(dtype)
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
