"""Spectral initialization: surrogate matrices assembled from observations,
optional preprocessing of the samples, and factor extraction from the leading
eigen- or singular pairs.

Every initializer is split into two layers: a public ``init_*`` entry that
assembles the surrogate from an instance, and a ``*_from_surrogate`` core
that turns an explicit surrogate matrix into factors.  The second layer is
what makes the population-limit checks direct: feeding the analytic
expectation of the surrogate must return the planted truth exactly, up to
the family's ambiguity.

PSD families symmetrize their surrogate, (Y + Y^T)/2, because the Bernoulli
mask is sampled entrywise and need not be symmetric; the symmetrization is
unbiased and exact when the observation set is complete.

The eigensolver follows the surrogate's storage.  Completion and robust PCA
surrogates are sparse (A*(y) / p, the adjoint of problems.linear_operator's
P_Omega, has only the observed entries), and a sparse surrogate goes to ARPACK
for its top r + 1 pairs, the extra pair keeping the spectral gap; when r + 1
reaches the smaller dimension it is densified instead, since ARPACK cannot
return that many.  ARPACK starts from a fixed vector, so a rerun reproduces
the init bit for bit.  Every other surrogate is dense and goes to LAPACK:
sensing and blind deconvolution surrogates are dense by construction, and the
phase retrieval and quadratic sensing ones stay dense because weighted
surrogates can be indefinite with norm dominated by a few hugely negative
samples (the reciprocal in T* on a near-zero y), where shifted power
iterations stall; at their sizes a full eigendecomposition is exact and cheap.
scipy.sparse.linalg is imported only on the sparse path.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    FactorPoint,
    SubspaceEstimate,
    cosine_sq,
    derive_seed,
    make_rng,
    setting,
)
from . import problems


def _sparse(Y, k):
    # True when Y is a scipy sparse array that ARPACK can take k pairs of.
    # scipy.sparse is loaded before any sparse array exists, so it is looked
    # up rather than imported, which keeps it out of dense-only processes.
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(Y) and k < min(Y.shape)


def _densify(Y):
    return Y.toarray() if hasattr(Y, "toarray") else Y


def _start_vector(n):
    # Fixed ARPACK start vector; a random one would change the result in
    # round-off from run to run.
    return make_rng(derive_seed(0, "arpack_v0")).standard_normal(n)


def _eig_top(Y, r):
    """Leading r eigenpairs of a symmetric/Hermitian matrix, descending."""
    _, r = problems._shape(r, n=Y.shape[0])
    if _sparse(Y, r + 1):
        from scipy.sparse.linalg import eigsh
        vals, vecs = eigsh(Y, k=r + 1, which="LA", v0=_start_vector(Y.shape[0]))
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
    else:
        vals, vecs = np.linalg.eigh(_densify(Y))
        vals, vecs = vals[::-1], vecs[:, ::-1]
    gap = float(vals[r - 1] - vals[r]) if r < vals.shape[0] else float(vals[r - 1])
    return SubspaceEstimate(basis=vecs[:, :r], values=vals[:r].copy(), gap=gap)


def _svd_top(Y, r):
    """Leading r singular triples as a (left, right) pair of estimates."""
    _, _, r = problems._shape(r, n1=Y.shape[0], n2=Y.shape[1])
    if _sparse(Y, r + 1):
        from scipy.sparse.linalg import svds
        u, s, vt = svds(Y, k=r + 1, v0=_start_vector(min(Y.shape)))
        order = np.argsort(s)[::-1]
        u, s, vt = u[:, order], s[order], vt[order]
    else:
        u, s, vt = np.linalg.svd(_densify(Y), full_matrices=False)
    gap = float(s[r - 1] - s[r]) if r < s.shape[0] else float(s[r - 1])
    left = SubspaceEstimate(basis=u[:, :r], values=s[:r].copy(), gap=gap)
    right = SubspaceEstimate(basis=vt[:r].conj().T, values=s[:r].copy(), gap=gap)
    return left, right


@dataclass
class SpectralEstimate:
    """An initial factor point plus the spectral diagnostics it came from."""

    point: FactorPoint
    subspaces: tuple
    scale: float
    prep: str = "identity"

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if not isinstance(self.subspaces, tuple):
            self.subspaces = (self.subspaces,)


# ---------------------------------------------------------------------------
# Preprocessing of phase retrieval samples
# ---------------------------------------------------------------------------

_PREP_TAGS = ("identity", "trim", "subset", "median", "optimal_weak", "optimal_uniform")


@dataclass(frozen=True)
class Preprocessing:
    """Sample transform T applied before assembling (1/m) sum T(y_i) a_i a_i^T,
    named by ``tag`` with its one parameter, if any, in ``param``.

    trim(gamma)      keep y_i, zeroed when |y_i| exceeds gamma * mean(y)
    subset(c)        indicator of the ceil(c m) largest samples
    median(gamma)    keep y_i, zeroed when y_i exceeds gamma * median(y)
    optimal_uniform  T*(y) = 1 - 1/y on mean-normalized samples
    optimal_weak(a)  the weak-threshold deformation of T*, needs a > 1/2
    """

    tag: str
    param: float = None

    def __post_init__(self):
        if self.tag not in _PREP_TAGS:
            raise ValueError(f"unknown preprocessing tag {self.tag!r}")
        p = self.param
        if self.tag in ("identity", "optimal_uniform") and p is not None:
            raise ValueError(f"{self.tag} takes no parameter")
        if self.tag in ("trim", "median") and not (p is not None and p > 0):
            raise ValueError("trim/median need gamma > 0")
        if self.tag == "subset" and not (p is not None and 0.0 < p < 1.0):
            raise ValueError("subset needs 0 < c < 1")
        if self.tag == "optimal_weak" and not (p is not None and p > 0.5):
            raise ValueError("the weak-threshold transform needs alpha > 1/2")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def trim(cls, gamma=3.0):
        return cls("trim", gamma)

    @classmethod
    def subset(cls, c=1.0 / 6.0):
        return cls("subset", c)

    @classmethod
    def median_trim(cls, gamma=3.0):
        return cls("median", gamma)

    @classmethod
    def optimal_weak(cls, alpha):
        return cls("optimal_weak", alpha)

    @classmethod
    def optimal_uniform(cls):
        return cls("optimal_uniform")

    def describe(self):
        return self.tag if self.param is None else f"{self.tag}({self.param:g})"


def optimal_T(y, variant="uniform", alpha=None):
    """The limit-optimal preprocessing functions, on mean-normalized samples.

    variant "uniform" is T*(y) = 1 - 1/y; variant "weak" deforms it toward a
    weak-threshold detector and needs alpha > 1/2.  Inputs are clamped below
    at 1e-12 since y = 0 is a measure-zero event under the Gaussian model.
    """
    y = np.maximum(np.asarray(y, dtype=float), 1e-12)
    t = 1.0 - 1.0 / y
    if variant == "uniform":
        return t
    if variant != "weak":
        raise ValueError(f"unknown variant {variant!r}")
    if alpha is None or alpha <= 0.5:
        raise ValueError("the weak-threshold transform needs alpha > 1/2")
    root_star = math.sqrt(0.5)
    root = math.sqrt(alpha)
    return root_star * t / (root - (root - root_star) * t)


def apply_preprocessing(prep, y):
    """Per-sample weights T(y).  Raises if the transform zeroes every sample."""
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if prep.tag == "identity":
        w = y * 1.0
    elif prep.tag == "trim":
        w = y * (np.abs(y) <= prep.param * np.mean(y))
    elif prep.tag == "median":
        w = y * (y <= prep.param * np.median(y))
    elif prep.tag == "subset":
        k = min(m, max(1, int(round(prep.param * m))))
        kth = np.partition(y, m - k)[m - k]
        w = (y >= kth).astype(float)
    elif prep.tag == "optimal_uniform":
        w = optimal_T(y / np.mean(y), "uniform")
    else:
        w = optimal_T(y / np.mean(y), "weak", alpha=prep.param)
    if not np.any(w != 0.0):
        raise ValueError("preprocessing removed every sample")
    return w


# ---------------------------------------------------------------------------
# Surrogate assembly
# ---------------------------------------------------------------------------

def surrogate_sensing(instance):
    """Y = (1/m) sum y_i A_i, the adjoint of the measurements at the data."""
    return problems.sensing_operator(instance).adjoint(instance.y) / instance.params["m"]


def surrogate_completion(instance):
    """Y = p^{-1} P_Omega(observed matrix); unbiased for the full matrix.

    Y is A*(y) / p for the sampled-entry operator A = P_Omega of
    problems.linear_operator, a sparse CSR array on the observed-entry
    index, so factors_from_surrogate sends it to ARPACK.
    """
    if instance.family not in ("MatrixCompletionSym", "MatrixCompletionAsym", "RobustPCA"):
        raise ValueError("completion surrogate applies to sampled-entry instances")
    op = problems.linear_operator(instance)
    # y / p before the CSR is built: a CSR divides by multiplying with 1 / p
    return op.adjoint(instance.y / op.scale)


def surrogate_quadratic(y, A, weights=None):
    """Y = (1/m) sum w_i y_i a_i a_i^T for vector designs (phase retrieval
    and quadratic sensing share this shape)."""
    w = y if weights is None else weights
    return A.T @ (w[:, None] * A) / y.shape[0]


def surrogate_blind_deconv(instance):
    """Y = sum_j y_j b_j a_j^H.

    With the subspace matrix B unitary on its columns, this unnormalized sum
    has expectation exactly h x^H, which is why no 1/m appears.
    """
    B, A = instance.design["B"], instance.design["A"]
    # conj(B^T (conj(y) * A)) equals B^H (y * conj(A)) bit for bit, with one
    # m x N temporary in place of three
    return np.conj(B.T @ (np.conj(instance.y)[:, None] * A))


# ---------------------------------------------------------------------------
# Factor extraction
# ---------------------------------------------------------------------------

def factors_from_surrogate(Y, r, symmetric):
    """Leading-pair factors of an explicit surrogate, dense or scipy sparse
    (the solver follows the storage, see the module docstring).

    Symmetric route: top-r eigenpairs, eigenvalues clipped at zero before the
    square root (noisy surrogates can dip negative).  Asymmetric route: top-r
    singular triples, L = U S^{1/2}, R = V S^{1/2}.
    """
    if symmetric:
        est = _eig_top(Y, r)
        vals = np.clip(est.values, 0.0, None)
        X = est.basis * np.sqrt(vals)
        return FactorPoint.sym(X), (est,), float(vals[0])
    left, right = _svd_top(Y, r)
    root = np.sqrt(left.values)
    point = FactorPoint.asym(left.basis * root, right.basis * root)
    return point, (left, right), float(left.values[0])


def _rank(instance, r):
    # r checked as the rank of an estimate of an n1 x n2 matrix instance
    p, r = instance.params, setting("r", r, "positive count")
    if r > min(p["n1"], p["n2"]):
        raise ValueError("r out of range for this instance")
    if "X" in instance.truth and r >= p["n1"]:
        raise ValueError("the symmetric route needs r < n")
    return r


def _matrix_estimate(instance, Y, r):
    # Rank-r factors of the surrogate Y of an n1 x n2 matrix instance: the
    # symmetric route, on (Y + Y^T)/2, when the planted truth is X X^T.
    r = _rank(instance, r)
    symmetric = "X" in instance.truth
    if symmetric:
        Y = 0.5 * (Y + Y.T)
    point, subspaces, scale = factors_from_surrogate(Y, r, symmetric)
    return SpectralEstimate(point=point, subspaces=subspaces, scale=scale)


def init_sensing(instance, r):
    """Spectral initialization for matrix sensing from the adjoint surrogate."""
    return _matrix_estimate(instance, surrogate_sensing(instance), r)


def _require_observations(instance):
    # An empty observation set has the all-zero surrogate, which ARPACK
    # cannot start from; refuse it before anything is formed.
    if instance.y.size == 0:
        raise ValueError(f"{instance.family} instance has an empty observation set")


def init_matrix_completion(instance, r):
    """Spectral initialization from the inverse-propensity-weighted entries."""
    if instance.family not in ("MatrixCompletionSym", "MatrixCompletionAsym"):
        raise ValueError("expected a matrix completion instance")
    _require_observations(instance)
    return _matrix_estimate(instance, surrogate_completion(instance), r)


def pr_estimate_from_surrogate(Y, mean_y, scale_rule, prep_tag="identity"):
    """Leading eigenvector of a phase retrieval surrogate, scaled to a vector.

    scale_rule "third_eig" uses sqrt(lambda_1 / 3), the population identity
    for the raw surrogate; "mean" uses sqrt(mean(y)), which stays calibrated
    under any preprocessing because E y = ||x||^2 regardless.
    """
    est = _eig_top(Y, 1)
    if scale_rule == "third_eig":
        s = math.sqrt(max(float(est.values[0]), 0.0) / 3.0)
    elif scale_rule == "mean":
        s = math.sqrt(max(float(mean_y), 0.0))
    else:
        raise ValueError(f"unknown scale rule {scale_rule!r}")
    x0 = s * est.basis[:, 0]
    return SpectralEstimate(
        point=FactorPoint.vector(x0), subspaces=(est,), scale=s * s, prep=prep_tag,
    )


def init_phase_retrieval(instance, prep=None, scale_rule="auto"):
    """Preprocessed spectral initialization for phase retrieval.

    "auto" scaling resolves to the eigenvalue rule only for the raw surrogate
    with a generous sample budget (m >= n log n); any preprocessing or a small
    budget falls back to the mean-of-samples rule, which both variants of the
    theory accept.
    """
    if instance.family != "PhaseRetrieval":
        raise ValueError("expected a phase retrieval instance")
    prep = Preprocessing.identity() if prep is None else prep
    A, y = instance.design["A"], instance.y
    n, m = instance.params["n"], instance.params["m"]
    w = apply_preprocessing(prep, y)
    Y = surrogate_quadratic(y, A, weights=w)
    if scale_rule == "auto":
        large = m >= n * math.log(max(n, 2))
        scale_rule = "third_eig" if (prep.tag == "identity" and large) else "mean"
    return pr_estimate_from_surrogate(
        Y, float(np.mean(y)), scale_rule, prep_tag=prep.describe(),
    )


def qs_estimate_from_surrogate(Y, sigma, r):
    """Factors from a quadratic sensing surrogate: shift off sigma = mean(y),
    halve, clip at zero, take square roots along the leading eigenbasis."""
    est = _eig_top(Y, r)
    vals = np.clip((est.values - sigma) / 2.0, 0.0, None)
    X0 = est.basis * np.sqrt(vals)
    return SpectralEstimate(
        point=FactorPoint.sym(X0), subspaces=(est,), scale=float(sigma),
    )


def init_quadratic_sensing(instance, r):
    if instance.family != "QuadraticSensing":
        raise ValueError("expected a quadratic sensing instance")
    r = setting("r", r, "positive count")
    if r >= instance.params["n"]:
        raise ValueError("r out of range for this instance")
    A, y = instance.design["A"], instance.y
    Y = surrogate_quadratic(y, A)
    return qs_estimate_from_surrogate(Y, float(np.mean(y)), r)


def bd_estimate_from_surrogate(Y):
    """Rank-one factors of the lifted blind deconvolution surrogate."""
    left, right = _svd_top(Y, 1)
    sigma = float(left.values[0])
    root = math.sqrt(max(sigma, 0.0))
    h0 = root * left.basis[:, 0]
    x0 = root * right.basis[:, 0]
    return SpectralEstimate(
        point=FactorPoint.pair(h0, x0), subspaces=(left, right), scale=sigma,
    )


def init_blind_deconv(instance):
    if instance.family != "BlindDeconv":
        raise ValueError("expected a blind deconvolution instance")
    return bd_estimate_from_surrogate(surrogate_blind_deconv(instance))


def hard_threshold(A, l_row, l_col):
    """Keep entries simultaneously among the l largest magnitudes of their row
    and of their column (ties inclusive); zero the rest.  l <= 0 keeps nothing."""
    A = np.asarray(A, dtype=float)
    if l_row <= 0 or l_col <= 0:
        return np.zeros_like(A)
    n1, n2 = A.shape
    lr, lc = min(l_row, n2), min(l_col, n1)
    mag = np.abs(A)
    row_kth = np.partition(mag, n2 - lr, axis=1)[:, n2 - lr]
    col_kth = np.partition(mag, n1 - lc, axis=0)[n1 - lc, :]
    keep = (mag >= row_kth[:, None]) & (mag >= col_kth[None, :])
    return np.where(keep, A, 0.0)


def sparse_part(instance, e):
    """The sparse-part estimate of robust PCA from residual values e on the
    observed index: hard_threshold of their densified n1 x n2 matrix, with
    the per-row budget ceil(c alpha p n2) and per-column ceil(c alpha p n1),
    c = 3 times how many corrupted entries a row or column of the observed
    set is expected to carry."""
    p = instance.params
    budget = 3.0 * p["alpha_out"] * p["p"]
    return hard_threshold(problems.linear_operator(instance).adjoint(e).toarray(),
                          math.ceil(budget * p["n2"]), math.ceil(budget * p["n1"]))


def init_rpca(instance, r):
    """Outlier-aware spectral initialization: hard-threshold the observed
    matrix to guess the sparse part (sparse_part, at its budget constant
    c = 3), then factor what remains.  Returns (estimate, S0).
    """
    if instance.family != "RobustPCA":
        raise ValueError("expected a robust PCA instance")
    _require_observations(instance)
    r = _rank(instance, r)  # before sparse_part's dense residual
    op = problems.linear_operator(instance)
    S0 = sparse_part(instance, instance.y)
    # S0 is zero off the observed set, so the surrogate stays sparse
    Y = op.adjoint((instance.y - op.measure(S0)) / op.scale)
    return _matrix_estimate(instance, Y, r), S0


def init_sparse_pr(instance, k=None, gamma=None):
    """Support-restricted spectral initialization for sparse phase retrieval.

    The surrogate's diagonal estimates ||x||^2 + 2 x_i^2, so coordinates with
    oversized diagonal entries flag the support.  Pass gamma to threshold the
    diagonal, or k to keep the k largest entries (ties resolved to the lowest
    index), not both.  Returns (estimate, support); the estimate is zero
    off-support.
    """
    if instance.family != "PhaseRetrieval":
        raise ValueError("expected a phase retrieval instance")
    if k is not None and gamma is not None:
        raise ValueError("choose a support size k or a diagonal threshold gamma, not both")
    if k is None and gamma is None:
        raise ValueError("need a support size k or a diagonal threshold gamma")
    A, y = instance.design["A"], instance.y
    n, m = instance.params["n"], instance.params["m"]
    diag = (y @ (A * A)) / m
    if gamma is not None:
        support = np.flatnonzero(diag > gamma)
    else:
        k = setting("k", k, "positive count")
        if k > n:
            raise ValueError("support size out of range")
        support = np.sort(np.argsort(-diag, kind="stable")[:k])
    if support.size == 0:
        raise ValueError("empty support: no diagonal entry clears the threshold")
    As = A[:, support]
    Ys = surrogate_quadratic(y, As)
    sub = _eig_top(Ys, 1)
    u = sub.basis[:, 0]
    s = math.sqrt(max(float(np.mean(y)), 0.0))
    x0 = np.zeros(n)
    x0[support] = s * u
    est = SpectralEstimate(point=FactorPoint.vector(x0), subspaces=(sub,), scale=s * s)
    return est, support


def init_phase_sync(instance):
    """Leading eigenvector of the observation, projected onto unit-modulus
    entries by the family's projection, the one direct.ppm iterates.
    Entries at or below 1e-15 max(max|u_i|, 1), where the eigenvector
    (measure-zero) vanishes up to round-off, are zeroed first and get 1."""
    if instance.family != "PhaseSync":
        raise ValueError("expected a phase synchronization instance")
    u = _eig_top(instance.y, 1).basis[:, 0]
    mag = np.abs(u)
    u = np.where(mag > 1e-15 * max(float(mag.max()), 1.0), u, 0.0)
    return FactorPoint.vector(problems.FAMILIES[instance.family].project(instance, u))


# ---------------------------------------------------------------------------
# Sample-budget sweep for phase retrieval initialization
# ---------------------------------------------------------------------------

def rho_vs_alpha_experiment(n, alphas, prep, trials, seed):
    """Mean squared cosine between truth and initializer across sample budgets.

    For each alpha the experiment generates ``trials`` phase retrieval
    instances with m = ceil(alpha n), initializes with the given
    preprocessing, and records rho = cos^2(x0, x).  Trial t of a given alpha
    depends only on (seed, alpha, t), so runs with different preprocessing
    are paired sample for sample.
    """
    trials = setting("trials", trials, "positive count")
    rows = []
    for alpha in alphas:
        m = int(math.ceil(alpha * n))
        rhos = np.empty(trials)
        for t in range(trials):
            inst = problems.gen_phase_retrieval(
                n, m, derive_seed(seed, "rho_curve", repr(float(alpha)), t),
            )
            est = init_phase_retrieval(inst, prep=prep)
            rhos[t] = cosine_sq(est.point.x, inst.truth["x"])
        rows.append({
            "alpha": float(alpha),
            "prep": prep.describe(),
            "mean_rho": float(np.mean(rhos)),
            "std_rho": float(np.std(rhos)),
            "trials": trials,
        })
    return rows


def rho_table_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "prep", "mean_rho", "std_rho", "trials"])
        for row in rows:
            writer.writerow([
                repr(row["alpha"]), row["prep"],
                repr(row["mean_rho"]), repr(row["std_rho"]), row["trials"],
            ])
