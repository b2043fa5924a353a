"""Solvers that move by subproblem solves instead of gradient steps:
alternating least squares for sensing and completion, Error Reduction for
amplitude phase retrieval, singular value projection in full matrix space,
and the projected power method on unit-modulus and one-hot constraint sets.

The loss column always carries the family's plain empirical risk, whatever
objective the half-steps optimize.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import FactorPoint, falls_to, iterate
from .gd import dist_to_truth, incoherence_proxy
from .problems import (
    EntryGroups,
    estimate_rip,
    loss_and_grad,
    observed_entries,
    sensing_adjoint,
    sensing_measurements,
)

_ALTMIN_VARIANTS = ("reuse", "sample_split", "regularized")
_INNER_CAP = 10_000  # inner-GD guard for the regularized half-steps
# A completion half-step solves a group's r x r normal equations directly when
# its Gram has lambda_min > _GRAM_CUT lambda_max, i.e. the observed basis rows
# have condition number below 100, where the normal equations lose at most
# ~1e4 eps; every other group goes through lstsq.
_GRAM_CUT = 1e-4
# Grams whose largest diagonal entry lies outside this range may have lost
# digits to underflow or be near overflow; they go through lstsq as well.
_GRAM_RANGE = (np.finfo(float).tiny / np.finfo(float).eps,
               np.finfo(float).max * np.finfo(float).eps)


@dataclass
class AltMinConfig:
    """Knobs for the alternating solvers.

    inner_tol is the least-squares cutoff: the lstsq rcond of the sensing
    and Error Reduction solves and of the completion groups that fall back
    to lstsq (the others solve their normal equations, see altmin_mc), and
    the gradient tolerance of the regularized variant's inner descent.
    splits is the part count T of the sample_split variant; lam the ridge
    weight of the regularized variant.  tol, when set, stops a run once the
    recorded loss falls to it; core.iterate owns the stop and divergence
    tests.
    """

    max_outer: int = 30
    inner_tol: float = 1e-10
    variant: str = "reuse"
    splits: int = 1
    lam: float = 0.0
    tol: float = None

    def __post_init__(self):
        if int(self.max_outer) != self.max_outer or self.max_outer < 0:
            raise ValueError("max_outer must be a nonnegative integer")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")
        if self.variant not in _ALTMIN_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if int(self.splits) != self.splits or self.splits < 1:
            raise ValueError("splits must be a positive integer")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.tol is not None and not self.tol >= 0:
            raise ValueError("tol must be nonnegative")


@dataclass
class SvpConfig:
    """Rank, step, and budget for singular value projection.

    eta defaults per family: 1 for completion, 1/(1 + delta_hat_{2r}) for
    sensing with the isometry constant probed empirically (rip_trials
    probes from rip_seed).  tol, when set, stops a run once the recorded
    loss falls to it; core.iterate owns the stop and divergence tests.
    """

    r: int
    eta: float = None
    max_iters: int = 200
    tol: float = None
    rip_trials: int = 20
    rip_seed: int = 0

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("rank must be a positive integer")
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if int(self.max_iters) != self.max_iters or self.max_iters < 0:
            raise ValueError("max_iters must be a nonnegative integer")
        if self.tol is not None and not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        if int(self.rip_trials) != self.rip_trials or self.rip_trials < 1:
            raise ValueError("rip_trials must be a positive integer")


def _resolve(config, cls):
    return cls() if config is None else config


def _risk_row(instance, point, loss="plain", **extras):
    val, grad = loss_and_grad(instance, point, loss=loss)
    return {"loss": val, "grad_norm": grad.norm(),
            "dist": dist_to_truth(instance, point),
            "incoh": incoherence_proxy(instance, point), **extras}


def _alternate(instance, L, R, cfg, right, left):
    """AltMin rounds as rows 1..cfg.max_outer of core.iterate.  The round
    after row t sets R = right(t, L, R), then L = left(t, R, L); the last
    argument is the warm start.  A non-finite fixed factor gives an all-NaN
    half-step, which core.iterate labels "diverged", rather than a solve that
    raises on it.  Returns (L, R, trace), R None if no round ran.
    """
    half = None

    def solve(t, fixed, warm, half_step):
        if not np.isfinite(fixed).all():
            return np.full(warm.shape, np.nan)
        return half_step(t, fixed, warm)

    def step(t, point, aux):
        nonlocal half
        R = solve(t, point.L, point.R, right)
        half, _ = loss_and_grad(instance, FactorPoint.asym(point.L, R))
        return FactorPoint.asym(solve(t, R, point.L, left), R)

    point, trace = iterate(FactorPoint.asym(L, R),
                           lambda t, point: (_risk_row(instance, point, half_loss=half), None),
                           step, cfg.max_outer, first=1, stop=falls_to("loss", cfg.tol))
    return point.L, (point.R if len(trace) else None), trace


# ---------------------------------------------------------------------------
# Alternating least squares on sensing
# ---------------------------------------------------------------------------

def _design_tensor(instance):
    # The identity design is stored symbolically; materialize sqrt(m) E_i
    # for the row-building the half-steps need.  Sizes are desk-scale there.
    d = instance.design
    if d["kind"] == "identity":
        p = instance.params
        m = p["m"]
        A = np.zeros((m, p["n1"] * p["n2"]))
        A[np.arange(m), np.arange(m)] = math.sqrt(m)
        return A.reshape(m, p["n1"], p["n2"])
    return d["A"]


def _solve_full_rank(rows, rhs, rcond, what):
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=rcond)
    if rank < rows.shape[1]:
        raise ValueError(f"{what} normal equations are rank-deficient")
    return sol


def altmin_sensing(instance, L0, config=None):
    """Alternating exact least squares on asymmetric matrix sensing.

    Each outer round solves min_R ||A(L R^T) - y|| exactly, then the same
    for L; the trace records one row per round plus the intermediate
    half-step loss in extras["half_loss"].  Returns (L, R, trace).
    """
    if instance.family != "MatrixSensingAsym":
        raise ValueError("alternating sensing expects the asymmetric family")
    cfg = _resolve(config, AltMinConfig)
    if cfg.variant != "reuse":
        raise ValueError("sensing half-steps are always exact; use variant 'reuse'")
    A = _design_tensor(instance)
    y = instance.y
    m, n1, n2 = A.shape
    L = np.array(L0, dtype=float)
    if L.ndim != 2 or L.shape[0] != n1:
        raise ValueError(f"initial left factor must be {n1} x r")
    r = L.shape[1]

    def right(t, L, R):
        rows_R = np.tensordot(A, L, axes=([1], [0])).reshape(m, n2 * r)
        return _solve_full_rank(rows_R, y, cfg.inner_tol,
                                "right half-step").reshape(n2, r)

    def left(t, R, L):
        rows_L = np.tensordot(A, R, axes=([2], [0])).reshape(m, n1 * r)
        return _solve_full_rank(rows_L, y, cfg.inner_tol,
                                "left half-step").reshape(n1, r)

    return _alternate(instance, L, np.zeros((n2, r)), cfg, right, left)


# ---------------------------------------------------------------------------
# Error Reduction on amplitude phase retrieval
# ---------------------------------------------------------------------------

def er_phase_retrieval(instance, x0, config=None):
    """Alternate the sign estimate b = sgn(Ax) with the linear solve
    x = argmin ||Ax - b sqrt(y)||; sgn(0) = +1 keeps the update a function.
    Rows record the amplitude risk.  Returns (x, trace)."""
    if instance.family != "PhaseRetrieval":
        raise ValueError("Error Reduction expects a phase retrieval instance")
    cfg = _resolve(config, AltMinConfig)
    if cfg.variant != "reuse":
        raise ValueError("Error Reduction has no sampling variants")
    A, y = instance.design["A"], instance.y
    root = np.sqrt(y)

    def step(t, point, aux):
        b = np.where(A @ point.x < 0.0, -1.0, 1.0)
        return FactorPoint.vector(_solve_full_rank(A, b * root, cfg.inner_tol,
                                                   "amplitude fit"))

    point, trace = iterate(FactorPoint.vector(np.array(x0, dtype=float).ravel()),
                           lambda t, point: (_risk_row(instance, point, "amplitude"), None),
                           step, cfg.max_outer, stop=falls_to("loss", cfg.tol))
    return point.x, trace


# ---------------------------------------------------------------------------
# Alternating least squares on completion
# ---------------------------------------------------------------------------

def _split_parts(rows, cols, vals, parts):
    # Round-robin over the observed positions in row-major order.
    return [(rows[k::parts], cols[k::parts], vals[k::parts]) for k in range(parts)]


def _decoupled_ls(basis, groups, axis_name, r, rcond):
    # Solve min ||P_Omega(basis sol^T - obs)|| one group at a time; the
    # observed rows of each group must pin down all r coefficients.  Groups
    # with well-conditioned Grams solve their normal equations in one batch;
    # lstsq, with its checks, takes the rest.  The lstsq rank test rejects a
    # group when lambda_min <= rcond^2 lambda_max; the batch keeps a factor 4
    # from that edge, far above the Gram's round-off, so it never returns a
    # solution lstsq would refuse.
    gram, rhs = groups.normal_equations(basis)
    scale = np.max(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    batch = ((np.diff(groups.ptr) >= r) & np.isfinite(gram).all(axis=(1, 2))
             & np.isfinite(rhs).all(axis=1)
             & (scale >= _GRAM_RANGE[0]) & (scale <= _GRAM_RANGE[1]))
    w = np.linalg.eigvalsh(gram[batch])
    batch[batch] = w[:, 0] > max(_GRAM_CUT, 4.0 * rcond * rcond) * w[:, -1]
    sol = np.empty((gram.shape[0], r))
    sol[batch] = np.linalg.solve(gram[batch], rhs[batch][..., None])[..., 0]
    ptr, other, vals = groups.ptr, groups.other, groups.vals
    for j in np.flatnonzero(~batch).tolist():  # ascending: the lowest failure raises
        lo, hi = ptr[j], ptr[j + 1]
        if hi - lo < r:
            raise ValueError(
                f"{axis_name} {j} has fewer than {r} observations")
        fit, _, rank, _ = np.linalg.lstsq(basis[other[lo:hi]], vals[lo:hi],
                                          rcond=rcond)
        if rank < r:
            raise ValueError(
                f"{axis_name} {j} normal equations are rank-deficient")
        sol[j] = fit
    return sol


def _ridge_descent(basis, groups, start, lam, tol):
    # Inner gradient descent for the regularized half-step: quadratic
    # objective, fixed 1/Lipschitz step, run to the gradient tolerance.
    sol = start.copy()
    step = 1.0 / (float(np.linalg.norm(basis, 2)) ** 2 + lam
                  + np.finfo(float).tiny)
    for _ in range(_INNER_CAP):
        resid = np.einsum("ij,ij->i", basis[groups.other], sol[groups.key]) \
            - groups.vals
        grad = groups.sparse(resid, basis.shape[0]) @ basis + lam * sol
        if float(np.linalg.norm(grad)) <= tol * (1.0 + float(np.linalg.norm(sol))):
            break
        sol -= step * grad
    return sol


def altmin_mc(instance, L0, config=None):
    """Alternating least squares over the observed entries of an asymmetric
    completion instance.

    Variants: "reuse" solves both half-steps exactly on the full mask every
    round; "sample_split" partitions the mask into config.splits parts
    round-robin and round t uses part t mod T; "regularized" solves ridge
    half-steps (weight config.lam) by inner gradient descent.  The trace
    loss column is always the plain completion risk on the full mask.

    An exact half-step fits each row (or column) of the free factor to its
    observed entries: O(|Omega| r^2) work for the r x r normal equations of
    every group, solved in one batch.  A group whose observed basis rows have
    condition number 100 or more, or whose Gram is non-finite or out of
    range, is solved by lstsq at rcond = config.inner_tol instead, which
    raises when its rank falls short of r.  A non-finite fixed factor gives a
    non-finite half-step, so the run ends "diverged".
    Returns (L, R, trace).
    """
    if instance.family != "MatrixCompletionAsym":
        raise ValueError("alternating completion expects the asymmetric family")
    cfg = _resolve(config, AltMinConfig)
    n1, n2 = instance.params["n1"], instance.params["n2"]
    L = np.array(L0, dtype=float)
    if L.ndim != 2 or L.shape[0] != n1:
        raise ValueError(f"initial left factor must be {n1} x r")
    r = L.shape[1]
    rows, cols = observed_entries(instance)
    parts = _split_parts(rows, cols, instance.y,
                         cfg.splits if cfg.variant == "sample_split" else 1)
    parts = [(EntryGroups.of(c, i, v, n2), EntryGroups.of(i, c, v, n1))
             for i, c, v in parts]

    def solve(basis, groups, warm, axis_name):
        if cfg.variant == "regularized":
            return _ridge_descent(basis, groups, warm, cfg.lam, cfg.inner_tol)
        return _decoupled_ls(basis, groups, axis_name, r, cfg.inner_tol)

    # Round t + 1 uses part t mod T: column groups feed the R half-step, row
    # groups the L half-step.
    return _alternate(
        instance, L, np.zeros((n2, r)), cfg,
        lambda t, L, R: solve(L, parts[t % len(parts)][0], R, "column"),
        lambda t, R, L: solve(R, parts[t % len(parts)][1], L, "row"))


# ---------------------------------------------------------------------------
# Singular value projection
# ---------------------------------------------------------------------------

def svp(instance, config):
    """Projected gradient descent in full matrix space from M = 0.

    Each step moves along the family gradient and truncates back to rank r
    through a dense SVD; the iterate lives as that truncated factorization
    (U_r s_r, V_r), so its rank stays at most r by construction (recorded per
    row in extras["rank"]).  Returns (M, trace) with M materialized dense.
    """
    sensing = instance.family in ("MatrixSensingSym", "MatrixSensingAsym")
    completion = instance.family in ("MatrixCompletionSym",
                                     "MatrixCompletionAsym")
    if not (sensing or completion):
        raise ValueError("SVP handles sensing and completion instances")
    if not isinstance(config, SvpConfig):
        raise ValueError("svp needs an SvpConfig")
    p = instance.params
    n1, n2 = p["n1"], p["n2"]
    r = config.r
    eta = config.eta
    if eta is None:
        if completion:
            eta = 1.0
        else:
            probe_rank = min(2 * r, n1, n2)
            delta = estimate_rip(instance, probe_rank, config.rip_trials,
                                 config.rip_seed).delta_hat
            eta = 1.0 / (1.0 + delta)
    if completion:
        idx = observed_entries(instance)
        scale = max(p["p"], np.finfo(float).tiny)
    Mstar = instance.truth["M"]

    def evaluate(t, point):
        M = point.L @ point.R.T
        if completion:
            e = M[idx] - instance.y
            val = 0.5 * float(e @ e) / scale
            grad = np.zeros((n1, n2))
            grad[idx] = e / scale
        else:
            e = sensing_measurements(instance, M) - instance.y
            val = 0.5 * float(e @ e) / p["m"]
            grad = sensing_adjoint(instance, e) / p["m"]
        # U has unit columns, so column k of U_r s_r is zero exactly when s_k is.
        return {"loss": val, "grad_norm": float(np.linalg.norm(grad)),
                "dist": float(np.linalg.norm(M - Mstar)), "incoh": 0.0,
                "rank": int(np.count_nonzero(np.any(point.L, axis=0)))}, (M, grad)

    def step(t, point, aux):
        M, grad = aux
        U, s, Vt = np.linalg.svd(M - eta * grad, full_matrices=False)
        return FactorPoint.asym(U[:, :r] * s[:r], Vt[:r].T)

    point, trace = iterate(FactorPoint.asym(np.zeros((n1, r)), np.zeros((n2, r))),
                           evaluate, step, config.max_iters,
                           stop=falls_to("loss", config.tol))
    return point.L @ point.R.T, trace


# ---------------------------------------------------------------------------
# Projected power method
# ---------------------------------------------------------------------------

def _phase_project(v):
    # Real and imaginary parts are divided by the modulus separately: complex
    # division by a subnormal modulus overflows its reciprocal (5e-324j would
    # map to nan+infj).  A subnormal modulus has also lost most of its digits,
    # so those entries are first divided by their larger part; others by 1.
    re, im = np.real(v), np.imag(v)
    mag = np.abs(v)
    sub = (mag > 0.0) & (mag < np.finfo(float).tiny)
    scale = np.where(sub, np.maximum(np.abs(re), np.abs(im)), 1.0)
    re, im = re / scale, im / scale
    mag = np.where(sub, np.hypot(re, im), mag)
    safe = np.where(mag > 0.0, mag, 1.0)
    unit = re / safe + 1j * (im / safe)
    return np.where(mag > 0.0, unit, 1.0 + 0.0j).astype(complex)


def _vertex_project(v, n, m):
    blocks = np.real(v).reshape(n, m)
    out = np.zeros_like(blocks)
    out[np.arange(n), np.argmax(blocks, axis=1)] = 1.0  # ties to lowest index
    return out.ravel()


def ppm(instance, x0, eta=1.0, max_iters=100):
    """Projected power iterations x <- P(eta L x).

    Phase synchronization projects entrywise onto unit modulus (zeros map
    to 1); joint alignment projects each length-m block onto the nearest
    one-hot vertex.  Both projections are scale-invariant, so eta only
    matters through its sign and is kept at the documented default 1.  The
    input point is projected before the first step, so every recorded
    iterate is feasible.  Returns (x, trace).
    """
    if instance.family not in ("PhaseSync", "JointAlignment"):
        raise ValueError("the projected power method handles phase "
                         "synchronization and joint alignment")
    if not eta > 0:
        raise ValueError("eta must be positive")
    if int(max_iters) != max_iters or max_iters < 0:
        raise ValueError("max_iters must be a nonnegative integer")
    if instance.family == "PhaseSync":
        L = instance.y
        project = _phase_project
    else:
        L = instance.design["L"]
        n, m = instance.params["n"], instance.params["alphabet_m"]
        project = lambda v: _vertex_project(v, n, m)  # noqa: E731

    prev = None  # the point the last step started from

    def step(t, point, aux):
        nonlocal prev
        prev = point.x
        return FactorPoint.vector(project(eta * (L @ point.x)))

    def stop(trace, point):
        return prev is not None and np.array_equal(point.x, prev)

    point, trace = iterate(FactorPoint.vector(project(np.asarray(x0).ravel())),
                           lambda t, point: (_risk_row(instance, point), None),
                           step, int(max_iters), stop=stop)
    return point.x, trace
