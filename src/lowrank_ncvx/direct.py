"""Solvers that move by subproblem solves instead of gradient steps:
alternating least squares for sensing and completion, Error Reduction for
amplitude phase retrieval, singular value projection in full matrix space,
and the projected power method on unit-modulus and one-hot constraint sets.

The loss column always carries the family's plain empirical risk (Error
Reduction's the amplitude risk), whatever objective the half-steps optimize.
Every row but SVP's, whose iterate is a full matrix, is gd.trace_row's.
"""

from dataclasses import dataclass

import numpy as np

from .core import FactorPoint, falls_to, iterate
from .gd import trace_row
from .problems import (
    EntryGroups,
    estimate_rip,
    linear_operator,
    loss_and_grad,
    observed_entries,
    sensing_operator,
)

_ALTMIN_VARIANTS = ("reuse", "sample_split", "regularized")
_INNER_CAP = 10_000  # inner-GD guard for the regularized half-steps
# A completion half-step solves a group's r x r normal equations directly when
# its Gram G is certified to have lambda_min > _GRAM_CUT lambda_max, i.e. the
# observed basis rows have condition number below 100, where the normal
# equations lose at most ~1e4 eps; every other group goes through lstsq.  The
# certificate is the Cholesky bound of _cond_bound below 1 / (2 _GRAM_CUT).  It
# overestimates kappa(G) by at most r^1.5 (and the 2 is rounding room), so a
# group with kappa(G) below 1e4 / (2 r^1.5) is always certified and some with
# kappa(G) between that and 1e4 go to lstsq as well.
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


def _risk_row(instance, point, loss="plain", forward=None, **extras):
    val, grad = loss_and_grad(instance, point, loss=loss, forward=forward)
    return {**trace_row(instance, point, val, grad, forward), **extras}


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
    op = sensing_operator(instance)
    y = instance.y
    n1, n2 = instance.params["n1"], instance.params["n2"]
    L = np.array(L0, dtype=float)
    if L.ndim != 2 or L.shape[0] != n1:
        raise ValueError(f"initial left factor must be {n1} x r")
    r = L.shape[1]

    def right(t, L, R):
        return _solve_full_rank(op.rows(L, 1), y, cfg.inner_tol,
                                "right half-step").reshape(n2, r)

    def left(t, R, L):
        return _solve_full_rank(op.rows(R, 2), y, cfg.inner_tol,
                                "left half-step").reshape(n1, r)

    return _alternate(instance, L, np.zeros((n2, r)), cfg, right, left)


# ---------------------------------------------------------------------------
# Error Reduction on amplitude phase retrieval
# ---------------------------------------------------------------------------

def er_phase_retrieval(instance, x0, config=None):
    """Alternate the sign estimate b = sgn(Ax) with the linear solve
    x = argmin ||Ax - b sqrt(y)||; sgn(0) = +1 keeps the update a function.
    Rows record the amplitude risk; steps reuse the row's A x.  Returns (x, trace)."""
    if instance.family != "PhaseRetrieval":
        raise ValueError("Error Reduction expects a phase retrieval instance")
    cfg = _resolve(config, AltMinConfig)
    if cfg.variant != "reuse":
        raise ValueError("Error Reduction has no sampling variants")
    A, y = instance.design["A"], instance.y
    root = np.sqrt(y)

    def evaluate(t, point):
        c = A @ point.x  # shared by the row and the step from it
        return _risk_row(instance, point, "amplitude", c), c

    def step(t, point, c):
        b = np.where(c < 0.0, -1.0, 1.0)
        return FactorPoint.vector(_solve_full_rank(A, b * root, cfg.inner_tol,
                                                   "amplitude fit"))

    point, trace = iterate(FactorPoint.vector(np.array(x0, dtype=float).ravel()),
                           evaluate, step, cfg.max_outer, stop=falls_to("loss", cfg.tol))
    return point.x, trace


# ---------------------------------------------------------------------------
# Alternating least squares on completion
# ---------------------------------------------------------------------------

def _split_parts(rows, cols, vals, parts):
    # Round-robin over the observed positions in row-major order.
    return [(rows[k::parts], cols[k::parts], vals[k::parts]) for k in range(parts)]


def _cond_bound(gram, limit=np.inf):
    """The bound ||G||_F ||C^-1||_F^2 >= kappa_2(G) for each of a stack of
    symmetric Grams G = C C^T, shape (groups, r, r).

    The bound holds because lambda_max(G^-1) = ||C^-1||_2^2 <= ||C^-1||_F^2,
    and it exceeds kappa_2(G) by at most r^1.5.  C and its inverse are built
    row by row in r vectorized steps of Cholesky and forward substitution.
    ||C^-1||_F^2 >= 1 / d_j for every pivot d_j = C_jj^2, so a group whose
    pivot has d_j limit <= ||G||_F, including every group that is not
    positive definite, gets inf at once and leaves the factorization.
    """
    groups, r = gram.shape[0], gram.shape[1]
    norm = np.sqrt(np.einsum("gij,gij->g", gram, gram))
    ok = np.ones(groups, dtype=bool)
    low = np.zeros_like(gram)  # C below its diagonal
    inv = np.zeros_like(gram)  # C^-1
    total = np.zeros(groups)
    for j in range(r):
        row = low[:, j, :j]
        d = gram[:, j, j] - np.einsum("gk,gk->g", row, row)
        ok &= d * limit > norm
        # An infinite pivot zeroes the rest of a dropped group's factors.
        piv = np.sqrt(np.where(ok, d, np.inf))[:, None]
        low[:, j + 1:, j] = (gram[:, j + 1:, j] - np.einsum(
            "gik,gk->gi", low[:, j + 1:, :j], row)) / piv
        inv[:, j, :j] = -np.einsum("gk,gkl->gl", row, inv[:, :j, :j]) / piv
        inv[:, j, j] = 1.0 / piv[:, 0]
        total += np.einsum("gk,gk->g", inv[:, j, :j + 1], inv[:, j, :j + 1])
    return np.where(ok, norm * total, np.inf)


def _batchable(gram, rhs, counts, rcond):
    # The groups whose normal equations (gram, rhs) may be solved in one
    # batch: at least r observations (counts), finite and in-range numbers,
    # and a Gram that _cond_bound certifies.
    r = gram.shape[1]
    scale = np.max(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    batch = ((counts >= r) & np.isfinite(gram).all(axis=(1, 2))
             & np.isfinite(rhs).all(axis=1)
             & (scale >= _GRAM_RANGE[0]) & (scale <= _GRAM_RANGE[1]))
    limit = 0.5 / max(_GRAM_CUT, 4.0 * rcond * rcond)
    batch[batch] = _cond_bound(gram[batch], limit) < limit
    return batch


def _decoupled_ls(basis, groups, axis_name, r, rcond):
    # Solve min ||P_Omega(basis sol^T - obs)|| one group at a time; the
    # observed rows of each group must pin down all r coefficients.  Groups
    # whose Grams the Cholesky bound certifies as well-conditioned solve their
    # normal equations in one batch; lstsq, with its checks, takes the rest.
    # The lstsq rank test rejects a group when lambda_min <= rcond^2
    # lambda_max; the batch keeps a factor 4 from that edge, far above the
    # Gram's round-off, and the bound is never below kappa, so the batch never
    # returns a solution lstsq would refuse.
    gram, rhs = groups.normal_equations(basis)
    batch = _batchable(gram, rhs, np.diff(groups.ptr), rcond)
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
    every group, solved in one batch.  A group whose Gram is non-finite or
    out of range, or whose Gram a Cholesky bound cannot certify to have
    condition number below 1e4 (basis rows below 100; groups above about
    1e4 / (2 r^1.5) may miss the certificate), is solved by lstsq at
    rcond = config.inner_tol instead, which raises when its rank falls
    short of r.  A non-finite fixed factor gives a
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

    Each step moves along the gradient A*(A(M) - y) / s of ||A(M) - y||^2 / 2s,
    A the instance's problems.linear_operator (made dense for completion),
    and truncates back to rank r through a dense SVD; the iterate lives as
    that truncated factorization (U_r s_r, V_r), so its rank stays at most r
    by construction (recorded per row in extras["rank"]).  Returns (M, trace)
    with M materialized dense.
    """
    completion = instance.family in ("MatrixCompletionSym", "MatrixCompletionAsym")
    if not (completion or instance.family in ("MatrixSensingSym", "MatrixSensingAsym")):
        raise ValueError("SVP handles sensing and completion instances")
    if not isinstance(config, SvpConfig):
        raise ValueError("svp needs an SvpConfig")
    op = linear_operator(instance)
    n1, n2 = op.shape
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
    Mstar = instance.truth["M"]

    def evaluate(t, point):
        M = point.L @ point.R.T
        e = op.measure(M) - instance.y
        val = 0.5 * float(e @ e) / op.scale
        grad = op.adjoint(e)
        # dense before the division: a CSR divides by multiplying with 1 / s
        grad = (grad.toarray() if completion else grad) / op.scale
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
