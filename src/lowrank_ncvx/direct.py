"""Solvers that move by subproblem solves instead of gradient steps:
alternating least squares for sensing and completion, Error Reduction for
amplitude phase retrieval, singular value projection in full matrix space,
and the projected power method on unit-modulus and one-hot constraint sets.

Every completion least-squares half-step, AltMin's (split or not, ridge or
not) and grassmann_step's, is one call of _decoupled_ls.

SVP takes its measurements, adjoint and default step from the instance's
linear operator, and the projected power method its projection from the
family's problems.FAMILIES record and L x from the row's gradient; neither
names a family outside its input check.

The loss column carries the family's plain empirical risk (Error Reduction's
the amplitude risk), whatever objective the half-steps optimize; SVP's
carries its own objective ||A(M) - y||^2 / 2s, twice the plain risk.  Every
row but SVP's, whose iterate is a full matrix, is gd.trace_row's.
"""

from dataclasses import dataclass

import numpy as np

from .core import FactorPoint, check_fields, falls_to, iterate, setting
from .gd import trace_row
from .problems import (
    FAMILIES,
    EntryGroups,
    _shape,
    estimate_rip,
    linear_operator,
    loss_and_grad,
    loss_value,
    observed_entries,
    sensing_operator,
)

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
# ppm's stop: a step that moves no entry by more than this.  Noisy
# synchronization steps shrink about fourfold a step down to a round-off
# floor of about 1 eps, and round-off keeps some runs from ever repeating an
# iterate exactly; from the battery starts (sigma = 0.3 sqrt(n / log n)) the
# steps reach 64 eps within 21 steps at n = 40.  Not larger: the 19th step
# of gen_phase_sync(30, 1.0, 37) from its spectral start still moves 131
# eps.  One-hot iterates move by exactly 0 or 1.
_PPM_TOL = 64 * np.finfo(float).eps


@dataclass
class AltMinConfig:
    """Knobs for the alternating solvers.

    inner_tol is the least-squares cutoff, the lstsq rcond of the sensing
    and Error Reduction solves and of the completion groups that fall back
    to lstsq (the others solve their normal equations, see altmin_mc).
    splits > 1 makes completion AltMin sample-split: round t fits part
    t mod splits of the mask.  lam > 0 adds the ridge lam ||sol||^2 / 2 to
    each completion half-step.  The two compose; sensing and Error
    Reduction take neither.  tol, when set, stops a run once the recorded
    loss falls to it; core.iterate owns the stop and divergence tests.
    """

    max_outer: int = 30
    inner_tol: float = 1e-10
    splits: int = 1
    lam: float = 0.0
    tol: float = None

    def __post_init__(self):
        check_fields(self, max_outer="count", inner_tol="positive bound",
                     splits="positive count", lam="bound", tol="bound")


@dataclass
class SvpConfig:
    """Rank, step, and budget for singular value projection.

    eta defaults by the instance's linear operator: 1/(1 + delta_hat_{2r})
    for a sensing operator, the isometry constant of its normalized map
    probed empirically (problems.estimate_rip, 20 probes from seed 0), and 1
    for sampled entries, whose risk is normalized by p.  tol, when set,
    stops a run once the recorded loss, SVP's objective ||A(M) - y||^2 / 2s
    (twice the family's plain risk), falls to it; core.iterate owns the stop
    and divergence tests.
    """

    r: int
    eta: float = None
    max_iters: int = 200
    tol: float = None

    def __post_init__(self):
        check_fields(self, r="positive count", eta="positive bound", max_iters="count",
                     tol="bound")


def _risk_row(instance, point, loss="plain", forward=None):
    val, grad = loss_and_grad(instance, point, loss=loss, forward=forward)
    return trace_row(instance, point, val, grad, forward), grad


def _alternate(instance, L, R, cfg, right, left):
    """AltMin rounds as rows 1..cfg.max_outer of core.iterate.  The round
    after row t sets R = right(t, L), then L = left(t, R).  A non-finite
    fixed factor gives an all-NaN half-step, which core.iterate labels
    "diverged", rather than a solve that raises on it.  Returns (L, R,
    trace), R None if no round ran.  Each row's half_loss is the plain risk
    after the round's first half-step, at (L, R), from loss_value: no
    gradient is formed for it.
    """
    half = None

    def solve(t, fixed, free, half_step):
        if not np.isfinite(fixed).all():
            return np.full(free.shape, np.nan)
        return half_step(t, fixed)

    def step(t, point, aux):
        nonlocal half
        R = solve(t, point.L, point.R, right)
        half = loss_value(instance, FactorPoint.derived("asym", (point.L, R)))[0]
        return FactorPoint.derived("asym", (solve(t, R, point.L, left), R))

    def evaluate(t, point):
        return {**_risk_row(instance, point)[0], "half_loss": half}, None

    point, trace = iterate(FactorPoint.asym(L, R), evaluate, step, cfg.max_outer,
                           first=1, stop=falls_to("loss", cfg.tol))
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
    cfg = AltMinConfig() if config is None else config
    if cfg.splits != 1 or cfg.lam != 0:
        raise ValueError("sensing half-steps are exact on the full sample: splits=1, lam=0")
    op = sensing_operator(instance)
    y = instance.y
    n1, n2 = instance.params["n1"], instance.params["n2"]
    L = np.array(L0, dtype=float)
    if L.ndim != 2 or L.shape[0] != n1:
        raise ValueError(f"initial left factor must be {n1} x r")
    r = _shape(L.shape[1], n1=n1, n2=n2)[2]

    def right(t, L):
        return _solve_full_rank(op.rows(L, 1), y, cfg.inner_tol,
                                "right half-step").reshape(n2, r)

    def left(t, R):
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
    cfg = AltMinConfig() if config is None else config
    if cfg.splits != 1 or cfg.lam != 0:
        raise ValueError("Error Reduction has no sampling variants")
    A, root = instance.design["A"], np.sqrt(instance.y)

    def evaluate(t, point):
        c = FAMILIES[instance.family].shared(instance, point)
        return _risk_row(instance, point, "amplitude", c)[0], c

    def step(t, point, c):
        b = np.where(c < 0.0, -1.0, 1.0)
        return FactorPoint.derived("vector", (_solve_full_rank(A, b * root, cfg.inner_tol,
                                                               "amplitude fit"),))

    point, trace = iterate(FactorPoint.vector(np.array(x0, dtype=float).ravel()),
                           evaluate, step, cfg.max_outer, stop=falls_to("loss", cfg.tol))
    return point.x, trace


# ---------------------------------------------------------------------------
# Alternating least squares on completion
# ---------------------------------------------------------------------------

def _cond_bound(gram, limit=np.inf):
    """The bound ||G||_F ||C^-1||_F^2 >= kappa_2(G) for each of a stack of
    symmetric Grams G = C C^T, shape (groups, r, r), and C^-1 for each.

    The bound holds because lambda_max(G^-1) = ||C^-1||_2^2 <= ||C^-1||_F^2,
    and it exceeds kappa_2(G) by at most r^1.5.  The groups go last: the
    stack is copied once into an (r, r, groups) array (no copy if it is a
    view of one), and each scalar update of Cholesky and forward
    substitution is one elementwise pass over contiguous rows of all groups.
    That is O(r^2) passes of at most r rows each, O(r^3) flops per group,
    with no per-group loop or strided gather; each group's arithmetic, and
    its order, is the same in any stack.  ||C^-1||_F^2 >= 1 / d_j for every
    pivot d_j = C_jj^2, so a group whose pivot has d_j limit <= ||G||_F,
    including every group that is not positive definite, gets inf at once
    and leaves the factorization; its C^-1 is then meaningless.  Returns
    (bound, C^-1), C^-1 groups last: row [j, l] of the (r, r, groups) array
    holds entry (j, l) of every inverse, and the rows above the diagonal
    are not set.
    """
    g = np.ascontiguousarray(np.moveaxis(gram, 0, -1))
    r, groups = g.shape[0], g.shape[2]
    norm = np.sqrt(sum(g.reshape(r * r, groups) ** 2))
    ok = np.ones(groups, dtype=bool)
    low = np.empty_like(g)  # low[k, i] = C_ik: column k of C, below its diagonal
    inv = np.empty_like(g)  # inv[j, l] = (C^-1)_jl
    total = np.zeros(groups)  # ||C^-1||_F^2
    for j in range(r):
        rest = g[j:, j].copy()  # G_ij - sum_{k<j} C_ik C_jk for i >= j
        for k in range(j):
            rest -= low[k, j:] * low[k, j]
        ok &= rest[0] * limit > norm
        # An infinite pivot zeroes the rest of a dropped group's factors.
        piv = np.sqrt(np.where(ok, rest[0], np.inf))
        np.divide(rest[1:], piv, out=low[j, j + 1:])
        # Row j of C^-1 from rows k < j, each zero right of its diagonal.
        acc = np.zeros((j, groups))
        for k in range(j):
            acc[:k + 1] += low[k, j] * inv[k, :k + 1]
        np.divide(acc, -piv, out=inv[j, :j])
        np.divide(1.0, piv, out=inv[j, j])
        for row in inv[j, :j + 1] ** 2:
            total += row
    return np.where(ok, norm * total, np.inf), inv


def _batchable(gram, rhs, counts, rcond):
    # The groups whose normal equations (gram, rhs) may be solved in one
    # batch: at least r observations (counts), finite and in-range numbers,
    # and a Gram that _cond_bound certifies.  Returns the mask and the
    # Cholesky inverses C^-1 of the batch's Grams, groups last and in group
    # order.  Every check reads contiguous rows of the groups-last copies.
    g = np.ascontiguousarray(np.moveaxis(gram, 0, -1))
    r = g.shape[0]
    scale = g[0, 0]
    for i in range(1, r):
        scale = np.maximum(scale, g[i, i])
    batch = ((counts >= r) & np.isfinite(g).all(axis=(0, 1))
             & np.isfinite(np.ascontiguousarray(rhs.T)).all(axis=0)
             & (scale >= _GRAM_RANGE[0]) & (scale <= _GRAM_RANGE[1]))
    limit = 0.5 / max(_GRAM_CUT, 4.0 * rcond * rcond)
    bound, inv = _cond_bound(np.moveaxis(_groups(g, batch), -1, 0), limit)
    batch[batch] = certified = bound < limit
    return batch, _groups(inv, certified)


def _groups(a, mask):
    # The groups of a groups-last array that mask keeps; a itself if all.
    return a if mask.all() else a[..., mask]


def _decoupled_ls(basis, groups, axis_name, r, rcond, lam=0.0):
    # Solve min ||P_Omega(basis sol^T - obs)||^2 + lam ||sol||^2 one group at
    # a time; the ridge counts as r more observed rows sqrt(lam) I with value
    # 0, and the rows of each group must pin down all r coefficients.  Groups
    # whose Grams the Cholesky bound certifies as well-conditioned solve their
    # normal equations in one batch; lstsq, with its checks, takes the rest.
    # The batch runs groups last, as the certificate does: its checks, its
    # Cholesky inverses and its solve C^-T (C^-1 b) are elementwise passes
    # over contiguous rows of all groups, 2r of them for the solve.
    # The lstsq rank test rejects a group when lambda_min <= rcond^2
    # lambda_max; the batch keeps a factor 4 from that edge, far above the
    # Gram's round-off, and the bound is never below kappa, so the batch never
    # returns a solution lstsq would refuse.
    gram, rhs = groups.normal_equations(basis)
    counts = np.diff(groups.ptr)
    if lam:
        gram += lam * np.eye(r)
        counts = counts + r
    batch, inv = _batchable(gram, rhs, counts, rcond)
    # G^-1 b = C^-T (C^-1 b), with the inverses the certificate built; no
    # pass reads C^-1 above its diagonal.
    b = _groups(np.ascontiguousarray(rhs.T), batch)
    y = inv[:, 0] * b[0]
    for k in range(1, r):
        y[k:] += inv[k:, k] * b[k]
    x = inv[r - 1] * y[r - 1]
    for k in range(r - 2, -1, -1):
        x[:k + 1] += inv[k, :k + 1] * y[k]
    sol = np.empty((gram.shape[0], r))
    sol[batch] = x.T
    ptr, other, vals = groups.ptr, groups.other, groups.vals
    for j in np.flatnonzero(~batch).tolist():  # ascending: the lowest failure raises
        if counts[j] < r:
            raise ValueError(f"{axis_name} {j} has fewer than {r} observations")
        rows, obs = basis[other[ptr[j]:ptr[j + 1]]], vals[ptr[j]:ptr[j + 1]]
        if lam:  # the ridge rows
            rows, obs = np.vstack([rows, np.sqrt(lam) * np.eye(r)]), np.append(obs, np.zeros(r))
        fit, _, rank, _ = np.linalg.lstsq(rows, obs, rcond=rcond)
        if rank < r:
            raise ValueError(f"{axis_name} {j} normal equations are rank-deficient")
        sol[j] = fit
    return sol


def grassmann_step(instance, L, eta):
    """One geodesic descent step on the orthonormal-basis formulation of
    completion: solve the observed-entry least squares for the right factor
    exactly (AltMin's half-step at rcond 1e-6, which raises on a column whose
    Gram has eigenvalue ratio at most 1e-12), project the resulting gradient
    to the horizontal space, and move along the geodesic with step eta, from
    the compact SVD of the negative projected gradient.
    """
    if instance.family not in ("MatrixCompletionSym", "MatrixCompletionAsym"):
        raise ValueError("geodesic steps are defined for completion instances")
    eta = setting("eta", eta, "positive bound")
    L = np.asarray(L, dtype=float)
    if L.ndim != 2:
        raise ValueError("expected a 2-d basis matrix")
    r = _shape(L.shape[1], n1=instance.params["n1"], n2=instance.params["n2"])[2]
    if not np.allclose(L.T @ L, np.eye(r), atol=1e-8):
        raise ValueError("basis columns must be orthonormal within 1e-8")
    op = linear_operator(instance)
    rows, cols = op.index
    groups = EntryGroups.of(cols, rows, instance.y, instance.params["n2"])
    R = _decoupled_ls(L, groups, "column", r, 1e-6)
    grad = -2.0 * (op.adjoint(instance.y - op.measure_factors(L, R)) @ R)
    grad -= L @ (L.T @ grad)
    U, sv, Vt = np.linalg.svd(-grad, full_matrices=False)
    if sv[0] == 0.0:
        return L.copy()
    return (L @ Vt.T) @ (np.cos(sv * eta)[:, None] * Vt) \
        + U @ (np.sin(sv * eta)[:, None] * Vt)


def altmin_mc(instance, L0, config=None):
    """Alternating least squares over the observed entries of an asymmetric
    completion instance.

    With config.splits = T > 1 the mask is split into T parts round-robin
    and round t fits part t mod T only; config.lam > 0 adds the ridge
    lam ||sol||^2 / 2 to each half-step, which then also fits a row (or
    column) with fewer than r entries, and gives 0 for one with none.  The
    trace loss column is always the plain completion risk on the full mask,
    and extras["half_loss"] the same risk after each round's R half-step.

    A half-step fits each row (or column) of the free factor to its
    observed entries.  The r x r normal equations G = B^T B + lam I of
    every group come from two sparse products over the entries, O(|Omega|
    r^2) work, with CSR matrices that each part of the mask builds once per
    run.  They are solved in one batch as C^-T (C^-1 b), with the inverse
    Cholesky factors of G = C C^T that certify the batch: O(n r^3) more
    flops for n groups, in O(r^2) elementwise passes over contiguous
    vectors of all groups (the groups are the last axis), so no per-group
    Python loop runs on a certified group.
    A group whose Gram is non-finite or out of range, or whose Gram a
    Cholesky bound cannot certify to have condition number below 1e4 (basis
    rows below 100; groups above about 1e4 / (2 r^1.5) may miss the
    certificate), is solved by lstsq at rcond = config.inner_tol instead,
    which raises when its rank falls short of r.  A non-finite fixed factor
    gives a non-finite half-step, so the run ends "diverged".  Returns
    (L, R, trace).
    """
    if instance.family != "MatrixCompletionAsym":
        raise ValueError("alternating completion expects the asymmetric family")
    cfg = AltMinConfig() if config is None else config
    n1, n2 = instance.params["n1"], instance.params["n2"]
    L = np.array(L0, dtype=float)
    if L.ndim != 2 or L.shape[0] != n1:
        raise ValueError(f"initial left factor must be {n1} x r")
    r = _shape(L.shape[1], n1=n1, n2=n2)[2]
    rows, cols = observed_entries(instance)
    T, y = cfg.splits, instance.y
    # Part k takes every T-th observed entry, row-major, from the k-th on.
    parts = [(EntryGroups.of(cols[k::T], rows[k::T], y[k::T], n2),
              EntryGroups.of(rows[k::T], cols[k::T], y[k::T], n1)) for k in range(T)]

    # Round t + 1 uses part t mod T: column groups feed the R half-step, row
    # groups the L half-step.
    return _alternate(
        instance, L, np.zeros((n2, r)), cfg,
        lambda t, L: _decoupled_ls(L, parts[t % len(parts)][0], "column", r,
                                   cfg.inner_tol, cfg.lam),
        lambda t, R: _decoupled_ls(R, parts[t % len(parts)][1], "row", r,
                                   cfg.inner_tol, cfg.lam))


# ---------------------------------------------------------------------------
# Singular value projection
# ---------------------------------------------------------------------------

def svp(instance, config):
    """Projected gradient descent in full matrix space from M = 0.

    Each step moves along the gradient A*(A(M) - y) / s of ||A(M) - y||^2 / 2s,
    A the instance's problems.linear_operator (its sparse adjoint made
    dense), and truncates back to rank r through a dense SVD; the iterate
    lives as that truncated factorization (U_r s_r, V_r), so its rank stays
    at most r by construction (recorded per row in extras["rank"]).  The
    default step is the operator's, see SvpConfig.  Returns (M, trace) with
    M materialized dense.
    """
    if instance.family not in ("MatrixSensingSym", "MatrixSensingAsym",
                               "MatrixCompletionSym", "MatrixCompletionAsym"):
        raise ValueError("SVP handles sensing and completion instances")
    if not isinstance(config, SvpConfig):
        raise ValueError("svp needs an SvpConfig")
    op = linear_operator(instance)
    n1, n2, r = _shape(config.r, n1=op.shape[0], n2=op.shape[1])
    eta = config.eta
    if eta is None:  # only a sensing operator has a normalized map to probe
        eta = 1.0 if not hasattr(op, "apply") else 1.0 / (1.0 + estimate_rip(
            instance, min(2 * r, n1, n2), 20, 0).delta_hat)
    Mstar = instance.truth["M"]

    def evaluate(t, point):
        M = point.L @ point.R.T
        e = op.measure(M) - instance.y
        val = 0.5 * float(e @ e) / op.scale
        grad = op.adjoint(e)
        # dense before the division: a CSR divides by multiplying with 1 / s
        grad = (grad if isinstance(grad, np.ndarray) else grad.toarray()) / op.scale
        # U has unit columns, so column k of U_r s_r is zero exactly when s_k is.
        return {"loss": val, "grad_norm": float(np.linalg.norm(grad)),
                "dist": float(np.linalg.norm(M - Mstar)), "incoh": 0.0,
                "rank": int(np.count_nonzero(np.any(point.L, axis=0)))}, (M, grad)

    def step(t, point, aux):
        M, grad = aux
        U, s, Vt = np.linalg.svd(M - eta * grad, full_matrices=False)
        return FactorPoint.derived("asym", (U[:, :r] * s[:r], Vt[:r].T))

    point, trace = iterate(FactorPoint.asym(np.zeros((n1, r)), np.zeros((n2, r))),
                           evaluate, step, config.max_iters,
                           stop=falls_to("loss", config.tol))
    return point.L @ point.R.T, trace


# ---------------------------------------------------------------------------
# Projected power method
# ---------------------------------------------------------------------------

def ppm(instance, x0, max_iters=100):
    """Projected power iterations x <- P(L x) on a power family's matrix L
    and projection P, as its problems.FAMILIES record declares them.

    Phase synchronization projects entrywise onto unit modulus (zeros map
    to 1); joint alignment projects each length-m block onto the nearest
    one-hot vertex.  Both ignore a positive scaling, so a step projects the
    row's negative gradient, L x or 2 L x, and takes no step size.  The
    input point is projected first, so every recorded iterate is feasible.
    The run ends "converged" at the first step that moves no entry of x by
    more than _PPM_TOL = 64 eps (for joint alignment, one that moves none).
    Returns (x, trace).
    """
    spec = FAMILIES[instance.family]
    if spec.project is None:
        raise ValueError("the projected power method handles phase "
                         "synchronization and joint alignment")
    max_iters = setting("max_iters", max_iters, "count")
    prev = None  # the point the last step started from

    def step(t, point, grad):
        nonlocal prev
        prev = point.x
        return FactorPoint.derived("vector", (spec.project(instance, -grad.x),))

    def stop(trace, point):
        return prev is not None and float(np.max(np.abs(point.x - prev))) <= _PPM_TOL

    point, trace = iterate(FactorPoint.vector(spec.project(instance, np.asarray(x0).ravel())),
                           lambda t, point: _risk_row(instance, point), step, max_iters,
                           stop=stop)
    return point.x, trace
