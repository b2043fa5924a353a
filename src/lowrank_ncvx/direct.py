"""Solvers that move by subproblem solves instead of gradient steps:
alternating least squares for sensing and completion, Error Reduction for
amplitude phase retrieval, singular value projection in full matrix space,
and the projected power method on unit-modulus and one-hot constraint sets.

Every completion least-squares half-step, AltMin's (split or not, ridge or
not) and grassmann_step's, is one call of _decoupled_ls.

SVP takes its measurements, adjoint and default step from the instance's
linear operator, and the projected power method its matrix and projection
from the family's problems.FAMILIES record; neither names a family outside
its input check.

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
    return trace_row(instance, point, val, grad, forward)


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
        return {**_risk_row(instance, point), "half_loss": half}, None

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
    r = L.shape[1]

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
    A, y = instance.design["A"], instance.y
    root = np.sqrt(y)

    def evaluate(t, point):
        c = A @ point.x  # shared by the row and the step from it
        return _risk_row(instance, point, "amplitude", c), c

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
    symmetric Grams G = C C^T, shape (groups, r, r), and the stack of C^-1.

    The bound holds because lambda_max(G^-1) = ||C^-1||_2^2 <= ||C^-1||_F^2,
    and it exceeds kappa_2(G) by at most r^1.5.  C and its inverse are built
    row by row in r vectorized steps of Cholesky and forward substitution.
    ||C^-1||_F^2 >= 1 / d_j for every pivot d_j = C_jj^2, so a group whose
    pivot has d_j limit <= ||G||_F, including every group that is not
    positive definite, gets inf at once and leaves the factorization; its
    C^-1 is then meaningless.  Returns (bound, C^-1).
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
    return np.where(ok, norm * total, np.inf), inv


def _batchable(gram, rhs, counts, rcond):
    # The groups whose normal equations (gram, rhs) may be solved in one
    # batch: at least r observations (counts), finite and in-range numbers,
    # and a Gram that _cond_bound certifies.  Returns the mask and the
    # Cholesky inverses C^-1 of the batch's Grams, in group order.
    r = gram.shape[1]
    scale = np.max(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    batch = ((counts >= r) & np.isfinite(gram).all(axis=(1, 2))
             & np.isfinite(rhs).all(axis=1)
             & (scale >= _GRAM_RANGE[0]) & (scale <= _GRAM_RANGE[1]))
    limit = 0.5 / max(_GRAM_CUT, 4.0 * rcond * rcond)
    bound, inv = _cond_bound(gram[batch], limit)
    batch[batch] = certified = bound < limit
    return batch, inv[certified]


def _decoupled_ls(basis, groups, axis_name, r, rcond, lam=0.0):
    # Solve min ||P_Omega(basis sol^T - obs)||^2 + lam ||sol||^2 one group at
    # a time; the ridge counts as r more observed rows sqrt(lam) I with value
    # 0, and the rows of each group must pin down all r coefficients.  Groups
    # whose Grams the Cholesky bound certifies as well-conditioned solve their
    # normal equations in one batch; lstsq, with its checks, takes the rest.
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
    sol = np.empty((gram.shape[0], r))
    # G^-1 b = C^-T (C^-1 b), with the inverses the certificate built.
    sol[batch] = np.einsum("gji,gj->gi", inv, np.einsum("gij,gj->gi", inv, rhs[batch]))
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
    r = L.shape[1]
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
    observed entries: O(|Omega| r^2) work for the r x r normal equations
    G = B^T B + lam I of every group, solved in one batch as C^-T (C^-1 b)
    with the inverse Cholesky factors of G = C C^T that certify the batch.
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
    r = L.shape[1]
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
    one-hot vertex.  Both projections are invariant to a positive scaling,
    so the iteration takes no step size.  The input point is projected
    before the first step, so every recorded iterate is feasible.  Returns
    (x, trace).
    """
    spec = FAMILIES[instance.family]
    if spec.project is None:
        raise ValueError("the projected power method handles phase "
                         "synchronization and joint alignment")
    max_iters = setting("max_iters", max_iters, "count")
    L = spec.matrix(instance)
    prev = None  # the point the last step started from

    def step(t, point, aux):
        nonlocal prev
        prev = point.x
        return FactorPoint.derived("vector", (spec.project(instance, L @ point.x),))

    def stop(trace, point):
        return prev is not None and np.array_equal(point.x, prev)

    point, trace = iterate(FactorPoint.vector(spec.project(instance, np.asarray(x0).ravel())),
                           lambda t, point: (_risk_row(instance, point), None),
                           step, max_iters, stop=stop)
    return point.x, trace
