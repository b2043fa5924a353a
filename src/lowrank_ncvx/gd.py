"""Gradient-descent solvers over the factor parameterizations.

Vanilla and regularized descent, projected steps, truncated and
median-truncated gradients, the alternating sparse-plus-low-rank loop,
geodesic steps for completion with an orthonormal basis, and mini-batch
steps.  The loop variants differ only in the per-iteration weights or loss
parameters they feed the shared loss dispatcher, so a variant configured to
do nothing reproduces the plain run bit for bit.

trace_row builds every solver's trace row, here and in ``direct``, from one
alignment of the point with the truth; dist_to_truth and incoherence_proxy
are two of its fields.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FactorPoint,
    bd_incoherence,
    derive_seed,
    dist_bd,
    dist_vector,
    incoherence_mu,
    iterate,
    make_rng,
    max_row_norm,
    procrustes,
)
from .problems import (FAMILIES, EntryGroups, linear_operator, loss_and_grad,
                       truth_forward)
from .spectral import hard_threshold

_LOSS_TAGS = {tag for spec in FAMILIES.values() for tag in spec.losses}

# Truncation defaults; the radius pair brackets the bulk of |a_i^T x| / ||x||
# for Gaussian designs and the residual budget keeps a 1/alpha_h fraction.
DEFAULT_TWF_THRESHOLDS = (0.3, 5.0, 5.0)
DEFAULT_MEDIAN_FACTOR = 5.0


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Constant-step solver settings.

    eta None defers to default_step_size at run time.  Stop rules are all
    optional: gradient norm <= grad_tol, distance to truth <= dist_tol, or a
    relative loss plateau |loss_prev - loss| <= plateau_tol * max(|loss_prev|,
    tiny).  Whichever fires first ends the run with outcome "converged";
    otherwise the run ends at max_iters, or earlier "diverged" by the single
    divergence rule of core.iterate.

    twf_thresholds = (alpha_lb, alpha_ub, alpha_h) and median_factor select
    the truncation rule in run_truncated_gd; batch_k turns run_gd into
    mini-batch descent seeded from `seed`; c_thresh scales the sparse
    residual budget in run_rpca.
    """

    eta: float | None = None
    max_iters: int = 500
    grad_tol: float | None = None
    dist_tol: float | None = None
    plateau_tol: float | None = None
    loss: str = "plain"
    loss_params: dict | None = None
    project: object | None = None
    twf_thresholds: tuple | None = None
    median_factor: float | None = None
    batch_k: int | None = None
    c_thresh: float = 3.0
    seed: int | None = None

    def __post_init__(self):
        if self.eta is not None and not self.eta > 0:
            raise ValueError("step size must be positive")
        if int(self.max_iters) != self.max_iters or self.max_iters < 0:
            raise ValueError("max_iters must be a nonnegative integer")
        self.max_iters = int(self.max_iters)
        for name in ("grad_tol", "dist_tol", "plateau_tol"):
            v = getattr(self, name)
            if v is not None and not v >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.loss not in _LOSS_TAGS:
            raise ValueError(f"unknown loss tag {self.loss!r}")
        if self.twf_thresholds is not None:
            lb, ub, ah = self.twf_thresholds
            if not (0 <= lb <= ub and ub > 0 and ah > 0):
                raise ValueError("truncation thresholds must satisfy "
                                 "0 <= alpha_lb <= alpha_ub and alpha_h > 0")
        if self.median_factor is not None and not self.median_factor > 0:
            raise ValueError("median factor must be positive")
        if self.batch_k is not None and (int(self.batch_k) != self.batch_k
                                         or self.batch_k < 1):
            raise ValueError("batch size must be a positive integer")
        if not self.c_thresh > 0:
            raise ValueError("c_thresh must be positive")
        if self.project is not None and not callable(self.project):
            raise ValueError("project must be callable")


def default_step_size(instance, init):
    """Per-family constant step, scale-normalized by the init.

    Truth scales are never consulted: the init's norms stand in for them,
    which is what a spectral initialization estimates anyway.  Rank-1
    factorization and rank-1 sensing use the sharper constants their local
    convergence rates allow; the remaining families use conservative
    fractions of 1/sigma_1.
    """
    fam = instance.family
    tiny = np.finfo(float).tiny
    if fam == "PhaseRetrieval":
        return 0.1 / max(float(np.sum(np.abs(init.x) ** 2)), tiny)
    if fam == "BlindDeconv":
        return 0.1
    if fam == "QuadraticSensing":
        s = np.linalg.svd(init.X, compute_uv=False)
        lam = s * s
        r = init.X.shape[1]
        kappa = lam[0] / max(lam[-1], tiny)
        n = instance.params["n"]
        return 1.0 / max((r * kappa + math.log(n)) ** 2 * lam[0], tiny)
    if fam in ("PhaseSync", "JointAlignment"):
        raise ValueError(f"no default step for {fam}; pass eta explicitly")
    if init.kind == "sym":
        top = float(np.linalg.norm(init.X, 2)) ** 2
    elif init.kind == "asym":
        top = float(np.linalg.norm(init.L, 2)) * float(np.linalg.norm(init.R, 2))
    else:
        raise ValueError(f"unexpected point kind {init.kind!r} for {fam}")
    top = max(top, tiny)
    if fam == "MatrixSensingSym" and init.X.shape[1] == 1:
        return 1.0 / (3.0 * top)
    if fam in ("MatrixSensingSym", "MatrixSensingAsym"):
        return 0.4 / top
    if fam == "MatrixCompletionSym" and instance.params["p"] == 1.0 \
            and init.X.shape[1] == 1:
        return 1.0 / (4.5 * top)
    return 0.25 / top  # completion and robust PCA


# ---------------------------------------------------------------------------
# Trace metrics
# ---------------------------------------------------------------------------

def trace_row(instance, point, loss, grad, forward=None):
    """A solver's trace row at ``point`` with loss value ``loss`` and
    gradient ``grad``: loss, grad_norm, dist (dist_to_truth), incoh
    (incoherence_proxy) and, for phase retrieval, regularity_witness's terms
    rc_ip = <g, d>, rc_g2 = ||g||^2 and rc_d2 = ||d||^2, d = x - s x*.  The
    truth metrics share one alignment: a Procrustes rotation, a sign-aligned
    difference, or dist_bd.  ``forward`` is the shared A x or B h, if held.
    """
    gnorm = grad.norm()
    gap, d = _truth_gap(instance, point, forward)
    row = {"loss": loss, "grad_norm": gnorm, **gap}
    if d is not None:  # the terms of 2<g, d> >= mu ||g||^2 + lam ||d||^2
        row["rc_ip"], row["rc_g2"] = float(grad.x @ d), gnorm * gnorm
    return row


def _truth_gap(instance, point, forward):
    # ({"dist", "incoh"[, "rc_d2"]}, d) for trace_row; d is the aligned
    # difference of a phase-retrieval point and None elsewhere.
    t = instance.truth
    if point.kind in ("sym", "asym"):
        F, Fs = (point.X, t["X"]) if point.kind == "sym" else (
            np.vstack((point.L, point.R)), np.vstack((t["L"], t["R"])))
        D = F @ procrustes(F, Fs) - Fs
        dist = 0.0 if np.array_equal(F, Fs) else float(np.linalg.norm(D))
        return {"dist": dist, "incoh": max_row_norm(D)}, None
    if point.kind == "pair":
        h, x = point.h, point.x
        # A collapsed pair makes the scaling ambiguity vacuous.  An exact
        # test: the norm of a tiny nonzero factor underflows to 0.
        dist = dist_bd(h, x, t["h"], t["x"]) if h.any() and x.any() \
            else float(np.hypot(np.linalg.norm(t["h"]), np.linalg.norm(t["x"])))
        incoh = bd_incoherence(h, instance.design["B"], forward) if h.any() else 0.0
        return {"dist": dist, "incoh": incoh}, None
    if instance.family == "PhaseRetrieval":
        x, xs = point.x, t["x"]
        c = instance.design["A"] @ x if forward is None else forward
        s = -1.0 if float(x @ xs) < 0.0 else 1.0
        d = x - s * xs
        d2 = float(d @ d)
        incoh = float(np.abs(c - s * truth_forward(instance)).max())
        return {"dist": math.sqrt(d2), "incoh": incoh, "rc_d2": d2}, d
    if instance.family == "JointAlignment":
        dist = alignment_mismatch(point.x, t["x"], instance.params["alphabet_m"])
    else:
        dist = 0.0 if np.array_equal(point.x, t["x"]) else dist_vector(point.x, t["x"])
    return {"dist": dist, "incoh": 0.0}, None


def dist_to_truth(instance, point):
    """Family-appropriate distance: aligned factor distance for matrix
    families (stacked factors when asymmetric), sign/phase-minimized l2 for
    vector families, scale-minimized pair distance for bilinear pairs, and
    shift-minimized label mismatch fraction for alignment.

    A point that equals the truth bitwise reports exactly 0.0, so a solver
    parked at the truth logs an identically zero column.  This is the dist
    field of trace_row.
    """
    return _truth_gap(instance, point, None)[0]["dist"]


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


def incoherence_proxy(instance, point):
    """Alignment between the error and the design: max_i |a_i^T (x - x*)|
    for phase retrieval (sign-aligned, computed as max|A x - s A x*|), the
    2,inf norm of the aligned factor error for matrix families, and the
    design-coherence of h for bilinear pairs.  Families without a meaningful
    proxy report 0.0.  This is the incoh field of trace_row.
    """
    return _truth_gap(instance, point, None)[0]["incoh"]


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def project_incoherent(X, bound_matrix_norm, c, mu, r=None):
    """Row-wise clip onto {X : ||X||_{2,inf} <= sqrt(c mu r / n) * bound}.

    Each row is scaled by min(1, radius / ||row||); rows already inside pass
    through untouched, so the operation is idempotent up to roundoff.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-d factor matrix")
    n = X.shape[0]
    r = X.shape[1] if r is None else int(r)
    if bound_matrix_norm < 0 or c <= 0 or mu <= 0 or r < 1:
        raise ValueError("need nonnegative bound and positive c, mu, r")
    radius = math.sqrt(c * mu * r / n) * bound_matrix_norm
    norms = np.sqrt(np.sum(X * X, axis=1))
    scale = np.ones(n)
    over = norms > radius
    scale[over] = radius / norms[over]
    return scale[:, None] * X


def project_l1(x, radius):
    """Euclidean projection onto the l1 ball of the given radius.

    Sorted soft-threshold search: the threshold is the largest theta >= 0
    with sum(max(|x| - theta, 0)) = radius, found from the sorted magnitudes
    in closed form.
    """
    x = np.asarray(x, dtype=float)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return np.zeros_like(x)
    a = np.abs(x)
    if float(a.sum()) <= radius:
        return x.copy()
    u = np.sort(a)[::-1]
    excess = np.cumsum(u) - radius
    j = np.arange(1, u.shape[0] + 1)
    rho = int(np.max(np.nonzero(u > excess / j)[0]))
    theta = excess[rho] / (rho + 1.0)
    return np.sign(x) * np.maximum(a - theta, 0.0)


def project_sparse_k(x, k):
    """Best k-term approximation: keep the k largest magnitudes, zero the
    rest.  Ties break toward lower indices so the output is deterministic."""
    x = np.asarray(x)
    if int(k) != k or k < 0:
        raise ValueError("k must be a nonnegative integer")
    k = int(k)
    if k >= x.shape[0]:
        return x.copy()
    keep = np.argsort(-np.abs(x), kind="stable")[:k]
    out = np.zeros_like(x)
    out[keep] = x[keep]
    return out


def make_incoherent_projector(instance, init, c=2.0, mu=None):
    """Row-clip projector for completion-type runs, sized from the init.

    The radius uses the planted matrix's incoherence (or an explicit mu) and
    the init's spectral norm as the scale estimate, mirroring how the
    constraint set is specified relative to the first iterate.  Asymmetric
    points clip each factor against its own row count.
    """
    t = instance.truth
    r = instance.params["r"]
    if mu is None:
        mu = incoherence_mu(t["M"], r)
    if init.kind == "sym":
        bound = float(np.linalg.norm(init.X, 2))

        def proj(point):
            return FactorPoint("sym", (project_incoherent(point.X, bound, c, mu, r),))

        return proj
    if init.kind == "asym":
        bl = float(np.linalg.norm(init.L, 2))
        br = float(np.linalg.norm(init.R, 2))

        def proj(point):
            return FactorPoint("asym", (
                project_incoherent(point.L, bl, c, mu, r),
                project_incoherent(point.R, br, c, mu, r),
            ))

        return proj
    raise ValueError("incoherence projection applies to factor points only")


# ---------------------------------------------------------------------------
# Sample truncation masks
# ---------------------------------------------------------------------------

def twf_mask(instance, x, thresholds, c=None):
    """Boolean keep-mask for truncated descent on phase retrieval.

    Sample i survives iff alpha_lb <= |a_i^T x| / ||x|| <= alpha_ub and
    |y_i - (a_i^T x)^2| <= (alpha_h / m) * sum_j |y_j - (a_j^T x)^2| *
    |a_i^T x| / ||x||.  An infinite alpha_h disables the residual clause
    outright (rather than evaluating inf * 0 at zero residuals).  ``c`` is
    the forward product A x when the caller already holds it.
    """
    if instance.family != "PhaseRetrieval":
        raise ValueError("truncation masks are defined for phase retrieval")
    lb, ub, ah = (float(v) for v in thresholds)
    if not (0 <= lb <= ub and ub > 0 and ah > 0):
        raise ValueError("thresholds must satisfy 0 <= alpha_lb <= alpha_ub "
                         "and alpha_h > 0")
    x = np.asarray(x, dtype=float).ravel()
    A, y = instance.design["A"], instance.y
    m = instance.params["m"]
    c = A @ x if c is None else c
    ratio = np.abs(c) / max(float(np.linalg.norm(x)), np.finfo(float).tiny)
    keep = (ratio >= lb) & (ratio <= ub)
    if math.isfinite(ah):
        resid = np.abs(y - c * c)
        keep &= resid <= (ah / m) * float(resid.sum()) * ratio
    return keep


def median_mask(instance, x, factor, c=None):
    """Keep samples whose absolute residual is within factor times the median
    absolute residual; the median is the lower middle order statistic when m
    is even.  An infinite factor keeps everything.  ``c`` is the forward
    product A x when the caller already holds it."""
    if instance.family != "PhaseRetrieval":
        raise ValueError("truncation masks are defined for phase retrieval")
    if not factor > 0:
        raise ValueError("factor must be positive")
    x = np.asarray(x, dtype=float).ravel()
    c = instance.design["A"] @ x if c is None else c
    resid = np.abs(instance.y - c * c)
    if not math.isfinite(factor):
        return np.ones(resid.shape[0], dtype=bool)
    k = (resid.shape[0] - 1) // 2
    return resid <= factor * float(np.partition(resid, k)[k])


# ---------------------------------------------------------------------------
# The descent engine
# ---------------------------------------------------------------------------

def _resolve_config(config):
    return SolverConfig() if config is None else config


def _descend(instance, init, cfg, weights_fn=None, loss_params_fn=None):
    """Shared constant-step loop on core.iterate: each row evaluates the loss
    and gradient with the variant's weights and loss parameters, and the
    step moves along the negative gradient, then projects.

    A family with a shared product in its FAMILIES record (A x, B h) forms it
    once per row, for weights_fn(point, c), the loss and trace_row.
    """
    eta = cfg.eta if cfg.eta is not None else default_step_size(instance, init)
    if weights_fn is None and cfg.batch_k is not None:
        draw = _batch_sampler(instance, cfg.batch_k)
        rng = make_rng(derive_seed(cfg.seed if cfg.seed is not None else 0, "minibatch"))
        weights_fn = lambda _point, _c: draw(rng)  # noqa: E731
    shared = FAMILIES[instance.family].shared

    def evaluate(t, point):
        c = shared(instance, point) if shared is not None else None
        w = weights_fn(point, c) if weights_fn is not None else None
        lp = loss_params_fn(point) if loss_params_fn is not None else cfg.loss_params
        val, grad = loss_and_grad(instance, point, loss=cfg.loss,
                                  loss_params=lp, weights=w, forward=c)
        return trace_row(instance, point, val, grad, c), grad

    def step(t, point, grad):
        point = point.add_scaled(-eta, grad.parts)
        return point if cfg.project is None else cfg.project(point)

    def stop(trace, point):
        if cfg.grad_tol is not None and trace.grad_norm[-1] <= cfg.grad_tol:
            return True
        if cfg.dist_tol is not None and trace.dist[-1] <= cfg.dist_tol:
            return True
        if cfg.plateau_tol is None or len(trace) < 2:
            return False
        prev, val = trace.loss[-2:]
        return abs(prev - val) <= cfg.plateau_tol * max(abs(prev), np.finfo(float).tiny)

    return iterate(init.copy(), evaluate, step, cfg.max_iters, stop=stop)


def _batch_sampler(instance, k):
    # draw(rng): 0/1 weights on a uniform without-replacement batch of k of
    # the instance's m per-sample terms.
    m = instance.params.get("m")
    if m is None:
        raise ValueError(f"{instance.family} has no per-sample terms to subsample")
    if int(k) != k or not 1 <= k <= m:
        raise ValueError(f"batch size must lie in [1, {m}]")

    def draw(rng):
        w = np.zeros(m)
        w[rng.choice(m, size=int(k), replace=False)] = 1.0
        return w

    return draw


def run_gd(instance, init, config=None):
    """Constant-step gradient descent from init.

    Returns (final point, trace).  The trace holds one row per visited
    iterate including the init, and trace.outcome reports how the run ended:
    "converged" (a stop rule fired), "max_iters", or "diverged" (non-finite
    numbers or loss blowup; never an exception).
    """
    return _descend(instance, init, _resolve_config(config))


def run_truncated_gd(instance, init, config=None):
    """Gradient descent with a per-iteration sample mask.

    The mask is recomputed at every iterate: the threshold rule from
    config.twf_thresholds, or the median rule when config.median_factor is
    set (setting both is an error).  Masked samples get weight zero, so a
    rule that keeps everything reproduces run_gd bit for bit.
    """
    cfg = _resolve_config(config)
    if cfg.twf_thresholds is not None and cfg.median_factor is not None:
        raise ValueError("choose threshold or median truncation, not both")
    if cfg.batch_k is not None:
        raise ValueError("truncation and mini-batching cannot be combined")
    if cfg.median_factor is not None:
        factor = cfg.median_factor

        def keep(point, c):
            return median_mask(instance, point.x, factor, c).astype(float)
    else:
        thresholds = cfg.twf_thresholds
        if thresholds is None:
            thresholds = DEFAULT_TWF_THRESHOLDS

        def keep(point, c):
            return twf_mask(instance, point.x, thresholds, c).astype(float)

    return _descend(instance, init, cfg, weights_fn=keep)


def run_rpca(instance, init, S_init, config=None):
    """Alternating sparse-residual thresholding and projected factor steps.

    Each iteration refreshes the sparse part S by keeping, per row and per
    column of the observed residual, the ceil(c_thresh * alpha_out * p * n)
    largest magnitudes, then takes one (optionally projected) gradient step
    on the factor at the refreshed S.  The first step uses S_init.  Returns
    (final point, final S, trace).
    """
    if instance.family != "RobustPCA":
        raise ValueError("expected a robust PCA instance")
    cfg = _resolve_config(config)
    if cfg.batch_k is not None:
        raise ValueError("the sparse-plus-low-rank loop is full-gradient only")
    p = instance.params
    budget = cfg.c_thresh * p["alpha_out"] * p["p"]
    l_row = math.ceil(budget * p["n2"])
    l_col = math.ceil(budget * p["n1"])
    op = linear_operator(instance)
    state = {"S": np.zeros(op.shape) if S_init is None else np.array(S_init, dtype=float),
             "fresh": False}

    def refresh(point):
        if state["fresh"]:
            A, B = (point.X, point.X) if point.kind == "sym" else (point.L, point.R)
            resid = op.adjoint(instance.y - op.measure_factors(A, B)).toarray()
            state["S"] = hard_threshold(resid, l_row, l_col)
        state["fresh"] = True
        return {"S": state["S"]}

    final, trace = _descend(instance, init, cfg, loss_params_fn=refresh)
    return final, state["S"], trace


# ---------------------------------------------------------------------------
# Geodesic and stochastic single steps
# ---------------------------------------------------------------------------

def grassmann_step(instance, L, eta, form="auto"):
    """One geodesic descent step on the orthonormal-basis formulation of
    completion: solve the observed-entry least squares for the right factor
    exactly, project the resulting gradient to the horizontal space, and move
    along the geodesic with step eta.

    form "general" uses the compact SVD of the negative projected gradient;
    "rank1" uses the closed form cos(s eta) L - sin(s eta)/s * grad available
    at r = 1; "auto" picks by column count.  The two agree at r = 1.
    """
    if instance.family not in ("MatrixCompletionSym", "MatrixCompletionAsym"):
        raise ValueError("geodesic steps are defined for completion instances")
    L = np.asarray(L, dtype=float)
    if L.ndim != 2:
        raise ValueError("expected a 2-d basis matrix")
    n1, r = L.shape
    if not np.allclose(L.T @ L, np.eye(r), atol=1e-8):
        raise ValueError("basis columns must be orthonormal within 1e-8")
    if form not in ("auto", "general", "rank1"):
        raise ValueError(f"unknown form {form!r}")
    if form == "rank1" and r != 1:
        raise ValueError("the rank-1 form needs a single column")
    n2 = instance.params["n2"]
    op = linear_operator(instance)
    rows, cols = op.index
    G, b = EntryGroups.of(cols, rows, instance.y, n2).normal_equations(L)
    w = np.linalg.eigvalsh(G)
    singular = w[:, 0] <= 1e-12 * np.maximum(w[:, -1], np.finfo(float).tiny)
    if singular.any():
        raise ValueError("least-squares normal matrix is singular at column "
                         f"{np.argmax(singular)}")
    R = np.linalg.solve(G, b[..., None])[..., 0]
    grad = -2.0 * (op.adjoint(instance.y - op.measure_factors(L, R)) @ R)
    grad -= L @ (L.T @ grad)
    if form == "rank1" or (form == "auto" and r == 1):
        s = float(np.linalg.norm(grad))
        if s == 0.0:
            return L.copy()
        return math.cos(s * eta) * L - (math.sin(s * eta) / s) * grad
    U, sv, Vt = np.linalg.svd(-grad, full_matrices=False)
    if sv[0] == 0.0:
        return L.copy()
    return (L @ Vt.T) @ (np.cos(sv * eta)[:, None] * Vt) \
        + U @ (np.sin(sv * eta)[:, None] * Vt)


def sgd_step(instance, point, k, eta, rng):
    """One mini-batch step: a uniform without-replacement batch of k sample
    gradients, summed and scaled by 1/m.  At k = m this is exactly the full
    gradient step; at k < m the expected direction is (k/m) times the full
    gradient, so the scaling is conservative rather than unbiased."""
    _, grad = loss_and_grad(instance, point, weights=_batch_sampler(instance, k)(rng))
    return point.add_scaled(-float(eta), grad.parts)


# ---------------------------------------------------------------------------
# Trajectory diagnostics
# ---------------------------------------------------------------------------

def fitted_rate(trace, tail=0.5):
    """Least-squares slope of log(dist) against iteration over the trailing
    fraction of the trace; returns (slope, per-iteration ratio)."""
    if not 0 < tail <= 1:
        raise ValueError("tail must lie in (0, 1]")
    d = np.asarray(trace.dist, dtype=float)
    t = np.asarray(trace.iters, dtype=float)
    keep = np.isfinite(d) & (d > 0)
    d, t = d[keep], t[keep]
    start = int(round(d.shape[0] * (1.0 - tail)))
    d, t = d[start:], t[start:]
    if d.shape[0] < 2:
        raise ValueError("need at least two positive distances to fit a rate")
    slope = float(np.polyfit(t, np.log(d), 1)[0])
    return slope, math.exp(slope)


def regularity_witness(trace, mu_grid=None, lam_grid=None):
    """Best fraction of iterations satisfying the two-point inequality
    2<g, x - x*> >= mu ||g||^2 + lam ||x - x*||^2 over a log grid of
    positive (mu, lam).

    A diagnostic, not a certificate: the constants are unobservable, so the
    fit simply reports how consistently the trajectory behaved like one with
    a regularity margin.  Requires the witness terms recorded on vector runs.
    """
    ip = np.asarray(trace.extras.get("rc_ip", ()), dtype=float)
    if ip.size == 0:
        raise ValueError("trace carries no witness terms")
    g2 = np.asarray(trace.extras["rc_g2"], dtype=float)
    d2 = np.asarray(trace.extras["rc_d2"], dtype=float)
    if mu_grid is None:
        mu_grid = np.logspace(-3.0, 3.0, 25)
    if lam_grid is None:
        lam_grid = np.logspace(-3.0, 3.0, 25)
    best = {"mu": float(mu_grid[0]), "lam": float(lam_grid[0]), "fraction": -1.0}
    for mu in mu_grid:
        slack = 2.0 * ip - mu * g2
        for lam in lam_grid:
            frac = float(np.mean(slack - lam * d2 >= 0.0))
            if frac > best["fraction"]:
                best = {"mu": float(mu), "lam": float(lam), "fraction": frac}
    return best
