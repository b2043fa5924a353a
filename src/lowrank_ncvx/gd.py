"""Gradient-descent solvers over the factor parameterizations.

Vanilla and regularized descent, projected steps, truncated and
median-truncated gradients, the alternating sparse-plus-low-rank loop, and
mini-batch steps.  The loop variants differ only in the per-iteration
weights or loss parameters they feed the shared loss dispatcher, so a
variant configured to do nothing reproduces the plain run bit for bit.
Without an explicit step they backtrack from the two-point step of Barzilai
and Borwein (1988), falling back to the last accepted step (see _descend).

trace_row builds every solver's trace row, here and in ``direct``.  Its
truth fields, dist (dist_to_truth) and incoh (incoherence_proxy), come from
one alignment of the point with the truth: the ``gap`` of the family's
problems.FAMILIES record, which declares the family's ambiguity.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import FactorPoint, check_fields, derive_seed, factored_svd, iterate, make_rng, setting
from .problems import FAMILIES, linear_operator, loss_and_grad, loss_value
from .spectral import sparse_part

_LOSS_TAGS = {tag for spec in FAMILIES.values() for tag in spec.losses}

# Truncation defaults; the radius pair brackets the bulk of |a_i^T x| / ||x||
# for Gaussian designs and the residual budget keeps a 1/alpha_h fraction.
DEFAULT_TWF_THRESHOLDS = (0.3, 5.0, 5.0)
_TINY = np.finfo(float).tiny

# The backtracking line search of default-step descent: a failed trial halves
# the step, at most _HALVINGS times in a row.
_HALVINGS = 60


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Descent solver settings.

    An explicit eta is a constant step.  eta None backtracks from the
    two-point step of Barzilai and Borwein (1988), falling back to the last
    accepted step (see _descend), except in mini-batch runs, which take
    default_step_size as their constant step.  max_iters counts trace rows,
    not loss evaluations: a backtracking row also evaluates the trials it
    rejects, which its trace records, so a run values len(trace) +
    sum(rejected) points and forms the gradient len(trace) times.  Stop
    rules are all optional: gradient norm <= grad_tol, distance to truth
    <= dist_tol, or a relative loss plateau |loss_prev - loss| <=
    plateau_tol * max(|loss_prev|, tiny).
    Whichever fires first ends the run with outcome "converged"; otherwise
    the run ends at max_iters, or earlier "diverged" by the single
    divergence rule of core.iterate.

    twf_thresholds = (alpha_lb, alpha_ub, alpha_h) and median_factor select
    the truncation rule in run_truncated_gd; batch_k turns run_gd into
    mini-batch descent seeded from `seed`; run_rpca's sparse budget is
    spectral.sparse_part's constant c = 3.  A field its entry point does
    not read must stay at its default, or the call raises ValueError.
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
    seed: int | None = None

    def __post_init__(self):
        check_fields(self, eta="positive bound", max_iters="count", grad_tol="bound",
                     dist_tol="bound", plateau_tol="bound", median_factor="positive bound",
                     batch_k="positive count")
        if self.loss not in _LOSS_TAGS:
            raise ValueError(f"unknown loss tag {self.loss!r}")
        if self.twf_thresholds is not None:
            lb, ub, ah = self.twf_thresholds
            if not (0 <= lb <= ub and ub > 0 and ah > 0):
                raise ValueError("truncation thresholds must satisfy "
                                 "0 <= alpha_lb <= alpha_ub and alpha_h > 0")
        if self.project is not None and not callable(self.project):
            raise ValueError("project must be callable")


# What _descend reads of a SolverConfig, but loss_params (see loss_params_fn)
_DESCENT_FIELDS = ("eta", "max_iters", "grad_tol", "dist_tol", "plateau_tol", "loss", "project")


def _reads_only(cfg, solver, reads):
    # Raise on a field of cfg outside ``reads`` that is not at its default.
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name not in reads and (value is not None if f.default is None
                                    else value != f.default):
            raise ValueError(f"{solver} does not read SolverConfig.{f.name}; "
                             "leave it at its default")


def default_step_size(instance, init):
    """The default step of the instance's family at init, scale-normalized
    by the init: the ``step`` rule of its problems.FAMILIES record, where
    the rules are declared.  It is the first trial step of a default-step
    run's line search (see _descend), and the constant step of a
    default-step mini-batch run.  A family without one raises."""
    step = FAMILIES[instance.family].step
    if step is None:
        raise ValueError(f"no default step for {instance.family}; pass eta explicitly")
    return step(instance, init)


# ---------------------------------------------------------------------------
# Trace metrics
# ---------------------------------------------------------------------------

def trace_row(instance, point, loss, grad, forward=None):
    """A solver's trace row at ``point`` with loss value ``loss`` and
    gradient ``grad``: loss, grad_norm, dist (dist_to_truth), incoh
    (incoherence_proxy) and, for phase retrieval, regularity_witness's terms
    rc_ip = <g, d>, rc_g2 = ||g||^2 and rc_d2 = ||d||^2, d = x - s x*.  The
    truth fields come from the ``gap`` of the family's problems.FAMILIES
    record.  ``forward`` is the shared A x or B h, if held.
    """
    gnorm = grad.norm()
    gap, d = FAMILIES[instance.family].gap(instance, point, forward)
    row = {"loss": loss, "grad_norm": gnorm, **gap}
    if d is not None:  # the terms of 2<g, d> >= mu ||g||^2 + lam ||d||^2
        row["rc_ip"], row["rc_g2"] = float(grad.parts[0] @ d), gnorm * gnorm
    return row


def dist_to_truth(instance, point):
    """The dist field of trace_row: the distance to the truth modulo the
    family's ambiguity (a rotation of X or of the balanced factors of L R^T,
    sign, complex scaling, phase or label shift; the last as a mismatch
    fraction).  A point that equals the truth bitwise reports exactly 0.0."""
    return FAMILIES[instance.family].gap(instance, point, None)[0]["dist"]


def incoherence_proxy(instance, point):
    """The incoh field of trace_row: max|A x - s A x*| for phase retrieval,
    the 2,inf norm of the aligned factor error (X, or the balanced factors of
    L R^T) for factor families, the design coherence of h for blind
    deconvolution, and 0.0 elsewhere."""
    return FAMILIES[instance.family].gap(instance, point, None)[0]["incoh"]


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def project_incoherent(X, bound_matrix_norm, mu, r=None):
    """Row-wise clip onto {X : ||X||_{2,inf} <= sqrt(2 mu r / n) * bound}.

    Each row is scaled by min(1, radius / ||row||); rows already inside pass
    through untouched, so the operation is idempotent up to roundoff.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-d factor matrix")
    n = X.shape[0]
    r = setting("r", X.shape[1] if r is None else r, "positive count")
    radius = math.sqrt(2.0 * setting("mu", mu, "positive bound") * r / n) \
        * setting("bound_matrix_norm", bound_matrix_norm, "bound")
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
    if setting("radius", radius, "bound") == 0:
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
    k = setting("k", k, "count")
    if k >= x.shape[0]:
        return x.copy()
    keep = np.argsort(-np.abs(x), kind="stable")[:k]
    out = np.zeros_like(x)
    out[keep] = x[keep]
    return out


def make_incoherent_projector(instance, init, mu=None):
    """Row-clip projector for completion-type runs, sized from the init:
    project_incoherent on each factor, at its constant c = 2.

    The radius uses the planted matrix's incoherence (or an explicit mu) and
    the init's spectral norm as the scale estimate, mirroring how the
    constraint set is specified relative to the first iterate.  Asymmetric
    points clip each factor against its own row count.  The default mu is
    core.incoherence_mu(M, r), computed from the core.factored_svd of the
    planted factors (X X^T, or L R^T) instead of a dense SVD of M: the row
    norms of its bases Q1, Q2 and, for the rank check, its values s.
    """
    if init.kind not in ("sym", "asym"):
        raise ValueError("incoherence projection applies to factor points only")
    t = instance.truth
    r = instance.params["r"]
    if mu is None:
        factors = (t["X"], t["X"]) if "X" in t else (t["L"], t["R"])
        Q1, _, s, _, Q2 = factored_svd(*factors)
        if s[-1] <= 1e-12 * max(s[0], _TINY):
            raise ValueError(f"planted matrix is numerically rank-deficient at rank {r}: "
                             f"sigma_r = {s[-1]:.3e}")
        mu = max(Q.shape[0] / r * float(np.max(np.sum(Q * Q, axis=1))) for Q in (Q1, Q2))
    bounds = [float(np.linalg.norm(F, 2)) for F in init.parts]

    def proj(point):
        return FactorPoint.derived(point.kind, tuple(
            project_incoherent(F, b, mu, r) for F, b in zip(point.parts, bounds)))

    return proj


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
    lb, ub, ah = map(float, thresholds)
    if not (0 <= lb <= ub and ub > 0 and ah > 0):
        raise ValueError("thresholds must satisfy 0 <= alpha_lb <= alpha_ub "
                         "and alpha_h > 0")
    x = np.asarray(x, dtype=float).ravel()
    A, y = instance.design["A"], instance.y
    m = instance.params["m"]
    c = A @ x if c is None else c
    ratio = np.abs(c) / max(float(np.linalg.norm(x)), _TINY)
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
    setting("factor", factor, "positive bound")
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

def _descend(instance, init, cfg, weights_fn=None, loss_params_fn=None):
    """Shared descent loop on core.iterate: each row evaluates the loss and
    gradient with the variant's weights and loss parameters, and the step
    moves along the negative gradient, then projects.

    A family with a shared product in its FAMILIES record (A x, B h) forms it
    once per row, for weights_fn(point, c), the loss and trace_row.

    With an explicit cfg.eta, or in mini-batch runs, the step is constant.
    Otherwise it backtracks (Armijo).  The first trial step is the two-point
    (BB2) step of Barzilai and Borwein (1988),

        eta0 = <s, y>_M / <y, y>_M,

    with s = x_t - x_{t-1} the last accepted trial's step (the delta the
    search formed for its test) and y = g_t - g_{t-1} the change of the
    reported gradient across it, both in the family's step metric at x_t.
    It falls back to the held step, default_step_size until a row accepts a
    step and the last accepted step from then on, on the first row, after a
    null step, and where <s, y>_M <= 0 or <y, y>_M = 0 (negative curvature,
    or a step that did not move the point, as at the truth).  A trial x+
    passes if

        f(x+) <= f(x) - ||x+ - x||_M^2 / (2 eta),

    with the family's step metric ||.||_M (its FAMILIES record) and the
    row's weights and loss parameters frozen; without a projection this is
    f(x+) <= f(x) - eta ||g||_M^2 / 2.  A projected run tests x+ after the
    projection in the proximal-gradient form of Beck and Teboulle,
    f(x+) <= f(x) + <g, x+ - x> + ||x+ - x||^2 / (2 eta), with the real
    inner product of the real factor points the projectors act on.  From x
    in a convex constraint set this implies the test above; from an init
    outside the set, where the test above can fail at every eta (x+ tends
    to the projection of x, not to x), a small enough eta still passes it.
    A failed trial halves eta, at most _HALVINGS times, after which the
    step is null (x+ = x) and the next row starts from the held step.
    Each trial is valued through problems.loss_value, which defers the
    gradient.  A plain run (no weights or loss parameters that move with x)
    hands the accepted trial's loss_value pair and shared product to the
    next row, which forms the gradient from it and evaluates nothing again;
    truncated and robust PCA rows reuse its shared product, value the point
    again with the gradient under their fresh weights or S, and drop the
    trial's gradient unformed.  So a run values len(trace) + sum(rejected)
    points and forms the gradient len(trace) times.
    """
    search = cfg.eta is None and cfg.batch_k is None
    eta = cfg.eta if cfg.eta is not None else default_step_size(instance, init)
    if weights_fn is None and cfg.batch_k is not None:
        draw = _batch_sampler(instance, cfg.batch_k)
        rng = make_rng(derive_seed(cfg.seed if cfg.seed is not None else 0, "minibatch"))
        weights_fn = lambda _point, _c: draw(rng)  # noqa: E731
    spec = FAMILIES[instance.family]
    shared, metric = spec.shared, spec.metric
    plain = weights_fn is None and loss_params_fn is None
    loss, params, project = cfg.loss, cfg.loss_params, cfg.project
    grad_tol, dist_tol, plateau_tol = cfg.grad_tol, cfg.dist_tol, cfg.plateau_tol
    # The line search's state: the fallback first trial step, the last row's
    # step s and gradient parts (s None before the first row and after a
    # null step), and the accepted trial (point, shared product, plain
    # loss_value pair or None) with its step and rejected trials, which the
    # next row reads.
    held = {"eta": eta, "point": None, "s": None}

    def evaluate(t, point):
        if held["point"] is point:
            c, fg = held["c"], held["fg"]
        else:
            c = shared(instance, point) if shared is not None else None
            fg = None
        w = weights_fn(point, c) if weights_fn is not None else None
        lp = loss_params_fn(point) if loss_params_fn is not None else params
        if fg is None:
            val, grad = loss_and_grad(instance, point, loss=loss, loss_params=lp, weights=w,
                                      forward=c)
        else:
            val, grad = fg[0], fg[1]()
        row = trace_row(instance, point, val, grad, c)
        if search:
            row["eta"], row["rejected"] = (held["taken"], held["rejected"]) if t else (math.nan, 0)
        return row, (val, grad, c, w, lp)

    def trial(point, grad, step):
        point = point.add_scaled(-step, grad.parts)
        return point if project is None else project(point)

    def constant(t, point, aux):
        return trial(point, aux[1], eta)

    def backtrack(t, point, aux):
        val, grad, c, w, lp = aux
        step, s, rejected = held["eta"], held["s"], 0
        if s is not None:  # the two-point (BB2) step <s, y>_M / <y, y>_M
            y = [a - b for a, b in zip(grad.parts, held["grad"])]
            sy, yy = metric(point, s, y), metric(point, y, y)
            if sy > 0.0 and yy > 0.0:
                step = sy / yy
        while True:
            new = trial(point, grad, step)
            delta = [q - p for p, q in zip(point.parts, new.parts)]
            moved = metric(point, delta, delta)
            if project is None:
                bound = val - moved / (2.0 * step)
            else:  # the proximal-gradient form
                linear = sum([float(np.vdot(g, d).real) for g, d in zip(grad.parts, delta)])
                bound = val + linear + moved / (2.0 * step)
            c_new = shared(instance, new) if shared is not None else None
            fg = loss_value(instance, new, loss=loss, loss_params=lp, weights=w, forward=c_new)
            if fg[0] <= bound:
                break
            rejected += 1
            if rejected > _HALVINGS:  # no decrease found: a null step
                held.update(point=point, c=c, fg=(val, lambda: grad) if plain else None,
                            rejected=rejected, taken=0.0, s=None)
                return point
            step *= 0.5
        held.update(point=new, c=c_new, fg=fg if plain else None, rejected=rejected,
                    taken=step, eta=step, s=delta, grad=grad.parts)
        return new

    def stop(trace, point):
        if grad_tol is not None and trace.grad_norm[-1] <= grad_tol:
            return True
        if dist_tol is not None and trace.dist[-1] <= dist_tol:
            return True
        if plateau_tol is None or len(trace) < 2:
            return False
        prev, val = trace.loss[-2:]
        return abs(prev - val) <= plateau_tol * max(abs(prev), _TINY)

    return iterate(init.copy(), evaluate, backtrack if search else constant, cfg.max_iters,
                   stop=stop)


def _batch_sampler(instance, k):
    # draw(rng): 0/1 weights on a uniform without-replacement batch of k of
    # the instance's m per-sample terms.
    m = instance.params.get("m")
    if m is None:
        raise ValueError(f"{instance.family} has no per-sample terms to subsample")
    k = setting("batch size", k, "count")
    if not 1 <= k <= m:
        raise ValueError(f"batch size must lie in [1, {m}]")

    def draw(rng):
        w = np.zeros(m)
        w[rng.choice(m, size=k, replace=False)] = 1.0
        return w

    return draw


def run_gd(instance, init, config=None):
    """Gradient descent from init: at the constant step config.eta, or, with
    eta None, at a backtracking step from the two-point step of Barzilai and
    Borwein (1988), falling back to the last accepted step (see _descend).

    Returns (final point, trace).  The trace holds one row per visited
    iterate including the init, and trace.outcome reports how the run ended:
    "converged" (a stop rule fired), "max_iters", or "diverged" (non-finite
    numbers or loss blowup; never an exception).  A backtracking run's trace
    has two extra columns: "eta", the step that produced the row, and
    "rejected", the trials the line search refused before it.  Row 0, the
    init, holds eta nan and rejected 0; a null step (see _descend) holds
    eta 0.0.  So the run evaluates the loss len(trace) + sum(rejected)
    times and forms the gradient len(trace) times, once per row.
    """
    cfg = SolverConfig() if config is None else config
    _reads_only(cfg, "run_gd", _DESCENT_FIELDS + ("loss_params", "batch_k", "seed"))
    return _descend(instance, init, cfg)


def run_truncated_gd(instance, init, config=None):
    """Gradient descent with a per-iteration sample mask.

    The mask is recomputed at every iterate: the threshold rule from
    config.twf_thresholds, or the median rule when config.median_factor is
    set (setting both is an error).  Masked samples get weight zero, so a
    rule that keeps everything reproduces run_gd bit for bit.
    """
    cfg = SolverConfig() if config is None else config
    if cfg.twf_thresholds is not None and cfg.median_factor is not None:
        raise ValueError("choose threshold or median truncation, not both")
    _reads_only(cfg, "run_truncated_gd",
                _DESCENT_FIELDS + ("loss_params", "twf_thresholds", "median_factor"))
    if cfg.median_factor is not None:
        factor = cfg.median_factor

        def keep(point, c):
            return median_mask(instance, point.x, factor, c).astype(float)
    else:
        thresholds = DEFAULT_TWF_THRESHOLDS if cfg.twf_thresholds is None else cfg.twf_thresholds

        def keep(point, c):
            return twf_mask(instance, point.x, thresholds, c).astype(float)

    return _descend(instance, init, cfg, weights_fn=keep)


def run_rpca(instance, init, S_init, config=None):
    """Alternating sparse-residual thresholding and projected factor steps.

    Each iteration refreshes the sparse part S from the observed residual
    by spectral.sparse_part (at its constant c = 3), then takes one (optionally
    projected) gradient step on the factor at the refreshed S.  The first
    step uses S_init.  Returns (final point, final S, trace).
    """
    if instance.family != "RobustPCA":
        raise ValueError("expected a robust PCA instance")
    cfg = SolverConfig() if config is None else config
    _reads_only(cfg, "run_rpca", _DESCENT_FIELDS)
    op = linear_operator(instance)
    state = {"S": np.zeros(op.shape) if S_init is None else np.array(S_init, dtype=float),
             "fresh": False}

    def refresh(point):
        if state["fresh"]:
            A, B = (point.X, point.X) if point.kind == "sym" else (point.L, point.R)
            state["S"] = sparse_part(instance, instance.y - op.measure_factors(A, B))
        state["fresh"] = True
        return {"S": state["S"]}

    final, trace = _descend(instance, init, cfg, loss_params_fn=refresh)
    return final, state["S"], trace


# ---------------------------------------------------------------------------
# Stochastic single steps
# ---------------------------------------------------------------------------

def sgd_step(instance, point, k, eta, rng):
    """One mini-batch step: a uniform without-replacement batch of k sample
    gradients, summed and scaled by 1/m.  At k = m this is exactly the full
    gradient step; at k < m the expected direction is (k/m) times the full
    gradient, so the scaling is conservative rather than unbiased."""
    _, grad = loss_and_grad(instance, point, weights=_batch_sampler(instance, k)(rng))
    return point.add_scaled(-float(setting("eta", eta, "positive bound")), grad.parts)


# ---------------------------------------------------------------------------
# Trajectory diagnostics
# ---------------------------------------------------------------------------

def fitted_rate(trace):
    """Least-squares slope of log(dist) against iteration over the trailing
    half of the positive distances; returns (slope, per-iteration ratio)."""
    d = np.asarray(trace.dist, dtype=float)
    t = np.asarray(trace.iters, dtype=float)
    keep = np.isfinite(d) & (d > 0)
    d, t = d[keep], t[keep]
    start = int(round(d.shape[0] * 0.5))
    d, t = d[start:], t[start:]
    if d.shape[0] < 2:
        raise ValueError("need at least two positive distances to fit a rate")
    slope = float(np.polyfit(t, np.log(d), 1)[0])
    return slope, math.exp(slope)


def regularity_witness(trace):
    """Best fraction of iterations satisfying the two-point inequality
    2<g, x - x*> >= mu ||g||^2 + lam ||x - x*||^2 over the log grid
    logspace(-3, 3, 25) of each of mu and lam; the first best pair wins.

    A diagnostic, not a certificate: the constants are unobservable, so the
    fit simply reports how consistently the trajectory behaved like one with
    a regularity margin.  Requires the witness terms recorded on vector runs.
    """
    ip = np.asarray(trace.extras.get("rc_ip", ()), dtype=float)
    if ip.size == 0:
        raise ValueError("trace carries no witness terms")
    g2 = np.asarray(trace.extras["rc_g2"], dtype=float)
    d2 = np.asarray(trace.extras["rc_d2"], dtype=float)
    grid = np.logspace(-3.0, 3.0, 25)
    best = {"mu": float(grid[0]), "lam": float(grid[0]), "fraction": -1.0}
    for mu in grid:
        slack = 2.0 * ip - mu * g2
        for lam in grid:
            frac = float(np.mean(slack - lam * d2 >= 0.0))
            if frac > best["fraction"]:
                best = {"mu": float(mu), "lam": float(lam), "fraction": frac}
    return best
