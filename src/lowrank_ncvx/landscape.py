"""Critical-point anatomy and saddle-escape tools for small dense models.

The rank-1 factorization objective f(x) = ||xx^T - M||_F^2 / 4 admits a
complete census of its critical points from the eigenpairs of M.  This
module materializes that census, labels arbitrary points from dense Hessian
eigenvalues, certifies the strict-saddle trichotomy, and implements the
escape mechanisms: iterate perturbation on top of plain descent, and exact
trust-region and cubic-regularized steps, which share one shifted-eigen
subproblem solve and differ only in the step length the shift must produce.
Two descent studies round it out, one from wide random inits on phase
retrieval and one on the over-parametrized square-factor lift, which
evaluates the families' own losses through loss_and_grad.  The perturbed
walk and the lifted descent run on core.iterate, which owns their stop and
divergence rules.

Everything here is an analysis tool, not a production solver: Hessians are
formed explicitly and eigendecomposed, so the subproblem solvers refuse
inputs beyond a small dense cap.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import FactorPoint, derive_seed, falls_to, iterate, make_rng
from .gd import SolverConfig, _reads_only, run_gd
from .problems import FAMILIES, gen_phase_retrieval, loss_and_grad

_KINDS = ("global_min", "local_max", "strict_saddle", "degenerate")
_DENSE_CAP = 200


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class CriticalPoint:
    """One critical point with its second-order classification.

    hessian_extremes holds (lambda_min, lambda_max) of the Hessian at the
    point.  kind is "global_min", "local_max", "strict_saddle", or
    "degenerate"; the last is a refusal to classify, used when the bottom
    eigenvalue sits too close to zero for its sign to mean anything.
    """

    location: np.ndarray
    kind: str
    grad_norm: float
    hessian_extremes: tuple


@dataclass
class SaddleEscapeConfig:
    """Settings for perturbed descent and the escape subproblems.

    The perturbation fires when the gradient norm drops to `trigger` or
    below and at least `cooldown` iterations have passed since the last
    injection; the iterate then moves by a uniform draw from the sphere of
    radius `radius` before the usual step.  A zero trigger disables
    injection outright, reducing the walk to plain descent.  grad_tol,
    when set, stops the walk once the recorded gradient norm falls to it;
    core.iterate owns the stop and divergence tests.  The trust-region and
    cubic steps take their radius and Lipschitz estimate as arguments, not
    from here.
    """

    eta: float
    radius: float = 1e-3
    trigger: float = 0.0
    cooldown: int = 25
    max_iters: int = 1000
    grad_tol: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("step size must be positive")
        if not self.radius > 0:
            raise ValueError("perturbation radius must be positive")
        if not self.trigger >= 0:
            raise ValueError("trigger threshold must be nonnegative")
        if int(self.cooldown) != self.cooldown or self.cooldown < 1:
            raise ValueError("cooldown must be a positive integer")
        self.cooldown = int(self.cooldown)
        if int(self.max_iters) != self.max_iters or self.max_iters < 0:
            raise ValueError("max_iters must be a nonnegative integer")
        self.max_iters = int(self.max_iters)
        if self.grad_tol is not None and not self.grad_tol >= 0:
            raise ValueError("grad_tol must be nonnegative")


@dataclass(frozen=True)
class LandscapeOracle:
    """Loss, gradient, and Hessian of a scalar objective over flat vectors.

    hess_source records how the Hessian is produced: "analytic" when a
    closed form is implemented, "finite_difference" otherwise.  minima
    lists known global minimizers (both signs where the model has the sign
    ambiguity); the escape walks use it for their distance column and it
    defaults empty.
    """

    loss: object
    grad: object
    hess: object
    hess_source: str
    minima: tuple = ()


# ---------------------------------------------------------------------------
# Hessians and oracle factories
# ---------------------------------------------------------------------------

def _check_symmetric(M, what="M"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    scale = float(np.max(np.abs(M), initial=0.0))
    if float(np.max(np.abs(M - M.T), initial=0.0)) > 1e-12 * (1.0 + scale):
        raise ValueError(f"{what} must be symmetric")
    # Kill roundoff skew so downstream algebra stays exactly symmetric.
    return 0.5 * (M + M.T)


def rank1_hessian(M, x):
    """Hessian of f(x) = ||xx^T - M||_F^2 / 4 at x: ||x||^2 I + 2 xx^T - M."""
    M = _check_symmetric(M)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != M.shape[0]:
        raise ValueError("x must match M's dimension")
    H = 2.0 * np.outer(x, x) - M
    H[np.diag_indices_from(H)] += float(x @ x)
    return H


def fd_hessian(grad_fn, x, step=None):
    """Central-difference Hessian of a gradient callable, symmetrized.

    The default step cbrt(eps) * (1 + max|x_i|) balances truncation against
    cancellation for gradients whose curvature scale is O(1).
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    if step is None:
        step = float(np.finfo(float).eps ** (1.0 / 3.0)) \
            * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    if not step > 0:
        raise ValueError("difference step must be positive")
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        H[:, j] = (np.asarray(grad_fn(x + e), dtype=float).ravel()
                   - np.asarray(grad_fn(x - e), dtype=float).ravel()) / (2.0 * step)
    return 0.5 * (H + H.T)


def rank1_oracle(M):
    """Oracle for the rank-1 factorization objective on a symmetric M.

    Gradient (xx^T - M)x with the closed-form Hessian.  When the top
    eigenvalue is positive the two global minimizers +-sqrt(lam_1) u_1 are
    attached as minima.
    """
    M = _check_symmetric(M)
    lam, U = np.linalg.eigh(M)
    minima = ()
    if lam[-1] > 0.0:
        top = math.sqrt(lam[-1]) * U[:, -1]
        minima = (top, -top)

    def loss(x):
        x = np.asarray(x, dtype=float).ravel()
        E = np.outer(x, x) - M
        return 0.25 * float(np.sum(E * E))

    def grad(x):
        x = np.asarray(x, dtype=float).ravel()
        return float(x @ x) * x - M @ x

    return LandscapeOracle(loss, grad, lambda x: rank1_hessian(M, x),
                           "analytic", minima)


def factored_oracle(Mstar, r):
    """Oracle for f(X) = ||XX^T - Mstar||_F^2 / 4 over vectorized factors.

    Points are row-major vec(X) with X of shape (n, r), matching numpy's
    reshape.  The Hessian acts on vec(Z) through the directional rule
    D^2 f(X)[Z] = (XZ^T + ZX^T)X + (XX^T - Mstar)Z and is assembled column
    by column, so it stays closed-form at any rank.
    """
    M = _check_symmetric(Mstar)
    n = M.shape[0]
    if int(r) != r or not 1 <= r <= n:
        raise ValueError("need an integer rank with 1 <= r <= n")
    r = int(r)

    def unpack(v):
        v = np.asarray(v, dtype=float).ravel()
        if v.shape[0] != n * r:
            raise ValueError(f"expected a flat factor of length {n * r}")
        return v.reshape(n, r)

    def loss(v):
        X = unpack(v)
        E = X @ X.T - M
        return 0.25 * float(np.sum(E * E))

    def grad(v):
        X = unpack(v)
        return ((X @ X.T - M) @ X).ravel()

    def hess(v):
        X = unpack(v)
        E = X @ X.T - M
        H = np.empty((n * r, n * r))
        for k in range(n * r):
            Z = np.zeros((n, r))
            Z[divmod(k, r)] = 1.0
            H[:, k] = ((X @ Z.T + Z @ X.T) @ X + E @ Z).ravel()
        return 0.5 * (H + H.T)

    return LandscapeOracle(loss, grad, hess, "analytic")


def oracle_from_instance(instance):
    """Flat-vector oracle over an instance's empirical risk.

    Phase retrieval gets the closed-form Hessian
    (1/m) sum_i (3 (a_i^T x)^2 - y_i) a_i a_i^T; rank-1 symmetric sensing
    differentiates its exact gradient numerically.  Both attach the
    +-truth pair as minima.
    """
    build = {"PhaseRetrieval": _phase_retrieval_oracle,
             "MatrixSensingSym": _sensing_rank1_oracle}.get(instance.family)
    if build is None or instance.params.get("r", 1) != 1:  # phase retrieval has no r
        raise ValueError(
            "landscape oracles cover phase retrieval and rank-1 symmetric sensing")
    return build(instance)


def _phase_retrieval_oracle(instance):
    A, y = instance.design["A"], instance.y
    m = instance.params["m"]
    xs = np.asarray(instance.truth["x"], dtype=float).copy()

    def loss(x):
        return loss_and_grad(instance, FactorPoint.vector(x))[0]

    def grad(x):
        return loss_and_grad(instance, FactorPoint.vector(x))[1].x

    def hess(x):
        c = A @ np.asarray(x, dtype=float).ravel()
        H = (A * (3.0 * c * c - y)[:, None]).T @ A / m
        return 0.5 * (H + H.T)

    return LandscapeOracle(loss, grad, hess, "analytic", (xs, -xs))


def _sensing_rank1_oracle(instance):
    xs = np.asarray(instance.truth["X"], dtype=float).ravel().copy()

    def loss(x):
        return loss_and_grad(instance, _column_point(x))[0]

    def grad(x):
        return loss_and_grad(instance, _column_point(x))[1].X.ravel()

    return LandscapeOracle(loss, grad, lambda x: fd_hessian(grad, x),
                           "finite_difference", (xs, -xs))


def _column_point(x):
    return FactorPoint.sym(np.reshape(np.asarray(x, dtype=float), (-1, 1)))


# ---------------------------------------------------------------------------
# Critical-point classification
# ---------------------------------------------------------------------------

def classify_rank1_criticals(M, tol=None):
    """Closed-form census of the critical points of ||xx^T - M||_F^2 / 4.

    Requires M PSD with a spectral gap lam_1 > lam_2.  Candidates are the
    origin and +-sqrt(lam_k) u_k over the eigenpairs; the top pair are the
    global minima, every lower pair with lam_k > 0 is a strict saddle, and
    the origin is a local max when M is positive definite, else a strict
    saddle.  Candidates at zero eigenvalues coincide with the origin and
    fold into it, so the census returns 2 #{lam_k > tol} + 1 points.

    Hessian extremes come from the census eigenvalue rules (the Hessian at
    +-sqrt(lam_k) u_k has spectrum {lam_k - lam_i, i != k} plus 2 lam_k,
    and -M's spectrum at the origin); gradient norms are evaluated
    numerically from (xx^T - M)x.
    """
    M = _check_symmetric(M)
    n = M.shape[0]
    if n < 2:
        raise ValueError("the census needs at least a 2 x 2 matrix")
    if tol is None:
        tol = 1e-8 * float(np.linalg.norm(M, 2))
    lam, U = np.linalg.eigh(M)
    lam, U = lam[::-1], U[:, ::-1]
    if lam[-1] < -tol:
        raise ValueError("the census needs a positive semidefinite matrix")
    if not lam[0] - lam[1] > tol:
        raise ValueError("the census needs a spectral gap lam_1 > lam_2")

    def gnorm(x):
        return float(np.linalg.norm(float(x @ x) * x - M @ x))

    points = []
    for k in range(n):
        if not lam[k] > tol:
            break
        x = math.sqrt(lam[k]) * U[:, k]
        diffs = lam[k] - np.delete(lam, k)
        extremes = (float(min(np.min(diffs), 2.0 * lam[k])),
                    float(max(np.max(diffs), 2.0 * lam[k])))
        kind = "global_min" if k == 0 else "strict_saddle"
        for sign in (1.0, -1.0):
            loc = sign * x
            points.append(CriticalPoint(loc, kind, gnorm(loc), extremes))
    origin_kind = "local_max" if lam[-1] > tol else "strict_saddle"
    zero = np.zeros(n)
    points.append(CriticalPoint(zero, origin_kind, gnorm(zero),
                                (float(-lam[0]), float(-lam[-1]))))
    return points


def classify_point(oracle, x, tol=None):
    """Second-order label for an arbitrary point from dense Hessian extremes.

    A trusted positive bottom eigenvalue gives "global_min" (the models
    treated here prove every second-order minimum is global), a trusted
    negative top gives "local_max", a trusted negative bottom otherwise
    gives "strict_saddle", and a bottom within tol of zero gives
    "degenerate".  tol defaults to 1e-8 times the Hessian's spectral
    scale.
    """
    x = np.asarray(x, dtype=float).ravel()
    w = np.linalg.eigvalsh(np.asarray(oracle.hess(x), dtype=float))
    lo, hi = float(w[0]), float(w[-1])
    if tol is None:
        tol = 1e-8 * max(abs(lo), abs(hi))
    if lo > tol:
        kind = "global_min"
    elif lo >= -tol:
        kind = "degenerate"
    elif hi < -tol:
        kind = "local_max"
    else:
        kind = "strict_saddle"
    g = float(np.linalg.norm(np.asarray(oracle.grad(x), dtype=float).ravel()))
    return CriticalPoint(x.copy(), kind, g, (lo, hi))


def critical_report(points, hessian_source=None):
    """JSON array of critical-point records for external consumers."""
    rows = []
    for p in points:
        row = {
            "location": [float(v) for v in np.asarray(p.location).ravel()],
            "kind": p.kind,
            "lambda_min": float(p.hessian_extremes[0]),
            "lambda_max": float(p.hessian_extremes[1]),
            "grad_norm": float(p.grad_norm),
        }
        if hessian_source is not None:
            row["hessian_source"] = hessian_source
        rows.append(row)
    return json.dumps(rows, indent=2)


def strict_saddle_check(oracle, x, eps, gamma, zeta, minima):
    """Which clauses of the strict-saddle trichotomy hold at x.

    Returns the subset of {"strong_gradient", "negative_curvature",
    "near_minimum"} satisfied for the given (eps, gamma, zeta): gradient
    norm at least eps, bottom Hessian eigenvalue at most -gamma, or
    distance at most zeta from one of the supplied minimizers.  An empty
    set is the caller's violation signal.
    """
    if not (eps > 0 and gamma > 0 and zeta > 0):
        raise ValueError("eps, gamma, and zeta must be positive")
    x = np.asarray(x, dtype=float).ravel()
    held = set()
    if float(np.linalg.norm(np.asarray(oracle.grad(x)).ravel())) >= eps:
        held.add("strong_gradient")
    if float(np.linalg.eigvalsh(np.asarray(oracle.hess(x)))[0]) <= -gamma:
        held.add("negative_curvature")
    # _min_dist reads 0 with no minimizers, which must not count as near one.
    if len(minima) > 0 and _min_dist(minima, x) <= zeta:
        held.add("near_minimum")
    return held


# ---------------------------------------------------------------------------
# Perturbed descent
# ---------------------------------------------------------------------------

def _sphere_noise(rng, n, radius):
    while True:
        g = rng.standard_normal(n)
        nrm = float(np.linalg.norm(g))
        if nrm > 0.0:
            return (radius / nrm) * g


def _min_dist(minima, x):
    if len(minima) == 0:
        return 0.0
    return min(float(np.linalg.norm(x - np.asarray(m, dtype=float).ravel()))
               for m in minima)


def perturbed_gd(oracle, x0, config):
    """Constant-step descent with sphere noise injected at small gradients.

    Per iteration: evaluate at the current point; when the gradient norm
    is at or below config.trigger (and the cooldown has elapsed, and the
    trigger is positive) the iterate first moves by a uniform draw from
    the radius sphere and is re-evaluated there.  The recorded row is the
    point the step is then taken from, with extras["perturbed"] marking
    injection rows.  The distance column is the gap to the nearest oracle
    minimum, zero when the oracle lists none.  A zero trigger reproduces
    plain descent on the same objective.
    """
    if not isinstance(config, SaddleEscapeConfig):
        raise ValueError("perturbed descent needs a SaddleEscapeConfig")
    rng = make_rng(derive_seed(config.seed, "saddle_noise"))
    last_fire = -config.cooldown  # a quiet start may fire at t = 0

    def grad(x):
        g = np.asarray(oracle.grad(x), dtype=float).ravel()
        return g, math.sqrt(float(np.sum(g * g)))

    def perturb(t, x):
        # The point recorded at row t: x, or x plus sphere noise.
        nonlocal last_fire
        if config.trigger > 0.0 and t - last_fire >= config.cooldown \
                and grad(x)[1] <= config.trigger:
            last_fire = t
            return x + _sphere_noise(rng, x.shape[0], config.radius)
        return x

    def evaluate(t, point):
        g, gnorm = grad(point.x)
        return {"loss": float(oracle.loss(point.x)), "grad_norm": gnorm,
                "dist": _min_dist(oracle.minima, point.x), "incoh": 0.0,
                "perturbed": float(last_fire == t)}, g

    def step(t, point, g):
        return FactorPoint.derived("vector", (perturb(t + 1, point.x - config.eta * g),))

    x0 = np.asarray(x0, dtype=float).ravel().copy()
    point, trace = iterate(FactorPoint.vector(perturb(0, x0)), evaluate, step,
                           config.max_iters, stop=falls_to("grad_norm", config.grad_tol))
    return point.x, trace


# ---------------------------------------------------------------------------
# Trust-region and cubic subproblem steps
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny  # brentq's xtol where only its rtol should bind


def _shifted_norm(w, gh, shift):
    # ||(H + shift I)^{-1} g|| in the eigenbasis.  0/0 components read as 0
    # (no gradient weight on a flat direction); other divisions by ~0 blow
    # up to inf, which callers treat as "shift too small".
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = gh / (w + shift)
        vals = np.where(np.isnan(vals), 0.0, vals)
        return float(np.sqrt(np.sum(vals * vals)))


def _eig_split(w, gh, shift):
    # Components the limiting shift still damps versus the flat bottom ones.
    d = w + shift
    live = d > 1e-12 * max(float(np.max(np.abs(w), initial=0.0)), 1.0)
    base = np.zeros_like(gh)
    base[live] = gh[live] / d[live]
    flat_weight = float(np.linalg.norm(gh[~live]))
    return base, flat_weight


def _shifted_step(oracle, x, length):
    # The step s = -(H + shift I)^+ g, not x + s (whose difference with x
    # loses bits at ||x|| >> ||s||), with H + shift I PSD and ||s|| =
    # length(shift), shift >= shift0 = max(0, -w_0); both steps below are
    # this solve for a nondecreasing length.  A shift0 that already leaves
    # ||s|| <= length(shift0), with no gradient weight on the flat bottom,
    # is the interior optimum (shift0 = 0) or the hard case, padded along a
    # bottom eigenvector to length(shift0).  Otherwise the shift is shift0 +
    # delta for the root delta of length(shift) / ||s|| - 1, formed as
    # (w_i - w_0) + delta: w_0 + shift cancels next to a saddle.
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] > _DENSE_CAP:
        raise ValueError(f"dense landscape analysis is capped at {_DENSE_CAP} dimensions")
    g = np.asarray(oracle.grad(x), dtype=float).ravel()
    w, Q = np.linalg.eigh(np.asarray(oracle.hess(x), dtype=float))
    gh = Q.T @ g
    gn = float(np.linalg.norm(g))
    shift0 = max(0.0, float(-w[0]))
    l0 = length(shift0)
    base, flat_weight = _eig_split(w, gh, shift0)
    base_norm = float(np.linalg.norm(base))
    if flat_weight <= 1e-11 * max(gn, 1.0) and base_norm <= l0:
        s = -(Q @ base)
        if shift0 > 0.0:
            s = s + math.sqrt(max(l0 * l0 - base_norm * base_norm, 0.0)) * Q[:, 0]
        return s

    w_lo = w - w[0] if shift0 > 0.0 else w

    def excess(delta):
        # Increasing in delta; zero where the step has its prescribed length.
        rho = _shifted_norm(w_lo, gh, delta)
        return length(shift0 + delta) / rho - 1.0 if rho > 0.0 else math.inf

    from scipy.optimize import brentq  # scipy.optimize loads scipy.sparse
    # ||s|| <= gn / delta, so 2 gn / l0 already overshoots when l0 > 0.
    hi = 2.0 * gn / l0 if l0 > 0.0 else gn
    while not excess(hi) > 0.0:
        hi *= 2.0
    delta = brentq(excess, 0.0, hi, xtol=_TINY)  # to relative precision
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = gh / (w_lo + max(delta, shift0 * 1e-15))
    return -(Q @ np.where(np.isfinite(vals), vals, 0.0))


def trust_region_step(oracle, x, radius):
    """Exact trust-region step: argmin of the local quadratic on the ball.

    Dense eigendecomposition plus a secular-equation root find in the
    shift parameter.  The hard case (no gradient weight on the bottom
    eigenspace and the limiting solution interior) pads along a bottom
    eigenvector to the boundary.  Returns the new point x + s.
    """
    if not radius > 0:
        raise ValueError("trust-region radius must be positive")
    return np.asarray(x, dtype=float).ravel() + _shifted_step(oracle, x, lambda shift: radius)


def cubic_step(oracle, x, lipschitz):
    """Global minimizer of the cubic-regularized model around x.

    Model: <g, s> + s^T H s / 2 + lipschitz ||s||^3 / 6.  The minimizer
    obeys (H + lipschitz ||s|| / 2 I) s = -g with the shifted matrix PSD,
    the trust-region solve with the length 2 shift / lipschitz in place of
    the radius; the hard case pads along a bottom eigenvector as there.
    Returns the new point x + s.
    """
    if not lipschitz > 0:
        raise ValueError("Hessian Lipschitz estimate must be positive")
    return np.asarray(x, dtype=float).ravel() + _shifted_step(
        oracle, x, lambda shift: 2.0 * shift / lipschitz)


# ---------------------------------------------------------------------------
# Descent studies
# ---------------------------------------------------------------------------

def random_init_gd_experiment(n, m, trials, seed, eta=0.1, max_iters=5000,
                              stage2_tol=1e-5):
    """Vanilla GD on fresh phase retrieval instances from wide random inits.

    Each trial draws a new instance and an init x0 ~ N(0, ||x*||^2 / n I),
    then runs plain constant-step descent.  Returned per trial: whether
    the distance fell to stage2_tol within the budget, the first iteration
    at or below 0.5 ||x*|| (stage 1), and the further count from there to
    stage2_tol (stage 2).
    """
    if int(trials) != trials or trials < 1:
        raise ValueError("trials must be a positive integer")
    success, stage1, stage2 = [], [], []
    for t in range(int(trials)):
        inst = gen_phase_retrieval(n, m, derive_seed(seed, "random_init", t))
        nx = float(np.linalg.norm(inst.truth["x"]))
        rng = make_rng(derive_seed(seed, "random_init_x0", t))
        x0 = rng.standard_normal(n) * (nx / math.sqrt(n))
        cfg = SolverConfig(eta=eta, max_iters=max_iters, dist_tol=stage2_tol)
        _, trace = run_gd(inst, FactorPoint.vector(x0), cfg)
        d = np.asarray(trace.dist)
        ok = trace.outcome == "converged"
        success.append(ok)
        half = np.nonzero(d <= 0.5 * nx)[0]
        stage1.append(int(half[0]) if half.size else None)
        stage2.append(len(trace) - 1 - int(half[0]) if ok and half.size
                      else None)
    return {"family": "PhaseRetrieval", "n": int(n), "m": int(m), "trials": int(trials),
            "seed": seed, "success": success, "stage1_iters": stage1,
            "stage2_iters": stage2}


def overparam_gd_experiment(instance, n, small_init_scale, config=None):
    """GD on the square-factor lift X in R^{n x n} from a near-zero init.

    The objective is the lifted least squares
    (1/m) sum_i (<A_i, XX^T> - y_i)^2 with the full n x n factor in place
    of the rank-r one, evaluated as 4 times the family's (1/4m) plain risk
    through loss_and_grad; mind that factor 4 when carrying step sizes over
    from the factored losses.  It is the loss of the family record's lift:
    symmetric sensing itself, and for phase retrieval, which measures XX^T
    through the rank-1 sensors a_i a_i^T, quadratic sensing at rank n on the
    same (A, y).  The init is small_init_scale times a standard Gaussian n x n
    draw seeded from derive_seed(config.seed or 0, "overparam").  The trace
    distance column is ||XX^T - M*||_F and extras["effective_rank"] counts
    singular values of the estimate XX^T above 1e-3 times its largest.  A
    zero init scale parks the walk at the origin, which is a critical point
    of the lift; that is the caller's baseline, not an error.
    """
    cfg = SolverConfig() if config is None else config
    _reads_only(cfg, "overparam_gd_experiment", ("eta", "max_iters", "dist_tol", "seed"))
    if cfg.eta is None:
        raise ValueError("the over-parametrized walk needs an explicit step "
                         "size")
    lift = FAMILIES[instance.family].lift
    if lift is None:
        raise ValueError("the over-parametrized walk covers phase retrieval "
                         "and symmetric sensing")
    lifted = lift(instance)
    Mstar = lifted.truth["M"]
    if n != Mstar.shape[0]:
        raise ValueError(f"the lift must match the ambient dimension {Mstar.shape[0]}")
    if small_init_scale < 0:
        raise ValueError("init scale must be nonnegative")
    rng = make_rng(derive_seed(cfg.seed if cfg.seed is not None else 0,
                               "overparam"))
    X = small_init_scale * rng.standard_normal((n, n))

    def evaluate(t, point):
        val, g = loss_and_grad(lifted, point)
        G = 4.0 * g.X
        sv = np.linalg.svd(point.X, compute_uv=False) ** 2  # spectrum of XX^T
        erank = int(np.count_nonzero(sv > 1e-3 * sv[0])) if sv[0] > 0 else 0
        return {"loss": 4.0 * val, "grad_norm": float(np.linalg.norm(G)),
                "dist": float(np.linalg.norm(point.X @ point.X.T - Mstar)),
                "incoh": 0.0, "effective_rank": erank}, G

    def step(t, point, G):
        return FactorPoint.derived("sym", (point.X - cfg.eta * G,))

    return iterate(FactorPoint.sym(X), evaluate, step, cfg.max_iters,
                   stop=falls_to("dist", cfg.dist_tol))[1]
