"""The three benchmark workloads and the accuracy checks behind them.

Every solve runs to a distance-to-truth (or loss) tolerance of TOL relative to
the planted truth.  Its final error is then recomputed here from the returned
factors with plain NumPy, never with the library's distance functions, and
must not exceed ERR_BOUND.  Why each workload exists is in NOTES.md.

A workload maps an instance seed to a list of cases.  A case is one planted
instance: a generator call, a spectral initialiser call and the solves that
start from it.  Each solve is split into the timed library call and the
untimed check of what it returned.

Each workload also has a calibration kernel: a few milliseconds of plain
NumPy shaped like the workload's inner loop, which never calls the library.
The shared machine's speed drifts by a third over minutes, and every kernel
drifts together, so timings are rescaled by how long the kernel took next to
them (see run.py).  ``cal_ref_s`` is the kernel's median time over the runs
that defined the benchmark, which keeps the rescaled figures in seconds.
"""

from dataclasses import dataclass, replace

import numpy as np

from lowrank_ncvx import direct, gd, problems, spectral

TOL = 1e-6
ERR_BOUND = 1e-5


@dataclass
class Solve:
    name: str
    run: object    # est -> raw result of the library call (timed)
    check: object  # raw result -> (trace, independently computed error)


@dataclass
class Case:
    label: str
    gen: object    # () -> instance (timed as set-up)
    init: object   # instance -> spectral estimate (timed as init)
    solves: object  # instance -> [Solve]


# ---------------------------------------------------------------------------
# Independent error measures
# ---------------------------------------------------------------------------

def sign_error(x, xs):
    """min(||x - x*||, ||x + x*||) / ||x*||."""
    return min(np.linalg.norm(x - xs), np.linalg.norm(x + xs)) / np.linalg.norm(xs)


def matrix_error(A, M):
    """||A - M||_F / ||M||_F."""
    return np.linalg.norm(A - M) / np.linalg.norm(M)


def lifted_error(h, x, hs, xs):
    """||h x^H - h* x*^H||_F / ||h* x*^H||_F."""
    return matrix_error(np.outer(h, np.conj(x)), np.outer(hs, np.conj(xs)))


# ---------------------------------------------------------------------------
# pr_trunc: WF, TWF and median-TWF from one spectral init
# ---------------------------------------------------------------------------

def pr_cases(seed, n, m, max_iters):
    def solves(inst):
        xs = inst.truth["x"]

        def descent(name, run, **knobs):
            cfg = gd.SolverConfig(dist_tol=TOL * np.linalg.norm(xs),
                                  max_iters=max_iters, **knobs)
            return Solve(name, lambda est: run(inst, est.point, cfg),
                         lambda res: (res[1], sign_error(res[0].x, xs)))

        return [
            descent("wf", gd.run_gd),
            descent("twf", gd.run_truncated_gd),
            descent("mtwf", gd.run_truncated_gd, median_factor=5.0),
        ]

    def init(inst):
        # The truncated spectral init of truncated WF (keep y_i <= 3^2 mean(y)).
        # With the raw surrogate, WF diverges on some instances (NOTES.md).
        return spectral.init_phase_retrieval(inst, spectral.Preprocessing.trim(9.0))

    return [Case(f"pr{seed}", lambda: problems.gen_phase_retrieval(n, m, seed), init, solves)]


# ---------------------------------------------------------------------------
# mc_large: AltMin on an asymmetric instance, GD on a symmetric one
# ---------------------------------------------------------------------------

def mc_cases(seed, n, r, p, max_iters):
    def altmin(inst):
        M = inst.truth["M"]
        # The recorded loss is ||P_Omega(L R^T - M)||^2 / (4p), whose mean over
        # the sampling is ||L R^T - M||^2 / 4: this tol is relative error TOL.
        cfg = direct.AltMinConfig(max_outer=max_iters, tol=(TOL * np.linalg.norm(M)) ** 2 / 4)
        return [Solve("altmin", lambda est: direct.altmin_mc(inst, est.point.L, cfg),
                      lambda res: (res[2], matrix_error(res[0] @ res[1].T, M)))]

    def descent(inst):
        # Projected GD: each step is followed by the library's row clip at
        # c = 2 (make_incoherent_projector's default).  Vanilla GD with the
        # default step diverges on some instances at this p, whose spectral
        # init has a row several times heavier than any row of the truth
        # (NOTES.md).  mu is the truth's incoherence, as the projector's
        # default would compute it, but read from the factor X (whose
        # columns are orthogonal) instead of an SVD of the 2000 x 2000 M.
        M, X = inst.truth["M"], inst.truth["X"]
        U = X / np.linalg.norm(X, axis=0)
        mu = X.shape[0] / r * float(np.max(np.sum(U * U, axis=1)))
        cfg = gd.SolverConfig(dist_tol=TOL * np.linalg.norm(X), max_iters=max_iters)

        def run(est):
            proj = gd.make_incoherent_projector(inst, est.point, mu=mu)
            return gd.run_gd(inst, est.point, replace(cfg, project=proj))

        return [Solve("gd", run,
                      lambda res: (res[1], matrix_error(res[0].X @ res[0].X.T, M)))]

    def init(inst):
        return spectral.init_matrix_completion(inst, r)

    return [
        Case(f"mc_asym{seed}",
             lambda: problems.gen_matrix_completion(n, n, r, p, False, seed), init, altmin),
        Case(f"mc_sym{seed}",
             lambda: problems.gen_matrix_completion(n, n, r, p, True, seed), init, descent),
    ]


# ---------------------------------------------------------------------------
# bd_deconv: plain GD on blind deconvolution
# ---------------------------------------------------------------------------

def bd_cases(seed, K, N, m, max_iters):
    def solves(inst):
        hs, xs = inst.truth["h"], inst.truth["x"]
        cfg = gd.SolverConfig(dist_tol=TOL * np.hypot(np.linalg.norm(hs), np.linalg.norm(xs)),
                              max_iters=max_iters)
        return [Solve("gd", lambda est: gd.run_gd(inst, est.point, cfg),
                      lambda res: (res[1], lifted_error(res[0].h, res[0].x, hs, xs)))]

    return [Case(f"bd{seed}", lambda: problems.gen_blind_deconv(K, N, m, seed),
                 spectral.init_blind_deconv, solves)]


# ---------------------------------------------------------------------------
# Calibration kernels: fixed NumPy work, no library calls
# ---------------------------------------------------------------------------

def pr_kernel():
    """Gradient steps with a sorted residual on a 1280 x 128 Gaussian design."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((1280, 128))
    y = (A @ rng.standard_normal(128)) ** 2
    x0 = rng.standard_normal(128)

    def run():
        x = x0.copy()
        for _ in range(100):
            c = A @ x
            e = c * c - y
            np.sort(np.abs(e))
            x -= 1e-6 * (A.T @ (e * c))

    return run


def bd_kernel():
    """Scalar-heavy loop over short complex vectors, plus 512 x 32 products."""
    rng = np.random.default_rng(0)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    hs = 1.1 * h
    B = rng.standard_normal((512, 32)) + 1j * rng.standard_normal((512, 32))

    def run():
        for k in range(800):
            rho = np.exp(1e-3 * k)
            float(np.sum(np.abs(h / rho - hs) ** 2) + np.sum(np.abs(rho * h - hs) ** 2))
        for _ in range(20):
            B.conj().T @ (B @ h)

    return run


def mc_kernel():
    """A dense masked residual on 2000 x 2000, small least-squares solves in a
    Python loop, and a 300 x 300 SVD."""
    rng = np.random.default_rng(0)
    mask = rng.random((2000, 2000)) < 0.02
    y = rng.standard_normal(int(mask.sum()))
    X = rng.standard_normal((2000, 5))
    rows, rhs = rng.standard_normal((40, 5)), rng.standard_normal(40)
    G = rng.standard_normal((300, 300))

    def run():
        model = X @ X.T
        resid = np.zeros(mask.shape)
        resid[mask] = model[mask] - y
        (resid + resid.T) @ X
        for _ in range(150):
            np.linalg.lstsq(rows, rhs, rcond=None)
        np.linalg.svd(G)

    return run


@dataclass
class Workload:
    make: object       # (seed, **size) -> [Case]
    size: dict         # the measured size
    warm_size: dict    # a small size for the untimed warm-up pass
    instances: int     # instance seeds per pass
    kernel: object     # () -> calibration callable
    cal_ref_s: float   # the kernel's reference duration

    def instance_seeds(self, seed):
        return [seed * 1000 + k for k in range(self.instances)]

    def cases(self, seed):
        return [c for s in self.instance_seeds(seed) for c in self.make(s, **self.size)]

    def warm_cases(self):
        return self.make(0, **self.warm_size)


WORKLOADS = {
    "pr_trunc": Workload(pr_cases, dict(n=128, m=1280, max_iters=5000),
                         dict(n=16, m=160, max_iters=50), instances=24,
                         kernel=pr_kernel, cal_ref_s=0.009),
    "mc_large": Workload(mc_cases, dict(n=2000, r=5, p=0.02, max_iters=2000),
                         dict(n=100, r=2, p=0.3, max_iters=5), instances=1,
                         kernel=mc_kernel, cal_ref_s=0.105),
    "bd_deconv": Workload(bd_cases, dict(K=32, N=32, m=512, max_iters=5000),
                          dict(K=8, N=8, m=64, max_iters=5), instances=8,
                          kernel=bd_kernel, cal_ref_s=0.015),
}
