"""Shared numerical plumbing: seeded randomness, factor containers, subspace
extraction by blocked iteration, the distance metrics that quotient out the
global ambiguities (sign, rotation, complex scaling) of factored estimates,
and the iteration driver with its trace that every solver loop runs on.

Everything here is pure and reentrant; workers own their Rng instances.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def derive_seed(master_seed, *parts):
    """Stable 64-bit sub-seed from a master seed plus any hashable labels.

    Used to key per-trial generators so that cells of an experiment grid are
    reproducible independently of execution order.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode())
    for p in parts:
        h.update(b"\x1f")  # separator, so ("ab","c") never collides with ("a","bc")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "little")


def make_rng(seed):
    """Counter-based generator; identical seed gives identical stream everywhere."""
    return np.random.Generator(np.random.Philox(key=np.uint64(int(seed) & (2**64 - 1))))


# ---------------------------------------------------------------------------
# Factor containers
# ---------------------------------------------------------------------------

_POINT_KINDS = ("sym", "asym", "vector", "pair")


@dataclass
class FactorPoint:
    """A point in factor space.

    kind:
      "sym"    one real factor X (n x r), estimating X X^T
      "asym"   two real factors (L, R), estimating L R^T
      "vector" one vector x, estimating x x^H; real, or complex for phase
               synchronization
      "pair"   two complex vectors (h, x), estimating h x^H

    The named constructors cast real input to float; sym and asym raise
    ValueError on complex input rather than drop its imaginary part.
    """

    kind: str
    parts: tuple

    def __post_init__(self):
        if self.kind not in _POINT_KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        self.parts = tuple(np.asarray(p) for p in self.parts)
        n_expected = 2 if self.kind in ("asym", "pair") else 1
        if len(self.parts) != n_expected:
            raise ValueError(f"{self.kind!r} point needs {n_expected} array(s), got {len(self.parts)}")

    @classmethod
    def sym(cls, X):
        return cls("sym", (_real_factor("X", X),))

    @classmethod
    def asym(cls, L, R):
        return cls("asym", (_real_factor("L", L), _real_factor("R", R)))

    @classmethod
    def vector(cls, x):
        x = np.asarray(x)
        return cls("vector", (x if np.iscomplexobj(x) else np.asarray(x, dtype=float),))

    @classmethod
    def pair(cls, h, x):
        return cls("pair", (np.asarray(h, dtype=complex), np.asarray(x, dtype=complex)))

    # Named accessors. Each is only valid for the kinds that carry it.
    def _part(self, name, kinds, index):
        if self.kind not in kinds:
            raise ValueError(f"a {self.kind!r} point has no part {name}")
        return self.parts[index]

    @property
    def X(self):
        return self._part("X", ("sym",), 0)

    @property
    def L(self):
        return self._part("L", ("asym",), 0)

    @property
    def R(self):
        return self._part("R", ("asym",), 1)

    @property
    def x(self):
        return self._part("x", ("vector", "pair"), -1)

    @property
    def h(self):
        return self._part("h", ("pair",), 0)

    def copy(self):
        return FactorPoint(self.kind, tuple(p.copy() for p in self.parts))

    def add_scaled(self, alpha, direction):
        """self + alpha * direction, where direction is a matching parts tuple."""
        return FactorPoint(self.kind, tuple(p + alpha * d for p, d in zip(self.parts, direction)))

    def norm(self):
        return math.sqrt(sum(float(np.sum(np.abs(p) ** 2)) for p in self.parts))

    def isfinite(self):
        return all(np.all(np.isfinite(p)) for p in self.parts)


def _real_factor(name, A):
    if np.iscomplexobj(A):
        raise ValueError(f"factor {name} must be real, got a complex array")
    return np.asarray(A, dtype=float)


def parts_norm(parts):
    return math.sqrt(sum(float(np.sum(np.abs(p) ** 2)) for p in parts))


# ---------------------------------------------------------------------------
# Subspace extraction (blocked subspace iteration + Rayleigh-Ritz)
# ---------------------------------------------------------------------------

@dataclass
class SubspaceEstimate:
    basis: np.ndarray       # n x r, orthonormal columns
    values: np.ndarray      # r leading values, descending
    gap: float              # value r minus value r+1
    residual: float = 0.0   # max per-pair residual actually achieved
    iterations: int = 0


def _check_square_hermitian(M, tol=1e-10):
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(M - M.conj().T) > tol * scale:
        raise ValueError("matrix is not symmetric/Hermitian within 1e-10")
    return M


def top_r_symmetric(M, r, tol=1e-10, max_iters=5000, seed=0):
    """Top-r eigenpairs of a symmetric/Hermitian M by *algebraic* value.

    Blocked subspace iteration on the shifted matrix M + c*I (c = ||M||_F makes
    it PSD so magnitude order equals algebraic order), with a Rayleigh-Ritz
    extraction against the original M each sweep. The start basis is seeded, so
    the output is deterministic. Residual criterion per pair:
    ||M u - lam u|| <= tol * ||M||  (spectral norm lower-bounded by max Ritz value).
    """
    M = _check_square_hermitian(M)
    n = M.shape[0]
    if not (1 <= r < n):
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    b = min(n, r + 2)  # buffer vectors past r sharpen the first r Ritz pairs
    fro = float(np.linalg.norm(M))
    if fro == 0.0:
        basis = np.eye(n, r, dtype=M.dtype)
        return SubspaceEstimate(basis=basis, values=np.zeros(r), gap=0.0)

    rng = make_rng(derive_seed(seed, "subspace-iteration", n, r))
    Q = rng.standard_normal((n, b))
    if np.iscomplexobj(M):
        Q = Q + 1j * rng.standard_normal((n, b))
    Q, _ = np.linalg.qr(Q)

    shift = fro
    achieved = np.inf
    for sweep in range(1, max_iters + 1):
        # Two applications of (M + shift I) per sweep squares the convergence ratio.
        Z = M @ Q + shift * Q
        Z = M @ Z + shift * Z
        Q, _ = np.linalg.qr(Z)
        T = Q.conj().T @ (M @ Q)
        T = (T + T.conj().T) / 2.0
        w, S = np.linalg.eigh(T)      # ascending
        order = np.argsort(w)[::-1]
        w = w[order]
        vectors = Q @ S[:, order]
        resid = M @ vectors[:, :r] - vectors[:, :r] * w[:r]
        per_pair = np.linalg.norm(resid, axis=0)
        norm_lb = max(float(np.max(np.abs(w))), np.finfo(float).tiny)
        achieved = float(np.max(per_pair)) / norm_lb
        if achieved <= tol:
            next_val = w[r] if b > r else -np.inf
            return SubspaceEstimate(
                basis=vectors[:, :r],
                values=w[:r].copy(),
                gap=float(w[r - 1] - next_val),
                residual=achieved,
                iterations=sweep,
            )
        Q = vectors  # keep the rotated basis; accelerates clustered spectra

    raise RuntimeError(
        f"subspace iteration did not converge in {max_iters} sweeps: "
        f"achieved relative residual {achieved:.3e}, wanted {tol:g}"
    )


def top_r_svd(M, r, tol=1e-10, max_iters=5000, seed=0):
    """Top-r singular triples of a (possibly rectangular, possibly complex) M.

    Alternating blocked orthogonalization of U against M V and V against M^H U,
    with a small SVD of the projected block as the Rayleigh-Ritz step. Returns
    (left, right) SubspaceEstimates carrying the shared singular values.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    n1, n2 = M.shape
    if not (1 <= r <= min(n1, n2)):
        raise ValueError(f"need 1 <= r <= min(n1,n2), got r={r}, shape={M.shape}")
    b = min(min(n1, n2), r + 2)
    fro = float(np.linalg.norm(M))
    if fro == 0.0:
        zero = np.zeros(r)
        return (
            SubspaceEstimate(basis=np.eye(n1, r, dtype=M.dtype), values=zero, gap=0.0),
            SubspaceEstimate(basis=np.eye(n2, r, dtype=M.dtype), values=zero.copy(), gap=0.0),
        )

    rng = make_rng(derive_seed(seed, "svd-iteration", n1, n2, r))
    V = rng.standard_normal((n2, b))
    if np.iscomplexobj(M):
        V = V + 1j * rng.standard_normal((n2, b))
    V, _ = np.linalg.qr(V)

    Mh = M.conj().T
    achieved = np.inf
    for sweep in range(1, max_iters + 1):
        U, _ = np.linalg.qr(M @ V)
        V, _ = np.linalg.qr(Mh @ U)
        B = U.conj().T @ (M @ V)
        P, s, Qh = np.linalg.svd(B)
        left = U @ P
        right = V @ Qh.conj().T
        res_l = np.linalg.norm(M @ right[:, :r] - left[:, :r] * s[:r], axis=0)
        res_r = np.linalg.norm(Mh @ left[:, :r] - right[:, :r] * s[:r], axis=0)
        achieved = float(max(np.max(res_l), np.max(res_r))) / max(float(s[0]), np.finfo(float).tiny)
        if achieved <= tol:
            next_val = float(s[r]) if b > r else 0.0  # sigma_{r+1} = 0 past full rank
            values = s[:r].copy()
            gap = float(values[-1] - next_val)
            return (
                SubspaceEstimate(basis=left[:, :r], values=values, gap=gap,
                                 residual=achieved, iterations=sweep),
                SubspaceEstimate(basis=right[:, :r], values=values.copy(), gap=gap,
                                 residual=achieved, iterations=sweep),
            )
        V = right  # rotated basis

    raise RuntimeError(
        f"SVD iteration did not converge in {max_iters} sweeps: "
        f"achieved relative residual {achieved:.3e}, wanted {tol:g}"
    )


# ---------------------------------------------------------------------------
# Alignment and distances
# ---------------------------------------------------------------------------

def procrustes(X, Xstar):
    """Best orthonormal H minimizing ||X H - Xstar||_F, from the SVD of X^T Xstar.

    Rank-deficient cross products are fine: zero singular values pass through
    the SVD factors unchanged, and any completion is a valid minimizer.  A
    non-finite cross product gives an all-NaN H, so a diverged iterate reads
    a nan distance instead of raising.
    """
    X = np.asarray(X)
    Xstar = np.asarray(Xstar)
    if X.shape != Xstar.shape:
        raise ValueError(f"shape mismatch {X.shape} vs {Xstar.shape}")
    C = X.conj().T @ Xstar
    if not np.isfinite(C).all():
        return np.full(C.shape, np.nan)
    P, _, Qh = np.linalg.svd(C)
    return P @ Qh


def dist_factors(X, Xstar):
    """min over orthonormal H of ||X H - Xstar||_F."""
    H = procrustes(X, Xstar)
    return float(np.linalg.norm(np.asarray(X) @ H - np.asarray(Xstar)))


def dist_subspace(U, Ustar, orth_tol=1e-8):
    """Spectral norm of U U^H - U* U*^H, i.e. the sine of the largest principal angle.

    Both inputs must have orthonormal columns (checked to orth_tol); computed
    as the spectral norm of the n x r residual U - U* (U*^H U), which never
    forms the n x n projectors.  The residual keeps full relative accuracy at
    small angles, where sqrt(1 - sigma_min(U^H U*)^2) cannot resolve a sine
    below sqrt(eps) ~ 1.5e-8.
    """
    U = np.asarray(U)
    Ustar = np.asarray(Ustar)
    if U.ndim == 1:
        U = U[:, None]
    if Ustar.ndim == 1:
        Ustar = Ustar[:, None]
    if U.shape != Ustar.shape:
        raise ValueError(f"shape mismatch {U.shape} vs {Ustar.shape}")
    r = U.shape[1]
    for name, A in (("first", U), ("second", Ustar)):
        err = np.linalg.norm(A.conj().T @ A - np.eye(r))
        if err > orth_tol:
            raise ValueError(f"{name} argument is not orthonormal: ||U^H U - I|| = {err:.3e}")
    s = np.linalg.svd(U - Ustar @ (Ustar.conj().T @ U), compute_uv=False)
    return min(1.0, float(s[0])) if len(s) else 0.0


def dist_vector(x, xstar):
    """Sign/phase-minimized l2 distance: min over unit-modulus c of ||x - c xstar||."""
    x = np.asarray(x).ravel()
    xstar = np.asarray(xstar).ravel()
    w = complex(np.vdot(xstar, x))
    c = w / abs(w) if w != 0 else 1.0  # optimal phase; any c ties when orthogonal
    diff = x - c * xstar
    return float(np.linalg.norm(diff))


def _golden_section_min(f, lo, hi, tol):
    """Plain golden-section line search on [lo, hi]; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t = (a + b) / 2.0
    return t, f(t)


_BD_HALF_WIDTH = 6 * math.log(10)  # dist_bd searches windows of +-1e6 in rho


def _ldexp(v, k):
    """v * 2^k for a complex array, exact unless it under- or overflows."""
    return np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)


def _log_norm(v):
    """log ||v|| for a finite nonzero v, also where ||v||^2 under- or overflows."""
    e = math.frexp(float(max(np.max(np.abs(v.real)), np.max(np.abs(v.imag)))))[1]
    return e * math.log(2) + math.log(float(np.linalg.norm(_ldexp(v, -e))))


def dist_bd(h, x, hstar, xstar):
    """Distance modulo the complex scaling ambiguity of a bilinear pair:

        min over complex alpha of sqrt(||h / conj(alpha) - hstar||^2 + ||alpha x - xstar||^2)

    With alpha = rho e^{i phi} the best phase is conj(w)/|w|, which leaves a
    scalar function of s = log(rho) on [log(1e-6 rho0), log(1e6 rho0)]:

        g(s) = ||h||^2 e^{-2s} + ||hstar||^2 + ||x||^2 e^{2s} + ||xstar||^2 - 2|w(s)|,
        w(s) = c_h e^{-s} + c_x e^{s},  c_h = hstar^H h,  c_x = xstar^H x.

    With y = e^{2s}, g'(s) has the sign of

        q(s) = ||x||^2 y^2 - ||h||^2 - (|c_x|^2 y^2 - |c_h|^2) / |w(s)|,

    which is concave in y^2 below s_c, where |c_h| e^{-s} = |c_x| e^{s}, and
    convex above it.  So g has at most one local minimum on each side of s_c,
    at the upward zero of q.  Where c_h e^{-s} and c_x e^{s} nearly cancel,
    g has a sharp local maximum at s_c between two basins, and a search that
    brackets only the best grid point can settle in the shallower one.  Here
    a 121-point vectorized scan seeds golden section for the extremum of q on
    each side, bisection on the sign of q pins each upward zero to full float
    precision (g itself resolves its minimizer only to ~sqrt(eps)), and the
    closed form picks the best zero or end.  The result is the norm of the
    residual vectors there, accurate down to distances of ~eps ||(hstar,
    xstar)||: an exact scaling gives about 1e-15 of that norm.

    A finite nonzero pair whose ||h||^2 or ||x||^2 underflows to 0 or
    overflows is searched over a bracket that holds every minimizer instead
    (see _dist_bd_wide), on exact points (h / 2^j, 2^j x) of its orbit.  A
    zero h or x raises ValueError.  A NaN or infinite entry gives nan, and
    finite entries whose squared norms or residuals still overflow give inf.
    """
    h = np.asarray(h, dtype=complex).ravel()
    x = np.asarray(x, dtype=complex).ravel()
    hstar = np.asarray(hstar, dtype=complex).ravel()
    xstar = np.asarray(xstar, dtype=complex).ravel()
    nh, nx = float(np.linalg.norm(h)), float(np.linalg.norm(x))
    nhs, nxs = float(np.linalg.norm(hstar)), float(np.linalg.norm(xstar))
    if ((nh * nh in (0.0, math.inf) or nx * nx in (0.0, math.inf))
            and h.any() and x.any() and np.isfinite(h).all() and np.isfinite(x).all()
            and math.isfinite(nhs * nhs + nxs * nxs)):
        return _dist_bd_wide(h, x, hstar, xstar, nhs, nxs)
    if nh == 0.0 or nx == 0.0:
        raise ValueError("dist_bd needs nonzero h and x")
    # The logs keep rho0 in range when max(nhs, tiny) / nh would underflow.
    log_rho0 = 0.5 * (math.log(max(nhs, np.finfo(float).tiny)) - math.log(nh))
    return _dist_bd_window(h, x, hstar, xstar, (nh, nx, nhs, nxs),
                           log_rho0 - _BD_HALF_WIDTH, log_rho0 + _BD_HALF_WIDTH)


def _dist_bd_wide(h, x, hstar, xstar, nhs, nxs):
    """dist_bd of a finite nonzero pair whose squared norms under- or overflow.

    With P = ||h|| e^{-s}, R = ||x|| e^{s}, PR = ||h|| ||x|| and M = max(||hstar||,
    ||xstar||), the term |c_x|^2 e^{2s} - |c_h|^2 e^{-2s} over |w| is at most
    M (R + P), so g'(s) / 2 >= (R + P)(R - P - M) > 0 once R exceeds
    M' = M + sqrt(PR); likewise g' < 0 once P exceeds M'.  Every minimizer
    thus lies in [log(||h|| / M'), log(M' / ||x||)], taken with a margin and
    cut into windows no wider than dist_bd's.  Each window is searched on
    the orbit point (h / 2^j, 2^j x) that moves it next to s = 0, where the
    terms of g and q stay in range; the best window wins.
    """
    la, lb = _log_norm(h), _log_norm(x)
    m = max(nhs, nxs)
    lm = float(np.logaddexp(math.log(m), 0.5 * (la + lb))) if m > 0.0 else 0.5 * (la + lb)
    lo, hi = la - lm - 1.0, lm - lb + 1.0
    windows = math.ceil((hi - lo) / (2 * _BD_HALF_WIDTH))
    best = math.inf
    for i in range(windows):
        a, b = lo + i * (hi - lo) / windows, lo + (i + 1) * (hi - lo) / windows
        j = round(0.5 * (a + b) / math.log(2))
        hj, xj = _ldexp(h, -j), _ldexp(x, j)
        norms = (float(np.linalg.norm(hj)), float(np.linalg.norm(xj)), nhs, nxs)
        shift = j * math.log(2)
        best = min(best, _dist_bd_window(hj, xj, hstar, xstar, norms, a - shift, b - shift))
    return best


def _dist_bd_window(h, x, hstar, xstar, norms, lo, hi):
    """The distance of dist_bd with s restricted to [lo, hi]; ``norms`` holds
    ||h||, ||x||, ||hstar||, ||xstar||."""
    nh, nx, nhs, nxs = norms
    A, B, C = nh * nh, nx * nx, nhs * nhs + nxs * nxs
    if not math.isfinite(A + B + C):
        finite = all(np.isfinite(v).all() for v in (h, x, hstar, xstar))
        return math.inf if finite else math.nan

    ch = complex(np.vdot(hstar, h))
    cx = complex(np.vdot(xstar, x))
    P = ch.real * ch.real + ch.imag * ch.imag  # |c_h|^2
    Q = cx.real * cx.real + cx.imag * cx.imag  # |c_x|^2

    # Plain floats: multiplication by e^{-s} rather than division, and hypot
    # rather than abs, so extreme scalings overflow to inf and never raise.
    def terms(s):
        e, f = math.exp(s), math.exp(-s)
        w = ch * f + cx * e
        return e, f, w, math.hypot(w.real, w.imag)

    def g(s):
        e, f, _, aw = terms(s)
        return A * f * f + B * e * e + C - 2.0 * aw

    def q(s):  # terms() inlined: the searches call q about 90 times
        e, f = math.exp(s), math.exp(-s)
        w = ch * f + cx * e
        aw = math.hypot(w.real, w.imag)
        yy = e * e * e * e
        return B * yy - A - ((Q * yy - P) / aw if aw > 0.0 else 0.0)

    def residual(s):
        e, f, w, aw = terms(s)
        phase = w.conjugate() / aw if aw > 0.0 else 1.0
        d1 = (phase * f) * h - hstar
        d2 = (phase * e) * x - xstar
        return float(np.sum(np.abs(d1) ** 2) + np.sum(np.abs(d2) ** 2))

    grid = np.linspace(lo, hi, 121)
    yy = np.exp(4 * grid)
    aw = np.abs(ch * np.exp(-grid) + cx * np.exp(grid))
    qs = B * yy - A - np.divide(Q * yy - P, aw, out=np.zeros_like(aw), where=aw > 0.0)
    if P > 0.0 and Q > 0.0:
        s_c = 0.25 * (math.log(P) - math.log(Q))
    else:
        s_c = -math.inf if P == 0.0 else math.inf  # one convex or concave piece

    def extremum(sign, a, b):
        """The argmax of sign * q over [a, b], where it is unimodal."""
        inside = (grid > a) & (grid < b)
        pts = grid[inside]
        if len(pts):
            j = int(np.argmax(sign * qs[inside]))
            a = pts[j - 1] if j > 0 else a
            b = pts[j + 1] if j + 1 < len(pts) else b
        return _golden_section_min(lambda s: -sign * q(s), a, b, tol=1e-6)[0]

    # Break [lo, hi] at the extremum of q on each side of s_c, so that each
    # upward zero of q lies between two ends where q goes from - to +.  Where
    # q(s_c) already has the sign a side's extremum needs (> 0 below s_c,
    # < 0 above it), s_c serves as that side's break instead.
    q_c = q(s_c) if lo < s_c < hi else 0.0
    ends = [lo]
    if s_c > lo:
        ends.append(s_c if q_c > 0.0 else extremum(1.0, lo, min(s_c, hi)))
    if s_c < hi:
        ends.append(s_c if q_c < 0.0 else extremum(-1.0, max(s_c, lo), hi))
    ends.append(hi)
    signs = [q(t) for t in ends]
    candidates = [lo, hi]
    for a, b, qa, qb in zip(ends, ends[1:], signs, signs[1:]):
        if qa < 0.0 < qb:
            while a < (mid := 0.5 * (a + b)) < b:
                if q(mid) < 0.0:
                    a = mid
                else:
                    b = mid
            candidates.append(a)
    best = residual(min(candidates, key=g))
    return math.sqrt(max(0.0, best)) if math.isfinite(best) else math.inf


def incoherence_mu(M, r, rank_tol=1e-12):
    """Smallest mu such that the rank-r SVD factors of M satisfy both
    ||U||_{2,inf} <= sqrt(mu r / n1) and ||V||_{2,inf} <= sqrt(mu r / n2)."""
    M = np.asarray(M)
    n1, n2 = M.shape
    left, right = top_r_svd(M, r)
    if left.values[-1] <= rank_tol * max(left.values[0], np.finfo(float).tiny):
        raise ValueError(f"matrix is numerically rank-deficient at rank {r}: "
                         f"sigma_r = {left.values[-1]:.3e}")
    mu_u = n1 / r * float(np.max(np.sum(np.abs(left.basis) ** 2, axis=1)))
    mu_v = n2 / r * float(np.max(np.sum(np.abs(right.basis) ** 2, axis=1)))
    return max(mu_u, mu_v)


def bd_incoherence(h, B):
    """sqrt(m) * max_j |b_j^H h| / ||h|| for B with rows b_j^H."""
    h = np.asarray(h, dtype=complex).ravel()
    B = np.asarray(B)
    nh = float(np.linalg.norm(h))
    if nh == 0.0:
        raise ValueError("bd_incoherence needs nonzero h")
    m = B.shape[0]
    return math.sqrt(m) * float(np.max(np.abs(B @ h))) / nh


def cosine_sq(x, xstar):
    """Squared cosine similarity (x^T xstar)^2 / (||x||^2 ||xstar||^2)."""
    x = np.asarray(x).ravel()
    xstar = np.asarray(xstar).ravel()
    nx = float(np.linalg.norm(x))
    ns = float(np.linalg.norm(xstar))
    if nx == 0.0 or ns == 0.0:
        raise ValueError("cosine_sq needs nonzero vectors")
    return float(abs(np.vdot(x, xstar)) ** 2 / (nx**2 * ns**2))


def max_row_norm(X):
    """The 2,inf norm: largest row l2 norm."""
    return float(np.max(np.sqrt(np.sum(np.abs(np.asarray(X)) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# Iteration traces
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("iter", "loss", "grad_norm", "dist", "incoh", "ms")


@dataclass
class Trace:
    """Per-iteration record of a solver run.

    Column ms is wall time per iteration; exports can zero it out so reruns
    with the same seed write byte-identical files.
    """

    iters: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    dist: list = field(default_factory=list)
    incoh: list = field(default_factory=list)
    ms: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)  # optional parallel lists (e.g. RC witness terms)
    outcome: str = "max_iters"  # converged | max_iters | diverged

    _t_last: float = field(default=0.0, repr=False)

    def start_clock(self):
        self._t_last = time.perf_counter()

    def append(self, it, loss, grad_norm, dist=float("nan"), incoh=float("nan"), **extra):
        now = time.perf_counter()
        elapsed_ms = (now - self._t_last) * 1e3 if self._t_last else 0.0
        self._t_last = now
        self.iters.append(int(it))
        self.loss.append(float(loss))
        self.grad_norm.append(float(grad_norm))
        self.dist.append(float(dist))
        self.incoh.append(float(incoh))
        self.ms.append(float(elapsed_ms))
        for k, v in extra.items():
            self.extras.setdefault(k, []).append(v)

    def __len__(self):
        return len(self.iters)

    @property
    def final_loss(self):
        return self.loss[-1] if self.loss else float("nan")

    @property
    def final_dist(self):
        return self.dist[-1] if self.dist else float("nan")

    def to_csv(self, path, wall_time=False):
        """Write the trace. wall_time=False zeroes ms for reproducible files."""
        lines = [",".join(TRACE_COLUMNS)]
        for i in range(len(self.iters)):
            ms = self.ms[i] if wall_time else 0.0
            row = (self.iters[i], self.loss[i], self.grad_norm[i],
                   self.dist[i], self.incoh[i], ms)
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return path


def iterate(start, evaluate, step, last, first=0, stop=None):
    """Run a solver loop; return (the last recorded point, its trace).

    Row t holds `start` after t steps; rows first..last are recorded and
    earlier ones stepped through.  evaluate(t, point) returns (row, aux): the
    keyword fields of Trace.append, and whatever step(t, point, aux) needs.
    After each row the run ends "diverged" when the loss, the gradient norm
    or the point is not finite, or when the loss exceeds the first row's
    loss0 by more than 1e6 |loss0| (a loss0 of exactly 0 leaves only the
    finiteness test); it ends "converged" when stop(trace, point) holds, and
    "max_iters" at row `last`.  Evaluations run with NumPy's overflow and
    invalid-value warnings off, since overflow on the way to a diverged label
    is expected.
    """
    trace = Trace()
    trace.start_clock()
    point, aux = start, None
    for t in range(last + 1):
        if t > 0:
            point = step(t - 1, point, aux)
        if t < first:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            row, aux = evaluate(t, point)
        trace.append(t, **row)
        loss, loss0 = trace.loss[-1], trace.loss[0]
        if not (math.isfinite(loss) and math.isfinite(trace.grad_norm[-1])
                and point.isfinite()) or \
                (loss0 != 0.0 and loss - loss0 > 1e6 * abs(loss0)):
            trace.outcome = "diverged"
            break
        if stop is not None and stop(trace, point):
            trace.outcome = "converged"
            break
    return point, trace


def falls_to(column, tol):
    """Stop predicate for iterate: the newest value of the trace column
    (e.g. "loss") is at most tol.  None, meaning no rule, when tol is None."""
    if tol is None:
        return None
    return lambda trace, point: getattr(trace, column)[-1] <= tol
