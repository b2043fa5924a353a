"""Shared numerical plumbing: seeded randomness (the generators' Bernoulli
masks and Gaussian designs drawn in ranges of one Philox stream side by
side, bit for bit with the one-thread stream and leaving the generator where
it leaves it; see "Split draws" below), factor containers, the subspace
estimate record that spectral's eigensolvers fill,
the distance metrics that quotient out the global ambiguities (sign,
rotation, complex scaling; factored_svd balances out the mix (L G, R G^-T)
of asymmetric factors first) of factored estimates, incoherence measures,
the settings check, and the iteration driver with its trace that every
solver loop runs on.

Everything here is pure and reentrant; workers own their Rng instances.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import partial

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


def _slabs(rows, row_bytes):
    # Slices of rows 0 .. rows - 1 in order, the slabs of an in-place loop
    # (the seam shift of _standard_normal, and problems' symmetrization and
    # phase-synchronization sum): each holds the most rows of row_bytes bytes
    # that fit in 256 KiB, and at least one, which bounds any temporary NumPy
    # takes of an overlapping or transposed source.
    step = max(1, 2**18 // row_bytes)
    return [slice(k, min(k + step, rows)) for k in range(0, rows, step)]


# ---------------------------------------------------------------------------
# Split draws
#
# A Philox stream is counter-based: its k-th block of four 64-bit words
# depends only on (key, counter + k), so any range of a draw can be drawn
# through a Philox of its own started at the range's block (_philox_at).
# _bernoulli_mask and _standard_normal cut a large draw into ranges that
# _launch draws side by side; each docstring states its thread rule, the
# one place the rule is written.
# ---------------------------------------------------------------------------

# Doubles per block of the mask draw: 125 KiB, under glibc's default 128 KiB
# mmap threshold, so each buffer comes from the heap.
_MASK_BLOCK = 16000
# Fewest uniforms a mask-drawing thread is given.
_MASK_MIN_DRAWS = 2**20


def _cpus():
    # The CPUs this process may run on.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


_NOT_RUN = object()  # _launch's result for a job whose thread did not start


def _launch(jobs):
    # Runs jobs[0] on the calling thread and every other job (each a
    # callable of no arguments) on a thread of its own, and returns their
    # results in order, _NOT_RUN for a job whose thread could not start.
    # Every started thread is joined before this returns or raises; a
    # thread's exception is raised after the join.
    results, errors = [_NOT_RUN] * len(jobs), []

    def run(k):
        try:
            results[k] = jobs[k]()
        except BaseException as exc:  # handed to the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(jobs))]
    try:
        for thread in threads:
            with suppress(RuntimeError):  # no thread could start: the job stays unrun
                thread.start()
        results[0] = jobs[0]()
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    return results


def _philox_at(key, counter, skip):
    # A generator on a Philox of its own that starts at block counter + skip + 1.
    bitgen = np.random.Philox(key=key, counter=counter)
    bitgen.advance(skip)
    return np.random.Generator(bitgen)


def _hand_back(bitgen, state, pending):
    # Sets bitgen to state, with the pending 32-bit half taken from the state
    # pending instead: advance drops that half, which the one-thread draw keeps.
    bitgen.state = {**state, "has_uint32": pending["has_uint32"],
                    "uinteger": pending["uinteger"]}


def _mask_workers(size):
    # One thread per CPU this process may run on, each with at least
    # _MASK_MIN_DRAWS of the size uniforms.
    return max(1, min(_cpus(), size // _MASK_MIN_DRAWS))


def _fill_mask(rng, flat, p, buf):
    # flat = (the next flat.size uniforms of rng) < p, drawn through buf.
    for start in range(0, flat.size, buf.size):
        block = buf[:flat.size - start]
        rng.random(out=block)
        np.less(block, p, out=flat[start:start + buf.size])


def _fill_mask_range(key, counter, skip, flat, p, buf):
    # One worker's range: the uniforms from Philox block counter + skip + 1 on.
    _fill_mask(_philox_at(key, counter, skip), flat, p, buf)


def _bernoulli_mask(rng, n1, n2, p):
    """The n1 x n2 Bernoulli(p) mask ``rng.random((n1, n2)) < p``, bit for bit
    and leaving rng where that draw leaves it.

    The uniforms are drawn in blocks of consecutive row-major entries into
    reused 125 KiB buffers, so no n1 x n2 float array exists.  rng first
    draws what is left of its current block of four doubles; the whole
    blocks after it are cut into one contiguous range per worker (_launch's
    calling thread and threads), each filled through its own Philox at the
    range's start, the workers being the CPUs this process may run on,
    capped so that each draws at least _MASK_MIN_DRAWS uniforms; and rng
    then advances past them and draws the last partial block itself.  A
    mask with one worker, or from a generator that is not Philox, is drawn
    by rng alone; a range whose thread cannot start is filled by the
    calling thread.
    """
    mask = np.empty((n1, n2), dtype=bool)
    flat = mask.reshape(-1)
    bitgen = rng.bit_generator
    buf = np.empty(min(_MASK_BLOCK, flat.size))
    workers = _mask_workers(flat.size) if isinstance(bitgen, np.random.Philox) else 1
    if workers > 1:
        head = min(4 - bitgen.state["buffer_pos"], flat.size)
        nblk = (flat.size - head) // 4
        workers = min(workers, nblk)
    if workers < 2:
        _fill_mask(rng, flat, p, buf)
        return mask
    _fill_mask(rng, flat[:head], p, buf)
    state = bitgen.state
    key, counter = state["state"]["key"], state["state"]["counter"]
    cuts = [head + 4 * (nblk * k // workers) for k in range(workers + 1)]
    bufs = [buf] + [np.empty(buf.size) for _ in range(workers - 1)]
    ranges = [(key, counter, (a - head) // 4, flat[a:b], p, rbuf)
              for a, b, rbuf in zip(cuts, cuts[1:], bufs)]
    # The calling thread fills the first range itself: with every range on a
    # thread of its own, the n = 2000 mask took a median 10.6 ms against
    # 7.6 ms (AMD EPYC, 2 cores).
    done = _launch([partial(_fill_mask_range, *args) for args in ranges])
    for args, result in zip(ranges, done):
        if result is _NOT_RUN:
            _fill_mask_range(*args)
    bitgen.advance(nblk)
    _hand_back(bitgen, bitgen.state, state)
    _fill_mask(rng, flat[cuts[-1]:], p, buf)
    return mask


# Fewest normals a draw is split across two threads at: two threads read
# 0.96-0.98 of one thread's wall time at 2**16 normals, and 1.26-1.31 at
# 2**15 (ROADMAP item 2's one- against two-worker table).
_NORMAL_MIN_DRAWS = 2**16


def _normal_range(key, counter, skip, out):
    # The worker's range: out filled with the normals that a Philox of its
    # own decodes from block counter + skip + 1 on.  Returns its generator.
    gen = _philox_at(key, counter, skip)
    gen.standard_normal(out=out)
    return gen


def _standard_normal(rng, shape):
    """``rng.standard_normal(shape)``, bit for bit and leaving rng where that
    draw leaves it: its counter, buffer, buffer position and pending 32-bit
    half.

    A draw of at least _NORMAL_MIN_DRAWS normals from a Philox generator, in
    a process that may run on two CPUs, is split in two.  NumPy's ziggurat
    takes one 64-bit word per normal or more, so the second half's first
    normal, at the seam, starts at word (first word) + (half size) or later.
    A worker thread (_launch) fills the second half through its own Philox
    started at the block boundary at or before that word, while the calling
    thread fills the first.  Most normals take one word, so the worker's
    decoding falls onto the true word boundaries within a few words, before
    the seam: its output is the true stream from some normal on, about 2% of
    a half before the seam.  The two normals at the exact seam, drawn by rng
    and looked for in the first sixteenth of the worker's output, give that
    offset.  The worker's range is shifted left by it, its last normals are
    drawn by the worker's generator, which then stands at the one-shot
    draw's end state, and that state is handed to rng.  If the probe is not
    found, or the worker's thread could not start, the calling thread draws
    the second half from the seam.  Any other generator, or a smaller draw,
    is drawn by rng alone.
    """
    bitgen = getattr(rng, "bit_generator", None)
    # Not np.prod, which takes 8 µs a call: with it, the six small draws of
    # a blind deconvolution instance read bd_deconv setup_s +6% (4 pairs).
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    if size < _NORMAL_MIN_DRAWS or not isinstance(bitgen, np.random.Philox) or _cpus() < 2:
        return rng.standard_normal(shape)
    out = np.empty(shape)
    flat = out.reshape(-1)
    half = size // 2
    head, tail = flat[:half], flat[half:]
    state = bitgen.state
    # The block holding word buffer_pos + half of the current block.
    skip = (state["buffer_pos"] + half) // 4 - 1
    gen = _launch([partial(rng.standard_normal, out=head),
                   partial(_normal_range, state["state"]["key"], state["state"]["counter"],
                           skip, tail)])[1]
    seam, hits = bitgen.state, ()
    if gen is not _NOT_RUN:
        probe = rng.standard_normal(2)
        window = tail[:min(tail.size, half // 16 + 64)]
        hits = np.flatnonzero((window[:-1] == probe[0]) & (window[1:] == probe[1]))
    if len(hits) == 0:  # the worker did not run or never fell onto the seam's boundary
        bitgen.state = seam
        rng.standard_normal(out=tail)
        return out
    off = int(hits[0])
    for s in _slabs(tail.size - off, tail.itemsize):
        tail[s] = tail[s.start + off:s.stop + off]
    gen.standard_normal(out=tail[tail.size - off:])
    _hand_back(bitgen, gen.bit_generator.state, state)
    return out


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
    ValueError on complex input rather than drop its imaginary part.  Points
    are validated where they enter: the constructors check the kind and the
    part count.  Points derived from valid ones (copy, add_scaled, and the
    gradients of problems.loss_and_grad) are built by ``derived``, which
    skips those checks; add_scaled still checks the direction's part count.
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
    def derived(cls, kind, parts):
        """A point of ``kind`` from a tuple of arrays that already match it,
        without __post_init__'s checks."""
        point = object.__new__(cls)
        point.kind, point.parts = kind, parts
        return point

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
        return FactorPoint.derived(self.kind, tuple(p.copy() for p in self.parts))

    def add_scaled(self, alpha, direction):
        """self + alpha * direction, where direction is a matching parts tuple;
        a direction with another number of parts raises ValueError."""
        return FactorPoint.derived(self.kind, tuple(
            [p + alpha * d for p, d in zip(self.parts, direction, strict=True)]))

    def norm(self):
        return math.sqrt(sum([np.vdot(p, p).real for p in self.parts]))

    def isfinite(self):
        return all([np.isfinite(p).all() for p in self.parts])


def _real_factor(name, A):
    if np.iscomplexobj(A):
        raise ValueError(f"factor {name} must be real, got a complex array")
    return np.asarray(A, dtype=float)


# ---------------------------------------------------------------------------
# Subspace estimates
# ---------------------------------------------------------------------------

@dataclass
class SubspaceEstimate:
    basis: np.ndarray       # n x r, orthonormal columns
    values: np.ndarray      # r leading values, descending
    gap: float              # value r minus value r+1


def factored_svd(L, R):
    """The thin SVD of L R^T, never formed: L R^T = (Q1 U) diag(s) (Q2 V)^T
    from thin QRs L = Q1 T1, R = Q2 T2 and the r x r SVD T1 T2^T = U diag(s)
    V^T, O((n1 + n2) r^2) work.  Returns (Q1, U, s, V, Q2), so each caller
    applies the r x r factors in the order its bits were defined in."""
    (Q1, T1), (Q2, T2) = np.linalg.qr(L), np.linalg.qr(R)
    U, s, Vt = np.linalg.svd(T1 @ T2.T)
    return Q1, U, s, Vt.T, Q2


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


def dist_subspace(U, Ustar):
    """Spectral norm of U U^H - U* U*^H, i.e. the sine of the largest principal angle.

    Both inputs must have orthonormal columns (||U^H U - I||_F <= 1e-8); computed
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
        if err > 1e-8:
            raise ValueError(f"{name} argument is not orthonormal: ||U^H U - I|| = {err:.3e}")
    s = np.linalg.svd(U - Ustar @ (Ustar.conj().T @ U), compute_uv=False)
    return min(1.0, float(s[0])) if len(s) else 0.0


def dist_vector(x, xstar):
    """Sign/phase-minimized l2 distance: min over unit-modulus c of ||x - c xstar||.
    Real input returns sqrt(d.d) for d = x -/+ xstar, as gd's rows record;
    where x . xstar is 0, orthogonal or underflowed, the shorter d."""
    x = np.asarray(x).ravel()
    xstar = np.asarray(xstar).ravel()
    if np.isrealobj(x) and np.isrealobj(xstar):
        x, xstar = x.astype(float, copy=False), xstar.astype(float, copy=False)
        ip = float(x @ xstar)
        d = x - (-1.0 if ip < 0.0 else 1.0) * xstar
        if ip == 0.0 and float((x + xstar) @ (x + xstar)) < float(d @ d):
            d = x + xstar
        return math.sqrt(float(d @ d))
    w = complex(np.vdot(xstar, x))
    c = w / abs(w) if w != 0 else 1.0  # optimal phase; any c ties when orthogonal
    diff = x - c * xstar
    return float(np.linalg.norm(diff))


_LN2 = math.log(2.0)
_SPLIT = 2.0 ** -960  # above this, squares lost to underflow are below eps of the norm^2
_BD_MARGIN = 0.1  # dist_bd's bracket margin in s; G > 0 by ~MARGIN (M+N)^2 at its ends


def _ldexp(v, k):
    """v * 2^k for a complex array, exact unless it under- or overflows."""
    return np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)


def _norm(v):
    """||v|| of a complex vector (np.linalg.norm costs twice as much)."""
    return math.sqrt(np.vdot(v, v).real)


def _split_norm(v):
    """(n, e) with ||v|| = n 2^e, where n is accurate also when ||v||^2
    under- or overflows: v is then rescaled by 2^-e, e the exponent of its
    largest entry, before the norm is taken."""
    n = _norm(v)
    if _SPLIT < n * n < math.inf:
        return n, 0
    e = math.frexp(float(max(np.max(np.abs(v.real)), np.max(np.abs(v.imag)))))[1]
    return _norm(_ldexp(v, -e)), e


def bd_truth_norms(hstar, xstar):
    """(||hstar||, ||xstar||) as dist_bd takes them, for its truth_norms."""
    return (_norm(np.asarray(hstar, dtype=complex).ravel()),
            _norm(np.asarray(xstar, dtype=complex).ravel()))


def dist_bd(h, x, hstar, xstar, *, truth_norms=None):
    """Distance modulo the complex scaling ambiguity of a bilinear pair:

        min over complex alpha of sqrt(||h / conj(alpha) - hstar||^2 + ||alpha x - xstar||^2)

    The pair is first moved exactly along its orbit, to (h / 2^j, 2^j x)
    with ||h|| and ||x|| within a factor 2 of each other, so the search
    below sees the same numbers wherever on the orbit the input lies.  With
    alpha = e^s e^{i phi} the best phase is conj(w)/|w|, which leaves, in
    a = ||x|| e^s and b = ||h|| e^{-s} (ab is fixed),

        g(s) = b^2 + ||hstar||^2 + a^2 + ||xstar||^2 - 2|w(s)|,
        w(s) = c_h e^{-s} + c_x e^{s},  c_h = hstar^H h,  c_x = xstar^H x,

    whose derivative g'(s) = 2G(s) has G = a^2 - b^2 - (|c_x|^2 e^{2s} -
    |c_h|^2 e^{-2s}) / |w|.  With M = max(||hstar||, ||xstar||) and
    N = sqrt(ab), G > 0 once a exceeds M + N and G < 0 once b does, so
    every minimizer lies in the bracket [log(||h|| / (M+N)), log((M+N) /
    ||x||)], widened by _BD_MARGIN.  The lengths are divided by a power of 2
    near M + N, which keeps every term of the search at most ~1.

    With u = e^{4s}, q(u) = e^{2s} G is convex in u above s_c, where
    |c_h| e^{-s} = |c_x| e^{s}, and concave below it, so q / u is convex in
    1/u there.  Monotone Newton on q in u, from the upper end of the
    bracket, and on -q / u in 1/u, from the lower end, thus descends onto
    the upward zero of G on its side of s_c: the side's only local minimum
    of g.  A side has no minimum when the Newton derivative is <= 0 or the
    step crosses s_c; if neither side has one, g increases away from s_c
    and s_c is the minimizer.  Both sides are searched, so where c_h e^{-s}
    and c_x e^{s} nearly cancel and g has a sharp local maximum at s_c
    between two basins, the closed form picks the deeper one.  Each side
    takes at most 40 steps, and stops at a step below 1e-10 in s.  The
    result is the norm of the residual vectors there, accurate down to
    distances of ~eps ||(hstar, xstar)||: an exact scaling gives about
    1e-15 of that norm.

    A zero h or x raises ValueError.  A NaN or infinite entry gives nan,
    and finite entries whose squared norms or residuals overflow give inf.
    A caller that measures many pairs against one truth passes
    truth_norms = bd_truth_norms(hstar, xstar), taken once.
    """
    h = np.asarray(h, dtype=complex).ravel()
    x = np.asarray(x, dtype=complex).ravel()
    hstar = np.asarray(hstar, dtype=complex).ravel()
    xstar = np.asarray(xstar, dtype=complex).ravel()
    nh, nx = _norm(h), _norm(x)
    nhs, nxs = bd_truth_norms(hstar, xstar) if truth_norms is None else truth_norms
    eh = ex = 0
    if not (_SPLIT < nh * nh < math.inf and _SPLIT < nx * nx < math.inf
            and nhs * nhs + nxs * nxs < math.inf):
        if not all(np.isfinite(v).all() for v in (h, x, hstar, xstar)):
            return math.nan
        if not (h.any() and x.any()):
            raise ValueError("dist_bd needs nonzero h and x")
        if nhs * nhs + nxs * nxs == math.inf:
            return math.inf
        (nh, eh), (nx, ex) = _split_norm(h), _split_norm(x)
    # gamma = c / ||v|| is the same at every point of the orbit.
    gh = complex(np.vdot(hstar, _ldexp(h, -eh) if eh else h)) / nh
    gx = complex(np.vdot(xstar, _ldexp(x, -ex) if ex else x)) / nx
    j = (math.frexp(nh)[1] + eh - math.frexp(nx)[1] - ex) // 2
    lh, lx = math.log(math.ldexp(nh, eh - j)), math.log(math.ldexp(nx, ex + j))
    lm, m = 0.5 * (lh + lx), max(nhs, nxs)  # log N, M
    if m > 0.0:  # log(M + N)
        lm = max(lm, math.log(m)) + math.log1p(math.exp(-abs(lm - math.log(m))))
    lo, hi = lh - lm - _BD_MARGIN, lm - lx + _BD_MARGIN
    e = max(round(lm / _LN2), -1074)
    if e > 1023:  # N alone overflows the residual
        return math.inf
    unit = math.ldexp(1.0, e)  # a power of 2 near M + N
    gh, gx = gh / unit, gx / unit
    kh, kx = gh.real * gh.real + gh.imag * gh.imag, gx.real * gx.real + gx.imag * gx.imag
    C = (nhs / unit) ** 2 + (nxs / unit) ** 2
    la, lb = lx - e * _LN2, lh - e * _LN2  # a = e^{la + s} and b = e^{lb - s}, over unit
    if kh > 0.0 and kx > 0.0:
        s_c = 0.25 * (math.log(kh) - math.log(kx)) + 0.5 * (lb - la)
    else:
        s_c = -math.inf if kh == 0.0 else math.inf  # one convex or concave piece

    def newton(s, up):
        """Monotone Newton from the bracket end s toward s_c: in u = e^{4s}
        on q when ``up``, in 1/u on -q / u otherwise.  None if the side has
        no minimum."""
        sign = 1.0 if up else -1.0
        for _ in range(40):
            a, b = math.exp(la + s), math.exp(lb - s)
            w = gh * b + gx * a
            aw = math.hypot(w.real, w.imag)
            a2, b2 = a * a, b * b
            G, F = a2 - b2, 4.0 * (a2 if up else b2)
            if aw > 0.0:
                d = (kx * a2 - kh * b2) / aw
                G -= d
                F += (d * d - 4.0 * (kx * a2 if up else kh * b2)) / aw
            if sign * G <= 0.0:  # G has reached its zero, up to rounding
                return s
            r = sign * 4.0 * G / F if F > 0.0 else math.inf
            if r >= 1.0:  # no minimum: dq/du <= 0, or the step lands past u = 0
                return None
            step = 0.25 * sign * math.log1p(-r)
            if sign * (s + step - s_c) <= 0.0:  # the step crosses s_c
                return None
            s += step
            if abs(step) <= 1e-10:
                break
        return s

    sides = [newton(hi, True) if s_c < hi else None, newton(lo, False) if s_c > lo else None]
    found = [s for s in sides if s is not None] or [min(max(s_c, lo), hi)]

    def w_at(s):
        return gh * math.exp(lb - s) + gx * math.exp(la + s)

    def g(s):
        a, b, w = math.exp(la + s), math.exp(lb - s), w_at(s)
        return a * a + b * b + C - 2.0 * math.hypot(w.real, w.imag)

    s = min(found, key=g)
    w = w_at(s)
    aw = math.hypot(w.real, w.imag)
    phase = w.conjugate() / aw if aw > 0.0 else 1.0
    # The residual at (h / 2^t, 2^t x), t = j + k, and alpha = phase e^{s - k log 2}.
    k = round(s / _LN2)
    frac, t = s - k * _LN2, j + k
    if t:
        h, x = _ldexp(h, -t), _ldexp(x, t)
    d1 = (phase * math.exp(-frac)) * h - hstar
    d2 = (phase * math.exp(frac)) * x - xstar
    best = float(np.vdot(d1, d1).real + np.vdot(d2, d2).real)
    return math.sqrt(best) if math.isfinite(best) else math.inf


def incoherence_mu(M, r):
    """Smallest mu such that the rank-r SVD factors of M satisfy both
    ||U||_{2,inf} <= sqrt(mu r / n1) and ||V||_{2,inf} <= sqrt(mu r / n2).
    sigma_r <= 1e-12 sigma_1 is refused as rank-deficient."""
    M = np.asarray(M)
    n1, n2 = M.shape
    r = setting("r", r, "positive count")
    if r > min(n1, n2):
        raise ValueError("need 1 <= r <= min(n1, n2)")  # problems._shape's message
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return _basis_mu(U, Vh.T, s, r)


def _basis_mu(U, V, s, r):
    # incoherence_mu from the bases U, V of an SVD (their first r columns)
    # and its values s: n / r times the largest squared row norm of each
    # basis, the larger of the two; sigma_r <= 1e-12 sigma_1 is refused.
    if s[r - 1] <= 1e-12 * max(s[0], np.finfo(float).tiny):
        raise ValueError(f"matrix is numerically rank-deficient at rank {r}: "
                         f"sigma_r = {s[r - 1]:.3e}")
    return max(Q.shape[0] / r * float(np.max(np.sum(np.abs(Q[:, :r]) ** 2, axis=1)))
               for Q in (U, V))


def bd_incoherence(h, B, u=None):
    """sqrt(m) max_j |b_j^H h| / ||h|| for rows b_j^H of B; u = B h if given.
    An h whose ||h||^2 under- or overflows is rescaled by a power of 2 first."""
    h = np.asarray(h, dtype=complex).ravel()
    B = np.asanyarray(B)
    nh, e = _split_norm(h)
    if nh == 0.0:
        raise ValueError("bd_incoherence needs nonzero h")
    if e or u is None:
        u = B @ (_ldexp(h, -e) if e else h)
    return math.sqrt(B.shape[0]) * float(np.abs(u).max()) / nh


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
# Settings
# ---------------------------------------------------------------------------

def setting(name, value, rule, optional=False):
    """``value`` checked as the setting ``name``: a "count" is a whole number
    >= 0 and a "positive count" one >= 1, returned as an int (3.0 passes;
    2.5, nan and inf do not); a "bound" is a number >= 0 and a "positive
    bound" one > 0 (inf passes, nan does not), and a "finite bound" or
    "finite positive bound" refuses inf as well.  None passes only if
    ``optional``; a bool (or NumPy bool) passes no rule, being most likely a
    misplaced flag; any other refused value raises ValueError naming it."""
    if value is None and optional:
        return value
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not the bool {bool(value)}")
    finite = rule.startswith("finite")
    count, positive = rule.endswith("count"), "positive" in rule
    try:  # int() raises on inf
        ok = bool(value > 0 if positive else value >= 0) and (not count or value == int(value)) \
            and (not finite or math.isfinite(value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        want = ("a positive integer", "a nonnegative integer") if count \
            else ("positive", "nonnegative")
        raise ValueError(f"{name} must be {'finite and ' if finite else ''}{want[not positive]}")
    return int(value) if count else value


def check_fields(config, **rules):
    """``setting`` on each named field of a dataclass; None passes where the default is None."""
    defaults = {f.name: f.default for f in fields(config)}
    for name, rule in rules.items():
        setattr(config, name, setting(name, getattr(config, name), rule, defaults[name] is None))


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
        self.ms.append(elapsed_ms)
        extras = self.extras
        for k, v in extra.items():
            column = extras.get(k)
            if column is None:
                extras[k] = [v]
            else:
                column.append(v)

    def __len__(self):
        return len(self.iters)

    @property
    def final_dist(self):
        return self.dist[-1] if self.dist else float("nan")

    def to_csv(self, path, wall_time=False):
        """Write the trace: the TRACE_COLUMNS, then the extras in the order
        they first appeared.  wall_time=False zeroes ms for reproducible
        files."""
        columns = (self.iters, self.loss, self.grad_norm, self.dist, self.incoh,
                   self.ms if wall_time else [0.0] * len(self), *self.extras.values())
        lines = [",".join((*TRACE_COLUMNS, *self.extras))]
        for row in zip(*columns, strict=True):
            lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                  for v in row))
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
    "max_iters" at row `last`.  Steps and evaluations run with NumPy's
    overflow, divide-by-zero and invalid-value warnings off, since a
    non-finite value on the way to a diverged label is expected.

    Inputs are validated where they enter the library (the point
    constructors, the solver configs, the public losses, masks and
    distances), not here: the points that step() returns are derived ones
    (FactorPoint.derived, add_scaled) and skip the constructors' checks, so
    a row's only tests of its own are the divergence and stop tests above.
    """
    trace = Trace()
    trace.start_clock()
    point, aux = start, None
    for t in range(last + 1):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if t > 0:
                point = step(t - 1, point, aux)
            if t < first:
                continue
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
