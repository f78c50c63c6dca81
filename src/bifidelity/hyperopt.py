"""Kernel hyperparameter tuning.

The objective scores a candidate kernel Gramian K by its Frobenius distance
to the linear-kernel reference Gramian plus a stable-rank penalty
lambda / sqrt(srank), srank = ||K||_F^2 / ||K||_2^2. A particle swarm
explores a (log-scaled) box, and its best particle is the tuned point.
The linear family has nothing to tune: its Gramian is the reference, so
it scores the stability term alone.

Every family of a run reads one ``TuningTable``, the packed strict upper
triangles of the LF distances and of the reference, each collected in one
pass over row blocks; no N x N matrix is formed for either. Every
profile is written into the table's one buffer. One formula,
``TuningTable.terms``, gives the fit and ||K||_F in one fixed summation
order, and ``_objective`` adds the penalty, with ||K||_2 from one
eigensolve. The swarm only compares scores, so each point is first
bracketed from the same terms and cheap bounds on ||K||_2 (``_bracket``),
and scored exactly only when two brackets overlap, or for a value the
swarm returns. The tuned h are then the ones exact scores give, with one
case a bracket cannot see: an eigensolve that fails to converge on a
finite symmetric Gramian, which the exact objective maps to inf, while
the bracket holds finite bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import _BLOCK_DOUBLES, checked_number
from .kernels import (
    HYPER_DIMS,
    KernelFamily,
    KernelSpec,
    _distances,
    _kernel_block,
    _kernel_diagonal,
    radial_profile,
)
from .numerics import NumericsError, spectral_norm

__all__ = [
    "ObjectiveConfig",
    "PsoConfig",
    "OptimizedKernel",
    "pso_minimize",
    "refine_local",
    "TuningTable",
    "optimize_hyperparams",
    "default_bounds",
]


@dataclass(frozen=True)
class ObjectiveConfig:
    """Inputs for the hyperparameter objective of one kernel family."""

    lam: float
    family: KernelFamily
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        lam = checked_number(self.lam, "lambda")
        if lam < 0:
            raise ValueError(f"lambda must be non-negative, got {lam!r}")
        family = KernelFamily(self.family)
        bounds = tuple((checked_number(lo, f"bounds[{i}] lo"), checked_number(hi, f"bounds[{i}] hi"))
                       for i, (lo, hi) in enumerate(self.bounds))
        if len(bounds) != HYPER_DIMS[family]:
            raise ValueError(f"{family.name} needs {HYPER_DIMS[family]} bound pairs, got {len(bounds)}")
        for lo, hi in bounds:
            if not 0 < lo < hi:
                raise ValueError(f"bounds must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings; the velocity limit is a fraction of the box span."""

    swarm_size: int = 30
    k1: float = 1.49
    k2: float = 1.49
    v_max_fraction: float = 0.2
    max_iters: int = 100
    stall_iters: int = 15
    seed: int = 0

    def __post_init__(self):
        # each field takes the kind of its default (``checked_number``)
        for f in fields(self):
            value = checked_number(getattr(self, f.name), f.name, integer=isinstance(f.default, int))
            object.__setattr__(self, f.name, value)
        # numpy sizes an axis by a signed 64-bit integer
        if not 2 <= self.swarm_size < 2**63:
            raise ValueError(f"swarm_size must be at least 2 and below 2**63, got {self.swarm_size}")
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError(f"k1 and k2 must be positive, got {self.k1}, {self.k2}")
        if not 0 < self.v_max_fraction <= 1:
            raise ValueError("v_max_fraction must be in (0, 1]")
        if self.max_iters < 1 or self.stall_iters < 1:
            raise ValueError("max_iters and stall_iters must be at least 1")


@dataclass(frozen=True)
class OptimizedKernel:
    """A tuned kernel spec with optimization bookkeeping.

    ``evaluations_used`` counts the swarm's objective requests, repeats
    included; ``distinct_evaluations`` counts the objective computations,
    one per distinct point.
    """

    spec: KernelSpec
    objective_value: float
    evaluations_used: int
    distinct_evaluations: int = 0


def _spec_for(cfg: ObjectiveConfig, h) -> KernelSpec:
    arr = np.atleast_1d(np.asarray(h, dtype=float))
    return KernelSpec(family=cfg.family, h=tuple(float(v) for v in arr))


class _Bracket:
    """An objective value known to lie in [lo, hi] until ``float()`` asks for it.

    ``exact(arg)`` computes the value; it runs at most once, and the
    bracket then narrows to that value. ``refine(arg)``, where given,
    returns tighter bounds for less than the exact value costs;
    ``narrow()`` applies it once, and resolves exactly after that.
    """

    __slots__ = ("lo", "hi", "exact", "arg", "refine")

    def __init__(self, lo: float, hi: float, exact, arg, refine=None):
        self.lo, self.hi, self.exact, self.arg, self.refine = lo, hi, exact, arg, refine

    def narrow(self) -> None:
        if self.refine is None:
            float(self)
            return
        lo, hi = self.refine(self.arg)
        self.lo, self.hi, self.refine = max(self.lo, lo), min(self.hi, hi), None

    def __float__(self) -> float:
        if self.exact is not None:
            self.lo = self.hi = float(self.exact(self.arg))
            self.exact = self.arg = self.refine = None
        return self.lo


def _less(a, b) -> bool:
    """``a < b`` for scores that may be brackets; a float is its own bracket.

    While the two brackets overlap, a pending one is narrowed: refined
    while either can be, then resolved, ``a`` first each time (the
    challenger, in the swarm). So the answer is the one the exact values
    give, and a value is resolved only where the refined brackets overlap.
    """
    while True:
        a_lo, a_hi = (a.lo, a.hi) if isinstance(a, _Bracket) else (a, a)
        b_lo, b_hi = (b.lo, b.hi) if isinstance(b, _Bracket) else (b, b)
        if a_hi < b_lo or a_lo >= b_hi:
            return a_hi < b_lo
        pending = [v for v in (a, b) if isinstance(v, _Bracket) and v.exact is not None]
        min(pending, key=lambda v: v.refine is None).narrow()


class _Memoized:
    """A scalar objective ``f`` scored once per distinct point.

    Points are keyed by their exact float64 bytes, so a repeated request
    returns the very value a fresh computation would. ``score`` returns a
    pending _Bracket where ``bounds`` gives (lo, hi) on ``f``, and ``f``'s
    value otherwise; ``refine``, where given, gives the bracket's tighter
    bounds. A pending point holds only its key and bounds. ``requests``
    counts every request, repeats included; ``values`` holds one entry per
    distinct point.
    """

    def __init__(self, f, bounds, refine=None):
        self.f = f
        self.bounds = bounds
        self.values: dict[bytes, float | _Bracket] = {}
        self.requests = 0
        self._f_at = lambda key: f(np.frombuffer(key))
        self._refine_at = None if refine is None else lambda key: refine(np.frombuffer(key))

    def score(self, x):
        self.requests += 1
        key = np.asarray(x, dtype=float).tobytes()
        if key not in self.values:
            b = self.bounds(x)
            self.values[key] = self.f(x) if b is None else _Bracket(*b, self._f_at, key, self._refine_at)
        return self.values[key]


def _squares(v: np.ndarray) -> float:
    """The sum of ``v``'s squares, in one fixed order that no BLAS thread count changes."""
    return float(np.einsum("i,i->", v, v))


def _median(values: np.ndarray) -> float:
    """``np.median`` of finite, non-empty ``values``, bit for bit: the middle
    value, or (a + b) / 2.0 of the two middle ones for an even count.

    The values are partitioned in a copy, freed on return; ``np.median``
    would load numpy.ma for its NaN check.
    """
    n = values.size
    part = np.partition(values, ((n - 1) // 2, n // 2))
    a, b = float(part[(n - 1) // 2]), float(part[n // 2])
    return a if n % 2 else (a + b) / 2.0


class TuningTable:
    """Tuning's inputs, formed once from the LF columns ``X`` and shared by every family.

    Both Gramian-sized inputs are packed, each collected by one pass of
    ``_upper_triangle``, so no N x N array is ever formed. The linear
    reference is its diagonal ``ref_diag`` and its strict upper triangle
    ``ref_upper``, row by row; a non-finite entry raises ArithmeticError
    before any distance is formed. ``dists`` holds the distances' strict
    upper triangle alike, so one ``radial_profile`` call on it gives each
    off-diagonal entry once; the diagonal is every radial profile's value
    at r = 0, exactly 1. ``dbar``, the scale of the search box, is the
    median distance between distinct columns: 1.0 for N < 2 or a zero
    median, and a non-finite distance raises ArithmeticError.

    ``profile`` writes a radial kernel's values on ``dists`` into the
    table's one buffer ``values``, with the zero distances set from their
    precomputed index ``zeros``, and ``terms`` takes its fit difference in
    that buffer too. So a profile is read only until the next ``profile``
    or ``terms`` call, and the table is not for concurrent use.
    """

    __slots__ = ("n", "dists", "zeros", "ref_upper", "ref_diag", "dbar", "values", "_unit_diagonal")

    def __init__(self, X: np.ndarray):
        linear = KernelSpec(family=KernelFamily.LINEAR)
        self.n = X.shape[1]
        self.ref_diag = _kernel_diagonal(linear, X)
        self.ref_upper = _upper_triangle(X, lambda a, b: _kernel_block(linear, a, b))
        if not (np.isfinite(self.ref_diag).all() and np.isfinite(self.ref_upper).all()):
            raise ArithmeticError("linear reference Gramian has non-finite entries")
        self.dists = _upper_triangle(X, _distances)
        if not np.isfinite(self.dists).all():
            raise ArithmeticError("pairwise column distances are non-finite")
        med = _median(self.dists) if self.dists.size else 1.0
        self.dbar = med if med > 0 else 1.0
        self.zeros = np.flatnonzero(self.dists == 0.0)
        self.values = np.empty_like(self.dists)
        ones = np.ones(self.n)
        self._unit_diagonal = _squares(self.ref_diag - ones), _squares(ones)

    def profile(self, spec: KernelSpec) -> np.ndarray:
        """``radial_profile(spec, dists)``, written into ``values``."""
        return radial_profile(spec, self.dists, out=self.values, zeros=self.zeros)

    def gramian(self, diag, off: np.ndarray) -> np.ndarray:
        """The symmetric matrix with diagonal ``diag`` (one value or N) and strict upper triangle ``off``."""
        upper = ~np.tri(self.n, dtype=bool)
        K = np.empty((self.n, self.n))
        K[upper] = off
        K.T[upper] = off
        K.flat[:: self.n + 1] = diag
        return K

    def terms(self, diag, off: np.ndarray) -> tuple[float, float]:
        """(||ref - K||_F, ||K||_F^2) for K = ``gramian(diag, off)``: each strict
        upper square counts twice and each diagonal one once, summed by
        ``_squares``. The difference ref - off is taken in ``values``, which
        spends a profile held there. ``diag`` is N values (the linear
        family's ``ref_diag``) or 1.0, every radial profile's, whose two
        sums ``__init__`` formed once."""
        off_squares = _squares(off)
        fit_squares = _squares(np.subtract(self.ref_upper, off, out=self.values))
        if isinstance(diag, np.ndarray):
            ref_squares, diag_squares = _squares(self.ref_diag - diag), _squares(diag)
        else:
            ref_squares, diag_squares = self._unit_diagonal
        return math.sqrt(2.0 * fit_squares + ref_squares), 2.0 * off_squares + diag_squares


def _objective(cfg: ObjectiveConfig, tri: TuningTable, diag, off: np.ndarray) -> float:
    """The objective of ``tri.gramian(diag, off)``, unpacked only for the
    penalty's ||K||_2 where lam > 0, and before ``tri.terms`` spends the
    profile; any numerical failure is inf."""
    K = tri.gramian(diag, off) if cfg.lam != 0.0 else None
    fit, fro2 = tri.terms(diag, off)
    if not fro2 < math.inf:  # a non-finite entry, or squares that overflow
        return math.inf
    if K is None:
        return fit
    try:
        sigma = spectral_norm(K)
        return fit + cfg.lam / math.sqrt(fro2 / sigma**2)
    except (NumericsError, ValueError, ArithmeticError):
        return math.inf


def _profile(cfg: ObjectiveConfig, h, tri: TuningTable) -> np.ndarray | None:
    """The kernel at ``h`` on the packed distances, in ``tri.values``; None where h names no kernel."""
    try:
        return tri.profile(_spec_for(cfg, h))
    except ValueError:
        return None


def _packed_objective(cfg: ObjectiveConfig, h, tri: TuningTable) -> float:
    """The objective at ``h``, from one profile call on the packed distances.

    A radial profile acts entry by entry, so the entries are bit for bit
    those ``_kernel_block`` forms on the whole distance matrix, and its
    diagonal is 1.0. Any failure is inf, so the swarm can treat the
    objective as total.
    """
    values = _profile(cfg, h, tri)
    if values is None:
        return math.inf
    return _objective(cfg, tri, 1.0, values)


# The bracket adds its bounds to the exact objective's own fit and
# F = ||K||_F^2, so (rounding being monotone) it holds the exact value when
# lam b / sqrt(F), for the computed bounds b on ||K||_2, holds the exact
# lam / sqrt(F / s^2). With u = 2^-53, the eigensolve's s is within N u of
# ||K||_2 (backward stable; LAPACK's modest p(N) taken as N), mean(r) sums
# N^2 / 2 nonnegative terms, sqrt(F) halves F's error, and each side rounds
# 8 more times: (N^2 / 2 + N + 8) u in all, which N^2 u covers for N >= 5,
# and the floor 1e-9 up to N = 3,000.
def _bracket_pad(n: int) -> float:
    """The relative pad on the bracket's stability term at N = ``n``."""
    return max(1e-9, n * n * 2.0**-53)


def _bracket(cfg: ObjectiveConfig, h, tri: TuningTable, rows: bool = False):
    """Bounds (lo, hi) on ``_packed_objective`` at ``h``, or None where none are known.

    One profile call on the packed triangle gives each off-diagonal entry
    once; the diagonal value k0 is a radial profile's 1. For a finite,
    nonnegative K (every radial family; the triangle is exactly symmetric)
    with row sums r = K 1, the Rayleigh quotients at the ones vector and at
    e_i + e_j give ||K||_2 >= max(mean(r), k0 + max_{i<j} K_ij), and
    ||K||_2 <= min(max(r), ||K||_F) (Horn & Johnson, Matrix Analysis, 8.1).
    mean(r) is the triangle's sum; the full row sums take the unpacked
    Gramian, so they are formed only with ``rows``, and without them
    max(r) <= k0 + (N - 1) max_{i<j} K_ij stands in. The penalty lies
    between the two, padded by ``_bracket_pad``, on the exact objective's
    own fit and ||K||_F (``tri.terms``). Every other case (lam = 0, a
    negative or non-finite entry, squares that overflow) gives None.
    """
    if cfg.lam == 0.0:
        return None
    values = _profile(cfg, h, tri)
    if values is None:
        return None
    n, k0, off = tri.n, 1.0, values
    top = float(off.max(initial=-math.inf))
    # written so that NaN fails each test
    if not (off.min(initial=k0) >= 0.0 and top < math.inf):
        return None
    if rows:
        r = tri.gramian(k0, off) @ np.ones(n)
        mean, most = float(r.sum()) / n, float(r.max())
    else:
        mean, most = k0 + 2.0 * float(off.sum()) / n, k0 + (n - 1) * max(top, 0.0)
    fit, fro2 = tri.terms(k0, off)
    if not (fit < math.inf and fro2 < math.inf):  # fro2 >= N, the diagonal's
        return None
    scale, pad = cfg.lam / math.sqrt(fro2), _bracket_pad(n)
    lo = fit + scale * max(mean, k0 + top) * (1.0 - pad)
    hi = fit + scale * min(most, math.sqrt(fro2)) * (1.0 + pad)
    return lo, hi


def _scores(cfg: ObjectiveConfig, tri: TuningTable) -> _Memoized:
    """One family's objective over log h, memoized and bracketed from the packed triangle.

    Each point is bracketed without row sums; a bracket is refined with
    them only when a comparison needs it.
    """
    return _Memoized(
        lambda theta: _packed_objective(cfg, np.exp(theta), tri),
        lambda theta: _bracket(cfg, np.exp(theta), tri),
        lambda theta: _bracket(cfg, np.exp(theta), tri, rows=True),
    )


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011), as numpy's Philox bit generator runs it: the multipliers of
# the two products per round, and the Weyl increments of the two key words.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32, _MASK64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
# swarm iterations whose draws one ``_philox_uniforms`` call takes
_DRAW_CHUNK = 16


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of the 128-bit products m * x, the high one from 32-bit halves."""
    m0, m1 = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x0, x1 = x & _MASK32, x >> 32
    p00, p01, p10 = x0 * m0, x0 * m1, x1 * m0
    carry = ((p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)) >> 32
    return x * np.uint64(m), x1 * m1 + (p01 >> 32) + (p10 >> 32) + carry


def _philox_uniforms(seed: int, streams: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` uniforms on [0, 1) of each stream, one row per uint64 entry of ``streams``.

    Stream s is the Philox4x64-10 generator keyed (seed mod 2**64, s), so a
    row is bit for bit ``np.random.Generator(np.random.Philox(key=[seed, s]))
    .uniform(size=count)``: numpy steps the counter before each block of
    four words, so the blocks are counters 1, 2, ..., and a word w gives
    (w >> 11) * 2**-53. Every stream and block is one lane of the same
    uint64 array arithmetic, which wraps as the generator's does.
    """
    shape = (streams.size, -(-count // 4))
    c0 = np.broadcast_to(np.arange(1, shape[1] + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed & _MASK64, streams[:, None]
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, k1 + np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(streams.size, -1)[:, :count]
    return (words >> 11) * 2.0**-53


def _streams(iterations: range, particles: int) -> np.ndarray:
    """The swarm's stream (it << 32) | p, each index mod 2**32, for every
    iteration it in ``iterations`` and then every particle p."""
    its = np.array([(it & _MASK32) << 32 for it in iterations], dtype=np.uint64)
    return (its[:, None] | (np.arange(particles, dtype=np.uint64) & np.uint64(_MASK32))).ravel()


def _score(f, p):
    """``f(p)``: a _Bracket as it is, any other score as a float; NaN raises ValueError."""
    value = f(p)
    if isinstance(value, _Bracket):
        return value
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"objective is NaN at {p.tolist()}")
    return value


def pso_minimize(f, cfg: PsoConfig, bounds) -> tuple[np.ndarray, float, list[float]]:
    """Particle swarm minimization over a box.

    Velocity update: v <- v + k1*rho*(best_own - h) + k2*gamma*(best_all - h)
    with rho, gamma drawn fresh per particle per iteration; velocities are
    clamped componentwise and positions clipped to the box. Returns the
    best-ever position, its value, and the best-value trace per iteration.

    Every draw comes from its own counter-based stream: particle p's
    starting position and velocity are the first 2 * dim uniforms of
    stream (0, p), and its (rho, gamma) at iteration it the first two of
    stream (it, p), each keyed with ``cfg.seed`` (``_philox_uniforms``,
    numpy's Philox bit for bit). The draws of ``_DRAW_CHUNK`` iterations
    are taken in one call.

    ``f`` returns a float or a _Bracket. Scores are only compared, through
    ``_less``, so a bracket is resolved only when a comparison needs it (and
    for the returned value and trace, which are exact). A NaN score raises
    ValueError naming the point.
    """
    bounds = np.asarray(bounds, dtype=float)
    if (bounds.ndim != 2 or bounds.shape[1] != 2 or not np.isfinite(bounds).all()
            or np.any(bounds[:, 0] >= bounds[:, 1])):
        raise ValueError("bounds must be an array of finite (lo, hi) pairs with lo < hi")
    lo, hi = bounds[:, 0], bounds[:, 1]
    dim = bounds.shape[0]
    span = hi - lo
    vmax = cfg.v_max_fraction * span

    start = _philox_uniforms(cfg.seed, _streams(range(1), cfg.swarm_size), 2 * dim)
    pos = lo + start[:, :dim] * span
    vel = (2.0 * start[:, dim:] - 1.0) * vmax

    best_val = [_score(f, p) for p in pos]
    best_pos = pos.copy()
    # the first particle holding the least value, as np.argmin picks it
    g_idx = 0
    for i in range(1, cfg.swarm_size):
        if _less(best_val[i], best_val[g_idx]):
            g_idx = i
    g_pos = best_pos[g_idx].copy()
    g_val = best_val[g_idx]
    trace = [g_val]

    stall = 0
    for it in range(1, cfg.max_iters + 1):
        k = (it - 1) % _DRAW_CHUNK
        if k == 0:
            its = range(it, min(it + _DRAW_CHUNK, cfg.max_iters + 1))
            chunk = _philox_uniforms(cfg.seed, _streams(its, cfg.swarm_size), 2).reshape(len(its), -1, 2)
        draws = chunk[k]  # (rho, gamma) per particle
        vel += cfg.k1 * draws[:, :1] * (best_pos - pos)
        vel += cfg.k2 * draws[:, 1:] * (g_pos - pos)
        np.clip(vel, -vmax, vmax, out=vel)
        pos += vel
        np.clip(pos, lo, hi, out=pos)
        values = [_score(f, p) for p in pos]
        # g_val is the least personal best, so only an improved particle can
        # beat it; taking them in order keeps the first of any tie
        improved = False
        for i, value in enumerate(values):
            if _less(value, best_val[i]):
                best_val[i] = value
                best_pos[i] = pos[i]
                if _less(value, g_val):
                    g_val, g_pos, improved = value, pos[i].copy(), True
        stall = 0 if improved else stall + 1
        trace.append(g_val)
        if stall >= cfg.stall_iters:
            break
    return g_pos.copy(), float(g_val), [float(v) for v in trace]


def _fd_gradient(f, x: np.ndarray, fx: float) -> np.ndarray:
    """Central finite differences with one-sided fallback near failures."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        fp, fm = f(xp), f(xm)
        if np.isfinite(fp) and np.isfinite(fm):
            grad[i] = (fp - fm) / (2.0 * step)
        elif np.isfinite(fp):
            grad[i] = (fp - fx) / step
        elif np.isfinite(fm):
            grad[i] = (fx - fm) / step
        else:
            grad[i] = 0.0
    return grad


def refine_local(
    f,
    h0,
    bounds,
    grad_tol: float = 1e-8,
    step_tol: float = 1e-12,
    max_iters: int = 500,
) -> tuple[np.ndarray, float]:
    """Projected quasi-Newton descent from ``h0`` inside a box.

    Tuning does not call it; it is kept while ``perfbench/child.py`` binds the name.

    Gradients use central finite differences with step 1e-6 * max(1, |h|).
    Stops when the gradient infinity norm reaches ``grad_tol``, the step
    shrinks to ``step_tol``, or after ``max_iters`` iterations. The result
    never exceeds f(h0).
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    x = np.clip(np.asarray(h0, dtype=float).copy(), lo, hi)
    fx = f(x)
    best_x, best_f = x.copy(), fx
    if not np.isfinite(fx):
        return best_x, best_f
    dim = x.size
    Hinv = np.eye(dim)
    grad = _fd_gradient(f, x, fx)

    for _ in range(max_iters):
        if np.max(np.abs(grad)) <= grad_tol:
            break
        direction = -Hinv @ grad
        if float(direction @ grad) >= 0.0:
            direction = -grad
            Hinv = np.eye(dim)

        t = 1.0
        accepted = False
        x_new = x
        f_new = fx
        while t >= 1e-16:
            cand = np.clip(x + t * direction, lo, hi)
            dx = cand - x
            if np.linalg.norm(dx) <= step_tol:
                break
            f_cand = f(cand)
            # non-finite values just shrink the step
            if np.isfinite(f_cand) and f_cand <= fx + 1e-4 * min(0.0, float(grad @ dx)):
                x_new, f_new, accepted = cand, f_cand, True
                break
            t *= 0.5
        if not accepted:
            break

        grad_new = _fd_gradient(f, x_new, f_new)
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            I = np.eye(dim)
            Hinv = (I - rho * np.outer(s, y)) @ Hinv @ (I - rho * np.outer(y, s))
            Hinv += rho * np.outer(s, s)
        else:
            Hinv = np.eye(dim)
        x, fx, grad = x_new, f_new, grad_new
        if fx < best_f:
            best_x, best_f = x.copy(), fx
    return best_x, best_f


def _upper_triangle(columns: np.ndarray, block) -> np.ndarray:
    """The strict upper triangle of ``block(columns, columns)``, row-major.

    ``block(a, b)`` gives the entries of the columns of ``a`` against those
    of ``b`` (``_distances``, or a ``_kernel_block``), and is called one
    block of rows at a time. Each entry is summed in one order whatever
    block it is in, so the values are bit for bit those of the whole
    matrix, and only the n (n - 1) / 2 values and one block are ever held.
    """
    n = columns.shape[1]
    upper = np.empty(n * (n - 1) // 2)
    width = max(1, _BLOCK_DOUBLES // n)
    at = 0
    for lo in range(0, n - 1, width):
        rows = block(columns[:, lo : lo + width], columns[:, lo + 1 :])
        for r, row in enumerate(rows):
            tail = row[r:]  # the columns right of the diagonal
            upper[at : at + tail.size] = tail
            at += tail.size
    return upper


def default_bounds(family: KernelFamily, dbar: float) -> tuple[tuple[float, float], ...]:
    """Search box [1e-3, 1e3] times ``dbar``, the median pairwise column distance (``TuningTable.dbar``)."""
    return tuple((1e-3 * dbar, 1e3 * dbar) for _ in range(HYPER_DIMS[family]))


def optimize_hyperparams(
    family: KernelFamily,
    table: TuningTable,
    obj_cfg: ObjectiveConfig,
    pso_cfg: PsoConfig,
) -> OptimizedKernel:
    """Tune one family's hyperparameters on ``table`` by a log-scale PSO.

    Every family of a run is tuned on the one ``TuningTable`` of its LF
    columns. The swarm scores through one memo, so each distinct point is
    bracketed once and computed exactly at most once; ``evaluations_used``
    still counts every request.

    The linear family has nothing to tune and returns immediately with the
    objective reduced to its stable-rank term and zero evaluations.
    """
    family = KernelFamily(family)
    if family != obj_cfg.family:
        raise ValueError(
            f"family {family.name} does not match objective config ({obj_cfg.family.name})"
        )
    if family == KernelFamily.LINEAR:
        return OptimizedKernel(
            spec=KernelSpec(family=KernelFamily.LINEAR),
            objective_value=_objective(obj_cfg, table, table.ref_diag, table.ref_upper),
            evaluations_used=0,
        )

    # clipped swarm particles revisit box edges, so many requests repeat
    f_log = _scores(obj_cfg, table)

    log_bounds = np.log(np.asarray(obj_cfg.bounds, dtype=float))
    theta_star, f_star, _ = pso_minimize(f_log.score, pso_cfg, log_bounds)
    return OptimizedKernel(
        spec=_spec_for(obj_cfg, np.exp(theta_star)),
        objective_value=f_star,
        evaluations_used=f_log.requests,
        distinct_evaluations=len(f_log.values),
    )
