"""Kernel hyperparameter tuning.

The objective scores a candidate kernel Gramian by its Frobenius distance
to the linear-kernel reference Gramian plus a stable-rank penalty
lambda / sqrt(srank). A particle swarm explores a (log-scaled) box, and a
projected quasi-Newton pass polishes the swarm's best particle.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import SnapshotEnsemble
from .kernels import (
    HYPER_DIMS,
    KernelFamily,
    KernelSpec,
    gramian_entries,
    pairwise_distances,
)
from .numerics import NumericsError, stable_rank

__all__ = [
    "ObjectiveConfig",
    "PsoConfig",
    "OptimizedKernel",
    "objective",
    "pso_minimize",
    "refine_local",
    "optimize_hyperparams",
    "default_bounds",
    "median_pairwise_distance",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Inputs for the hyperparameter objective of one kernel family."""

    lam: float
    family: KernelFamily
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        family = KernelFamily(self.family)
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) != HYPER_DIMS[family]:
            raise ValueError(
                f"{family.name} needs {HYPER_DIMS[family]} bound pairs, got {len(bounds)}"
            )
        for lo, hi in bounds:
            if not (0 < lo < hi):
                raise ValueError(f"bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
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
        for name in ("swarm_size", "max_iters", "stall_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        # written so that NaN fails each test
        if not (0 < self.k1 < math.inf and 0 < self.k2 < math.inf):
            raise ValueError(f"k1 and k2 must be positive and finite, got {self.k1}, {self.k2}")
        if not 0 < self.v_max_fraction <= 1:
            raise ValueError("v_max_fraction must be in (0, 1]")
        if self.max_iters < 1 or self.stall_iters < 1:
            raise ValueError("max_iters and stall_iters must be at least 1")


@dataclass(frozen=True)
class OptimizedKernel:
    """A tuned kernel spec with optimization bookkeeping.

    ``evaluations_used`` counts the optimizers' objective requests, repeats
    included; ``distinct_evaluations`` counts the objective computations,
    one per distinct point.
    """

    spec: KernelSpec
    objective_value: float
    evaluations_used: int
    wall_time: float
    distinct_evaluations: int = 0


def _spec_for(cfg: ObjectiveConfig, h) -> KernelSpec:
    arr = np.atleast_1d(np.asarray(h, dtype=float))
    return KernelSpec(family=cfg.family, h=tuple(float(v) for v in arr))


class _Memoized:
    """A scalar objective computed once per distinct point.

    Points are keyed by their exact float64 bytes, so a repeated request
    returns the very value a fresh computation would. ``requests`` counts
    every call, repeats included; ``values`` holds one entry per
    computation.
    """

    def __init__(self, f):
        self.f = f
        self.values: dict[bytes, float] = {}
        self.requests = 0

    def __call__(self, x) -> float:
        self.requests += 1
        key = np.asarray(x, dtype=float).tobytes()
        if key not in self.values:
            self.values[key] = self.f(x)
        return self.values[key]


def _linear_reference(X: np.ndarray) -> np.ndarray:
    """The linear-kernel Gramian of the columns ``X`` that tuning aims at."""
    ref = gramian_entries(KernelSpec(family=KernelFamily.LINEAR), X)
    if not np.all(np.isfinite(ref)):
        raise ArithmeticError("linear reference Gramian has non-finite entries")
    return ref


def _objective(cfg: ObjectiveConfig, h, X: np.ndarray, ref: np.ndarray, dists) -> float:
    """The objective at ``h`` against a formed reference; see ``objective``."""
    try:
        cand = gramian_entries(_spec_for(cfg, h), X, dists)
        if not np.all(np.isfinite(cand)):
            return math.inf
        value = float(np.linalg.norm(ref - cand))
        if cfg.lam != 0.0:
            value += cfg.lam / math.sqrt(stable_rank(cand))
    except (NumericsError, ValueError, ArithmeticError):
        return math.inf
    return value if np.isfinite(value) else math.inf


def objective(cfg: ObjectiveConfig, h, lf_ensemble: SnapshotEnsemble) -> float:
    """Frobenius distance to the ensemble's linear Gramian plus the srank penalty.

    Any numerical failure of the candidate (overflow, degenerate Gramian)
    maps to +inf so optimizers can treat the objective as total on the
    box. A non-finite linear reference raises ArithmeticError.
    """
    X = lf_ensemble.outputs
    return _objective(cfg, h, X, _linear_reference(X), None)


def _stream(
    generator: np.random.Generator, seed: int, iteration: int, particle: int
) -> np.random.Generator:
    """Re-key a Philox ``generator`` to the start of stream (seed, iteration, particle).

    Counter-based: the draws depend on the key alone, whatever the order of
    the calls. Setting the state of the caller's generator costs a fifth of
    building a new one per stream.
    """
    stream = ((iteration & 0xFFFFFFFF) << 32) | (particle & 0xFFFFFFFF)
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & 0xFFFFFFFFFFFFFFFF, stream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def pso_minimize(f, cfg: PsoConfig, bounds) -> tuple[np.ndarray, float, list[float]]:
    """Particle swarm minimization over a box.

    Velocity update: v <- v + k1*rho*(best_own - h) + k2*gamma*(best_all - h)
    with rho, gamma drawn fresh per particle per iteration; velocities are
    clamped componentwise and positions clipped to the box. Returns the
    best-ever position, its value, and the best-value trace per iteration.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or np.any(bounds[:, 0] >= bounds[:, 1]):
        raise ValueError("bounds must be an array of (lo, hi) pairs with lo < hi")
    lo, hi = bounds[:, 0], bounds[:, 1]
    dim = bounds.shape[0]
    span = hi - lo
    vmax = cfg.v_max_fraction * span

    rng = np.random.Generator(np.random.Philox(key=0))  # re-keyed per stream
    pos = np.empty((cfg.swarm_size, dim))
    vel = np.empty((cfg.swarm_size, dim))
    for i in range(cfg.swarm_size):
        g = _stream(rng, cfg.seed, 0, i)
        pos[i] = lo + g.uniform(size=dim) * span
        vel[i] = (2.0 * g.uniform(size=dim) - 1.0) * vmax

    values = np.array([f(p) for p in pos], dtype=float)
    best_pos = pos.copy()
    best_val = values.copy()
    g_idx = int(np.argmin(best_val))
    g_pos = best_pos[g_idx].copy()
    g_val = float(best_val[g_idx])
    trace = [g_val]

    stall = 0
    for it in range(1, cfg.max_iters + 1):
        for i in range(cfg.swarm_size):
            rho, gamma = _stream(rng, cfg.seed, it, i).uniform(size=2)
            vel[i] += cfg.k1 * rho * (best_pos[i] - pos[i])
            vel[i] += cfg.k2 * gamma * (g_pos - pos[i])
        np.clip(vel, -vmax, vmax, out=vel)
        pos += vel
        np.clip(pos, lo, hi, out=pos)
        values = np.array([f(p) for p in pos], dtype=float)
        improved_mask = values < best_val
        best_val[improved_mask] = values[improved_mask]
        best_pos[improved_mask] = pos[improved_mask]
        new_idx = int(np.argmin(best_val))
        if best_val[new_idx] < g_val:
            g_val = float(best_val[new_idx])
            g_pos = best_pos[new_idx].copy()
            stall = 0
        else:
            stall += 1
        trace.append(g_val)
        if stall >= cfg.stall_iters:
            break
    return g_pos.copy(), g_val, trace


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


def median_pairwise_distance(columns: np.ndarray) -> float:
    """Median distance between distinct columns; 1.0 when degenerate.

    Raises ArithmeticError when a distance overflows.
    """
    n = columns.shape[1]
    if n < 2:
        return 1.0
    dists = pairwise_distances(columns)
    if not np.all(np.isfinite(dists)):
        raise ArithmeticError("pairwise column distances are non-finite")
    upper = dists[np.triu_indices(n, k=1)]
    med = float(np.median(upper))
    return med if med > 0 else 1.0


def default_bounds(family: KernelFamily, dbar: float) -> tuple[tuple[float, float], ...]:
    """Search box [1e-3, 1e3] times ``dbar``, the median pairwise column distance."""
    return tuple((1e-3 * dbar, 1e3 * dbar) for _ in range(HYPER_DIMS[family]))


def optimize_hyperparams(
    family: KernelFamily,
    lf_ensemble: SnapshotEnsemble,
    obj_cfg: ObjectiveConfig,
    pso_cfg: PsoConfig,
) -> OptimizedKernel:
    """Tune one family's hyperparameters: log-scale PSO plus local polish.

    The swarm and the polish share one memo, so each distinct point is
    scored once; ``evaluations_used`` still counts every request.

    The linear family has nothing to tune and returns immediately with the
    objective reduced to its stable-rank term and zero evaluations.
    """
    family = KernelFamily(family)
    if family != obj_cfg.family:
        raise ValueError(
            f"family {family.name} does not match objective config ({obj_cfg.family.name})"
        )
    started = time.perf_counter()
    X = lf_ensemble.outputs
    ref = _linear_reference(X)
    if family == KernelFamily.LINEAR:
        value = _objective(obj_cfg, (), X, ref, None)
        return OptimizedKernel(
            spec=KernelSpec(family=KernelFamily.LINEAR),
            objective_value=value,
            evaluations_used=0,
            wall_time=time.perf_counter() - started,
        )

    dists = pairwise_distances(X)
    # clipped swarm particles revisit box edges, so many requests repeat
    f_log = _Memoized(lambda theta: _objective(obj_cfg, np.exp(theta), X, ref, dists))

    log_bounds = np.log(np.asarray(obj_cfg.bounds, dtype=float))
    theta_pso, _, _ = pso_minimize(f_log, pso_cfg, log_bounds)
    theta_star, f_star = refine_local(f_log, theta_pso, log_bounds)
    h_star = np.exp(theta_star)
    spec = _spec_for(obj_cfg, h_star)
    log.debug(
        "%s tuned: h*=%s, heuristic lam/sqrt(N)=%.3e",
        family.name,
        spec.h,
        obj_cfg.lam / math.sqrt(lf_ensemble.n_samples),
    )
    return OptimizedKernel(
        spec=spec,
        objective_value=float(f_star),
        evaluations_used=f_log.requests,
        wall_time=time.perf_counter() - started,
        distinct_evaluations=len(f_log.values),
    )
