"""Data-driven kernel selection over a library of tuned families.

Two routes, both using only low-fidelity data:

* additive: optimize simplex weights for a convex mixture of the tuned
  family Gramians against the same Frobenius + stable-rank objective used
  for hyperparameter tuning;
* adaptive: score each family by how well a budget-n emulator of the
  low-fidelity model itself reconstructs the held-out low-fidelity
  columns, then keep the family with the smallest median residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import SnapshotEnsemble
from .hyperopt import (
    OptimizedKernel,
    PsoConfig,
    _Memoized,
    _objective_value,
    pso_minimize,
)
from .kernels import KernelFamily, KernelSpec, MixtureKernel, gramian_entries
from .numerics import MatrixNotPSDError, ZeroGramianError, lower_median
from .surrogate import build_surrogate, evaluate

__all__ = [
    "SelectionReport",
    "additive_select",
    "adaptive_select",
]


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one selection pass.

    ``weights`` aligns with ``families`` for the additive mode; the
    adaptive mode records per-family residual scores and the winner.
    ``n_used`` is the pivot budget during selection (0 for additive,
    which is budget independent).
    """

    mode: str
    families: tuple[KernelFamily, ...]
    weights: tuple[float, ...] | None = None
    objective_value: float | None = None
    chosen_family: KernelFamily | None = None
    per_kernel_epsilon: dict[KernelFamily, float] = field(default_factory=dict)
    n_used: int = 0

    def __post_init__(self):
        if self.mode not in ("additive", "adaptive"):
            raise ValueError(f"unknown selection mode {self.mode!r}")
        if self.mode == "additive":
            if self.weights is None or len(self.weights) != len(self.families):
                raise ValueError("additive report needs one weight per family")
            total = sum(self.weights)
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"weights sum to {total}, expected 1")
            if any(w < 0 or w > 1 for w in self.weights):
                raise ValueError("weights must lie in [0, 1]")
        else:
            if self.chosen_family is None or not self.per_kernel_epsilon:
                raise ValueError("adaptive report needs scores and a chosen family")
            best = min(self.per_kernel_epsilon.values())
            if self.per_kernel_epsilon[self.chosen_family] > best:
                raise ValueError("chosen family does not attain the minimal score")


def _softmax(theta: np.ndarray) -> np.ndarray:
    shifted = theta - np.max(theta)
    e = np.exp(shifted)
    return e / np.sum(e)


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    n = w.size
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(w - tau, 0.0)


def _projected_descent(F, w0: np.ndarray, max_iters: int = 200) -> tuple[np.ndarray, float]:
    """Monotone projected gradient descent on the simplex."""
    w = _project_simplex(np.asarray(w0, dtype=float))
    fw = F(w)
    for _ in range(max_iters):
        grad = np.zeros_like(w)
        for i in range(w.size):
            step = 1e-6
            wp = w.copy()
            wp[i] += step
            wm = w.copy()
            wm[i] -= step
            fp, fm = F(_project_simplex(wp)), F(_project_simplex(wm))
            if np.isfinite(fp) and np.isfinite(fm):
                grad[i] = (fp - fm) / (2 * step)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            cand = _project_simplex(w - t * grad)
            if np.linalg.norm(cand - w) <= 1e-12:
                break
            fc = F(cand)
            if np.isfinite(fc) and fc < fw:
                w, fw, accepted = cand, fc, True
                break
            t *= 0.5
        if not accepted:
            break
    return w, fw


def additive_select(
    optimized,
    lf_ensemble: SnapshotEnsemble,
    lam: float,
    pso_cfg: PsoConfig | None = None,
) -> tuple[MixtureKernel, SelectionReport]:
    """Pick convex mixture weights over the tuned family Gramians.

    A particle swarm searches the simplex through a softmax
    reparameterization and seeds a projected gradient descent; every
    simplex vertex is also evaluated, so the returned weights never lose
    to a single family. All three share one memo, so each distinct weight
    vector is scored once.
    """
    optimized = list(optimized)
    if not optimized:
        raise ValueError("additive selection needs at least one tuned kernel")
    optimized.sort(key=lambda ok: int(ok.spec.family))
    families = tuple(ok.spec.family for ok in optimized)
    if len(set(families)) != len(families):
        raise ValueError("duplicate kernel families in the library")

    ref = gramian_entries(KernelSpec(family=KernelFamily.LINEAR), lf_ensemble.outputs)
    grams = [gramian_entries(ok.spec, lf_ensemble.outputs) for ok in optimized]
    L = len(grams)

    def mixture_score(w: np.ndarray) -> float:
        mix = np.zeros_like(ref)
        for wi, gi in zip(w, grams):
            # a zero weight adds nothing, and skipping it keeps one member's
            # overflow from turning every mixture into NaN (0 * inf)
            if wi > 0:
                mix += wi * gi
        try:
            value = _objective_value(ref, mix, lam)
        except (ZeroGramianError, ValueError):
            return math.inf
        return value if np.isfinite(value) else math.inf

    F = _Memoized(mixture_score)

    if L == 1:
        w_best = np.array([1.0])
        f_best = F(w_best)
    else:
        cfg = pso_cfg if pso_cfg is not None else PsoConfig()
        theta_bounds = np.array([[-8.0, 8.0]] * L)
        theta_pso, _, _ = pso_minimize(lambda th: F(_softmax(th)), cfg, theta_bounds)
        w_desc, f_desc = _projected_descent(F, _softmax(theta_pso))
        candidates = [(w_desc, f_desc)]
        for i in range(L):
            vertex = np.zeros(L)
            vertex[i] = 1.0
            candidates.append((vertex, F(vertex)))
        w_best, f_best = min(candidates, key=lambda item: item[1])

    # exact simplex membership for the report and the mixture invariants
    w_best = np.maximum(w_best, 0.0)
    w_best = w_best / np.sum(w_best)
    mixture = MixtureKernel(
        components=tuple((ok.spec, float(w)) for ok, w in zip(optimized, w_best))
    )
    report = SelectionReport(
        mode="additive",
        families=families,
        weights=tuple(float(w) for w in w_best),
        objective_value=float(f_best),
        n_used=0,
    )
    return mixture, report


def adaptive_select(
    optimized,
    lf_ensemble: SnapshotEnsemble,
    n: int,
    rcond: float = 1e-12,
) -> SelectionReport:
    """Score each family by low-fidelity self-emulation at budget ``n``.

    For every family: build a budget-n surrogate of the low-fidelity model
    itself (the same pivoting and solve as the high-fidelity surrogates),
    emulate every non-pivot column in one block, and record the lower
    median of the residual norms. The family with the smallest score
    wins; ties go to the lowest family index.

    A family whose sliced Gramian is degenerate, meaning its numerical
    rank under ``rcond`` falls short of ``n``, scores +inf. This is what
    disqualifies the linear kernel whenever the low-fidelity output
    dimension is below the budget: its Gramian cannot support n pivots,
    so it cannot claim the win by reconstructing columns that already
    lie inside a too-small span.
    """
    optimized = sorted(optimized, key=lambda ok: int(ok.spec.family))
    if not optimized:
        raise ValueError("adaptive selection needs at least one tuned kernel")
    N = lf_ensemble.n_samples
    if not 1 <= n < N:
        raise ValueError(f"budget n must satisfy 1 <= n < {N}, got {n}")

    scores = {
        ok.spec.family: _self_emulation_score(ok.spec, lf_ensemble, n, rcond)
        for ok in optimized
    }

    chosen = min(scores, key=lambda fam: (scores[fam], int(fam)))
    return SelectionReport(
        mode="adaptive",
        families=tuple(ok.spec.family for ok in optimized),
        chosen_family=chosen,
        per_kernel_epsilon=scores,
        n_used=n,
    )


def _self_emulation_score(spec: KernelSpec, lf: SnapshotEnsemble, n: int, rcond: float) -> float:
    """Lower-median residual of a budget-n emulator of ``lf`` on its own
    held-out columns; +inf when the family cannot support n pivots."""
    try:
        # the low-fidelity model is its own high-fidelity provider
        surr, _ = build_surrogate(lf, spec, n, lf.column, rcond)
    except MatrixNotPSDError:
        return math.inf
    # the same truncation rule as the solve inside evaluate
    eigvals = np.linalg.eigvalsh(surr.sliced)
    wmax = float(eigvals[-1])
    if wmax <= 0.0 or int(np.count_nonzero(eigvals > rcond * wmax)) < n:
        return math.inf
    others = np.setdiff1d(np.arange(lf.n_samples), surr.pivots)
    try:
        preds = evaluate(surr, lf.outputs[:, others])
    except ZeroGramianError:
        return math.inf
    resid = np.linalg.norm(lf.outputs[:, others] - preds, axis=0)
    return lower_median(resid) if np.all(np.isfinite(resid)) else math.inf
