"""Data-driven kernel selection over a library of tuned families.

Selection uses only low-fidelity data: at each budget n, every family is
scored by how well a budget-n emulator of the low-fidelity model itself
reconstructs the held-out low-fidelity columns, and the family with the
smallest median residual is kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SnapshotEnsemble
from .kernels import KernelFamily, KernelSpec
from .numerics import MatrixNotPSDError, ZeroGramianError, kept_eigenvalues, lower_median
from .surrogate import build_surrogate, evaluate

__all__ = [
    "SelectionReport",
    "adaptive_select",
]


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one adaptive selection pass.

    Records the per-family residual scores, the winner and the pivot
    budget ``n_used`` the scores were taken at.
    """

    families: tuple[KernelFamily, ...]
    chosen_family: KernelFamily
    per_kernel_epsilon: dict[KernelFamily, float]
    n_used: int = 0

    def __post_init__(self):
        if self.chosen_family not in self.per_kernel_epsilon:
            raise ValueError("chosen family has no score")
        best = min(self.per_kernel_epsilon.values())
        if self.per_kernel_epsilon[self.chosen_family] > best:
            raise ValueError("chosen family does not attain the minimal score")


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
    if np.count_nonzero(kept_eigenvalues(np.linalg.eigvalsh(surr.sliced), rcond)) < n:
        return math.inf
    others = np.setdiff1d(np.arange(lf.n_samples), surr.pivots)
    try:
        preds = evaluate(surr, lf.outputs[:, others])
    except ZeroGramianError:
        return math.inf
    resid = np.linalg.norm(lf.outputs[:, others] - preds, axis=0)
    return lower_median(resid) if np.all(np.isfinite(resid)) else math.inf
