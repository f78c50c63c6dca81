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

from .data import SnapshotEnsemble, held_out
from .kernels import KernelFamily
from .numerics import MatrixNotPSDError, ZeroGramianError, lower_median
from .surrogate import PivotPlan, build_surrogate, evaluate

__all__ = [
    "SelectionReport",
    "adaptive_select",
]


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one adaptive selection pass.

    Records the per-family residual scores at one pivot budget, the key
    ``RunResult.reports`` holds it under. The winner is derived: the least
    score, with ties going to the lowest family index.
    """

    per_kernel_epsilon: dict[KernelFamily, float]

    def __post_init__(self) -> None:
        if not self.per_kernel_epsilon:
            raise ValueError("a selection report needs at least one family with a score")

    @property
    def families(self) -> tuple[KernelFamily, ...]:
        return tuple(sorted(self.per_kernel_epsilon))

    @property
    def chosen_family(self) -> KernelFamily:
        # min keeps the first of equal scores, and families ascend
        return min(self.families, key=self.per_kernel_epsilon.__getitem__)


def adaptive_select(
    plans,
    lf_ensemble: SnapshotEnsemble,
    n: int,
    rcond: float = 1e-12,
) -> SelectionReport:
    """Score each tuned kernel's family by low-fidelity self-emulation at budget ``n``.

    ``plans`` holds one ``pivot_plan`` on ``lf_ensemble`` per tuned
    kernel, to at least n steps. For every plan: build a budget-n
    surrogate of the low-fidelity model itself (the same pivots and solve
    as the high-fidelity surrogates), emulate every non-pivot column in
    one block, and record the lower median of the residual norms under
    the plan's family. The family with the smallest score wins; ties go
    to the lowest family index.

    A family whose pivoting failed at a step below n, or whose sliced
    Gramian is degenerate, meaning its numerical rank under ``rcond``
    falls short of ``n``, scores +inf. This is what disqualifies the
    linear kernel whenever the low-fidelity output dimension is below the
    budget: its Gramian cannot support n pivots, so it cannot claim the
    win by reconstructing columns that already lie inside a too-small
    span.
    """
    if not plans:
        raise ValueError("adaptive selection needs at least one tuned kernel")
    N = lf_ensemble.n_samples
    if not 1 <= n < N:
        raise ValueError(f"budget n must satisfy 1 <= n < {N}, got {n}")
    scores = {plan.kernel.family: _self_emulation_score(plan, lf_ensemble, n, rcond) for plan in plans}
    return SelectionReport(per_kernel_epsilon=scores)


def _self_emulation_score(plan: PivotPlan, lf: SnapshotEnsemble, n: int, rcond: float) -> float:
    """Lower-median residual of a budget-n emulator of ``lf`` on its own
    held-out columns; +inf when the family cannot support n pivots.

    The surrogate's one factorization of the sliced Gramian gives both the
    numerical rank under ``rcond`` and, through ``evaluate``, the solve.
    """
    try:
        # the low-fidelity model is its own high-fidelity provider
        surr = build_surrogate(lf, plan, n, lf.column, rcond)
    except (MatrixNotPSDError, ZeroGramianError):
        return math.inf
    if surr.factor[1].size < n:
        return math.inf
    queries = lf.outputs[:, held_out(lf.n_samples, surr.pivots)]
    resid = np.linalg.norm(queries - evaluate(surr, queries), axis=0)
    return lower_median(resid) if np.all(np.isfinite(resid)) else math.inf
