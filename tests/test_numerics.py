"""Pivoted Cholesky against the full-Schur brute-force oracle, the
spectral norm against dense SVD, and the truncated regularized solver."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bifidelity.numerics import (
    MatrixNotPSDError,
    ZeroGramianError,
    apply_regularized,
    kept_eigenvalues,
    pivoted_cholesky_columns,
    regularized_factor,
    spectral_norm,
)
from bifidelity.data import SnapshotEnsemble
from bifidelity.hyperopt import TuningTable, default_bounds
from bifidelity.kernels import (
    KernelFamily,
    KernelSpec,
    _kernel_block,
    _kernel_diagonal,
)

import oracles


# === pivoted Cholesky ===


def core_on_dense(A, max_steps):
    return pivoted_cholesky_columns(np.diag(A), lambda p: A[:, p], max_steps)


def test_diagonal_matrix_greedy_order():
    assert core_on_dense(np.diag([1.0, 4.0, 9.0]), 3) == (2, 1, 0)


def test_rank_one_tie_breaks_low_index():
    assert core_on_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), 2) == (0,)


def test_pivots_match_bruteforce_oracle_100_matrices():
    for seed in range(100):
        A = oracles.random_psd(10, seed, distinct_diag=True)
        pivots = core_on_dense(A, 10)
        ordering, rank = oracles.greedy_pivots(A, max_steps=10)
        assert pivots == ordering[: len(pivots)]
        assert len(pivots) == rank


def test_early_stop_appends_remaining_ascending():
    # the linear Gramian of these columns is diag(1, 1e-20, 1e-22, 2):
    # pivoting stops after two steps and the build appends the rest
    cols = np.diag([1.0, 1e-10, 1e-11, np.sqrt(2.0)])
    assert core_on_dense(np.diag([1.0, 1e-20, 1e-22, 2.0]), 4) == (3, 0)
    lf = SnapshotEnsemble(outputs=cols, params=np.zeros((4, 1)), per_sample_cost=np.ones(4))
    surr = oracles.pivot_and_build(lf, KernelSpec(family=KernelFamily.LINEAR), 4, lambda j: np.ones(2))
    assert surr.pivots == (3, 0, 1, 2)


@given(st.integers(0, 10**6))
def test_ordering_invariant_under_relabeling(seed):
    """Pivot identities survive any permutation of the sample order."""
    A = oracles.random_psd(7, seed, distinct_diag=True)
    pivots = core_on_dense(A, 7)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(7)
    relabeled = tuple(int(perm[i]) for i in core_on_dense(A[np.ix_(perm, perm)], 7))
    assert relabeled == pivots


def test_not_psd_raises():
    with pytest.raises(MatrixNotPSDError, match="not PSD"):
        core_on_dense(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)


def test_non_finite_input_raises():
    with pytest.raises(ValueError, match="non-finite"):
        core_on_dense(np.array([[1.0, np.nan], [np.nan, 1.0]]), 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            core_on_dense(np.diag([1.0, bad]), 1)


def test_shallow_negative_clamps_instead_of_raising():
    # Schur diagonal -1e-12 sits above the -1e-8 floor and clamps to zero
    A = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
    assert core_on_dense(A, 2) == (0,)


def test_max_steps_validation():
    with pytest.raises(ValueError, match="max_steps"):
        core_on_dense(np.eye(3), 0)
    with pytest.raises(ValueError, match="max_steps"):
        core_on_dense(np.eye(3), 4)


# === column-driven core ===


def test_column_core_reads_one_column_per_pivot():
    A = oracles.random_psd(12, 3, distinct_diag=True)
    fetched = []

    def column(p):
        fetched.append(p)
        return A[:, p]

    pivots = pivoted_cholesky_columns(np.diag(A), column, 5)
    assert tuple(fetched) == pivots
    assert len(pivots) == 5


def test_column_core_early_stop_appends_lowest_free_indices():
    # linear kernel on LF dimension 2: the Schur diagonal drops below the
    # tolerance after two pivots, so the build fills the budget with the
    # lowest free indices
    cols = np.random.default_rng(8).normal(size=(2, 9))
    spec = KernelSpec(family=KernelFamily.LINEAR)
    pivots = pivoted_cholesky_columns(
        _kernel_diagonal(spec, cols), lambda p: _kernel_block(spec, cols, cols[:, [p]])[:, 0], 5
    )
    ordering, rank = oracles.greedy_pivots(oracles.gramian_dense("linear", cols), max_steps=5)
    assert len(pivots) == rank == 2
    assert pivots == ordering[:2]
    lf = SnapshotEnsemble(outputs=cols, params=np.zeros((9, 1)), per_sample_cost=np.ones(9))
    surr = oracles.pivot_and_build(lf, spec, 5, lambda j: np.ones(2))
    assert surr.pivots == pivots + tuple(sorted(set(range(9)) - set(pivots))[:3])


def test_column_core_not_psd_at_third_step():
    # the oracles' test-only kernel is indefinite here; two steps pass, the third fails
    A = oracles.gramian_dense("compact_rbf", [[0.0, 1.2, 2.4, 3.6, 30.0]], (1.0, 2.0))
    assert core_on_dense(A, 2) == oracles.greedy_pivots(A, max_steps=2)[0][:2]
    with pytest.raises(MatrixNotPSDError, match="not PSD"):
        core_on_dense(A, 3)


def test_column_core_non_finite_column_raises():
    A = oracles.random_psd(5, 1, distinct_diag=True)
    A[0, 3] = A[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        core_on_dense(A, 5)


def test_column_core_validates_inputs():
    with pytest.raises(ValueError, match="one-dimensional"):
        pivoted_cholesky_columns(np.eye(2), lambda p: None, 1)
    with pytest.raises(ValueError, match="max_steps"):
        pivoted_cholesky_columns(np.ones(3), lambda p: None, 4)


# === stable rank's spectral norm ===
# the stable rank ||A||_F^2 / ||A||_2^2 takes ||A||_2 from spectral_norm


def test_stable_rank_identity():
    A = np.eye(5)
    assert spectral_norm(A) == pytest.approx(oracles.spectral_norm_svd(A), rel=1e-8)


def test_stable_rank_diag_2_1():
    A = np.diag([2.0, 1.0])
    assert spectral_norm(A) == pytest.approx(oracles.spectral_norm_svd(A), rel=1e-8)


def test_stable_rank_indefinite_uses_largest_magnitude_eigenvalue():
    # ||A||_2 = 3 from the negative eigenvalue, not the largest eigenvalue 1
    A = np.diag([-3.0, 1.0])
    assert spectral_norm(A) == pytest.approx(oracles.spectral_norm_svd(A), rel=1e-15)


def test_stable_rank_rank_one():
    u = np.array([1.0, 2.0, 3.0])
    A = np.outer(u, u)
    assert spectral_norm(A) == pytest.approx(oracles.spectral_norm_svd(A), abs=1e-6)


def test_stable_rank_zero_matrix_errors():
    with pytest.raises(ZeroGramianError):
        spectral_norm(np.zeros((3, 3)))


def test_stable_rank_rejects_non_symmetric_input():
    # the eigensolver reads one triangle; this matrix's upper one is diag(1, 1)
    with pytest.raises(ValueError, match="symmetric"):
        spectral_norm(np.array([[1.0, 0.0], [5.0, 1.0]]))


def test_stable_rank_rejects_non_finite_input():
    with pytest.raises(ValueError, match="finite"):
        spectral_norm(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@given(st.integers(0, 10**6))
def test_stable_rank_between_one_and_rank(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(5, 5))
    A = B + B.T
    sr = float(np.sum(A * A)) / spectral_norm(A) ** 2
    w = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(w > 1e-10 * w[0]))
    assert 1.0 - 1e-12 <= sr <= rank * (1.0 + 1e-12)


def test_stable_rank_matches_svd_oracle():
    for seed in range(10):
        A = oracles.random_psd(6, seed)
        assert spectral_norm(A) == pytest.approx(oracles.spectral_norm_svd(A), rel=1e-12)


def test_stable_rank_of_indefinite_compact_gramian_matches_svd_oracle():
    # the oracles' test-only kernel is indefinite here (smallest eigenvalue ~ -0.38)
    G = oracles.gramian_dense("compact_rbf", [[0.0, 1.2, 2.4, 3.6, 30.0]], (1.0, 2.0))
    assert np.linalg.eigvalsh(G)[0] < -0.1
    assert spectral_norm(G) == pytest.approx(oracles.spectral_norm_svd(G), rel=1e-12)


def test_stable_rank_of_near_identity_matern_gramian_matches_svd_oracle():
    # h at the lower edge of the tuning box gives a Gramian within ~1e-12 of I
    cols = np.random.default_rng(0).normal(size=(2, 40))
    h_lo = default_bounds(KernelFamily.MATERN32, TuningTable(cols).dbar)[0][0]
    G = _kernel_block(KernelSpec(family=KernelFamily.MATERN32, h=(h_lo,)), cols, cols)
    assert np.max(np.abs(G - np.eye(40))) < 1e-9
    assert spectral_norm(G) == pytest.approx(oracles.spectral_norm_svd(G), rel=1e-12)


# === slicing and the regularized solve ===


def test_slice_gramian_entries_exact():
    """A surrogate keeps the exact Gramian entries over its pivots, in pivot order."""
    rng = np.random.default_rng(3)
    lf = SnapshotEnsemble(
        outputs=rng.normal(size=(3, 9)), params=np.zeros((9, 1)), per_sample_cost=np.ones(9)
    )
    spec = KernelSpec(family=KernelFamily.MATERN52, h=(1.1,))
    surr = oracles.pivot_and_build(lf, spec, 4, lambda j: np.ones(2))
    G = _kernel_block(spec, lf.outputs, lf.outputs)
    assert np.array_equal(surr.sliced, G[np.ix_(surr.pivots, surr.pivots)])
    assert not surr.sliced.flags.writeable


def solve(H, rhs, rcond=1e-12):
    """H c = rhs through one truncated eigendecomposition, as the error metric solves."""
    return apply_regularized(regularized_factor(H, rcond), rhs)


def test_solve_identity():
    np.testing.assert_allclose(solve(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])


def test_solve_truncates_tiny_eigenvalue():
    H = np.array([[4.0, 0.0], [0.0, 1e-20]])
    c = solve(H, np.array([4.0, 1.0]), rcond=1e-12)
    np.testing.assert_allclose(c, [1.0, 0.0], atol=1e-14)
    assert kept_eigenvalues([1e-20, 4.0], 1e-12).tolist() == [False, True]
    assert not kept_eigenvalues([-1.0, 0.0], 1e-12).any()


def test_solve_symmetric_two_by_two():
    c = solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    np.testing.assert_allclose(c, [1.0, 1.0], rtol=1e-12)


def test_solve_rcond_zero_matches_dense_solve():
    for seed in range(10):
        A = oracles.random_psd(6, seed) + np.eye(6)
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=6)
        c = solve(A, rhs, rcond=0.0)
        expected = np.linalg.solve(A, rhs)
        assert np.linalg.norm(c - expected) <= 1e-10 * np.linalg.norm(expected)


def test_solve_matrix_rhs():
    A = oracles.random_psd(4, 0) + np.eye(4)
    rhs = np.arange(8.0).reshape(4, 2)
    C = solve(A, rhs, rcond=0.0)
    np.testing.assert_allclose(A @ C, rhs, atol=1e-10)


def test_solve_all_truncated_errors():
    with pytest.raises(ZeroGramianError, match="numerically zero"):
        solve(np.zeros((2, 2)), np.array([1.0, 1.0]))


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError, match="rhs length"):
        solve(np.eye(2), np.array([1.0, 2.0, 3.0]))


def test_solve_negative_rcond_rejected():
    # NaN and inf too: both keep no eigenvalue, and NaN passes an rcond < 0 check
    for rcond in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="rcond must be finite and non-negative"):
            solve(np.eye(2), np.array([1.0, 2.0]), rcond=rcond)
