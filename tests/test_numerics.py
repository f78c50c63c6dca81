"""Pivoted Cholesky against the full-Schur brute-force oracle, stable
rank against dense SVD, and the truncated regularized solver."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bifidelity.numerics import (
    MatrixNotPSDError,
    ZeroGramianError,
    kept_eigenvalues,
    pivoted_cholesky,
    pivoted_cholesky_columns,
    solve_regularized,
    stable_rank,
)
from bifidelity.data import SnapshotEnsemble
from bifidelity.hyperopt import default_bounds
from bifidelity.kernels import (
    KernelFamily,
    KernelSpec,
    _kernel_block,
    _kernel_diagonal,
    gramian_entries,
)
from bifidelity.surrogate import build_surrogate

import oracles


# === pivoted Cholesky ===


def test_diagonal_matrix_greedy_order():
    piv = pivoted_cholesky(np.diag([1.0, 4.0, 9.0]), max_steps=3)
    assert piv.z[:3] == (2, 1, 0)
    assert piv.effective_rank == 3


def test_rank_one_tie_breaks_low_index():
    piv = pivoted_cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]), max_steps=2)
    assert piv.effective_rank == 1
    assert piv.z == (0, 1)


def test_pivots_match_bruteforce_oracle_100_matrices():
    for seed in range(100):
        A = oracles.random_psd(10, seed, distinct_diag=True)
        piv = pivoted_cholesky(A, max_steps=10)
        ordering, rank = oracles.greedy_pivots(A, max_steps=10)
        assert piv.z == ordering
        assert piv.effective_rank == rank


def test_early_stop_appends_remaining_ascending():
    A = np.diag([1.0, 1e-20, 1e-22, 2.0])
    piv = pivoted_cholesky(A, max_steps=4, drop_tolerance=1e-12)
    assert piv.effective_rank == 2
    assert piv.z == (3, 0, 1, 2)
    # rows past the effective rank stay zero
    assert np.all(piv.factor[2:, :] == 0.0)


def test_reconstruction_on_full_rank_matrices():
    for seed in range(20):
        A = oracles.random_psd(8, seed)
        piv = pivoted_cholesky(A, max_steps=8)
        P = A[np.ix_(piv.z, piv.z)]
        L = piv.factor
        err = np.linalg.norm(P - L @ L.T) / np.linalg.norm(A)
        assert err <= 1e-10


def test_low_rank_factor_is_n_by_steps_with_zero_rows_past_rank():
    B = np.random.default_rng(4).normal(size=(8, 3))
    A = B @ B.T
    piv = pivoted_cholesky(A, max_steps=6)
    assert piv.effective_rank == 3
    assert piv.factor.shape == (8, 6)
    assert np.all(piv.factor[3:, :] == 0.0)
    P = A[np.ix_(piv.z[:3], piv.z[:3])]
    L = piv.factor[:3]
    assert np.linalg.norm(P - L @ L.T) <= 1e-12 * np.linalg.norm(A)


@given(st.integers(0, 10**6))
def test_ordering_invariant_under_relabeling(seed):
    """Pivot identities survive any permutation of the sample order."""
    A = oracles.random_psd(7, seed, distinct_diag=True)
    piv = pivoted_cholesky(A, max_steps=7)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(7)
    piv_p = pivoted_cholesky(A[np.ix_(perm, perm)], max_steps=7)
    relabeled = tuple(int(perm[i]) for i in piv_p.z[: piv_p.effective_rank])
    assert relabeled == piv.z[: piv.effective_rank]


def test_not_psd_raises():
    with pytest.raises(MatrixNotPSDError, match="not PSD"):
        pivoted_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), max_steps=2)


def test_non_finite_input_raises():
    with pytest.raises(ValueError, match="non-finite"):
        pivoted_cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]), max_steps=2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            pivoted_cholesky(np.diag([1.0, bad]), max_steps=1)


def test_shallow_negative_clamps_instead_of_raising():
    # Schur diagonal -1e-12 sits above the -1e-8 floor and clamps to zero
    A = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
    piv = pivoted_cholesky(A, max_steps=2)
    assert piv.effective_rank == 1


def test_max_steps_validation():
    with pytest.raises(ValueError, match="max_steps"):
        pivoted_cholesky(np.eye(3), max_steps=0)
    with pytest.raises(ValueError, match="max_steps"):
        pivoted_cholesky(np.eye(3), max_steps=4)


# === column-driven core ===


def core_on_dense(A, max_steps, drop_tolerance=1e-12):
    return pivoted_cholesky_columns(np.diag(A), lambda p: A[:, p], max_steps, drop_tolerance)


def assert_same_decomposition(got, want):
    assert got.z == want.z
    assert got.effective_rank == want.effective_rank
    assert np.array_equal(got.factor, want.factor)


def test_column_core_matches_dense_factorization():
    for seed in range(30):
        A = oracles.random_psd(10, seed, distinct_diag=seed % 2 == 0)
        for steps in (1, 4, 10):
            assert_same_decomposition(core_on_dense(A, steps), pivoted_cholesky(A, steps))


def test_column_core_reads_one_column_per_pivot():
    A = oracles.random_psd(12, 3, distinct_diag=True)
    fetched = []

    def column(p):
        fetched.append(p)
        return A[:, p]

    piv = pivoted_cholesky_columns(np.diag(A), column, 5)
    assert tuple(fetched) == piv.z[:5]


def test_column_core_early_stop_appends_lowest_free_indices():
    # linear kernel on LF dimension 2: the Schur diagonal drops below the
    # tolerance after two pivots, so the lowest free indices fill the budget
    cols = np.random.default_rng(8).normal(size=(2, 9))
    spec = KernelSpec(family=KernelFamily.LINEAR)
    piv = pivoted_cholesky_columns(
        _kernel_diagonal(spec, cols), lambda p: _kernel_block(spec, cols, cols[:, [p]])[:, 0], 5
    )
    ordering, rank = oracles.greedy_pivots(oracles.gramian_dense("linear", cols), max_steps=5)
    assert piv.effective_rank == rank == 2
    assert piv.z == ordering
    assert list(piv.z[2:]) == sorted(set(range(9)) - set(piv.z[:2]))
    A = gramian_entries(spec, cols)
    assert_same_decomposition(core_on_dense(A, 5), pivoted_cholesky(A, 5))


def test_column_core_not_psd_at_third_step():
    # the oracles' test-only kernel is indefinite here; two steps pass, the third fails
    A = oracles.gramian_dense("compact_rbf", [[0.0, 1.2, 2.4, 3.6, 30.0]], (1.0, 2.0))
    assert_same_decomposition(core_on_dense(A, 2), pivoted_cholesky(A, 2))
    for factorize in (core_on_dense, pivoted_cholesky):
        with pytest.raises(MatrixNotPSDError, match="not PSD"):
            factorize(A, 3)


def test_column_core_non_finite_column_raises():
    A = oracles.random_psd(5, 1, distinct_diag=True)
    A[0, 3] = A[3, 0] = np.nan
    for factorize in (core_on_dense, pivoted_cholesky):
        with pytest.raises(ValueError, match="non-finite"):
            factorize(A, 5)


def test_column_core_validates_inputs():
    with pytest.raises(ValueError, match="one-dimensional"):
        pivoted_cholesky_columns(np.eye(2), lambda p: None, 1)
    with pytest.raises(ValueError, match="max_steps"):
        pivoted_cholesky_columns(np.ones(3), lambda p: None, 4)


# === stable rank ===


def test_stable_rank_identity():
    assert stable_rank(np.eye(5)) == pytest.approx(5.0, rel=1e-8)


def test_stable_rank_diag_2_1():
    assert stable_rank(np.diag([2.0, 1.0])) == pytest.approx(1.25, rel=1e-8)


def test_stable_rank_indefinite_uses_largest_magnitude_eigenvalue():
    # ||A||_2 = 3 from the negative eigenvalue, not the largest eigenvalue 1
    assert stable_rank(np.diag([-3.0, 1.0])) == pytest.approx(10.0 / 9.0, rel=1e-15)


def test_stable_rank_rank_one():
    u = np.array([1.0, 2.0, 3.0])
    assert stable_rank(np.outer(u, u)) == pytest.approx(1.0, abs=1e-6)


def test_stable_rank_zero_matrix_errors():
    with pytest.raises(ZeroGramianError):
        stable_rank(np.zeros((3, 3)))


def test_stable_rank_rejects_non_symmetric_input():
    # the eigensolver reads one triangle; this matrix's upper one is diag(1, 1)
    with pytest.raises(ValueError, match="symmetric"):
        stable_rank(np.array([[1.0, 0.0], [5.0, 1.0]]))


def test_stable_rank_rejects_non_finite_input():
    with pytest.raises(ValueError, match="finite"):
        stable_rank(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@given(st.integers(0, 10**6))
def test_stable_rank_between_one_and_rank(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(5, 5))
    A = B + B.T
    sr = stable_rank(A)
    w = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(w > 1e-10 * w[0]))
    assert 1.0 - 1e-12 <= sr <= rank * (1.0 + 1e-12)


def test_stable_rank_matches_svd_oracle():
    for seed in range(10):
        A = oracles.random_psd(6, seed)
        assert stable_rank(A) == pytest.approx(oracles.srank_svd(A), rel=1e-12)


def test_stable_rank_of_indefinite_compact_gramian_matches_svd_oracle():
    # the oracles' test-only kernel is indefinite here (smallest eigenvalue ~ -0.38)
    G = oracles.gramian_dense("compact_rbf", [[0.0, 1.2, 2.4, 3.6, 30.0]], (1.0, 2.0))
    assert np.linalg.eigvalsh(G)[0] < -0.1
    assert stable_rank(G) == pytest.approx(oracles.srank_svd(G), rel=1e-12)


def test_stable_rank_of_near_identity_matern_gramian_matches_svd_oracle():
    # h at the lower edge of the tuning box gives a Gramian within ~1e-12 of I
    cols = np.random.default_rng(0).normal(size=(2, 40))
    ens = SnapshotEnsemble(outputs=cols, params=np.arange(40.0)[:, None],
                           per_sample_cost=np.ones(40))
    h_lo = default_bounds(KernelFamily.MATERN32, ens)[0][0]
    G = gramian_entries(KernelSpec(family=KernelFamily.MATERN32, h=(h_lo,)), cols)
    assert np.max(np.abs(G - np.eye(40))) < 1e-9
    assert stable_rank(G) == pytest.approx(oracles.srank_svd(G), rel=1e-12)


# === slicing and the regularized solve ===


def test_slice_gramian_entries_exact():
    """A surrogate keeps the exact Gramian entries over its pivots, in pivot order."""
    rng = np.random.default_rng(3)
    lf = SnapshotEnsemble(
        outputs=rng.normal(size=(3, 9)), params=np.zeros((9, 1)), per_sample_cost=np.ones(9)
    )
    spec = KernelSpec(family=KernelFamily.MATERN52, h=(1.1,))
    surr, _ = build_surrogate(lf, spec, 4, lambda j: np.ones(2))
    G = gramian_entries(spec, lf.outputs)
    assert np.array_equal(surr.sliced, G[np.ix_(surr.pivots, surr.pivots)])
    assert not surr.sliced.flags.writeable


def test_solve_identity():
    np.testing.assert_allclose(solve_regularized(np.eye(3), [1.0, 2.0, 3.0]), [1, 2, 3])


def test_solve_truncates_tiny_eigenvalue():
    H = np.array([[4.0, 0.0], [0.0, 1e-20]])
    c = solve_regularized(H, np.array([4.0, 1.0]), rcond=1e-12)
    np.testing.assert_allclose(c, [1.0, 0.0], atol=1e-14)
    assert kept_eigenvalues([1e-20, 4.0], 1e-12).tolist() == [False, True]
    assert not kept_eigenvalues([-1.0, 0.0], 1e-12).any()


def test_solve_symmetric_two_by_two():
    c = solve_regularized(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    np.testing.assert_allclose(c, [1.0, 1.0], rtol=1e-12)


def test_solve_rcond_zero_matches_dense_solve():
    for seed in range(10):
        A = oracles.random_psd(6, seed) + np.eye(6)
        rng = np.random.default_rng(seed)
        rhs = rng.normal(size=6)
        c = solve_regularized(A, rhs, rcond=0.0)
        expected = np.linalg.solve(A, rhs)
        assert np.linalg.norm(c - expected) <= 1e-10 * np.linalg.norm(expected)


def test_solve_matrix_rhs():
    A = oracles.random_psd(4, 0) + np.eye(4)
    rhs = np.arange(8.0).reshape(4, 2)
    C = solve_regularized(A, rhs, rcond=0.0)
    np.testing.assert_allclose(A @ C, rhs, atol=1e-10)


def test_solve_all_truncated_errors():
    with pytest.raises(ZeroGramianError, match="numerically zero"):
        solve_regularized(np.zeros((2, 2)), np.array([1.0, 1.0]))


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError, match="rhs length"):
        solve_regularized(np.eye(2), np.array([1.0, 2.0, 3.0]))


def test_solve_negative_rcond_rejected():
    with pytest.raises(ValueError, match="rcond"):
        solve_regularized(np.eye(2), np.array([1.0, 2.0]), rcond=-1e-3)
