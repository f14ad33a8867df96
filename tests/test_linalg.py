"""Tests for the matrix building blocks (Table I substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    BuildingBlock,
    OperationTrace,
    backward_substitution,
    cholesky,
    forward_substitution,
    matmul,
    qr_decompose,
    quadratic_form,
    solve_cholesky,
    symmetric_inverse,
    traced,
    transpose,
)
from repro.linalg.solvers import solve_spd
from repro.linalg.primitives import TABLE_I_DECOMPOSITION


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


sizes = st.integers(min_value=2, max_value=12)


class TestBlockedOps:
    def test_traced_matmul_records_primitive(self):
        trace = OperationTrace()
        with traced(trace):
            matmul(np.ones((2, 3)), np.ones((3, 4)))
            transpose(np.ones((2, 3)))
        used = trace.blocks_used()
        assert used[BuildingBlock.MULTIPLICATION] == 1
        assert used[BuildingBlock.TRANSPOSE] == 1

    def test_quadratic_form_symmetric(self):
        p = random_spd(6, seed=3)
        h = np.random.default_rng(1).normal(size=(4, 6))
        s = quadratic_form(h, p)
        assert np.allclose(s, s.T)
        assert np.allclose(s, h @ p @ h.T, atol=1e-9)


class TestDecompositions:
    @given(st.integers(min_value=2, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_cholesky_reconstructs(self, n):
        a = random_spd(n, seed=n)
        lower = cholesky(a)
        assert np.allclose(lower @ lower.T, a, atol=1e-8)
        assert np.allclose(np.triu(lower, 1), 0.0)

    def test_cholesky_rejects_non_square(self):
        with pytest.raises(ValueError):
            cholesky(np.ones((2, 3)))

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(np.array([[1.0, 0.0], [0.0, -5.0]]))

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_qr_reconstructs(self, m, n):
        rng = np.random.default_rng(m * 31 + n)
        a = rng.normal(size=(m, n))
        q, r = qr_decompose(a)
        assert np.allclose(q @ r, a, atol=1e-8)
        assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-8)

    def test_qr_upper_triangular(self):
        a = np.random.default_rng(0).normal(size=(8, 4))
        _, r = qr_decompose(a)
        assert np.allclose(np.tril(r, -1), 0.0, atol=1e-8)


class TestSolvers:
    def test_forward_substitution(self):
        lower = np.tril(random_spd(5, seed=1))
        x_true = np.arange(1.0, 6.0)
        assert np.allclose(forward_substitution(lower, lower @ x_true), x_true, atol=1e-9)

    def test_backward_substitution(self):
        upper = np.triu(random_spd(5, seed=2))
        x_true = np.arange(1.0, 6.0)
        assert np.allclose(backward_substitution(upper, upper @ x_true), x_true, atol=1e-9)

    def test_substitution_shape_errors(self):
        with pytest.raises(ValueError):
            forward_substitution(np.eye(3), np.ones(4))
        with pytest.raises(ValueError):
            backward_substitution(np.eye(3), np.ones((4, 1)))

    def test_singular_triangular_raises(self):
        singular = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            forward_substitution(singular, np.ones(2))

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_solve_cholesky(self, n):
        a = random_spd(n, seed=n + 50)
        x_true = np.random.default_rng(n).normal(size=n)
        assert np.allclose(solve_cholesky(a, a @ x_true), x_true, atol=1e-7)

    def test_solve_cholesky_multiple_rhs(self):
        a = random_spd(6, seed=9)
        x_true = np.random.default_rng(9).normal(size=(6, 3))
        assert np.allclose(solve_cholesky(a, a @ x_true), x_true, atol=1e-7)

    def test_symmetric_inverse(self):
        a = random_spd(7, seed=11)
        assert np.allclose(symmetric_inverse(a) @ a, np.eye(7), atol=1e-7)

    def test_symmetric_inverse_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_inverse(np.ones((3, 4)))


def _calls(trace: OperationTrace) -> list:
    return [(call.block, call.shape_a, call.shape_b) for call in trace.calls]


class TestSolveSpd:
    """The LAPACK solve of the hot paths against the from-scratch reference."""

    @given(n=st.integers(min_value=1, max_value=60), columns=st.integers(min_value=0, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_solve_cholesky(self, n, columns, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a = a @ a.T + rng.uniform(1e-3, 10.0) * np.eye(n)
        rhs = rng.normal(size=(n, columns) if columns else n)
        got, expected = solve_spd(a, rhs), solve_cholesky(a, rhs)
        assert got.shape == expected.shape
        residual_scale = np.linalg.norm(a, 2) * np.abs(expected).max() + np.abs(rhs).max()
        assert np.abs(a @ got - rhs).max() <= 1e-12 * residual_scale
        assert np.allclose(got, expected, rtol=1e-8, atol=1e-8 * np.abs(expected).max())

    @pytest.mark.parametrize("rhs", [np.arange(1.0, 5.0), np.arange(1.0, 13.0).reshape(4, 3)])
    def test_refused_matrix_takes_the_reference_bits(self, rhs):
        """Rank one: LAPACK refuses it, the reference's diagonal jitter solves it."""
        a = np.ones((4, 4))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        got, expected = OperationTrace(), OperationTrace()
        with traced(got):
            x = solve_spd(a, rhs)
        with traced(expected):
            reference = solve_cholesky(a, rhs)
        assert x.dtype == reference.dtype and x.shape == reference.shape
        assert x.tobytes() == reference.tobytes()
        assert _calls(got) == _calls(expected)

    def test_refused_matrix_raises_like_the_reference(self):
        a = -np.eye(3)
        for solve in (solve_spd, solve_cholesky):
            with pytest.raises(np.linalg.LinAlgError):
                solve(a, np.ones(3))

    @pytest.mark.parametrize("shape", [(7,), (7, 1), (7, 5)])
    def test_records_the_reference_primitives(self, shape):
        a = random_spd(7, seed=3)
        rhs = np.ones(shape)
        got, expected = OperationTrace(), OperationTrace()
        with traced(got):
            solve_spd(a, rhs)
        with traced(expected):
            solve_cholesky(a, rhs)
        assert _calls(got) == _calls(expected)
        assert [call[0] for call in _calls(got)] == [BuildingBlock.DECOMPOSITION,
                                                     BuildingBlock.SUBSTITUTION,
                                                     BuildingBlock.SUBSTITUTION]


class TestOperationTrace:
    def test_trace_records_kernel_blocks(self):
        trace = OperationTrace()
        with traced(trace):
            a = random_spd(8, seed=4)
            solve_cholesky(a, np.ones(8))
        used = trace.blocks_used()
        assert BuildingBlock.DECOMPOSITION in used
        assert BuildingBlock.SUBSTITUTION in used

    def test_nested_traces_both_record(self):
        outer, inner = OperationTrace(), OperationTrace()
        with traced(outer):
            with traced(inner):
                matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert outer.blocks_used() == inner.blocks_used()

    def test_table1_decomposition_is_complete(self):
        assert set(TABLE_I_DECOMPOSITION) == {"projection", "kalman_gain", "marginalization"}
        assert BuildingBlock.INVERSE in TABLE_I_DECOMPOSITION["marginalization"]
        assert BuildingBlock.MULTIPLICATION in TABLE_I_DECOMPOSITION["projection"]

    def test_trace_clear(self):
        trace = OperationTrace()
        trace.record(BuildingBlock.TRANSPOSE, (3, 3))
        trace.clear()
        assert trace.calls == []
