import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdoflab import matlin
from sdoflab.matlin import (InvalidMatrix, NotPositiveDefinite, complement,
                            logdet_hpd, nullspace, orthonormal_basis)


def crandn(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def distance(b, x):
    """Largest column residual of ``x`` off the orthonormal basis ``b``."""
    if x.shape[1] == 0:
        return 0.0
    r = x - b @ (b.conj().T @ x)
    return float(np.linalg.norm(r, axis=0).max())


def span_equal(b1, b2, tol=1e-9):
    """True when the orthonormal bases ``b1`` and ``b2`` span the same space."""
    if b1.shape != b2.shape:
        return False
    return distance(b1, b2) <= tol and distance(b2, b1) <= tol


class TestOrthonormalBasis:
    def test_identity_full_rank(self):
        s = orthonormal_basis(np.eye(3), 1e-10)
        assert s.shape == (3, 3)

    def test_equal_columns_rank_one(self):
        col = np.array([[1.0], [2.0], [3.0]])
        s = orthonormal_basis(np.hstack([col, col]), 1e-10)
        assert s.shape == (3, 1)

    def test_random_wide_matrix_rank(self):
        # independent oracle: count singular values above the cutoff
        rng = np.random.default_rng(7)
        m = crandn(rng, 4, 6)
        svals = np.linalg.svd(m, compute_uv=False)
        expected = int(np.count_nonzero(svals > 1e-9 * svals[0]))
        assert expected == 4
        assert orthonormal_basis(m).shape[1] == expected

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            orthonormal_basis(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_basis_spans_input(self):
        rng = np.random.default_rng(3)
        m = crandn(rng, 5, 3)
        s = orthonormal_basis(m)
        assert distance(s, m / np.linalg.norm(m, axis=0)) <= 1e-10


class TestNullspace:
    def test_identity_trivial(self):
        assert nullspace(np.eye(3)).shape == (3, 0)

    def test_wide_full_row_rank(self):
        rng = np.random.default_rng(11)
        m = crandn(rng, 2, 3)
        s = nullspace(m)
        assert s.shape == (3, 1)
        assert np.abs(m @ s).max() <= 1e-10 * np.linalg.norm(m)

    def test_zero_matrix(self):
        assert nullspace(np.zeros((2, 2))).shape == (2, 2)

    def test_rank_nullity_all_shapes(self):
        rng = np.random.default_rng(5)
        for rows in range(1, 9):
            for cols in range(1, 9):
                m = crandn(rng, rows, cols)
                assert nullspace(m).shape[1] + matlin.rank(m) == cols
                # rank-deficient variant via a low-rank product
                inner = max(1, min(rows, cols) - 1)
                low = crandn(rng, rows, inner) @ crandn(rng, inner, cols)
                assert nullspace(low).shape[1] + matlin.rank(low) == cols


class TestComplement:
    def test_line_in_plane(self):
        c = complement(np.array([[1.0], [0.0]], dtype=complex))
        assert c.shape == (2, 1)
        assert abs(abs(c[1, 0]) - 1.0) <= 1e-12

    def test_full_space(self):
        assert complement(np.eye(3, dtype=complex)).shape == (3, 0)

    def test_random_subspace(self):
        rng = np.random.default_rng(21)
        s = orthonormal_basis(crandn(rng, 5, 2))
        c = complement(s)
        assert c.shape == (5, 3)
        assert np.abs(s.conj().T @ c).max() <= 1e-10

    def test_involution(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = orthonormal_basis(crandn(rng, 6, 3))
            assert span_equal(complement(complement(s)), s)


def low_rank(rng, rows, cols, rank, scale):
    """A ``rows x cols`` matrix of the given rank with non-orthonormal columns."""
    return scale * (crandn(rng, rows, rank) @ crandn(rng, rank, cols))


class TestSubspaceContract:
    """The subspace primitives take any finite matrix, not only orthonormal bases."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 8), cols=st.integers(0, 8),
           rank=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e4]))
    def test_complement(self, rows, cols, rank, seed, scale):
        rank = min(rank, rows, cols)
        m = low_rank(np.random.default_rng(seed), rows, cols, rank, scale)
        c = complement(m)
        assert c.shape == (rows, rows - rank)
        assert np.linalg.norm(c.conj().T @ c - np.eye(rows - rank)) <= 1e-10
        assert np.linalg.norm(c.conj().T @ m) <= 1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("call", [orthonormal_basis, nullspace, complement])
    def test_non_finite_input_rejected(self, call):
        with pytest.raises(InvalidMatrix):
            call(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestLogdetHpd:
    def test_identity(self):
        assert logdet_hpd(np.eye(4)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert logdet_hpd(np.diag([2.0, 2.0])) == pytest.approx(
            2 * math.log(2), abs=1e-12)

    def test_rank_one_update(self):
        # det(I + v v') = 1 + |v|^2
        v = np.ones((3, 1), dtype=complex)
        m = np.eye(3) + v @ v.conj().T
        assert logdet_hpd(m) == pytest.approx(math.log(4), abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveDefinite):
            logdet_hpd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            logdet_hpd(np.diag([1.0, -1.0]))

    def test_large_scale_matrix(self):
        # relative Hermiticity check must tolerate big well-conditioned inputs
        rng = np.random.default_rng(4)
        w = crandn(rng, 4, 4) * 1e8
        m = w @ w.conj().T + 1e6 * np.eye(4)
        m = 0.5 * (m + m.conj().T)
        assert np.isfinite(logdet_hpd(m))


def hpd_stack(rng, lead, d, scale):
    """A ``lead + (d, d)`` stack of Hermitian positive-definite matrices."""
    w = crandn(rng, int(np.prod(lead)) * d, d).reshape(lead + (d, d)) * scale
    m = w @ w.conj().swapaxes(-2, -1) + np.eye(d)
    return 0.5 * (m + m.conj().swapaxes(-2, -1))


class TestLogdetHpdStack:
    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e4]))
    def test_stack_equals_per_matrix(self, lead, d, seed, scale):
        m = hpd_stack(np.random.default_rng(seed), tuple(lead), d, scale)
        got = logdet_hpd(m)
        assert got.shape == tuple(lead)
        for idx in np.ndindex(*lead):
            assert got[idx] == logdet_hpd(m[idx])

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, 1.0], [0.0, 1.0]]),   # not Hermitian
        np.diag([1.0, -1.0]),                 # indefinite
    ])
    def test_one_bad_matrix_rejects_stack(self, bad):
        m = hpd_stack(np.random.default_rng(1), (3, 4), 2, 1.0)
        m[2, 1] = bad
        with pytest.raises(NotPositiveDefinite):
            logdet_hpd(m)

    def test_non_finite_entry_rejected(self):
        m = hpd_stack(np.random.default_rng(2), (3,), 2, 1.0)
        m[1, 0, 0] = np.nan
        with pytest.raises(InvalidMatrix):
            logdet_hpd(m)

    def test_non_square_stack_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            logdet_hpd(np.zeros((3, 2, 1)))

    def test_empty_matrices_give_zeros(self):
        got = logdet_hpd(np.zeros((5, 0, 0)))
        assert got.shape == (5,) and not got.any()

    def test_matrix_gives_float(self):
        assert isinstance(logdet_hpd(np.eye(3)), float)
        assert logdet_hpd(np.zeros((0, 0))) == 0.0

