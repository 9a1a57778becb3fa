import math

import numpy as np
import pytest

from sdoflab import matlin
from sdoflab.matlin import (DimensionMismatch, InconsistentSystem,
                            InvalidMatrix, NotPositiveDefinite, Subspace,
                            complement, intersect, logdet_hpd, nullspace,
                            orthonormal_basis, solve_consistent)


def crandn(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def distance(s, x):
    """Largest column-wise residual of ``x`` from the subspace ``s``."""
    r = x - s.basis @ (s.basis.conj().T @ x)
    return float(np.linalg.norm(r, axis=0).max())


def span_equal(s1, s2, tol=1e-9):
    if s1.dim != s2.dim:
        return False
    return distance(s1, s2.basis) <= tol and distance(s2, s1.basis) <= tol


class TestOrthonormalBasis:
    def test_identity_full_rank(self):
        s = orthonormal_basis(np.eye(3), 1e-10)
        assert s.dim == 3 and s.ambient == 3

    def test_equal_columns_rank_one(self):
        col = np.array([[1.0], [2.0], [3.0]])
        s = orthonormal_basis(np.hstack([col, col]), 1e-10)
        assert s.dim == 1

    def test_random_wide_matrix_rank(self):
        # independent oracle: count singular values above the cutoff
        rng = np.random.default_rng(7)
        m = crandn(rng, 4, 6)
        svals = np.linalg.svd(m, compute_uv=False)
        expected = int(np.count_nonzero(svals > 1e-9 * svals[0]))
        assert expected == 4
        assert orthonormal_basis(m).dim == expected

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
        assert nullspace(np.eye(3)).dim == 0

    def test_wide_full_row_rank(self):
        rng = np.random.default_rng(11)
        m = crandn(rng, 2, 3)
        s = nullspace(m)
        assert s.dim == 1
        assert np.abs(m @ s.basis).max() <= 1e-10 * np.linalg.norm(m)

    def test_zero_matrix(self):
        assert nullspace(np.zeros((2, 2))).dim == 2

    def test_rank_nullity_all_shapes(self):
        rng = np.random.default_rng(5)
        for rows in range(1, 9):
            for cols in range(1, 9):
                m = crandn(rng, rows, cols)
                assert nullspace(m).dim + matlin.rank(m) == cols
                # rank-deficient variant via a low-rank product
                inner = max(1, min(rows, cols) - 1)
                low = crandn(rng, rows, inner) @ crandn(rng, inner, cols)
                assert nullspace(low).dim + matlin.rank(low) == cols


class TestIntersect:
    def test_coordinate_planes(self):
        e = np.eye(3, dtype=complex)
        s1 = Subspace(3, e[:, :2])          # span{e1, e2}
        s2 = Subspace(3, e[:, 1:])          # span{e2, e3}
        inter = intersect(s1, s2)
        assert inter.dim == 1
        assert distance(inter, e[:, 1:2]) <= 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(2)
        s = orthonormal_basis(crandn(rng, 5, 2))
        assert span_equal(intersect(s, s), s)

    def test_symmetry_on_seeded_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s1 = orthonormal_basis(crandn(rng, 4, 2))
            s2 = orthonormal_basis(crandn(rng, 4, 3))
            assert span_equal(intersect(s1, s2), intersect(s2, s1))

    @pytest.mark.parametrize("m1,m2,n", [(2, 2, 3), (3, 2, 4), (2, 1, 2),
                                         (3, 3, 4), (4, 3, 5)])
    def test_generic_dimension(self, m1, m2, n):
        # generic column spaces intersect in max(0, m1 + m2 - n) dimensions
        rng = np.random.default_rng(100 * m1 + 10 * m2 + n)
        expected = max(0, m1 + m2 - n)
        for _ in range(100):
            s1 = orthonormal_basis(crandn(rng, n, m1))
            s2 = orthonormal_basis(crandn(rng, n, m2))
            assert intersect(s1, s2).dim == expected

    def test_ambient_mismatch(self):
        s1 = Subspace(2, np.eye(2, dtype=complex))
        s2 = Subspace(3, np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch):
            intersect(s1, s2)


class TestComplement:
    def test_line_in_plane(self):
        s = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
        c = complement(s)
        assert c.dim == 1
        assert abs(abs(c.basis[1, 0]) - 1.0) <= 1e-12

    def test_full_space(self):
        assert complement(Subspace(3, np.eye(3, dtype=complex))).dim == 0

    def test_random_subspace(self):
        rng = np.random.default_rng(21)
        s = orthonormal_basis(crandn(rng, 5, 2))
        c = complement(s)
        assert c.dim == 3
        assert np.abs(s.basis.conj().T @ c.basis).max() <= 1e-10

    def test_involution(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = orthonormal_basis(crandn(rng, 6, 3))
            assert span_equal(complement(complement(s)), s)


class TestSolveConsistent:
    def test_identity(self):
        rng = np.random.default_rng(1)
        b = crandn(rng, 3, 2)
        x = solve_consistent(np.eye(3), b, 1e-10)
        assert np.abs(x - b).max() <= 1e-12

    def test_constructed_consistent_system(self):
        rng = np.random.default_rng(13)
        a = crandn(rng, 3, 2)
        x_true = np.array([[1.0], [1.0]], dtype=complex)
        x = solve_consistent(a, a @ x_true, 1e-9)
        assert np.abs(x - x_true).max() <= 1e-9

    def test_orthogonal_target_rejected(self):
        a = np.array([[1.0], [0.0]], dtype=complex)
        b = np.array([[0.0], [1.0]], dtype=complex)
        with pytest.raises(InconsistentSystem):
            solve_consistent(a, b, 1e-8)


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


class TestSubspace:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(InvalidMatrix):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionMismatch):
            Subspace(1, np.eye(2, dtype=complex))
