"""Dense complex matrix and subspace toolkit.

Everything downstream (channel models, precoder synthesis, rate
computations) is built on a handful of primitives collected here:
orthonormalization, numerical rank, nullspaces, subspace intersection
and orthogonal complement, consistent least-squares solves, and the
log-determinant of Hermitian positive-definite matrices.

Conventions
-----------
Matrices are plain ``numpy.ndarray`` objects with dtype complex128 and
exactly two axes.  A :class:`Subspace` is an ambient dimension together
with a matrix whose orthonormal columns span the space; a subspace of
dimension zero has a ``(ambient, 0)`` basis.

Numerical rank uses a *relative* singular-value cutoff: singular values
below ``tol`` times the largest singular value count as zero.  The
inputs of interest are generic continuous random draws, so the spectral
gaps are large and a relative threshold is scale-free.

All operations are pure functions of their arguments and keep no shared
state, so they are safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

_ORTHO_TOL = 1e-10  # basis columns must be orthonormal to this accuracy


class InvalidMatrix(ValueError):
    """Input is not a finite 2-D complex matrix."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class InconsistentSystem(ValueError):
    """Right-hand side is not in the column space of the coefficient matrix."""


class NotPositiveDefinite(ValueError):
    """Matrix is not Hermitian positive definite."""


def as_matrix(m):
    """Coerce ``m`` to a 2-D complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not (np.isfinite(a.real).all() and np.isfinite(a.imag).all()):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by an orthonormal column basis.

    Attributes
    ----------
    ambient : int
        Dimension of the containing space.
    basis : ndarray, shape (ambient, dim)
        Orthonormal columns spanning the subspace.
    """

    ambient: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        object.__setattr__(self, "basis", b)
        if b.shape[0] != self.ambient:
            raise DimensionMismatch(
                f"basis has {b.shape[0]} rows, ambient is {self.ambient}")
        if b.shape[1] > self.ambient:
            raise DimensionMismatch("subspace dimension exceeds ambient")
        if b.shape[1]:
            gram = b.conj().T @ b
            if np.abs(gram - np.eye(b.shape[1])).max() > _ORTHO_TOL:
                raise InvalidMatrix("basis columns are not orthonormal")

    @property
    def dim(self):
        return self.basis.shape[1]


def _rank_from_singvals(s, tol):
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def orthonormal_basis(m, tol=DEFAULT_TOL):
    """Orthonormal basis of the column space of ``m``.

    Parameters
    ----------
    m : array_like
        Matrix whose column space is wanted.
    tol : float
        Relative singular-value cutoff for the numerical rank.

    Returns
    -------
    Subspace
        Basis of dimension equal to the numerical rank of ``m``.
    """
    m = as_matrix(m)
    if m.shape[0] == 0:
        raise InvalidMatrix("matrix has no rows")
    if m.shape[1] == 0:
        return Subspace(m.shape[0], np.zeros((m.shape[0], 0), dtype=complex))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = _rank_from_singvals(s, tol)
    return Subspace(m.shape[0], u[:, :rank])


def nullspace(m, tol=DEFAULT_TOL):
    """Orthonormal basis of the (right) nullspace of ``m``.

    The returned subspace lives in the domain of ``m``; its dimension is
    ``cols(m) - rank(m)`` and ``m @ basis`` is zero to within
    ``tol * ||m||``.
    """
    m = as_matrix(m)
    if m.size == 0:
        # No constraints: the nullspace is the whole domain.
        return Subspace(m.shape[1], np.eye(m.shape[1], dtype=complex))
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = _rank_from_singvals(s, tol)
    return Subspace(m.shape[1], vh[rank:].conj().T)


def complement(s):
    """Orthogonal complement of a subspace, as a subspace of the same ambient."""
    if s.dim == 0:
        return Subspace(s.ambient, np.eye(s.ambient, dtype=complex))
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(s.ambient, u[:, s.dim:])


def intersect(s1, s2, tol=DEFAULT_TOL):
    """Intersection of two subspaces of the same ambient space.

    Computed via the nullspace of the stacked matrix ``[B1 | -B2]``: a
    null vector ``(x; y)`` satisfies ``B1 x = B2 y``, which is a point of
    the intersection.  The result is re-orthonormalized.

    Raises
    ------
    DimensionMismatch
        If the two subspaces have different ambient dimensions.
    """
    if s1.ambient != s2.ambient:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient} vs {s2.ambient}")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace(s1.ambient, np.zeros((s1.ambient, 0), dtype=complex))
    stacked = np.hstack([s1.basis, -s2.basis])
    coeffs = nullspace(stacked, tol)
    if coeffs.dim == 0:
        return Subspace(s1.ambient, np.zeros((s1.ambient, 0), dtype=complex))
    raw = s1.basis @ coeffs.basis[: s1.dim, :]
    return orthonormal_basis(raw, tol)


def solve_consistent(a, b, tol=1e-8):
    """Least-squares solve of ``a @ X = b`` that must be consistent.

    Returns the minimizer of ``||a X - b||_F`` and raises
    :class:`InconsistentSystem` when the relative residual
    ``||a X - b|| / ||b||`` exceeds ``tol`` (i.e. ``b`` is not in the
    column space of ``a``).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    if b.shape[1] == 0:
        return np.zeros((a.shape[1], 0), dtype=complex)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x
    rel = np.linalg.norm(a @ x - b) / b_norm
    if rel > tol:
        raise InconsistentSystem(
            f"relative residual {rel:.3e} exceeds tolerance {tol:.3e}")
    return x


def logdet_hpd(m):
    """Log-determinant (nats) of a Hermitian positive-definite matrix.

    Uses a Cholesky factorization for numerical stability.  Hermiticity
    is checked to a relative tolerance of 1e-10; a failed factorization
    (not positive definite) and a non-Hermitian input both raise
    :class:`NotPositiveDefinite`.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotPositiveDefinite("matrix is not square")
    if m.shape[0] == 0:
        return 0.0
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(m - m.conj().T) > 1e-10 * scale:
        raise NotPositiveDefinite("matrix is not Hermitian")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    return float(2.0 * np.sum(np.log(np.diag(chol).real)))


def rank(m, tol=DEFAULT_TOL):
    """Numerical rank at the relative singular-value cutoff ``tol``."""
    m = as_matrix(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return _rank_from_singvals(s, tol)
