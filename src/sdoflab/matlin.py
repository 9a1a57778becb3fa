"""Dense complex matrix and subspace toolkit.

Everything downstream (channel models, precoder synthesis, rate
computations) is built on a handful of primitives collected here:
orthonormalization, numerical rank, nullspaces, orthogonal complement,
and the log-determinant of Hermitian positive-definite matrices.

Conventions
-----------
Matrices are plain ``numpy.ndarray`` objects with dtype complex128 and
exactly two axes; :func:`logdet_hpd` also takes ``(..., d, d)`` stacks.
A subspace is the column space of a matrix.  The subspace primitives
(:func:`orthonormal_basis`, :func:`nullspace`, :func:`complement`) take
any finite matrix, check it once with :func:`as_matrix`, compute one
SVD, and return a plain ``(rows, k)`` array whose orthonormal columns
span the result; an empty subspace has ``k = 0``.

Numerical rank uses a *relative* singular-value cutoff: singular values
below ``tol`` times the largest singular value count as zero.  The
inputs of interest are generic continuous random draws, so the spectral
gaps are large and a relative threshold is scale-free.

All operations are pure functions of their arguments and keep no shared
state, so they are safe to call concurrently.
"""

import numpy as np

DEFAULT_TOL = 1e-9


class InvalidMatrix(ValueError):
    """Input is not a finite 2-D complex matrix."""


class NotPositiveDefinite(ValueError):
    """Matrix is not Hermitian positive definite."""


def as_matrix(m, stacked=False):
    """Coerce ``m`` to a 2-D complex128 array, rejecting non-finite entries.

    With ``stacked=True`` any leading axes are kept: ``m`` is a
    ``(..., rows, cols)`` stack of matrices.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise InvalidMatrix(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not (np.isfinite(a.real).all() and np.isfinite(a.imag).all()):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


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
    ndarray, shape (rows, rank)
        Orthonormal columns, as many as the numerical rank of ``m``.
    """
    m = as_matrix(m)
    if m.shape[0] == 0:
        raise InvalidMatrix("matrix has no rows")
    if m.shape[1] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :_rank_from_singvals(s, tol)]


def nullspace(m, tol=DEFAULT_TOL):
    """Orthonormal basis of the (right) nullspace of ``m``.

    The basis lives in the domain of ``m``: it has ``cols(m) - rank(m)``
    columns and ``m @ basis`` is zero to within ``tol * ||m||``.
    """
    m = as_matrix(m)
    if m.size == 0:
        # No constraints: the nullspace is the whole domain.
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[_rank_from_singvals(s, tol):].conj().T


def complement(m):
    """Orthonormal basis of the orthogonal complement of the span of ``m``.

    It has ``rows(m) - rank(m)`` columns, the rank taken at
    ``DEFAULT_TOL``.
    """
    m = as_matrix(m)
    if m.size == 0:
        return np.eye(m.shape[0], dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    return u[:, _rank_from_singvals(s, DEFAULT_TOL):]


def _frobenius(m):
    """Frobenius norm of each matrix in a stack, without complex temporaries."""
    return np.sqrt(sum(np.einsum("...ij,...ij->...", x, x)
                       for x in (m.real, m.imag)))


def logdet_hpd(m):
    """Log-determinant (nats) of a Hermitian positive-definite matrix.

    Uses a Cholesky factorization for numerical stability.  Hermiticity
    is checked to a relative tolerance of 1e-10; a failed factorization
    (not positive definite) and a non-Hermitian input both raise
    :class:`NotPositiveDefinite`.

    ``m`` may also be a ``(..., d, d)`` stack: every matrix is checked,
    and the result is an array of shape ``m.shape[:-2]`` whose entries
    equal the per-matrix results.  A 2-D input gives a float.
    """
    m = as_matrix(m, stacked=True)
    if m.shape[-2] != m.shape[-1]:
        raise NotPositiveDefinite("matrix is not square")
    if m.shape[-1] == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    skew = m.conj().swapaxes(-2, -1)
    np.subtract(m, skew, out=skew)
    skewed = np.any(_frobenius(skew) > 1e-10 * np.maximum(1.0, _frobenius(m)))
    del skew
    if skewed:
        raise NotPositiveDefinite("matrix is not Hermitian")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    out = 2.0 * np.sum(np.log(diag), axis=-1)
    return float(out) if m.ndim == 2 else out


def rank(m, tol=DEFAULT_TOL):
    """Numerical rank at the relative singular-value cutoff ``tol``."""
    m = as_matrix(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return _rank_from_singvals(s, tol)
