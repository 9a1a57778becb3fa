"""Dense complex matrix and subspace toolkit.

Everything downstream (channel models, precoder synthesis, rate
computations) is built on a handful of primitives collected here:
orthonormalization, numerical rank, nullspaces, orthogonal complement,
and the log-determinant of Hermitian positive-definite matrices.

Conventions
-----------
Matrices are plain ``numpy.ndarray`` objects with dtype complex128, and
every function here also takes a ``(..., rows, cols)`` stack of them.
A subspace is the column space of a matrix.  The subspace primitives
(:func:`orthonormal_basis`, :func:`nullspace`, :func:`complement`) take
any finite matrix or stack, check it once with :func:`as_matrix`,
compute one SVD, and return a plain ``(..., rows, k)`` array whose
orthonormal columns span the result; an empty subspace has ``k = 0``.
A stack is one array, so ``k`` must be the same for every matrix in it;
when the ranks differ they raise :class:`RaggedRank`.

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
    """Input is not a finite complex matrix or stack of matrices."""


class NotPositiveDefinite(ValueError):
    """Matrix is not Hermitian positive definite."""


class RaggedRank(ValueError):
    """The matrices of a stack differ in numerical rank."""


def as_matrix(m):
    """Coerce ``m`` to a complex128 matrix or ``(..., rows, cols)`` stack,
    rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise InvalidMatrix(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not (np.isfinite(a.real).all() and np.isfinite(a.imag).all()):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def ct(x):
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return x.conj().swapaxes(-2, -1)


def _ranks(s, tol):
    """Numerical rank of each matrix from its singular values ``(..., k)``."""
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def _one_rank(s, tol):
    """The numerical rank shared by every matrix of a stack."""
    r = _ranks(s, tol)
    if r.size and r.min() != r.max():
        raise RaggedRank(f"numerical ranks differ across the stack: "
                         f"{r.min()} to {r.max()}")
    return int(r.max(initial=0))


def orthonormal_basis(m, tol=DEFAULT_TOL):
    """Orthonormal basis of the column space of ``m``.

    Parameters
    ----------
    m : array_like
        Matrix, or stack of matrices, whose column space is wanted.
    tol : float
        Relative singular-value cutoff for the numerical rank.

    Returns
    -------
    ndarray, shape (..., rows, rank)
        Orthonormal columns, as many as the numerical rank of ``m``.
    """
    m = as_matrix(m)
    if m.shape[-2] == 0:
        raise InvalidMatrix("matrix has no rows")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[..., :_one_rank(s, tol)]


def nullspace(m, tol=DEFAULT_TOL):
    """Orthonormal basis of the (right) nullspace of ``m``.

    The basis lives in the domain of ``m``: it has ``cols(m) - rank(m)``
    columns and ``m @ basis`` is zero to within ``tol * ||m||``.
    """
    m = as_matrix(m)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return ct(vh[..., _one_rank(s, tol):, :])


def complement(m):
    """Orthonormal basis of the orthogonal complement of the span of ``m``.

    It has ``rows(m) - rank(m)`` columns, the rank taken at
    ``DEFAULT_TOL``.
    """
    m = as_matrix(m)
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    return u[..., _one_rank(s, DEFAULT_TOL):]


def frobenius(m):
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
    m = as_matrix(m)
    if m.shape[-2] != m.shape[-1]:
        raise NotPositiveDefinite("matrix is not square")
    if m.shape[-1] == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    skew = m.conj().swapaxes(-2, -1)
    np.subtract(m, skew, out=skew)
    skewed = np.any(frobenius(skew) > 1e-10 * np.maximum(1.0, frobenius(m)))
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
    """Numerical rank at the relative singular-value cutoff ``tol``: an
    int for a matrix, an int array of shape ``m.shape[:-2]`` for a stack."""
    r = _ranks(np.linalg.svd(as_matrix(m), compute_uv=False), tol)
    return int(r) if r.ndim == 0 else r
