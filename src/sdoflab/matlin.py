"""Dense real matrix and subspace toolkit.

Everything downstream (channel models, precoder synthesis, rate
computations) is built on a handful of primitives collected here:
orthonormalization, numerical rank, nullspaces, orthogonal complement,
and the log-determinant of symmetric positive-definite matrices.

Conventions
-----------
Matrices are plain float64 ``numpy.ndarray`` objects, and every function
here also takes a ``(..., rows, cols)`` stack of them.  A complex input
is rejected rather than cast, so no imaginary part is silently dropped.
A subspace is the column space of a matrix.  The subspace primitives
(:func:`orthonormal_basis`, :func:`nullspace`, :func:`complement`) take
any finite matrix or stack, check it once with :func:`as_matrix`,
compute one SVD, and return a plain ``(..., rows, k)`` array whose
orthonormal columns span the result; an empty subspace has ``k = 0``.
A stack is one array, so ``k`` must be the same for every matrix in it;
when the ranks differ they raise :class:`RaggedRank`.  Empty shapes are
accepted: a matrix with no rows or no columns has rank 0.

Numerical rank has one rule, and this module is its only owner: singular
values at or below ``DEFAULT_TOL`` times a scale count as zero.  The scale
is each matrix's largest singular value (scale-free; generic draws have
large spectral gaps), or the factors' scale given to :func:`rank`, such as
``||A||`` for ``A B`` when ``B`` has unit-norm columns: then a product that
is zero up to roundoff has rank 0, not its roundoff's rank.

All operations are pure functions of their arguments and keep no shared
state, so they are safe to call concurrently.
"""

import numpy as np

DEFAULT_TOL = 1e-9


class InvalidMatrix(ValueError):
    """Input is not a finite matrix or stack of matrices."""


class NotPositiveDefinite(ValueError):
    """Matrix is not symmetric positive definite."""


class RaggedRank(ValueError):
    """The matrices of a stack differ in numerical rank."""


def as_matrix(m):
    """Coerce ``m`` to a float64 matrix or ``(..., rows, cols)`` stack,
    rejecting complex and non-finite entries."""
    a = np.asarray(m)
    if a.dtype.kind == "c":
        raise InvalidMatrix("matrix is complex")
    a = a.astype(np.float64, copy=False)
    if a.ndim < 2:
        raise InvalidMatrix(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def _ranks(s, scale=None):
    """Ranks from singular values ``(..., k)``, against ``scale`` or ``s[0]``."""
    scale = s[..., :1] if scale is None else np.asarray(scale)[..., None]
    return (s > DEFAULT_TOL * scale).sum(axis=-1)


def _one_rank(s):
    """The numerical rank shared by every matrix of a stack."""
    r = _ranks(s)
    if r.size and r.min() != r.max():
        raise RaggedRank(f"numerical ranks differ across the stack: "
                         f"{r.min()} to {r.max()}")
    return int(r.max(initial=0))


def orthonormal_basis(m):
    """Orthonormal basis of the column space of ``m``.

    Parameters
    ----------
    m : array_like
        Matrix, or stack of matrices, whose column space is wanted.

    Returns
    -------
    ndarray, shape (..., rows, rank)
        Orthonormal columns, as many as the numerical rank of ``m``.
    """
    u, s, _ = np.linalg.svd(as_matrix(m), full_matrices=False)
    return u[..., :_one_rank(s)]


def nullspace(m):
    """Orthonormal basis of the (right) nullspace of ``m``.

    The basis lives in the domain of ``m``: it has ``cols(m) - rank(m)``
    columns and ``m @ basis`` is zero to within ``DEFAULT_TOL * ||m||``.
    """
    _, s, vh = np.linalg.svd(as_matrix(m), full_matrices=True)
    return vh[..., _one_rank(s):, :].mT


def complement(m):
    """Orthonormal basis of the orthogonal complement of the span of ``m``.

    It has ``rows(m) - rank(m)`` columns.
    """
    u, s, _ = np.linalg.svd(as_matrix(m), full_matrices=True)
    return u[..., _one_rank(s):]


def frobenius(m):
    """Frobenius norm of each matrix in a stack."""
    return np.sqrt(np.einsum("...ij,...ij->...", m, m))


def logdet_hpd(m):
    """Log-determinant (nats) of a symmetric positive-definite matrix.

    Uses a Cholesky factorization for numerical stability.  Symmetry is
    checked to a relative tolerance of 1e-10; a failed factorization
    (not positive definite) and a non-symmetric input both raise
    :class:`NotPositiveDefinite`.

    ``m`` may also be a ``(..., d, d)`` stack: every matrix is checked,
    and the result is an array of shape ``m.shape[:-2]`` whose entries
    equal the per-matrix results.  A 2-D input gives a float.
    """
    m = as_matrix(m)
    if m.shape[-2] != m.shape[-1]:
        raise NotPositiveDefinite("matrix is not square")
    if (frobenius(m - m.mT) > 1e-10 * np.maximum(1.0, frobenius(m))).any():
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is not positive definite") from exc
    diag = chol.diagonal(axis1=-2, axis2=-1)
    out = 2.0 * np.log(diag).sum(axis=-1)
    return float(out) if m.ndim == 2 else out


def rank(m, scale=None):
    """Numerical rank by the module's rule, at ``scale`` if given (one per
    matrix or one for all): an int for a matrix, an int array for a stack."""
    r = _ranks(np.linalg.svd(as_matrix(m), compute_uv=False), scale)
    return int(r) if r.ndim == 0 else r
