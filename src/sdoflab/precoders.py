"""Jamming precoders, legitimate precoders, and zero-forcing reception.

Given a jamming plan and a channel realization this module synthesizes:

* jamming precoders ``v1j``/``v2j`` whose columns are, per plan part,
  random (Gaussian, orthonormalized), nullspace columns of the lifted
  channel, or aligned columns solving ``H1 @ v1 = H2 @ v2 = i`` for
  shared directions ``i`` drawn from the intersection of the two
  received signal spaces;
* a receiver matrix ``u`` whose orthonormal rows span the orthogonal
  complement of the received jamming space (zero-forcing);
* legitimate precoders ``v1l``/``v2l`` with orthonormal columns taken
  from the orthogonal complement of each transmitter's jamming columns.

A plan with ``extension == 2`` lifts the constant legitimate channel
block-diagonally over two symbol slots, once, in `build_precoder_set`;
the sub-builders take the lifted pair, and the intersection, nullspace
and complement computations happen in the lifted space.  Aligned
directions are drawn generically from the lifted intersection (a seeded
unitary mix) so that their per-slot components are not degenerate: a
slot-pure direction would present rank-deficient jamming to a
time-varying eavesdropper.

All tolerances are relative.  `verify_geometry` aggregates the
construction contracts into a machine-checkable report and keeps the
receiver images ``U H_i V_i^L`` that the rate engine reads.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import (as_matrix, complement, intersect, nullspace,
                     orthonormal_basis, solve_consistent)
from .model import complex_gaussian
from .regions import ALIGNED, NULLSPACE, RANDOM

ALIGNMENT_TOL = 1e-8
NULLSPACE_TOL = 1e-8
ZF_TOL = 1e-8
RANK_TOL = 1e-9


class AlignmentInfeasible(RuntimeError):
    """The signal-space intersection is smaller than the aligned budget."""


class PlanMismatch(RuntimeError):
    """Built matrices do not fit the plan's dimension bookkeeping."""


@dataclass(frozen=True)
class GeometryReport:
    """Measured residuals of one precoder construction."""

    alignment_residual: float
    nullspace_residual: float
    zf_residual: float
    decode_rank: int
    expected_rank: int
    passed: bool

    def summary(self):
        return (f"align={self.alignment_residual:.2e} "
                f"null={self.nullspace_residual:.2e} "
                f"zf={self.zf_residual:.2e} "
                f"rank={self.decode_rank}/{self.expected_rank} "
                f"{'pass' if self.passed else 'FAIL'}")


@dataclass
class PrecoderSet:
    """Legitimate precoders, jamming precoders, and the receiver matrix.

    Shapes (``e`` the extension factor): ``v_il`` is ``(e*m_i, d_i)``
    with orthonormal columns orthogonal to ``v_ij``; ``v_ij`` is
    ``(e*m_i, jam_i)`` with unit-norm columns; ``u`` is
    ``(e*n - j_s, e*n)`` with orthonormal rows.  :func:`verify_geometry`
    sets ``geometry`` and the receiver images ``rx_images`` = ``U H_i V_i^L``.
    """

    v1l: np.ndarray
    v2l: np.ndarray
    v1j: np.ndarray
    v2j: np.ndarray
    u: np.ndarray
    extension: int = 1
    geometry: GeometryReport | None = field(default=None, compare=False)
    rx_images: tuple | None = field(default=None, compare=False)


def extend_channel(h, factor):
    """Block-diagonal lift of ``h`` over ``factor`` symbol slots."""
    h = as_matrix(h)
    if factor == 1:
        return h
    return np.kron(np.eye(factor), h)


def _random_unitary(k, rng):
    """Haar-ish random unitary via QR of a complex Gaussian draw."""
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(complex_gaussian(rng, k, k))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _normalize_columns(v):
    if v.shape[1] == 0:
        return v
    return v / np.linalg.norm(v, axis=0)


def _aligned_directions(plan, h1e, h2e, rng):
    """Shared receiver directions for the aligned parts of both transmitters."""
    a1, a2 = plan.aligned_dims(1), plan.aligned_dims(2)
    if a1 != a2:
        raise PlanMismatch(f"aligned budgets differ: {a1} vs {a2}")
    if a1 == 0:
        return None
    space = intersect(orthonormal_basis(h1e), orthonormal_basis(h2e))
    if space.dim < a1:
        raise AlignmentInfeasible(
            f"intersection has dimension {space.dim}, need {a1}")
    mix = _random_unitary(space.dim, rng)
    return space.basis @ mix[:, :a1]


def build_jamming(plan, h1e, h2e, seed):
    """Jamming precoders ``(v1j, v2j)`` for a plan on a channel realization.

    ``h1e``/``h2e`` are the channels lifted to ``plan.extension`` slots.
    Columns are laid out in plan-part order per transmitter and
    normalized to unit norm.  Aligned parts share one set of generic
    intersection directions, so both transmitters' aligned columns map
    to the same receiver subspace; nullspace parts are invisible to the
    receiver; random parts are generic.

    Raises
    ------
    AlignmentInfeasible
        When the intersection of the received signal spaces is smaller
        than the aligned budget (a plan/region mismatch).
    """
    rng = np.random.default_rng(seed)
    shared = _aligned_directions(plan, h1e, h2e, rng)

    out = []
    for parts, he in ((plan.tx1_parts, h1e), (plan.tx2_parts, h2e)):
        cols = [np.zeros((he.shape[1], 0), dtype=complex)]
        for part in parts:
            if part.method == RANDOM:
                draw = complex_gaussian(rng, he.shape[1], part.dims)
                q, _ = np.linalg.qr(draw)
                cols.append(q[:, :part.dims])
            elif part.method == NULLSPACE:
                ns = nullspace(he)
                if ns.dim < part.dims:
                    raise PlanMismatch(
                        f"channel nullspace has dimension {ns.dim}, "
                        f"plan wants {part.dims}")
                mixed = ns.basis @ _random_unitary(ns.dim, rng)
                cols.append(mixed[:, :part.dims])
            else:  # aligned
                cols.append(solve_consistent(he, shared[:, :part.dims]))
        out.append(_normalize_columns(np.hstack(cols)))
    return out[0], out[1]


def build_zero_forcing(h1e, h2e, v1j, v2j, plan):
    """Receiver zero-forcing matrix for the given jamming precoders.

    ``h1e``/``h2e`` are the channels lifted to ``plan.extension`` slots.
    The rows form an orthonormal basis of the orthogonal complement of
    the received jamming space (the union of both transmitters' jamming
    images), so ``u @ (H_i v_ij) = 0``.  With no jamming at the receiver
    the result is a full square unitary.

    Raises
    ------
    PlanMismatch
        When the received jamming space does not have dimension
        ``plan.j_s``.
    """
    image = np.hstack([h1e @ v1j, h2e @ v2j])
    if image.shape[1]:
        # Nullspace jamming leaves an image that is zero up to roundoff,
        # so the occupied-dimension cutoff must be relative to the
        # channel scale, not to the image's own largest singular value.
        u_img, svals, _ = np.linalg.svd(image, full_matrices=False)
        scale = max(np.linalg.norm(h1e, 2), np.linalg.norm(h2e, 2))
        dim = int(np.count_nonzero(svals > matlin.DEFAULT_TOL * scale))
        jam_space = matlin.Subspace(h1e.shape[0], u_img[:, :dim])
    else:
        jam_space = matlin.Subspace(
            h1e.shape[0], np.zeros((h1e.shape[0], 0), dtype=complex))
    if jam_space.dim != plan.j_s:
        raise PlanMismatch(
            f"received jamming space has dimension {jam_space.dim}, "
            f"plan says {plan.j_s}")
    return complement(jam_space).basis.conj().T


def build_legit(plan, v1j, v2j, seed):
    """Legitimate precoders ``(v1l, v2l)``.

    Each is ``d_i`` orthonormal columns of a generically rotated
    orthonormal basis of the orthogonal complement of the transmitter's
    jamming columns, so legitimate streams never leak power into the
    jamming directions.
    """
    rng = np.random.default_rng(seed)
    out = []
    for vj, d in ((v1j, plan.d1), (v2j, plan.d2)):
        comp = complement(orthonormal_basis(vj))
        if comp.dim < d:
            raise PlanMismatch(
                f"complement of the jamming span has dimension "
                f"{comp.dim}, plan wants {d} streams")
        mixed = comp.basis @ _random_unitary(comp.dim, rng)
        out.append(mixed[:, :d])
    return out[0], out[1]


def _part_slices(parts):
    """Column ranges of each part in the concatenated precoder."""
    slices = {}
    start = 0
    for part in parts:
        slices.setdefault(part.method, []).append(slice(start, start + part.dims))
        start += part.dims
    return slices


def _columns(v, slices, method):
    picks = [v[:, s] for s in slices.get(method, [])]
    if not picks:
        return v[:, 0:0]
    return np.hstack(picks)


def verify_geometry(ps, h1e, h2e, plan):
    """Measure the construction residuals and attach a report to ``ps``.

    ``h1e``/``h2e`` are the channels lifted to ``plan.extension`` slots;
    other column counts raise :class:`PlanMismatch`.

    * alignment: per-column difference of the unit-normalized jamming
      images of the two transmitters' aligned parts;
    * nullspace: ``||H_i v|| / ||H_i||`` over nullspace columns;
    * zero-forcing: ``||u (H_i v_ij)|| / ||H_i||``;
    * decodability: rank of ``u [H1 v1l | H2 v2l]`` versus ``d1 + d2``.

    The report passes when all residuals are within 1e-8 and the rank
    matches exactly.  The images ``u (H_i v_il)`` go to ``ps.rx_images``.
    """
    if (h1e.shape[1], h2e.shape[1]) != (ps.v1l.shape[0], ps.v2l.shape[0]):
        raise PlanMismatch("channel columns do not match precoder rows")
    s1 = _part_slices(plan.tx1_parts)
    s2 = _part_slices(plan.tx2_parts)

    align_res = 0.0
    al1 = _columns(ps.v1j, s1, ALIGNED)
    al2 = _columns(ps.v2j, s2, ALIGNED)
    if al1.shape[1] or al2.shape[1]:
        if al1.shape[1] != al2.shape[1]:
            raise PlanMismatch("aligned column counts differ between transmitters")
        img1 = _normalize_columns(h1e @ al1)
        img2 = _normalize_columns(h2e @ al2)
        align_res = float(np.linalg.norm(img1 - img2, axis=0).max())

    null_res = 0.0
    for he, v, slices in ((h1e, ps.v1j, s1), (h2e, ps.v2j, s2)):
        nsc = _columns(v, slices, NULLSPACE)
        if nsc.shape[1]:
            null_res = max(null_res,
                           float(np.linalg.norm(he @ nsc) / np.linalg.norm(he)))

    zf_res = 0.0
    for he, v in ((h1e, ps.v1j), (h2e, ps.v2j)):
        if v.shape[1]:
            zf_res = max(zf_res,
                         float(np.linalg.norm(ps.u @ (he @ v)) / np.linalg.norm(he)))

    images = (ps.u @ (h1e @ ps.v1l), ps.u @ (h2e @ ps.v2l))
    decode_rank = matlin.rank(np.hstack(images), RANK_TOL)
    expected = plan.d1 + plan.d2

    report = GeometryReport(
        alignment_residual=align_res,
        nullspace_residual=null_res,
        zf_residual=zf_res,
        decode_rank=decode_rank,
        expected_rank=expected,
        passed=(align_res <= ALIGNMENT_TOL and null_res <= NULLSPACE_TOL
                and zf_res <= ZF_TOL and decode_rank == expected),
    )
    ps.geometry = report
    ps.rx_images = images
    return report


def build_precoder_set(plan, h1, h2, seed):
    """Build jamming, zero-forcing and legitimate precoders, then verify.

    ``h1``/``h2`` are lifted here, once, for every sub-builder.  One
    seeded stream drives all random choices, so the whole set is
    deterministic given ``(plan, h1, h2, seed)``.
    """
    rng = np.random.default_rng(seed)
    h1e = extend_channel(h1, plan.extension)
    h2e = extend_channel(h2, plan.extension)
    v1j, v2j = build_jamming(plan, h1e, h2e, rng)
    u = build_zero_forcing(h1e, h2e, v1j, v2j, plan)
    v1l, v2l = build_legit(plan, v1j, v2j, rng)
    ps = PrecoderSet(v1l=v1l, v2l=v2l, v1j=v1j, v2j=v2j, u=u,
                     extension=plan.extension)
    verify_geometry(ps, h1e, h2e, plan)
    return ps


def build_unjammed_set(h1, h2):
    """Jamming-free precoder set (negative control).

    Every transmit dimension carries a legitimate stream, the receiver
    applies no zero-forcing, and the geometry report passes trivially.
    """
    h1 = as_matrix(h1)
    h2 = as_matrix(h2)
    n, m1 = h1.shape
    m2 = h2.shape[1]
    ps = PrecoderSet(
        v1l=np.eye(m1, dtype=complex),
        v2l=np.eye(m2, dtype=complex),
        v1j=np.zeros((m1, 0), dtype=complex),
        v2j=np.zeros((m2, 0), dtype=complex),
        u=np.eye(n, dtype=complex),
        extension=1,
    )
    decode_rank = matlin.rank(np.hstack([h1, h2]), RANK_TOL)
    ps.geometry = GeometryReport(0.0, 0.0, 0.0, decode_rank, decode_rank, True)
    ps.rx_images = (h1, h2)  # U (H_i V_i^L) with U, V_i^L identities
    return ps


def jamming_coverage_rank(ps, g1, g2):
    """Rank of the jamming image at an eavesdropper with channels ``g1, g2``.

    ``g1``/``g2`` must already be lifted to the precoder extension
    (block diagonal with one independent block per slot).  For generic
    draws the rank equals the total number of jamming columns, i.e. the
    jamming overwhelms the eavesdropper's signal space.
    """
    image = np.hstack([as_matrix(g1) @ ps.v1j, as_matrix(g2) @ ps.v2j])
    return matlin.rank(image, RANK_TOL)
