"""Jamming precoders, legitimate precoders, and zero-forcing reception.

Given a jamming plan and a stack of channel realizations, one per
trial, this module synthesizes for every trial:

* jamming precoders ``v1j``/``v2j`` whose columns are, per plan part,
  random (Gaussian, orthonormalized), nullspace columns of the lifted
  channel, or aligned pairs ``(x, y)`` with ``H1 x = H2 y``, taken from
  one null space over the two channels' row spaces;
* a receiver matrix ``u`` whose orthonormal rows span the orthogonal
  complement of the received jamming space (zero-forcing);
* legitimate precoders ``v1l``/``v2l`` with orthonormal columns taken
  from the orthogonal complement of each transmitter's jamming columns.

A plan with ``extension == 2`` lifts the constant legitimate channel
block-diagonally over two symbol slots, once, in `build_precoder_set`;
the sub-builders take the lifted pair, and the null-space and
complement computations happen in the lifted space.  Aligned pairs are
drawn generically from that null space (a seeded unitary mix) so that
their per-slot components are not degenerate: a slot-pure pair would
present rank-deficient jamming to a time-varying eavesdropper.  Keeping
them in the row spaces keeps them free of channel-nullspace components,
which the receiver never sees but an eavesdropper would.

Every step makes one SVD, QR or product call per ``(trials, rows,
cols)`` stack, and each trial draws from its own seeded stream; a single
trial is a stack of one.  All tolerances are relative.  `verify_geometry`
writes one machine-checkable report per stack and keeps the receiver
images ``U H_i V_i^L`` that the rate engine reads.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matlin
from .matlin import (as_matrix, complement, ct, frobenius, nullspace,
                     orthonormal_basis)
from .model import complex_gaussian, eve_image
from .regions import ALIGNED, NULLSPACE, RANDOM

ALIGNMENT_TOL = 1e-8
NULLSPACE_TOL = 1e-8
ZF_TOL = 1e-8
RANK_TOL = 1e-9


class AlignmentInfeasible(RuntimeError):
    """Received signal spaces share too few dimensions for the aligned budget."""


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

    def failures(self):
        """One line per failed check: its worst residual against the
        tolerance, or the decode rank against the expected rank."""
        lines = [f"{name} {value:.3g} exceeds tolerance {tol:g}"
                 for name, value, tol in (
                     ("alignment_residual", self.alignment_residual,
                      ALIGNMENT_TOL),
                     ("nullspace_residual", self.nullspace_residual,
                      NULLSPACE_TOL),
                     ("zf_residual", self.zf_residual, ZF_TOL))
                 if not value <= tol]
        if self.decode_rank != self.expected_rank:
            lines.append(f"decode_rank {self.decode_rank} != expected rank "
                         f"{self.expected_rank}")
        return lines


@dataclass
class PrecoderSet:
    """Legitimate precoders, jamming precoders, and the receiver matrix.

    Each field stacks one matrix per trial.  Shapes (``e`` the extension
    factor): ``v_il`` is ``(e*m_i, d_i)`` with orthonormal columns
    orthogonal to ``v_ij``; ``v_ij`` is ``(e*m_i, jam_i)`` with unit-norm
    columns; ``u`` is ``(e*n - j_s, e*n)`` with orthonormal rows.
    :func:`verify_geometry` sets ``geometry``, one report for the stack,
    and the receiver images ``rx_images`` = ``U H_i V_i^L``.
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
    """Block-diagonal lift of ``h`` (a matrix or a stack) over ``factor`` slots.

    ``kron``'s broadcast product, with its signed zeros: the lift has
    repeated singular values, so every precoder after it depends on them.
    """
    h = as_matrix(h)
    if factor == 1:
        return h
    *lead, n, m = h.shape
    lifted = np.eye(factor)[:, None, :, None] * h[..., None, :, None, :]
    return lifted.reshape(*lead, factor * n, factor * m)


def _random_unitary(k, rngs):
    """Haar-ish random unitaries, one per generator, via QR of Gaussians."""
    q, r = np.linalg.qr(complex_gaussian(rngs, (k, k))[0])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _normalize_columns(v):
    return v / np.linalg.norm(v, axis=-2)[..., None, :]


def _aligned_pairs(plan, h1e, h2e, rngs):
    """Aligned jamming columns of both transmitters, stacked ``(x; y)``.

    With ``R_i`` orthonormal bases of the row spaces of ``h_ie``, each
    null vector ``(c1; c2)`` of ``[h1e R1 | -h2e R2]`` gives
    ``x = R1 c1``, ``y = R2 c2`` with ``h1e x = h2e y`` exactly.  A
    seeded unitary mixes the null vectors generically.
    """
    a1, a2 = plan.aligned_dims(1), plan.aligned_dims(2)
    if a1 != a2:
        raise PlanMismatch(f"aligned budgets differ: {a1} vs {a2}")
    if a1 == 0:
        return None
    r1 = orthonormal_basis(ct(h1e))
    r2 = orthonormal_basis(ct(h2e))
    k = r1.shape[-1]
    c = nullspace(np.concatenate([h1e @ r1, -(h2e @ r2)], axis=-1))
    if c.shape[-1] < a1:
        raise AlignmentInfeasible(
            f"received signal spaces share {c.shape[-1]} dimensions, "
            f"need {a1}")
    pairs = np.concatenate([r1 @ c[..., :k, :], r2 @ c[..., k:, :]], axis=-2)
    return pairs @ _random_unitary(c.shape[-1], rngs)[..., :a1]


def build_jamming(plan, h1e, h2e, seeds):
    """Jamming precoders ``(v1j, v2j)`` for a plan on a stack of channels.

    ``h1e``/``h2e`` are the channels lifted to ``plan.extension`` slots,
    ``(trials, rows, cols)``, and ``seeds`` holds one seed per trial.
    Columns are laid out in plan-part order per transmitter and
    normalized to unit norm.  Aligned parts take their columns from one
    null space over the two channels' row spaces (`_aligned_pairs`), so
    both transmitters' aligned columns map to the same receiver
    subspace; nullspace parts are invisible to the receiver; random
    parts are generic.

    Raises
    ------
    AlignmentInfeasible
        When the received signal spaces share fewer dimensions than the
        aligned budget (a plan/region mismatch).
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    pairs = _aligned_pairs(plan, h1e, h2e, rngs)

    out = []
    for parts, he, rows in ((plan.tx1_parts, h1e, slice(0, h1e.shape[-1])),
                            (plan.tx2_parts, h2e, slice(h1e.shape[-1], None))):
        cols = [np.zeros((len(rngs), he.shape[-1], 0), dtype=complex)]
        for part in parts:
            if part.method == RANDOM:
                q, _ = np.linalg.qr(
                    complex_gaussian(rngs, (he.shape[-1], part.dims))[0])
                cols.append(q[..., :part.dims])
            elif part.method == NULLSPACE:
                ns = nullspace(he)
                if ns.shape[-1] < part.dims:
                    raise PlanMismatch(
                        f"channel nullspace has dimension {ns.shape[-1]}, "
                        f"plan wants {part.dims}")
                mixed = ns @ _random_unitary(ns.shape[-1], rngs)
                cols.append(mixed[..., :part.dims])
            else:  # aligned
                cols.append(pairs[..., rows, :part.dims])
        out.append(_normalize_columns(np.concatenate(cols, axis=-1)))
    return out[0], out[1]


def build_zero_forcing(h1e, h2e, v1j, v2j, plan):
    """Receiver zero-forcing matrices for the given jamming precoders.

    ``h1e``/``h2e`` are the channel stacks lifted to ``plan.extension``
    slots.  The rows form an orthonormal basis of the orthogonal
    complement of the received jamming space (the union of both
    transmitters' jamming images), so ``u @ (H_i v_ij) = 0``.  With no
    jamming at the receiver the result is a full square unitary.

    Raises
    ------
    PlanMismatch
        When the received jamming space of a trial does not have
        dimension ``plan.j_s``.
    """
    image = np.concatenate([h1e @ v1j, h2e @ v2j], axis=-1)
    # Nullspace jamming leaves an image that is zero up to roundoff,
    # so the occupied-dimension cutoff must be relative to the
    # channel scale, not to the image's own largest singular value.
    u_img, svals, _ = np.linalg.svd(image, full_matrices=False)
    scale = np.maximum(np.linalg.norm(h1e, 2, axis=(-2, -1)),
                       np.linalg.norm(h2e, 2, axis=(-2, -1)))
    dims = np.count_nonzero(svals > matlin.DEFAULT_TOL * scale[..., None],
                            axis=-1)
    if np.any(dims != plan.j_s):
        raise PlanMismatch(
            f"received jamming space has dimension "
            f"{dims[dims != plan.j_s][0]}, plan says {plan.j_s}")
    return ct(complement(u_img[..., :plan.j_s]))


def build_legit(plan, v1j, v2j, seeds):
    """Legitimate precoders ``(v1l, v2l)``, stacked like the jamming.

    Each is ``d_i`` orthonormal columns of a generically rotated
    orthonormal basis of the orthogonal complement of the transmitter's
    jamming columns, so legitimate streams never leak power into the
    jamming directions.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    out = []
    for vj, d in ((v1j, plan.d1), (v2j, plan.d2)):
        comp = complement(orthonormal_basis(vj))
        if comp.shape[-1] < d:
            raise PlanMismatch(
                f"complement of the jamming span has dimension "
                f"{comp.shape[-1]}, plan wants {d} streams")
        mixed = comp @ _random_unitary(comp.shape[-1], rngs)
        out.append(mixed[..., :d])
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
    picks = [v[..., s] for s in slices.get(method, [])]
    return np.concatenate([v[..., 0:0]] + picks, axis=-1)


def verify_geometry(ps, h1e, h2e, plan):
    """Measure the construction residuals and attach a report to ``ps``.

    ``h1e``/``h2e`` are the channel stacks lifted to ``plan.extension``
    slots; other column counts raise :class:`PlanMismatch`.  Residuals
    are the worst over the trials:

    * alignment: per-column difference of the unit-normalized jamming
      images of the two transmitters' aligned parts;
    * nullspace: ``||H_i v|| / ||H_i||`` over nullspace columns;
    * zero-forcing: ``||u (H_i v_ij)|| / ||H_i||``;
    * decodability: rank of ``u [H1 v1l | H2 v2l]`` versus ``d1 + d2``,
      the smallest over the trials.

    The report passes when all residuals are within 1e-8 and every rank
    matches exactly.  The images ``u (H_i v_il)`` go to ``ps.rx_images``.
    """
    if (h1e.shape[-1], h2e.shape[-1]) != (ps.v1l.shape[-2], ps.v2l.shape[-2]):
        raise PlanMismatch("channel columns do not match precoder rows")
    s1 = _part_slices(plan.tx1_parts)
    s2 = _part_slices(plan.tx2_parts)

    align_res = 0.0
    al1 = _columns(ps.v1j, s1, ALIGNED)
    al2 = _columns(ps.v2j, s2, ALIGNED)
    if al1.shape[-1] or al2.shape[-1]:
        if al1.shape[-1] != al2.shape[-1]:
            raise PlanMismatch("aligned column counts differ between transmitters")
        img1 = _normalize_columns(h1e @ al1)
        img2 = _normalize_columns(h2e @ al2)
        align_res = float(np.linalg.norm(img1 - img2, axis=-2).max())

    null_res = 0.0
    for he, v, slices in ((h1e, ps.v1j, s1), (h2e, ps.v2j, s2)):
        nsc = _columns(v, slices, NULLSPACE)
        if nsc.shape[-1]:
            null_res = max(null_res,
                           float((frobenius(he @ nsc) / frobenius(he)).max()))

    zf_res = 0.0
    for he, v in ((h1e, ps.v1j), (h2e, ps.v2j)):
        if v.shape[-1]:
            zf_res = max(zf_res,
                         float((frobenius(ps.u @ (he @ v)) / frobenius(he)).max()))

    images = (ps.u @ (h1e @ ps.v1l), ps.u @ (h2e @ ps.v2l))
    decode_rank = int(np.min(matlin.rank(np.concatenate(images, axis=-1),
                                         RANK_TOL)))
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


def build_precoder_set(plan, h1, h2, seeds):
    """Build jamming, zero-forcing and legitimate precoders, then verify.

    ``h1``/``h2`` are ``(trials, n, m_i)`` channel stacks, lifted here
    once for every sub-builder, and ``seeds`` holds one seed or generator
    per trial, so trial ``t``'s set equals its own build as a stack of
    one.  Trials whose dimensions differ fail the stack with the error of
    the first trial whose own build fails (rebuilt from its seed), else
    :class:`~sdoflab.matlin.RaggedRank`.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    try:
        h1e = extend_channel(h1, plan.extension)
        h2e = extend_channel(h2, plan.extension)
        v1j, v2j = build_jamming(plan, h1e, h2e, rngs)
        u = build_zero_forcing(h1e, h2e, v1j, v2j, plan)
        v1l, v2l = build_legit(plan, v1j, v2j, rngs)
    except matlin.RaggedRank:
        for t, rng in enumerate(rngs):
            build_precoder_set(plan, h1[t:t + 1], h2[t:t + 1],
                               [rng.bit_generator.seed_seq])
        raise
    ps = PrecoderSet(v1l=v1l, v2l=v2l, v1j=v1j, v2j=v2j, u=u,
                     extension=plan.extension)
    verify_geometry(ps, h1e, h2e, plan)
    return ps


def build_unjammed_set(h1, h2):
    """Jamming-free precoder sets for channel stacks (negative control).

    Every transmit dimension carries a legitimate stream, the receiver
    applies no zero-forcing, and the geometry report passes trivially.
    """
    v1l, v2l, u = (np.tile(np.eye(k, dtype=complex), (len(h1), 1, 1))
                   for k in (h1.shape[-1], h2.shape[-1], h1.shape[-2]))
    ps = PrecoderSet(v1l=v1l, v2l=v2l, v1j=v1l[..., :0], v2j=v2l[..., :0],
                     u=u, extension=1)
    decode_rank = int(np.min(matlin.rank(np.concatenate([h1, h2], axis=-1),
                                         RANK_TOL)))
    ps.geometry = GeometryReport(0.0, 0.0, 0.0, decode_rank, decode_rank, True)
    ps.rx_images = (h1, h2)  # U (H_i V_i^L) with U, V_i^L identities
    return ps


def jamming_coverage_rank(ps, g1, g2):
    """Rank of the jamming image at an eavesdropper with channels ``g1, g2``.

    ``g1``/``g2`` hold per-slot blocks, as `sample_eves` draws them, one
    slot per symbol of the precoder extension.  For a stacked ``ps``
    the result holds one rank per trial.  For generic draws the rank
    equals the total number of jamming columns, i.e. the jamming
    overwhelms the eavesdropper's signal space.
    """
    image = np.concatenate([eve_image(g1, ps.v1j), eve_image(g2, ps.v2j)],
                           axis=-1)
    return matlin.rank(image, RANK_TOL)
