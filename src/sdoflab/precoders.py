"""Jamming precoders, legitimate precoders, and zero-forcing reception.

Given a jamming plan and a stack of channel realizations, one per
trial, this module synthesizes for every trial:

* jamming precoders ``v1j``/``v2j`` whose columns are, at the plan's
  counts, nullspace columns of the channel, then aligned pairs
  ``(x, y)`` with ``H1 x = H2 y`` from one null space over the two
  channels' row spaces, then random (Gaussian, orthonormalized) columns;
* a receiver matrix ``u`` whose orthonormal rows span the orthogonal
  complement of the jamming images that reach the receiver (zero-forcing);
* legitimate precoders ``v1l``/``v2l`` with orthonormal columns taken
  from the orthogonal complement of each transmitter's jamming columns.

Everything is real: the channels are the real forms ``R(H)`` that
`sdoflab.model` samples, and every precoder and random draw is real, so
a column sends improper (asymmetric complex) signals and the plan's
counts are real dimensions.  Aligned pairs are drawn generically from
their null space (a seeded orthogonal mix): LAPACK returns that null
space in an arbitrary basis, and the mix makes the choice inside it a
generic one rather than LAPACK's.  Keeping them in the row spaces keeps
them free of channel-nullspace components, which the receiver never
sees but an eavesdropper would.  `secure_dof_certificate` counts, from
ranks alone, the secure DoF that a built set achieves against given
eavesdroppers.

Every subspace is one `sdoflab.matlin` call per ``(trials, rows,
cols)`` stack; a single trial is a stack of one, drawing from its own
generator, made from its seed in `build_precoder_set`.  One relative
tolerance, ``GEOMETRY_TOL``, holds every residual, and every numerical
rank is `sdoflab.matlin`'s.  `verify_geometry` writes one report per
stack and keeps the receiver images ``U H_i V_i^L`` that the rate engine
reads.  `build_precoder_set` returns a set whose report passed, or
raises :class:`GeometryError`, the one error of a failed report, a plan
the channels do not fit, or a stack whose ranks differ.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import matlin
from .matlin import complement, frobenius, nullspace, orthonormal_basis
from .model import gaussian

GEOMETRY_TOL = 1e-8  # every residual of a geometry report, relative


class GeometryError(RuntimeError):
    """A precoder build failed its geometry or its plan's dimensions; the
    text names the failed checks."""


@dataclass(frozen=True)
class GeometryReport:
    """Measured residuals of one precoder construction."""

    alignment_residual: float
    nullspace_residual: float
    zf_residual: float
    decode_rank: int
    expected_rank: int

    @property
    def passed(self):
        return not self.failures()

    def failures(self):
        """One line per failed check: its worst residual against the
        tolerance, or the decode rank against the expected rank."""
        lines = [f"{name} {value:.3g} exceeds tolerance {GEOMETRY_TOL:g}"
                 for name, value in (
                     ("alignment_residual", self.alignment_residual),
                     ("nullspace_residual", self.nullspace_residual),
                     ("zf_residual", self.zf_residual))
                 if not value <= GEOMETRY_TOL]
        if self.decode_rank != self.expected_rank:
            lines.append(f"decode_rank {self.decode_rank} != expected rank "
                         f"{self.expected_rank}")
        return lines


@dataclass
class PrecoderSet:
    """Legitimate precoders, jamming precoders, and the receiver matrix.

    Each field stacks one real matrix per trial.  Shapes: ``v_il`` is
    ``(2 m_i, d_i)`` with orthonormal columns orthogonal to ``v_ij``;
    ``v_ij`` is ``(2 m_i, jam_i)`` with unit-norm columns; ``u`` is
    ``(2 n - j_s, 2 n)`` with orthonormal rows.
    :func:`verify_geometry` sets ``geometry``, one report for the stack,
    and the receiver images ``rx_images`` = ``U H_i V_i^L``; a jamming-free
    control set has no report.
    """

    v1l: np.ndarray
    v2l: np.ndarray
    v1j: np.ndarray
    v2j: np.ndarray
    u: np.ndarray
    geometry: GeometryReport | None = field(default=None, compare=False)
    rx_images: tuple | None = field(default=None, compare=False)


def _random_unitary(k, rngs):
    """Haar random orthogonal matrices, one per generator, via QR of Gaussians."""
    q, r = np.linalg.qr(gaussian(rngs, (k, k))[0])
    return q * np.sign(r.diagonal(axis1=-2, axis2=-1))[..., None, :]


def _column_norms(v):
    """Column norms, by ``np.linalg.norm(v, axis=-2)``'s arithmetic."""
    return np.sqrt(np.add.reduce(v * v, axis=-2))


def _normalize_columns(v):
    return v / _column_norms(v)[..., None, :]


def _aligned_pairs(a, h1, h2, rngs):
    """``a`` aligned jamming columns per transmitter, as the pair ``(x, y)``.

    With ``R_i`` orthonormal bases of the row spaces of ``h_i``, each
    null vector ``(c1; c2)`` of ``[h1 R1 | -h2 R2]`` gives
    ``x = R1 c1``, ``y = R2 c2`` with ``h1 x = h2 y`` exactly.  A
    seeded orthogonal matrix mixes the null vectors generically.  With
    ``a = 0`` nothing is computed or drawn.
    """
    if a == 0:
        return tuple(np.zeros((len(rngs), h.shape[-1], 0)) for h in (h1, h2))
    r1 = orthonormal_basis(h1.mT)
    r2 = orthonormal_basis(h2.mT)
    k = r1.shape[-1]
    c = nullspace(np.concatenate([h1 @ r1, -(h2 @ r2)], axis=-1))
    if c.shape[-1] < a:
        raise GeometryError(
            f"received signal spaces share {c.shape[-1]} dimensions, "
            f"need {a}")
    pairs = np.concatenate([r1 @ c[..., :k, :], r2 @ c[..., k:, :]], axis=-2)
    pairs = pairs @ _random_unitary(c.shape[-1], rngs)[..., :a]
    return pairs[..., :h1.shape[-1], :], pairs[..., h1.shape[-1]:, :]


def build_jamming(plan, h1, h2, rngs):
    """Jamming precoders ``(v1j, v2j)`` for a plan on a stack of channels.

    ``h1``/``h2`` are the real channel stacks ``(trials, rows, cols)``,
    and ``rngs`` holds one generator per trial.
    Each transmitter's columns are its ``null`` nullspace columns, which
    the receiver does not see, then its ``aligned`` columns, then its
    ``random`` generic columns, each normalized to unit norm.  The
    aligned columns of both transmitters come from one null space over
    the two channels' row spaces (`_aligned_pairs`), so they map to the
    same receiver subspace.

    Raises
    ------
    GeometryError
        When the received signal spaces share fewer dimensions than the
        aligned budget, or a channel nullspace than the plan's columns.
    """
    pairs = _aligned_pairs(plan.aligned, h1, h2, rngs)
    out = []
    for h, null, aligned, random in zip((h1, h2), plan.null, pairs,
                                         plan.random):
        cols = []
        if null:
            ns = nullspace(h)
            if ns.shape[-1] < null:
                raise GeometryError(
                    f"channel nullspace has dimension {ns.shape[-1]}, "
                    f"plan wants {null}")
            cols.append((ns @ _random_unitary(ns.shape[-1], rngs))[..., :null])
        cols.append(aligned)
        if random:
            q, _ = np.linalg.qr(gaussian(rngs, (h.shape[-1], random))[0])
            cols.append(q)
        out.append(_normalize_columns(np.concatenate(cols, axis=-1)))
    return out[0], out[1]


def build_zero_forcing(h1, h2, v1j, v2j, plan):
    """Receiver zero-forcing matrices for the given jamming precoders.

    ``h1``/``h2`` are the real channel stacks.  The rows form an
    orthonormal basis of the orthogonal complement of the received
    jamming space, so ``u @ (H_i v_ij) = 0``.
    It is factored from the images that reach the receiver, ``[H1
    v1j[n1:] | H2 v2j[n2 + a:]]``: transmitter 1's aligned and random
    columns and transmitter 2's random ones.  Nullspace images are zero
    up to roundoff and transmitter 2's aligned images repeat
    transmitter 1's, so without them `sdoflab.matlin`'s relative rank
    rule counts the occupied dimensions.  With no jamming at the
    receiver the result is a full square orthogonal matrix.

    Raises
    ------
    GeometryError
        When the received jamming space of a trial does not have
        dimension ``plan.j_s``.
    """
    (n1, n2), a = plan.null, plan.aligned
    image = np.concatenate([h1 @ v1j[..., n1:], h2 @ v2j[..., n2 + a:]],
                           axis=-1)
    u = complement(image).mT
    if u.shape[-2] != image.shape[-2] - plan.j_s:
        raise GeometryError(
            f"received jamming space has dimension "
            f"{image.shape[-2] - u.shape[-2]}, plan says {plan.j_s}")
    return u


def build_legit(plan, v1j, v2j, rngs):
    """Legitimate precoders ``(v1l, v2l)``, stacked like the jamming.

    Each is ``d_i`` orthonormal columns of a generically rotated
    orthonormal basis of the orthogonal complement of the transmitter's
    jamming columns, so legitimate streams never leak power into the
    jamming directions.  ``rngs`` holds one generator per trial.
    """
    out = []
    for vj, d in ((v1j, plan.d1), (v2j, plan.d2)):
        comp = complement(vj)
        if comp.shape[-1] < d:
            raise GeometryError(
                f"complement of the jamming span has dimension "
                f"{comp.shape[-1]}, plan wants {d} streams")
        mixed = comp @ _random_unitary(comp.shape[-1], rngs)
        out.append(mixed[..., :d])
    return out[0], out[1]


def verify_geometry(ps, h1, h2, plan):
    """Measure the construction residuals and attach a report to ``ps``.

    ``h1``/``h2`` are the real channel stacks.  Residuals are the worst
    over the trials:

    * alignment: per-column difference of the unit-normalized jamming
      images of the two transmitters' aligned columns, which follow
      their ``null`` nullspace columns;
    * nullspace: ``||H_i v|| / ||H_i||`` over nullspace columns;
    * zero-forcing: ``||u (H_i v_ij)|| / ||H_i||``;
    * decodability: rank of ``u [H1 v1l | H2 v2l]`` versus ``d1 + d2``,
      the smallest over the trials.

    The report passes when the residuals are within ``GEOMETRY_TOL`` and
    the rank matches.  The images ``u (H_i v_il)`` go to ``ps.rx_images``.
    """
    (n1, n2), a = plan.null, plan.aligned
    jam = (h1 @ ps.v1j, h2 @ ps.v2j)  # the jamming images H_i V_i^J
    norms = (frobenius(h1), frobenius(h2))

    align_res = 0.0
    if a:
        img1 = _normalize_columns(jam[0][..., n1:n1 + a])
        img2 = _normalize_columns(jam[1][..., n2:n2 + a])
        align_res = float(_column_norms(img1 - img2).max())

    null_res = zf_res = 0.0
    for img, norm, null in zip(jam, norms, (n1, n2)):
        if null:
            null_res = max(null_res,
                           float((frobenius(img[..., :null]) / norm).max()))
        if img.shape[-1]:
            zf_res = max(zf_res, float((frobenius(ps.u @ img) / norm).max()))

    images = (ps.u @ (h1 @ ps.v1l), ps.u @ (h2 @ ps.v2l))
    decode_rank = int(np.min(matlin.rank(np.concatenate(images, axis=-1))))
    ps.geometry = GeometryReport(align_res, null_res, zf_res, decode_rank,
                                 plan.d1 + plan.d2)
    ps.rx_images = images
    return ps.geometry


def build_precoder_set(plan, h1, h2, seeds):
    """Build jamming, zero-forcing and legitimate precoders, then verify.

    ``h1``/``h2`` are ``(trials, 2 n, 2 m_i)`` real channel stacks, as
    `sdoflab.model.sample_channels` draws them, and ``seeds`` holds one
    seed or generator per trial, so trial ``t``'s set equals its own
    build as a stack of one.  The set returned has a passing geometry
    report; a failed one raises :class:`GeometryError` with the report's
    failures as text.
    Trials whose dimensions differ fail the stack with the error of the
    first trial whose own build fails (rebuilt from its seed), else with
    a :class:`GeometryError` whose cause is the
    :class:`~sdoflab.matlin.RaggedRank`.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    try:
        v1j, v2j = build_jamming(plan, h1, h2, rngs)
        u = build_zero_forcing(h1, h2, v1j, v2j, plan)
        v1l, v2l = build_legit(plan, v1j, v2j, rngs)
    except matlin.RaggedRank as exc:
        for t, rng in enumerate(rngs):
            build_precoder_set(plan, h1[t:t + 1], h2[t:t + 1],
                               [rng.bit_generator.seed_seq])
        raise GeometryError(str(exc)) from exc
    ps = PrecoderSet(v1l=v1l, v2l=v2l, v1j=v1j, v2j=v2j, u=u)
    failures = verify_geometry(ps, h1, h2, plan).failures()
    if failures:
        raise GeometryError("; ".join(failures))
    return ps


def build_unjammed_set(h1, h2):
    """Jamming-free precoder sets for channel stacks (negative control).

    Every transmit dimension carries a legitimate stream and the
    receiver applies no zero-forcing, so ``geometry`` stays None.
    """
    v1l, v2l, u = (np.tile(np.eye(k), (len(h1), 1, 1))
                   for k in (h1.shape[-1], h2.shape[-1], h1.shape[-2]))
    # rx_images are U (H_i V_i^L) with U, V_i^L identities
    return PrecoderSet(v1l=v1l, v2l=v2l, v1j=v1l[..., :0], v2j=v2l[..., :0],
                       u=u, rx_images=(h1, h2))


def secure_dof_certificate(ps, eves):
    """The secure DoF that the ranks of a built set certify, as a Fraction.

    ``eves`` holds eavesdropper pairs ``(g1, g2)``, stacked like ``ps``
    as `sdoflab.model.sample_eves` draws them.  Per trial the receiver
    decodes ``rank(U [H1 V1L | H2 V2L])`` real streams, and eavesdropper
    ``j``, treating the jamming as noise, resolves ``rank(G_j [VL | VJ])
    - rank(G_j VJ)`` of them at high power, both against ``||G_j||``, so
    a ``G_j`` blind to the jamming leaks ``rank(G_j VL)``.  The result is
    the worst trial's decoded minus worst leaked count, halved: two real
    dimensions make one complex degree of freedom.
    """
    decoded = matlin.rank(np.concatenate(ps.rx_images, axis=-1))
    leaked = np.zeros_like(decoded)
    for g1, g2 in eves:
        scale = frobenius(np.concatenate([g1, g2], axis=-1))
        jam = np.concatenate([g1 @ ps.v1j, g2 @ ps.v2j], axis=-1)
        seen = np.concatenate([g1 @ ps.v1l, g2 @ ps.v2l, jam], axis=-1)
        leaked = np.maximum(leaked, matlin.rank(seen, scale)
                            - matlin.rank(jam, scale))
    return Fraction(int(np.min(decoded - leaked)), 2)
