"""Closed-form secure-degrees-of-freedom theory, in exact rational arithmetic.

The sum SDoF of the canonical two-transmitter configuration
(``m1 >= m2``, ``M = m1 + m2``, ``ne < M``) takes one of three values:

==========  =======================================  ==========================
case group  value                                    condition
==========  =======================================  ==========================
C1          ``M - ne``                               ``M <= n``; or ``m1 < n``,
                                                     ``M > n``, ``ne >= 2(M-n)``;
                                                     or ``m1 > n``, ``m2 < n``,
                                                     ``ne >= m1 - n + 2 m2``
C2          ``(max(m1,n) + max(m2,n) - ne) / 2``     ``m1 < n``, ``ne < 2(M-n)``;
                                                     or ``m1 > n``, ``m2 < n``,
                                                     ``m1-n <= ne < m1-n+2 m2``;
                                                     or ``m1 > n``, ``m2 >= n``,
                                                     ``ne >= M - 2n``
C3          ``n``                                    ``ne < [m1-n]+ + [m2-n]+``
==========  =======================================  ==========================

and always matches the converse ``min(n, M - ne, (max(m1,n) +
max(m2,n) - ne)/2)``.  The strict-inequality boundaries ``m1 = n`` and
``m2 = n`` are folded into the ``m1 > n`` buckets with the nullspace
budget ``[m_i - n]+ = 0``; the grid test confirms the case formula
equals the min-expression everywhere.

The planner does not read the cases.  It counts real dimensions for
the cooperative-jamming scheme, two per antenna (the real and imaginary
parts that asymmetric complex signaling uses apart; see
:mod:`sdoflab.model`): each transmitter puts jamming into its channel
nullspace first, then into aligned pairs in the shared part of the
received signal spaces, then into random columns, and the streams take
the receiver dimensions the jamming leaves free.  An odd remaining
``ne`` asks for half a complex aligned pair, which is one whole pair of
real dimensions, so every count is an integer.  A plan is these counts
alone, in that fixed column order, with one aligned count for both
transmitters.  The streams it finds equal twice the closed form, which
:func:`verify_plan_arithmetic` checks.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction

from .model import canonical, is_degenerate


class DegenerateConfig(ValueError):
    """The eavesdropper can null the whole transmit space; SDoF is zero."""


class CaseId(enum.Enum):
    """The seven disjoint regions of the closed-form SDoF expression."""

    C1_MleN = "C1_MleN"
    C1_M1ltN_bigNE = "C1_M1ltN_bigNE"
    C1_M1gtN_M2ltN_bigNE = "C1_M1gtN_M2ltN_bigNE"
    C2_M1ltN = "C2_M1ltN"
    C2_M1gtN_M2ltN = "C2_M1gtN_M2ltN"
    C2_M1gtN_M2geN = "C2_M1gtN_M2geN"
    C3 = "C3"


_C1_CASES = {CaseId.C1_MleN, CaseId.C1_M1ltN_bigNE, CaseId.C1_M1gtN_M2ltN_bigNE}
_C2_CASES = {CaseId.C2_M1ltN, CaseId.C2_M1gtN_M2ltN, CaseId.C2_M1gtN_M2geN}


@dataclass(frozen=True)
class JammingPlan:
    """Dimension bookkeeping for one achievability construction.

    All counts are real dimensions, two per antenna.
    Transmitter ``i`` spends ``null[i-1]`` jamming columns in its
    channel nullspace, then ``aligned`` columns paired with the other
    transmitter's, then ``random[i-1]`` random columns, in that column
    order; ``d1``/``d2`` are the legitimate stream counts.
    """

    null: tuple
    aligned: int
    random: tuple
    d1: int
    d2: int

    @property
    def j_s(self):
        """Receiver dimensions taken by aligned pairs and random columns."""
        return self.aligned + sum(self.random)

    def jam_dims(self, tx):
        """Total jamming columns at transmitter ``tx`` (1 or 2)."""
        return self.null[tx - 1] + self.aligned + self.random[tx - 1]

    def total_jam_dims(self):
        return self.jam_dims(1) + self.jam_dims(2)


def _require_usable(cfg):
    cfg = canonical(cfg)
    if is_degenerate(cfg):
        raise DegenerateConfig(
            f"ne={cfg.ne} >= m1+m2={cfg.m}: secure DoF is zero")
    return cfg


def classify_case(cfg):
    """Map a configuration to its unique case region.

    Accepts any valid non-degenerate configuration; the transmitters are
    relabeled to canonical order (``m1 >= m2``) first.  Boundary
    configurations with ``m1 = n`` or ``m2 = n`` go to the buckets whose
    construction stays well defined with a zero nullspace count.
    """
    cfg = _require_usable(cfg)
    m1, m2, n, ne = cfg.m1, cfg.m2, cfg.n, cfg.ne
    m = cfg.m
    if m <= n:
        return CaseId.C1_MleN
    if m1 < n:
        if ne < 2 * (m - n):
            return CaseId.C2_M1ltN
        return CaseId.C1_M1ltN_bigNE
    if m2 < n:
        null1 = m1 - n
        if ne < null1:
            return CaseId.C3
        if ne < null1 + 2 * m2:
            return CaseId.C2_M1gtN_M2ltN
        return CaseId.C1_M1gtN_M2ltN_bigNE
    if ne < m - 2 * n:
        return CaseId.C3
    return CaseId.C2_M1gtN_M2geN


def sum_sdof(cfg):
    """Exact sum secure degrees of freedom as a :class:`Fraction`.

    The case group picks its converse term: the cooperative bound for
    C1, the Z-channel bound for C2, the receiver bound for C3.
    Degenerate configurations return 0.
    """
    cfg = canonical(cfg)
    if is_degenerate(cfg):
        return Fraction(0)
    case = classify_case(cfg)
    receiver, cooperative, z_channel = upper_bound_terms(cfg)
    if case in _C1_CASES:
        return cooperative
    if case in _C2_CASES:
        return z_channel
    return receiver


def upper_bound_terms(cfg):
    """The three converse bound terms, in order.

    Returns ``(n, m1 + m2 - ne, (max(m1,n) + max(m2,n) - ne)/2)``: the
    receiver-antenna bound, the cooperative (single-wiretap) bound, and
    the Z-channel bound.  The sum SDoF equals the minimum of the three
    for every non-degenerate configuration.
    """
    receiver = Fraction(cfg.n)
    cooperative = Fraction(cfg.m - cfg.ne)
    z_channel = Fraction(max(cfg.m1, cfg.n) + max(cfg.m2, cfg.n) - cfg.ne, 2)
    return receiver, cooperative, z_channel


def jamming_plan(cfg):
    """Jamming budgets and stream split of the achievability scheme.

    One count of real dimensions, read from ``(m1, m2, n, ne)`` alone;
    below, each antenna count stands for its two real dimensions:

    * Nullspace first: transmitter ``i`` hides ``null_i`` jamming
      columns in its channel nullspace, ``null1 = min(ne, [m1-n]+)``
      and ``null2 = min(ne - null1, [m2-n]+)``.  They cost the receiver
      nothing.  ``rem = ne - null1 - null2`` columns remain, an even
      number.
    * Aligned next: the two received signal spaces share
      ``shared = [min(m1,n) + min(m2,n) - n]+`` dimensions, and each
      aligned pair occupies one of them with two jamming columns.  The
      aligned count per transmitter is ``a = min(rem / 2, shared)``.
    * Random last: ``jr = rem - 2a`` columns, one receiver dimension
      each, filling transmitter 1 first.

    The jamming occupies ``j_s = a + jr`` receiver dimensions.  The
    streams take ``min(n - j_s, M - ne)`` dimensions, the receiver's
    jamming-free ones or the transmit ones the jamming left, whichever
    is fewer, split by "fill transmitter 1 first".
    """
    cfg = _require_usable(cfg)
    m1, m2, n, ne = 2 * cfg.m1, 2 * cfg.m2, 2 * cfg.n, 2 * cfg.ne
    null1 = min(ne, max(m1 - n, 0))
    null2 = min(ne - null1, max(m2 - n, 0))
    rem = ne - null1 - null2
    shared = max(min(m1, n) + min(m2, n) - n, 0)
    a = min(rem // 2, shared)
    jr = rem - 2 * a
    free1 = m1 - null1 - a
    r1 = min(free1, jr)
    d_total = min(n - a - jr, m1 + m2 - ne)
    d1 = min(free1 - r1, d_total)
    return JammingPlan((null1, null2), a, (r1, jr - r1), d1, d_total - d1)


def verify_plan_arithmetic(cfg, plan, ds):
    """Exact check of all plan invariants against ``ds = sum_sdof(cfg)``.

    True iff, in real dimensions: the jamming columns sum to ``2 ne``,
    the streams sum to ``2 ds``, each transmitter has antenna budget for
    its streams past the jamming, and the receiver keeps at least ``d1 +
    d2`` jamming-free dimensions (``2 n - j_s >= d1 + d2``).  The planner
    never reads the closed form, so this compares two independent counts.
    """
    cfg = canonical(cfg)
    if plan.total_jam_dims() != 2 * cfg.ne:
        return False
    if plan.d1 + plan.d2 != 2 * ds:
        return False
    if not 0 <= plan.d1 <= 2 * cfg.m1 - plan.jam_dims(1):
        return False
    if not 0 <= plan.d2 <= 2 * cfg.m2 - plan.jam_dims(2):
        return False
    if not 0 <= plan.j_s <= 2 * cfg.n:
        return False
    return 2 * cfg.n - plan.j_s >= plan.d1 + plan.d2
