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

The planner does not read the cases.  It counts dimensions for the
cooperative-jamming scheme: each transmitter puts jamming into its
channel nullspace first, then into aligned pairs in the shared part of
the received signal spaces, then into random columns, and the streams
take the receiver dimensions the jamming leaves free.  A half aligned
pair (odd remaining ``ne``) is made whole by a two-symbol time
extension, so every count is an integer per extended block.  The
streams it finds equal the closed form times the extension, which
:func:`verify_plan_arithmetic` checks.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction

from .model import canonical, is_degenerate, validate

RANDOM = "random"
ALIGNED = "aligned"
NULLSPACE = "nullspace"

_METHODS = (RANDOM, ALIGNED, NULLSPACE)


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
class JammingPart:
    """One block of jamming columns: a method and a column count per extended block."""

    method: str
    dims: int

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown jamming method {self.method!r}")
        if self.dims < 0:
            raise ValueError("jamming dimensions must be nonnegative")


@dataclass(frozen=True)
class JammingPlan:
    """Dimension bookkeeping for one achievability construction.

    All counts are per extended block of ``extension`` channel uses:
    ``tx1_parts``/``tx2_parts`` list the jamming columns each
    transmitter spends, ``j_s`` is the number of receiver dimensions the
    jamming occupies after alignment, and ``d1``/``d2`` are the
    legitimate stream counts.
    """

    extension: int
    tx1_parts: tuple
    tx2_parts: tuple
    j_s: int
    d1: int
    d2: int

    def jam_dims(self, tx):
        """Total jamming columns at transmitter ``tx`` (1 or 2)."""
        parts = self.tx1_parts if tx == 1 else self.tx2_parts
        return sum(p.dims for p in parts)

    def total_jam_dims(self):
        return self.jam_dims(1) + self.jam_dims(2)

    def aligned_dims(self, tx):
        parts = self.tx1_parts if tx == 1 else self.tx2_parts
        return sum(p.dims for p in parts if p.method == ALIGNED)


def _require_usable(cfg):
    cfg = canonical(cfg)
    if validate(cfg) == "degenerate":
        raise DegenerateConfig(
            f"ne={cfg.ne} >= m1+m2={cfg.m}: secure DoF is zero")
    return cfg


def classify_case(cfg):
    """Map a configuration to its unique case region.

    Accepts any valid non-degenerate configuration; the transmitters are
    relabeled to canonical order (``m1 >= m2``) first.  Boundary
    configurations with ``m1 = n`` or ``m2 = n`` go to the buckets whose
    construction stays well defined with a zero-size nullspace part.
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

    Degenerate configurations return 0.
    """
    cfg = canonical(cfg)
    if is_degenerate(cfg):
        return Fraction(0)
    case = classify_case(cfg)
    if case in _C1_CASES:
        return Fraction(cfg.m - cfg.ne)
    if case in _C2_CASES:
        return Fraction(max(cfg.m1, cfg.n) + max(cfg.m2, cfg.n) - cfg.ne, 2)
    return Fraction(cfg.n)


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


def _parts(*pairs):
    """Build a part tuple, dropping zero-dimension entries."""
    return tuple(JammingPart(method, dims) for method, dims in pairs if dims > 0)


def jamming_plan(cfg):
    """Jamming budgets and stream split of the achievability scheme.

    One dimension count, read from ``(m1, m2, n, ne)`` alone:

    * Nullspace first: transmitter ``i`` hides ``null_i`` jamming
      columns in its channel nullspace, ``null1 = min(ne, [m1-n]+)``
      and ``null2 = min(ne - null1, [m2-n]+)``.  They cost the receiver
      nothing.  ``rem = ne - null1 - null2`` columns remain.
    * Aligned next: the two received signal spaces share
      ``shared = [min(m1,n) + min(m2,n) - n]+`` dimensions, and each
      aligned pair occupies one of them with two jamming columns.  An
      odd ``rem`` below ``2 shared`` asks for a half pair, which the
      two-symbol extension (``extension = 2``) makes whole.  The aligned
      count per transmitter is ``a = min(ext rem / 2, ext shared)``.
    * Random last: ``jr = ext rem - 2a`` columns, one receiver
      dimension each, filling transmitter 1 first.

    The jamming occupies ``j_s = a + jr`` receiver dimensions.  The
    streams take ``min(ext n - j_s, ext (M - ne))`` dimensions, the
    receiver's jamming-free ones or the transmit ones the jamming left,
    whichever is fewer, split by "fill transmitter 1 first".  All counts
    are per extended block, and the parts of each transmitter are listed
    nullspace, aligned, random.
    """
    cfg = _require_usable(cfg)
    m1, m2, n, ne = cfg.m1, cfg.m2, cfg.n, cfg.ne
    null1 = min(ne, max(m1 - n, 0))
    null2 = min(ne - null1, max(m2 - n, 0))
    rem = ne - null1 - null2
    shared = max(min(m1, n) + min(m2, n) - n, 0)
    ext = 2 if rem % 2 and rem < 2 * shared else 1
    a = min(ext * rem // 2, ext * shared)
    jr = ext * rem - 2 * a
    free1 = ext * (m1 - null1) - a
    r1 = min(free1, jr)
    tx1 = _parts((NULLSPACE, ext * null1), (ALIGNED, a), (RANDOM, r1))
    tx2 = _parts((NULLSPACE, ext * null2), (ALIGNED, a), (RANDOM, jr - r1))
    j_s = a + jr
    d_total = min(ext * n - j_s, ext * (cfg.m - ne))
    d1 = min(free1 - r1, d_total)
    return JammingPlan(ext, tx1, tx2, j_s, d1, d_total - d1)


def verify_plan_arithmetic(cfg, plan):
    """Exact check of all plan invariants against the closed form.

    True iff, per extended block: the jamming columns sum to
    ``extension * ne``, the streams sum to ``extension * sum_sdof(cfg)``,
    each transmitter has antenna budget for its streams past the
    jamming, and the receiver keeps at least ``d1 + d2`` jamming-free
    dimensions (``extension * n - j_s >= d1 + d2``).  The planner never
    reads the closed form, so this compares two independent counts.
    """
    cfg = canonical(cfg)
    ext = plan.extension
    if plan.total_jam_dims() != ext * cfg.ne:
        return False
    if Fraction(plan.d1 + plan.d2) != Fraction(ext) * sum_sdof(cfg):
        return False
    if not 0 <= plan.d1 <= ext * cfg.m1 - plan.jam_dims(1):
        return False
    if not 0 <= plan.d2 <= ext * cfg.m2 - plan.jam_dims(2):
        return False
    if not 0 <= plan.j_s <= ext * cfg.n:
        return False
    return ext * cfg.n - plan.j_s >= plan.d1 + plan.d2
