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

The planner turns each case into jamming budgets per transmitter
(random / aligned / nullspace columns), the number of receiver
dimensions the jamming occupies, and the legitimate stream split.  A
half-integer aligned share (odd effective ``ne``) is realized by a
two-symbol time extension, so every recorded dimension is an integer
per extended block and all bookkeeping stays exact.
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
    return _case_sdof(cfg, classify_case(cfg))


def _case_sdof(cfg, case):
    """The closed form of canonical ``cfg`` in its case region ``case``."""
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
    """Jamming budgets and stream split realizing the SDoF of ``cfg``.

    The construction follows the case region:

    * ``M <= n``: random jamming only, filling transmitter 1 first.
    * ``m1 < n``, large ``ne``: both align ``M - n`` columns into the
      intersection of the received signal spaces; the remaining
      ``ne - 2(M-n)`` random columns go wherever antenna budget remains.
    * ``m1 < n``, small ``ne``: aligned jamming alone, ``ne/2`` columns
      each; an odd ``ne`` triggers the two-symbol extension.
    * ``m1 >= n > m2``: the nullspace of the first channel absorbs
      ``[m1-n]+`` columns; the remainder is aligned (and, past the
      aligned capacity of transmitter 2, random).
    * ``m1, m2 >= n``: both transmitters jam their channel nullspaces
      and align the remainder.
    * C3: nullspace jamming alone; the receiver keeps all ``n``
      dimensions jamming free.

    Stream counts satisfy ``d1 + d2 = extension * sum_sdof(cfg)`` with
    the deterministic split rule "fill transmitter 1 first".
    """
    cfg = _require_usable(cfg)
    m1, m2, n, ne = cfg.m1, cfg.m2, cfg.n, cfg.ne
    m = cfg.m
    case = classify_case(cfg)

    if case is CaseId.C1_MleN:
        ext = 1
        r1 = min(m1, ne)
        tx1 = _parts((RANDOM, r1))
        tx2 = _parts((RANDOM, ne - r1))
        j_s = ne
    elif case is CaseId.C1_M1ltN_bigNE:
        ext = 1
        ja = m - n
        jr = ne - 2 * ja
        r1 = min(m1 - ja, jr)
        tx1 = _parts((ALIGNED, ja), (RANDOM, r1))
        tx2 = _parts((ALIGNED, ja), (RANDOM, jr - r1))
        j_s = ja + jr
    elif case is CaseId.C2_M1ltN:
        ext = 1 if ne % 2 == 0 else 2
        a = ext * ne // 2
        tx1 = _parts((ALIGNED, a))
        tx2 = _parts((ALIGNED, a))
        j_s = a
    elif case is CaseId.C2_M1gtN_M2ltN:
        null1 = m1 - n
        rem = ne - null1
        ext = 1 if rem % 2 == 0 else 2
        a = ext * rem // 2
        tx1 = _parts((NULLSPACE, ext * null1), (ALIGNED, a))
        tx2 = _parts((ALIGNED, a))
        j_s = a
    elif case is CaseId.C1_M1gtN_M2ltN_bigNE:
        ext = 1
        null1 = m1 - n
        ja = m2
        jr = ne - null1 - 2 * ja
        tx1 = _parts((NULLSPACE, null1), (ALIGNED, ja), (RANDOM, jr))
        tx2 = _parts((ALIGNED, ja))
        j_s = ja + jr
    elif case is CaseId.C2_M1gtN_M2geN:
        null1, null2 = m1 - n, m2 - n
        rem = ne - null1 - null2
        ext = 1 if rem % 2 == 0 else 2
        a = ext * rem // 2
        tx1 = _parts((NULLSPACE, ext * null1), (ALIGNED, a))
        tx2 = _parts((NULLSPACE, ext * null2), (ALIGNED, a))
        j_s = a
    else:  # C3: nullspace jamming alone
        ext = 1
        n1 = min(ne, m1 - n)
        tx1 = _parts((NULLSPACE, n1))
        tx2 = _parts((NULLSPACE, ne - n1))
        j_s = 0

    d_frac = Fraction(ext) * _case_sdof(cfg, case)
    if d_frac.denominator != 1:
        raise RuntimeError(f"extension {ext} does not clear the half-integer "
                           f"stream count for {cfg}")
    d_total = int(d_frac)
    jam1 = sum(p.dims for p in tx1)
    jam2 = sum(p.dims for p in tx2)
    d1 = min(ext * m1 - jam1, d_total)
    d2 = d_total - d1
    if not 0 <= d2 <= ext * m2 - jam2:
        raise RuntimeError(f"stream split infeasible for {cfg}: "
                           f"d1={d1}, d2={d2}")
    return JammingPlan(ext, tx1, tx2, j_s, d1, d2)


def verify_plan_arithmetic(cfg, plan, sdof=None):
    """Exact check of all plan invariants against the closed form.

    True iff, per extended block: the jamming columns sum to
    ``extension * ne``, the streams sum to ``extension * sum_sdof(cfg)``,
    each transmitter has antenna budget for its streams past the
    jamming, and the receiver keeps at least ``d1 + d2`` jamming-free
    dimensions (``extension * n - j_s >= d1 + d2``).  A caller that
    already holds ``sum_sdof(cfg)`` passes it as ``sdof``.
    """
    cfg = canonical(cfg)
    ext = plan.extension
    if sdof is None:
        sdof = sum_sdof(cfg)
    if plan.total_jam_dims() != ext * cfg.ne:
        return False
    if Fraction(plan.d1 + plan.d2) != Fraction(ext) * sdof:
        return False
    if not 0 <= plan.d1 <= ext * cfg.m1 - plan.jam_dims(1):
        return False
    if not 0 <= plan.d2 <= ext * cfg.m2 - plan.jam_dims(2):
        return False
    if not 0 <= plan.j_s <= ext * cfg.n:
        return False
    return ext * cfg.n - plan.j_s >= plan.d1 + plan.d2
