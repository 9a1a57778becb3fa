"""Desk-scale wiretap codec: coset binning with exact equivocation.

A stochastic encoder hides a secret message by mapping it to a *bin* of
codewords and transmitting a uniformly chosen member of the bin.  The
in-bin randomness rate (total rate minus secret rate) is the cost of
secrecy: when it covers the eavesdropper's capacity, the eavesdropper's
observation pins down (at most) the in-bin index and reveals almost
nothing about the bin itself.

The codec here is deliberately small so that secrecy can be *measured*
instead of bounded: the main channel is noiseless (all codewords are
distinct) and the eavesdropper sees the codeword through a per-bit
erasure channel.  The bins are the cosets of a random linear code, the
wiretap-II construction of Ozarow and Wyner ("Wire-tap channel II",
BSTJ 1984).  A code is its generator: a full-rank binary ``G`` whose
first ``k_secret`` rows carry the message ``W`` and whose other rows
``G_r`` carry the in-bin randomness; the block length ``n`` is the
number of columns of ``G``.  An eavesdropper who sees the positions
``O`` then learns exactly ``rank(G_O) - rank(G_r,O)`` bits of ``W``,
which is ``k_secret - dim C(S) + dim C_r(S)`` with ``C(S)`` the
codewords supported inside the erased set ``S``.  One subset-sum
transform over the codeword supports counts both for all ``2^n``
patterns, so ``H(W | Z)`` is exact up to ``n = 16`` bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import is_integer

MAX_BLOCK_BITS = 16  # the one budget: block length n, 2^n erasure patterns


class CodeTooLarge(ValueError):
    """Requested codebook does not fit the block length or budget."""


@dataclass(frozen=True)
class EraseChannel:
    """Per-bit erasure channel with erasure probability ``delta``."""

    delta: float

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"erasure probability must be in [0, 1], "
                             f"got {self.delta}")


def _check_block_length(n):
    if not is_integer(n):
        raise ValueError(f"block length must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"block length must be at least 1, got {n}")
    if n > MAX_BLOCK_BITS:
        raise CodeTooLarge(f"block length {n} exceeds budget {MAX_BLOCK_BITS}")


def _check_seed(seed):
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"code seed must be a nonnegative integer, got {seed!r}")


def _integral_bits(n, rate, what):
    k = n * rate
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise ValueError(f"n * {what} = {k} is not an integer")
    return int(round(k))


def _code_bits(n, rate_total, rate_secret):
    """``(n * rate_total, n * rate_secret)`` as integers, once the sizes check out.

    Raises the errors :func:`build_code` documents.
    """
    _check_block_length(n)  # before the rate products: a huge n overflows them
    for name, rate in (("rate_total", rate_total),
                       ("rate_secret", rate_secret)):
        if rate < 0:
            raise ValueError(f"{name} must be nonnegative, got {rate}")
    k_total = _integral_bits(n, rate_total, "rate_total")
    k_secret = _integral_bits(n, rate_secret, "rate_secret")
    if k_secret > k_total:
        raise ValueError("rate_secret exceeds rate_total")
    if k_total > n:
        raise CodeTooLarge(
            f"2^{k_total} distinct codewords do not fit in {{0,1}}^{n}")
    return k_total, k_secret


def _row_rank(G):
    """Rank over GF(2) of the 0/1 matrix ``G``."""
    rows = np.asarray(G, dtype=np.int64)
    pivots = {}  # top bit -> the reduced row that has it
    for v in (rows @ (1 << np.arange(rows.shape[1]))).tolist():
        while v and (top := v.bit_length()) in pivots:
            v ^= pivots[top]
        if v:
            pivots[top] = v
    return len(pivots)


@dataclass(frozen=True)
class WiretapCode:
    """A coset code: its generator ``G`` and its message bits ``k_secret``.

    ``G`` is a full-rank ``(k_total, n)`` matrix over GF(2).  The
    codeword of message ``w`` and in-bin index ``v`` is ``[w | v] G``:
    rows ``0 .. k_secret - 1`` carry ``w``, the other rows ``G_r`` carry
    ``v``, and position ``j`` is column ``j``.  Full rank makes all
    codewords distinct, so the noiseless main channel decodes by exact
    lookup.  Raises ``ValueError`` unless ``G`` is a 2-D 0/1 matrix with
    at least one column and rows independent over GF(2) and ``k_secret``
    is an integer in ``[0, k_total]``, and :class:`CodeTooLarge` past
    ``MAX_BLOCK_BITS`` columns.
    """

    G: np.ndarray
    k_secret: int

    def __post_init__(self):
        G = np.asarray(self.G)
        if G.ndim != 2:
            raise ValueError(f"generator must be 2-D, got shape {G.shape}")
        _check_block_length(G.shape[1])
        if not ((G == 0) | (G == 1)).all():
            raise ValueError("generator entries must be 0 or 1")
        if _row_rank(G) < G.shape[0]:
            raise ValueError("generator rows are linearly dependent over GF(2)")
        if not (is_integer(self.k_secret) and 0 <= self.k_secret <= G.shape[0]):
            raise ValueError(f"k_secret must be an integer in [0, {G.shape[0]}], "
                             f"got {self.k_secret!r}")

    @property
    def n(self):  # block length
        return np.shape(self.G)[1]


def build_code(n, rate_total, rate_secret, seed):
    """Draw a random coset code, deterministic given ``seed``.

    The generator is a uniform ``(n * rate_total, n)`` binary matrix,
    redrawn until it has full row rank over GF(2); its first
    ``k_secret = n * rate_secret`` rows carry the message.  The bins
    are the ``2^k_secret`` cosets of the code spanned by the other rows.

    Raises
    ------
    CodeTooLarge
        If the codebook cannot be distinct (``rate_total > 1``) or the
        block length exceeds the budget ``MAX_BLOCK_BITS``.
    ValueError
        If ``n`` is not an integer (a bool is not one) or ``n < 1``, a
        rate is negative, ``n * rate`` is not an integer,
        ``rate_secret > rate_total``, or ``seed`` is not a nonnegative
        integer.
    """
    k_total, k_secret = _code_bits(n, rate_total, rate_secret)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    G = rng.integers(0, 2, size=(k_total, n), dtype=np.uint8)
    while _row_rank(G) < k_total:
        G = rng.integers(0, 2, size=(k_total, n), dtype=np.uint8)
    return WiretapCode(G, k_secret)


def _leaked_bits(G, k_secret):
    """``rank(G_O) - rank(G_r,O)`` for every set ``O`` of observed columns,
    indexed by its bitmask (bit ``j``: column ``j``).

    That is ``k_secret - dim C(S) + dim C_r(S)``, where ``C(S)`` holds
    the codewords supported inside the erased set ``S`` (the complement
    of ``O``), a subspace with ``2^dim C(S)`` words.  The codewords are
    listed as ``n``-bit masks, ``C_r`` first, and one subset-sum (zeta)
    transform of both lists' histograms counts ``C(S)`` and ``C_r(S)``
    for all ``S`` at once: it adds over the high half of the bits,
    transposes so that the low half is contiguous, and adds over that.
    The counts are powers of two, so ``frexp`` reads the dimensions exactly.
    """
    k_total, n = np.shape(G)
    rows = (np.asarray(G, dtype=np.intp) << np.arange(n)).sum(axis=1).tolist()
    words = np.zeros(1, dtype=np.intp)
    for row in rows[k_secret:] + rows[:k_secret]:  # C_r's rows first
        words = np.concatenate([words, words ^ row])
    listed = np.concatenate([words, (1 << n) + words[:1 << (k_total - k_secret)]])
    counts = np.bincount(listed, minlength=2 << n).astype(np.int32)  # C, C_r
    h = n // 2
    counts = counts.reshape(2, 1 << (n - h), 1 << h)  # [., high, low bits]
    for transpose in (True, False):
        for j in range(counts.shape[1].bit_length() - 1):
            pairs = counts.reshape(2, -1, 2, 1 << j, counts.shape[2])
            pairs[:, :, 1] += pairs[:, :, 0]  # S with bit j gains S without
        if transpose:
            counts = counts.transpose(0, 2, 1).copy()  # [., low, high bits]
    dims = np.frexp(counts[0] / counts[1])[1] - 1  # dim C(S) - dim C_r(S)
    # observed set O reads the erased set S = ~O: both halves reversed
    return (k_secret - dims).T[::-1, ::-1].astype(np.uint8, order="C").ravel()


def equivocation_exact(code, ch):
    """Exact ``H(W | Z)`` in bits over the erasure eavesdropper.

    ``W`` is the bin index (uniform), the transmitted codeword is
    uniform in its bin, and ``Z`` is the codeword with every bit erased
    independently with probability ``delta``.  Given the observed
    positions ``O``, ``Z`` is ``[w | v] G_O``, and the eavesdropper
    learns exactly ``rank(G_O) - rank(G_r,O)`` bits of ``W``: the
    posterior on ``W`` is uniform on a coset of that codimension.  So

        ``H(W | Z) = k_s - sum_k delta^k (1 - delta)^(n - k) L_k``,

    where ``L_k`` sums the leaked bits over the patterns with ``k``
    erasures (:func:`_leaked_bits`, from the codewords supported inside
    each erased set).  The ``L_k`` are exact integer sums, so the one
    float contraction does not depend on the pattern order.

    Exact at the endpoints: ``delta = 1`` gives ``n * rate_secret``
    and ``delta = 0`` gives ``0``.
    """
    n, delta, k_secret = code.n, ch.delta, code.k_secret
    leaked = _leaked_bits(code.G, k_secret)
    # erasure count of every pattern, in the same subset order
    erased = n - np.bitwise_count(np.arange(1 << n))
    # integer sums below 2^21, so exact in float64 in any order
    per_k = np.bincount(erased, weights=leaked, minlength=n + 1)
    pattern_weight = np.array(
        [delta ** k * (1.0 - delta) ** (n - k) for k in range(n + 1)])
    return k_secret - float(pattern_weight @ per_k)


def equivocation_table(n_list, delta, rate_total, rate_secret, seeds):
    """Exact equivocation of a fresh code per block length and code seed.

    Returns ``(n, rows, mean)`` per block length: ``rows`` holds
    ``(seed, h, h / k_secret)`` per seed and ``mean`` their seed average.
    ``h / k_secret`` and ``mean`` are ``None`` when there is no secret
    message (``rate_secret = 0``) or, for ``mean``, no seed.

    ``n_list`` and ``seeds`` may be any iterables; each is read once.
    Every block length is checked against the code sizes and the budget,
    and every seed against the seed rule, before any code is built, so a
    bad entry anywhere fails at once.
    """
    n_list, seeds = list(n_list), list(seeds)
    ch = EraseChannel(delta)
    secret_bits = [_code_bits(n, rate_total, rate_secret)[1] for n in n_list]
    for s in seeds:
        _check_seed(s)
    table = []
    for n, bits in zip(n_list, secret_bits):
        rows = []
        for s in seeds:
            h = equivocation_exact(build_code(n, rate_total, rate_secret, s), ch)
            rows.append((s, h, h / bits if bits else None))
        mean = None
        if rows and rows[0][2] is not None:
            mean = (sum(h for _, h, _ in rows) / len(rows),
                    sum(x for _, _, x in rows) / len(rows))
        table.append((n, rows, mean))
    return table
