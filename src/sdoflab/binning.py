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
BSTJ 1984): a full-rank binary generator ``G`` whose first rows carry
the message ``W`` and whose other rows ``G_r`` carry the in-bin
randomness.  An eavesdropper who sees the positions ``O`` then learns
exactly ``rank(G_O) - rank(G_r,O)`` bits of ``W``, so the equivocation
``H(W | Z)`` is exact from two GF(2) ranks per erasure pattern,
marginalized over all ``2^n`` patterns, with no codebook enumeration.
That is feasible up to ``n = 16`` bits.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _integral_bits(n, rate, what):
    k = n * rate
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise ValueError(f"n * {what} = {k} is not an integer")
    return int(round(k))


def _code_bits(n, rate_total, rate_secret):
    """``(n * rate_total, n * rate_secret)`` as integers, once the sizes check out.

    Raises the errors :func:`build_code` documents.
    """
    if n < 1:
        raise ValueError(f"block length must be at least 1, got {n}")
    for name, rate in (("rate_total", rate_total),
                       ("rate_secret", rate_secret)):
        if rate < 0:
            raise ValueError(f"{name} must be nonnegative, got {rate}")
    # Before the rate products: a huge int n overflows a float product.
    if n > MAX_BLOCK_BITS:
        raise CodeTooLarge(f"block length {n} exceeds budget {MAX_BLOCK_BITS}")
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
    for v in (rows << np.arange(rows.shape[1])).sum(axis=1).tolist():
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


@dataclass(frozen=True)
class WiretapCode:
    """A coset code ``C(rate_total, rate_secret, n)`` given by its generator.

    ``G`` is a full-rank ``(n * rate_total, n)`` matrix over GF(2).  The
    codeword of message ``w`` and in-bin index ``v`` is ``[w | v] G``:
    rows ``0 .. k_secret - 1`` carry ``w``, the other rows ``G_r`` carry
    ``v``, and position ``j`` is column ``j``.  Full rank makes all
    codewords distinct, so the noiseless main channel decodes by exact
    lookup.  Raises ``ValueError`` on bad sizes (as :func:`build_code`)
    or a generator of the wrong shape, with an entry other than 0 and 1,
    or of deficient rank.
    """

    n: int
    rate_total: float
    rate_secret: float
    G: np.ndarray

    def __post_init__(self):
        k_total, _ = _code_bits(self.n, self.rate_total, self.rate_secret)
        shape = np.shape(self.G)
        if shape != (k_total, self.n):
            raise ValueError(f"generator must have shape ({k_total}, {self.n}), "
                             f"got {shape}")
        if not np.isin(self.G, (0, 1)).all():
            raise ValueError("generator entries must be 0 or 1")
        if _row_rank(self.G) < k_total:
            raise ValueError("generator rows are linearly dependent over GF(2)")

    @property
    def k_secret(self):
        """Message bits ``n * rate_secret``: the rows of ``G`` that carry ``W``."""
        return _code_bits(self.n, self.rate_total, self.rate_secret)[1]


def build_code(n, rate_total, rate_secret, seed):
    """Draw a random coset code, deterministic given ``seed``.

    The generator is a uniform ``(n * rate_total, n)`` binary matrix,
    redrawn until it has full row rank over GF(2); its first
    ``n * rate_secret`` rows carry the message.  The bins are the
    ``2^{n * rate_secret}`` cosets of the code spanned by the other rows.

    Raises
    ------
    CodeTooLarge
        If the codebook cannot be distinct (``rate_total > 1``) or the
        block length exceeds the budget ``MAX_BLOCK_BITS``.
    ValueError
        If ``n < 1``, a rate is negative, ``n * rate`` is not an integer
        or ``rate_secret > rate_total``.
    """
    k_total, _ = _code_bits(n, rate_total, rate_secret)
    rng = np.random.default_rng(seed)
    while True:
        G = rng.integers(0, 2, size=(k_total, n), dtype=np.uint8)
        if _row_rank(G) == k_total:
            return WiretapCode(n=n, rate_total=float(rate_total),
                               rate_secret=float(rate_secret), G=G)


def _leaked_bits(G, k_secret):
    """``rank(G_O) - rank(G_r,O)`` for every set ``O`` of observed columns,
    indexed by its bitmask (bit ``j``: column ``j``).

    Row ``i`` of ``G`` is bit ``i`` of each column's ``uint32`` mask.  The
    subsets grow one column at a time: subset ``s`` keeps an XOR basis
    of its columns in echelon form, ``basis[p, s]`` being the vector with
    top bit ``p`` (0 if none), and column ``j`` is reduced against the
    bases of all ``2^j`` subsets without it at once.  It adds 1 to
    ``rank(G_O)`` unless it reduces to 0, and to ``rank(G_r,O)`` too
    unless its top bit is a message row: the difference counts the
    pivots below ``k_secret``, which span the observed combinations
    free of ``G_r``.
    """
    k_total, n = np.shape(G)
    shifts = np.arange(k_total, dtype=np.uint32)[:, None]
    columns = np.bitwise_or.reduce(np.asarray(G, dtype=np.uint32) << shifts,
                                   axis=0)
    leaked = np.zeros(1 << n, dtype=np.uint8)
    basis = np.zeros((k_total, 1 << (n - 1)), dtype=np.uint32)
    for j, column in enumerate(columns):
        size = 1 << j  # subsets of columns 0 .. j - 1
        v = np.full(size, column, dtype=np.uint32)
        for p in range(k_total - 1, -1, -1):
            v ^= basis[p, :size] * ((v >> p) & 1)
        top = np.frexp(v)[1] - 1  # -1 where v reduced to 0
        leaked[size:2 * size] = leaked[:size] + ((top >= 0) & (top < k_secret))
        if j + 1 < n:  # the last column's subsets need no basis
            basis[:, size:2 * size] = basis[:, :size]
            new = np.flatnonzero(v)
            basis[top[new], size + new] = v[new]
    return leaked


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
    erasures (:func:`_leaked_bits`, every pattern's ranks from one
    DP over the ``2^n`` column subsets).  The ``L_k`` are exact integer
    sums, so the one float contraction does not depend on the order in
    which patterns are visited.

    Exact at the endpoints: ``delta = 1`` gives ``n * rate_secret``
    and ``delta = 0`` gives ``0``.
    """
    n, delta, k_secret = code.n, ch.delta, code.k_secret
    leaked = _leaked_bits(code.G, k_secret)
    # erasure count of every pattern, in the same subset order
    erased = np.empty(1 << n, dtype=np.intp)
    erased[0] = n
    for j in range(n):
        erased[1 << j:2 << j] = erased[:1 << j] - 1
    # integer sums below 2^21, so exact in float64 in any order
    per_k = np.bincount(erased, weights=leaked, minlength=n + 1)
    pattern_weight = np.array(
        [delta ** k * (1.0 - delta) ** (n - k) for k in range(n + 1)])
    return k_secret - float(pattern_weight @ per_k)


def normalized_equivocation(code, ch):
    """``H(W | Z) / H(W)``; 1.0 means perfect secrecy of the bin index."""
    if code.k_secret == 0:
        raise ValueError("code carries no secret message (rate_secret = 0)")
    return equivocation_exact(code, ch) / code.k_secret


def equivocation_table(n_list, delta, rate_total, rate_secret, seeds):
    """Exact equivocation of a fresh code per block length and code seed.

    Returns ``(n, rows, mean)`` per block length: ``rows`` holds
    ``(seed, h, normalized)`` per seed and ``mean`` the ``(h, normalized)``
    seed average.  ``normalized`` and ``mean`` are ``None`` when there
    is no secret message (``rate_secret = 0``) or, for ``mean``, no seed.

    Every block length is checked against the code sizes and the budget
    before any code is built, so a bad entry anywhere in ``n_list``
    fails at once.
    """
    ch = EraseChannel(delta)
    secret_bits = [_code_bits(n, rate_total, rate_secret)[1] for n in n_list]
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
