"""Desk-scale wiretap codec: random binning with exact equivocation.

A stochastic encoder hides a secret message by mapping it to a *bin* of
codewords and transmitting a uniformly chosen member of the bin.  The
in-bin randomness rate (total rate minus secret rate) is the cost of
secrecy: when it covers the eavesdropper's capacity, the eavesdropper's
observation pins down (at most) the in-bin index and reveals almost
nothing about the bin itself.

The codec here is deliberately small so that secrecy can be *measured*
instead of bounded: the main channel is noiseless (decoding is exact
lookup over distinct codewords) and the eavesdropper sees the codeword
through a per-bit erasure channel.  The equivocation ``H(W | Z)`` - the
conditional entropy of the bin index given the eavesdropper observation
- is computed exactly by marginalizing over all erasure patterns, which
is feasible up to ``n = 12`` bits.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_BLOCK_BITS = 16   # construction budget (distinct codewords over {0,1}^n)
MAX_ENUM_BITS = 12    # exact-equivocation budget (2^n erasure patterns)


class CodeTooLarge(ValueError):
    """Requested codebook does not fit the block length or budget."""


class InvalidMessage(ValueError):
    """Message index outside the code's message set."""


class DecodeFailure(ValueError):
    """Received word is not a codeword."""


class EnumerationBudgetExceeded(ValueError):
    """Block length too large for exact equivocation enumeration."""


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


@dataclass(frozen=True)
class WiretapCode:
    """A random-binning codebook ``C(rate_total, rate_secret, n)``.

    ``bins[w, v]`` is the integer codeword for message ``w`` and in-bin
    index ``v``; all codewords are distinct, so the noiseless main
    channel decodes by exact lookup.
    """

    n: int
    rate_total: float
    rate_secret: float
    bins: np.ndarray

    @property
    def num_bins(self):
        return self.bins.shape[0]

    @property
    def bin_size(self):
        return self.bins.shape[1]

    @property
    def num_codewords(self):
        return self.bins.size

    def lookup(self):
        """Map from codeword integer to ``(w, v)``."""
        return {int(x): divmod(i, self.bin_size)
                for i, x in enumerate(self.bins.ravel())}


def bits_from_int(x, n):
    """MSB-first bit vector of an ``n``-bit codeword integer."""
    return np.array([(x >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


def int_from_bits(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def build_code(n, rate_total, rate_secret, seed):
    """Draw a random-binning codebook, deterministic given ``seed``.

    ``2^{n * rate_total}`` distinct codewords are drawn uniformly from
    ``{0,1}^n`` (i.i.d. draws with collisions resampled) and distributed
    randomly into ``2^{n * rate_secret}`` equal bins.

    Raises
    ------
    CodeTooLarge
        If the codebook cannot be distinct (``rate_total > 1``) or the
        block length exceeds the construction budget.
    ValueError
        If ``n < 1``, a rate is negative, ``n * rate`` is not an integer
        or ``rate_secret > rate_total``.
    """
    if n < 1:
        raise ValueError(f"block length must be at least 1, got {n}")
    for name, rate in (("rate_total", rate_total),
                       ("rate_secret", rate_secret)):
        if rate < 0:
            raise ValueError(f"{name} must be nonnegative, got {rate}")
    k_total = _integral_bits(n, rate_total, "rate_total")
    k_secret = _integral_bits(n, rate_secret, "rate_secret")
    if k_secret > k_total:
        raise ValueError("rate_secret exceeds rate_total")
    if n > MAX_BLOCK_BITS:
        raise CodeTooLarge(f"block length {n} exceeds budget {MAX_BLOCK_BITS}")
    if k_total > n:
        raise CodeTooLarge(
            f"2^{k_total} distinct codewords do not fit in {{0,1}}^{n}")

    rng = np.random.default_rng(seed)
    total = 1 << k_total
    # Uniform distinct codewords. Sampling without replacement has the
    # same law as i.i.d. drawing with collisions resampled, without the
    # coupon-collector blowup when the codebook fills the whole space.
    words = rng.choice(1 << n, size=total, replace=False)
    bins = words.reshape(1 << k_secret, 1 << (k_total - k_secret))
    return WiretapCode(n=n, rate_total=float(rate_total),
                       rate_secret=float(rate_secret), bins=bins)


def encode(code, w, seed):
    """Stochastic encoding: a uniformly chosen codeword from bin ``w``.

    Returns the codeword as an MSB-first bit vector; deterministic given
    ``seed``.
    """
    if not 0 <= w < code.num_bins:
        raise InvalidMessage(f"message {w} outside [0, {code.num_bins})")
    rng = np.random.default_rng(seed)
    v = int(rng.integers(0, code.bin_size))
    return bits_from_int(int(code.bins[w, v]), code.n)


def decode_main(code, y):
    """Noiseless-main-channel decoding: exact codeword lookup.

    Returns ``(w, v)`` for the received bit vector ``y``; raises
    :class:`DecodeFailure` when ``y`` is not a codeword.
    """
    y = np.asarray(y, dtype=np.uint8)
    if y.shape != (code.n,):
        raise DecodeFailure(f"expected {code.n} bits, got shape {y.shape}")
    word = int_from_bits(y)
    hit = np.flatnonzero(code.bins.ravel() == word)
    if hit.size == 0:
        raise DecodeFailure(f"word {word:#0{code.n + 2}b} is not a codeword")
    return divmod(int(hit[0]), code.bin_size)


def equivocation_exact(code, ch):
    """Exact ``H(W | Z)`` in bits over the erasure eavesdropper.

    ``W`` is the bin index (uniform), the transmitted codeword is
    uniform in its bin, and ``Z`` is the codeword with every bit erased
    independently with probability ``delta``.  The entropy is computed
    by enumerating erasure patterns: conditioned on a pattern, ``Z``
    reveals the unerased bits, so the posterior on ``W`` is proportional
    to how many codewords of each bin match them.  Writing ``c_gw`` for
    the number of bin-``w`` codewords matching observation ``g``, the
    pattern's contribution is
    ``(sum_g c_g log2 c_g - sum_gw c_gw log2 c_gw) / total``.

    Patterns are processed in batches: each ``(observation, bin)`` pair
    is packed into one integer key and the ``c_gw`` come out as run
    lengths of the row-sorted key matrix, so the whole enumeration is a
    handful of vectorized passes.

    Exact at the endpoints: ``delta = 1`` gives ``n * rate_secret``
    and ``delta = 0`` gives ``0``.
    """
    if code.n > MAX_ENUM_BITS:
        raise EnumerationBudgetExceeded(
            f"block length {code.n} exceeds enumeration budget {MAX_ENUM_BITS}")
    n = code.n
    delta = ch.delta
    words = code.bins.reshape(-1).astype(np.int32)
    total = words.size
    b_bits = (code.num_bins - 1).bit_length()
    bin_of = np.repeat(np.arange(code.num_bins, dtype=np.int32), code.bin_size)

    # weight of an erasure pattern depends only on its popcount
    pattern_weight = np.array(
        [delta ** k * (1.0 - delta) ** (n - k) for k in range(n + 1)])
    masks = np.arange(1 << n, dtype=np.int64)
    weights = pattern_weight[[int(m).bit_count() for m in range(1 << n)]]
    live = np.flatnonzero(weights > 0.0)

    xlogx = np.zeros(total + 1)
    counts = np.arange(1, total + 1)
    xlogx[1:] = counts * np.log2(counts)

    full = (1 << n) - 1
    entropy = 0.0
    batch = max(1, (1 << 22) // total)
    for start in range(0, live.size, batch):
        sel = live[start:start + batch]
        rows = sel.size
        obs_masks = (full ^ masks[sel]).astype(np.int32)[:, None]
        keys = ((words[None, :] & obs_masks) << b_bits) | bin_of[None, :]
        keys.sort(axis=1)
        flat = keys.ravel()

        # run lengths of equal (observation, bin) keys; row-sorted, so
        # runs never cross row boundaries once those are forced
        boundary = np.empty(flat.size, dtype=bool)
        boundary[0] = True
        np.not_equal(flat[1:], flat[:-1], out=boundary[1:])
        boundary[::total] = True
        run_start = np.flatnonzero(boundary)
        run_len = np.diff(run_start, append=flat.size)
        run_row = run_start // total
        term_joint = np.bincount(run_row, weights=xlogx[run_len],
                                 minlength=rows)

        # collapse the bin bits: runs of equal observation value
        group_val = flat[run_start] >> b_bits
        gboundary = np.empty(group_val.size, dtype=bool)
        gboundary[0] = True
        np.not_equal(group_val[1:], group_val[:-1], out=gboundary[1:])
        gboundary[1:] |= run_row[1:] != run_row[:-1]
        gstart = np.flatnonzero(gboundary)
        cum = np.concatenate([[0], np.cumsum(run_len)])
        gend = np.append(gstart[1:], run_len.size)
        group_len = cum[gend] - cum[gstart]
        term_group = np.bincount(run_row[gstart], weights=xlogx[group_len],
                                 minlength=rows)

        entropy += float(weights[sel] @ (term_group - term_joint)) / total
    return entropy


def normalized_equivocation(code, ch):
    """``H(W | Z) / H(W)``; 1.0 means perfect secrecy of the bin index."""
    secret_bits = _integral_bits(code.n, code.rate_secret, "rate_secret")
    if secret_bits == 0:
        raise ValueError("code carries no secret message (rate_secret = 0)")
    return equivocation_exact(code, ch) / secret_bits


def equivocation_table(n_list, delta, rate_total, rate_secret, seeds):
    """Exact equivocation of a fresh code per block length and code seed.

    Returns ``(n, rows, mean)`` per block length: ``rows`` holds
    ``(seed, h, normalized)`` per seed and ``mean`` the ``(h, normalized)``
    seed average.  ``normalized`` and ``mean`` are ``None`` when there
    is no secret message (``rate_secret = 0``) or, for ``mean``, no seed.
    """
    ch = EraseChannel(delta)
    table = []
    for n in n_list:
        rows = []
        for s in seeds:
            h = equivocation_exact(build_code(n, rate_total, rate_secret, s), ch)
            secret_bits = _integral_bits(n, rate_secret, "rate_secret")
            rows.append((s, h, h / secret_bits if secret_bits else None))
        mean = None
        if rows and rows[0][2] is not None:
            mean = (sum(h for _, h, _ in rows) / len(rows),
                    sum(x for _, _, x in rows) / len(rows))
        table.append((n, rows, mean))
    return table

