"""Desk-scale wiretap codec: random binning with exact equivocation.

A stochastic encoder hides a secret message by mapping it to a *bin* of
codewords and transmitting a uniformly chosen member of the bin.  The
in-bin randomness rate (total rate minus secret rate) is the cost of
secrecy: when it covers the eavesdropper's capacity, the eavesdropper's
observation pins down (at most) the in-bin index and reveals almost
nothing about the bin itself.

The codec here is deliberately small so that secrecy can be *measured*
instead of bounded: the main channel is noiseless (all codewords are
distinct) and the eavesdropper sees the codeword through a per-bit
erasure channel.  The equivocation ``H(W | Z)`` - the conditional
entropy of the bin index given the eavesdropper observation - is
computed exactly by marginalizing over all ``2^n`` erasure patterns,
which is feasible up to ``n = 12`` bits.

The enumeration is integer counting: patterns with the same number of
erasures share one weight and are pooled.  A ternary subset-sum
transform of the codeword counts gives the group sizes of every pattern
over the whole codebook, ``uint16`` sorts of each masked bin give them
per bin as run lengths, and both go into integer histograms.  Only the
final contraction with ``x log2 x`` is floating point, so the result
does not depend on the batch size.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_BLOCK_BITS = 16   # construction budget (distinct codewords over {0,1}^n)
MAX_ENUM_BITS = 12    # exact-equivocation budget (2^n erasure patterns)
_BATCH_PAIRS = 1 << 16  # (erasure pattern, codeword) pairs masked and sorted at once
_LEAF_BITS = 10  # group transform leaves: 3^10 cells at once, never all 3^n


class CodeTooLarge(ValueError):
    """Requested codebook does not fit the block length or budget."""


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
    k_total, k_secret = _code_bits(n, rate_total, rate_secret)
    rng = np.random.default_rng(seed)
    total = 1 << k_total
    # Uniform distinct codewords. Sampling without replacement has the
    # same law as i.i.d. drawing with collisions resampled, without the
    # coupon-collector blowup when the codebook fills the whole space.
    words = rng.choice(1 << n, size=total, replace=False)
    bins = words.reshape(1 << k_secret, 1 << (k_total - k_secret))
    return WiretapCode(n=n, rate_total=float(rate_total),
                       rate_secret=float(rate_secret), bins=bins)


def _check_enumerable(n):
    if n > MAX_ENUM_BITS:
        raise EnumerationBudgetExceeded(
            f"block length {n} exceeds enumeration budget {MAX_ENUM_BITS}")


def _add_run_lengths(rows, hist):
    """Add the lengths of the runs of equal values in each row of the
    sorted ``rows`` (runs along the last axis) into ``hist``."""
    width = rows.shape[-1]
    flat = rows.reshape(-1)
    # same[i]: flat[i] continues the run of flat[i - 1] within its row
    same = np.zeros(flat.size + 1, dtype=bool)
    np.equal(flat[1:], flat[:-1], out=same[1:-1])
    same[::width] = False  # every row start, and the end sentinel
    # only runs longer than 1 have edges: a rise and a fall of ``same``
    edges = np.flatnonzero(same[1:] != same[:-1])
    lens = edges[1::2] - edges[::2] + 1
    hist += np.bincount(lens, minlength=hist.size)
    hist[1] += flat.size - lens.sum()


def _add_group_counts(x, k, hist):
    """Ternary subset-sum transform: add 1 to ``hist[k + j, c]`` for every
    (erasure pattern, observation) of the bits of ``x`` with ``j``
    erasures that ``c`` codewords match, ``x[v]`` counting the codewords
    that read ``v`` there and ``k`` the erasures fixed above them.
    """
    half = x.size >> 1
    if x.size > 1 << _LEAF_BITS:  # top bit read as 0, as 1, or erased
        _add_group_counts(x[:half], k, hist)
        _add_group_counts(x[half:], k, hist)
        _add_group_counts(x[:half] + x[half:], k + 1, hist)
        return
    # levels[j]: one row per cell with j erasures, over the bits left
    levels = [x[None, :]]
    while half:
        none = np.empty((0, half), dtype=x.dtype)
        kept = [a.reshape(-1, half) for a in levels]
        erased = [a[:, :half] + a[:, half:] for a in levels]
        levels = [np.concatenate(p) for p in zip(kept + [none], [none] + erased)]
        half >>= 1
    for j, cells in enumerate(levels):
        hist[k + j] += np.bincount(cells.reshape(-1), minlength=hist.shape[1])


def equivocation_exact(code, ch):
    """Exact ``H(W | Z)`` in bits over the erasure eavesdropper.

    ``W`` is the bin index (uniform), the transmitted codeword is
    uniform in its bin, and ``Z`` is the codeword with every bit erased
    independently with probability ``delta``.  The entropy is computed
    by enumerating erasure patterns: conditioned on a pattern, ``Z``
    reveals the unerased bits, so the posterior on ``W`` is proportional
    to how many codewords of each bin match them.  Writing ``c_g`` for
    the number of codewords matching observation ``g`` and ``c_gw`` for
    the number of bin-``w`` codewords among them, the pattern's
    contribution is ``(sum_g c_g log2 c_g - sum_gw c_gw log2 c_gw) / total``.

    A pattern's weight ``delta^k (1 - delta)^(n - k)`` depends only on
    its number ``k`` of erasures, so the counts of all patterns with the
    same ``k`` are pooled into integer histograms per ``k`` (how many
    groups of each size).  The ``c_g`` of every pattern and observation
    come from one ternary subset-sum transform of the codeword counts
    over ``{0,1}^n`` (:func:`_add_group_counts`, ``3^n`` cells).  For
    the ``c_gw``, batches of patterns mask the codebook to their
    observed bits, and a ``uint16`` sort of each masked bin turns them
    into run lengths.  The entropy is the one contraction
    ``weight @ ((group_hist - joint_hist) @ xlogx) / total``.  The
    histograms are exact integers, so the result does not depend on
    the batch size or the order in which patterns are visited.
    Patterns of weight 0 are left out of both histograms.

    Exact at the endpoints: ``delta = 1`` gives ``n * rate_secret``
    and ``delta = 0`` gives ``0``.

    Raises ``ValueError`` if a codeword lies outside ``[0, 2^n)``.
    """
    _check_enumerable(code.n)
    n = code.n
    if code.bins.min() < 0 or code.bins.max() >= 1 << n:
        raise ValueError(f"codewords must lie in [0, 2^{n})")
    delta = ch.delta
    words = code.bins.astype(np.uint16)  # (bins, bin_size); n <= 12 bits
    total = words.size
    pattern_weight = np.array(
        [delta ** k * (1.0 - delta) ** (n - k) for k in range(n + 1)])
    # erasure count (popcount) of every pattern 0 .. 2^n - 1
    erasures = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        erasures = np.concatenate([erasures, erasures + 1])

    # hist[k, c]: groups of c codewords, over all patterns with k erasures
    group_hist = np.zeros((n + 1, total + 1), dtype=np.int64)
    _add_group_counts(np.bincount(words.reshape(-1), minlength=1 << n), 0,
                      group_hist)
    group_hist[:, 0] = 0  # observations no codeword matches
    group_hist[pattern_weight == 0.0] = 0
    joint_hist = np.zeros_like(group_hist)
    batch = max(1, _BATCH_PAIRS // total)
    full = (1 << n) - 1
    for k in np.flatnonzero(pattern_weight > 0.0):
        observed = (full ^ np.flatnonzero(erasures == k)).astype(np.uint16)
        for start in range(0, observed.size, batch):
            masked = words & observed[start:start + batch, None, None]
            _add_run_lengths(np.sort(masked, axis=-1), joint_hist[k])

    counts = np.arange(total + 1)
    xlogx = counts * np.log2(np.maximum(counts, 1))
    return float(pattern_weight @ ((group_hist - joint_hist) @ xlogx)) / total


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

    Every block length is checked against the code sizes and the
    enumeration budget before any code is enumerated, so a bad entry
    anywhere in ``n_list`` fails at once.
    """
    ch = EraseChannel(delta)
    secret_bits = []
    for n in n_list:
        secret_bits.append(_code_bits(n, rate_total, rate_secret)[1])
        _check_enumerable(n)
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
