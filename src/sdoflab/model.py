"""Antenna configurations and random channels.

The network has two transmitters with ``m1`` and ``m2`` antennas, one
legitimate receiver with ``n`` antennas, and any number of passive
eavesdroppers with at most ``ne`` antennas each.  Legitimate channels
are held constant for the duration of an experiment trial; eavesdropper
channels are time varying: each Monte-Carlo trial draws them afresh,
independently for every symbol slot of an extended block, and a power
sweep evaluates that one draw at every power.  They are kept as
per-slot blocks; `eve_image` is the one place that applies them to a
precoder lifted over the slots.

All entries are i.i.d. circularly-symmetric complex Gaussian, so every
sampled channel is full rank with probability one; this is asserted on
every draw.  The samplers take one seed or generator per trial;
`TrialStreams` derives the generators of a block of trials in bulk.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np


class InvalidConfig(ValueError):
    """Antenna configuration violates a structural requirement."""


class InvalidEveCount(ValueError):
    """An eavesdropper antenna count is out of range."""


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts ``(m1, m2, n, ne)``.

    ``m1`` and ``m2`` are the transmitter array sizes, ``n`` the
    legitimate receiver's, and ``ne`` the largest eavesdropper array the
    system is designed against.  Configurations with ``ne >= m1 + m2``
    are representable but *degenerate*: no positive secure rate exists
    and the secure-degrees-of-freedom value is zero.
    """

    m1: int
    m2: int
    n: int
    ne: int

    def __post_init__(self):
        for name in ("m1", "m2", "n", "ne"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise InvalidConfig(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def m(self):
        """Total transmit antennas ``m1 + m2``."""
        return self.m1 + self.m2


def canonical(cfg):
    """Relabel transmitters so that ``m1 >= m2``.

    The channel is symmetric under swapping the transmitters, and the
    closed-form case conditions compare ``m1`` (not ``m2``) against
    ``n``, so all theory-side code works on the canonical orientation.
    """
    if cfg.m1 >= cfg.m2:
        return cfg
    return AntennaConfig(cfg.m2, cfg.m1, cfg.n, cfg.ne)


def is_degenerate(cfg):
    """True when an eavesdropper can have as many antennas as both transmitters."""
    return cfg.ne >= cfg.m


def validate(cfg):
    """Classify a configuration as ``"ok"`` or ``"degenerate"``.

    Raises :class:`InvalidConfig` when a transmitter or the receiver has
    zero antennas.
    """
    if cfg.m1 < 1 or cfg.m2 < 1 or cfg.n < 1:
        raise InvalidConfig(
            f"transmitters and receiver need at least one antenna: "
            f"({cfg.m1}, {cfg.m2}, {cfg.n})")
    return "degenerate" if is_degenerate(cfg) else "ok"


def complex_gaussian(rngs, *shapes):
    """One ``(len(rngs), *shape)`` stack of i.i.d. CN(0, 1) entries per
    shape.  Each generator draws all its normals with one
    ``standard_normal`` call: shape after shape, and per trailing matrix
    its real parts, then its imaginary parts."""
    sizes = [2 * math.prod(shape) for shape in shapes]
    z = np.stack([rng.standard_normal(sum(sizes)) for rng in rngs])
    stacks, start = [], 0
    for shape, size in zip(shapes, sizes):
        part = z[:, start:start + size].reshape(len(z), *shape[:-2], 2,
                                                *shape[-2:])
        start += size
        stacks.append(np.sqrt(0.5) * (part[..., 0, :, :]
                                      + 1j * part[..., 1, :, :]))
    return stacks


def _assert_full_rank(h, tol=1e-9):
    """Raise unless every matrix of the stack ``h`` is numerically full rank."""
    s = np.linalg.svd(h, compute_uv=False)
    if np.any(s[..., -1] <= tol * s[..., 0]):
        raise RuntimeError("sampled channel is numerically rank deficient")


def sample_eves(cfg, eve_counts, seeds, slots=1):
    """Draw eavesdropper channel pairs, one per entry of ``eve_counts``.

    Each pair ``(g1, g2)`` holds the per-slot blocks, stacked ``(trials,
    slots, nej, m_i)`` with i.i.d. CN(0, 1) entries: over an extended
    block the eavesdropper sees a fresh channel every channel use (the
    time-varying model).  Trial ``t`` draws all its entries with one
    call to its own ``numpy.random.default_rng(seeds[t])`` (a generator
    passes through as it is).
    """
    for nej in eve_counts:
        if not 0 <= nej <= cfg.ne:
            raise InvalidEveCount(
                f"eavesdropper antenna count {nej} outside [0, {cfg.ne}]")
    # The normals run eavesdropper, transmitter, slot, then the real and
    # imaginary parts.
    stacks = complex_gaussian([np.random.default_rng(s) for s in seeds],
                              *[(slots, nej, mi) for nej in eve_counts
                                for mi in (cfg.m1, cfg.m2)])
    return list(zip(stacks[::2], stacks[1::2]))


def eve_image(g, v):
    """Rows of the product of the lifted eavesdropper matrix with ``v``.

    ``g`` holds per-slot blocks ``(..., slots, r, c)`` and ``v`` the
    lifted precoder ``(..., slots*c, k)``; slot ``s``'s block multiplies
    rows ``s*c .. (s+1)*c`` of ``v``.  The result ``(..., slots*r, k)``
    is slot-major, the rows of the block-diagonal lift times ``v``.  A
    ``v`` with columns and another row count raises ``ValueError``.
    """
    *_, slots, r, c = g.shape
    out = g @ v.reshape(v.shape[:-2] + (slots, c, v.shape[-1]))
    return out.reshape(out.shape[:-3] + (slots * r, v.shape[-1]))


def sample_channels(cfg, seeds):
    """Legitimate channels ``h1``, then ``h2``, stacked ``(trials, n, m_i)``.

    Each trial draws both with one call to its own
    ``numpy.random.default_rng(seed)``, so its draws do not depend on the
    other seeds.  Eavesdroppers are drawn apart, with `sample_eves`.
    """
    validate(cfg)
    h1, h2 = complex_gaussian([np.random.default_rng(s) for s in seeds],
                              (cfg.n, cfg.m1), (cfg.n, cfg.m2))
    _assert_full_rank(h1)
    _assert_full_rank(h2)
    return h1, h2


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on uint32s.
_MASK = 0xFFFFFFFF
_MULT_A, _MULT_B = 0x931E8875, 0x58F38DED  # absorb and emit hash steps


def _consts(init, mult, first):
    """Hash constants ``init * mult**i mod 2**32`` for the eight ``i``
    from ``first``, on axis 0."""
    return np.array([init * pow(mult, i, 2**32) & _MASK
                     for i in range(first, first + 8)],
                    dtype=np.uint32)[:, None, None]


def _hash(value, const, mult):
    value = (value ^ const) * (const * mult & _MASK) & _MASK
    return value ^ value >> 16


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK
    return r ^ r >> 16


_EMIT = _consts(0x8B51F9DD, _MULT_B, 0)


class _StateWords:
    """Hands ``PCG64`` the four uint64 words its SeedSequence would give.

    `TrialStreams` registers it as an ``ISeedSequence`` on first use:
    loading ``numpy.random`` on import raised the peak RSS of every
    benchmark workload by 1-2%, ``binning`` too, which draws no trial.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class TrialStreams:
    """Random streams of trials ``0 .. trials - 1`` under one seed.

    Stream ``k`` of trial ``t`` is ``numpy.random.default_rng(
    SeedSequence(seed, spawn_key=(t, k)))``.  `block` derives many at
    once and builds no SeedSequence: it hashes the key words ``t`` and
    ``k`` into the pool of ``SeedSequence(seed)``, and then the state
    words, as uint32 arrays.  A non-integer seed raises ``TypeError``, a
    negative one SeedSequence's ``ValueError``, and so do more than
    2**32 trials, whose indices would take two key words.
    """

    def __init__(self, seed, trials):
        seed = operator.index(seed)  # SeedSequence also takes word lists
        np.random.bit_generator.ISeedSequence.register(_StateWords)
        if trials > 2**32:
            raise ValueError(f"at most 2**32 trials, got {trials}")
        # The unkeyed pool is the keyed one before it absorbs the key: a
        # key pads the seed with zero words, which the pool hashes anyway.
        self._pool = np.random.SeedSequence(seed).pool[:, None]
        words = max(4, -(-max(seed.bit_length(), 1) // 32))
        self._key = _consts(0x43B0D7E5, _MULT_A, 4 * words)

    def block(self, start, trials, streams):
        """One tuple per trial ``start .. start + trials - 1`` of its
        generators, one for each stream index in ``streams``."""
        t = np.arange(start, start + trials).astype(np.uint32)
        pool = _mix(self._pool, _hash(t, self._key[:4, 0], _MULT_A))
        k = np.array(streams, dtype=np.uint32)[:, None]
        pool = _mix(pool[:, None], _hash(k, self._key[4:], _MULT_A))
        # generate_state(4, uint64): eight uint32s, cycling the pool twice.
        state = _hash(np.tile(pool, (2, 1, 1)), _EMIT, _MULT_B)
        words = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
        return [tuple(np.random.Generator(np.random.PCG64(_StateWords(w)))
                      for w in trial) for trial in words]
