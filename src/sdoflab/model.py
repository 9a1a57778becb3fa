"""Antenna configurations and random channels.

The network has two transmitters with ``m1`` and ``m2`` antennas, one
legitimate receiver with ``n`` antennas, and any number of passive
eavesdroppers with at most ``ne`` antennas each.  Every channel, the
legitimate ones and each eavesdropper's, is static: a Monte-Carlo trial
draws it once, and a power sweep evaluates that one draw at every power.

All entries are i.i.d. circularly-symmetric complex Gaussian, so every
sampled channel is full rank with probability one; a draw that is not
is left to the precoder build, which passes its geometry report or
raises its `GeometryError`.  The samplers build each complex channel
``H`` from real normals, directly as its real form `real_form` ``R(H)``
with two real dimensions per antenna, so that the precoders can be real
(asymmetric complex signaling): a generic static channel acts
differently on the real and imaginary parts of a signal, which gives the
half dimensions of the secure DoF.

`is_integer` and `is_number` are the package's one rule for each kind.
An `AntennaConfig` is valid once made, and the samplers do not check
their inputs: `sdoflab.rates.check_inputs` checks a sweep's eavesdropper
counts where they enter.  The samplers take one seed or generator per
trial; `TrialStreams` derives the generators of a block in bulk.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np


def is_integer(v):
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_number(v):
    """True for a finite int or float, numpy's included; a bool is not one."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)  # exact: no float overflow


class InvalidConfig(ValueError):
    """Antenna configuration violates a structural requirement."""


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts ``(m1, m2, n, ne)``.

    ``m1`` and ``m2`` are the transmitter array sizes, ``n`` the
    legitimate receiver's, and ``ne`` the largest eavesdropper array the
    system is designed against.  Each transmitter and the receiver have
    at least one antenna (:class:`InvalidConfig` otherwise).
    Configurations with ``ne >= m1 + m2`` are valid but *degenerate*: no
    positive secure rate exists and the secure-degrees-of-freedom value
    is zero.
    """

    m1: int
    m2: int
    n: int
    ne: int

    def __post_init__(self):
        for name in ("m1", "m2", "n", "ne"):
            v = getattr(self, name)
            if not is_integer(v) or v < 0:
                raise InvalidConfig(f"{name} must be a nonnegative integer, got {v!r}")
        if self.m1 < 1 or self.m2 < 1 or self.n < 1:
            raise InvalidConfig(
                f"transmitters and receiver need at least one antenna: "
                f"({self.m1}, {self.m2}, {self.n})")

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


def gaussian(rngs, *shapes):
    """One ``(len(rngs), *shape)`` stack of i.i.d. N(0, 1) entries per
    shape.  Each generator draws all its normals with one
    ``standard_normal`` call, shape after shape."""
    sizes = [math.prod(shape) for shape in shapes]
    z = np.empty((len(rngs), sum(sizes)))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return [z[:, end - size:end].reshape(len(z), *shape) for end, size, shape
            in zip(itertools.accumulate(sizes), sizes, shapes)]


def real_form(re, im):
    """The real matrix ``R(H) = [[Re H, -Im H], [Im H, Re H]]`` of the
    matrix or stack ``H = re + i im``.

    ``R(A B) = R(A) R(B)`` and ``R(A^H) = R(A)^T``, and every singular
    value of ``H`` is a singular value of ``R(H)`` twice.
    """
    return np.concatenate([np.concatenate([re, -im], axis=-1),
                           np.concatenate([im, re], axis=-1)], axis=-2)


def _cn_real_forms(seeds, shapes):
    """Real forms of i.i.d. CN(0, 1) matrices ``H``, one ``(trials, 2 rows,
    2 cols)`` stack per ``(rows, cols)`` shape, drawn by `gaussian` from
    ``numpy.random.default_rng(seeds[t])`` for trial ``t`` (a generator
    passes through as it is): per shape the normals of ``Re H``, then of
    ``Im H``, each scaled to variance 1/2."""
    stacks = gaussian([np.random.default_rng(s) for s in seeds],
                      *[(2, *shape) for shape in shapes])
    return [real_form(np.sqrt(0.5) * z[:, 0], np.sqrt(0.5) * z[:, 1])
            for z in stacks]


def sample_eves(cfg, eve_counts, seeds):
    """Draw eavesdropper channel pairs, one per entry of ``eve_counts``.

    Each pair ``(g1, g2)`` holds the real forms of i.i.d. CN(0, 1)
    channels, stacked ``(trials, 2 nej, 2 m_i)``: one draw per
    eavesdropper and trial.  Trial ``t`` draws all its entries with one
    call to its own ``numpy.random.default_rng(seeds[t])``, eavesdropper
    after eavesdropper, transmitter after transmitter.
    """
    stacks = _cn_real_forms(seeds, [(nej, mi) for nej in eve_counts
                                    for mi in (cfg.m1, cfg.m2)])
    return list(zip(stacks[::2], stacks[1::2]))


def sample_channels(cfg, seeds):
    """Legitimate channels ``h1``, then ``h2``, as real forms stacked
    ``(trials, 2 n, 2 m_i)``.

    Each trial draws both with one call to its own
    ``numpy.random.default_rng(seed)``, so its draws do not depend on the
    other seeds.  Eavesdroppers are drawn apart, with `sample_eves`.
    """
    return _cn_real_forms(seeds, [(cfg.n, cfg.m1), (cfg.n, cfg.m2)])


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
    words, as uint32 arrays.  A non-integer seed (a bool included)
    raises ``TypeError``, a negative one SeedSequence's ``ValueError``,
    and so do more than 2**32 trials, whose indices would take two key
    words.
    """

    def __init__(self, seed, trials):
        if not is_integer(seed):  # SeedSequence also takes word lists
            raise TypeError(f"seed must be an integer, got {seed!r}")
        np.random.bit_generator.ISeedSequence.register(_StateWords)
        if trials > 2**32:
            raise ValueError(f"at most 2**32 trials, got {trials}")
        # The unkeyed pool is the keyed one before it absorbs the key: a
        # key pads the seed with zero words, which the pool hashes anyway.
        self._pool = np.random.SeedSequence(seed).pool[:, None]
        words = max(4, -(-max(int(seed).bit_length(), 1) // 32))
        self._key = _consts(0x43B0D7E5, _MULT_A, 4 * words)

    def block(self, start, trials, streams):
        """One tuple per trial ``start .. start + trials - 1`` of its
        generators, one for each stream index in ``streams``."""
        t = np.arange(start, start + trials).astype(np.uint32)
        pool = _mix(self._pool, _hash(t, self._key[:4, 0], _MULT_A))
        k = np.array(streams, dtype=np.uint32)[:, None]
        pool = _mix(pool[:, None], _hash(k, self._key[4:], _MULT_A))
        # generate_state(4, uint64): eight uint32s, cycling the pool twice.
        state = _hash(np.concatenate([pool, pool]), _EMIT, _MULT_B)
        words = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
        # tuple() of a list: made at its size, a tuple reuses the slots
        # that freed ones leave, so a sweep's memory does not grow with
        # its trials (built from a generator, it never would).
        return [tuple([np.random.Generator(np.random.PCG64(_StateWords(w)))
                       for w in trial]) for trial in words]
