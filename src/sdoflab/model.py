"""Antenna configurations, random channels, and power bookkeeping.

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
every draw.
"""

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PowerPolicy:
    """Per-transmitter power budget ``p`` and jamming fraction ``alpha``.

    Each transmitter spends ``alpha * p`` on jamming and the rest on its
    legitimate streams.
    """

    p: float
    alpha: float = 0.5

    def __post_init__(self):
        if not self.p > 0:
            raise InvalidConfig(f"power must be positive, got {self.p}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass
class ChannelRealization:
    """Channel draws: legitimate channels ``h1``/``h2`` and a list
    ``eves`` of per-eavesdropper pairs ``(g1, g2)``.

    `sample_channels` stacks ``h1``/``h2`` over trials; the one-trial
    rate references take plain matrices.  Each eavesdropper matrix holds
    its per-slot blocks, ``(slots, nej, m_i)``, one independent block
    per slot of a ``slots``-fold time extension (see `sample_eves`).
    """

    h1: np.ndarray
    h2: np.ndarray
    eves: list = field(default_factory=list)


def complex_gaussian(rngs, rows, cols):
    """``(len(rngs), rows, cols)`` stack of i.i.d. CN(0, 1) matrices, one
    drawn from each generator."""
    z = np.stack([rng.standard_normal((rows, cols))
                  + 1j * rng.standard_normal((rows, cols)) for rng in rngs])
    return np.sqrt(0.5) * z


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
    call to its own ``numpy.random.default_rng(seeds[t])``.
    """
    for nej in eve_counts:
        if not 0 <= nej <= cfg.ne:
            raise InvalidEveCount(
                f"eavesdropper antenna count {nej} outside [0, {cfg.ne}]")
    # The normals run eavesdropper, transmitter, slot, then the real and
    # imaginary parts, as in successive complex_gaussian calls.
    shapes = [(slots, 2, nej, mi)
              for nej in eve_counts for mi in (cfg.m1, cfg.m2)]
    sizes = [math.prod(shape) for shape in shapes]
    z = np.stack([np.random.default_rng(s).standard_normal(sum(sizes))
                  for s in seeds])
    blocks = []
    for shape, part in zip(shapes, np.split(z, np.cumsum(sizes)[:-1], axis=1)):
        part = part.reshape(len(z), *shape)
        blocks.append(np.sqrt(0.5) * (part[:, :, 0] + 1j * part[:, :, 1]))
    return list(zip(blocks[::2], blocks[1::2]))


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

    Each trial draws from its own ``numpy.random.default_rng(seed)``, so
    its draws do not depend on the other seeds.  Eavesdroppers are drawn
    apart, with `sample_eves`.
    """
    validate(cfg)
    rngs = [np.random.default_rng(s) for s in seeds]
    h1 = complex_gaussian(rngs, cfg.n, cfg.m1)
    h2 = complex_gaussian(rngs, cfg.n, cfg.m2)
    _assert_full_rank(h1)
    _assert_full_rank(h2)
    return ChannelRealization(h1, h2)
