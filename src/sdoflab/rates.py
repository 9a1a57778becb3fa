"""Gaussian mutual information, power sweeps, and empirical DoF slopes.

The receiver rate is the joint log-det mutual information of both
transmitters' streams after zero-forcing; eavesdropper leakage is the
Gaussian mutual information of the legitimate streams at an
eavesdropper that treats the jamming as noise.  Sweeping the transmit
power over several decades and fitting rate against ``log2 P`` turns
the closed-form degrees-of-freedom predictions into measurable slopes:
with complex signaling every interference-free stream contributes one
bit per ``log2 P`` unit, so the secrecy-rate slope estimates the sum
secure DoF directly.

The Monte-Carlo secrecy quantity is the receiver rate minus the worst
eavesdropper's leakage, a finite-power surrogate for the achievable
secrecy sum rate; the coset-binning codec (see :mod:`sdoflab.binning`),
not this difference, carries the formal secrecy argument.

Conventions: the noise variance is 1, so only ``P / sigma^2``
matters; rates are bits per channel use (log-dets over an extended
block are divided by the extension factor); each transmitter splits its
per-use budget ``P`` into ``alpha * P`` for jamming (equally across
jamming columns) and ``(1 - alpha) * P`` for streams (equally across
streams).  Stream ``k`` of trial ``t`` (``k`` = 0 channels, 1 precoders,
2 eavesdroppers) is ``default_rng(SeedSequence(seed, spawn_key=(t, k)))``,
derived a block at a time by :class:`~sdoflab.model.TrialStreams`, so
results do not depend on evaluation order.

The trial engine behind :func:`sweep`, the module's one entry to it,
works on blocks of trials, held one at a time so that the working set
does not grow with the number of trials.  A block holds as many trials
as fit in ``BLOCK_BYTES`` of stacks, counted from the stack shapes (see
:func:`_trial_bytes`), so a small configuration runs as one block and a
large one in blocks of a few trials.  The engine samples a block's
channels and synthesizes its precoder sets as ``(trials, rows, cols)``
stacks (see :func:`~sdoflab.precoders.build_precoder_set`), then stacks
the receiver grams of the images ``U H_i V_i^L``, the eavesdropper
covariances and their log-dets over trials and powers, and adds the
per-trial results to running sums in trial order.  Each trial keeps its
own streams and numpy factors each matrix of a stack alone, so the results
do not depend on the block length.  The engine reproduces bit for bit a
one-trial, one-power reference, ``receiver_rate`` and
``eavesdropper_leakage`` in ``tests/test_rates.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matlin import ct, logdet_hpd
from .model import (TrialStreams, canonical, eve_image, sample_channels,
                    sample_eves)
from .precoders import build_precoder_set, build_unjammed_set
from .regions import jamming_plan


BLOCK_BYTES = 32 * 2**20  # stack bytes per block; bounds the working set


class GeometryNotVerified(RuntimeError):
    """Rate requested for a precoder set without a passing geometry report."""


@dataclass(frozen=True)
class RateCurve:
    """Rate samples over a power grid plus a least-squares slope fit.

    ``slope`` is in bits per ``log2 P`` unit, i.e. an empirical DoF.
    """

    points: tuple
    slope: float
    intercept: float

    def __post_init__(self):
        ps = [p for p, _ in self.points]
        if any(p <= 0 for p in ps):
            raise ValueError("powers must be positive")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("points must be sorted by strictly increasing power")


@dataclass(frozen=True)
class SweepPoint:
    """Trial-averaged rates at one power level."""

    p: float
    rate_rx: float
    leak_max: float
    secrecy: float


@dataclass(frozen=True)
class SweepResult:
    """Per-power averages, the secrecy-rate curve, and the paired leakage
    growth between the grid endpoints of one sweep."""

    points: tuple
    curve: RateCurve
    leakage_delta: float


def fit_slope(p_values, rates):
    """Least-squares fit of ``rates`` against ``log2(p)``.

    Returns ``(slope, intercept)``; exact (to rounding) on noiseless
    affine data.
    """
    x = np.log2(np.asarray(p_values, dtype=float))
    y = np.asarray(rates, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def make_curve(p_values, rates):
    """Bundle rate samples into a :class:`RateCurve` with a fitted slope."""
    slope, intercept = fit_slope(p_values, rates)
    points = tuple((float(p), float(r)) for p, r in zip(p_values, rates))
    return RateCurve(points=points, slope=slope, intercept=intercept)


def _require_geometry(ps):
    if ps.geometry is None:
        raise GeometryNotVerified("run verify_geometry before computing rates")
    if not ps.geometry.passed:
        raise GeometryNotVerified("; ".join(ps.geometry.failures()))


def _check_grid(p_grid):
    p = [float(v) for v in p_grid]
    if not all(map(math.isfinite, p)):
        raise ValueError("power grid must be finite")
    if len(p) < 4:
        raise ValueError("power grid needs at least 4 points")
    if any(b <= a for a, b in zip(p, p[1:])) or p[0] <= 0:
        raise ValueError("power grid must be positive and strictly increasing")
    if p[-1] < 1e4 * p[0]:
        raise ValueError("power grid must span at least 4 decades")
    return p


def _build_block(cfg, plan, ext, rngs, eve_counts):
    """Build one block of trials as stacks, and what the rate algebra needs.

    ``rngs`` holds per trial the generators of its channel, precoder (not
    for the control, where ``plan`` is None) and eavesdropper streams.
    Returns ``(vl, vj, grams, eves)``.  Per transmitter ``i``, ``vl[i]``
    and ``vj[i]`` are the legitimate and jamming precoders and
    ``eves[j][i]`` eavesdropper ``j``'s per-slot draws, each with an
    axis for the powers after the trials; ``grams[i]`` holds the grams
    ``W W'`` of ``W = ps.rx_images[i]``.
    """
    ch_rngs, *pc_rngs, eve_rngs = zip(*rngs)
    h1, h2 = sample_channels(cfg, ch_rngs)
    ps = (build_precoder_set(plan, h1, h2, *pc_rngs)
          if plan is not None else build_unjammed_set(h1, h2))
    _require_geometry(ps)
    eves = sample_eves(cfg, eve_counts, eve_rngs, slots=ext)
    return ([v[:, None] for v in (ps.v1l, ps.v2l)],
            [v[:, None] for v in (ps.v1j, ps.v2j)],
            [w @ ct(w) for w in ps.rx_images],
            [[g[:, None] for g in pair] for pair in eves])


def _block_receiver_rates(vl, grams, ext, legit_p):
    """Receiver rates of a block, shape ``(trials, powers)``.

    The powers only scale each trial's grams.  The arithmetic is that of
    the one-trial reference ``receiver_rate`` in ``tests/test_rates.py``,
    stacked over trials and powers.
    """
    # In place, to hold fewer (trials, powers, d, d) arrays at once.  The
    # operands and their order are the reference's, so the results are too.
    gram = np.eye(grams[0].shape[-1], dtype=complex)
    for v, g in zip(vl, grams):
        d = v.shape[-1]
        if d:
            term = (ext * legit_p / d)[:, None, None] * g[:, None]
            term += gram
            gram = term
    gram += ct(gram)
    gram *= 0.5
    return logdet_hpd(gram) / (ext * math.log(2))


def _block_leakage(vl, vj, g_pair, ext, alpha, p, legit_p):
    """Leakage of one eavesdropper over a block, shape ``(trials, len(p))``.

    Column ``k`` evaluates each trial's draw at power ``p[k]``, of which
    ``legit_p[k]`` goes to the streams.  The arithmetic is that of the
    one-trial reference ``eavesdropper_leakage`` in
    ``tests/test_rates.py``, stacked over trials and powers.
    """
    def images(vs, power):
        # The reference's images, with the powers on axis 1.
        return np.concatenate(
            [eve_image(g, v)
             * np.sqrt(power / max(v.shape[-1], 1))[:, None, None]
             for g, v in zip(g_pair, vs)], axis=-1)

    # In place, so that few (trials, powers, rows, rows) arrays are held
    # at once.  Each sum keeps the reference's operands.
    bj = images(vj, ext * alpha * p)
    k0 = bj @ ct(bj)
    del bj
    k0 += np.eye(k0.shape[-1], dtype=complex)
    bl = images(vl, ext * legit_p)
    k1 = bl @ ct(bl)
    del bl
    k1 += k0
    for k in (k0, k1):
        k += ct(k)
        k *= 0.5
    ld1 = logdet_hpd(k1)
    del k1
    return (ld1 - logdet_hpd(k0)) / (ext * math.log(2))


def _trial_bytes(cfg, plan, eve_counts, n_pow):
    """Bytes of the complex stacks that one trial adds to a block.

    Per power: the largest eavesdropper's images ``B_J`` and ``B_L`` and
    covariances ``K0`` and ``K1`` (:func:`_block_leakage`), and a receiver
    gram of ``extension * n`` rows, an upper bound on ``U``'s rows
    (:func:`_block_receiver_rates`).  Once: the lifted channels and a
    square precoder per transmit dimension.  Plus 2 KiB for the trial's
    seeds and generators, which outweigh its stacks on small configs.
    ``plan`` is None for the jamming-free control, where every transmit
    dimension is a stream.
    """
    ext = plan.extension if plan else 1
    rx, tx = ext * cfg.n, ext * cfg.m
    jam = plan.total_jam_dims() if plan else 0
    streams = plan.d1 + plan.d2 if plan else cfg.m
    eve = ext * max(eve_counts, default=0)
    per_power = eve * (jam + streams + 2 * eve) + rx * rx
    return 16 * (n_pow * per_power + rx * tx + tx * tx) + 2048


def _trial_results(cfg, alpha, p_values, trials, seed, eve_counts, jamming):
    """Per-trial rates and leakage, yielded one block at a time, in trial order.

    A block holds ``BLOCK_BYTES // _trial_bytes(...)`` trials (at least
    one), and each trial's eavesdropper draw serves every power.  Each
    block is a pair ``(rates, leaks)``: ``rates[t, k]`` is trial ``t``'s
    receiver rate at ``p_values[k]`` and ``leaks[t, k, j]`` eavesdropper
    ``j``'s leakage there.
    """
    cfg = canonical(cfg)
    plan = jamming_plan(cfg) if jamming else None
    ext = plan.extension if jamming else 1
    powers = np.array(p_values, dtype=float)
    block = max(1, BLOCK_BYTES // _trial_bytes(cfg, plan, eve_counts,
                                               len(powers)))

    streams = TrialStreams(seed, trials)  # raises on a bad seed or count
    for start in range(0, trials, block):
        size = min(block, trials - start)
        rngs = streams.block(start, size, (0, 1, 2) if jamming else (0, 2))
        vl, vj, grams, eves = _build_block(cfg, plan, ext, rngs, eve_counts)
        del rngs  # the block's draws are taken; free its generators
        has_jam = vj[0].shape[-1] + vj[1].shape[-1] > 0
        legit_p = (1.0 - alpha) * powers if has_jam else powers
        rates = _block_receiver_rates(vl, grams, ext, legit_p)
        leaks = np.zeros((size, len(powers), len(eve_counts)))
        for j, g_pair in enumerate(eves):
            leaks[:, :, j] = _block_leakage(vl, vj, g_pair, ext, alpha,
                                            powers, legit_p)
        del vl, vj, grams, eves  # hold one block's stacks at a time
        yield rates, leaks


def sweep(cfg, alpha, p_grid, trials, seed, *, eve_counts=None, jamming=True):
    """Monte-Carlo secrecy-rate sweep over a power grid.

    Each trial draws a fresh legitimate channel and fresh eavesdroppers
    (one draw per symbol slot) and evaluates both at every power, so the
    powers share their random numbers and each power's mean is still
    unbiased.  The per-power secrecy surrogate is the trial average of
    the receiver rate minus the worst eavesdropper's leakage; its slope
    over ``log2 P`` estimates the sum secure DoF.  ``leakage_delta`` is
    the mean leakage at ``p_grid[-1]`` minus that at ``p_grid[0]``,
    maximized over eavesdroppers; with jamming it saturates, without it
    grows like ``ne * log2(p_grid[-1] / p_grid[0])``.  It depends on the
    two ends of the grid only.

    ``p_grid``, ``alpha`` and ``trials`` are checked, in that order,
    before the first trial runs (``ValueError``).

    Parameters
    ----------
    cfg : AntennaConfig
    alpha : float
        Jamming power fraction, in (0, 1).
    p_grid : sequence of float
        At least 4 finite, positive, strictly increasing powers spanning
        >= 4 decades.
    trials : int
        At least 1.  After these checks, with jamming, a degenerate
        configuration raises :class:`~sdoflab.regions.DegenerateConfig`.
    seed : int
    eve_counts : sequence of int, optional
        Defaults to a single worst-case eavesdropper with ``cfg.ne``
        antennas.
    jamming : bool
        With ``False``, builds the jamming-free negative control: every
        transmit dimension carries a stream and no zero-forcing is done.
    """
    p_values = _check_grid(p_grid)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if eve_counts is None:
        eve_counts = [cfg.ne] if cfg.ne > 0 else []
    n_pow, n_eve = len(p_values), len(eve_counts)
    # One row per trial: its rates, worst leakage per power, and each
    # eavesdropper's leakage at the first and at the last power.
    total = np.zeros(2 * n_pow + 2 * n_eve)
    for rates, leaks in _trial_results(cfg, alpha, p_values, trials, seed,
                                       eve_counts, jamming):
        worst = leaks.max(axis=2) if n_eve else np.zeros_like(rates)
        rows = np.concatenate([rates, worst, leaks[:, 0], leaks[:, -1]],
                              axis=1)
        # One axis-0 reduction with the running total as its first row.
        # A row has at least four columns, and over rows of two or more
        # numpy adds row after row, so the sums equal a per-trial +=
        # loop bit for bit (one column would be summed pairwise).
        total = np.concatenate([total[None], rows]).sum(axis=0)
    rate_sum, leak_sum, lo_sum, hi_sum = np.split(
        total, np.cumsum([n_pow, n_pow, n_eve]))

    rate_mean = rate_sum / trials
    leak_mean = leak_sum / trials
    secrecy = rate_mean - leak_mean
    points = tuple(
        SweepPoint(p, float(r), float(l), float(s))
        for p, r, l, s in zip(p_values, rate_mean, leak_mean, secrecy))
    delta = float(((hi_sum - lo_sum) / trials).max()) if eve_counts else 0.0
    return SweepResult(points=points, curve=make_curve(p_values, secrecy),
                       leakage_delta=delta)
