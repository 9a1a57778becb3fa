"""Gaussian mutual information, power sweeps, and empirical DoF slopes.

The receiver rate is the joint log-det mutual information of both
transmitters' streams after zero-forcing; eavesdropper leakage is the
Gaussian mutual information of the legitimate streams at an
eavesdropper that treats the jamming as noise.  Sweeping the transmit
power over several decades and fitting rate against ``log2 P`` turns
the closed-form degrees-of-freedom predictions into measurable slopes:
every interference-free real stream contributes half a bit per ``log2
P`` unit, two of them one complex degree of freedom, so the
secrecy-rate slope estimates the sum secure DoF directly.

The Monte-Carlo secrecy quantity is the receiver rate minus the worst
eavesdropper's leakage, a finite-power surrogate for the achievable
secrecy sum rate; the coset-binning codec (see :mod:`sdoflab.binning`),
not this difference, carries the formal secrecy argument.

Conventions: the complex noise variance is 1, so only ``P / sigma^2``
matters; channels, precoders and signals are real (see
:mod:`sdoflab.model`), and a real noise dimension has variance 1/2, so
the covariances are ``I + 2 (P/d) W W'`` and the rates, bits per
complex channel use, are their log-dets halved; each transmitter splits
its per-use budget ``P`` into ``alpha * P`` for jamming (equally across
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
stacks (:func:`~sdoflab.precoders.build_precoder_set` verifies each, and
a failed build is its :class:`~sdoflab.precoders.GeometryError`), forms
each trial's grams once (of the receiver images ``U H_i V_i^L`` and of
every eavesdropper's images of the jamming and of the streams), then
stacks the covariances that the powers scale from them and their
log-dets over trials and powers, and adds the per-trial results to
running sums in trial order.  Each trial keeps its
own streams and numpy factors each matrix of a stack alone, so the results
do not depend on the block length.  The engine reproduces bit for bit a
one-trial, one-power reference, ``receiver_rate`` and
``eavesdropper_leakage`` in ``tests/test_rates.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matlin import logdet_hpd
from .model import (TrialStreams, canonical, is_integer, is_number,
                    sample_channels, sample_eves)
from .precoders import build_precoder_set, build_unjammed_set
from .regions import jamming_plan


BLOCK_BYTES = 32 * 2**20  # stack bytes per block; bounds the working set


@dataclass(frozen=True)
class SweepPoint:
    """Trial-averaged rates at one power level."""

    p: float
    rate_rx: float
    leak_max: float
    secrecy: float


@dataclass(frozen=True)
class SweepResult:
    """Per-power averages, the least-squares fit of their secrecy rate
    against ``log2 P``, and the paired leakage growth between the grid
    endpoints of one sweep.

    ``slope`` is in bits per ``log2 P`` unit, i.e. an empirical DoF.
    """

    points: tuple
    slope: float
    intercept: float
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


def check_inputs(cfg, alpha, p_grid, trials, eve_counts):
    """Check the values of :func:`sweep` as its docstring states them, in
    its order, with a one-line ``ValueError`` (a bool is neither a number
    nor an integer), and return the powers as floats and the eavesdropper
    counts, both as lists."""
    p_grid, eve_counts = list(p_grid), list(eve_counts)
    for v in p_grid:
        if not is_number(v):
            raise ValueError(f"power grid must be finite numbers, got {v!r}")
    p = [float(v) for v in p_grid]
    if len(p) < 4:
        raise ValueError("power grid needs at least 4 points")
    if any(b <= a for a, b in zip(p, p[1:])) or p[0] <= 0:
        raise ValueError("power grid must be positive and strictly increasing")
    if p[-1] < 1e4 * p[0]:
        raise ValueError("power grid must span at least 4 decades")
    if not (is_number(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be a number in (0, 1), got {alpha!r}")
    if not is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for nej in eve_counts:
        if not is_integer(nej):
            raise ValueError(
                f"eavesdropper antenna count must be an integer, got {nej!r}")
        if not 0 <= nej <= cfg.ne:
            raise ValueError(
                f"eavesdropper antenna count {nej} outside [0, {cfg.ne}]")
    return p, eve_counts


def _gram(b):
    """``B B'`` of each matrix ``B`` of a stack."""
    return b @ b.mT


def _build_block(cfg, plan, rngs, eve_counts):
    """Build one block of trials as stacks, and the grams the rate algebra
    needs.

    ``rngs`` holds per trial the generators of its channel, precoder (not
    for the control, where ``plan`` is None) and eavesdropper streams.
    Returns ``(streams, jams, rx, eves)``: per transmitter ``i`` its
    stream and jamming column counts and the grams ``W W'`` of its
    receiver images ``W = ps.rx_images[i]``, and per eavesdropper the
    pair ``(jam, legit)`` of per-transmitter grams ``B B'`` of its images
    ``B = G_i V_i`` of the jamming and of the streams.
    """
    ch_rngs, *pc_rngs, eve_rngs = zip(*rngs)
    h1, h2 = sample_channels(cfg, ch_rngs)
    ps = (build_precoder_set(plan, h1, h2, *pc_rngs)
          if plan is not None else build_unjammed_set(h1, h2))
    vl, vj = (ps.v1l, ps.v2l), (ps.v1j, ps.v2j)
    eves = [([_gram(g @ v) for g, v in zip(pair, vj)],
             [_gram(g @ v) for g, v in zip(pair, vl)])
            for pair in sample_eves(cfg, eve_counts, eve_rngs)]
    return ([v.shape[-1] for v in vl], [v.shape[-1] for v in vj],
            [_gram(w) for w in ps.rx_images], eves)


def _covariance(base, grams, cols, power):
    """``base + sum_i (2 power / cols_i) G_i`` over the transmitters with
    columns, with the powers on axis 1 after the trials.

    ``power`` is one transmitter's budget for these columns, split equally
    across them; a real noise dimension has variance 1/2, hence the 2.
    Nothing is symmetrized: the sum is as symmetric as its grams (numpy's
    ``B @ B.T`` is exactly so in practice), ``logdet_hpd`` checks that
    to 1e-10, and its Cholesky factor reads the lower triangle.
    """
    for g, d in zip(grams, cols):
        if d:
            term = (2 * power / d)[:, None, None] * g[:, None]
            term += base
            base = term
    return base


def _block_receiver_rates(streams, grams, legit_p):
    """Receiver rates of a block, shape ``(trials, powers)``.

    The arithmetic is that of the one-trial reference ``receiver_rate`` in
    ``tests/test_rates.py``, stacked over trials and powers.
    """
    gram = _covariance(np.eye(grams[0].shape[-1]), grams, streams, legit_p)
    return logdet_hpd(gram) / (2 * math.log(2))


def _block_leakage(streams, jams, eve, alpha, p, legit_p):
    """Leakage of one eavesdropper over a block, shape ``(trials, len(p))``.

    ``eve`` is its ``(jam, legit)`` pair of grams from `_build_block`.
    Column ``k`` evaluates each trial's draw at power ``p[k]``, of which
    ``legit_p[k]`` goes to the streams.  The arithmetic is that of the
    one-trial reference ``eavesdropper_leakage`` in
    ``tests/test_rates.py``, stacked over trials and powers.
    """
    jam, legit = eve
    k0 = _covariance(np.eye(jam[0].shape[-1]), jam, jams, alpha * p)
    k1 = _covariance(k0, legit, streams, legit_p)
    return (logdet_hpd(k1) - logdet_hpd(k0)) / (2 * math.log(2))


def _trial_bytes(cfg, eve_counts, n_pow):
    """Bytes of the real stacks that one trial adds to a block.

    Per power: a receiver covariance of ``2 n`` rows (an upper bound on
    ``U``'s rows) with one more of its size, a term in
    :func:`_covariance` or a factor in ``logdet_hpd``; then, once the
    rates are taken, the largest eavesdropper's covariances ``K0`` and
    ``K1`` with one more of their size.  Once: the channels and receiver
    images, a square precoder per transmit dimension, the receiver
    matrix and grams, and every eavesdropper's grams.  Plus 2 KiB for
    the trial's seeds and generators, which outweigh its stacks on small
    configs.
    """
    rx, tx = 2 * cfg.n, 2 * cfg.m
    eves = [2 * nej for nej in eve_counts]
    per_power = max(2 * rx * rx, 3 * max(eves, default=0) ** 2)
    once = 2 * rx * tx + tx * tx + 3 * rx * rx + 4 * sum(e * e for e in eves)
    return 8 * (n_pow * per_power + once) + 2048


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
    powers = np.array(p_values, dtype=float)
    block = max(1, BLOCK_BYTES // _trial_bytes(cfg, eve_counts, len(powers)))

    streams = TrialStreams(seed, trials)  # raises on a bad seed or count
    for start in range(0, trials, block):
        size = min(block, trials - start)
        rngs = streams.block(start, size, (0, 1, 2) if jamming else (0, 2))
        legit, jams, grams, eves = _build_block(cfg, plan, rngs, eve_counts)
        del rngs  # the block's draws are taken; free its generators
        legit_p = (1.0 - alpha) * powers if sum(jams) else powers
        rates = _block_receiver_rates(legit, grams, legit_p)
        leaks = np.zeros((size, len(powers), len(eve_counts)))
        for j, eve in enumerate(eves):
            leaks[:, :, j] = _block_leakage(legit, jams, eve, alpha, powers,
                                            legit_p)
        del grams, eves  # hold one block's stacks at a time
        yield rates, leaks


def sweep(cfg, alpha, p_grid, trials, seed, *, eve_counts=None, jamming=True):
    """Monte-Carlo secrecy-rate sweep over a power grid.

    Each trial draws a fresh legitimate channel and fresh static
    eavesdroppers and evaluates them at every power, so the
    powers share their random numbers and each power's mean is still
    unbiased.  The per-power secrecy surrogate is the trial average of
    the receiver rate minus the worst eavesdropper's leakage; its slope
    over ``log2 P`` estimates the sum secure DoF.  ``leakage_delta`` is
    the mean leakage at ``p_grid[-1]`` minus that at ``p_grid[0]``,
    maximized over eavesdroppers; with jamming it saturates, without it
    grows like ``ne * log2(p_grid[-1] / p_grid[0])``.  It depends on the
    two ends of the grid only.

    ``p_grid``, ``alpha``, ``trials`` and ``eve_counts`` are checked, in
    that order, by :func:`check_inputs` before the first block is built.

    Parameters
    ----------
    cfg : AntennaConfig
    alpha : float
        Jamming power fraction, in (0, 1).
    p_grid : iterable of numbers
        At least 4 finite, positive, strictly increasing powers spanning
        >= 4 decades.
    trials : int
        At least 1.  After these checks, still before the first block
        is built, a degenerate configuration with jamming raises
        :class:`~sdoflab.regions.DegenerateConfig`.
    seed : int
    eve_counts : iterable of int, optional
        Each an integer in ``[0, cfg.ne]``.  Defaults to a single
        worst-case eavesdropper with ``cfg.ne`` antennas.
    jamming : bool
        With ``False``, builds the jamming-free negative control: every
        transmit dimension carries a stream and no zero-forcing is done.
    """
    if eve_counts is None:
        eve_counts = [cfg.ne] if cfg.ne > 0 else []
    p_values, eve_counts = check_inputs(cfg, alpha, p_grid, trials, eve_counts)
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
    rate_sum, leak_sum = total[:n_pow], total[n_pow:2 * n_pow]
    lo_sum, hi_sum = total[2 * n_pow:][:n_eve], total[2 * n_pow + n_eve:]

    rate_mean = rate_sum / trials
    leak_mean = leak_sum / trials
    secrecy = rate_mean - leak_mean
    points = tuple(
        SweepPoint(p, float(r), float(l), float(s))
        for p, r, l, s in zip(p_values, rate_mean, leak_mean, secrecy))
    delta = float(((hi_sum - lo_sum) / trials).max()) if eve_counts else 0.0
    slope, intercept = fit_slope(p_values, secrecy)
    return SweepResult(points, slope, intercept, delta)
