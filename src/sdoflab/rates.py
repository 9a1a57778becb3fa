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

The Monte-Carlo secrecy quantity is ``receiver_rate - max_j leakage_j``,
a finite-power surrogate for the achievable secrecy sum rate; the
random-binning codec (see :mod:`sdoflab.binning`), not this difference,
carries the formal secrecy argument.

Conventions: noise variance defaults to 1 and only ``P / sigma^2``
matters; rates are bits per channel use (log-dets over an extended
block are divided by the extension factor); each transmitter splits its
per-use budget ``P`` into ``alpha * P`` for jamming (equally across
jamming columns) and ``(1 - alpha) * P`` for streams (equally across
streams).  Trials use independently derived seeds, so results do not
depend on evaluation order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matlin import as_matrix, logdet_hpd
from .model import (ChannelRealization, PowerPolicy, canonical,
                    sample_channels, sample_eves, validate)
from .precoders import build_precoder_set, build_unjammed_set, extend_channel
from .regions import jamming_plan


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


def _legit_power(ps, pol):
    # With no jamming columns the whole budget goes to the streams.
    has_jam = ps.v1j.shape[1] + ps.v2j.shape[1] > 0
    return (1.0 - pol.alpha) * pol.p if has_jam else pol.p


def receiver_rate(ps, ch, pol):
    """Post-zero-forcing sum rate of the legitimate streams, bits per use.

    Computes ``logdet(I + sum_i U H_i V_i^L Q_i V_i^L' H_i' U' / s2)``
    over the extended block and normalizes by the extension factor.
    Per-stream power is the legitimate budget divided equally across the
    transmitter's streams.  Jamming contributes nothing: the zero-forced
    residual is below the geometry tolerance.

    Raises
    ------
    GeometryNotVerified
        If ``ps`` has no geometry report or the report failed.
    """
    if ps.geometry is None or not ps.geometry.passed:
        raise GeometryNotVerified("run verify_geometry before computing rates")
    ext = ps.extension
    legit_p = _legit_power(ps, pol)
    gram = np.eye(ps.u.shape[0], dtype=complex)
    for h, vl in ((ch.h1, ps.v1l), (ch.h2, ps.v2l)):
        d = vl.shape[1]
        if d == 0:
            continue
        he = extend_channel(h, ext)
        w = ps.u @ (he @ vl)
        gram = gram + (ext * legit_p / d / ch.noise_var) * (w @ w.conj().T)
    gram = 0.5 * (gram + gram.conj().T)
    return logdet_hpd(gram) / (ext * math.log(2))


def eavesdropper_leakage(ps, ch, pol, eve_index):
    """Gaussian MI of the legitimate streams at one eavesdropper, bits per use.

    The eavesdropper treats the received jamming as noise:
    ``logdet(I + G_L Q_L G_L' (s2 I + G_J Q_J G_J')^{-1})``, evaluated
    as a difference of two log-dets.  The eavesdropper matrices in
    ``ch.eves`` must match the precoder extension (block-diagonal lift
    with one independent block per slot).
    """
    ext = ps.extension
    g1, g2 = ch.eves[eve_index]
    g1, g2 = as_matrix(g1), as_matrix(g2)
    if g1.shape[1] != ps.v1l.shape[0] or g2.shape[1] != ps.v2l.shape[0]:
        raise ValueError("eavesdropper matrices do not match the precoder "
                         "extension; sample them with slots=extension")
    rows = g1.shape[0]
    if rows == 0:
        return 0.0
    legit_p = _legit_power(ps, pol)

    legit_cols = [np.zeros((rows, 0), dtype=complex)]
    jam_cols = [np.zeros((rows, 0), dtype=complex)]
    for g, vl, vj in ((g1, ps.v1l, ps.v1j), (g2, ps.v2l, ps.v2j)):
        if vl.shape[1]:
            legit_cols.append(math.sqrt(ext * legit_p / vl.shape[1]) * (g @ vl))
        if vj.shape[1]:
            jam_cols.append(
                math.sqrt(ext * pol.alpha * pol.p / vj.shape[1]) * (g @ vj))
    bl = np.hstack(legit_cols)
    bj = np.hstack(jam_cols)

    k0 = ch.noise_var * np.eye(rows, dtype=complex) + bj @ bj.conj().T
    k1 = k0 + bl @ bl.conj().T
    k0 = 0.5 * (k0 + k0.conj().T)
    k1 = 0.5 * (k1 + k1.conj().T)
    return (logdet_hpd(k1) - logdet_hpd(k0)) / (ext * math.log(2))


def _check_grid(p_grid):
    p = [float(v) for v in p_grid]
    if len(p) < 4:
        raise ValueError("power grid needs at least 4 points")
    if any(b <= a for a, b in zip(p, p[1:])) or p[0] <= 0:
        raise ValueError("power grid must be positive and strictly increasing")
    if p[-1] < 1e4 * p[0]:
        raise ValueError("power grid must span at least 4 decades")
    return p


def _run_trials(cfg, alpha, p_values, trials, seed, eve_counts, jamming,
                noise_var, eve_mean, eve_var):
    """The trial loop behind :func:`sweep` and :func:`leakage_saturation`.

    Each trial builds its legitimate channel and precoder set once and
    draws fresh eavesdroppers at every power.  The first power's draw is
    also evaluated at the last power, so ``leakage_delta`` pairs the two
    grid endpoints on the same eavesdroppers.
    """
    cfg = canonical(cfg)
    plan = jamming_plan(cfg) if jamming else None
    ext = plan.extension if jamming else 1
    if eve_counts is None:
        eve_counts = [cfg.ne] if cfg.ne > 0 else []
    pols = [PowerPolicy(p=p, alpha=alpha) for p in p_values]

    rate_sum = np.zeros(len(pols))
    leak_sum = np.zeros(len(pols))
    lo_sum = np.zeros(len(eve_counts))
    hi_sum = np.zeros(len(eve_counts))
    for trial_ss in np.random.SeedSequence(seed).spawn(trials):
        ch_ss, pc_ss, eve_ss = trial_ss.spawn(3)
        ch = sample_channels(cfg, [], noise_var, ch_ss)
        ps = (build_precoder_set(plan, ch.h1, ch.h2, pc_ss) if jamming
              else build_unjammed_set(ch.h1, ch.h2))
        eve_rng = np.random.default_rng(eve_ss)
        for k, pol in enumerate(pols):
            eves = sample_eves(cfg, eve_counts, eve_rng, slots=ext,
                               mean=eve_mean, var=eve_var)
            ch_p = ChannelRealization(ch.h1, ch.h2, eves, noise_var)
            rate_sum[k] += receiver_rate(ps, ch_p, pol)
            leaks = [eavesdropper_leakage(ps, ch_p, pol, j)
                     for j in range(len(eves))]
            if leaks:
                leak_sum[k] += max(leaks)
            if k == 0:
                lo_sum += leaks
                hi_sum += [eavesdropper_leakage(ps, ch_p, pols[-1], j)
                           for j in range(len(eves))]

    rate_mean = rate_sum / trials
    leak_mean = leak_sum / trials
    secrecy = rate_mean - leak_mean
    points = tuple(
        SweepPoint(p, float(r), float(l), float(s))
        for p, r, l, s in zip(p_values, rate_mean, leak_mean, secrecy))
    delta = float(((hi_sum - lo_sum) / trials).max()) if eve_counts else 0.0
    return SweepResult(points=points, curve=make_curve(p_values, secrecy),
                       leakage_delta=delta)


def sweep(cfg, alpha, p_grid, trials, seed, *,
          eve_counts=None, jamming=True, noise_var=1.0,
          eve_mean=0.0, eve_var=1.0):
    """Monte-Carlo secrecy-rate sweep over a power grid.

    For each trial a fresh legitimate channel is drawn and held constant
    across the sweep; eavesdropper channels are redrawn at every power
    level (time-varying model).  The per-power secrecy surrogate is the
    trial average of ``receiver_rate - max_j leakage_j``; its slope over
    ``log2 P`` estimates the sum secure DoF.  ``leakage_delta`` equals
    ``leakage_saturation`` between ``p_grid[0]`` and ``p_grid[-1]``.

    With jamming, degenerate configurations return a flat all-zero curve
    and ``leakage_delta`` 0; the jamming-free control runs as usual.

    Parameters
    ----------
    cfg : AntennaConfig
    alpha : float
        Jamming power fraction.
    p_grid : sequence of float
        At least 4 strictly increasing powers spanning >= 4 decades.
    trials : int
    seed : int
    eve_counts : sequence of int, optional
        Defaults to a single worst-case eavesdropper with ``cfg.ne``
        antennas.
    jamming : bool
        With ``False``, builds the jamming-free negative control: every
        transmit dimension carries a stream and no zero-forcing is done.
    """
    p_values = _check_grid(p_grid)
    if validate(cfg) == "degenerate" and jamming:
        flat = RateCurve(tuple((p, 0.0) for p in p_values), 0.0, 0.0)
        return SweepResult(tuple(SweepPoint(p, 0.0, 0.0, 0.0) for p in p_values),
                           flat, leakage_delta=0.0)
    return _run_trials(cfg, alpha, p_values, trials, seed, eve_counts,
                       jamming, noise_var, eve_mean, eve_var)


def leakage_saturation(cfg, alpha, p_lo, p_hi, trials, seed, *,
                       eve_counts=None, jamming=True, noise_var=1.0,
                       eve_mean=0.0, eve_var=1.0):
    """Leakage growth between two power levels, maximized over eavesdroppers.

    Returns ``mean leakage(p_hi) - mean leakage(p_lo)`` over ``trials``
    paired eavesdropper draws.  With jamming on, the jamming power
    tracks the signal power, so the eavesdropper's rate saturates and
    the delta stays small; without jamming it grows like
    ``ne * log2(p_hi / p_lo)``.
    """
    if p_hi < 100.0 * p_lo:
        raise ValueError("p_hi must be at least 100x p_lo")
    return _run_trials(cfg, alpha, [p_lo, p_hi], trials, seed, eve_counts,
                       jamming, noise_var, eve_mean, eve_var).leakage_delta
