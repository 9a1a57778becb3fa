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

Conventions: the engine's noise variance is 1, so only ``P / sigma^2``
matters; rates are bits per channel use (log-dets over an extended
block are divided by the extension factor); each transmitter splits its
per-use budget ``P`` into ``alpha * P`` for jamming (equally across
jamming columns) and ``(1 - alpha) * P`` for streams (equally across
streams).  Trials use independently derived seeds, so results do not
depend on evaluation order.

The trial engine behind :func:`sweep` and :func:`leakage_saturation`
builds each trial's channels and precoder set alone, then evaluates
blocks of ``TRIAL_BLOCK`` trials at once: the receiver grams (of the
images ``U H_i V_i^L`` kept on the precoder set), the eavesdropper
covariances and their log-dets are stacked over trials, powers and
draws, and the per-trial results are summed in trial order.
Only one block is held at a time, so the working set does not grow with
the number of trials.  :func:`receiver_rate` and
:func:`eavesdropper_leakage` are the one-trial, one-power reference
that the engine reproduces bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matlin import as_matrix, logdet_hpd
from .model import (PowerPolicy, canonical, sample_channels, sample_eves,
                    validate)
from .precoders import build_precoder_set, build_unjammed_set, extend_channel
from .regions import jamming_plan


TRIAL_BLOCK = 8  # trials per stacked evaluation; bounds the working set


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
    if ps.geometry is None or not ps.geometry.passed:
        raise GeometryNotVerified("run verify_geometry before computing rates")


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
    _require_geometry(ps)
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


def _ct(x):
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return x.conj().swapaxes(-2, -1)


def _build_block(cfg, plan, ext, seeds, eve_counts, n_pow, eve_mean,
                 eve_var):
    """Build one block of trials and stack what the rate algebra needs.

    Returns ``(vl, vj, grams, eves)``.  Per transmitter ``i``, ``vl[i]``
    and ``vj[i]`` stack the trials' legitimate and jamming precoders with
    an axis for the powers, shape ``(trials, 1, rows, cols)``, and
    ``grams[i]`` stacks the grams ``W W'`` of ``W = ps.rx_images[i]``.
    ``eves[j][i]`` stacks eavesdropper ``j``'s draws for every power,
    shape ``(trials, powers, rows, cols)``.
    """
    vl, vj, grams, eves = ([], []), ([], []), ([], []), []
    for trial_ss in seeds:
        ch_ss, pc_ss, eve_ss = trial_ss.spawn(3)
        ch = sample_channels(cfg, [], 1.0, ch_ss)
        ps = (build_precoder_set(plan, ch.h1, ch.h2, pc_ss)
              if plan is not None else build_unjammed_set(ch.h1, ch.h2))
        _require_geometry(ps)
        for i, (w, v_l, v_j) in enumerate(zip(ps.rx_images, (ps.v1l, ps.v2l),
                                              (ps.v1j, ps.v2j))):
            grams[i].append(w @ w.conj().T)
            vl[i].append(v_l)
            vj[i].append(v_j)
        eves.append(sample_eves(cfg, eve_counts,
                                np.random.default_rng(eve_ss), slots=ext,
                                mean=eve_mean, var=eve_var, draws=n_pow))
    return ([np.stack(v)[:, None] for v in vl],
            [np.stack(v)[:, None] for v in vj],
            [np.stack(g) for g in grams],
            [[np.stack([tr[j][i] for tr in eves]) for i in (0, 1)]
             for j in range(len(eve_counts))])


def _block_receiver_rates(vl, grams, ext, legit_p):
    """Receiver rates of a block, shape ``(trials, powers)``.

    The powers only scale each trial's grams.  The arithmetic is
    :func:`receiver_rate`'s, stacked over trials and powers.
    """
    # In place, to hold fewer (trials, powers, d, d) arrays at once.  The
    # operands and their order are receiver_rate's, so the results are too.
    gram = np.eye(grams[0].shape[-1], dtype=complex)
    for v, g in zip(vl, grams):
        d = v.shape[-1]
        if d:
            term = (ext * legit_p / d)[:, None, None] * g[:, None]
            term += gram
            gram = term
    gram += _ct(gram)
    gram *= 0.5
    return logdet_hpd(gram) / (ext * math.log(2))


def _block_leakage(vl, vj, g_pair, draw_of, ext, alpha, p, legit_p):
    """Leakage of one eavesdropper over a block, shape ``(trials, len(p))``.

    Column ``k`` evaluates draw ``draw_of[k]`` at power ``p[k]``, of
    which ``legit_p[k]`` goes to the streams.  The arithmetic is
    :func:`eavesdropper_leakage`'s, stacked over trials and draws.
    """
    if any(g.shape[-1] != v.shape[-2] for g, v in zip(g_pair, vl)):
        raise ValueError("eavesdropper matrices do not match the precoder "
                         "extension; sample them with slots=extension")
    lead = g_pair[0].shape[:1] + (len(p), g_pair[0].shape[-2])
    if lead[-1] == 0:
        return np.zeros(lead[:-1])

    def images(vs, scale):
        # hstack of sqrt(scale / cols) * G_i V_i over the transmitters.
        cols = [np.zeros(lead + (0,), dtype=complex)]
        for g, v in zip(g_pair, vs):
            if v.shape[-1]:
                img = np.take(g @ v, draw_of, axis=1)
                img *= np.sqrt(scale / v.shape[-1])[:, None, None]
                cols.append(img)
        return np.concatenate(cols, axis=-1)

    # In place, so that few (trials, draws, rows, rows) arrays are held
    # at once.  Each sum keeps eavesdropper_leakage's operands.
    bj = images(vj, ext * alpha * p)
    k0 = bj @ _ct(bj)
    del bj
    k0 += np.eye(lead[-1], dtype=complex)
    bl = images(vl, ext * legit_p)
    k1 = bl @ _ct(bl)
    del bl
    k1 += k0
    for k in (k0, k1):
        k += _ct(k)
        k *= 0.5
    ld1 = logdet_hpd(k1)
    del k1
    return (ld1 - logdet_hpd(k0)) / (ext * math.log(2))


def _trial_results(cfg, alpha, p_values, trials, seed, eve_counts, jamming,
                   eve_mean, eve_var):
    """Per-trial rates and leakage, yielded as ``(rates, leaks)`` in trial order.

    Each trial builds its legitimate channel and precoder set once and
    draws fresh eavesdroppers for every power in one RNG call.
    ``rates[k]`` is the receiver rate at ``p_values[k]``; ``leaks[k, j]``
    is eavesdropper ``j``'s leakage on draw ``k`` at ``p_values[k]``, and
    the extra last row ``leaks[-1]`` evaluates the first draw at the last
    power, which pairs the two grid endpoints on the same eavesdroppers.
    Trials are built one by one and evaluated in blocks of
    ``TRIAL_BLOCK``.
    """
    cfg = canonical(cfg)
    plan = jamming_plan(cfg) if jamming else None
    ext = plan.extension if jamming else 1
    for p in p_values:
        PowerPolicy(p=p, alpha=alpha)  # raises on a bad power or alpha
    p_all = np.array(list(p_values) + [p_values[-1]], dtype=float)
    draw_of = list(range(len(p_values))) + [0]

    root = np.random.SeedSequence(seed)
    for start in range(0, trials, TRIAL_BLOCK):
        seeds = root.spawn(min(TRIAL_BLOCK, trials - start))
        vl, vj, grams, eves = _build_block(cfg, plan, ext, seeds, eve_counts,
                                           len(p_values), eve_mean, eve_var)
        has_jam = vj[0].shape[-1] + vj[1].shape[-1] > 0
        legit_p = (1.0 - alpha) * p_all if has_jam else p_all
        rates = _block_receiver_rates(vl, grams, ext, legit_p[:-1])
        leaks = np.zeros((len(seeds), len(p_all), len(eve_counts)))
        for j, g_pair in enumerate(eves):
            leaks[:, :, j] = _block_leakage(vl, vj, g_pair, draw_of, ext,
                                            alpha, p_all, legit_p)
        del vl, vj, grams, eves  # hold one block's stacks at a time
        yield from zip(rates, leaks)


def _run_trials(cfg, alpha, p_values, trials, seed, eve_counts, jamming,
                eve_mean, eve_var):
    """Sum :func:`_trial_results` into a :class:`SweepResult`."""
    if eve_counts is None:
        eve_counts = [cfg.ne] if cfg.ne > 0 else []
    n_pow = len(p_values)
    rate_sum = np.zeros(n_pow)
    leak_sum = np.zeros(n_pow)
    lo_sum = np.zeros(len(eve_counts))
    hi_sum = np.zeros(len(eve_counts))
    for rates, leaks in _trial_results(cfg, alpha, p_values, trials, seed,
                                       eve_counts, jamming, eve_mean, eve_var):
        rate_sum += rates
        if eve_counts:
            leak_sum += leaks[:n_pow].max(axis=1)
        lo_sum += leaks[0]
        hi_sum += leaks[-1]

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
          eve_counts=None, jamming=True, eve_mean=0.0, eve_var=1.0):
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
                       jamming, eve_mean, eve_var)


def leakage_saturation(cfg, alpha, p_lo, p_hi, trials, seed, *,
                       eve_counts=None, jamming=True, eve_mean=0.0,
                       eve_var=1.0):
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
                       jamming, eve_mean, eve_var).leakage_delta
