import math
import tracemalloc

import numpy as np
import pytest

from sdoflab import rates as rates_mod
from sdoflab.matlin import logdet_hpd
from sdoflab.model import (AntennaConfig, InvalidEveCount, canonical,
                           eve_image, sample_channels, sample_eves)
from sdoflab.precoders import GeometryReport, PrecoderSet, build_precoder_set, \
    build_unjammed_set, extend_channel
from sdoflab.rates import (GeometryNotVerified, RateCurve, _require_geometry,
                           fit_slope, make_curve, sweep)
from sdoflab.regions import DegenerateConfig, jamming_plan

P_GRID = [10.0 ** k for k in range(3, 10)]
SATURATION_GRID = [10.0 ** k for k in range(5, 10)]  # 1e5 .. 1e9


# The one-trial, one-power reference that TestBlockEngineOracle compares
# the stacked engine against with ==.  Each transmitter spends
# ``alpha * p`` on jamming and the rest on its streams.

def _legit_power(ps, p, alpha):
    # With no jamming columns the whole budget goes to the streams.
    has_jam = ps.v1j.shape[1] + ps.v2j.shape[1] > 0
    return (1.0 - alpha) * p if has_jam else p


def receiver_rate(ps, hs, p, alpha=0.5):
    """Post-zero-forcing sum rate of the legitimate streams, bits per use.

    Computes ``logdet(I + sum_i U H_i V_i^L Q_i V_i^L' H_i' U')`` (unit
    noise) over the extended block for the channels ``hs = (h1, h2)``
    and normalizes by the extension factor.  Per-stream power is the
    legitimate budget divided equally across the transmitter's streams.
    Jamming contributes nothing: the zero-forced residual is below the
    geometry tolerance.  Raises ``GeometryNotVerified`` if ``ps`` has no
    geometry report or the report failed.
    """
    _require_geometry(ps)
    ext = ps.extension
    legit_p = _legit_power(ps, p, alpha)
    gram = np.eye(ps.u.shape[0], dtype=complex)
    for h, vl in zip(hs, (ps.v1l, ps.v2l)):
        d = vl.shape[1]
        if d == 0:
            continue
        he = extend_channel(h, ext)
        w = ps.u @ (he @ vl)
        gram = gram + (ext * legit_p / d) * (w @ w.conj().T)
    gram = 0.5 * (gram + gram.conj().T)
    return logdet_hpd(gram) / (ext * math.log(2))


def eavesdropper_leakage(ps, g_pair, p, alpha=0.5):
    """Gaussian MI of the legitimate streams at one eavesdropper, bits per use.

    The eavesdropper treats the received jamming as noise:
    ``logdet(I + G_L Q_L G_L' (I + G_J Q_J G_J')^{-1})``, evaluated
    as a difference of two log-dets.  ``g_pair`` holds its per-slot
    blocks ``(slots, nej, m_i)``, one slot per symbol of the precoder
    extension; another slot count raises ``ValueError``.
    """
    ext = ps.extension

    def images(vs, power):
        # hstack of sqrt(power / cols) * G_i V_i; an empty V_i gives an
        # empty image, so max(cols, 1) only keeps 0 / 0 out.
        return np.hstack([math.sqrt(power / max(v.shape[1], 1))
                          * eve_image(g, v) for g, v in zip(g_pair, vs)])

    bl = images((ps.v1l, ps.v2l), ext * _legit_power(ps, p, alpha))
    bj = images((ps.v1j, ps.v2j), ext * alpha * p)
    k0 = np.eye(len(bj), dtype=complex) + bj @ bj.conj().T
    k1 = k0 + bl @ bl.conj().T
    k0 = 0.5 * (k0 + k0.conj().T)
    k1 = 0.5 * (k1 + k1.conj().T)
    return (logdet_hpd(k1) - logdet_hpd(k0)) / (ext * math.log(2))


def scalar_precoder_set():
    """1x1 surrogate: unit channel, one stream, no jamming."""
    one = np.ones((1, 1), dtype=complex)
    empty = np.zeros((1, 0), dtype=complex)
    ps = PrecoderSet(v1l=one, v2l=empty, v1j=empty, v2j=empty,
                     u=one, extension=1)
    ps.geometry = GeometryReport(0.0, 0.0, 0.0, 1, 1, True)
    return ps


def one_trial(cfg, eve_counts, ch_seed, pc_seed, jamming=True):
    """One trial's channels ``(h1, h2)``, unextended eavesdropper pairs
    drawn from seed 0, and precoder set, as plain matrices."""
    h1, h2 = sample_channels(cfg, [ch_seed])
    ps = (build_precoder_set(jamming_plan(cfg), h1, h2, [pc_seed])
          if jamming else build_unjammed_set(h1, h2))
    eves = [(g1[0], g2[0]) for g1, g2 in sample_eves(cfg, eve_counts, [0])]
    one = PrecoderSet(ps.v1l[0], ps.v2l[0], ps.v1j[0], ps.v2j[0], ps.u[0],
                      ps.extension, ps.geometry)
    return (h1[0], h2[0]), eves, one


def scalar_channel():
    one = np.ones((1, 1), dtype=complex)
    return one, one


class TestReceiverRate:
    def test_scalar_closed_form(self):
        ps = scalar_precoder_set()
        hs = scalar_channel()
        for p in (1.0, 10.0, 1e3, 1e6):
            rate = receiver_rate(ps, hs, p, alpha=0.5)
            assert rate == pytest.approx(math.log2(1 + p), rel=1e-12)

    def test_vanishing_power_limit(self):
        ps = scalar_precoder_set()
        rate = receiver_rate(ps, scalar_channel(), 1e-30)
        assert 0.0 <= rate < 1e-9

    def test_requires_verified_geometry(self):
        ps = scalar_precoder_set()
        ps.geometry = None
        with pytest.raises(GeometryNotVerified):
            receiver_rate(ps, scalar_channel(), 1.0)

    def test_monotone_in_power(self):
        hs, _, ps = one_trial(AntennaConfig(2, 2, 4, 1), [], 4, 5)
        rates = [receiver_rate(ps, hs, p, alpha=0.5) for p in P_GRID]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestEavesdropperLeakage:
    def test_zero_legitimate_power(self):
        _, (g_pair,), ps = one_trial(AntennaConfig(2, 2, 4, 1), [1], 4, 5)
        silent = PrecoderSet(v1l=ps.v1l[:, :0], v2l=ps.v2l[:, :0],
                             v1j=ps.v1j, v2j=ps.v2j, u=ps.u,
                             extension=ps.extension, geometry=ps.geometry)
        assert eavesdropper_leakage(silent, g_pair, 1e6, alpha=0.5) == 0.0

    def test_unjammed_leakage_grows_with_power(self):
        # negative control: without jamming a single-antenna eavesdropper
        # gains one bit per doubling of power
        _, (g_pair,), ps = one_trial(AntennaConfig(1, 1, 1, 1), [1], 8, None,
                                     jamming=False)
        gain = (eavesdropper_leakage(ps, g_pair, 1e8)
                - eavesdropper_leakage(ps, g_pair, 1e6))
        assert gain == pytest.approx(math.log2(1e2), rel=0.01)

    def test_extension_mismatch_rejected(self):
        # unextended eavesdropper
        _, (g_pair,), ps = one_trial(AntennaConfig(2, 2, 3, 1), [1], 4, 5)
        with pytest.raises(ValueError):
            eavesdropper_leakage(ps, g_pair, 1e3)


class TestSlopeFit:
    def test_exact_on_synthetic_data(self):
        p = np.array(P_GRID)
        rates = 2.5 * np.log2(p) + 0.75
        slope, intercept = fit_slope(p, rates)
        assert slope == pytest.approx(2.5, abs=1e-9)
        assert intercept == pytest.approx(0.75, abs=1e-9)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RateCurve(points=((2.0, 1.0), (1.0, 2.0)), slope=0.0, intercept=0.0)
        with pytest.raises(ValueError):
            RateCurve(points=((-1.0, 1.0), (1.0, 2.0)), slope=0.0, intercept=0.0)

    def test_make_curve_round_trip(self):
        curve = make_curve(P_GRID, [3.0 * math.log2(p) for p in P_GRID])
        assert curve.slope == pytest.approx(3.0, abs=1e-9)
        assert len(curve.points) == len(P_GRID)


class TestSweep:
    def test_slope_tracks_theory(self):
        res = sweep(AntennaConfig(2, 2, 4, 1), 0.5, P_GRID, 5, 42)
        assert res.curve.slope == pytest.approx(3.0, abs=0.15)

    def test_secrecy_nonnegative_and_components_ordered(self):
        res = sweep(AntennaConfig(2, 2, 3, 1), 0.5, P_GRID, 5, 42)
        for pt in res.points:
            assert pt.secrecy >= 0.0
            assert pt.rate_rx >= pt.secrecy

    def test_degenerate_flat_curve(self):
        # no secure DoF to jam for
        with pytest.raises(DegenerateConfig):
            sweep(AntennaConfig(2, 2, 3, 4), 0.5, P_GRID, 5, 42)

    def test_deterministic_given_seed(self):
        a = sweep(AntennaConfig(2, 2, 3, 1), 0.5, P_GRID, 3, 7)
        b = sweep(AntennaConfig(2, 2, 3, 1), 0.5, P_GRID, 3, 7)
        assert a == b

    def test_grid_validation(self, monkeypatch):
        # Every bad grid or alpha fails before the first block is built.
        sizes = block_sizes(monkeypatch)
        for grid, alpha, match in [
                ([1e3, 1e4, 1e5], 0.5, "at least 4 points"),
                ([1e3, 1e4, 1e5, 1e6], 0.5, "4 decades"),
                ([1e3, 1e4, 1e5, math.inf], 0.5, "finite"),
                ([1e3, math.nan, 1e5, 1e7], 0.5, "finite"),
                ([0.0, 1e4, 1e5, 1e6], 0.5, "positive"),
                (P_GRID, 0.0, "alpha"), (P_GRID, 1.0, "alpha"),
                (P_GRID, math.nan, "alpha")]:
            with pytest.raises(ValueError, match=match):
                sweep(AntennaConfig(2, 2, 4, 1), alpha, grid, 2, 0)
        assert sizes == []

    def test_non_canonical_input_accepted(self):
        a = sweep(AntennaConfig(1, 3, 2, 2), 0.5, P_GRID, 3, 7)
        b = sweep(AntennaConfig(3, 1, 2, 2), 0.5, P_GRID, 3, 7)
        assert a == b


class TestLeakageSaturation:
    def test_jammed_leakage_saturates(self):
        delta = sweep(AntennaConfig(2, 2, 3, 1), 0.5, SATURATION_GRID,
                      20, 42).leakage_delta
        assert 0.0 <= abs(delta) <= 0.5

    @pytest.mark.parametrize("cfg_tuple", [(2, 2, 4, 1), (2, 2, 3, 1),
                                           (3, 3, 2, 1), (3, 1, 2, 3),
                                           (3, 1, 2, 2), (3, 2, 2, 1)])
    def test_leakage_bounded_over_power_grid(self, cfg_tuple):
        # with jamming, mean leakage varies by at most one bit per
        # eavesdropper antenna across the whole grid
        cfg = AntennaConfig(*cfg_tuple)
        res = sweep(cfg, 0.5, P_GRID, 50, 42)
        leaks = [pt.leak_max for pt in res.points]
        assert max(leaks) - min(leaks) <= 1.0 * cfg.ne
        # and the secrecy surrogate stays nonnegative from P = 1e3 up
        assert all(pt.secrecy >= 0.0 for pt in res.points)

    def test_unjammed_leakage_full_dof(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        delta = sweep(cfg, 0.5, SATURATION_GRID, 20, 42,
                      jamming=False).leakage_delta
        expected = cfg.ne * math.log2(1e4)
        assert abs(delta - expected) <= 0.2 * expected

    def test_no_eavesdropper_zero(self):
        assert sweep(AntennaConfig(2, 2, 3, 0), 0.5, SATURATION_GRID,
                     5, 0).leakage_delta == 0.0


class TestTrialEngine:
    @pytest.mark.parametrize("jamming", [True, False])
    @pytest.mark.parametrize("eve_counts", [[], [2], [2, 1]])
    def test_sweep_delta_is_leakage_saturation(self, jamming, eve_counts):
        # The delta is the leakage growth between the grid's two ends
        # alone: a grid with the same ends and fewer points gives it too.
        cfg = AntennaConfig(3, 1, 2, 2)
        full, ends = (sweep(cfg, 0.5, grid, 3, 5, eve_counts=eve_counts,
                            jamming=jamming).leakage_delta
                      for grid in (P_GRID, P_GRID[::2]))
        assert full == ends
        if not eve_counts:
            assert full == 0.0

    @pytest.mark.parametrize("eve_counts", [[-1], [3], [1, 10**9]])
    def test_bad_eve_count_rejected(self, eve_counts):
        with pytest.raises(InvalidEveCount):
            sweep(AntennaConfig(3, 1, 2, 2), 0.5, P_GRID, 3, 5,
                  eve_counts=eve_counts)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_too_few_trials_rejected(self, trials):
        # the degenerate row: the trial count is checked before the config
        for cfg in (AntennaConfig(3, 1, 2, 2), AntennaConfig(2, 2, 3, 4)):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                sweep(cfg, 0.5, P_GRID, trials, 5)

    @pytest.mark.parametrize("jamming", [True, False])
    def test_delta_from_swept_endpoints(self, jamming):
        # one eavesdropper draw per trial serves every power, so the
        # endpoint difference of the swept means is the leakage delta
        cfg = AntennaConfig(3, 1, 2, 2)
        res = sweep(cfg, 0.5, P_GRID, 3, 5, eve_counts=[cfg.ne],
                    jamming=jamming)
        assert res.leakage_delta == pytest.approx(
            res.points[-1].leak_max - res.points[0].leak_max, rel=1e-12)

    def test_degenerate_control_runs(self):
        cfg = AntennaConfig(2, 2, 3, 4)
        res = sweep(cfg, 0.5, P_GRID, 3, 5, jamming=False)
        assert all(pt.rate_rx > 0.0 for pt in res.points)


def scalar_trial_results(cfg, p_values, trials, seed, eve_counts, jamming):
    """The trial engine's per-trial output, rebuilt from the one-trial,
    one-power reference functions on the same seeded draws: one
    eavesdropper draw per trial, evaluated at every power."""
    plan = jamming_plan(cfg) if jamming else None
    ext = plan.extension if jamming else 1
    out = []
    for trial_ss in np.random.SeedSequence(seed).spawn(trials):
        ch_ss, pc_ss, eve_ss = trial_ss.spawn(3)
        hs, _, ps = one_trial(cfg, [], ch_ss, pc_ss, jamming)
        eves = [(g1[0], g2[0]) for g1, g2 in
                sample_eves(cfg, eve_counts, [eve_ss], slots=ext)]
        rates = [receiver_rate(ps, hs, p, 0.5) for p in p_values]
        leaks = [[eavesdropper_leakage(ps, g_pair, p, 0.5)
                  for g_pair in eves] for p in p_values]
        out.append((rates, leaks))
    return out


def set_block(monkeypatch, cfg, jamming, eve_counts, n_pow, block):
    """Shrink ``rates.BLOCK_BYTES`` so that ``cfg`` runs in blocks of
    ``block`` trials."""
    cfg = canonical(cfg)
    plan = jamming_plan(cfg) if jamming else None
    per_trial = rates_mod._trial_bytes(cfg, plan, eve_counts, n_pow)
    monkeypatch.setattr(rates_mod, "BLOCK_BYTES", block * per_trial)


def block_sizes(monkeypatch):
    """Record the number of trials in every block the engine builds."""
    sizes = []
    build = rates_mod._build_block

    def counting(cfg, plan, ext, rngs, eve_counts):
        sizes.append(len(rngs))
        return build(cfg, plan, ext, rngs, eve_counts)

    monkeypatch.setattr(rates_mod, "_build_block", counting)
    return sizes


ACCEPTANCE_CONFIGS = [(2, 2, 4, 1), (2, 2, 3, 1), (3, 3, 2, 1), (3, 1, 2, 3),
                      (3, 1, 2, 2), (3, 2, 2, 1)]


class TestBlockRule:
    """Blocks hold as many trials as fit in ``rates.BLOCK_BYTES``."""

    @pytest.mark.parametrize("jamming", [True, False])
    @pytest.mark.parametrize("cfg_tuple", ACCEPTANCE_CONFIGS)
    def test_acceptance_sweep_is_one_block(self, monkeypatch, cfg_tuple,
                                           jamming):
        sizes = block_sizes(monkeypatch)
        sweep(AntennaConfig(*cfg_tuple), 0.5, P_GRID, 100, 42,
              jamming=jamming)
        assert sizes == [100]

    @pytest.mark.parametrize("jamming", [True, False])
    def test_cli_limit_shape_fits_budget(self, jamming):
        cfg = AntennaConfig(32, 32, 32, 31)
        plan = jamming_plan(cfg) if jamming else None
        if jamming:
            assert plan.extension == 2
        per_trial = rates_mod._trial_bytes(cfg, plan, [31], 32)
        block = rates_mod.BLOCK_BYTES // per_trial
        assert block >= 1
        assert block * per_trial <= rates_mod.BLOCK_BYTES

    def test_cli_limit_working_set_within_budget(self):
        cfg = AntennaConfig(32, 32, 32, 31)
        grid = np.logspace(3, 9, 32)
        sweep(cfg, 0.5, grid, 1, 1)  # first-call imports and caches
        tracemalloc.start()
        try:
            sweep(cfg, 0.5, grid, 8, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rates_mod.BLOCK_BYTES

    def test_budget_splits_trials_in_order(self, monkeypatch):
        cfg = AntennaConfig(3, 1, 2, 2)
        set_block(monkeypatch, cfg, True, [2], len(P_GRID), 4)
        sizes = block_sizes(monkeypatch)
        sweep(cfg, 0.5, P_GRID, 10, 42)
        assert sizes == [4, 4, 2]


class TestSeedBoundary:
    """A seed or trial count that the trial streams refuse fails before
    the first trial is built."""

    @pytest.mark.parametrize("jamming", [True, False])
    @pytest.mark.parametrize("seed,trials,error", [
        (-1, 3, ValueError), (1.5, 3, TypeError), ("5", 3, TypeError),
        (None, 3, TypeError), (5, 2**32 + 1, ValueError)])
    def test_rejected_before_any_trial(self, monkeypatch, seed, trials,
                                       error, jamming):
        sizes = block_sizes(monkeypatch)
        cfg = AntennaConfig(3, 1, 2, 2)
        with pytest.raises(error):
            sweep(cfg, 0.5, P_GRID, trials, seed, jamming=jamming)
        assert sizes == []


class TestBlockEngineOracle:
    """The stacked engine equals the scalar reference bit for bit."""

    @pytest.mark.parametrize("jamming", [True, False])
    @pytest.mark.parametrize("cfg_tuple,eve_counts", [
        ((3, 1, 2, 2), [0, 1, 2]),   # two-slot extension
        ((2, 2, 4, 1), [1]),
    ])
    def test_equals_scalar_reference(self, monkeypatch, cfg_tuple, eve_counts,
                                     jamming):
        cfg = AntennaConfig(*cfg_tuple)
        block = 8
        trials = block + 1
        set_block(monkeypatch, cfg, jamming, eve_counts, len(P_GRID), block)
        if jamming and cfg_tuple == (3, 1, 2, 2):
            assert jamming_plan(cfg).extension == 2
        got = [trial for rates, leaks in rates_mod._trial_results(
                   cfg, 0.5, P_GRID, trials, 9, eve_counts, jamming)
               for trial in zip(rates, leaks)]
        want = scalar_trial_results(cfg, P_GRID, trials, 9, eve_counts,
                                    jamming)
        assert len(got) == len(want) == trials
        for (rates, leaks), (ref_rates, ref_leaks) in zip(got, want):
            assert rates.tolist() == ref_rates
            assert leaks.tolist() == ref_leaks

    @pytest.mark.parametrize("jamming", [True, False])
    @pytest.mark.parametrize("cfg_tuple", [(3, 1, 2, 2), (2, 2, 3, 1)])
    def test_independent_of_block_size(self, monkeypatch, cfg_tuple,
                                       jamming):
        # (3, 1, 2, 2) lifts to two slots and has nullspace and aligned
        # parts, so its precoders depend on the lift's signed zeros.
        cfg = AntennaConfig(*cfg_tuple)
        trials = 17
        results = []
        for block in (1, 3, trials):
            set_block(monkeypatch, cfg, jamming, [cfg.ne], len(P_GRID), block)
            results.append(sweep(cfg, 0.5, P_GRID, trials, 17,
                                 jamming=jamming))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("cfg_tuple,slope,delta,secrecy", [
        ((3, 1, 2, 2), 1.4641527710920499, 0.8127826614689646,
         40.31756668555925),
        ((2, 2, 4, 1), 2.992623458646663, 0.0007017269698595286,
         83.96866324439183),
    ])
    def test_values_pinned(self, cfg_tuple, slope, delta, secrecy):
        # Seed 42 pinned: a change to any trial's random stream, or to the
        # order of its draws, moves these far beyond rel.
        res = sweep(AntennaConfig(*cfg_tuple), 0.5, P_GRID, 5, 42)
        assert res.curve.slope == pytest.approx(slope, rel=1e-12)
        assert res.leakage_delta == pytest.approx(delta, rel=1e-12)
        assert res.points[-1].secrecy == pytest.approx(secrecy, rel=1e-12)

    def test_working_set_independent_of_trials(self, monkeypatch):
        cfg = AntennaConfig(2, 2, 3, 1)
        block = 8
        set_block(monkeypatch, cfg, True, [cfg.ne], len(P_GRID), block)

        def peak(trials):
            tracemalloc.start()
            try:
                sweep(cfg, 0.5, P_GRID, trials, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call imports and caches are not working set
        assert peak(10 * block) <= 1.1 * peak(2 * block)
