import math
import tracemalloc

import numpy as np
import pytest

from sdoflab import rates as rates_mod
from sdoflab.model import (AntennaConfig, ChannelRealization, InvalidEveCount,
                           PowerPolicy, canonical, sample_channels, sample_eves)
from sdoflab.precoders import GeometryReport, PrecoderSet, build_precoder_set, \
    build_unjammed_set
from sdoflab.rates import (GeometryNotVerified, RateCurve, eavesdropper_leakage,
                           fit_slope, leakage_saturation, make_curve,
                           receiver_rate, sweep)
from sdoflab.regions import DegenerateConfig, jamming_plan

P_GRID = [10.0 ** k for k in range(3, 10)]


def scalar_precoder_set():
    """1x1 surrogate: unit channel, one stream, no jamming."""
    one = np.ones((1, 1), dtype=complex)
    empty = np.zeros((1, 0), dtype=complex)
    ps = PrecoderSet(v1l=one, v2l=empty, v1j=empty, v2j=empty,
                     u=one, extension=1)
    ps.geometry = GeometryReport(0.0, 0.0, 0.0, 1, 1, True)
    return ps


def one_trial(cfg, eve_counts, ch_seed, pc_seed, jamming=True):
    """One trial's realization and precoder set, as plain matrices, with
    unextended eavesdroppers drawn from seed 0."""
    ch = sample_channels(cfg, [ch_seed])
    ps = (build_precoder_set(jamming_plan(cfg), ch.h1, ch.h2, [pc_seed])
          if jamming else build_unjammed_set(ch.h1, ch.h2))
    eves = [(g1[0], g2[0]) for g1, g2 in sample_eves(cfg, eve_counts, [0])]
    one = PrecoderSet(ps.v1l[0], ps.v2l[0], ps.v1j[0], ps.v2j[0], ps.u[0],
                      ps.extension, ps.geometry)
    return ChannelRealization(ch.h1[0], ch.h2[0], eves), one


def scalar_channel(eves=()):
    one = np.ones((1, 1), dtype=complex)
    return ChannelRealization(one, one, list(eves))


class TestReceiverRate:
    def test_scalar_closed_form(self):
        ps = scalar_precoder_set()
        ch = scalar_channel()
        for p in (1.0, 10.0, 1e3, 1e6):
            rate = receiver_rate(ps, ch, PowerPolicy(p=p, alpha=0.5))
            assert rate == pytest.approx(math.log2(1 + p), rel=1e-12)

    def test_vanishing_power_limit(self):
        ps = scalar_precoder_set()
        rate = receiver_rate(ps, scalar_channel(), PowerPolicy(p=1e-30))
        assert 0.0 <= rate < 1e-9

    def test_requires_verified_geometry(self):
        ps = scalar_precoder_set()
        ps.geometry = None
        with pytest.raises(GeometryNotVerified):
            receiver_rate(ps, scalar_channel(), PowerPolicy(p=1.0))

    def test_monotone_in_power(self):
        ch, ps = one_trial(AntennaConfig(2, 2, 4, 1), [], 4, 5)
        rates = [receiver_rate(ps, ch, PowerPolicy(p=p, alpha=0.5))
                 for p in P_GRID]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestEavesdropperLeakage:
    def test_zero_legitimate_power(self):
        ch, ps = one_trial(AntennaConfig(2, 2, 4, 1), [1], 4, 5)
        silent = PrecoderSet(v1l=ps.v1l[:, :0], v2l=ps.v2l[:, :0],
                             v1j=ps.v1j, v2j=ps.v2j, u=ps.u,
                             extension=ps.extension, geometry=ps.geometry)
        assert eavesdropper_leakage(
            silent, ch, PowerPolicy(p=1e6, alpha=0.5), 0) == 0.0

    def test_unjammed_leakage_grows_with_power(self):
        # negative control: without jamming a single-antenna eavesdropper
        # gains one bit per doubling of power
        ch, ps = one_trial(AntennaConfig(1, 1, 1, 1), [1], 8, None,
                           jamming=False)
        pol_lo, pol_hi = PowerPolicy(p=1e6), PowerPolicy(p=1e8)
        gain = (eavesdropper_leakage(ps, ch, pol_hi, 0)
                - eavesdropper_leakage(ps, ch, pol_lo, 0))
        assert gain == pytest.approx(math.log2(1e2), rel=0.01)

    def test_extension_mismatch_rejected(self):
        # unextended eavesdropper
        ch, ps = one_trial(AntennaConfig(2, 2, 3, 1), [1], 4, 5)
        with pytest.raises(ValueError):
            eavesdropper_leakage(ps, ch, PowerPolicy(p=1e3), 0)


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
        # no secure DoF to jam for: rejected like leakage_saturation does
        with pytest.raises(DegenerateConfig):
            sweep(AntennaConfig(2, 2, 3, 4), 0.5, P_GRID, 5, 42)

    def test_deterministic_given_seed(self):
        a = sweep(AntennaConfig(2, 2, 3, 1), 0.5, P_GRID, 3, 7)
        b = sweep(AntennaConfig(2, 2, 3, 1), 0.5, P_GRID, 3, 7)
        assert a == b

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep(AntennaConfig(2, 2, 4, 1), 0.5, [1e3, 1e4, 1e5], 2, 0)
        with pytest.raises(ValueError):
            sweep(AntennaConfig(2, 2, 4, 1), 0.5, [1e3, 1e4, 1e5, 1e6], 2, 0)

    def test_non_canonical_input_accepted(self):
        a = sweep(AntennaConfig(1, 3, 2, 2), 0.5, P_GRID, 3, 7)
        b = sweep(AntennaConfig(3, 1, 2, 2), 0.5, P_GRID, 3, 7)
        assert a == b


class TestLeakageSaturation:
    def test_jammed_leakage_saturates(self):
        delta = leakage_saturation(AntennaConfig(2, 2, 3, 1), 0.5,
                                   1e5, 1e9, 20, 42)
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
        delta = leakage_saturation(cfg, 0.5, 1e5, 1e9, 20, 42, jamming=False)
        expected = cfg.ne * math.log2(1e4)
        assert abs(delta - expected) <= 0.2 * expected

    def test_no_eavesdropper_zero(self):
        assert leakage_saturation(AntennaConfig(2, 2, 3, 0), 0.5,
                                  1e5, 1e9, 5, 0) == 0.0

    def test_ratio_precondition(self):
        with pytest.raises(ValueError):
            leakage_saturation(AntennaConfig(2, 2, 3, 1), 0.5, 1e5, 1e6, 5, 0)


class TestTrialEngine:
    @pytest.mark.parametrize("jamming", [True, False])
    @pytest.mark.parametrize("eve_counts", [[], [2], [2, 1]])
    def test_sweep_delta_is_leakage_saturation(self, jamming, eve_counts):
        cfg = AntennaConfig(3, 1, 2, 2)
        res = sweep(cfg, 0.5, P_GRID, 3, 5, eve_counts=eve_counts,
                    jamming=jamming)
        delta = leakage_saturation(cfg, 0.5, P_GRID[0], P_GRID[-1], 3, 5,
                                   eve_counts=eve_counts, jamming=jamming)
        assert res.leakage_delta == delta
        if not eve_counts:
            assert delta == 0.0

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
            with pytest.raises(ValueError, match="trials must be at least 1"):
                leakage_saturation(cfg, 0.5, P_GRID[0], P_GRID[-1], trials, 5)

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
        assert res.leakage_delta == leakage_saturation(
            cfg, 0.5, P_GRID[0], P_GRID[-1], 3, 5, jamming=False)


def scalar_trial_results(cfg, p_values, trials, seed, eve_counts, jamming):
    """The trial engine's per-trial output, rebuilt from the one-trial,
    one-power reference functions on the same seeded draws: one
    eavesdropper draw per trial, evaluated at every power."""
    plan = jamming_plan(cfg) if jamming else None
    ext = plan.extension if jamming else 1
    pols = [PowerPolicy(p=p, alpha=0.5) for p in p_values]
    out = []
    for trial_ss in np.random.SeedSequence(seed).spawn(trials):
        ch_ss, pc_ss, eve_ss = trial_ss.spawn(3)
        ch, ps = one_trial(cfg, [], ch_ss, pc_ss, jamming)
        eves = sample_eves(cfg, eve_counts, [eve_ss], slots=ext)
        c = ChannelRealization(ch.h1, ch.h2,
                               [(g1[0], g2[0]) for g1, g2 in eves])
        rates = [receiver_rate(ps, c, pol) for pol in pols]
        leaks = [[eavesdropper_leakage(ps, c, pol, j)
                  for j in range(len(eve_counts))] for pol in pols]
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
        with pytest.raises(error):
            leakage_saturation(cfg, 0.5, P_GRID[0], P_GRID[-1], trials, seed,
                               jamming=jamming)
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
