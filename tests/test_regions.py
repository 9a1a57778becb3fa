import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdoflab.cli import MAX_ANTENNAS, iter_canonical_configs
from sdoflab.model import AntennaConfig
from sdoflab.regions import (CaseId, DegenerateConfig, classify_case,
                             jamming_plan, sum_sdof, upper_bound_terms,
                             verify_plan_arithmetic)


def grid_configs(max_antennas=8):
    for m1 in range(1, max_antennas + 1):
        for m2 in range(1, m1 + 1):
            for n in range(1, max_antennas + 1):
                for ne in range(m1 + m2):
                    yield AntennaConfig(m1, m2, n, ne)


class TestClassifyCase:
    @pytest.mark.parametrize("cfg,case", [
        ((2, 2, 4, 1), CaseId.C1_MleN),
        ((2, 2, 3, 1), CaseId.C2_M1ltN),
        ((3, 3, 2, 1), CaseId.C3),
        ((2, 2, 3, 3), CaseId.C1_M1ltN_bigNE),
        ((3, 1, 2, 3), CaseId.C1_M1gtN_M2ltN_bigNE),
        ((3, 1, 2, 2), CaseId.C2_M1gtN_M2ltN),
        ((3, 2, 2, 1), CaseId.C2_M1gtN_M2geN),
    ])
    def test_examples(self, cfg, case):
        assert classify_case(AntennaConfig(*cfg)) is case

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateConfig):
            classify_case(AntennaConfig(2, 2, 3, 4))

    def test_exhaustive_over_grid(self):
        for cfg in grid_configs():
            assert classify_case(cfg) in CaseId


class TestSumSdof:
    @pytest.mark.parametrize("cfg,ds", [
        ((2, 2, 4, 1), Fraction(3)),
        ((2, 2, 3, 1), Fraction(5, 2)),
        ((3, 1, 2, 3), Fraction(1)),
        ((3, 2, 2, 1), Fraction(2)),
        ((3, 3, 2, 1), Fraction(2)),
        ((3, 1, 2, 2), Fraction(3, 2)),
    ])
    def test_examples(self, cfg, ds):
        assert sum_sdof(AntennaConfig(*cfg)) == ds

    def test_degenerate_is_zero(self):
        assert sum_sdof(AntennaConfig(2, 2, 3, 4)) == 0

    def test_symmetric_in_transmitters(self):
        assert sum_sdof(AntennaConfig(1, 3, 2, 2)) == \
            sum_sdof(AntennaConfig(3, 1, 2, 2))


class TestUpperBounds:
    @pytest.mark.parametrize("cfg,terms", [
        ((2, 2, 3, 1), (Fraction(3), Fraction(3), Fraction(5, 2))),
        ((3, 3, 2, 1), (Fraction(2), Fraction(5), Fraction(5, 2))),
        ((1, 1, 1, 0), (Fraction(1), Fraction(2), Fraction(1))),
        ((2, 2, 4, 1), (Fraction(4), Fraction(3), Fraction(7, 2))),
    ])
    def test_examples(self, cfg, terms):
        assert upper_bound_terms(AntennaConfig(*cfg)) == terms

    def test_achievability_meets_converse_on_grid(self):
        for cfg in grid_configs():
            assert sum_sdof(cfg) == min(upper_bound_terms(cfg)), cfg

    def test_monotone_in_ne(self):
        for m1 in range(1, 7):
            for m2 in range(1, m1 + 1):
                for n in range(1, 7):
                    values = [sum_sdof(AntennaConfig(m1, m2, n, ne))
                              for ne in range(m1 + m2)]
                    assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_n(self):
        for m1 in range(1, 7):
            for m2 in range(1, m1 + 1):
                for ne in range(m1 + m2):
                    values = [sum_sdof(AntennaConfig(m1, m2, n, ne))
                              for n in range(1, 8)]
                    assert all(a <= b for a, b in zip(values, values[1:]))


def counts(plan):
    """``(null, aligned, random, j_s)`` of a plan."""
    return plan.null, plan.aligned, plan.random, plan.j_s


class TestJammingPlan:
    """Counts are real dimensions, two per antenna."""

    def test_random_only_small_ne(self):
        plan = jamming_plan(AntennaConfig(2, 2, 4, 1))
        assert counts(plan) == ((0, 0), 0, (2, 0), 2)
        assert (plan.d1, plan.d2) == (2, 4)

    def test_aligned_extension_for_odd_ne(self):
        # an odd ne asks for half a complex aligned pair: one real pair
        plan = jamming_plan(AntennaConfig(2, 2, 3, 1))
        assert counts(plan) == ((0, 0), 1, (0, 0), 1)
        assert plan.d1 + plan.d2 == 5

    def test_nullspace_plus_aligned_extension(self):
        plan = jamming_plan(AntennaConfig(3, 1, 2, 2))
        assert counts(plan) == ((2, 0), 1, (0, 0), 1)
        assert plan.d1 + plan.d2 == 3

    def test_all_three_methods(self):
        plan = jamming_plan(AntennaConfig(3, 1, 2, 3))
        assert counts(plan) == ((2, 0), 2, (0, 0), 2)
        assert plan.d1 + plan.d2 == 2

    def test_nullspace_only_c3(self):
        plan = jamming_plan(AntennaConfig(3, 3, 2, 1))
        assert counts(plan) == ((2, 0), 0, (0, 0), 0)
        assert plan.d1 + plan.d2 == 4

    def test_aligned_plus_random_m1_below_n(self):
        plan = jamming_plan(AntennaConfig(2, 2, 3, 3))
        assert counts(plan) == ((0, 0), 2, (2, 0), 4)
        assert (plan.d1, plan.d2) == (0, 2)

    def test_nullspace_only_both_above_n(self):
        plan = jamming_plan(AntennaConfig(3, 2, 2, 1))
        assert counts(plan) == ((2, 0), 0, (0, 0), 0)
        assert (plan.d1, plan.d2) == (4, 0)

    def test_plans_pinned_up_to_10_antennas(self):
        # digest of the plan counts: those of the seven-case planner that
        # the dimension-counting rule replaced, and of the two-symbol
        # extension that the real dimensions replaced, each count times
        # 2 / extension
        plans = (jamming_plan(c) for c in iter_canonical_configs(10))
        text = "\n".join(repr((*p.null, p.aligned, *p.random, p.j_s, p.d1,
                                p.d2)) for p in plans)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "653f37b0b152d635a2cd4eb0131851b75682e700af226a005916605e0c5a248a")

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateConfig):
            jamming_plan(AntennaConfig(2, 2, 3, 4))

    def test_random_spill_to_second_transmitter(self):
        # ne - (M - n) exceeds m1 here, so the random columns cannot fit on
        # transmitter 1 alone
        plan = jamming_plan(AntennaConfig(4, 4, 6, 7))
        assert plan.jam_dims(1) <= 8 and plan.jam_dims(2) <= 8
        assert plan.total_jam_dims() == 14
        cfg = AntennaConfig(4, 4, 6, 7)
        assert verify_plan_arithmetic(cfg, plan, sum_sdof(cfg))


class TestVerifyPlanArithmetic:
    def test_jamfree_dimensions_match_streams_exactly(self):
        cfg = AntennaConfig(3, 1, 2, 3)
        plan = jamming_plan(cfg)
        assert verify_plan_arithmetic(cfg, plan, sum_sdof(cfg))
        # jamming-free receiver dimensions exactly match the stream count
        assert 2 * cfg.n - plan.j_s == 2 * (cfg.m - cfg.ne) == 2

    def test_jamfree_dimensions_nullspace_aligned_case(self):
        cfg = AntennaConfig(3, 2, 2, 1)
        plan = jamming_plan(cfg)
        assert verify_plan_arithmetic(cfg, plan, sum_sdof(cfg))
        assert 2 * cfg.n - plan.j_s == 4
        assert Fraction(cfg.m - cfg.ne, 2) == Fraction(2)

    def test_holds_over_grid(self):
        for cfg in grid_configs():
            assert verify_plan_arithmetic(cfg, jamming_plan(cfg),
                                          sum_sdof(cfg)), cfg

    def test_missing_jam_dimension_fails(self):
        cfg = AntennaConfig(2, 2, 4, 2)
        plan = jamming_plan(cfg)
        assert plan.random == (4, 0)
        assert not verify_plan_arithmetic(cfg, replace(plan, random=(3, 0)),
                                          sum_sdof(cfg))

    def test_wrong_stream_count_fails(self):
        cfg = AntennaConfig(2, 2, 4, 1)
        plan = jamming_plan(cfg)
        assert not verify_plan_arithmetic(cfg, replace(plan, d1=plan.d1 + 1),
                                          sum_sdof(cfg))
        # the closed form is an argument, and the check reads it
        assert not verify_plan_arithmetic(cfg, plan, sum_sdof(cfg) + 1)

    def test_receiver_overload_fails(self):
        # Transmitter 1's nullspace columns turned random: the jamming
        # still spends 2 ne = 2 columns, but now takes two receiver
        # dimensions and leaves 2*2 - 2 < d1 + d2 = 4 free.
        cfg = AntennaConfig(3, 2, 2, 1)
        plan = jamming_plan(cfg)
        assert (plan.null, plan.random) == ((2, 0), (0, 0))
        bad = replace(plan, null=(0, 0), random=(2, 0))
        assert bad.total_jam_dims() == 2 and bad.j_s == 2
        assert not verify_plan_arithmetic(cfg, bad, sum_sdof(cfg))


def test_jamming_budget_equals_extension_ne_on_grid():
    # two real dimensions per antenna
    for cfg in grid_configs(6):
        plan = jamming_plan(cfg)
        assert plan.total_jam_dims() == 2 * cfg.ne
        assert plan.d1 + plan.d2 == 2 * sum_sdof(cfg)


@st.composite
def simulate_configs(draw):
    """Non-degenerate configs over the whole ``simulate`` antenna range."""
    m1, m2, n = (draw(st.integers(1, MAX_ANTENNAS)) for _ in range(3))
    return AntennaConfig(m1, m2, n, draw(st.integers(0, m1 + m2 - 1)))


class TestPropertiesUpToSimulateLimit:
    """The closed form and the plans beyond the grid that grid-verify covers."""

    @settings(max_examples=200, deadline=None)
    @given(simulate_configs())
    def test_sum_sdof_is_bound_minimum(self, cfg):
        assert sum_sdof(cfg) == min(upper_bound_terms(cfg))

    @settings(max_examples=200, deadline=None)
    @given(simulate_configs())
    def test_invariant_under_transmitter_swap(self, cfg):
        swapped = AntennaConfig(cfg.m2, cfg.m1, cfg.n, cfg.ne)
        assert sum_sdof(swapped) == sum_sdof(cfg)

    @settings(max_examples=200, deadline=None)
    @given(simulate_configs())
    def test_plan_arithmetic(self, cfg):
        assert verify_plan_arithmetic(cfg, jamming_plan(cfg), sum_sdof(cfg))

    @settings(max_examples=200, deadline=None)
    @given(simulate_configs())
    def test_streams_fill_extended_sdof(self, cfg):
        # the real streams fill twice the complex secure DoF
        plan = jamming_plan(cfg)
        assert plan.d1 + plan.d2 == 2 * sum_sdof(cfg)
