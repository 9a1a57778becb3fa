import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdoflab.cli import MAX_ANTENNAS, iter_canonical_configs
from sdoflab.model import AntennaConfig
from sdoflab.regions import (ALIGNED, NULLSPACE, RANDOM, CaseId,
                             DegenerateConfig, JammingPart, JammingPlan,
                             classify_case, jamming_plan, sum_sdof,
                             upper_bound_terms, verify_plan_arithmetic)


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


def part_tuples(parts):
    return [(p.method, p.dims) for p in parts]


class TestJammingPlan:
    def test_random_only_small_ne(self):
        plan = jamming_plan(AntennaConfig(2, 2, 4, 1))
        assert plan.extension == 1
        assert part_tuples(plan.tx1_parts) == [(RANDOM, 1)]
        assert plan.tx2_parts == ()
        assert plan.j_s == 1
        assert (plan.d1, plan.d2) == (1, 2)

    def test_aligned_extension_for_odd_ne(self):
        plan = jamming_plan(AntennaConfig(2, 2, 3, 1))
        assert plan.extension == 2
        assert part_tuples(plan.tx1_parts) == [(ALIGNED, 1)]
        assert part_tuples(plan.tx2_parts) == [(ALIGNED, 1)]
        assert plan.j_s == 1
        assert plan.d1 + plan.d2 == 5

    def test_nullspace_plus_aligned_extension(self):
        plan = jamming_plan(AntennaConfig(3, 1, 2, 2))
        assert plan.extension == 2
        assert part_tuples(plan.tx1_parts) == [(NULLSPACE, 2), (ALIGNED, 1)]
        assert part_tuples(plan.tx2_parts) == [(ALIGNED, 1)]
        assert plan.j_s == 1
        assert plan.d1 + plan.d2 == 3

    def test_all_three_methods(self):
        plan = jamming_plan(AntennaConfig(3, 1, 2, 3))
        assert plan.extension == 1
        assert part_tuples(plan.tx1_parts) == [(NULLSPACE, 1), (ALIGNED, 1)]
        assert part_tuples(plan.tx2_parts) == [(ALIGNED, 1)]
        assert plan.j_s == 1
        assert plan.d1 + plan.d2 == 1

    def test_nullspace_only_c3(self):
        plan = jamming_plan(AntennaConfig(3, 3, 2, 1))
        assert plan.extension == 1
        assert part_tuples(plan.tx1_parts) == [(NULLSPACE, 1)]
        assert plan.tx2_parts == ()
        assert plan.j_s == 0
        assert plan.d1 + plan.d2 == 2

    def test_aligned_plus_random_m1_below_n(self):
        plan = jamming_plan(AntennaConfig(2, 2, 3, 3))
        assert plan.extension == 1
        assert part_tuples(plan.tx1_parts) == [(ALIGNED, 1), (RANDOM, 1)]
        assert part_tuples(plan.tx2_parts) == [(ALIGNED, 1)]
        assert plan.j_s == 2
        assert (plan.d1, plan.d2) == (0, 1)

    def test_nullspace_only_both_above_n(self):
        plan = jamming_plan(AntennaConfig(3, 2, 2, 1))
        assert plan.extension == 1
        assert part_tuples(plan.tx1_parts) == [(NULLSPACE, 1)]
        assert plan.tx2_parts == ()
        assert plan.j_s == 0
        assert (plan.d1, plan.d2) == (2, 0)

    def test_plans_pinned_up_to_10_antennas(self):
        # digest of the plans of the seven-case planner this rule replaced
        text = "\n".join(repr(jamming_plan(c))
                         for c in iter_canonical_configs(10))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ad5998dcf46628f4bccbcbe06aed7585434ed3e43bc9412f6d255a62a202c472")

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateConfig):
            jamming_plan(AntennaConfig(2, 2, 3, 4))

    def test_random_spill_to_second_transmitter(self):
        # ne - (M - n) exceeds m1 here, so the random part cannot fit on
        # transmitter 1 alone
        plan = jamming_plan(AntennaConfig(4, 4, 6, 7))
        assert plan.jam_dims(1) <= 4 and plan.jam_dims(2) <= 4
        assert plan.total_jam_dims() == 7
        assert verify_plan_arithmetic(AntennaConfig(4, 4, 6, 7), plan)


class TestVerifyPlanArithmetic:
    def test_jamfree_dimensions_match_streams_exactly(self):
        cfg = AntennaConfig(3, 1, 2, 3)
        plan = jamming_plan(cfg)
        assert verify_plan_arithmetic(cfg, plan)
        # jamming-free receiver dimensions exactly match the stream count
        assert plan.extension * cfg.n - plan.j_s == cfg.m - cfg.ne == 1

    def test_jamfree_dimensions_nullspace_aligned_case(self):
        cfg = AntennaConfig(3, 2, 2, 1)
        plan = jamming_plan(cfg)
        assert verify_plan_arithmetic(cfg, plan)
        assert plan.extension * cfg.n - plan.j_s == 2
        assert Fraction(cfg.m - cfg.ne, 2) == Fraction(2)

    def test_holds_over_grid(self):
        for cfg in grid_configs():
            assert verify_plan_arithmetic(cfg, jamming_plan(cfg)), cfg

    def test_missing_jam_dimension_fails(self):
        cfg = AntennaConfig(2, 2, 4, 2)
        plan = jamming_plan(cfg)
        short = list(plan.tx1_parts)
        short[0] = JammingPart(short[0].method, short[0].dims - 1)
        bad = replace(plan, tx1_parts=tuple(p for p in short if p.dims))
        assert not verify_plan_arithmetic(cfg, bad)

    def test_wrong_stream_count_fails(self):
        cfg = AntennaConfig(2, 2, 4, 1)
        plan = jamming_plan(cfg)
        assert not verify_plan_arithmetic(cfg, replace(plan, d1=plan.d1 + 1))

    def test_receiver_overload_fails(self):
        cfg = AntennaConfig(2, 2, 4, 1)
        plan = jamming_plan(cfg)
        assert not verify_plan_arithmetic(
            cfg, replace(plan, j_s=cfg.n))


def test_jamming_budget_equals_extension_ne_on_grid():
    for cfg in grid_configs(6):
        plan = jamming_plan(cfg)
        assert plan.total_jam_dims() == plan.extension * cfg.ne
        assert plan.d1 + plan.d2 == plan.extension * sum_sdof(cfg)


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
        assert verify_plan_arithmetic(cfg, jamming_plan(cfg))

    @settings(max_examples=200, deadline=None)
    @given(simulate_configs())
    def test_streams_fill_extended_sdof(self, cfg):
        plan = jamming_plan(cfg)
        assert plan.d1 + plan.d2 == plan.extension * sum_sdof(cfg)
