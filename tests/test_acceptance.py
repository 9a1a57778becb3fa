"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from sdoflab import binning, cli, rates
from sdoflab.model import AntennaConfig, sample_channels, sample_eves
from sdoflab.precoders import build_precoder_set, jamming_coverage_rank
from sdoflab.regions import (classify_case, jamming_plan, sum_sdof,
                             upper_bound_terms, verify_plan_arithmetic)

ACCEPTANCE_CONFIGS = [
    ((2, 2, 4, 1), Fraction(3)),
    ((2, 2, 3, 1), Fraction(5, 2)),
    ((3, 3, 2, 1), Fraction(2)),
    ((3, 1, 2, 3), Fraction(1)),
    ((3, 1, 2, 2), Fraction(3, 2)),
    ((3, 2, 2, 1), Fraction(2)),
]

P_GRID = [10.0 ** k for k in range(3, 10)]
SATURATION_GRID = [10.0 ** k for k in range(5, 10)]  # 1e5 .. 1e9


def grid_configs():
    for m1 in range(1, 9):
        for m2 in range(1, m1 + 1):
            for n in range(1, 9):
                for ne in range(m1 + m2):
                    yield AntennaConfig(m1, m2, n, ne)


@contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_s:
        print(f"criterion {num} ({name}): FAIL "
              f"[runtime {elapsed:.2f}s >= {budget_s:g}s]")
        raise AssertionError(f"criterion {num} exceeded its runtime budget")
    print(f"criterion {num} ({name}): PASS [{elapsed:.2f}s < {budget_s:g}s]")


def test_criterion_1_closed_form_meets_converse():
    with criterion(1, "closed form equals min bound on grid", 1.0):
        count = 0
        for cfg in grid_configs():
            assert sum_sdof(cfg) == min(upper_bound_terms(cfg)), cfg
            assert classify_case(cfg) is not None
            count += 1
        assert count > 2000


def test_criterion_2_plan_arithmetic_grid():
    with criterion(2, "plan arithmetic grid", 1.0):
        for cfg in grid_configs():
            assert verify_plan_arithmetic(cfg, jamming_plan(cfg)), cfg


def test_criterion_3_geometry_suite():
    with criterion(3, "geometry suite", 10.0):
        for cfg_tuple, _ in ACCEPTANCE_CONFIGS:
            cfg = AntennaConfig(*cfg_tuple)
            plan = jamming_plan(cfg)
            seeds = range(20)
            h1, h2 = sample_channels(cfg, seeds)
            ps = build_precoder_set(plan, h1, h2,
                                    [1000 + seed for seed in seeds])
            rep = ps.geometry  # the worst of the 20 trials
            assert rep.alignment_residual <= 1e-8, cfg_tuple
            assert rep.nullspace_residual <= 1e-8, cfg_tuple
            assert rep.zf_residual <= 1e-8, cfg_tuple
            assert rep.decode_rank == plan.d1 + plan.d2, cfg_tuple
            (g1, g2), = sample_eves(cfg, [cfg.ne],
                                    [5000 + seed for seed in seeds],
                                    slots=plan.extension)
            assert jamming_coverage_rank(ps, g1, g2).tolist() == \
                [plan.extension * cfg.ne] * 20, cfg_tuple


def test_criterion_4_slope_reproduction():
    with criterion(4, "slope reproduction", 120.0):
        for cfg_tuple, ds in ACCEPTANCE_CONFIGS:
            cfg = AntennaConfig(*cfg_tuple)
            result = rates.sweep(cfg, 0.5, P_GRID, 20, 42)
            assert abs(result.curve.slope - float(ds)) <= 0.1, \
                (cfg_tuple, result.curve.slope, float(ds))


def test_criterion_5_leakage_saturation():
    with criterion(5, "leakage saturation", 60.0):
        for cfg_tuple, _ in ACCEPTANCE_CONFIGS:
            cfg = AntennaConfig(*cfg_tuple)
            delta = rates.sweep(cfg, 0.5, SATURATION_GRID, 50,
                                42).leakage_delta
            assert delta <= 0.5, (cfg_tuple, delta)
            control = rates.sweep(cfg, 0.5, SATURATION_GRID, 50, 42,
                                  jamming=False).leakage_delta
            floor = 0.8 * cfg.ne * math.log2(1e4)
            assert control >= floor, (cfg_tuple, control, floor)


def test_criterion_6_binning_equivocation():
    with criterion(6, "binning equivocation", 60.0):
        seeds = list(range(60))
        # analytic endpoints
        code = binning.build_code(12, 1.0, 0.5, 0)
        assert binning.normalized_equivocation(code, binning.EraseChannel(1.0)) \
            == 1.0
        assert binning.normalized_equivocation(code, binning.EraseChannel(0.0)) \
            == 0.0
        # delta = 0.5 with randomness rate 0.5 covering the eavesdropper
        # capacity: mean normalized equivocation over 60 seeds at n = 12
        values = {n: mean[1] for n, _, mean in binning.equivocation_table(
            [4, 8, 12], 0.5, 1.0, 0.5, seeds)}
        assert values[12] >= 0.8, values
        assert all(b >= a - 0.05 for a, b in
                   zip([values[4], values[8], values[12]],
                       [values[8], values[12]])), values


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical reruns", 60.0):
        config = {
            "m1": 2, "m2": 2, "n": 3, "ne": 1,
            "eve_counts": [1], "alpha": 0.5,
            "p_grid": [1e3, 1e4, 1e5, 1e6, 1e7],
            "trials": 5, "seed": 9,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        for stem_a, stem_b in [(tmp_path / "s1", tmp_path / "s2")]:
            assert cli.main(["simulate", "--config", str(cfg_path),
                             "--out", str(stem_a)]) == 0
            assert cli.main(["simulate", "--config", str(cfg_path),
                             "--out", str(stem_b)]) == 0
            for ext in (".csv", ".json"):
                a = Path(f"{stem_a}{ext}").read_bytes()
                b = Path(f"{stem_b}{ext}").read_bytes()
                assert a == b, f"simulate outputs differ in {ext}"
        bin_a, bin_b = tmp_path / "b1.csv", tmp_path / "b2.csv"
        args = ["binning", "--n-list", "4,8", "--num-seeds", "3", "--delta",
                "0.5"]
        assert cli.main(args + ["--out", str(bin_a)]) == 0
        assert cli.main(args + ["--out", str(bin_b)]) == 0
        assert bin_a.read_bytes() == bin_b.read_bytes(), \
            "binning outputs differ"
