import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdoflab import binning
from sdoflab.binning import (CodeTooLarge, EnumerationBudgetExceeded, EraseChannel,
                             WiretapCode, build_code, equivocation_exact,
                             equivocation_table, normalized_equivocation)


def equivocation_oracle(code, delta):
    """Brute-force H(W|Z): enumerate every observation z in {0,1,?}^n."""
    n = code.n
    words = code.bins.reshape(-1)
    bits = (words[:, None] >> np.arange(n - 1, -1, -1)) & 1  # MSB first
    bins_of = np.repeat(np.arange(code.num_bins), code.bin_size)
    total = words.size
    entropy = 0.0
    for z in itertools.product((0, 1, 2), repeat=n):  # 2 marks an erasure
        z = np.array(z)
        # P(z | x) per codeword: delta per erased bit, 1 - delta per
        # matching bit, 0 on any mismatch
        per_bit = np.where(z == 2, delta, np.where(bits == z, 1.0 - delta, 0.0))
        likelihood = per_bit.prod(axis=1)
        pz = likelihood.sum() / total
        if pz <= 0.0:
            continue
        pw = np.bincount(bins_of, weights=likelihood,
                         minlength=code.num_bins) / (total * pz)
        pw = pw[pw > 0]
        entropy += pz * float(-(pw * np.log2(pw)).sum())
    return entropy


class TestBuildCode:
    def test_small_counting(self):
        code = build_code(4, 0.75, 0.25, 0)
        assert code.num_codewords == 8
        assert code.num_bins == 2 and code.bin_size == 4

    def test_distinct_codewords(self):
        code = build_code(12, 0.75, 0.25, 1)
        words = code.bins.reshape(-1)
        assert words.size == 512
        assert np.unique(words).size == 512

    def test_full_space_codebook(self):
        code = build_code(8, 1.0, 0.5, 2)
        assert sorted(code.bins.reshape(-1)) == list(range(256))

    def test_too_large(self):
        with pytest.raises(CodeTooLarge):
            build_code(2, 1.5, 0.5, 0)
        with pytest.raises(CodeTooLarge):
            build_code(18, 0.5, 0.5, 0)

    def test_non_integral_sizes(self):
        with pytest.raises(ValueError):
            build_code(6, 0.75, 0.25, 0)

    @pytest.mark.parametrize("n,rate_total,rate_secret,message", [
        (-4, 0.75, 0.25, "block length must be at least 1, got -4"),
        (0, 0.75, 0.25, "block length must be at least 1, got 0"),
        (4, -1.0, -2.0, "rate_total must be nonnegative, got -1.0"),
        (4, 0.5, -0.25, "rate_secret must be nonnegative, got -0.25"),
    ])
    def test_bad_sizes_rejected_first(self, n, rate_total, rate_secret,
                                      message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_code(n, rate_total, rate_secret, 0)

    def test_deterministic(self):
        a = build_code(8, 0.75, 0.25, 3)
        b = build_code(8, 0.75, 0.25, 3)
        assert np.array_equal(a.bins, b.bins)


class TestEquivocation:
    def test_full_erasure_exact(self):
        code = build_code(8, 0.75, 0.25, 3)
        assert equivocation_exact(code, EraseChannel(1.0)) == \
            pytest.approx(2.0, abs=1e-12)

    def test_no_erasure_exact(self):
        code = build_code(8, 0.75, 0.25, 3)
        assert equivocation_exact(code, EraseChannel(0.0)) == \
            pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rt,rs", [(0.75, 0.25), (1.0, 0.5), (0.5, 0.5)])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.5, 1.0])
    def test_matches_brute_force_oracle(self, rt, rs, delta):
        code = build_code(8, rt, rs, 6)
        fast = equivocation_exact(code, EraseChannel(delta))
        assert fast == pytest.approx(equivocation_oracle(code, delta),
                                     abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           delta=st.floats(0.0, 1.0))
    def test_random_codes_match_oracle(self, n, data, seed, delta):
        k_total = data.draw(st.integers(0, n), label="k_total")
        k_secret = data.draw(st.integers(0, k_total), label="k_secret")
        code = build_code(n, k_total / n, k_secret / n, seed)
        assert equivocation_exact(code, EraseChannel(delta)) == \
            pytest.approx(equivocation_oracle(code, delta), abs=1e-9)

    @pytest.mark.parametrize("rt,rs", [(1.0, 0.5), (0.75, 0.25)])
    def test_independent_of_batch_size(self, monkeypatch, rt, rs):
        # uneven batches: 3 patterns per sort at rate 1, 24 at rate 0.75
        code = build_code(12, rt, rs, 0)
        ch = EraseChannel(0.5)
        values = []
        for pairs in (3 * 4096, 1 << 20):
            monkeypatch.setattr(binning, "_BATCH_PAIRS", pairs)
            values.append(equivocation_exact(code, ch))
        assert values[0] == values[1]

    @pytest.mark.parametrize("rt,rs,expected", [
        (1.0, 0.5, [4.918908799157569, 4.92218098488163, 4.918375800227977]),
        (0.75, 0.25, [2.088923445150786, 2.0988234652414963, 2.09959132497197]),
    ])
    def test_n12_values_pinned(self, rt, rs, expected):
        # frozen from the earlier per-pattern kernel (n = 12, delta = 0.5,
        # code seeds 0-2); integer counting must agree to the last bits
        got = [equivocation_exact(build_code(12, rt, rs, s), EraseChannel(0.5))
               for s in range(3)]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_hand_computed_structured_partition(self):
        # codebook = all 2-bit words; bins {00,01} and {10,11}: erasing
        # bit 2 reveals the bin, erasing bit 1 hides it completely
        code = WiretapCode(n=2, rate_total=1.0, rate_secret=0.5,
                           bins=np.array([[0b00, 0b01], [0b10, 0b11]]))
        assert equivocation_exact(code, EraseChannel(0.5)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_bounds(self):
        for seed in range(5):
            code = build_code(8, 0.75, 0.25, seed)
            for delta in (0.1, 0.4, 0.9):
                h = equivocation_exact(code, EraseChannel(delta))
                assert 0.0 <= h <= 2.0 + 1e-12

    def test_monotone_in_erasure_probability(self):
        code = build_code(8, 0.75, 0.25, 7)
        values = [equivocation_exact(code, EraseChannel(d))
                  for d in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_budget(self):
        code = build_code(16, 0.25, 0.25, 0)
        with pytest.raises(EnumerationBudgetExceeded):
            equivocation_exact(code, EraseChannel(0.5))


class TestRandomnessRateLaw:
    def test_more_in_bin_randomness_more_secrecy(self):
        # at delta = 0.5 the eavesdropper capacity is 0.5 bits/use; codes
        # whose randomness rate covers it beat codes with only 0.25
        ch = EraseChannel(0.5)
        seeds = range(10)
        covered = np.mean([normalized_equivocation(build_code(8, 0.75, 0.25, s), ch)
                           for s in seeds])
        starved = np.mean([normalized_equivocation(build_code(8, 0.5, 0.25, s), ch)
                           for s in seeds])
        assert covered > starved


class TestSecrecyTrend:
    def test_non_decreasing(self):
        values = [mean[1] for _, _, mean in equivocation_table(
            [4, 8, 12], 0.5, 0.75, 0.25, list(range(5)))]
        assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))

    def test_rate_pair_from_operation_example_falls_short(self):
        # the (0.75, 0.25) family at n=12 sits near 0.70, not >= 0.8:
        # frozen from the exact enumeration (verified against the
        # brute-force oracle above)
        [(_, _, mean)] = equivocation_table([12], 0.5, 0.75, 0.25,
                                            list(range(10)))
        assert mean[1] == pytest.approx(0.698, abs=0.02)

    def test_full_erasure_all_ones(self):
        table = equivocation_table([4, 8], 1.0, 0.75, 0.25, list(range(3)))
        assert all(mean[1] == pytest.approx(1.0, abs=1e-12)
                   for _, _, mean in table)

    def test_no_secret_message_entry(self):
        [(n, _, mean)] = equivocation_table([4], 0.5, 0.5, 0.0, [0])
        assert (n, mean) == (4, None)


class TestEquivocationTable:
    def test_rows_and_means(self):
        ch = EraseChannel(0.5)
        table = equivocation_table([4, 8], 0.5, 0.75, 0.25, [0, 1, 2])
        for (n, rows, mean), tn in zip(table, [4, 8]):
            assert n == tn and [s for s, _, _ in rows] == [0, 1, 2]
            for s, h, norm in rows:
                code = build_code(n, 0.75, 0.25, s)
                assert h == equivocation_exact(code, ch)
                assert norm == normalized_equivocation(code, ch)
            assert mean == (sum(r[1] for r in rows) / 3,
                            sum(r[2] for r in rows) / 3)

    def test_no_secret_message(self):
        [(n, rows, mean)] = equivocation_table([4], 0.5, 0.5, 0.0, [0, 1])
        assert mean is None and all(norm is None for _, _, norm in rows)
        assert equivocation_table([4], 0.5, 0.75, 0.25, [])[0][2] is None
