import itertools

import numpy as np
import pytest

from sdoflab.binning import (CodeTooLarge, DecodeFailure, EnumerationBudgetExceeded,
                             EraseChannel, InvalidMessage, WiretapCode,
                             bits_from_int, build_code, decode_main, encode,
                             equivocation_exact, equivocation_table,
                             int_from_bits, normalized_equivocation,
                             secrecy_trend)


def equivocation_oracle(code, delta):
    """Brute-force H(W|Z): enumerate every observation z in {0,1,?}^n."""
    n = code.n
    words = [bits_from_int(int(x), n) for x in code.bins.reshape(-1)]
    bins_of = np.repeat(np.arange(code.num_bins), code.bin_size)
    total = len(words)
    entropy = 0.0
    for z in itertools.product((0, 1, 2), repeat=n):  # 2 marks an erasure
        likelihood = np.empty(total)
        for i, x in enumerate(words):
            p = 1.0
            for zi, xi in zip(z, x):
                if zi == 2:
                    p *= delta
                elif zi == xi:
                    p *= 1.0 - delta
                else:
                    p = 0.0
                    break
            likelihood[i] = p
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

    def test_deterministic(self):
        a = build_code(8, 0.75, 0.25, 3)
        b = build_code(8, 0.75, 0.25, 3)
        assert np.array_equal(a.bins, b.bins)


class TestEncodeDecode:
    def test_single_codeword_bins(self):
        code = build_code(4, 0.5, 0.5, 0)
        for w in range(code.num_bins):
            y = encode(code, w, seed=99)
            assert int_from_bits(y) == code.bins[w, 0]

    def test_deterministic_given_seed(self):
        code = build_code(8, 0.75, 0.25, 1)
        assert np.array_equal(encode(code, 3, 7), encode(code, 3, 7))

    def test_round_trip_exhaustive(self):
        code = build_code(8, 0.75, 0.25, 5)
        for w in range(code.num_bins):
            for v in range(code.bin_size):
                got_w, got_v = decode_main(code, bits_from_int(int(code.bins[w, v]), 8))
                assert (got_w, got_v) == (w, v)

    def test_in_bin_selection_uniform(self):
        # chi-square style check: each in-bin index within 3 sigma of uniform
        code = build_code(6, 0.5, 1 / 6, 2)
        draws = 10_000
        lookup = code.lookup()
        counts = np.zeros(code.bin_size)
        for k in range(draws):
            _, v = lookup[int_from_bits(encode(code, 1, seed=k))]
            counts[v] += 1
        mean = draws / code.bin_size
        sigma = np.sqrt(draws * (1 / code.bin_size) * (1 - 1 / code.bin_size))
        assert np.abs(counts - mean).max() <= 3 * sigma

    def test_invalid_message(self):
        code = build_code(4, 0.75, 0.25, 0)
        with pytest.raises(InvalidMessage):
            encode(code, code.num_bins, 0)

    def test_decode_failure_on_corruption(self):
        code = build_code(8, 0.5, 0.25, 4)
        in_book = set(int(x) for x in code.bins.reshape(-1))
        stranger = next(x for x in range(256) if x not in in_book)
        with pytest.raises(DecodeFailure):
            decode_main(code, bits_from_int(stranger, 8))


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
        trend = secrecy_trend([4, 8, 12], 0.5, 0.75, 0.25, list(range(5)))
        values = [v for _, v in trend]
        assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))

    def test_rate_pair_from_operation_example_falls_short(self):
        # the (0.75, 0.25) family at n=12 sits near 0.70, not >= 0.8:
        # frozen from the exact enumeration (verified against the
        # brute-force oracle above)
        trend = secrecy_trend([12], 0.5, 0.75, 0.25, list(range(10)))
        assert trend[0][1] == pytest.approx(0.698, abs=0.02)

    def test_full_erasure_all_ones(self):
        trend = secrecy_trend([4, 8], 1.0, 0.75, 0.25, list(range(3)))
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in trend)

    def test_no_secret_message_entry(self):
        trend = secrecy_trend([4], 0.5, 0.5, 0.0, [0])
        assert trend == [(4, None)]


class TestEquivocationTable:
    def test_rows_and_means(self):
        ch = EraseChannel(0.5)
        table = equivocation_table([4, 8], 0.5, 0.75, 0.25, [0, 1, 2])
        for (n, rows, mean), (tn, trend) in zip(
                table, secrecy_trend([4, 8], 0.5, 0.75, 0.25, [0, 1, 2])):
            assert n == tn and [s for s, _, _ in rows] == [0, 1, 2]
            for s, h, norm in rows:
                code = build_code(n, 0.75, 0.25, s)
                assert h == equivocation_exact(code, ch)
                assert norm == normalized_equivocation(code, ch)
            assert mean == (sum(r[1] for r in rows) / 3,
                            sum(r[2] for r in rows) / 3)
            assert trend == mean[1]

    def test_no_secret_message(self):
        [(n, rows, mean)] = equivocation_table([4], 0.5, 0.5, 0.0, [0, 1])
        assert mean is None and all(norm is None for _, _, norm in rows)
        assert equivocation_table([4], 0.5, 0.75, 0.25, [])[0][2] is None
