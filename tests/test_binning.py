import itertools
import tracemalloc

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


def _sort_run_lengths(rows, hist):
    """Run lengths of each sorted row, from every run start (the sort
    kernel's original counting)."""
    width = rows.shape[-1]
    flat = rows.reshape(-1)
    edge = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
    edge[::width] = True  # every row start, and the end sentinel
    starts = np.flatnonzero(edge)
    hist += np.bincount(starts[1:] - starts[:-1], minlength=hist.size)


def equivocation_sort_oracle(code, delta):
    """The sort kernel equivocation_exact replaced: both the codebook
    and each bin are masked and sorted per erasure pattern, and the
    group sizes are run lengths.  The new kernel must equal it bit for
    bit."""
    n = code.n
    words = code.bins.astype(np.uint16)
    total = words.size
    pattern_weight = np.array(
        [delta ** k * (1.0 - delta) ** (n - k) for k in range(n + 1)])
    erasures = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        erasures = np.concatenate([erasures, erasures + 1])
    group_hist = np.zeros((n + 1, total + 1), dtype=np.int64)
    joint_hist = np.zeros_like(group_hist)
    batch = max(1, binning._BATCH_PAIRS // total)
    full = (1 << n) - 1
    for k in np.flatnonzero(pattern_weight > 0.0):
        observed = (full ^ np.flatnonzero(erasures == k)).astype(np.uint16)
        for start in range(0, observed.size, batch):
            masked = words & observed[start:start + batch, None, None]
            _sort_run_lengths(np.sort(masked, axis=-1), joint_hist[k])
            _sort_run_lengths(np.sort(masked.reshape(len(masked), -1), axis=-1),
                              group_hist[k])
    counts = np.arange(total + 1)
    xlogx = counts * np.log2(np.maximum(counts, 1))
    return float(pattern_weight @ ((group_hist - joint_hist) @ xlogx)) / total


# rate pairs as fractions of n; bits are rounded so every n from 1 up fits
RATE_PAIRS = [(1.0, 0.5), (0.75, 0.25), (0.5, 0.25), (0.5, 0.0), (0.5, 0.5),
              (1.0, 1.0)]


def rounded_code(n, rate_total, rate_secret, seed):
    return build_code(n, round(n * rate_total) / n,
                      round(n * rate_secret) / n, seed)


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

    @pytest.mark.parametrize("word", [-1, 4, 1 << 16])
    def test_codeword_out_of_range(self, word):
        code = WiretapCode(n=2, rate_total=1.0, rate_secret=0.5,
                           bins=np.array([[0, 1], [2, word]]))
        with pytest.raises(ValueError, match=r"^codewords must lie in \[0, 2\^2\)$"):
            equivocation_exact(code, EraseChannel(0.5))

    def test_budget(self):
        code = build_code(16, 0.25, 0.25, 0)
        with pytest.raises(EnumerationBudgetExceeded):
            equivocation_exact(code, EraseChannel(0.5))


class TestSortOracle:
    """equivocation_exact equals the sort kernel it replaced with ``==``."""

    @pytest.mark.parametrize("rt,rs", RATE_PAIRS)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_on_built_codes(self, n, rt, rs):
        for seed in (0, 1):
            code = rounded_code(n, rt, rs, seed)
            for delta in (0.0, 0.3, 0.5, 1.0):
                assert equivocation_exact(code, EraseChannel(delta)) == \
                    equivocation_sort_oracle(code, delta)

    @pytest.mark.parametrize("rt,rs", [(1.0, 0.5), (0.75, 0.25)])
    def test_equal_at_n12(self, rt, rs):
        code = build_code(12, rt, rs, 0)
        assert equivocation_exact(code, EraseChannel(0.5)) == \
            equivocation_sort_oracle(code, 0.5)

    @pytest.mark.parametrize("leaf_bits", [0, 1, 3, 7])
    def test_equal_for_any_leaf_size(self, monkeypatch, leaf_bits):
        # splits the top bits off down to 2^leaf_bits counts
        monkeypatch.setattr(binning, "_LEAF_BITS", leaf_bits)
        for rt, rs in RATE_PAIRS:
            code = rounded_code(8, rt, rs, 2)
            assert equivocation_exact(code, EraseChannel(0.3)) == \
                equivocation_sort_oracle(code, 0.3)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), data=st.data(),
           delta=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    def test_equal_on_hand_built_codes_with_repeated_words(self, n, data,
                                                            delta):
        # words drawn with replacement, so most codebooks repeat some;
        # any bin count and bin size, not only powers of two
        shape = (data.draw(st.integers(1, 8), label="bins"),
                 data.draw(st.integers(1, 8), label="bin_size"))
        words = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                   min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]),
                          label="words")
        code = WiretapCode(n=n, rate_total=1.0, rate_secret=0.5,
                           bins=np.array(words).reshape(shape))
        assert equivocation_exact(code, EraseChannel(delta)) == \
            equivocation_sort_oracle(code, delta)


def naive_run_lengths(rows, size):
    hist = np.zeros(size, dtype=np.int64)
    for row in rows.reshape(-1, rows.shape[-1]):
        for _, run in itertools.groupby(row.tolist()):
            hist[len(list(run))] += 1
    return hist


class TestRunLengths:
    @pytest.mark.parametrize("rows", [
        np.array([[3], [3], [5]]),                  # width 1: bin size 1
        np.array([[7, 7, 7, 7], [7, 7, 7, 7]]),     # all values equal
        np.array([[1, 2, 2], [2, 2, 3], [3, 4, 4]]),  # runs meet row ends
        np.array([[0, 0, 1, 1], [1, 1, 2, 2]]),     # every run at an end
        np.array([[1, 2, 3, 4]]),                   # singletons only
        np.zeros((0, 4), dtype=np.uint16),          # empty batch
        np.sort(np.random.default_rng(0).integers(0, 6, (3, 5, 7)), axis=-1),
    ])
    def test_matches_groupby(self, rows):
        size = rows.shape[-1] + 1
        hist = np.zeros(size, dtype=np.int64)
        binning._add_run_lengths(rows.astype(np.uint16), hist)
        assert hist.tolist() == naive_run_lengths(rows, size).tolist()

    def test_adds_to_histogram(self):
        hist = np.array([0, 1, 2, 3])
        binning._add_run_lengths(np.array([[4, 4, 5]], dtype=np.uint16), hist)
        assert hist.tolist() == [0, 2, 3, 3]


class TestWorkingSet:
    # traced peak of the same call on the sort kernel this replaced
    # (numpy 2.4.6, Python 3.11.7); the group transform must never
    # build all 3^n cells at once
    SORT_KERNEL_PEAK_BYTES = 2_281_685

    def test_traced_peak_not_above_sort_kernel(self):
        code = build_code(12, 1.0, 0.5, 0)
        ch = EraseChannel(0.5)
        equivocation_exact(code, ch)  # warm-up, as in the measurement
        tracemalloc.start()
        try:
            equivocation_exact(code, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.SORT_KERNEL_PEAK_BYTES


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
