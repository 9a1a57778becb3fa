import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdoflab import binning
from sdoflab.binning import (MAX_BLOCK_BITS, CodeTooLarge, EraseChannel,
                             WiretapCode, build_code, equivocation_exact,
                             equivocation_table, normalized_equivocation)


def codebook(code):
    """``bins[w, v]``: the codeword ``[w | v] G`` of message ``w`` and
    in-bin index ``v`` as an integer, position ``j`` at bit ``j``."""
    k_total, n = code.G.shape
    rows = (code.G.astype(np.int64) << np.arange(n)).sum(axis=1)
    index = np.arange(1 << k_total)  # w in the low k_secret bits, v above
    words = np.zeros(index.size, dtype=np.int64)
    for i, row in enumerate(rows):
        words ^= np.where((index >> i) & 1, row, 0)
    return words.reshape(1 << (k_total - code.k_secret), 1 << code.k_secret).T


def equivocation_oracle(code, delta):
    """Brute-force H(W|Z): enumerate every observation z in {0,1,?}^n."""
    n = code.n
    bins = codebook(code)
    words = bins.reshape(-1)
    bits = (words[:, None] >> np.arange(n - 1, -1, -1)) & 1  # MSB first
    bins_of = np.repeat(np.arange(bins.shape[0]), bins.shape[1])
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
                         minlength=bins.shape[0]) / (total * pz)
        pw = pw[pw > 0]
        entropy += pz * float(-(pw * np.log2(pw)).sum())
    return entropy


def _sort_run_lengths(rows, hist):
    """Add the run lengths of each sorted row into ``hist``."""
    width = rows.shape[-1]
    flat = rows.reshape(-1)
    edge = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
    edge[::width] = True  # every row start, and the end sentinel
    starts = np.flatnonzero(edge)
    hist += np.bincount(starts[1:] - starts[:-1], minlength=hist.size)


SORT_BATCH_PAIRS = 1 << 16  # (erasure pattern, codeword) pairs sorted at once


def equivocation_sort_oracle(code, delta):
    """H(W|Z) by enumerating the codebook, as the kernel before coset
    binning did: per erasure pattern, both the codebook and each bin are
    masked and sorted, and the group sizes ``c`` are run lengths that
    enter as ``c log2 c``.  Independent of the rank formula."""
    n = code.n
    words = codebook(code).astype(np.uint16)
    total = words.size
    pattern_weight = np.array(
        [delta ** k * (1.0 - delta) ** (n - k) for k in range(n + 1)])
    erasures = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        erasures = np.concatenate([erasures, erasures + 1])
    group_hist = np.zeros((n + 1, total + 1), dtype=np.int64)
    joint_hist = np.zeros_like(group_hist)
    batch = max(1, SORT_BATCH_PAIRS // total)
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


def gf2_rank(matrix):
    """Rank over GF(2) by plain row reduction."""
    m = np.array(matrix, dtype=np.uint8) % 2
    rank = 0
    for col in range(m.shape[1]):
        pivot = next((r for r in range(rank, m.shape[0]) if m[r, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


# rate pairs as fractions of n; bits are rounded so every n from 1 up fits
RATE_PAIRS = [(1.0, 0.5), (0.75, 0.25), (0.5, 0.25), (0.5, 0.0), (0.5, 0.5),
              (1.0, 1.0)]


def rounded_code(n, rate_total, rate_secret, seed):
    return build_code(n, round(n * rate_total) / n,
                      round(n * rate_secret) / n, seed)


# a seed whose first (4, 4) draw is singular over GF(2)
SEED_WITH_REDRAW = 0


class TestBuildCode:
    def test_small_counting(self):
        code = build_code(4, 0.75, 0.25, 0)
        assert code.G.shape == (3, 4) and code.k_secret == 1
        assert codebook(code).shape == (2, 4)

    def test_distinct_codewords(self):
        code = build_code(12, 0.75, 0.25, 1)
        words = codebook(code).reshape(-1)
        assert words.size == 512
        assert np.unique(words).size == 512

    def test_full_space_codebook(self):
        code = build_code(8, 1.0, 0.5, 2)
        assert sorted(codebook(code).reshape(-1)) == list(range(256))

    def test_bins_are_cosets(self):
        # every bin is the randomness code shifted by its message word
        code = build_code(8, 0.75, 0.25, 4)
        bins = codebook(code)
        subcode = set(bins[0].tolist())
        for row in bins:
            assert {int(w) ^ int(row[0]) for w in row} == subcode

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
        assert np.array_equal(a.G, b.G)

    def test_redraws_until_full_rank(self):
        # the first draws of this seed are rank-deficient; the code keeps
        # the first full-rank one, in draw order
        rng = np.random.default_rng(SEED_WITH_REDRAW)
        draws = []
        while not draws or gf2_rank(draws[-1]) < 4:
            draws.append(rng.integers(0, 2, size=(4, 4), dtype=np.uint8))
        assert len(draws) > 1
        code = build_code(4, 1.0, 0.5, SEED_WITH_REDRAW)
        assert np.array_equal(code.G, draws[-1])


class TestGeneratorValidation:
    @pytest.mark.parametrize("G,message", [
        (np.zeros((0, 2), dtype=np.uint8),
         r"generator must have shape \(2, 2\), got \(0, 2\)"),
        (np.array([1, 0, 0, 1]),
         r"generator must have shape \(2, 2\), got \(4,\)"),
        (np.eye(3, 2, dtype=np.uint8),
         r"generator must have shape \(2, 2\), got \(3, 2\)"),
        (np.array([[1, 0], [0, 2]]), "generator entries must be 0 or 1"),
        (np.array([[1, 0], [0, 0.5]]), "generator entries must be 0 or 1"),
        (np.array([[1, 1], [1, 1]]),
         "generator rows are linearly dependent over GF\\(2\\)"),
    ], ids=["rows-0", "1-d", "rows-3", "entry-2", "entry-0.5", "rank-1"])
    def test_bad_generator_one_line(self, G, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WiretapCode(n=2, rate_total=1.0, rate_secret=0.5, G=G)

    @pytest.mark.parametrize("n,error,message", [
        (0, ValueError, "block length must be at least 1, got 0"),
        (MAX_BLOCK_BITS + 1, CodeTooLarge,
         f"block length {MAX_BLOCK_BITS + 1} exceeds budget {MAX_BLOCK_BITS}"),
    ])
    def test_block_length_outside_budget(self, n, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            WiretapCode(n=n, rate_total=0.0, rate_secret=0.0,
                        G=np.zeros((0, max(n, 0)), dtype=np.uint8))

    def test_no_rows_is_valid(self):
        code = WiretapCode(n=3, rate_total=0.0, rate_secret=0.0,
                           G=np.zeros((0, 3), dtype=np.uint8))
        assert equivocation_exact(code, EraseChannel(0.5)) == 0.0


class TestEquivocation:
    def test_full_erasure_exact(self):
        code = build_code(8, 0.75, 0.25, 3)
        assert equivocation_exact(code, EraseChannel(1.0)) == 2.0

    def test_no_erasure_exact(self):
        code = build_code(8, 0.75, 0.25, 3)
        assert equivocation_exact(code, EraseChannel(0.0)) == 0.0

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
        # the oracle's uneven batches: 3 patterns per sort at rate 1, 12
        # at rate 0.75, against all patterns of an erasure count at once
        code = build_code(8, rt, rs, 0)
        values = []
        for pairs in (3 << 8, 1 << 20):
            monkeypatch.setattr(sys.modules[__name__], "SORT_BATCH_PAIRS",
                                pairs)
            values.append(equivocation_sort_oracle(code, 0.5))
        assert values[0] == values[1]
        assert equivocation_exact(code, EraseChannel(0.5)) == \
            pytest.approx(values[0], rel=1e-12)

    @pytest.mark.parametrize("rt,rs,expected", [
        (1.0, 0.5, [4.906005859375, 4.6669921875, 5.037841796875]),
        (0.75, 0.25, [2.181884765625, 2.107177734375, 2.063232421875]),
    ])
    def test_n12_values_pinned(self, rt, rs, expected):
        # frozen from equivocation_sort_oracle, which enumerates the
        # codebook (n = 12, delta = 0.5, code seeds 0-2)
        got = [equivocation_exact(build_code(12, rt, rs, s), EraseChannel(0.5))
               for s in range(3)]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_hand_computed_structured_partition(self):
        # position 0 carries the message bit, position 1 the in-bin bit:
        # erasing position 1 reveals the bin, erasing position 0 hides it
        code = WiretapCode(n=2, rate_total=1.0, rate_secret=0.5,
                           G=np.array([[1, 0], [0, 1]]))
        assert codebook(code).tolist() == [[0b00, 0b10], [0b01, 0b11]]
        assert equivocation_exact(code, EraseChannel(0.5)) == 0.5

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
        # a generator entry, and so a codeword symbol, outside {0, 1}
        with pytest.raises(ValueError, match="^generator entries must be 0 or 1$"):
            WiretapCode(n=2, rate_total=1.0, rate_secret=0.5,
                        G=np.array([[1, 0], [0, word]]))

    def test_budget(self):
        # n = MAX_BLOCK_BITS is enumerated exactly; one more bit is refused
        code = build_code(MAX_BLOCK_BITS, 0.25, 0.25, 0)
        assert equivocation_exact(code, EraseChannel(1.0)) == 4.0
        assert equivocation_exact(code, EraseChannel(0.5)) == \
            pytest.approx(equivocation_sort_oracle(code, 0.5), rel=1e-12)
        with pytest.raises(CodeTooLarge, match="exceeds budget 16$"):
            build_code(MAX_BLOCK_BITS + 1, 0.0, 0.0, 0)


class TestLeakedBits:
    """Every pattern's ``rank(G_O) - rank(G_r,O)`` against row reduction."""

    @pytest.mark.parametrize("rt,rs", RATE_PAIRS)
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_matches_rank_oracle(self, n, rt, rs):
        code = rounded_code(n, rt, rs, n)
        leaked = binning._leaked_bits(code.G, code.k_secret)
        for observed in range(1 << n):
            cols = [j for j in range(n) if observed >> j & 1]
            expected = (gf2_rank(code.G[:, cols])
                        - gf2_rank(code.G[code.k_secret:, cols]))
            assert leaked[observed] == expected, (observed, cols)


class TestSortOracle:
    """equivocation_exact agrees with the codebook enumeration."""

    @pytest.mark.parametrize("rt,rs", RATE_PAIRS)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_on_built_codes(self, n, rt, rs):
        for seed in (0, 1):
            code = rounded_code(n, rt, rs, seed)
            for delta in (0.0, 0.3, 0.5, 1.0):
                assert equivocation_exact(code, EraseChannel(delta)) == \
                    pytest.approx(equivocation_sort_oracle(code, delta),
                                  rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rt,rs", [(1.0, 0.5), (0.75, 0.25)])
    def test_equal_at_n12(self, rt, rs):
        for seed in range(3):
            code = build_code(12, rt, rs, seed)
            assert equivocation_exact(code, EraseChannel(0.5)) == \
                pytest.approx(equivocation_sort_oracle(code, 0.5), rel=1e-12)


def naive_run_lengths(rows, size):
    hist = np.zeros(size, dtype=np.int64)
    for row in rows.reshape(-1, rows.shape[-1]):
        for _, run in itertools.groupby(row.tolist()):
            hist[len(list(run))] += 1
    return hist


class TestRunLengths:
    """The sort oracle's run-length counting against itertools.groupby."""

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
        _sort_run_lengths(rows.astype(np.uint16), hist)
        assert hist.tolist() == naive_run_lengths(rows, size).tolist()

    def test_adds_to_histogram(self):
        hist = np.array([0, 1, 2, 3])
        _sort_run_lengths(np.array([[4, 4, 5]], dtype=np.uint16), hist)
        assert hist.tolist() == [0, 2, 3, 3]


def traced_peak(code, ch):
    """tracemalloc peak of one equivocation_exact call, after a warm-up."""
    equivocation_exact(code, ch)
    tracemalloc.start()
    try:
        equivocation_exact(code, ch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    # traced peak of the same call on the codebook sort kernel this
    # replaced (numpy 2.4.6, Python 3.11.7)
    SORT_KERNEL_PEAK_BYTES = 2_281_685
    # traced peak at the budget, n = 16, (1.0, 0.5), measured once on
    # the rank kernel (same versions): the bases of 2^15 subsets, one
    # uint32 per row, are most of it
    N16_PEAK_BYTES = 3_409_600

    def test_traced_peak_not_above_sort_kernel(self):
        peak = traced_peak(build_code(12, 1.0, 0.5, 0), EraseChannel(0.5))
        assert peak <= self.SORT_KERNEL_PEAK_BYTES

    @pytest.mark.parametrize("rt,rs", [(1.0, 0.5), (0.75, 0.25)])
    def test_traced_peak_at_budget(self, rt, rs):
        peak = traced_peak(build_code(16, rt, rs, 0), EraseChannel(0.5))
        assert peak <= self.N16_PEAK_BYTES


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
            [4, 8, 12], 0.5, 0.75, 0.25, list(range(60)))]
        assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))

    def test_rate_pair_from_operation_example_falls_short(self):
        # the (0.75, 0.25) family at n=12 sits near 0.70, not >= 0.8:
        # frozen from the exact enumeration (verified against the
        # brute-force oracle above)
        [(_, _, mean)] = equivocation_table([12], 0.5, 0.75, 0.25,
                                            list(range(60)))
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
