import numpy as np
import pytest

from sdoflab.model import (AntennaConfig, InvalidConfig, InvalidEveCount,
                           TrialStreams, _assert_full_rank,
                           canonical, complex_gaussian, eve_image,
                           is_degenerate, sample_channels, sample_eves,
                           validate)


class TestValidate:
    def test_ok(self):
        assert validate(AntennaConfig(2, 2, 4, 1)) == "ok"

    def test_degenerate_when_ne_reaches_m(self):
        assert validate(AntennaConfig(2, 2, 3, 4)) == "degenerate"
        assert is_degenerate(AntennaConfig(2, 2, 3, 4))

    def test_zero_antennas_invalid(self):
        with pytest.raises(InvalidConfig):
            validate(AntennaConfig(0, 2, 3, 1))

    def test_negative_field_invalid(self):
        with pytest.raises(InvalidConfig):
            AntennaConfig(2, 2, 3, -1)


def test_canonical_swaps_transmitters():
    cfg = canonical(AntennaConfig(1, 3, 2, 2))
    assert (cfg.m1, cfg.m2, cfg.n, cfg.ne) == (3, 1, 2, 2)
    assert canonical(AntennaConfig(3, 1, 2, 2)) == cfg


class TestSampleChannels:
    def test_shape_contract(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        h1, h2 = sample_channels(cfg, [7, 8])
        assert h1.shape == (2, 3, 2) and h2.shape == (2, 3, 2)
        (g1, g2), = sample_eves(cfg, [1], [7, 8])
        assert g1.shape == (2, 1, 1, 2) and g2.shape == (2, 1, 1, 2)

    def test_each_trial_depends_on_its_own_seed_only(self):
        cfg = AntennaConfig(3, 2, 2, 2)
        stacked = sample_channels(cfg, [7, 8, 9])
        for t, seed in enumerate([7, 8, 9]):
            own = sample_channels(cfg, [seed])
            for a, b in zip(stacked, own):
                assert a[t].tobytes() == b[0].tobytes()

    def test_rank_deficient_trial_fails_the_stack(self):
        h, _ = sample_channels(AntennaConfig(2, 2, 3, 1), [1, 2, 3])
        h[1, :, 1] = h[1, :, 0]
        for stack in (h[1:2], h):
            with pytest.raises(RuntimeError, match="^sampled channel is "
                               "numerically rank deficient$"):
                _assert_full_rank(stack)

    def test_multiple_eavesdroppers(self):
        cfg = AntennaConfig(3, 2, 2, 2)
        eves = sample_eves(cfg, [2, 1], [7])
        assert eves[0][0].shape == (1, 1, 2, 3)
        assert eves[0][1].shape == (1, 1, 2, 2)
        assert eves[1][0].shape == (1, 1, 1, 3)
        assert eves[1][1].shape == (1, 1, 1, 2)

    def test_eve_count_exceeding_ne(self):
        with pytest.raises(InvalidEveCount):
            sample_eves(AntennaConfig(2, 2, 3, 1), [2], [7])

    def test_deterministic_given_seed(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        a = sample_channels(cfg, [7])
        b = sample_channels(cfg, [7])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        a = sample_channels(cfg, [7])
        b = sample_channels(cfg, [8])
        assert not np.array_equal(a[0], b[0])

    def test_full_rank_every_draw(self):
        cfg = AntennaConfig(4, 3, 3, 2)
        for h in sample_channels(cfg, range(25)):
            s = np.linalg.svd(h, compute_uv=False)
            assert np.all(s[:, -1] > 1e-9 * s[:, 0])

    def test_unit_variance_entries(self):
        h1, h2 = sample_channels(AntennaConfig(8, 8, 8, 1), [3])
        pooled = np.concatenate([h1.ravel(), h2.ravel()])
        assert abs(np.mean(np.abs(pooled) ** 2) - 1.0) < 0.2


class TestSampleEvesSlots:
    def test_block_diagonal_structure(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        (g1, g2), = sample_eves(cfg, [1], [0], slots=2)
        # only the per-slot blocks are stored
        assert g1.shape == (1, 2, 1, 2) and g2.shape == (1, 2, 1, 2)
        # per-slot blocks are independent draws
        assert not np.array_equal(g1[0, 0], g1[0, 1])
        # off-diagonal blocks are zero: slot 0's row ignores slot 1's rows
        v = np.ones((4, 3), dtype=complex)
        w = v.copy()
        w[2:] = 7.0
        assert eve_image(g1[0], v)[0].tobytes() == \
            eve_image(g1[0], w)[0].tobytes()
        assert not np.array_equal(eve_image(g1[0], v)[1],
                                  eve_image(g1[0], w)[1])

    def test_draw_order(self):
        # One standard_normal call per trial, split eavesdropper by
        # eavesdropper, transmitter, slot, then real and imaginary part.
        cfg = AntennaConfig(3, 2, 4, 2)
        eves = sample_eves(cfg, [2, 1], [5], slots=2)
        z = np.random.default_rng(5).standard_normal(2 * 2 * 3 * 5)
        offset = 0
        for pair, nej in zip(eves, [2, 1]):
            for g, mi in zip(pair, (3, 2)):
                for slot in range(2):
                    re, im = z[offset:offset + 2 * nej * mi].reshape(2, nej, mi)
                    offset += 2 * nej * mi
                    want = np.sqrt(0.5) * (re + 1j * im)
                    assert g[0, slot].tobytes() == want.tobytes()
        assert offset == len(z)

    def test_each_trial_equals_its_own_draw(self):
        cfg = AntennaConfig(3, 2, 4, 2)
        stacked = sample_eves(cfg, [2, 0, 1], [7, 8, 9], slots=2)
        for t, seed in enumerate([7, 8, 9]):
            own = sample_eves(cfg, [2, 0, 1], [seed], slots=2)
            for pair, own_pair in zip(stacked, own):
                for g, g_own in zip(pair, own_pair):
                    assert g[t].tobytes() == g_own[0].tobytes()

    def test_zero_antenna_eavesdropper(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        (g1, _), = sample_eves(cfg, [0], [0])
        assert g1.shape == (1, 1, 0, 2)


def two_call_gaussian(rngs, rows, cols):
    """complex_gaussian as two standard_normal calls per matrix."""
    return np.sqrt(0.5) * np.stack([rng.standard_normal((rows, cols))
                                    + 1j * rng.standard_normal((rows, cols))
                                    for rng in rngs])


class TestDrawOrder:
    """One standard_normal call per generator draws the values of two
    calls per matrix: real then imaginary part, ``h1`` then ``h2``."""

    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 2), (2, 5)])
    def test_complex_gaussian(self, rows, cols):
        got, = complex_gaussian([np.random.default_rng(s) for s in range(3)],
                                (rows, cols))
        want = two_call_gaussian([np.random.default_rng(s) for s in range(3)],
                                 rows, cols)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cfg_tuple", [(2, 2, 3, 1), (3, 1, 2, 2),
                                           (4, 3, 5, 1)])
    def test_sample_channels(self, cfg_tuple):
        cfg = AntennaConfig(*cfg_tuple)
        h1, h2 = sample_channels(cfg, [4, 5, 6])
        rngs = [np.random.default_rng(s) for s in [4, 5, 6]]
        want_h1 = two_call_gaussian(rngs, cfg.n, cfg.m1)
        want_h2 = two_call_gaussian(rngs, cfg.n, cfg.m2)
        assert h1.tobytes() == want_h1.tobytes()
        assert h2.tobytes() == want_h2.tobytes()


def seed_sequence_state(seq):
    return np.random.default_rng(seq).bit_generator.state


class TestTrialStreams:
    """The derived generators start where numpy's SeedSequence puts them."""

    @pytest.mark.parametrize("start", [0, 5, 2**20])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32,
                                      2**128 + 5, 10**60])
    def test_equals_seed_sequence(self, seed, start):
        streams = TrialStreams(seed, start + 17)
        for size in (1, 2, 17):
            got = streams.block(start, size, (0, 1, 2))
            assert len(got) == size
            # SeedSequence(seed).spawn(start + size)[start:], spawned
            # without building the first `start` children.
            children = np.random.SeedSequence(
                seed, n_children_spawned=start).spawn(size)
            for t, (trial, child) in enumerate(zip(got, children)):
                assert len(trial) == 3
                for k, (rng, grandchild) in enumerate(zip(trial,
                                                          child.spawn(3))):
                    want = seed_sequence_state(
                        np.random.SeedSequence(seed, spawn_key=(start + t, k)))
                    assert rng.bit_generator.state == want
                    assert seed_sequence_state(grandchild) == want

    def test_stream_subset_and_last_index(self):
        streams = TrialStreams(7, 2**32)
        both = streams.block(2**32 - 3, 3, (0, 1, 2))
        some = streams.block(2**32 - 3, 3, (2, 0))
        for trial, sub in zip(both, some):
            assert [rng.bit_generator.state for rng in sub] == \
                [trial[k].bit_generator.state for k in (2, 0)]
        want = seed_sequence_state(
            np.random.SeedSequence(7, spawn_key=(2**32 - 1, 2)))
        assert some[-1][0].bit_generator.state == want

    @pytest.mark.parametrize("seed,error", [
        (-1, ValueError), (-2**40, ValueError), (1.5, TypeError),
        (2.0, TypeError), ("7", TypeError), ([1, 2], TypeError)])
    def test_bad_seed_raises_like_seed_sequence(self, seed, error):
        with pytest.raises(error):
            TrialStreams(seed, 1)
        if not isinstance(seed, list):  # SeedSequence takes word lists
            with pytest.raises(error):
                np.random.SeedSequence(seed)

    def test_trial_indices_fit_one_key_word(self):
        assert len(TrialStreams(3, 2**32).block(0, 1, (0,))) == 1
        with pytest.raises(ValueError, match="at most 2\\*\\*32 trials"):
            TrialStreams(3, 2**32 + 1)


def block_diagonal(blocks):
    """The ``(slots*r, slots*c)`` block-diagonal matrix of ``blocks``."""
    slots, r, c = blocks.shape
    g = np.zeros((slots * r, slots * c), dtype=blocks.dtype)
    for s in range(slots):
        g[s * r:(s + 1) * r, s * c:(s + 1) * c] = blocks[s]
    return g


class TestEveImage:
    @pytest.mark.parametrize("slots", [1, 2])
    def test_equals_block_diagonal_product(self, slots):
        cfg = AntennaConfig(3, 2, 4, 2)
        (g1, _), = sample_eves(cfg, [2], [1, 2, 3], slots=slots)
        rng = np.random.default_rng(4)
        v = rng.standard_normal((3, slots * 3, 4, 2)) @ np.array([1, 1j])
        got = eve_image(g1, v)
        assert got.shape == (3, slots * 2, 4)
        for t in range(3):
            want = block_diagonal(g1[t]) @ v[t]
            assert np.allclose(got[t], want, rtol=1e-12, atol=0.0)

    def test_single_slot_is_plain_product(self):
        cfg = AntennaConfig(3, 2, 4, 2)
        (g1, _), = sample_eves(cfg, [2], [6])
        v = np.random.default_rng(6).standard_normal((3, 2)) + 0j
        assert eve_image(g1[0], v).tobytes() == (g1[0, 0] @ v).tobytes()
