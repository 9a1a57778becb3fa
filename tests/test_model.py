import math

import numpy as np
import pytest

from sdoflab.model import (AntennaConfig, InvalidConfig, TrialStreams,
                           canonical, gaussian, is_degenerate, real_form,
                           sample_channels, sample_eves)


class TestValidate:
    def test_ok(self):
        assert not is_degenerate(AntennaConfig(2, 2, 4, 1))

    def test_degenerate_when_ne_reaches_m(self):
        assert is_degenerate(AntennaConfig(2, 2, 3, 4))

    def test_zero_antennas_invalid(self):
        for counts in [(0, 2, 3, 1), (2, 0, 3, 1), (2, 2, 0, 1)]:
            with pytest.raises(InvalidConfig, match="at least one antenna"):
                AntennaConfig(*counts)

    def test_negative_field_invalid(self):
        with pytest.raises(InvalidConfig):
            AntennaConfig(2, 2, 3, -1)

    @pytest.mark.parametrize("counts,message", [
        ((True, True, True, False), "m1 must be a nonnegative integer, got True"),
        ((2, 2, 3, False), "ne must be a nonnegative integer, got False"),
    ])
    def test_bool_count_invalid(self, counts, message):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            AntennaConfig(*counts)

    def test_numpy_integer_counts_valid(self):
        cfg = AntennaConfig(*np.array([3, 2, 2, 1]))
        assert (cfg.m1, cfg.m2, cfg.n, cfg.ne) == (3, 2, 2, 1)


def test_canonical_swaps_transmitters():
    cfg = canonical(AntennaConfig(1, 3, 2, 2))
    assert (cfg.m1, cfg.m2, cfg.n, cfg.ne) == (3, 1, 2, 2)
    assert canonical(AntennaConfig(3, 1, 2, 2)) == cfg


class TestSampleChannels:
    def test_shape_contract(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        h1, h2 = sample_channels(cfg, [7, 8])
        assert h1.shape == (2, 6, 4) and h2.shape == (2, 6, 4)
        (g1, g2), = sample_eves(cfg, [1], [7, 8])
        assert g1.shape == (2, 2, 4) and g2.shape == (2, 2, 4)

    def test_each_trial_depends_on_its_own_seed_only(self):
        cfg = AntennaConfig(3, 2, 2, 2)
        stacked = sample_channels(cfg, [7, 8, 9])
        for t, seed in enumerate([7, 8, 9]):
            own = sample_channels(cfg, [seed])
            for a, b in zip(stacked, own):
                assert a[t].tobytes() == b[0].tobytes()

    def test_multiple_eavesdroppers(self):
        cfg = AntennaConfig(3, 2, 2, 2)
        eves = sample_eves(cfg, [2, 1], [7])
        assert eves[0][0].shape == (1, 4, 6)
        assert eves[0][1].shape == (1, 4, 4)
        assert eves[1][0].shape == (1, 2, 6)
        assert eves[1][1].shape == (1, 2, 4)

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
        # E|H_ij|^2 = E (Re H_ij)^2 + E (Im H_ij)^2, read off the first
        # block column [Re H; Im H] of the real forms
        h1, h2 = sample_channels(AntennaConfig(8, 8, 8, 1), [3])
        pooled = np.concatenate([h[:, :, :8].ravel() for h in (h1, h2)])
        assert abs(2 * np.mean(pooled ** 2) - 1.0) < 0.2


class TestSampleEves:
    def test_each_eavesdropper_drawn_once(self):
        # One static draw per eavesdropper and trial: its real form, and
        # the normals of one complex matrix per transmitter, no more.
        cfg = AntennaConfig(3, 2, 4, 2)
        rng = np.random.default_rng(5)
        eves = sample_eves(cfg, [2, 1], [rng])
        for (g1, g2), nej in zip(eves, [2, 1]):
            for g, mi in ((g1, 3), (g2, 2)):
                assert g.shape == (1, 2 * nej, 2 * mi)
                re, im = g[0, :nej, :mi], g[0, nej:, :mi]
                assert g[0].tobytes() == real_form(re, im).tobytes()
        drawn = 2 * (2 + 1) * (3 + 2)
        after = np.random.default_rng(5)
        after.standard_normal(drawn)
        assert rng.standard_normal() == after.standard_normal()

    def test_each_trial_equals_its_own_draw(self):
        cfg = AntennaConfig(3, 2, 4, 2)
        stacked = sample_eves(cfg, [2, 0, 1], [7, 8, 9])
        for t, seed in enumerate([7, 8, 9]):
            own = sample_eves(cfg, [2, 0, 1], [seed])
            for pair, own_pair in zip(stacked, own):
                for g, g_own in zip(pair, own_pair):
                    assert g[t].tobytes() == g_own[0].tobytes()

    def test_zero_antenna_eavesdropper(self):
        cfg = AntennaConfig(2, 2, 3, 1)
        (g1, _), = sample_eves(cfg, [0], [0])
        assert g1.shape == (1, 0, 4)


class TestRealForm:
    """``R(H) = [[Re H, -Im H], [Im H, Re H]]``, built from the parts of
    ``H``, keeps the algebra of ``H``."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(11)

    def parts(self, rng, *shape):
        return rng.standard_normal(shape), rng.standard_normal(shape)

    def test_blocks(self, rng):
        re, im = self.parts(rng, 3, 2)
        assert np.array_equal(real_form(re, im),
                              np.block([[re, -im], [im, re]]))

    def test_product(self, rng):
        # (a + ib)(c + id) = (ac - bd) + i(ad + bc)
        a, b = self.parts(rng, 4, 3, 5)
        c, d = self.parts(rng, 4, 5, 2)
        assert np.allclose(real_form(a @ c - b @ d, a @ d + b @ c),
                           real_form(a, b) @ real_form(c, d),
                           rtol=0.0, atol=1e-12)

    def test_conjugate_transpose(self, rng):
        re, im = self.parts(rng, 4, 3, 5)
        assert np.array_equal(
            real_form(re.swapaxes(-2, -1), -im.swapaxes(-2, -1)),
            real_form(re, im).swapaxes(-2, -1))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 5), (4, 3, 3)])
    def test_singular_values_twice(self, rng, shape):
        re, im = self.parts(rng, *shape)
        got = np.linalg.svd(real_form(re, im), compute_uv=False)
        # oracle: numpy's SVD of the complex matrix itself
        want = np.repeat(np.linalg.svd(re + 1j * im, compute_uv=False), 2,
                         axis=-1)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def two_call_real_form(rng, rows, cols):
    """``R(H)`` of a CN(0, 1) matrix from two ``standard_normal`` calls,
    ``Re H`` then ``Im H``, each scaled to variance 1/2."""
    re = np.sqrt(0.5) * rng.standard_normal((rows, cols))
    im = np.sqrt(0.5) * rng.standard_normal((rows, cols))
    return np.block([[re, -im], [im, re]])


class TestDrawOrder:
    """One standard_normal call per generator draws the values of two calls
    per complex matrix: its real then imaginary part, ``h1`` then ``h2``,
    and the samplers return their real forms."""

    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 2), (2, 5)])
    def test_complex_gaussian(self, rows, cols):
        # The normals of two complex matrices, shape after shape.
        shapes = [(rows, cols), (cols, rows)]
        got = gaussian([np.random.default_rng(s) for s in range(3)],
                       *[(2, *shape) for shape in shapes])
        draws = [[rng.standard_normal(shape) for shape in shapes
                  for _ in ("re", "im")]
                 for rng in (np.random.default_rng(s) for s in range(3))]
        for k, stack in enumerate(got):
            want = np.stack([d[2 * k:2 * k + 2] for d in draws])
            assert stack.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("shapes", [
        [(3, 2)], [(2, 3), (0, 0), (4,)], [(0, 0)], [(1, 1), (0, 5), (2, 2, 2)]])
    def test_gaussian_equals_stack_and_split(self, shapes, trials):
        # numpy's helpers on the same draws: one call per generator,
        # stacked, then split shape after shape
        got = gaussian([np.random.default_rng(s) for s in range(trials)],
                       *shapes)
        sizes = [math.prod(shape) for shape in shapes]
        z = np.stack([np.random.default_rng(s).standard_normal(sum(sizes))
                      for s in range(trials)])
        parts = np.split(z, np.cumsum(sizes)[:-1], axis=1)
        assert len(got) == len(shapes)
        for stack, part, shape in zip(got, parts, shapes):
            assert stack.shape == (trials, *shape)
            assert stack.tobytes() == part.reshape(trials, *shape).tobytes()

    def test_gaussian_zero_size_draws_nothing(self):
        rng = np.random.default_rng(3)
        (z,) = gaussian([rng], (0, 0))
        assert z.shape == (1, 0, 0)
        assert rng.standard_normal(4).tobytes() == \
            np.random.default_rng(3).standard_normal(4).tobytes()

    @pytest.mark.parametrize("cfg_tuple", [(2, 2, 3, 1), (3, 1, 2, 2),
                                           (4, 3, 5, 1)])
    def test_sample_channels(self, cfg_tuple):
        cfg = AntennaConfig(*cfg_tuple)
        h1, h2 = sample_channels(cfg, [4, 5, 6])
        for t, seed in enumerate([4, 5, 6]):
            rng = np.random.default_rng(seed)
            want_h1 = two_call_real_form(rng, cfg.n, cfg.m1)
            want_h2 = two_call_real_form(rng, cfg.n, cfg.m2)
            assert h1[t].tobytes() == want_h1.tobytes()
            assert h2[t].tobytes() == want_h2.tobytes()

    def test_sample_eves(self):
        # Eavesdropper by eavesdropper, transmitter by transmitter.
        cfg = AntennaConfig(3, 2, 4, 2)
        eves = sample_eves(cfg, [2, 1], [5, 6])
        for t, seed in enumerate([5, 6]):
            rng = np.random.default_rng(seed)
            for pair, nej in zip(eves, [2, 1]):
                for g, mi in zip(pair, (3, 2)):
                    want = two_call_real_form(rng, nej, mi)
                    assert g[t].tobytes() == want.tobytes()


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
