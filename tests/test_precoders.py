import numpy as np
import pytest

from sdoflab.model import AntennaConfig, sample_channels, sample_eves
from sdoflab.precoders import (AlignmentInfeasible, PlanMismatch,
                               PrecoderSet, build_jamming, build_legit,
                               build_precoder_set, build_unjammed_set,
                               build_zero_forcing,
                               extend_channel, jamming_coverage_rank,
                               verify_geometry)
from sdoflab.regions import (ALIGNED, JammingPart, JammingPlan, jamming_plan)

# the six constructions exercised throughout: one per case region shape
GEOMETRY_CONFIGS = [(2, 2, 4, 1), (2, 2, 3, 1), (3, 3, 2, 1),
                    (3, 1, 2, 3), (3, 1, 2, 2), (3, 2, 2, 1)]


def built(cfg_tuple, seed=0):
    cfg = AntennaConfig(*cfg_tuple)
    plan = jamming_plan(cfg)
    ch = sample_channels(cfg, [], 1.0, seed)
    ps = build_precoder_set(plan, ch.h1, ch.h2, seed + 10_000)
    return cfg, plan, ch, ps


def lifted(ch, plan):
    """The legitimate channels lifted to the plan's extension."""
    return (extend_channel(ch.h1, plan.extension),
            extend_channel(ch.h2, plan.extension))


class TestBuildJamming:
    def test_aligned_images_coincide(self):
        cfg, plan, ch, ps = built((2, 2, 3, 1))
        h1e = extend_channel(ch.h1, plan.extension)
        h2e = extend_channel(ch.h2, plan.extension)
        img1 = h1e @ ps.v1j
        img2 = h2e @ ps.v2j
        img1 /= np.linalg.norm(img1, axis=0)
        img2 /= np.linalg.norm(img2, axis=0)
        assert np.linalg.norm(img1 - img2) <= 1e-8

    def test_nullspace_invisible_to_receiver(self):
        cfg, plan, ch, ps = built((3, 3, 2, 1))
        assert ps.v2j.shape == (3, 0)
        assert np.linalg.norm(ch.h1 @ ps.v1j) <= 1e-8 * np.linalg.norm(ch.h1)

    def test_single_random_column(self):
        cfg, plan, ch, ps = built((2, 2, 4, 1))
        assert ps.v1j.shape == (2, 1)
        assert ps.v2j.shape == (2, 0)
        assert np.linalg.norm(ps.v1j[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_columns(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, _, _, ps = built(cfg_tuple)
            for v in (ps.v1j, ps.v2j):
                if v.shape[1]:
                    assert np.allclose(np.linalg.norm(v, axis=0), 1.0,
                                       atol=1e-10)

    def test_alignment_infeasible_budget(self):
        # intersection of two 2-dim spaces in ambient 3 has dimension 1 < 2
        cfg = AntennaConfig(2, 2, 3, 1)
        ch = sample_channels(cfg, [], 1.0, 3)
        bad = JammingPlan(extension=1,
                          tx1_parts=(JammingPart(ALIGNED, 2),),
                          tx2_parts=(JammingPart(ALIGNED, 2),),
                          j_s=2, d1=0, d2=0)
        with pytest.raises(AlignmentInfeasible):
            build_jamming(bad, ch.h1, ch.h2, 0)

    def test_deterministic_given_seed(self):
        _, plan, ch, _ = built((2, 2, 3, 1))
        h1e, h2e = lifted(ch, plan)
        a = build_jamming(plan, h1e, h2e, 5)
        b = build_jamming(plan, h1e, h2e, 5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestZeroForcing:
    def test_annihilates_jamming(self):
        cfg, plan, ch, ps = built((2, 2, 3, 1))
        assert ps.u.shape == (5, 6)
        h1e = extend_channel(ch.h1, 2)
        assert np.linalg.norm(ps.u @ (h1e @ ps.v1j)) <= \
            1e-8 * np.linalg.norm(h1e)

    def test_orthonormal_rows(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, _, _, ps = built(cfg_tuple)
            gram = ps.u @ ps.u.conj().T
            assert np.allclose(gram, np.eye(ps.u.shape[0]), atol=1e-10)

    def test_no_receiver_jamming_gives_full_unitary(self):
        cfg, plan, ch, ps = built((3, 3, 2, 1))
        assert ps.u.shape == (2, 2)

    def test_plan_mismatch_detected(self):
        from sdoflab.precoders import PlanMismatch
        cfg, plan, ch, ps = built((2, 2, 4, 1))
        wrong = jamming_plan(AntennaConfig(2, 2, 4, 2))
        with pytest.raises(PlanMismatch):
            build_zero_forcing(ch.h1, ch.h2, ps.v1j, ps.v2j, wrong)


class TestBuildLegit:
    def test_orthogonal_to_jamming(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, _, _, ps = built(cfg_tuple)
            for vl, vj in ((ps.v1l, ps.v1j), (ps.v2l, ps.v2j)):
                if vl.shape[1] and vj.shape[1]:
                    assert np.abs(vl.conj().T @ vj).max() <= 1e-10

    def test_orthonormal_columns(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, plan, _, ps = built(cfg_tuple)
            for vl, d in ((ps.v1l, plan.d1), (ps.v2l, plan.d2)):
                assert vl.shape[1] == d
                if d:
                    assert np.allclose(vl.conj().T @ vl, np.eye(d), atol=1e-10)

    def test_stream_split_dimensions(self):
        _, plan, _, ps = built((2, 2, 4, 1))
        assert ps.v1l.shape == (2, 1) and ps.v2l.shape == (2, 2)

    def test_plan_mismatch_when_overbooked(self):
        from sdoflab.precoders import PlanMismatch
        cfg, plan, ch, ps = built((2, 2, 4, 1))
        from dataclasses import replace
        greedy = replace(plan, d1=plan.extension * cfg.m1)
        with pytest.raises(PlanMismatch):
            build_legit(greedy, ps.v1j, ps.v2j, 0)


class TestVerifyGeometry:
    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_passes_on_seeded_draws(self, cfg_tuple):
        for seed in range(5):
            _, _, _, ps = built(cfg_tuple, seed)
            rep = ps.geometry
            assert rep.passed, rep.summary()
            assert rep.alignment_residual <= 1e-8
            assert rep.nullspace_residual <= 1e-8
            assert rep.zf_residual <= 1e-8

    def test_dimension_audit(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            cfg, plan, ch, ps = built(cfg_tuple)
            ext = plan.extension
            assert ps.v1j.shape[1] + ps.v2j.shape[1] == ext * cfg.ne
            assert ps.u.shape == (ext * cfg.n - plan.j_s, ext * cfg.n)
            assert ps.geometry.decode_rank == plan.d1 + plan.d2

    def test_random_jamming_breaks_alignment(self):
        cfg, plan, ch, ps = built((2, 2, 3, 1))
        rng = np.random.default_rng(0)
        fake = rng.standard_normal(ps.v1j.shape) \
            + 1j * rng.standard_normal(ps.v1j.shape)
        fake /= np.linalg.norm(fake, axis=0)
        broken = PrecoderSet(v1l=ps.v1l, v2l=ps.v2l, v1j=fake, v2j=ps.v2j,
                             u=ps.u, extension=ps.extension)
        rep = verify_geometry(broken, *lifted(ch, plan), plan)
        assert rep.alignment_residual > 1e-4
        assert not rep.passed

    def test_identity_receiver_breaks_zero_forcing(self):
        cfg, plan, ch, ps = built((2, 2, 3, 1))
        rows = ps.u.shape[0]
        lazy = PrecoderSet(v1l=ps.v1l, v2l=ps.v2l, v1j=ps.v1j, v2j=ps.v2j,
                           u=np.eye(2 * cfg.n, dtype=complex)[:rows],
                           extension=ps.extension)
        rep = verify_geometry(lazy, *lifted(ch, plan), plan)
        assert rep.zf_residual > 1e-4
        assert not rep.passed

    def test_unlifted_channels_rejected(self):
        cfg, plan, ch, ps = built((2, 2, 3, 1))
        assert plan.extension == 2
        with pytest.raises(PlanMismatch):
            verify_geometry(ps, ch.h1, ch.h2, plan)

    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_receiver_images_kept(self, cfg_tuple):
        _, plan, ch, ps = built(cfg_tuple)
        for w, he, vl in zip(ps.rx_images, lifted(ch, plan),
                             (ps.v1l, ps.v2l)):
            assert np.array_equal(w, ps.u @ (he @ vl))


class TestEavesdropperCoverage:
    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_jamming_overwhelms_eavesdropper(self, cfg_tuple):
        cfg, plan, ch, ps = built(cfg_tuple)
        rng = np.random.default_rng(99)
        for _ in range(10):
            (g1, g2), = sample_eves(cfg, [cfg.ne], rng, slots=plan.extension)
            assert jamming_coverage_rank(ps, g1, g2) == \
                plan.extension * cfg.ne


def test_unjammed_set_shapes():
    cfg = AntennaConfig(2, 2, 4, 1)
    ch = sample_channels(cfg, [], 1.0, 1)
    ps = build_unjammed_set(ch.h1, ch.h2)
    assert ps.v1l.shape == (2, 2) and ps.v2l.shape == (2, 2)
    assert ps.v1j.shape == (2, 0) and ps.u.shape == (4, 4)
    assert ps.geometry.passed
    assert all(np.array_equal(w, h)
               for w, h in zip(ps.rx_images, (ch.h1, ch.h2)))


def test_every_construction_shape_up_to_four_antennas():
    # every case region, including boundaries (m_i = n) and random-spill
    # corners, must build, verify, and cover the eavesdropper
    for m1 in range(1, 5):
        for m2 in range(1, m1 + 1):
            for n in range(1, 5):
                for ne in range(m1 + m2):
                    cfg = AntennaConfig(m1, m2, n, ne)
                    plan = jamming_plan(cfg)
                    ch = sample_channels(cfg, [], 1.0, 3)
                    ps = build_precoder_set(plan, ch.h1, ch.h2, 80)
                    assert ps.geometry.passed, (cfg, ps.geometry.summary())
                    if cfg.ne:
                        rng = np.random.default_rng(999)
                        (g1, g2), = sample_eves(cfg, [cfg.ne], rng,
                                                slots=plan.extension)
                        assert jamming_coverage_rank(ps, g1, g2) == \
                            plan.extension * cfg.ne, cfg
