import numpy as np
import pytest

from sdoflab.cli import iter_canonical_configs
from sdoflab.matlin import RaggedRank, nullspace
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


def trial_of(ps, t):
    """Trial ``t`` of a stacked precoder set alone, as plain matrices."""
    return PrecoderSet(ps.v1l[t], ps.v2l[t], ps.v1j[t], ps.v2j[t], ps.u[t],
                       ps.extension, ps.geometry,
                       tuple(w[t] for w in ps.rx_images))


def built(cfg_tuple, seed=0):
    """One trial, built as a stack of one and returned as plain matrices."""
    cfg = AntennaConfig(*cfg_tuple)
    plan = jamming_plan(cfg)
    h1, h2 = sample_channels(cfg, [seed])
    ps = build_precoder_set(plan, h1, h2, [seed + 10_000])
    return cfg, plan, (h1[0], h2[0]), trial_of(ps, 0)


def lifted(h1, h2, plan):
    """The legitimate channels lifted to the plan's extension."""
    return (extend_channel(h1, plan.extension),
            extend_channel(h2, plan.extension))


class TestBuildJamming:
    def test_aligned_images_coincide(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        h1e = extend_channel(h1, plan.extension)
        h2e = extend_channel(h2, plan.extension)
        img1 = h1e @ ps.v1j
        img2 = h2e @ ps.v2j
        img1 /= np.linalg.norm(img1, axis=0)
        img2 /= np.linalg.norm(img2, axis=0)
        assert np.linalg.norm(img1 - img2) <= 1e-8

    def test_nullspace_invisible_to_receiver(self):
        cfg, plan, (h1, h2), ps = built((3, 3, 2, 1))
        assert ps.v2j.shape == (3, 0)
        assert np.linalg.norm(h1 @ ps.v1j) <= 1e-8 * np.linalg.norm(h1)

    def test_single_random_column(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 4, 1))
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
        # two 2-dim received spaces in ambient 3 share 1 dimension < 2
        cfg = AntennaConfig(2, 2, 3, 1)
        h1, h2 = sample_channels(cfg, [3])
        bad = JammingPlan(extension=1,
                          tx1_parts=(JammingPart(ALIGNED, 2),),
                          tx2_parts=(JammingPart(ALIGNED, 2),),
                          j_s=2, d1=0, d2=0)
        with pytest.raises(AlignmentInfeasible):
            build_jamming(bad, h1, h2, [0])

    @pytest.mark.parametrize("cfg_tuple", [(3, 1, 2, 2), (3, 1, 2, 3),
                                           (4, 3, 2, 4), (5, 4, 3, 6)])
    def test_aligned_columns_avoid_channel_nullspace(self, cfg_tuple):
        # A nullspace component of an aligned column is invisible at the
        # receiver but not at an eavesdropper; wide channels (m_i > n)
        # have such components to pick up.
        for seed in range(5):
            _, plan, (h1, h2), ps = built(cfg_tuple, seed)
            for parts, he, vj in ((plan.tx1_parts, h1, ps.v1j),
                                  (plan.tx2_parts, h2, ps.v2j)):
                starts = np.cumsum([0] + [p.dims for p in parts])
                aligned = np.hstack([vj[:, a:b] for p, a, b in
                                     zip(parts, starts, starts[1:])
                                     if p.method == ALIGNED])
                ns = nullspace(extend_channel(he, plan.extension))
                assert aligned.shape[1]
                assert np.abs(ns.conj().T @ aligned).max(initial=0.0) <= 1e-12

    def test_deterministic_given_seed(self):
        _, plan, (h1, h2), _ = built((2, 2, 3, 1))
        h1e, h2e = lifted(h1, h2, plan)
        a = build_jamming(plan, h1e[None], h2e[None], [5])
        b = build_jamming(plan, h1e[None], h2e[None], [5])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestZeroForcing:
    def test_annihilates_jamming(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        assert ps.u.shape == (5, 6)
        h1e = extend_channel(h1, 2)
        assert np.linalg.norm(ps.u @ (h1e @ ps.v1j)) <= \
            1e-8 * np.linalg.norm(h1e)

    def test_orthonormal_rows(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, _, _, ps = built(cfg_tuple)
            gram = ps.u @ ps.u.conj().T
            assert np.allclose(gram, np.eye(ps.u.shape[0]), atol=1e-10)

    def test_no_receiver_jamming_gives_full_unitary(self):
        cfg, plan, (h1, h2), ps = built((3, 3, 2, 1))
        assert ps.u.shape == (2, 2)

    def test_plan_mismatch_detected(self):
        from sdoflab.precoders import PlanMismatch
        cfg, plan, (h1, h2), ps = built((2, 2, 4, 1))
        wrong = jamming_plan(AntennaConfig(2, 2, 4, 2))
        for args in ((h1, h2, ps.v1j, ps.v2j),
                     (h1[None], h2[None], ps.v1j[None], ps.v2j[None])):
            with pytest.raises(PlanMismatch):
                build_zero_forcing(*args, wrong)


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
        cfg, plan, (h1, h2), ps = built((2, 2, 4, 1))
        from dataclasses import replace
        greedy = replace(plan, d1=plan.extension * cfg.m1)
        with pytest.raises(PlanMismatch):
            build_legit(greedy, ps.v1j[None], ps.v2j[None], [0])


class TestVerifyGeometry:
    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_passes_on_seeded_draws(self, cfg_tuple):
        for seed in range(5):
            _, _, _, ps = built(cfg_tuple, seed)
            rep = ps.geometry
            assert rep.passed, rep
            assert rep.alignment_residual <= 1e-8
            assert rep.nullspace_residual <= 1e-8
            assert rep.zf_residual <= 1e-8

    def test_dimension_audit(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            cfg, plan, (h1, h2), ps = built(cfg_tuple)
            ext = plan.extension
            assert ps.v1j.shape[1] + ps.v2j.shape[1] == ext * cfg.ne
            assert ps.u.shape == (ext * cfg.n - plan.j_s, ext * cfg.n)
            assert ps.geometry.decode_rank == plan.d1 + plan.d2

    def test_random_jamming_breaks_alignment(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        rng = np.random.default_rng(0)
        fake = rng.standard_normal(ps.v1j.shape) \
            + 1j * rng.standard_normal(ps.v1j.shape)
        fake /= np.linalg.norm(fake, axis=0)
        broken = PrecoderSet(v1l=ps.v1l, v2l=ps.v2l, v1j=fake, v2j=ps.v2j,
                             u=ps.u, extension=ps.extension)
        rep = verify_geometry(broken, *lifted(h1, h2, plan), plan)
        assert rep.alignment_residual > 1e-4
        assert not rep.passed

    def test_identity_receiver_breaks_zero_forcing(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        rows = ps.u.shape[0]
        lazy = PrecoderSet(v1l=ps.v1l, v2l=ps.v2l, v1j=ps.v1j, v2j=ps.v2j,
                           u=np.eye(2 * cfg.n, dtype=complex)[:rows],
                           extension=ps.extension)
        rep = verify_geometry(lazy, *lifted(h1, h2, plan), plan)
        assert rep.zf_residual > 1e-4
        assert not rep.passed

    def test_unlifted_channels_rejected(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        assert plan.extension == 2
        with pytest.raises(PlanMismatch):
            verify_geometry(ps, h1, h2, plan)

    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_receiver_images_kept(self, cfg_tuple):
        _, plan, (h1, h2), ps = built(cfg_tuple)
        for w, he, vl in zip(ps.rx_images, lifted(h1, h2, plan),
                             (ps.v1l, ps.v2l)):
            assert np.array_equal(w, ps.u @ (he @ vl))


class TestEavesdropperCoverage:
    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_jamming_overwhelms_eavesdropper(self, cfg_tuple):
        # ten eavesdropper draws against one trial's precoders
        cfg, plan, (h1, h2), ps = built(cfg_tuple)
        (g1, g2), = sample_eves(cfg, [cfg.ne], range(99, 109),
                                slots=plan.extension)
        assert jamming_coverage_rank(ps, g1, g2).tolist() == \
            [plan.extension * cfg.ne] * 10


def test_unjammed_set_shapes():
    cfg = AntennaConfig(2, 2, 4, 1)
    h1, h2 = sample_channels(cfg, [1, 2])
    ps = build_unjammed_set(h1, h2)
    assert ps.v1l.shape == (2, 2, 2) and ps.v2l.shape == (2, 2, 2)
    assert ps.v1j.shape == (2, 2, 0) and ps.u.shape == (2, 4, 4)
    assert ps.geometry.passed
    assert all(np.array_equal(w, h)
               for w, h in zip(ps.rx_images, (h1, h2)))


def test_every_construction_shape_up_to_six_antennas():
    # every case region, including boundaries (m_i = n) and random-spill
    # corners, must build, verify, and cover the eavesdropper
    configs = list(iter_canonical_configs(6))
    assert len(configs) == 882
    for cfg in configs:
        plan = jamming_plan(cfg)
        h1, h2 = sample_channels(cfg, [3])
        ps = build_precoder_set(plan, h1, h2, [80])
        assert ps.geometry.passed, (cfg, ps.geometry)
        if cfg.ne:
            (g1, g2), = sample_eves(cfg, [cfg.ne], [999],
                                    slots=plan.extension)
            assert jamming_coverage_rank(ps, g1, g2).tolist() == \
                [plan.extension * cfg.ne], (cfg, ps.geometry)


class TestStackedBuild:
    """A block of trials is built as one stack of each matrix."""

    def test_lift_matches_kron_bytes(self):
        # The lifted channel has repeated singular values, so its null-space
        # basis, and every precoder after it, depends on the sign of each
        # zero that kron writes off the diagonal blocks.  array_equal treats
        # -0.0 and 0.0 as equal, so only the bytes tell the lifts apart.
        rng = np.random.default_rng(4)
        for trials, n, m in [(1, 1, 1), (3, 2, 3), (5, 4, 2)]:
            h = (rng.standard_normal((trials, n, m))
                 + 1j * rng.standard_normal((trials, n, m)))
            for ext in (1, 2):
                lift = extend_channel(h, ext)
                for t in range(trials):
                    assert lift[t].tobytes() == \
                        np.kron(np.eye(ext), h[t]).tobytes()
        zeros = lift[lift == 0]
        assert np.signbit(zeros.real).any() and np.signbit(zeros.imag).any()

    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_each_trial_equals_its_own_build(self, cfg_tuple):
        cfg = AntennaConfig(*cfg_tuple)
        plan = jamming_plan(cfg)
        h1, h2 = sample_channels(cfg, [1, 2, 3])
        stacked = build_precoder_set(plan, h1, h2, [10, 11, 12])
        for t, seed in enumerate([10, 11, 12]):
            own = build_precoder_set(plan, h1[t:t + 1], h2[t:t + 1],
                                     [seed])
            for name in ("v1l", "v2l", "v1j", "v2j", "u"):
                assert getattr(stacked, name)[t].tobytes() == \
                    getattr(own, name)[0].tobytes(), name

    @pytest.mark.parametrize("cfg_tuple,error", [
        ((2, 1, 2, 1), AlignmentInfeasible),
        ((2, 1, 3, 2), PlanMismatch),
    ])
    def test_odd_trial_raises_its_own_error(self, cfg_tuple, error):
        # A repeated column drops trial 1's channel rank, so its
        # dimensions differ from the other trials' on the way.
        cfg = AntennaConfig(*cfg_tuple)
        plan = jamming_plan(cfg)
        h1, h2 = sample_channels(cfg, [1, 2, 3])
        h1[1, :, 1] = h1[1, :, 0]
        seeds = [10, 11, 12]
        with pytest.raises(error) as own:
            build_precoder_set(plan, h1[1:2], h2[1:2], seeds[1:2])
        with pytest.raises(error) as stacked:
            build_precoder_set(plan, h1, h2, seeds)
        assert str(stacked.value) == str(own.value)

    def test_ragged_ranks_fail_the_stack(self):
        # Here the odd trial builds alone (its geometry report fails),
        # but its channel's row space is narrower than the other trials'.
        cfg = AntennaConfig(2, 2, 2, 1)
        plan = jamming_plan(cfg)
        h1, h2 = sample_channels(cfg, [1, 2, 3])
        h1[1, :, 1] = h1[1, :, 0]
        own = build_precoder_set(plan, h1[1:2], h2[1:2], [11])
        assert not own.geometry.passed
        with pytest.raises(RaggedRank):
            build_precoder_set(plan, h1, h2, [10, 11, 12])
