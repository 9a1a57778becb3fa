from fractions import Fraction

import numpy as np
import pytest

from sdoflab import matlin, precoders
from sdoflab.cli import iter_canonical_configs
from sdoflab.matlin import RaggedRank, nullspace
from sdoflab.model import (AntennaConfig, TrialStreams, sample_channels,
                           sample_eves)
from sdoflab.precoders import (GeometryError, PrecoderSet, build_jamming,
                               build_legit, build_precoder_set,
                               build_unjammed_set, build_zero_forcing,
                               secure_dof_certificate, verify_geometry)
from sdoflab.regions import JammingPlan, jamming_plan, sum_sdof

# the six constructions exercised throughout: one per case region shape
GEOMETRY_CONFIGS = [(2, 2, 4, 1), (2, 2, 3, 1), (3, 3, 2, 1),
                    (3, 1, 2, 3), (3, 1, 2, 2), (3, 2, 2, 1)]


def trial_of(ps, t):
    """Trial ``t`` of a stacked precoder set alone, as plain matrices."""
    return PrecoderSet(ps.v1l[t], ps.v2l[t], ps.v1j[t], ps.v2j[t], ps.u[t],
                       ps.geometry, tuple(w[t] for w in ps.rx_images))


def built(cfg_tuple, seed=0):
    """One trial, built as a stack of one and returned as plain matrices."""
    cfg = AntennaConfig(*cfg_tuple)
    plan = jamming_plan(cfg)
    h1, h2 = sample_channels(cfg, [seed])
    ps = build_precoder_set(plan, h1, h2, [seed + 10_000])
    return cfg, plan, (h1[0], h2[0]), trial_of(ps, 0)


def repeat_antenna(h, t):
    """Trial ``t``'s second antenna repeats its first: in the real form,
    columns ``1`` and ``1 + m`` repeat columns ``0`` and ``m``."""
    m = h.shape[-1] // 2
    h[t, :, [1, 1 + m]] = h[t, :, [0, m]]


class TestBuildJamming:
    def test_aligned_images_coincide(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        img1 = h1 @ ps.v1j
        img2 = h2 @ ps.v2j
        img1 /= np.linalg.norm(img1, axis=0)
        img2 /= np.linalg.norm(img2, axis=0)
        assert np.linalg.norm(img1 - img2) <= 1e-8

    def test_nullspace_invisible_to_receiver(self):
        cfg, plan, (h1, h2), ps = built((3, 3, 2, 1))
        assert ps.v2j.shape == (6, 0)
        assert np.linalg.norm(h1 @ ps.v1j) <= 1e-8 * np.linalg.norm(h1)

    def test_single_random_column(self):
        # one complex column: two real ones
        cfg, plan, (h1, h2), ps = built((2, 2, 4, 1))
        assert ps.v1j.shape == (4, 2)
        assert ps.v2j.shape == (4, 0)
        assert np.allclose(np.linalg.norm(ps.v1j, axis=0), 1.0, atol=1e-12)

    def test_unit_norm_columns(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, _, _, ps = built(cfg_tuple)
            for v in (ps.v1j, ps.v2j):
                if v.shape[1]:
                    assert np.allclose(np.linalg.norm(v, axis=0), 1.0,
                                       atol=1e-10)

    def test_alignment_infeasible_budget(self):
        # two 2-dim received spaces in ambient 3 share 1 dimension < 2
        h1, h2 = np.random.default_rng(3).standard_normal((2, 1, 3, 2))
        bad = JammingPlan((0, 0), 2, (0, 0), 0, 0)
        with pytest.raises(GeometryError,
                           match="^received signal spaces share 1 "
                                 "dimensions, need 2$"):
            build_jamming(bad, h1, h2, [np.random.default_rng(0)])

    @pytest.mark.parametrize("cfg_tuple", [(3, 1, 2, 2), (3, 1, 2, 3),
                                           (4, 3, 2, 4), (5, 4, 3, 6)])
    def test_aligned_columns_avoid_channel_nullspace(self, cfg_tuple):
        # A nullspace component of an aligned column is invisible at the
        # receiver but not at an eavesdropper; wide channels (m_i > n)
        # have such components to pick up.
        for seed in range(5):
            _, plan, (h1, h2), ps = built(cfg_tuple, seed)
            for null, he, vj in zip(plan.null, (h1, h2), (ps.v1j, ps.v2j)):
                aligned = vj[:, null:null + plan.aligned]
                ns = nullspace(he)
                assert aligned.shape[1]
                assert np.abs(ns.T @ aligned).max(initial=0.0) <= 1e-12

    def test_deterministic_given_seed(self):
        _, plan, (h1, h2), _ = built((2, 2, 3, 1))
        a = build_jamming(plan, h1[None], h2[None],
                          [np.random.default_rng(5)])
        b = build_jamming(plan, h1[None], h2[None],
                          [np.random.default_rng(5)])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestZeroForcing:
    def test_annihilates_jamming(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        assert ps.u.shape == (5, 6)
        assert np.linalg.norm(ps.u @ (h1 @ ps.v1j)) <= \
            1e-8 * np.linalg.norm(h1)

    def test_orthonormal_rows(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, _, _, ps = built(cfg_tuple)
            gram = ps.u @ ps.u.T
            assert np.allclose(gram, np.eye(ps.u.shape[0]), atol=1e-10)

    def test_no_receiver_jamming_gives_full_unitary(self):
        cfg, plan, (h1, h2), ps = built((3, 3, 2, 1))
        assert ps.u.shape == (4, 4)

    def test_plan_mismatch_detected(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 4, 1))
        wrong = jamming_plan(AntennaConfig(2, 2, 4, 2))
        for args in ((h1, h2, ps.v1j, ps.v2j),
                     (h1[None], h2[None], ps.v1j[None], ps.v2j[None])):
            with pytest.raises(GeometryError,
                               match=r"^received jamming space has dimension "
                                     r"2, plan says 4$"):
                build_zero_forcing(*args, wrong)


class TestBuildLegit:
    def test_orthogonal_to_jamming(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, _, _, ps = built(cfg_tuple)
            for vl, vj in ((ps.v1l, ps.v1j), (ps.v2l, ps.v2j)):
                if vl.shape[1] and vj.shape[1]:
                    assert np.abs(vl.T @ vj).max() <= 1e-10

    def test_orthonormal_columns(self):
        for cfg_tuple in GEOMETRY_CONFIGS:
            _, plan, _, ps = built(cfg_tuple)
            for vl, d in ((ps.v1l, plan.d1), (ps.v2l, plan.d2)):
                assert vl.shape[1] == d
                if d:
                    assert np.allclose(vl.T @ vl, np.eye(d), atol=1e-10)

    def test_stream_split_dimensions(self):
        _, plan, _, ps = built((2, 2, 4, 1))
        assert ps.v1l.shape == (4, 2) and ps.v2l.shape == (4, 4)

    def test_plan_mismatch_when_overbooked(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 4, 1))
        from dataclasses import replace
        greedy = replace(plan, d1=2 * cfg.m1)
        with pytest.raises(GeometryError,
                           match="^complement of the jamming span has "
                                 "dimension 2, plan wants 4 streams$"):
            build_legit(greedy, ps.v1j[None], ps.v2j[None],
                        [np.random.default_rng(0)])


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
            assert ps.v1j.shape[1] + ps.v2j.shape[1] == 2 * cfg.ne
            assert ps.u.shape == (2 * cfg.n - plan.j_s, 2 * cfg.n)
            assert ps.geometry.decode_rank == plan.d1 + plan.d2

    def test_random_jamming_breaks_alignment(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        rng = np.random.default_rng(0)
        fake = rng.standard_normal(ps.v1j.shape)
        fake /= np.linalg.norm(fake, axis=0)
        broken = PrecoderSet(v1l=ps.v1l, v2l=ps.v2l, v1j=fake, v2j=ps.v2j,
                             u=ps.u)
        rep = verify_geometry(broken, h1, h2, plan)
        assert rep.alignment_residual > 1e-4
        assert not rep.passed

    def test_broken_nullspace_columns_detected(self):
        # Transmitter 1's nullspace columns come first, ahead of its
        # aligned ones; replacing only them leaves the alignment intact.
        cfg, plan, (h1, h2), ps = built((3, 1, 2, 2))
        null1 = plan.null[0]
        assert null1 and plan.aligned
        rng = np.random.default_rng(0)
        fake = rng.standard_normal((ps.v1j.shape[0], null1))
        v1j = ps.v1j.copy()
        v1j[:, :null1] = fake / np.linalg.norm(fake, axis=0)
        broken = PrecoderSet(v1l=ps.v1l, v2l=ps.v2l, v1j=v1j, v2j=ps.v2j,
                             u=ps.u)
        rep = verify_geometry(broken, h1, h2, plan)
        assert rep.nullspace_residual > 1e-4
        assert rep.alignment_residual <= 1e-8
        assert not rep.passed

    def test_identity_receiver_breaks_zero_forcing(self):
        cfg, plan, (h1, h2), ps = built((2, 2, 3, 1))
        rows = ps.u.shape[0]
        lazy = PrecoderSet(v1l=ps.v1l, v2l=ps.v2l, v1j=ps.v1j, v2j=ps.v2j,
                           u=np.eye(2 * cfg.n)[:rows])
        rep = verify_geometry(lazy, h1, h2, plan)
        assert rep.zf_residual > 1e-4
        assert not rep.passed

    def test_residuals_match_a_per_trial_computation(self):
        # a plan with nullspace, aligned and random columns, over 3 trials
        cfg = AntennaConfig(4, 1, 3, 4)
        plan = jamming_plan(cfg)
        assert plan == JammingPlan(null=(2, 0), aligned=2, random=(2, 0),
                                   d1=2, d2=0)
        h1, h2 = sample_channels(cfg, [1, 2, 3])
        ps = build_precoder_set(plan, h1, h2, [11, 12, 13])
        (n1, n2), a = plan.null, plan.aligned
        align = null = zf = 0.0
        for t in range(3):
            hs = (h1[t], h2[t])
            images = (hs[0] @ ps.v1j[t], hs[1] @ ps.v2j[t])
            x, y = images[0][:, n1:n1 + a], images[1][:, n2:n2 + a]
            x, y = x / np.linalg.norm(x, axis=0), y / np.linalg.norm(y, axis=0)
            align = max(align, np.linalg.norm(x - y, axis=0).max())
            for h, image, k in zip(hs, images, (n1, n2)):
                scale = np.linalg.norm(h)
                if k:
                    null = max(null, np.linalg.norm(image[:, :k]) / scale)
                if image.shape[1]:
                    zf = max(zf, np.linalg.norm(ps.u[t] @ image) / scale)
        rep = ps.geometry
        measured = (rep.alignment_residual, rep.nullspace_residual,
                    rep.zf_residual)
        # roundoff-sized values: approx's default abs=1e-12 would pass any
        assert measured == pytest.approx((align, null, zf), rel=1e-12, abs=0)

    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_receiver_images_kept(self, cfg_tuple):
        _, plan, (h1, h2), ps = built(cfg_tuple)
        for w, he, vl in zip(ps.rx_images, (h1, h2), (ps.v1l, ps.v2l)):
            assert np.array_equal(w, ps.u @ (he @ vl))


class TestEavesdropperCoverage:
    @pytest.mark.parametrize("cfg_tuple", GEOMETRY_CONFIGS)
    def test_jamming_overwhelms_eavesdropper(self, cfg_tuple):
        # ten draws of each eavesdropper size against one trial's
        # precoders: the jamming fills every eavesdropper's view, so none
        # resolves a stream, and the receiver decodes them all
        cfg, plan, (h1, h2), ps = built(cfg_tuple)
        eves = sample_eves(cfg, range(cfg.ne + 1), range(99, 109))
        for g1, g2 in eves:
            jam = np.concatenate([g1 @ ps.v1j, g2 @ ps.v2j], axis=-1)
            assert matlin.rank(jam).tolist() == [g1.shape[-2]] * 10
        assert secure_dof_certificate(ps, eves) == sum_sdof(cfg)

    @pytest.mark.parametrize("cfg_tuple", [(2, 2, 3, 1), (3, 1, 2, 2),
                                           (3, 1, 2, 3), (4, 4, 6, 7)])
    def test_certificate_sees_a_dropped_jamming_column(self, cfg_tuple):
        # Transmitter 1 without one of its jamming columns: the largest
        # eavesdropper resolves a real stream, half a DoF.
        cfg, plan, (h1, h2), ps = built(cfg_tuple)
        weak = PrecoderSet(ps.v1l, ps.v2l, ps.v1j[:, 1:], ps.v2j, ps.u,
                           rx_images=ps.rx_images)
        eves = sample_eves(cfg, [cfg.ne], [99])
        assert secure_dof_certificate(ps, eves) == sum_sdof(cfg)
        assert secure_dof_certificate(weak, eves) == sum_sdof(cfg) - \
            Fraction(1, 2)


class TestBlindEavesdropper:
    """An eavesdropper whose rows avoid one draw's jamming, ``G V_J = 0``:
    a probability-zero channel, which leaks ``rank(G V_L)`` dimensions."""

    @staticmethod
    def blind():
        # (2,2,3,1), trial 0 of seed 7; G is two rows of the complement
        # of the jamming columns, diag(V1J, V2J)
        cfg = AntennaConfig(2, 2, 3, 1)
        (channel, precoder), = TrialStreams(7, 1).block(0, 1, (0, 1))
        h1, h2 = sample_channels(cfg, [channel])
        ps = build_precoder_set(jamming_plan(cfg), h1, h2, [precoder])
        v1j, v2j = ps.v1j[0], ps.v2j[0]
        jam = np.block([[v1j, np.zeros((len(v1j), v2j.shape[1]))],
                        [np.zeros((len(v2j), v1j.shape[1])), v2j]])
        g = matlin.complement(jam)[:, :2].T
        return cfg, ps, g, len(v1j)

    def test_leaks_its_view_of_the_streams(self):
        cfg, ps, g, m = self.blind()
        g1, g2 = g[None, :, :m], g[None, :, m:]
        jam = np.concatenate([g1 @ ps.v1j, g2 @ ps.v2j], axis=-1)
        assert float(matlin.frobenius(jam)[0]) < 1e-15
        legit = np.concatenate([g1 @ ps.v1l, g2 @ ps.v2l], axis=-1)
        assert matlin.rank(legit).tolist() == [2]
        assert sum_sdof(cfg) == Fraction(5, 2)
        assert secure_dof_certificate(ps, [(g1, g2)]) == Fraction(3, 2)

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_perturbed_channel_is_generic(self, eps):
        cfg, ps, g, m = self.blind()
        g = g + eps * np.random.default_rng(0).standard_normal(g.shape)
        eves = [(g[None, :, :m], g[None, :, m:])]
        assert secure_dof_certificate(ps, eves) == sum_sdof(cfg)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 1), (1, 4, 2),
                                   (3, 6, 4), (2, 5, 1), (4, 1, 3)])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_column_norms_equal_linalg_norm(shape, scale):
    # numpy's helper, bit for bit
    v = scale * np.random.default_rng(2).standard_normal(shape)
    norms = np.linalg.norm(v, axis=-2)
    assert precoders._column_norms(v).tobytes() == norms.tobytes()
    assert precoders._normalize_columns(v).tobytes() == \
        (v / norms[..., None, :]).tobytes()


def test_unjammed_set_shapes():
    cfg = AntennaConfig(2, 2, 4, 1)
    h1, h2 = sample_channels(cfg, [1, 2])
    ps = build_unjammed_set(h1, h2)
    assert ps.v1l.shape == (2, 4, 4) and ps.v2l.shape == (2, 4, 4)
    assert ps.v1j.shape == (2, 4, 0) and ps.u.shape == (2, 8, 8)
    assert ps.geometry is None
    assert all(np.array_equal(w, h)
               for w, h in zip(ps.rx_images, (h1, h2)))


def test_every_construction_shape_up_to_six_antennas():
    # every case region, including boundaries (m_i = n) and random-spill
    # corners, must build, verify, and certify the closed form against
    # the largest eavesdropper
    configs = list(iter_canonical_configs(6))
    assert len(configs) == 882
    for cfg in configs:
        plan = jamming_plan(cfg)
        h1, h2 = sample_channels(cfg, [3])
        ps = build_precoder_set(plan, h1, h2, [80])
        assert ps.geometry.passed, (cfg, ps.geometry)
        eves = sample_eves(cfg, [cfg.ne], [999])
        assert secure_dof_certificate(ps, eves) == sum_sdof(cfg), \
            (cfg, ps.geometry)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
@pytest.mark.parametrize("cfg_tuple",
                         GEOMETRY_CONFIGS + [(4, 4, 6, 7), (5, 4, 3, 6)])
def test_rank_rule_is_scale_free(cfg_tuple, scale):
    # Every rank is relative to its own matrix, so scaled channels build
    # the same dimensions and pass the same relative residual checks.
    cfg = AntennaConfig(*cfg_tuple)
    h1, h2 = sample_channels(cfg, [1, 2, 3])
    ps = build_precoder_set(jamming_plan(cfg), scale * h1, scale * h2,
                            [10, 11, 12])
    assert ps.geometry.passed, ps.geometry


class TestStackedBuild:
    """A block of trials is built as one stack of each matrix."""

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

    @pytest.mark.parametrize("cfg_tuple,message", [
        ((2, 1, 2, 1), "received signal spaces share 0 dimensions, need 1"),
        ((2, 1, 3, 2), "received jamming space has dimension 2, plan says 4"),
    ], ids=["cfg_tuple0-AlignmentInfeasible", "cfg_tuple1-PlanMismatch"])
    def test_odd_trial_raises_its_own_error(self, cfg_tuple, message):
        # A repeated antenna drops trial 1's channel rank, so its
        # dimensions differ from the other trials' on the way.
        cfg = AntennaConfig(*cfg_tuple)
        plan = jamming_plan(cfg)
        h1, h2 = sample_channels(cfg, [1, 2, 3])
        repeat_antenna(h1, 1)
        seeds = [10, 11, 12]
        # GeometryError is what simulate maps to exit 2
        with pytest.raises(GeometryError, match=f"^{message}$") as own:
            build_precoder_set(plan, h1[1:2], h2[1:2], seeds[1:2])
        with pytest.raises(GeometryError) as stacked:
            build_precoder_set(plan, h1, h2, seeds)
        assert str(stacked.value) == str(own.value)

    def test_ragged_ranks_fail_the_stack(self):
        # Here the odd trial's channel row space is narrower than the
        # other trials', and its own build fails its geometry report.
        cfg = AntennaConfig(2, 2, 2, 1)
        plan = jamming_plan(cfg)
        h1, h2 = sample_channels(cfg, [1, 2, 3])
        repeat_antenna(h1, 1)
        with pytest.raises(GeometryError) as own:
            build_precoder_set(plan, h1[1:2], h2[1:2], [11])
        assert str(own.value) == "decode_rank 1 != expected rank 3"
        with pytest.raises(GeometryError) as stacked:
            build_precoder_set(plan, h1, h2, [10, 11, 12])
        assert str(stacked.value) == str(own.value)

    def test_ragged_ranks_of_usable_trials_fail_the_stack(self):
        # Trial 1's second channel has rank 1, so the row space that its
        # aligned columns come from is narrower than the other trials';
        # each trial builds alone and passes, so the stack fails with the
        # RaggedRank as the cause.
        cfg = AntennaConfig(3, 2, 2, 2)
        plan = jamming_plan(cfg)
        assert plan.aligned
        h1, h2 = sample_channels(cfg, [1, 2, 3])
        repeat_antenna(h2, 1)
        for t, seed in enumerate([10, 11, 12]):
            own = build_precoder_set(plan, h1[t:t + 1], h2[t:t + 1], [seed])
            assert own.geometry.passed
        with pytest.raises(GeometryError,
                           match="^numerical ranks differ") as stacked:
            build_precoder_set(plan, h1, h2, [10, 11, 12])
        assert isinstance(stacked.value.__cause__, RaggedRank)

    def test_failed_report_raises_its_failures(self, monkeypatch):
        # The plan's only receiver jamming is random columns, so no
        # alignment or nullspace residual is measured.
        cfg = AntennaConfig(2, 2, 4, 1)
        plan = jamming_plan(cfg)
        assert (plan.null, plan.aligned, plan.random) == ((0, 0), 0, (2, 0))
        h1, h2 = sample_channels(cfg, [1, 2])
        rep = build_precoder_set(plan, h1, h2, [10, 11]).geometry
        assert rep.passed
        # Every zero-forcing residual exceeds a zero tolerance, and the
        # report reads the tolerance when asked.
        monkeypatch.setattr(precoders, "GEOMETRY_TOL", 0.0)
        assert rep.failures() == [
            f"zf_residual {rep.zf_residual:.3g} exceeds tolerance 0"]
        assert not rep.passed
        with pytest.raises(GeometryError) as exc:
            build_precoder_set(plan, h1, h2, [10, 11])
        assert str(exc.value) == "; ".join(rep.failures())
