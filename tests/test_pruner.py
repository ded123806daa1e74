import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpv.bench import scoring_cost_scaling
from sharpv.errors import ConfigError
from sharpv.pruner import (
    MODE_ADAPTIVE,
    MODE_MANUAL,
    PrunerConfig,
    VideoTokens,
    combined_importance,
    frame_thresholds,
    prune_video,
    select_topk,
    importance_maps,
)

import reference_pruner as ref


def random_video(seed, n=4, f=6, d=8):
    rng = np.random.default_rng(seed)
    return VideoTokens(n, f, d, rng.standard_normal((n * f, d)))


def to_frames(video):
    return [[list(tok) for tok in video.frame(t)] for t in range(video.n)]


class TestVideoTokens:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            VideoTokens(0, 4, 4, np.zeros((0, 4)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            VideoTokens(2, 3, 4, np.zeros((5, 4)))

    def test_rejects_nonfinite(self):
        data = np.zeros((6, 4))
        data[2, 1] = np.nan
        with pytest.raises(ValueError):
            VideoTokens(2, 3, 4, data)

    def test_frame_view(self):
        v = random_video(0)
        assert np.array_equal(v.frame(2), v.data[2 * v.f : 3 * v.f])
        assert np.array_equal(v.frames()[1], v.frame(1))


class TestSpatialImportance:
    def test_identical_tokens_score_zero(self):
        frame = np.tile([1.0, 2.0, 3.0], (4, 1))
        v = VideoTokens(1, 4, 3, frame)
        assert np.allclose(importance_maps(v)[0], 0.0, atol=1e-9)

    def test_orthogonal_pair_frame(self):
        # both tokens sit sqrt(2 - sqrt(2)) away from their mean direction
        v = VideoTokens(1, 2, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        expected = math.sqrt(2.0 - math.sqrt(2.0))
        spatial, _ = importance_maps(v)
        assert spatial[0] == pytest.approx([expected, expected], abs=1e-9)

    def test_matches_loop_oracle(self):
        for seed in range(10):
            v = random_video(seed)
            got = importance_maps(v)[0]
            want = ref.spatial(to_frames(v))
            assert got == pytest.approx(np.array(want), abs=1e-9)


class TestTemporalImportance:
    def test_repeated_frames_score_zero(self):
        frame = np.random.default_rng(0).standard_normal((5, 4))
        v = VideoTokens(3, 5, 4, np.tile(frame, (3, 1)))
        t = importance_maps(v)[1]
        assert np.allclose(t[1:], 0.0, atol=1e-9)

    def test_first_frame_equals_spatial_row(self):
        v = random_video(1)
        spatial, temporal = importance_maps(v)
        assert np.allclose(temporal[0], spatial[0], atol=1e-12)

    def test_antipodal_second_frame(self):
        f0 = np.eye(3)
        v = VideoTokens(2, 3, 3, np.vstack([f0, -f0]))
        _, temporal = importance_maps(v)
        assert temporal[1] == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)

    def test_matches_loop_oracle(self):
        for seed in range(10, 20):
            v = random_video(seed)
            got = importance_maps(v)[1]
            want = ref.temporal(to_frames(v))
            assert got == pytest.approx(np.array(want), abs=1e-9)


class TestCombined:
    def test_zero_weight_is_temporal(self):
        v = random_video(2)
        s, t = importance_maps(v)
        assert np.array_equal(combined_importance(s, t, 0.0), t)

    def test_equal_maps_double(self):
        v = random_video(3)
        s = importance_maps(v)[0]
        assert np.allclose(combined_importance(s, s, 1.0), 2 * s, atol=1e-12)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        s, t = rng.random((3, 5)), rng.random((3, 5))
        got = combined_importance(s, t, 0.5)
        assert got == pytest.approx(t + 0.5 * s, abs=1e-12)


class TestThresholds:
    def test_static_frame_zero(self):
        frame = np.random.default_rng(5).standard_normal((4, 3))
        v = VideoTokens(3, 4, 3, np.tile(frame, (3, 1)))
        thr = frame_thresholds(*importance_maps(v))
        assert np.allclose(thr[1:], 0.0, atol=1e-12)

    def test_maximal_variation_is_one(self):
        t = np.full((2, 4), 2.0)
        s = np.zeros((2, 4))
        thr = frame_thresholds(s, t)
        assert thr[1] == pytest.approx(1.0, abs=1e-12)

    def test_single_antipodal_token(self):
        t = np.array([[0.0, 0, 0, 0], [2.0, 0, 0, 0]])
        thr = frame_thresholds(np.zeros_like(t), t)
        assert thr[1] == pytest.approx(0.5, abs=1e-12)

    def test_bounds_on_random_videos(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n, f, d = (int(rng.integers(1, 6)) for _ in range(3))
            v = VideoTokens(n, f + 1, d + 1, rng.standard_normal((n * (f + 1), d + 1)))
            thr = frame_thresholds(*importance_maps(v))
            assert ((thr >= 0.0) & (thr <= 1.0)).all()


class TestSelectTopk:
    def test_keep_all(self):
        assert np.array_equal(select_topk(np.array([0.3, 0.1, 0.2]), 3), [0, 1, 2])

    def test_tie_both_kept(self):
        assert np.array_equal(select_topk(np.array([0.1, 0.9, 0.9, 0.2]), 2), [1, 2])

    def test_tie_break_lowest_index(self):
        assert np.array_equal(select_topk(np.array([0.5, 0.5, 0.5]), 1), [0])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            select_topk(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError):
            select_topk(np.array([1.0, 2.0]), 0)


class TestPruneVideo:
    def test_all_static_keeps_one_per_frame(self):
        token = np.array([1.0, 1.0, 1.0, 1.0])
        v = VideoTokens(3, 5, 4, np.tile(token, (15, 1)))
        pruned, _, plan = prune_video(v, PrunerConfig())
        assert np.array_equal(plan.keep_counts, [1, 1, 1])
        assert pruned.vr == pytest.approx(1 / 5)

    def test_antipodal_alternating_frames(self):
        # unit tokens flipping sign every frame: every frame after the first
        # moves maximally, so all later thresholds hit the upper bound and
        # those frames keep everything
        f0 = np.eye(4)
        v = VideoTokens(4, 4, 4, np.vstack([f0, -f0, f0, -f0]))
        _, _, plan = prune_video(v, PrunerConfig())
        assert plan.thresholds[1:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        assert np.array_equal(plan.keep_counts[1:], [4, 4, 4])

    def test_adaptive_matches_reference(self):
        for seed in range(25):
            rng = np.random.default_rng([seed, 77])
            n, f, d = int(rng.integers(1, 9)), int(rng.integers(1, 17)), int(rng.integers(2, 33))
            v = VideoTokens(n, f, d, rng.standard_normal((n * f, d)))
            _, _, plan = prune_video(v, PrunerConfig(spatial_weight=1.0))
            thr, counts, kept = ref.prune(to_frames(v), 1.0, "adaptive")
            assert plan.thresholds == pytest.approx(thr, abs=1e-9)
            assert list(plan.keep_counts) == counts
            assert [list(k) for k in plan.kept_indices] == kept

    def test_manual_matches_reference(self):
        for seed in range(25):
            rng = np.random.default_rng([seed, 88])
            n, f, d = int(rng.integers(1, 9)), int(rng.integers(1, 17)), int(rng.integers(2, 33))
            v = VideoTokens(n, f, d, rng.standard_normal((n * f, d)))
            _, _, plan = prune_video(
                v, PrunerConfig(mode=MODE_MANUAL, manual_threshold=1.6)
            )
            _, counts, kept = ref.prune(to_frames(v), 1.0, "manual", 1.6)
            assert list(plan.keep_counts) == counts
            assert [list(k) for k in plan.kept_indices] == kept

    def test_manual_floor_keeps_argmax(self):
        # K at the ceiling: nothing clears it, every frame falls back to one token
        v = random_video(9, n=3, f=4, d=5)
        _, imap, plan = prune_video(
            v, PrunerConfig(mode=MODE_MANUAL, manual_threshold=4.0)
        )
        for t in range(3):
            assert list(plan.kept_indices[t]) == [int(np.argmax(imap.combined[t]))]

    def test_origin_frame_major(self):
        v = random_video(10)
        pruned, _, _ = prune_video(v, PrunerConfig())
        flat = pruned.origin[:, 0] * v.f + pruned.origin[:, 1]
        assert (np.diff(flat) > 0).all()
        assert np.array_equal(pruned.tokens, v.data[flat])

    def test_vr_exact(self):
        v = random_video(11)
        pruned, _, plan = prune_video(v, PrunerConfig())
        assert pruned.vr == int(plan.keep_counts.sum()) / (v.n * v.f)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PrunerConfig(spatial_weight=-0.1)
        with pytest.raises(ConfigError):
            PrunerConfig(mode="other")
        with pytest.raises(ConfigError):
            PrunerConfig(mode=MODE_MANUAL, manual_threshold=4.1)  # > 2*(1+w)
        with pytest.raises(ConfigError):
            PrunerConfig(mode=MODE_MANUAL, manual_threshold=-0.5)


class TestProperties:
    @given(st.integers(0, 10_000), st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20)
    def test_scale_invariance_of_plan(self, seed, alpha):
        v = random_video(seed)
        scaled = VideoTokens(v.n, v.f, v.d, v.data * alpha)
        _, _, p1 = prune_video(v, PrunerConfig())
        _, _, p2 = prune_video(scaled, PrunerConfig())
        assert p1.thresholds == pytest.approx(p2.thresholds, abs=1e-9)
        assert np.array_equal(p1.keep_counts, p2.keep_counts)
        for a, b in zip(p1.kept_indices, p2.kept_indices):
            assert np.array_equal(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_within_frame_permutation_equivariance(self, seed):
        v = random_video(seed, n=3, f=5, d=4)
        rng = np.random.default_rng([seed, 1])
        perm = rng.permutation(v.f)
        permuted = VideoTokens(
            v.n, v.f, v.d,
            np.concatenate([v.frame(t)[perm] for t in range(v.n)]),
        )
        (s1, t1), (s2, t2) = importance_maps(v), importance_maps(permuted)
        assert np.allclose(s1[:, perm], s2, atol=1e-12)
        assert np.allclose(t1[:, perm], t2, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_keep_counts_in_range(self, seed):
        v = random_video(seed)
        _, _, plan = prune_video(v, PrunerConfig())
        assert ((plan.keep_counts >= 1) & (plan.keep_counts <= v.f)).all()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_importance_nonnegative_bounded(self, seed):
        v = random_video(seed)
        _, imap, _ = prune_video(v, PrunerConfig())
        assert (imap.spatial >= 0).all() and (imap.spatial <= 2).all()
        assert (imap.temporal >= 0).all() and (imap.temporal <= 2).all()
        assert np.allclose(
            imap.combined, imap.temporal + imap.spatial_weight * imap.spatial
        )


class TestScoringCost:
    def test_reports_median_per_size(self):
        rows = scoring_cost_scaling([(2, 4, 8), (2, 8, 8)], repeats=3, seed=0)
        assert [r["tokens"] for r in rows] == [8, 16]
        assert all(r["median_seconds"] > 0 for r in rows)
        assert all(r["repeats"] == 3 for r in rows)
