import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpv.errors import ConfigError
from sharpv.pruner import (
    MODE_MANUAL,
    PrunerConfig,
    VideoTokens,
    frame_thresholds,
    importance_maps,
    prune_video,
)
from sharpv.synth import SyntheticVideoSpec, UniformMotion, gen_synthetic_video

import reference_pruner as ref


def random_video(seed, n=4, f=6, d=8):
    rng = np.random.default_rng(seed)
    return VideoTokens(n, f, d, rng.standard_normal((n * f, d)))


def to_frames(video):
    return [[list(tok) for tok in video.frame(t)] for t in range(video.n)]


def kept_mask(pruned, video):
    """(n, f) bool: which tokens of each frame the pruned video kept."""
    mask = np.zeros(video.n * video.f, dtype=bool)
    mask[pruned.kept] = True
    return mask.reshape(video.n, video.f)


def axis_rows(rng, rows, d):
    """Signed multiples of basis vectors, whose unit directions are exact."""
    out = np.zeros((rows, d))
    scale = rng.uniform(0.5, 2.0, rows) * rng.choice([-1, 1], rows)
    out[np.arange(rows), rng.integers(0, d, rows)] = scale
    return out


def reference_cases(salt):
    """(video, w) pairs for w in {0, 0.5, 1, 2}: random videos, some with
    one frame all zero or scaled below NORM_EPS, some scaled below it
    whole. A zero-direction frame scores exactly 1 against its neighbours
    only if their unit directions are exact, so its neighbours are
    axis-aligned; near-ties at the ulp level would rank by rounding."""
    for seed in range(25):
        rng = np.random.default_rng([seed, salt])
        n, f, d = int(rng.integers(1, 9)), int(rng.integers(1, 17)), int(rng.integers(2, 33))
        frames = rng.standard_normal((n, f, d))
        if seed % 5 in (1, 2):
            t = int(rng.integers(0, n))
            frames[t] *= 0.0 if seed % 5 == 1 else 1e-14
            for u in (t - 1, t + 1):
                if 0 <= u < n:
                    frames[u] = axis_rows(rng, f, d)
        elif seed % 5 == 3:
            frames *= 1e-14
        for w in (0.0, 0.5, 1.0, 2.0):
            yield VideoTokens(n, f, d, frames.reshape(n * f, d)), w


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    def test_rejects_values_outside_float32_range(self, value):
        data = np.zeros((6, 4))
        data[2, 1] = value
        with pytest.raises(ValueError, match="float32"):
            VideoTokens(2, 3, 4, data)
        data[2, 1] = np.copysign(float(np.finfo(np.float32).max), value)
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
    """The combined score temporal + w * spatial, read through what
    prune_video keeps."""

    def test_zero_weight_is_temporal(self):
        # w = 0: each frame keeps its highest temporal scores
        for seed in range(5):
            v = random_video(seed, n=5, f=12)
            pruned = prune_video(v, PrunerConfig(spatial_weight=0.0))
            temporal = importance_maps(v)[1]
            for row, keep in zip(temporal, kept_mask(pruned, v)):
                assert keep.all() or row[keep].min() >= row[~keep].max()

    def test_equal_maps_double(self):
        # frame 0's temporal row is its spatial row, so with w = 1 it is
        # kept wherever 2 * spatial clears K
        v = random_video(3, n=2, f=16)
        spatial = importance_maps(v)[0]
        pruned = prune_video(v, PrunerConfig(mode=MODE_MANUAL, manual_threshold=1.6))
        want = 2 * spatial[0] >= 1.6
        assert want.any()
        assert np.array_equal(kept_mask(pruned, v)[0], want)

    def test_elementwise_oracle(self):
        v = random_video(4, n=6, f=10)
        s, t = importance_maps(v)
        config = PrunerConfig(spatial_weight=0.5, mode=MODE_MANUAL, manual_threshold=1.2)
        keep = kept_mask(prune_video(v, config), v)
        want = t + 0.5 * s >= 1.2
        assert want.any(axis=1).all()
        assert np.array_equal(keep, want)


class TestThresholds:
    def test_static_frame_zero(self):
        frame = np.random.default_rng(5).standard_normal((4, 3))
        v = VideoTokens(3, 4, 3, np.tile(frame, (3, 1)))
        thr = frame_thresholds(importance_maps(v)[1])
        assert np.allclose(thr[1:], 0.0, atol=1e-12)

    def test_maximal_variation_is_one(self):
        thr = frame_thresholds(np.full((2, 4), 2.0))
        assert thr[1] == pytest.approx(1.0, abs=1e-12)

    def test_single_antipodal_token(self):
        t = np.array([[0.0, 0, 0, 0], [2.0, 0, 0, 0]])
        thr = frame_thresholds(t)
        assert thr[1] == pytest.approx(0.5, abs=1e-12)

    def test_bounds_on_random_videos(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n, f, d = (int(rng.integers(1, 6)) for _ in range(3))
            v = VideoTokens(n, f + 1, d + 1, rng.standard_normal((n * (f + 1), d + 1)))
            thr = frame_thresholds(importance_maps(v)[1])
            assert ((thr >= 0.0) & (thr <= 1.0)).all()


class TestSelectTopk:
    """Adaptive top-k selection inside prune_video."""

    def test_keep_all(self):
        # frames 1-3 flip every token: threshold 1, all four rows kept in order
        f0 = np.eye(4)
        v = VideoTokens(4, 4, 4, np.vstack([f0, -f0, f0, -f0]))
        pruned = prune_video(v, PrunerConfig())
        assert np.array_equal(pruned.kept[-12:], np.arange(4, 16))

    def test_tie_both_kept(self):
        # tokens 1 and 2 are equal, score highest, and the frame keeps two
        v = VideoTokens(1, 4, 2, np.array([[-2.0, -2.0], [-1.0, 1.0], [-1.0, 1.0], [-2.0, -2.0]]))
        spatial = importance_maps(v)[0][0]
        assert spatial[1] == spatial[2] > spatial[0]
        pruned = prune_video(v, PrunerConfig())
        assert np.array_equal(pruned.keep_counts, [2])
        assert np.array_equal(pruned.kept, [1, 2])

    def test_tie_break_lowest_index(self):
        # every score in a frame of identical tokens ties; frame t keeps row t*f
        v = VideoTokens(3, 5, 4, np.tile([0.5, -1.0, 2.0, 1.0], (15, 1)))
        pruned = prune_video(v, PrunerConfig())
        assert np.array_equal(pruned.kept, [0, 5, 10])


class TestPruneVideo:
    def test_all_static_keeps_one_per_frame(self):
        token = np.array([1.0, 1.0, 1.0, 1.0])
        v = VideoTokens(3, 5, 4, np.tile(token, (15, 1)))
        pruned = prune_video(v, PrunerConfig())
        assert np.array_equal(pruned.keep_counts, [1, 1, 1])
        assert pruned.vr == pytest.approx(1 / 5)

    def test_antipodal_alternating_frames(self):
        # unit tokens flipping sign every frame: every frame after the first
        # moves maximally, so all later thresholds hit the upper bound and
        # those frames keep everything
        f0 = np.eye(4)
        v = VideoTokens(4, 4, 4, np.vstack([f0, -f0, f0, -f0]))
        pruned = prune_video(v, PrunerConfig())
        assert pruned.thresholds[1:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        assert np.array_equal(pruned.keep_counts[1:], [4, 4, 4])

    def test_adaptive_matches_reference(self):
        for v, w in reference_cases(77):
            pruned = prune_video(v, PrunerConfig(spatial_weight=w))
            thr, counts, kept = ref.prune(to_frames(v), w, "adaptive")
            assert pruned.thresholds == pytest.approx(thr, abs=1e-9)
            assert list(pruned.keep_counts) == counts
            assert list(pruned.kept) == ref.flat_rows(kept, v.f)

    @pytest.mark.parametrize("f", [5, 7, 9, 15])
    def test_zero_frame_keeps_half_rounded_up(self, f):
        # a zero frame after a random one scores 1 per token, so its
        # threshold is 0.5 up to rounding and it keeps (f+1)/2 tokens; the
        # tied zero tokens still rank by rounding, so compare kept values
        for seed in range(300):
            rng = np.random.default_rng(seed)
            v = VideoTokens(2, f, 16, np.vstack([rng.standard_normal((f, 16)),
                                                 np.zeros((f, 16))]))
            pruned = prune_video(v, PrunerConfig())
            _, counts, kept = ref.prune(to_frames(v), 1.0, "adaptive")
            assert counts[1] == (f + 1) // 2
            assert list(pruned.keep_counts) == counts
            assert np.array_equal(pruned.tokens, v.data[ref.flat_rows(kept, f)])

    def test_manual_matches_reference(self):
        for v, w in reference_cases(88):
            config = PrunerConfig(spatial_weight=w, mode=MODE_MANUAL, manual_threshold=1.6)
            pruned = prune_video(v, config)
            _, counts, kept = ref.prune(to_frames(v), w, "manual", 1.6)
            assert list(pruned.keep_counts) == counts
            assert list(pruned.kept) == ref.flat_rows(kept, v.f)

    def test_manual_floor_keeps_argmax(self):
        # K at the ceiling: nothing clears it, every frame falls back to one token
        v = random_video(9, n=3, f=4, d=5)
        pruned = prune_video(v, PrunerConfig(mode=MODE_MANUAL, manual_threshold=4.0))
        s, t = importance_maps(v)
        assert np.array_equal(pruned.kept, np.arange(3) * 4 + np.argmax(t + s, axis=1))

    def test_origin_frame_major(self):
        v = random_video(10)
        pruned = prune_video(v, PrunerConfig())
        assert (np.diff(pruned.kept) > 0).all()
        assert np.array_equal(pruned.tokens, v.data[pruned.kept])

    def test_vr_exact(self):
        v = random_video(11)
        pruned = prune_video(v, PrunerConfig())
        assert pruned.vr == int(pruned.keep_counts.sum()) / (v.n * v.f)

    def test_peak_memory_on_long_video(self):
        # perfbench's prefill_long input (2 MiB). The unit-direction buffer
        # and one frame-difference temporary are the only input-sized
        # arrays; the norms square in place.
        v = gen_synthetic_video(SyntheticVideoSpec(
            n=64, f=64, d=64, seed=0, pattern=UniformMotion(0.5)
        ))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prune_video(v, PrunerConfig())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * v.data.nbytes

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
        p1 = prune_video(v, PrunerConfig())
        p2 = prune_video(scaled, PrunerConfig())
        assert p1.thresholds == pytest.approx(p2.thresholds, abs=1e-9)
        assert np.array_equal(p1.keep_counts, p2.keep_counts)
        assert np.array_equal(p1.kept, p2.kept)

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
        pruned = prune_video(v, PrunerConfig())
        assert ((pruned.keep_counts >= 1) & (pruned.keep_counts <= v.f)).all()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_importance_nonnegative_bounded(self, seed):
        spatial, temporal = importance_maps(random_video(seed))
        assert (spatial >= 0).all() and (spatial <= 2).all()
        assert (temporal >= 0).all() and (temporal <= 2).all()

