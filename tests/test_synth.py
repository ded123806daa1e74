import math

import numpy as np
import pytest

from sharpv.errors import ConfigError
from sharpv.pruner import PrunerConfig, frame_thresholds, importance_maps, prune_video
from sharpv.synth import (
    Burst,
    Mixed,
    Static,
    SyntheticVideoSpec,
    UniformMotion,
    gen_prompt_embeddings,
    gen_synthetic_video,
    parse_pattern,
    pattern_to_string,
)


def make(pattern, n=6, f=8, d=16, seed=0):
    return gen_synthetic_video(SyntheticVideoSpec(n=n, f=f, d=d, seed=seed, pattern=pattern))


class TestParse:
    def test_static(self):
        assert parse_pattern("static") == Static()

    def test_uniform(self):
        assert parse_pattern("uniform:0.25") == UniformMotion(rate=0.25)

    def test_burst(self):
        assert parse_pattern("burst:2,5") == Burst(frames=(2, 5))

    def test_mixed(self):
        p = parse_pattern("mixed:static@3+uniform:0.5@3")
        assert p == Mixed(segments=((Static(), 3), (UniformMotion(0.5), 3)))

    @pytest.mark.parametrize("bad", [
        "", "nope", "uniform:", "uniform:abc", "burst:", "burst:a", "burst:-1",
        "mixed:static", "mixed:static@0", "mixed:static@x",
        "mixed:mixed:static@1@1",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_pattern(bad)

    @pytest.mark.parametrize("text", [
        "static", "uniform:0.5", "burst:1,3", "mixed:static@2+uniform:0.25@2",
    ])
    def test_round_trip(self, text):
        assert pattern_to_string(parse_pattern(text)) == text


class TestGeneration:
    def test_deterministic(self):
        a = make(UniformMotion(0.5), seed=3)
        b = make(UniformMotion(0.5), seed=3)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_output(self):
        a = make(UniformMotion(0.5), seed=3)
        b = make(UniformMotion(0.5), seed=4)
        assert not np.array_equal(a.data, b.data)

    def test_static_frames_identical(self):
        v = make(Static())
        for t in range(1, v.n):
            assert np.array_equal(v.frame(t), v.frame(0))

    def test_static_temporal_rows_zero(self):
        v = make(Static())
        _, temporal = importance_maps(v)
        assert np.allclose(temporal[1:], 0.0, atol=1e-9)

    def test_float32_representable(self):
        v = make(UniformMotion(0.5))
        assert np.array_equal(v.data, v.data.astype(np.float32).astype(np.float64))

    def test_uniform_needs_two_dims(self):
        with pytest.raises(ConfigError):
            make(UniformMotion(0.5), d=1)

    def test_uniform_closed_form_dissim(self):
        # adjacent frames are the same unit vector rotated by `rate`, so the
        # chord length is 2*sin(rate/2) for every token
        rate = 0.5
        v = make(UniformMotion(rate), n=5, f=4, d=8)
        t = importance_maps(v)[1]
        assert t[1:] == pytest.approx(
            np.full((4, 4), 2 * math.sin(rate / 2)), abs=1e-6
        )

    def test_uniform_closed_form_threshold(self):
        rate = 0.8
        v = make(UniformMotion(rate), n=5, f=9, d=8)
        thr = frame_thresholds(*importance_maps(v))
        assert thr[1:] == pytest.approx(
            np.full(4, math.sin(rate / 2)), abs=1e-6
        )

    def test_burst_threshold_spikes(self):
        v = make(Burst(frames=(3,)), n=6, f=8, d=32)
        thr = frame_thresholds(*importance_maps(v))
        assert thr[3] > thr[2] and thr[3] > thr[4]
        # non-burst frames copy their predecessor exactly
        assert thr[2] == pytest.approx(0.0, abs=1e-9)
        assert thr[4] == pytest.approx(0.0, abs=1e-9)

    def test_burst_out_of_range(self):
        with pytest.raises(ConfigError):
            make(Burst(frames=(6,)), n=6)

    def test_mixed_counts_must_cover(self):
        with pytest.raises(ConfigError):
            make(Mixed(segments=((Static(), 2), (Static(), 2))), n=6)

    def test_mixed_concatenates_segments(self):
        v = make(Mixed(segments=((Static(), 3), (UniformMotion(0.5), 3))), n=6)
        # static block: frames 0..2 identical
        assert np.array_equal(v.frame(1), v.frame(0))
        assert np.array_equal(v.frame(2), v.frame(0))
        # moving block: frames 3..5 all distinct
        assert not np.array_equal(v.frame(4), v.frame(3))

    def test_counts_validated(self):
        with pytest.raises(ConfigError):
            gen_synthetic_video(SyntheticVideoSpec(n=0, f=4, d=4, seed=0))
        with pytest.raises(ConfigError):
            gen_synthetic_video(SyntheticVideoSpec(n=2, f=4, d=4, seed=-1))


class TestVrOnPatterns:
    def test_static_vr_floor(self):
        v = make(Static(), n=4, f=10)
        pruned, _, _ = prune_video(v, PrunerConfig())
        assert pruned.vr == pytest.approx(1 / 10)


class TestPromptEmbeddings:
    def test_deterministic(self):
        a = gen_prompt_embeddings(5, 4, 8, 16)
        b = gen_prompt_embeddings(5, 4, 8, 16)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_shapes(self):
        system, instruction = gen_prompt_embeddings(0, 3, 7, 12)
        assert system.shape == (3, 12) and instruction.shape == (7, 12)

    def test_streams_independent_of_video(self):
        system, _ = gen_prompt_embeddings(9, 4, 4, 8)
        v = make(Static(), n=1, f=4, d=8, seed=9)
        assert not np.allclose(system, v.frame(0))
