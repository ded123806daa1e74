import hashlib
import json
import math

import numpy as np
import pytest

import sharpv.cli as cli
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
    def test_round_trip(self, text, capsys):
        # the report echoes the pattern text as given; it parses back to
        # the pattern the run used
        assert cli.main(["run", "--pattern", text, "--n", "4", "--f", "4",
                         "--decode-steps", "1"]) == 0
        echoed = json.loads(capsys.readouterr().out)["config"]["pattern"]
        assert echoed == text
        assert parse_pattern(echoed) == parse_pattern(text)


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
        thr = frame_thresholds(importance_maps(v)[1])
        assert thr[1:] == pytest.approx(
            np.full(4, math.sin(rate / 2)), abs=1e-6
        )

    def test_burst_threshold_spikes(self):
        v = make(Burst(frames=(3,)), n=6, f=8, d=32)
        thr = frame_thresholds(importance_maps(v)[1])
        assert thr[3] > thr[2] and thr[3] > thr[4]
        # non-burst frames copy their predecessor exactly
        assert thr[2] == pytest.approx(0.0, abs=1e-9)
        assert thr[4] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("rate, n", [(1e308, 3), (2.6e307, 8)])
    def test_uniform_angle_overflow_raises_before_writing(self, rate, n):
        # phase + t*rate overflows to inf, whose cos and sin are NaN
        out = np.full((n, 2, 4), 7.0)
        with pytest.raises(ConfigError, match="overflows the rotation angle"):
            UniformMotion(rate).generate(out, np.random.default_rng(0))
        assert (out == 7.0).all()

    @pytest.mark.parametrize("rate", [-1.0, np.nan, np.inf])
    def test_uniform_rejects_a_negative_or_non_finite_rate(self, rate):
        with pytest.raises(ConfigError, match="rate must be a finite value >= 0"):
            UniformMotion(rate)

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


# Patterns built in code that break a field rule; each raises ConfigError
# on construction, so it can never reach generation.
BAD_PATTERNS = {
    "burst-no-frames": lambda: Burst(frames=()),
    "burst-negative-frame": lambda: Burst(frames=(-1,)),
    "burst-float-frame": lambda: Burst(frames=(2.5,)),
    "burst-bool-frame": lambda: Burst(frames=(True,)),
    "mixed-count-0": lambda: Mixed(segments=((Static(), 0), (UniformMotion(0.5), 6))),
    "mixed-nested": lambda: Mixed(segments=((Mixed(segments=((Static(), 3),)), 3),
                                            (Static(), 3))),
    "mixed-segment-not-a-pattern": lambda: Mixed(segments=(("static", 6),)),
    "mixed-segment-not-a-pair": lambda: Mixed(segments=(Static(),)),
    "mixed-count-not-an-int": lambda: Mixed(segments=((Static(), 6.0),)),
}


class TestPatternChecks:
    @pytest.mark.parametrize("build", BAD_PATTERNS.values(), ids=BAD_PATTERNS.keys())
    def test_built_in_code_raises(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_generating_a_text_pattern_raises(self):
        with pytest.raises(ConfigError):
            make("static", n=6)


class TestDigestPin:
    """SHA-256 of the generated data, recorded before the pattern types drew
    their own frames: any change to the draws, their order or the float32
    quantization fails here."""

    PATTERNS = {
        "static": Static(),
        "uniform": UniformMotion(0.5),
        "burst": Burst(frames=(2, 5)),
        "mixed": Mixed(segments=((Burst(frames=(1,)), 3), (UniformMotion(0.3), 5))),
    }
    DIGESTS = {
        ("static", 0): "4ec67dc72cf08152a01ddbcafc1639cd89b2e73958d9fa9d7ae8198d16244ae5",
        ("static", 7): "89888a2dcd9ad6f6d8f34e4dab8766a512da532362909ce68be79460de50b69b",
        ("uniform", 0): "c72fdc719d959c334b1335210eddbf15f53d1df864782bd44c9243d21ce35748",
        ("uniform", 7): "3238efb845df040ac41522b3e3e7cc2ac879b4c016fb0cfc1edba8a9ef772888",
        ("burst", 0): "392fa6f9a0755800cfa21f70b987537fbdfeaeecf2950502f68f167ff0e5707c",
        ("burst", 7): "2c112816c336cc432b1c4170ac913941bcaf17b5ed9881d7950ba515d9abe625",
        ("mixed", 0): "c8c3257a631649b770820daac5b9b3f92d59fd490dba4f27c2f4c93ab97c8099",
        ("mixed", 7): "bb8e359748c37287b4ee11728bae79a9927c648d19a2774f62725abf0cfbb810",
    }

    @pytest.mark.parametrize("name, seed", DIGESTS.keys(), ids=[f"{n}-{s}" for n, s in DIGESTS])
    def test_data_digest(self, name, seed):
        v = make(self.PATTERNS[name], n=8, f=6, d=16, seed=seed)
        assert hashlib.sha256(v.data.tobytes()).hexdigest() == self.DIGESTS[name, seed]


class TestVrOnPatterns:
    def test_static_vr_floor(self):
        v = make(Static(), n=4, f=10)
        pruned = prune_video(v, PrunerConfig())
        assert pruned.vr == pytest.approx(1 / 10)


class TestPromptEmbeddings:
    def test_deterministic(self):
        a = gen_prompt_embeddings(5, 4, 8, 16)
        b = gen_prompt_embeddings(5, 4, 8, 16)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_shapes(self):
        system, instruction = gen_prompt_embeddings(0, 3, 7, 12)
        assert system.shape == (3, 12) and instruction.shape == (7, 12)

    @pytest.mark.parametrize("args, match", [
        ((-1, 3, 7, 12), "seed must be >= 0"),
        ((0, -1, 7, 12), "prompt lengths must be >= 0"),
        ((0, 3, -1, 12), "prompt lengths must be >= 0"),
    ], ids=["seed", "system", "instruction"])
    def test_rejects_a_negative_seed_or_length(self, args, match):
        with pytest.raises(ConfigError, match=match):
            gen_prompt_embeddings(*args)

    def test_streams_independent_of_video(self):
        system, _ = gen_prompt_embeddings(9, 4, 4, 8)
        v = make(Static(), n=1, f=4, d=8, seed=9)
        assert not np.allclose(system, v.frame(0))
