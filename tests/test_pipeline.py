import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from prefill_trace import traced_prefill
from sharpv import pipeline
from sharpv.cache import KVCacheLayer, Segment, SegmentedSequence
from sharpv.decoder import Decoder, DecoderConfig
from sharpv.memory import apply_discard, degradation_profile, reencode_positions
from sharpv.pipeline import (
    PipelineConfig, PromptEmbeddings, _assemble, baseline_generate, prefill_with_eviction,
    run_pipeline,
)
from sharpv.pruner import PrunerConfig, VideoTokens, prune_video
from sharpv.report import SCHEMA_VERSION, TIMING_FIELDS, RunReport, validate_report
from sharpv.synth import SyntheticVideoSpec, gen_prompt_embeddings, gen_synthetic_video, parse_pattern
from sharpv.errors import (
    ConfigError, InvariantViolation, PositionOverflowError, ShapeMismatchError,
)
from reference_decoder import dense_masked_decode

GOLDEN_DIR = Path(__file__).parent / "golden"


def toy_decoder(**overrides):
    base = dict(layers=8, model_dim=64, heads=4, mlp_dim=256, vocab=256, seed=0)
    base.update(overrides)
    return Decoder(DecoderConfig(**base))


def make_inputs(pattern="uniform:0.5", n=8, f=16, d=64, seed=42, system_len=4, instruction_len=8):
    video = gen_synthetic_video(
        SyntheticVideoSpec(n=n, f=f, d=d, seed=seed, pattern=parse_pattern(pattern))
    )
    system, instruction = gen_prompt_embeddings(seed, system_len, instruction_len, d)
    return video, PromptEmbeddings(system, instruction)


class TestPipelineConfig:
    @pytest.mark.parametrize("fields", [
        {"spatial_weight": -1.0},
        {"mode": "other"},
        {"mode": "manual", "manual_threshold": 4.5},
        {"decode_steps": 0},
    ])
    def test_bad_field_raises_on_construction(self, fields):
        with pytest.raises(ConfigError):
            PipelineConfig(**fields)

    def test_baseline_rejects_zero_decode_steps(self):
        with pytest.raises(ConfigError, match="decode_steps must be >= 1, got 0"):
            baseline_generate(toy_decoder(), *make_inputs(), 0)


class TestPromptEmbeddings:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    @pytest.mark.parametrize("segment", ["system", "instruction"])
    def test_rejects_values_outside_float32_range(self, segment, value):
        _, prompt = make_inputs()
        arrays = {"system": prompt.system.copy(), "instruction": prompt.instruction.copy()}
        arrays[segment][0, 1] = value
        with pytest.raises(ValueError, match=f"{segment} embeddings"):
            PromptEmbeddings(**arrays)
        arrays[segment][0, 1] = np.copysign(float(np.finfo(np.float32).max), value)
        PromptEmbeddings(**arrays)

    @pytest.mark.parametrize("system, instruction, match", [
        (np.zeros(4), np.zeros((2, 4)), "system embeddings must be 2-d"),
        (np.zeros((2, 4)), np.zeros(4), "instruction embeddings must be 2-d"),
        (np.zeros((2, 4)), np.zeros((2, 3)), "disagree on dimension: 4 vs 3"),
    ], ids=["1-d-system", "1-d-instruction", "widths"])
    def test_rejects_a_1d_block_or_mismatched_widths(self, system, instruction, match):
        with pytest.raises(ShapeMismatchError, match=match):
            PromptEmbeddings(system, instruction)


class TestPositionBudget:
    """A layer holds at most T prompt entries, so a run needs
    T + decode_steps - 1 positions; a run that needs more fails before
    prefill."""

    @pytest.mark.parametrize("pruned", [True, False], ids=["run_pipeline", "baseline_generate"])
    def test_overflow_fails_before_prefill(self, pruned, monkeypatch):
        video, prompt = make_inputs(pattern="static")
        visual = prune_video(video, PrunerConfig()).tokens if pruned else video.data
        decoder = toy_decoder(max_positions=_assemble(prompt, visual)[1].total_len + 3)

        def run(steps):
            if pruned:
                return run_pipeline(decoder, video, prompt, PipelineConfig(decode_steps=steps))[0]
            return baseline_generate(decoder, video, prompt, steps)

        assert len(run(4)) == 4  # the last step writes position max_positions - 1

        def prefill(*args, **kwargs):
            raise AssertionError("prefill started")

        monkeypatch.setattr(decoder, "prefill", prefill)
        with pytest.raises(PositionOverflowError, match="max_positions"):
            run(5)


class TestInputWidths:
    @pytest.mark.parametrize("pruned", [True, False], ids=["run_pipeline", "baseline_generate"])
    @pytest.mark.parametrize("narrow", ["video", "prompt"])
    def test_width_mismatch_fails_before_any_work(self, pruned, narrow, monkeypatch):
        video, _ = make_inputs(d=32 if narrow == "video" else 64)
        _, prompt = make_inputs(d=32 if narrow == "prompt" else 64)

        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(pipeline, "prune_video", fail)
        monkeypatch.setattr(pipeline, "_assemble", fail)
        message = f"{narrow} dimension 32 != decoder model_dim 64"
        with pytest.raises(ShapeMismatchError, match=message):
            if pruned:
                run_pipeline(toy_decoder(), video, prompt, PipelineConfig())
            else:
                baseline_generate(toy_decoder(), video, prompt, 4)


class TestNoOpIdentity:
    def test_disabled_stages_match_baseline(self):
        # manual mode with K=0 keeps every token; M=-1 discards no layer
        decoder = toy_decoder()
        video, prompt = make_inputs()
        config = PipelineConfig(mode="manual", manual_threshold=0.0,
                                degradation_threshold=-1.0, decode_steps=12)
        tokens, report = run_pipeline(decoder, video, prompt, config)
        assert tokens == baseline_generate(decoder, video, prompt, 12)
        assert report.vr == 1.0
        assert report.mr == 1.0
        assert report.token_budget == 1.0
        assert report.discarded_layers == []


class TestStaticVideo:
    def test_vr_hits_floor(self):
        decoder = toy_decoder()
        video, prompt = make_inputs(pattern="static")
        _, report = run_pipeline(decoder, video, prompt, PipelineConfig(decode_steps=2))
        assert report.vr == 1 / 16
        assert report.token_budget == report.vr * report.mr


class TestDiscardInPipeline:
    def test_max_threshold_discards_all_but_first_layer(self):
        # layer 0's input is the raw embedding, which has no zero rows, so
        # its similarity is exactly 1.0 and the strict < M rule keeps it;
        # every later layer degrades below 1 and goes
        decoder = toy_decoder()
        video, prompt = make_inputs()
        config = PipelineConfig(degradation_threshold=1.0, decode_steps=4)
        _, report = run_pipeline(decoder, video, prompt, config)
        assert report.discarded_layers == list(range(1, 8))
        assert report.cache_layers_after[0]["visual"] > 0
        for before, after in zip(
            report.cache_layers_before[1:], report.cache_layers_after[1:]
        ):
            assert after["visual"] == 0
            assert after["system"] == before["system"]
            assert after["instruction"] == before["instruction"]

    def test_tiny_video_keeps_layer_zero(self):
        # token norms 1e-7: each is above NORM_EPS, though the product of a
        # row's two norms is not, so every row keeps its direction
        video, prompt = make_inputs()
        tiny = VideoTokens(video.n, video.f, video.d, video.data * 1e-7)
        _, report = run_pipeline(toy_decoder(), tiny, prompt, PipelineConfig())
        assert report.per_layer_sim[0] == 1.0
        assert 0 not in report.discarded_layers

    def test_layer_zero_scores_share_of_nonzero_visual_rows(self):
        video, prompt = make_inputs()
        data = video.data.copy()
        data[2 * video.f:] = 0.0  # six black frames of eight
        black = VideoTokens(video.n, video.f, video.d, data)
        config = PipelineConfig()
        _, report = run_pipeline(toy_decoder(), black, prompt, config)
        tokens = prune_video(black, config).tokens
        share = np.count_nonzero(np.linalg.norm(tokens, axis=1)) / len(tokens)
        assert share < 1.0
        assert report.per_layer_sim[0] == pytest.approx(share, abs=1e-15)

    def test_mr_reflects_eviction(self):
        decoder = toy_decoder()
        video, prompt = make_inputs()
        _, keep_all = run_pipeline(
            decoder, video, prompt, PipelineConfig(degradation_threshold=-1.0, decode_steps=2)
        )
        _, evict_all = run_pipeline(
            decoder, video, prompt, PipelineConfig(degradation_threshold=1.0, decode_steps=2)
        )
        assert keep_all.mr == 1.0
        assert evict_all.mr < 1.0

    def test_prefill_result_is_released_before_decode(self, monkeypatch):
        # At the first decode step only the evicted cache and a few
        # prompt-sized (T, d) arrays may be alive. The L*T*d trace or the
        # unevicted prefill cache (2*L*T*d) still referenced would each
        # exceed that by far.
        decoder = toy_decoder()
        video, prompt = make_inputs(n=16, f=16)
        live = []
        decode_step = Decoder.decode_step

        def spy(self, cache, embedding):
            if not live:
                live.append(tracemalloc.get_traced_memory()[0])
            return decode_step(self, cache, embedding)

        monkeypatch.setattr(Decoder, "decode_step", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = run_pipeline(
                decoder, video, prompt, PipelineConfig(degradation_threshold=1.0, decode_steps=2)
            )
        finally:
            tracemalloc.stop()
        total = sum(report.cache_layers_before[0].values())
        row_bytes = total * decoder.config.model_dim * 8
        assert report.cache_bytes_before > report.cache_bytes_after + 4 * row_bytes
        assert live[0] - base < report.cache_bytes_after + 4 * row_bytes

    def test_prompt_is_released_before_decode(self, monkeypatch):
        # perfbench's prefill_long input. At decode's entry the evicted
        # cache (1.12 MiB, only layer 0 keeps its 1,063 rows) is live; the
        # assembled prompt and the kept visual tokens (about 0.5 MiB each)
        # took it to 2.20 MiB while run_pipeline still held them.
        decoder = toy_decoder()
        video, prompt = make_inputs(n=64, f=64, seed=0)
        live = []
        greedy = pipeline._greedy

        def spy(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return greedy(*args)

        monkeypatch.setattr(pipeline, "_greedy", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = run_pipeline(decoder, video, prompt, PipelineConfig(decode_steps=8))
        finally:
            tracemalloc.stop()
        assert report.discarded_layers == list(range(1, 8))
        assert live[0] - base <= 1.5 * 2**20

    def test_prefill_peak_memory_on_long_prompt(self):
        # perfbench's prefill_long input. Prefill holds the layer input, its
        # q/k/v, the kept layer 0 and one query block's (H, 32, T) scores:
        # 4.45 MiB. A layer-wide (H, T, head_dim) attention output and
        # (T, mlp_dim) MLP temporaries took it to 6.98 MiB.
        decoder = toy_decoder()
        video, prompt = make_inputs(n=64, f=64, seed=0)
        pruned = prune_video(video, PipelineConfig())
        embedded, spans = _assemble(prompt, pruned.tokens)
        assert spans.total_len == 1063
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, _, discarded = prefill_with_eviction(decoder, embedded, spans, 0.2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert discarded == list(range(1, 8))
        assert peak <= 5.5 * 2**20

    def test_run_peak_memory_on_long_prompt(self):
        # perfbench's prefill_long input. Prefill sets the peak; the pruned
        # video's tokens (0.53 MiB, copied into the assembled prompt) took
        # it from 4.94 to 5.46 MiB while run_pipeline held them through it.
        decoder = toy_decoder()
        video, prompt = make_inputs(n=64, f=64, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = run_pipeline(decoder, video, prompt, PipelineConfig(decode_steps=8))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.discarded_layers == list(range(1, 8))
        assert peak <= 5.2 * 2**20


class TestCacheAllocation:
    """Decode reserves every layer's rows before its first step, so a layer
    is copied at most once and ends at exactly its entry count."""

    FIELDS = ("keys", "values", "position_ids", "segment_tags")

    @classmethod
    def capacities(cls, layer):
        key_buf, *rest = (getattr(layer, f).base for f in cls.FIELDS)
        return [key_buf.shape[-1]] + [buf.shape[0] for buf in rest]

    @staticmethod
    def decoded_cache(monkeypatch):
        """The cache each _greedy call decodes into, from now on."""
        caches = []
        greedy = pipeline._greedy

        def spy(decoder, cache, first_token, steps):
            caches.append(cache)
            return greedy(decoder, cache, first_token, steps)

        monkeypatch.setattr(pipeline, "_greedy", spy)
        return caches

    @pytest.mark.parametrize("steps", [35, 36, 37, 38])
    def test_layers_end_at_their_entry_count(self, steps, monkeypatch):
        # A 23-token prompt fills 57-60 of max_positions=64 in the kept
        # layer 0 and 46-49 in the evicted layer 1. Doubling appends left
        # them in 92- and 96-row buffers, over the full cache that
        # DecoderConfig's element budget assumes.
        decoder = toy_decoder(layers=2, max_positions=64)
        video, prompt = make_inputs(n=4, f=8)
        caches = self.decoded_cache(monkeypatch)
        _, report = run_pipeline(
            decoder, video, prompt, PipelineConfig(degradation_threshold=0.5, decode_steps=steps)
        )
        assert report.discarded_layers == [1]
        kept, evicted = caches[0]
        assert len(kept) == 23 + steps - 1 and len(evicted) == len(kept) - 11
        for layer in caches[0]:
            assert self.capacities(layer) == [len(layer)] * 4

    def test_decode_allocates_once(self, monkeypatch):
        # perfbench's decode_long input at seed 0: layers 1-7 are evicted
        # to 12 rows and take 255 appends each. Doubling re-inflated them
        # into 384-row buffers in 37 copies, and decode peaked at 3.32 MiB
        # traced; reserving copies each layer once, and the cache ends at
        # its 2.13 MiB of keys and values.
        decoder = toy_decoder()
        video, prompt = make_inputs(n=16, f=32, seed=0)
        config = PipelineConfig(mode="manual", manual_threshold=2.2, decode_steps=256)
        caches = self.decoded_cache(monkeypatch)
        greedy, peaks = pipeline._greedy, []

        def traced(*args):
            tracemalloc.reset_peak()
            try:
                return greedy(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])

        moved = []
        append = KVCacheLayer.append

        def owner_kept(layer, *args, **kwargs):
            held = layer._buffers
            append(layer, *args, **kwargs)
            moved.append(layer._buffers is not held)

        monkeypatch.setattr(pipeline, "_greedy", traced)
        monkeypatch.setattr(KVCacheLayer, "append", owner_kept)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = run_pipeline(decoder, video, prompt, config)
        finally:
            tracemalloc.stop()
        assert report.discarded_layers == list(range(1, 8))
        assert peaks[0] - base <= 2.5 * 2**20
        assert len(moved) == 8 * 255 and not any(moved)
        for layer in caches[0]:
            assert self.capacities(layer) == [len(layer)] * 4
        assert sum(layer.nbytes() for layer in caches[0]) == (313 + 7 * 267) * 2 * 64 * 8


class TestStreamedEviction:
    """prefill_with_eviction (stage 2 per layer, inside prefill) against the
    two-pass route: record the whole trace, then score each layer, and
    evict and re-encode the layers of the full cache that score below m."""

    @staticmethod
    def pruned_prompt(mode):
        video, prompt = make_inputs(n=8, f=24)
        pruned = prune_video(video, PrunerConfig(mode=mode, manual_threshold=1.6))
        embedded = np.vstack([prompt.system, pruned.tokens, prompt.instruction])
        spans = SegmentedSequence(prompt.system.shape[0], pruned.tokens.shape[0],
                                  prompt.instruction.shape[0])
        return embedded, spans

    @pytest.mark.parametrize("mode", ["adaptive", "manual"])
    @pytest.mark.parametrize("m", [-1.0, 0.2, 1.0])
    def test_bit_identical_to_two_pass_route(self, mode, m):
        decoder = toy_decoder()
        embedded, spans = self.pruned_prompt(mode)
        streamed, sims, discarded = prefill_with_eviction(decoder, embedded, spans, m)

        full, trace = traced_prefill(decoder, embedded, spans)
        vs = slice(*spans.visual_span)
        want_sims = [degradation_profile(states[vs], embedded[vs]) for states in trace]
        want_discarded = [l for l, sim in enumerate(want_sims) if sim < m]
        want = [reencode_positions(apply_discard(layer)) if l in want_discarded else layer
                for l, layer in enumerate(full.cache)]

        assert np.array_equal(sims, want_sims)
        assert discarded == want_discarded
        assert np.array_equal(streamed.logits, full.logits)
        assert np.array_equal(streamed.final_hidden, full.final_hidden)
        assert len(streamed.cache) == len(want)
        for got, exp in zip(streamed.cache, want):
            for field in ("keys", "values", "position_ids", "segment_tags"):
                assert np.array_equal(getattr(got, field), getattr(exp, field))
        if m == 1.0:  # every layer but the first is discarded
            assert discarded == list(range(1, 8))

    def test_empty_visual_span_raises_as_two_pass(self):
        decoder = toy_decoder()
        embedded, _ = self.pruned_prompt("adaptive")
        spans = SegmentedSequence(system_len=4, visual_len=0, instruction_len=8)
        embedded = np.vstack([embedded[:4], embedded[-8:]])
        _, trace = traced_prefill(decoder, embedded, spans)
        vs = slice(*spans.visual_span)
        with pytest.raises(ValueError) as two_pass:
            degradation_profile(trace[0][vs], embedded[vs])
        with pytest.raises(ValueError) as streamed:
            prefill_with_eviction(decoder, embedded, spans, 0.2)
        assert str(streamed.value) == str(two_pass.value)

    def test_peak_memory_holds_no_trace_or_full_cache(self):
        # Unit: L*T*d float64, the bytes of a hidden-state trace. A trace
        # (1 unit) and a full prefill cache (2 units) alone reach 3 units;
        # with stage 2 inside prefill, only one layer's keys/values are
        # ever held whole, and the peak is about 2 units (set by pruning
        # and prefill temporaries).
        decoder = toy_decoder()
        video, prompt = make_inputs(n=64, f=64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = run_pipeline(
                decoder, video, prompt, PipelineConfig(degradation_threshold=0.2, decode_steps=2)
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        total = sum(report.cache_layers_before[0].values())
        assert 1000 <= total <= 1100
        assert peak < 3 * decoder.config.layers * total * decoder.config.model_dim * 8


class TestMaskingEquivalence:
    def test_removal_equals_masking_on_random_plans(self):
        # run_pipeline's route (stage 2 inside prefill, then greedy decode
        # over the evicted cache) against a dense pass that masks each
        # discarded layer's visual keys instead, with that run's plan
        decoder = toy_decoder(layers=4, model_dim=32, heads=4, mlp_dim=64, vocab=32)
        video, prompt = make_inputs(n=3, f=6, d=32)
        embedded = np.vstack([prompt.system, video.data, prompt.instruction])
        spans = SegmentedSequence(
            system_len=4, visual_len=video.data.shape[0], instruction_len=8
        )
        plans = []
        for m in (0.0, 0.2, 1.0):
            prefill, _, discarded = prefill_with_eviction(decoder, embedded, spans, m)
            plans.append(discarded)
            fed = [int(np.argmax(prefill.logits))]
            got = []
            for _ in range(3):
                logits, _ = decoder.decode_step(prefill.cache, decoder.embedding[fed[-1]])
                got.append(logits)
                fed.append(int(np.argmax(logits)))
            plan = [l in discarded for l in range(4)]
            want = dense_masked_decode(decoder, embedded, spans.visual_span, plan, fed[:-1])
            assert np.array(got) == pytest.approx(want, abs=1e-5)
        assert plans[0] == [] and plans[-1] == [1, 2, 3]  # none at m=0, all but layer 0 at m=1


class TestReportContract:
    def test_token_budget_exact(self):
        decoder = toy_decoder()
        video, prompt = make_inputs()
        for m in (-1.0, 0.0, 0.2, 1.0):
            _, report = run_pipeline(
                decoder, video, prompt,
                PipelineConfig(degradation_threshold=m, decode_steps=2),
            )
            assert report.token_budget == report.vr * report.mr

    def test_determinism_modulo_timing(self):
        decoder = toy_decoder()
        video, prompt = make_inputs()
        config = PipelineConfig(decode_steps=6)
        _, r1 = run_pipeline(decoder, video, prompt, config)
        _, r2 = run_pipeline(decoder, video, prompt, config)
        assert r1.comparable_dict() == r2.comparable_dict()

    def test_single_step_has_zero_tpot(self):
        decoder = toy_decoder()
        video, prompt = make_inputs()
        _, report = run_pipeline(decoder, video, prompt, PipelineConfig(decode_steps=1))
        assert report.tpot_seconds == 0.0
        assert len(report.generated_tokens) == 1

    def test_validate_rejects_budget_drift(self):
        decoder = toy_decoder()
        video, prompt = make_inputs()
        _, report = run_pipeline(decoder, video, prompt, PipelineConfig(decode_steps=2))
        bad = RunReport(**{**report.to_dict(), "token_budget": report.token_budget + 1e-9})
        with pytest.raises(InvariantViolation):
            validate_report(bad)

    @pytest.mark.parametrize("sim", [1.5, -1.5, 1 + 1e-6, np.nan])
    def test_validate_rejects_layer_similarity_outside_unit_range(self, sim):
        _, report = run_pipeline(toy_decoder(), *make_inputs(), PipelineConfig(decode_steps=2))
        edges = [1.0, -1.0, *report.per_layer_sim[2:]]
        validate_report(dataclasses.replace(report, per_layer_sim=edges))
        bad = dataclasses.replace(report, per_layer_sim=[*report.per_layer_sim[:-1], sim])
        with pytest.raises(InvariantViolation, match="layer similarity"):
            validate_report(bad)

    VALID = RunReport(
        vr=0.5, mr=0.5, token_budget=0.25, per_frame_thresholds=[0.5, 0.25],
        per_frame_keep_counts=[2, 1], per_layer_sim=[1.0, 0.1], discarded_layers=[1],
        generated_tokens=[3], ttft_seconds=0.01, tpot_seconds=0.0, cache_bytes_before=100,
        cache_bytes_after=50, cache_layers_before=[], cache_layers_after=[],
    )

    @pytest.mark.parametrize("change, match", [
        ({"vr": 1.5}, "vr must be in"),
        ({"mr": 0.0}, "mr must be in"),
        ({"per_frame_thresholds": [0.5, 1.5]}, "frame threshold 1.5"),
        ({"per_frame_keep_counts": [2]}, "disagree on frame count"),
        ({"per_frame_keep_counts": [2, 0]}, "at least one token"),
        ({"discarded_layers": [2]}, "discarded layer index"),
        ({"cache_bytes_after": 101}, "cache grew"),
        ({"ttft_seconds": -1.0}, "negative wall time"),
        ({"schema_version": SCHEMA_VERSION + 1}, "schema_version"),
    ])
    def test_validate_rejects_each_broken_invariant(self, change, match):
        validate_report(self.VALID)
        with pytest.raises(InvariantViolation, match=match):
            validate_report(dataclasses.replace(self.VALID, **change))

    def test_timing_fields_nonnegative(self):
        decoder = toy_decoder()
        video, prompt = make_inputs()
        _, report = run_pipeline(decoder, video, prompt, PipelineConfig(decode_steps=4))
        assert report.ttft_seconds > 0
        assert report.tpot_seconds > 0


class TestGoldenReport:
    def test_seed42_mixed_motion_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "run_report.json").read_text())
        decoder = toy_decoder()
        video, prompt = make_inputs(pattern="mixed:static@3+uniform:0.5@3+static@2")
        config = PipelineConfig(
            spatial_weight=1.0, mode="adaptive", degradation_threshold=0.2,
            decode_steps=16,
        )
        _, report = run_pipeline(decoder, video, prompt, config)
        got = report.comparable_dict()
        got.pop("config")
        want = dict(golden)
        for key in TIMING_FIELDS:
            want.pop(key, None)
        want.pop("config")
        # exact for ints/lists/strings, tiny float tolerance for ratios
        for key in ("vr", "mr", "token_budget"):
            assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-9)
        for key in ("per_frame_thresholds", "per_layer_sim"):
            assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-9)
        assert got == want
