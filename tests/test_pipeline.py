import json
from pathlib import Path

import numpy as np
import pytest

from sharpv.cache import Segment
from sharpv.decoder import Decoder, DecoderConfig
from sharpv.memory import DegradationProfile, apply_discard, discard_decision, mask_discard, reencode_positions
from sharpv.pipeline import PipelineConfig, PromptEmbeddings, baseline_generate, run_pipeline
from sharpv.pruner import VideoTokens
from sharpv.report import TIMING_FIELDS, RunReport, validate_report
from sharpv.synth import SyntheticVideoSpec, gen_prompt_embeddings, gen_synthetic_video, parse_pattern
from sharpv.errors import InvariantViolation

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
        # layer 0's input is the raw embedding, so its similarity is exactly
        # 1.0 and the strict < M rule can never evict it; every later layer
        # degrades below 1 and goes
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


class TestMaskingEquivalence:
    def test_removal_equals_masking_on_random_plans(self):
        decoder = toy_decoder(layers=4, model_dim=32, heads=4, mlp_dim=64, vocab=32)
        video, prompt = make_inputs(n=3, f=6, d=32)
        embedded = np.vstack([prompt.system, video.data, prompt.instruction])
        from sharpv.cache import SegmentedSequence
        spans = SegmentedSequence(
            system_len=4, visual_len=video.data.shape[0], instruction_len=8
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            prefill = decoder.prefill(embedded, spans)
            plan = discard_decision(
                DegradationProfile(per_layer_sim=rng.uniform(-1, 1, size=4)), 0.0
            )
            removed = apply_discard(prefill.cache, plan)
            removed.layers = [reencode_positions(l) for l in removed.layers]
            masked = mask_discard(decoder.prefill(embedded, spans).cache, plan)

            tok = 1
            for _ in range(3):
                logits_r, _ = decoder.decode_step(removed, decoder.embedding[tok])
                logits_m, _ = decoder.decode_step(masked, decoder.embedding[tok])
                assert logits_r == pytest.approx(logits_m, abs=1e-5)
                tok = int(np.argmax(logits_r))


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
