"""End-to-end run: prune visual tokens, prefill, evict cache, decode.

Order of operations and where the clocks sit:

  1. score + prune the video (visual stage)
  2. assemble system | kept visual | instruction and prefill
  3. first token = argmax over the prefill logits  <- TTFT stops here
  4. degradation profile over the prefill trace -> discard plan
  5. snapshot cache size, apply the plan, re-encode positions
  6. greedy decode the remaining steps             <- TPOT averages these

Eviction runs after the first token, so its cost lands in TPOT, not
TTFT, matching how prefill-time cache surgery amortizes in serving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cache import LayeredKVCache, SegmentedSequence
from .decoder import Decoder
from .errors import ConfigError, ShapeMismatchError
from .memory import (
    apply_discard,
    degradation_profile,
    discard_decision,
    mr_metric,
    reencode_positions,
)
from .pruner import MODE_ADAPTIVE, MODE_MANUAL, PrunerConfig, VideoTokens, prune_video
from .report import RunReport, validate_report


@dataclass(frozen=True)
class PromptEmbeddings:
    """Pre-embedded text surrounding the visual span."""

    system: np.ndarray  # (system_len, d)
    instruction: np.ndarray  # (instruction_len, d)

    def __post_init__(self):
        for name, arr in (("system", self.system), ("instruction", self.instruction)):
            if arr.ndim != 2:
                raise ShapeMismatchError(f"{name} embeddings must be 2-d, got {arr.shape}")
        if self.system.shape[1] != self.instruction.shape[1]:
            raise ShapeMismatchError(
                "system and instruction embeddings disagree on dimension: "
                f"{self.system.shape[1]} vs {self.instruction.shape[1]}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    spatial_weight: float = 1.0
    mode: str = MODE_ADAPTIVE
    manual_threshold: float = 1.6
    degradation_threshold: float = 0.2
    decode_steps: int = 16

    def __post_init__(self):
        if self.mode not in (MODE_ADAPTIVE, MODE_MANUAL):
            raise ConfigError(f"unknown pruning mode {self.mode!r}")
        if self.decode_steps < 1:
            raise ConfigError(f"decode_steps must be >= 1, got {self.decode_steps}")

    def pruner_config(self) -> PrunerConfig:
        return PrunerConfig(
            spatial_weight=self.spatial_weight,
            mode=self.mode,
            manual_threshold=self.manual_threshold,
        )


def run_pipeline(
    decoder: Decoder,
    video: VideoTokens,
    prompt: PromptEmbeddings,
    config: PipelineConfig,
    config_echo: dict | None = None,
) -> tuple[list, RunReport]:
    """Returns (generated token ids, validated RunReport)."""
    if video.d != decoder.config.model_dim:
        raise ShapeMismatchError(
            f"video dimension {video.d} != decoder model_dim {decoder.config.model_dim}"
        )
    if prompt.system.shape[1] != decoder.config.model_dim:
        raise ShapeMismatchError(
            f"prompt dimension {prompt.system.shape[1]} != decoder model_dim "
            f"{decoder.config.model_dim}"
        )
    t_start = time.perf_counter()

    pruned, importance, plan = prune_video(video, config.pruner_config())

    embedded, spans = _assemble(prompt, pruned.tokens)
    prefill = decoder.prefill(embedded, spans)
    first_token = int(np.argmax(prefill.logits))
    t_first = time.perf_counter()

    profile = degradation_profile(prefill.trace, embedded, spans)
    discard = discard_decision(profile, config.degradation_threshold)

    cache = apply_discard(prefill.cache, discard)
    cache.layers = [reencode_positions(layer) for layer in cache.layers]
    mr = mr_metric(prefill.cache, cache)
    bytes_before = prefill.cache.total_bytes()
    layers_before = prefill.cache.per_layer_segment_counts()
    bytes_after = cache.total_bytes()
    layers_after = cache.per_layer_segment_counts()
    # Decode needs neither the L*T*d trace nor the unevicted cache; the
    # report keeps only the counts taken above.
    del prefill

    generated = _greedy(decoder, cache, first_token, config.decode_steps)
    t_end = time.perf_counter()

    steps = config.decode_steps
    tpot = (t_end - t_first) / (steps - 1) if steps > 1 else 0.0
    report = RunReport(
        vr=pruned.vr,
        mr=mr,
        token_budget=pruned.vr * mr,
        per_frame_thresholds=[float(t) for t in plan.thresholds],
        per_frame_keep_counts=[int(k) for k in plan.keep_counts],
        per_layer_sim=[float(s) for s in profile.per_layer_sim],
        discarded_layers=discard.discarded_layers(),
        generated_tokens=generated,
        ttft_seconds=t_first - t_start,
        tpot_seconds=tpot,
        cache_bytes_before=bytes_before,
        cache_bytes_after=bytes_after,
        cache_layers_before=layers_before,
        cache_layers_after=layers_after,
        config=config_echo if config_echo is not None else _default_echo(config),
    )
    validate_report(report)
    return generated, report


def baseline_generate(
    decoder: Decoder,
    video: VideoTokens,
    prompt: PromptEmbeddings,
    decode_steps: int,
) -> list:
    """Greedy decode with no pruning and no eviction, for comparison."""
    if decode_steps < 1:
        raise ConfigError(f"decode_steps must be >= 1, got {decode_steps}")
    embedded, spans = _assemble(prompt, video.data)
    prefill = decoder.prefill(embedded, spans)
    return _greedy(decoder, prefill.cache, int(np.argmax(prefill.logits)), decode_steps)


def _assemble(prompt: PromptEmbeddings, visual: np.ndarray) -> tuple[np.ndarray, SegmentedSequence]:
    """The prompt rows system | visual | instruction and their spans."""
    embedded = np.vstack([prompt.system, visual, prompt.instruction])
    spans = SegmentedSequence(
        system_len=prompt.system.shape[0],
        visual_len=visual.shape[0],
        instruction_len=prompt.instruction.shape[0],
    )
    return embedded, spans


def _greedy(decoder: Decoder, cache: LayeredKVCache, first_token: int, steps: int) -> list:
    """first_token, then steps - 1 greedy decode steps on the cache (mutated)."""
    generated = [first_token]
    for _ in range(steps - 1):
        logits, _ = decoder.decode_step(cache, decoder.embedding[generated[-1]])
        generated.append(int(np.argmax(logits)))
    return generated


def _default_echo(config: PipelineConfig) -> dict:
    return {
        "mode": config.mode,
        "w": config.spatial_weight,
        "k": config.manual_threshold,
        "m": config.degradation_threshold,
        "decode_steps": config.decode_steps,
    }
