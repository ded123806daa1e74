"""End-to-end run: prune visual tokens, prefill with eviction, decode.

Order of operations and where the clocks sit:

  1. score + prune the video (visual stage)
  2. assemble system | kept visual | instruction and prefill; as prefill
     builds each layer, stage 2 scores the layer's input states, decides
     its discard and, for a discarded layer, drops the visual rows and
     re-encodes positions (``prefill_with_eviction``)
  3. first token = argmax over the prefill logits  <- TTFT stops here
  4. greedy decode the remaining steps             <- TPOT averages these

Stage 2 therefore costs TTFT, not TPOT: it needs only each layer's own
input, so it runs while that layer is built, and neither the L*T*d
hidden-state trace nor a discarded layer's visual keys/values outlive
the layer. The report's before-eviction figures are those of a full
prefill cache, from the prompt's spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cache import KVCacheLayer, SegmentedSequence
from .decoder import Decoder, PrefillResult
from .errors import ConfigError, PositionOverflowError, ShapeMismatchError
from .memory import apply_discard, degradation_profile, discard_decision, reencode_positions
from .pruner import PrunerConfig, VideoTokens, prune_video
from .report import RunReport, validate_report
from .vecmath import check_value_range


@dataclass(frozen=True)
class PromptEmbeddings:
    """Pre-embedded text surrounding the visual span; every value must be
    finite and within float32's range (ValueError otherwise)."""

    system: np.ndarray  # (system_len, d)
    instruction: np.ndarray  # (instruction_len, d)

    def __post_init__(self):
        for name, arr in (("system", self.system), ("instruction", self.instruction)):
            if arr.ndim != 2:
                raise ShapeMismatchError(f"{name} embeddings must be 2-d, got {arr.shape}")
            check_value_range(arr, f"{name} embeddings")
        if self.system.shape[1] != self.instruction.shape[1]:
            raise ShapeMismatchError(
                "system and instruction embeddings disagree on dimension: "
                f"{self.system.shape[1]} vs {self.instruction.shape[1]}"
            )


@dataclass(frozen=True)
class PipelineConfig(PrunerConfig):
    """Stage 1's fields (inherited) and their checks, then stage 2's
    threshold and the decode length; ``prune_video`` takes it as it is."""

    degradation_threshold: float = 0.2
    decode_steps: int = 16

    def __post_init__(self):
        super().__post_init__()
        if self.decode_steps < 1:
            raise ConfigError(f"decode_steps must be >= 1, got {self.decode_steps}")
        if not np.isfinite(self.degradation_threshold):
            raise ConfigError(
                f"degradation_threshold must be finite, got {self.degradation_threshold}"
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

    pruned = prune_video(video, config)

    embedded, spans = _assemble(prompt, pruned.tokens)
    _check_positions(decoder, spans, config.decode_steps)
    prefill, sims, discarded = prefill_with_eviction(
        decoder, embedded, spans, config.degradation_threshold,
        spare_rows=config.decode_steps - 1,
    )
    first_token = int(np.argmax(prefill.logits))
    t_first = time.perf_counter()

    cache = prefill.cache
    # A full prefill cache holds keys and values for all T rows in every
    # layer; the evicted one is measured.
    rows_before = len(cache) * spans.total_len
    mr = sum(len(layer) for layer in cache) / rows_before
    bytes_before = rows_before * 2 * decoder.config.model_dim * cache[0].keys.itemsize
    layers_before = [spans.segment_counts() for _ in cache]
    bytes_after = sum(layer.nbytes() for layer in cache)
    layers_after = [layer.segment_counts() for layer in cache]
    vr, thresholds, keep_counts = pruned.vr, pruned.thresholds, pruned.keep_counts
    # Decode needs only the cache: the prompt, the kept visual tokens and
    # the prefill states are not kept alive through it.
    del prefill, pruned, embedded

    generated = _greedy(decoder, cache, first_token, config.decode_steps)
    t_end = time.perf_counter()

    steps = config.decode_steps
    tpot = (t_end - t_first) / (steps - 1) if steps > 1 else 0.0
    report = RunReport(
        vr=vr,
        mr=mr,
        token_budget=vr * mr,
        per_frame_thresholds=[float(t) for t in thresholds],
        per_frame_keep_counts=[int(k) for k in keep_counts],
        per_layer_sim=sims,
        discarded_layers=discarded,
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


def prefill_with_eviction(
    decoder: Decoder, embedded: np.ndarray, spans: SegmentedSequence, threshold: float,
    spare_rows: int = 0,
) -> tuple[PrefillResult, list[float], list[int]]:
    """Prefill with stage 2 run on each layer as the decoder builds it.

    Returns the prefill result, whose cache is the evicted one, every
    layer's degradation score, and the discarded layers in order. Each
    layer's input states give its score (``degradation_profile``) and its
    ``discard_decision``; a discarded layer goes through ``apply_discard``
    and ``reencode_positions`` before the cache stores it. Layer 0's input
    is the prompt, so it scores the share of visual rows that are not zero
    vectors: below 1 only with zero tokens (a mostly black video can lose it).
    A kept layer is stored as prefill built it, owning all four of its
    buffers with ``spare_rows`` rows for decode (see ``Decoder.prefill``).
    """
    sims, discarded = [], []

    def evict(states: np.ndarray, layer: KVCacheLayer) -> KVCacheLayer:
        sim = degradation_profile(states, embedded, spans)
        if discard_decision(sim, threshold):
            # a kept layer's positions are already 0..T-1
            discarded.append(len(sims))
            layer = reencode_positions(apply_discard(layer))
        sims.append(sim)
        return layer

    prefill = decoder.prefill(embedded, spans, layer_hook=evict, spare_rows=spare_rows)
    return prefill, sims, discarded


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
    _check_positions(decoder, spans, decode_steps)
    prefill = decoder.prefill(embedded, spans, spare_rows=decode_steps - 1)
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


def _check_positions(decoder: Decoder, spans: SegmentedSequence, steps: int) -> None:
    # No layer holds over T prompt entries, so decode writes at most
    # position T + steps - 2; fail before prefill rather than at that step.
    needed = spans.total_len + steps - 1
    if needed > decoder.config.max_positions:
        raise PositionOverflowError(
            f"prompt of {spans.total_len} tokens and {steps} decode steps need "
            f"{needed} positions, over max_positions {decoder.config.max_positions}"
        )


def _greedy(decoder: Decoder, cache: list[KVCacheLayer], first_token: int, steps: int) -> list:
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
