"""Decoder-stage cache pruning driven by visual information degradation.

Observation behind the policy: as hidden states flow through decoder
layers, the visual positions drift away from the original visual
embeddings, and the drift is measurable as falling per-layer cosine
similarity. Once a layer's visual hidden states have degraded below a
threshold, that layer's visual KV entries are dead weight for further
generation and can be evicted.

Everything here reads hidden states and cache contents only. No function
accepts or produces attention weights, so the stage composes with fused
attention kernels that never materialize score matrices.

Eviction keeps system, instruction, and generated entries in every layer;
only the visual span of a discarded layer is removed. After removal,
position ids are compacted to 0..len-1 so the distance-based attention
bias sees a gapless coordinate system. The profile is computed once at
the end of prefill and the plan applied once before decoding starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cache import KVCacheLayer, LayeredKVCache, Segment, SegmentedSequence
from .errors import ShapeMismatchError
from .vecmath import NORM_EPS


@dataclass(frozen=True)
class DegradationProfile:
    """Mean cosine similarity of each layer's visual hidden states to the
    original visual embeddings; one value per decoder layer, in [-1, 1]."""

    per_layer_sim: np.ndarray  # (L,) float64


@dataclass(frozen=True)
class DiscardPlan:
    per_layer: np.ndarray  # (L,) bool
    threshold: float

    def discarded_layers(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.per_layer)]


def _row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # cosine per row; rows with ~zero norm contribute 0
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    dots = np.einsum("ij,ij->i", a, b)
    denom = na * nb
    out = np.where(denom < NORM_EPS, 0.0, dots / np.where(denom < NORM_EPS, 1.0, denom))
    return np.clip(out, -1.0, 1.0)


def degradation_profile(
    hidden_trace: Sequence[np.ndarray],
    original: np.ndarray,
    spans: SegmentedSequence,
) -> DegradationProfile:
    """Per-layer mean cosine between visual hidden states and their originals."""
    original = np.asarray(original, dtype=np.float64)
    if spans.visual_len < 1:
        raise ValueError("degradation profile needs a non-empty visual span")
    if original.shape[0] != spans.total_len:
        raise ShapeMismatchError(
            f"original has {original.shape[0]} rows but spans cover {spans.total_len}"
        )
    vs = slice(*spans.visual_span)
    ref = original[vs]
    sims = np.empty(len(hidden_trace), dtype=np.float64)
    for l, states in enumerate(hidden_trace):
        states = np.asarray(states, dtype=np.float64)
        if states.shape != original.shape:
            raise ShapeMismatchError(
                f"layer {l} states have shape {states.shape}, expected {original.shape}"
            )
        sims[l] = _row_cosines(states[vs], ref).mean()
    return DegradationProfile(per_layer_sim=sims)


def discard_decision(profile: DegradationProfile, threshold: float) -> DiscardPlan:
    """Mark layer l for discard iff its similarity is strictly below threshold.

    Thresholds outside [-1, 1] are clamped at construction; -1 never
    discards, 1 discards every layer whose similarity is below 1.
    """
    m = min(max(float(threshold), -1.0), 1.0)
    return DiscardPlan(per_layer=profile.per_layer_sim < m, threshold=m)


def apply_discard(cache: LayeredKVCache, plan: DiscardPlan) -> LayeredKVCache:
    """Drop the visual-span entries of every discarded layer.

    Returns a new cache; the input cache and its arrays are left intact.
    Layers the plan does not touch get views of the original arrays.
    """
    if len(plan.per_layer) != len(cache):
        raise ShapeMismatchError(
            f"plan covers {len(plan.per_layer)} layers but cache has {len(cache)}"
        )
    layers = []
    for discard, layer in zip(plan.per_layer, cache.layers):
        keep = layer.segment_tags != Segment.VISUAL if discard else slice(None)
        layers.append(
            KVCacheLayer(
                keys=layer.keys[keep],
                values=layer.values[keep],
                position_ids=layer.position_ids[keep],
                segment_tags=layer.segment_tags[keep],
                active=layer.active[keep] if layer.active is not None else None,
            )
        )
    return LayeredKVCache(layers=layers)


def mask_discard(cache: LayeredKVCache, plan: DiscardPlan) -> LayeredKVCache:
    """Masking twin of apply_discard: flag visual entries inactive instead
    of removing them.

    Active entries get the same compacted position ids the removal route
    would produce, so attention over a masked cache must equal attention
    over the evicted-and-re-encoded one. Exists so that equivalence is
    checkable; production paths use apply_discard.
    """
    if len(plan.per_layer) != len(cache):
        raise ShapeMismatchError(
            f"plan covers {len(plan.per_layer)} layers but cache has {len(cache)}"
        )
    layers = []
    for discard, layer in zip(plan.per_layer, cache.layers):
        base = layer.active if layer.active is not None else np.ones(len(layer), dtype=bool)
        active = base & (layer.segment_tags != Segment.VISUAL) if discard else base
        # Rank among active entries; inactive rows inherit a stale id that
        # attention never reads (their scores are masked to -inf).
        positions = np.maximum(np.cumsum(active) - 1, 0).astype(np.int64)
        layers.append(
            KVCacheLayer(
                keys=layer.keys,
                values=layer.values,
                position_ids=positions,
                segment_tags=layer.segment_tags,
                active=active,
            )
        )
    return LayeredKVCache(layers=layers)


def reencode_positions(layer: KVCacheLayer) -> KVCacheLayer:
    """Rewrite position ids to the contiguous range 0..len-1.

    Entries must already be in increasing original-position order; keys
    and values are untouched (positions only matter at attention time).
    Idempotent.
    """
    return KVCacheLayer(
        keys=layer.keys,
        values=layer.values,
        position_ids=np.arange(len(layer), dtype=np.int64),
        segment_tags=layer.segment_tags,
        active=layer.active,
    )


def mr_metric(before: LayeredKVCache, after: LayeredKVCache) -> float:
    """Fraction of cache entries retained across all layers, in (0, 1]."""
    if len(before) != len(after):
        raise ShapeMismatchError(
            f"layer count mismatch: {len(before)} before vs {len(after)} after"
        )
    total = before.total_entries()
    if total == 0:
        raise ValueError("before-cache is empty")
    return after.total_entries() / total
