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
bias sees a gapless coordinate system. The functions take whole traces
and caches; the pipeline calls them on one layer at a time from inside
prefill (``pipeline.prefill_with_eviction``), as soon as the layer's
input states and keys/values exist, so no trace is kept and a discarded
layer's visual entries are dropped before the cache stores them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cache import KVCacheLayer, LayeredKVCache, Segment, SegmentedSequence
from .errors import ShapeMismatchError
from .vecmath import NORM_EPS

# numpy compares a uint8 array with a plain int about 3x faster than with
# the IntEnum member.
_VISUAL = int(Segment.VISUAL)


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
    # cosine per row; rows whose norm product is ~zero score 0. Runs once
    # per layer inside prefill, so it is a few cheap calls: per-row dot
    # products as batched (1, d) @ (d, 1) matmuls (an einsum costs more per
    # call), and a masked division only when some row is ~zero.
    a_rows, b_cols = a[:, None, :], b[:, :, None]
    denom = (a_rows @ a[:, :, None]).ravel()
    denom *= (b[:, None, :] @ b_cols).ravel()
    np.sqrt(denom, out=denom)
    out = (a_rows @ b_cols).ravel()
    if denom.min() >= NORM_EPS:
        out /= denom
    else:
        out = np.divide(out, denom, out=np.zeros_like(out), where=denom >= NORM_EPS)
    np.minimum(out, 1.0, out=out)
    return np.maximum(out, -1.0, out=out)


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
        sims[l] = _row_cosines(states[vs], ref).sum() / spans.visual_len  # as .mean()
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
        keep = np.flatnonzero(layer.segment_tags != _VISUAL) if discard else None
        layers.append(
            KVCacheLayer(
                keys=_rows(layer.keys, keep),
                values=_rows(layer.values, keep),
                position_ids=_rows(layer.position_ids, keep),
                segment_tags=_rows(layer.segment_tags, keep),
            )
        )
    return LayeredKVCache(layers=layers)


def _rows(arr: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    # The rows at index array ``keep``, or a view of all rows for None;
    # take() costs less per call than fancy indexing.
    return arr[:] if keep is None else arr.take(keep, axis=0)


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
    )
