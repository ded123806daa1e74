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

Every function works on one decoder layer. The score
(``degradation_profile``) reads only the layer's visual rows and the
original visual rows; the caller owns the prompt layout and cuts both
out. A layer whose score is below the threshold (``discard_decision``)
loses its visual span (``apply_discard``; system, instruction, and
generated entries stay), and its position ids are compacted to 0..len-1
(``reencode_positions``) so the distance-based attention bias sees a
gapless coordinate system. The pipeline calls them from inside prefill
(``pipeline.prefill_with_eviction``) as soon as a layer's input states
and keys/values exist, so no hidden-state trace is kept and a discarded
layer's visual entries are dropped before the cache stores them.
"""

from __future__ import annotations

import numpy as np

from .cache import KVCacheLayer, Segment
from .errors import ShapeMismatchError
from .vecmath import row_cosines

# numpy compares a uint8 array with a plain int about 3x faster than with
# the IntEnum member.
_VISUAL = int(Segment.VISUAL)


def degradation_profile(states: np.ndarray, original: np.ndarray) -> float:
    """Mean cosine, in [-1, 1], between one layer's visual hidden states
    and the original visual embeddings, row by row: both are the visual
    span's (V, d) rows, cut out by the caller. A row that is a zero
    vector on either side scores 0 (``vecmath.row_cosines``)."""
    original = np.asarray(original, dtype=np.float64)
    states = np.asarray(states, dtype=np.float64)
    if original.shape[0] < 1:
        raise ValueError("degradation profile needs a non-empty visual span")
    if states.shape != original.shape:
        raise ShapeMismatchError(
            f"states have shape {states.shape}, expected {original.shape}"
        )
    return float(row_cosines(states, original).sum() / original.shape[0])


def discard_decision(sim: float, threshold: float) -> bool:
    """True iff a layer scoring ``sim`` is discarded: its score is strictly
    below the threshold clamped to [-1, 1]. -1 never discards; 1 discards
    every layer that scores below 1. A NaN threshold raises ValueError."""
    threshold = float(threshold)
    if np.isnan(threshold):
        raise ValueError("degradation threshold must not be NaN")
    return sim < min(max(threshold, -1.0), 1.0)


def apply_discard(layer: KVCacheLayer) -> KVCacheLayer:
    """Drop the layer's visual entries.

    Returns a new layer whose entries keep their order and position ids;
    the input layer and its arrays are left intact.
    """
    keep = np.flatnonzero(layer.segment_tags != _VISUAL)
    return KVCacheLayer(
        keys=layer.keys[keep],
        values=layer.values[keep],
        position_ids=layer.position_ids[keep],
        segment_tags=layer.segment_tags[keep],
    )


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
