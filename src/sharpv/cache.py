"""Segmented sequences and the key/value cache layer.

The prompt fed to the decoder is three contiguous blocks in fixed order:
system, visual, instruction. Entries appended during generation are
tagged ``generated``. A decoder's cache is a plain ``list[KVCacheLayer]``,
one per layer. Cache layers are stored sequence-major so rows can be
removed with one ``take`` of an index array along the first axis, and so
decode can append a row in place: once a layer has been appended to, its
arrays are views of capacity-doubling buffers that it alone owns, and a
decode step writes one row per array instead of copying the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import ShapeMismatchError


class Segment(IntEnum):
    SYSTEM = 0
    VISUAL = 1
    INSTRUCTION = 2
    GENERATED = 3


SEGMENT_NAMES = {seg: seg.name.lower() for seg in Segment}


@dataclass(frozen=True)
class SegmentedSequence:
    """Lengths of the three prompt blocks; spans are derived, so the
    disjoint/contiguous/ordered invariant holds by construction."""

    system_len: int
    visual_len: int
    instruction_len: int

    def __post_init__(self):
        if min(self.system_len, self.visual_len, self.instruction_len) < 0:
            raise ValueError("segment lengths must be >= 0")
        if self.total_len < 1:
            raise ValueError("sequence must contain at least one token")

    @property
    def total_len(self) -> int:
        return self.system_len + self.visual_len + self.instruction_len

    @property
    def system_span(self) -> tuple[int, int]:
        return (0, self.system_len)

    @property
    def visual_span(self) -> tuple[int, int]:
        return (self.system_len, self.system_len + self.visual_len)

    @property
    def instruction_span(self) -> tuple[int, int]:
        return (self.system_len + self.visual_len, self.total_len)

    def segment_counts(self) -> dict[str, int]:
        """Entries per segment, as ``KVCacheLayer.segment_counts`` gives
        them for a layer prefilled over this sequence."""
        return {"system": self.system_len, "visual": self.visual_len,
                "instruction": self.instruction_len, "generated": 0}

    def tags(self) -> np.ndarray:
        """Per-position segment tags, shape (total_len,) uint8."""
        out = np.empty(self.total_len, dtype=np.uint8)
        out[slice(*self.system_span)] = Segment.SYSTEM
        out[slice(*self.visual_span)] = Segment.VISUAL
        out[slice(*self.instruction_span)] = Segment.INSTRUCTION
        return out


@dataclass
class KVCacheLayer:
    """One decoder layer's cache: (seq, heads, head_dim) keys/values plus
    per-entry position ids and segment tags. Every entry is attendable;
    eviction removes rows rather than masking them.
    """

    keys: np.ndarray
    values: np.ndarray
    position_ids: np.ndarray  # (seq,) int64
    segment_tags: np.ndarray  # (seq,) uint8
    # Buffers behind the four arrays once ``append`` has made them.
    _buffers: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return self.keys.shape[0]

    def append(self, key: np.ndarray, value: np.ndarray, tag: Segment, position: int) -> None:
        """Add one entry, in amortised O(1) copies.

        The four arrays are ``buf[:n]`` views of capacity-doubling buffers
        that this layer alone owns, so an append writes one row past every
        view already handed out and leaves those views unchanged. A layer
        that does not own its arrays (fresh from prefill, eviction or
        re-encoding, all of which may share memory with another layer)
        copies them into new buffers first, as does a full one.
        """
        n = len(self)
        arrays = (self.keys, self.values, self.position_ids, self.segment_tags)
        bufs = self._buffers
        if bufs is None or bufs[0].shape[0] == n or any(
            arr.base is not buf for arr, buf in zip(arrays, bufs)
        ):
            bufs = self._buffers = tuple(_grown(arr, max(2 * n, 1)) for arr in arrays)
        keys, values, position_ids, segment_tags = bufs
        keys[n] = key
        values[n] = value
        position_ids[n] = position
        segment_tags[n] = tag
        n += 1
        self.keys, self.values = keys[:n], values[:n]
        self.position_ids, self.segment_tags = position_ids[:n], segment_tags[:n]

    def nbytes(self) -> int:
        """Key/value payload bytes (bookkeeping arrays excluded)."""
        return self.keys.nbytes + self.values.nbytes

    def segment_counts(self) -> dict[str, int]:
        return {
            SEGMENT_NAMES[seg]: int(np.count_nonzero(self.segment_tags == seg))
            for seg in Segment
        }

    def validate(self) -> None:
        seq = len(self)
        if not (
            self.values.shape[0] == seq
            and self.position_ids.shape == (seq,)
            and self.segment_tags.shape == (seq,)
        ):
            raise ShapeMismatchError("cache layer arrays disagree on sequence length")
        if seq > 1 and not (np.diff(self.position_ids) > 0).all():
            raise ValueError("position ids must be strictly increasing")


def _grown(arr: np.ndarray, capacity: int) -> np.ndarray:
    """A new buffer of ``capacity`` rows starting with a copy of arr."""
    buf = np.empty((capacity,) + arr.shape[1:], dtype=arr.dtype)
    buf[:len(arr)] = arr
    return buf

