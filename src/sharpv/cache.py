"""Segmented sequences and the key/value cache layer.

The prompt fed to the decoder is three contiguous blocks in fixed order:
system, visual, instruction. Entries appended during generation are
tagged ``generated``. A decoder's cache is a plain ``list[KVCacheLayer]``,
one per layer. A layer's arrays are indexed by entry along their first
axis, so eviction removes rows with one index array, and decode appends
a row in place: a layer that owns its buffers holds its arrays as
``[:n]`` views of them and a decode step writes one row per array
instead of copying the cache. The key buffer is head-major, (heads,
head_dim, capacity), so the keys attention reads, (heads, head_dim, n),
are a prefix of contiguous rows; ``keys`` is a (n, heads, head_dim)
view of it. Value, position and tag buffers are entry-major. A layer
either owns all four buffers or none: prefill hands each layer its key
and value buffers with spare rows, and ``KVCacheLayer.owning`` adds the
id and tag buffers at the same capacity. A layer that owns none copies
itself into new buffers on its first append, and buffers double when
full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


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
    def visual_span(self) -> tuple[int, int]:
        return (self.system_len, self.system_len + self.visual_len)

    def segment_counts(self) -> dict[str, int]:
        """Entries per segment, as ``KVCacheLayer.segment_counts`` gives
        them for a layer prefilled over this sequence."""
        return {"system": self.system_len, "visual": self.visual_len,
                "instruction": self.instruction_len, "generated": 0}

    def tags(self) -> np.ndarray:
        """Per-position segment tags, shape (total_len,) uint8."""
        # Segment.SYSTEM, VISUAL and INSTRUCTION are 0, 1 and 2
        lengths = (self.system_len, self.visual_len, self.instruction_len)
        return np.repeat(np.arange(3, dtype=np.uint8), lengths)


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
    # Buffers behind the four arrays, keys head-major: (H, head_dim, cap)
    # keys, then (cap, H, head_dim) values, (cap,) ids and (cap,) tags.
    _buffers: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def owning(cls, key_buf: np.ndarray, value_buf: np.ndarray,
               segment_tags: np.ndarray) -> KVCacheLayer:
        """A layer of len(segment_tags) entries, with position ids
        0..n-1, whose keys and values are the leading rows of key_buf,
        (H, head_dim, capacity), and value_buf, (capacity, H, head_dim),
        which the caller hands over. The layer allocates its id and tag
        buffers at the same capacity, so it owns all four and appends
        write into their spare rows.
        """
        n = len(segment_tags)
        capacity = value_buf.shape[0]
        position_buf = np.arange(capacity, dtype=np.int64)
        tag_buf = _grown_rows(segment_tags, capacity)
        layer = cls(key_buf[:, :, :n].transpose(2, 0, 1), value_buf[:n],
                    position_buf[:n], tag_buf[:n])
        layer._buffers = (key_buf, value_buf, position_buf, tag_buf)
        return layer

    def __len__(self) -> int:
        return self.keys.shape[0]

    def append(self, key: np.ndarray, value: np.ndarray, tag: Segment, position: int) -> None:
        """Add one entry, in amortised O(1) copies.

        The four arrays are ``buf[:n]`` views of buffers that this layer
        alone owns, so an append writes one row past every view already
        handed out and leaves those views unchanged. A layer that does not
        own its arrays (built directly, or by ``apply_discard`` or
        ``reencode_positions``, whose arrays may share memory with another
        layer) copies them into new buffers of twice its length first, as
        does a full one.
        """
        n = len(self)
        bufs = self._buffers
        # The checks are unrolled: a generator over the four arrays costs
        # more per step than the writes themselves.
        if (bufs is None or bufs[1].shape[0] == n
                or self.keys.base is not bufs[0] or self.values.base is not bufs[1]
                or self.position_ids.base is not bufs[2]
                or self.segment_tags.base is not bufs[3]):
            bufs = self._buffers = _grown(self, max(2 * n, 1))
        key_buf, value_buf, position_buf, tag_buf = bufs
        key_buf[:, :, n] = key
        value_buf[n] = value
        position_buf[n] = position
        tag_buf[n] = tag
        n += 1
        self.keys = key_buf[:, :, :n].transpose(2, 0, 1)
        self.values = value_buf[:n]
        self.position_ids, self.segment_tags = position_buf[:n], tag_buf[:n]

    def nbytes(self) -> int:
        """Key/value payload bytes (bookkeeping arrays excluded)."""
        return self.keys.nbytes + self.values.nbytes

    def segment_counts(self) -> dict[str, int]:
        # one bincount: comparing the tags with each IntEnum member costs
        # about 8 us a segment, even on a short layer
        counts = np.bincount(self.segment_tags, minlength=len(Segment))
        return {SEGMENT_NAMES[seg]: int(counts[seg]) for seg in Segment}


def _grown(layer: KVCacheLayer, capacity: int) -> tuple:
    """New buffers of ``capacity`` entries holding a copy of the layer,
    keys head-major."""
    keys = layer.keys
    n, heads, head_dim = keys.shape
    key_buf = np.empty((heads, head_dim, capacity), dtype=keys.dtype)
    key_buf[:, :, :n] = keys.transpose(1, 2, 0)
    return (key_buf, _grown_rows(layer.values, capacity),
            _grown_rows(layer.position_ids, capacity), _grown_rows(layer.segment_tags, capacity))


def _grown_rows(arr: np.ndarray, capacity: int) -> np.ndarray:
    """A new buffer of ``capacity`` rows starting with a copy of arr."""
    buf = np.empty((capacity,) + arr.shape[1:], dtype=arr.dtype)
    buf[:len(arr)] = arr
    return buf
