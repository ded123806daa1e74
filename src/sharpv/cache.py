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
view of it. Value, position and tag buffers are entry-major. This module
alone allocates them, in one function (``_empty``), and views them by
one rule (``_views``). A layer either owns all four buffers or none:
``KVCacheLayer.projected`` builds a prefill layer in four buffers,
projecting its keys and values straight into them, so spare rows take
decode appends without a copy.

A layer grows one way: ``KVCacheLayer.reserve(rows)`` leaves a layer
that owns its four buffers with ``rows`` spare rows alone, and copies
any other once into buffers of exactly its length plus ``rows``. An
``append`` to a full layer, or to one that owns no buffers, reserves
its length (at least one row), doubling it. The pipeline reserves every
layer's decode entries before the first decode step, so a layer is
copied at most once and ends decode with no spare row.

A prefill layer of n entries asked for ``spare_rows`` has room for
``min(spare_rows, n)`` entries beyond them: a layer the stage-2 hook
keeps as it is takes that many decode entries without copying
anything, while a layer the hook replaces (evicted or re-encoded) owns
no buffers, and ``reserve`` copies it. The pipeline asks for one spare
row per decode step after the first. The cap at n bounds the rows
prefill allocates for layers that stage 2 may then evict: past it,
``reserve`` copies a kept layer once, to its final size.
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


@dataclass(eq=False)
class KVCacheLayer:
    """One decoder layer's cache: (seq, heads, head_dim) keys/values plus
    per-entry position ids and segment tags. Every entry is attendable;
    eviction removes rows rather than masking them.
    """

    keys: np.ndarray
    values: np.ndarray
    position_ids: np.ndarray  # (seq,) int64
    segment_tags: np.ndarray  # (seq,) uint8
    # Buffers behind the four arrays, as ``_empty`` allocates them.
    _buffers: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def projected(cls, states: np.ndarray, wk: np.ndarray, wv: np.ndarray, heads: int,
                  segment_tags: np.ndarray, spare_rows: int) -> KVCacheLayer:
        """A layer of the n rows of the (n, d) ``states``, with keys
        ``states @ wk`` and values ``states @ wv`` split into ``heads``
        heads, position ids 0..n-1 and the given tags. It owns all four
        buffers, of n + min(``spare_rows``, n) entries (see the module
        docstring), so appends write into their spare rows. Both
        projections write straight into the buffers: the keys as one
        (H, head_dim, d) @ (d, n) matmul, with no (n, d) temporary and no
        transposed copy.
        """
        n, d = states.shape
        bufs = _empty(n + min(spare_rows, n), heads, d // heads, states.dtype)
        key_buf, value_buf, position_buf, tag_buf = bufs
        # head h's (head_dim, d) operand is the transpose of its wk columns
        np.matmul(wk.reshape(d, heads, -1).transpose(1, 2, 0), states.T, out=key_buf[:, :, :n])
        np.matmul(states, wv, out=value_buf[:n].reshape(n, d))
        position_buf[:n] = np.arange(n)
        tag_buf[:n] = segment_tags
        layer = cls(*_views(bufs, n))
        layer._buffers = bufs
        return layer

    def __len__(self) -> int:
        return self.keys.shape[0]

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more entries, so that the next ``rows``
        appends write in place. A layer that owns its four buffers with
        that many spare rows is left alone; any other is copied once into
        buffers of exactly ``len(self) + rows`` entries, which it then owns.
        """
        if rows < 0:
            raise ValueError(f"rows must be >= 0, got {rows}")
        n = len(self)
        if not self._has_room(n, rows):
            self._buffers = _grown(self, n + rows)
            self.keys, self.values, self.position_ids, self.segment_tags = _views(self._buffers, n)

    def append(self, key: np.ndarray, value: np.ndarray, tag: Segment, position: int) -> None:
        """Add one entry, in amortised O(1) copies.

        The four arrays are ``buf[:n]`` views of buffers that this layer
        alone owns, so an append writes one row past every view already
        handed out and leaves those views unchanged. A layer that does not
        own its arrays (built directly, or by ``apply_discard`` or
        ``reencode_positions``, whose arrays may share memory with another
        layer) reserves its length first, doubling it, as does a full one;
        reserving the rows up front avoids both copies.
        """
        n = len(self)
        if not self._has_room(n, 1):
            self.reserve(max(n, 1))
        key_buf, value_buf, position_buf, tag_buf = self._buffers
        key_buf[:, :, n] = key
        value_buf[n] = value
        position_buf[n] = position
        tag_buf[n] = tag
        self.keys, self.values, self.position_ids, self.segment_tags = _views(self._buffers, n + 1)

    def _has_room(self, n: int, rows: int) -> bool:
        """Whether this layer of ``n`` entries owns all four buffers, with
        ``rows`` spare rows in them."""
        bufs = self._buffers
        # The checks are unrolled: a generator over the four arrays costs
        # more per step than the writes themselves.
        return (bufs is not None and bufs[1].shape[0] - n >= rows
                and self.keys.base is bufs[0] and self.values.base is bufs[1]
                and self.position_ids.base is bufs[2]
                and self.segment_tags.base is bufs[3])

    def nbytes(self) -> int:
        """Key/value payload bytes (bookkeeping arrays excluded)."""
        return self.keys.nbytes + self.values.nbytes

    def segment_counts(self) -> dict[str, int]:
        # one bincount: comparing the tags with each IntEnum member costs
        # about 8 us a segment, even on a short layer
        counts = np.bincount(self.segment_tags, minlength=len(Segment))
        return {SEGMENT_NAMES[seg]: int(counts[seg]) for seg in Segment}


def _empty(capacity: int, heads: int, head_dim: int, dtype) -> tuple:
    """A layer's four buffers, of ``capacity`` entries: (H, head_dim, cap)
    keys and (cap, H, head_dim) values of ``dtype``, (cap,) int64 position
    ids and (cap,) uint8 tags."""
    return (np.empty((heads, head_dim, capacity), dtype=dtype),
            np.empty((capacity, heads, head_dim), dtype=dtype),
            np.empty(capacity, dtype=np.int64), np.empty(capacity, dtype=np.uint8))


def _views(bufs: tuple, n: int) -> tuple:
    """The layer's keys, values, position ids and tags: its first ``n``
    entries in the buffers ``bufs``, keys as a (n, H, head_dim) view."""
    key_buf, value_buf, position_buf, tag_buf = bufs
    return key_buf[:, :, :n].transpose(2, 0, 1), value_buf[:n], position_buf[:n], tag_buf[:n]


def _grown(layer: KVCacheLayer, capacity: int) -> tuple:
    """New buffers of ``capacity`` entries holding a copy of the layer."""
    n, heads, head_dim = layer.keys.shape
    bufs = _empty(capacity, heads, head_dim, layer.keys.dtype)
    arrays = (layer.keys, layer.values, layer.position_ids, layer.segment_tags)
    for view, arr in zip(_views(bufs, n), arrays):
        view[...] = arr
    return bufs
