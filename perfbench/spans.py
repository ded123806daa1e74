"""Spans around public sharpv calls, recorded from outside the package.

Each traced call is patched by name on its owner (a module or a class) for
as long as a ``Tracer`` is installed, and restored afterwards; ``run_pipeline``
itself is called unchanged. A name that no longer exists is skipped and
simply records zero calls, so the benchmark keeps running when a later
change removes or renames a function.

Spans live in memory as ``[name, start, end, parent, request, value]``
lists (``parent`` is the index of the enclosing span or -1) and are only
written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Traced name -> (module, attribute path inside the module). The pipeline
# functions are patched where run_pipeline looks them up: in sharpv.pipeline.
TRACED = {
    "pruner.prune_video": ("sharpv.pipeline", "prune_video"),
    "decoder.prefill": ("sharpv.decoder", "Decoder.prefill"),
    "memory.degradation_profile": ("sharpv.pipeline", "degradation_profile"),
    "memory.discard_decision": ("sharpv.pipeline", "discard_decision"),
    "memory.apply_discard": ("sharpv.pipeline", "apply_discard"),
    "memory.reencode_positions": ("sharpv.pipeline", "reencode_positions"),
    "decoder.decode_step": ("sharpv.decoder", "Decoder.decode_step"),
    "cache.append": ("sharpv.cache", "KVCacheLayer.append"),
}
REQUEST = "pipeline.run_pipeline"

# Arrays of one KV cache layer that an append may have to copy.
_LAYER_ARRAYS = ("keys", "values", "position_ids", "segment_tags", "active")


def resolve(target: tuple[str, str]):
    """(owner, attribute, current value) for a traced name, or None if gone."""
    module_name, path = target
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    value = vars(owner).get(attr)
    if not callable(value):
        return None
    return owner, attr, value


def _owner_of(arr):
    # The object that owns an array's memory: the array itself, or the
    # buffer it views. A new owner after an append means the data moved.
    base = getattr(arr, "base", None)
    return arr if base is None else base


def layer_owners(layer) -> list:
    """Memory owner of each of a cache layer's arrays (None if absent)."""
    return [_owner_of(getattr(layer, name, None)) for name in _LAYER_ARRAYS]


def append_bytes(layer, before) -> int:
    """Bytes an append wrote, from the layer's array sizes after the call.

    An array whose memory owner changed was reallocated, so all of it was
    copied; otherwise only the new entry's row was written.
    """
    total = 0
    for name, owner in zip(_LAYER_ARRAYS, before):
        arr = getattr(layer, name, None)
        if arr is None or not hasattr(arr, "nbytes") or len(arr) == 0:
            continue
        total += arr.nbytes if _owner_of(arr) is not owner else arr.nbytes // len(arr)
    return total


class Tracer:
    """Records nested spans of the traced calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches = []
        self.missing = []
        for name, target in TRACED.items():
            found = resolve(target)
            if found is None:
                self.missing.append(name)
            else:
                self._patches.append((name, *found))

    def install(self) -> None:
        for name, owner, attr, original in self._patches:
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for _, owner, attr, original in self._patches:
            setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request, None])
        self._stack.append(index)
        return index

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_append = name == "cache.append"

        def traced(*args, **kwargs):
            if is_append:
                before = layer_owners(args[0])
            index = self._open(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
                if is_append:
                    span[5] = append_bytes(args[0], before)

        return traced

    def call_request(self, request_id: int, fn, *args):
        """Run one request under a root span named REQUEST."""
        self.request = request_id
        return self._wrap(REQUEST, fn)(*args)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def per_request(spans, values) -> dict[str, dict[int, float]]:
    """Sum of ``values`` (one per span) by name and request id."""
    out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span, value in zip(spans, values):
        out[span[0]][span[4]] += value
    return out
