"""Where one request's memory goes, and how its KV cache grows.

    python tools/kv_memory.py decode_long [--seed 0]

builds a perfbench workload's inputs as perfbench does (its ``WORKLOADS``
table and ``set_up``, read from ``perfbench/worker.py`` and not edited),
runs ``run_pipeline`` once under ``tracemalloc`` and prints, for that
request:

- the traced peak of stage 1 (``prune_video``), of prefill with stage 2
  (``prefill_with_eviction``) and of decode (``_greedy``), each above the
  memory traced when the request starts, so a phase's peak includes what
  earlier phases left alive;
- the KV cache's regrowth copies and the bytes they copy, counted around
  ``sharpv.cache._grown``, which only ``reserve`` calls (``append``
  reserves on a full layer). perfbench's ``cache.append.bytes_copied``
  sees only the copies made inside ``KVCacheLayer.append``;
- each layer's final entries and capacity, in rows.

Standard library plus sharpv.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import sharpv  # noqa: E402
import worker  # noqa: E402  perfbench's workload table and set-up
from sharpv import cache, pipeline  # noqa: E402

PHASES = {"stage 1": "prune_video", "prefill with stage 2": "prefill_with_eviction",
          "decode": "_greedy"}


def _row_bytes(layer) -> int:
    return sum(a.nbytes for a in (layer.keys, layer.values, layer.position_ids,
                                  layer.segment_tags))


def measure(workload: str, seed: int) -> dict:
    """Traced peak per phase (bytes), regrowth (copies, bytes) and each
    layer's (entries, capacity) after one ``run_pipeline`` call."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs, _ = worker.set_up(sharpv, worker.WORKLOADS[workload], seed,
                                  Path(tmp) / "video.shrpvid")
    peaks, copies, caches = {}, [], []
    grown, saved = cache._grown, {name: getattr(pipeline, name) for name in PHASES.values()}

    def counted(layer, capacity):
        copies.append(_row_bytes(layer))
        return grown(layer, capacity)

    def traced(phase, fn):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[phase] = tracemalloc.get_traced_memory()[1] - base
                if fn is saved["_greedy"]:  # (decoder, cache, first_token, steps)
                    caches.append(args[1])
        return call

    cache._grown = counted
    for phase, name in PHASES.items():
        setattr(pipeline, name, traced(phase, saved[name]))
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        pipeline.run_pipeline(*inputs)
    finally:
        tracemalloc.stop()
        cache._grown = grown
        for name, fn in saved.items():
            setattr(pipeline, name, fn)
    layers = [(len(layer), layer._buffers[1].shape[0] if layer._buffers else len(layer))
              for layer in caches[0]]
    return {"peaks": peaks, "copies": len(copies), "bytes_copied": sum(copies),
            "layers": layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(worker.WORKLOADS))
    p.add_argument("--seed", type=int, default=worker.DEFAULT_SEED)
    args = p.parse_args(argv)
    result = measure(args.workload, args.seed)
    print(f"{args.workload}, seed {args.seed}")
    print("traced peak above the request's start (MiB):")
    for phase, peak in result["peaks"].items():
        print(f"  {phase:<22} {peak / 2**20:.2f}")
    print(f"KV regrowth: {result['copies']} copies, {result['bytes_copied']} bytes")
    print("layer  entries  capacity")
    for l, (entries, capacity) in enumerate(result["layers"]):
        print(f"  {l:<4} {entries:>7}  {capacity:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
