"""Scaling measurements behind the `bench` subcommand.

Two tables: median visual-scoring wall time over a token-count ladder
(the scoring pass is linear in n*f*d, so doubling either axis should at
most double the median, plus timer noise), and KV-cache payload bytes
over a retained-length ladder (exactly linear by layout arithmetic,
measured on real prefill caches rather than asserted).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from .cache import SegmentedSequence
from .decoder import Decoder, DecoderConfig
from .errors import ConfigError
from .pruner import PrunerConfig, VideoTokens, prune_video

DEFAULT_SCALES = (1, 2, 4)


def scoring_cost_scaling(
    sizes: list[tuple[int, int, int]], repeats: int = 20, seed: int = 0
) -> list[dict]:
    """Median wall-time of the full scoring+selection pass per (n, f, d) size.

    Input generation is excluded from the timed region. Each size is
    measured in several contiguous blocks of repetitions instead of one
    long phase: consecutive same-size calls keep allocator and cache state
    warm (the regime the linearity claim is about), while rotating blocks
    across sizes spreads any transient machine slowdown over every size
    instead of poisoning whichever one it lands on. Exactly one call runs
    at a time. Used to check that doubling n*f or d roughly doubles
    (never blows up) the cost.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    config = PrunerConfig()
    videos = []
    for i, (n, f, d) in enumerate(sizes):
        rng = np.random.default_rng([seed, i])
        videos.append(VideoTokens(n, f, d, rng.standard_normal((n * f, d))))
    for video in videos:  # warmup: allocator and BLAS paths
        prune_video(video, config)
    samples: list[list[float]] = [[] for _ in sizes]
    block = 10
    done = 0
    while done < repeats:
        take = min(block, repeats - done)
        for i, video in enumerate(videos):
            for _ in range(take):
                t0 = time.perf_counter()
                prune_video(video, config)
                samples[i].append(time.perf_counter() - t0)
        done += take
    return [
        {
            "n": n,
            "f": f,
            "d": d,
            "tokens": n * f,
            "median_seconds": statistics.median(samples[i]),
            "repeats": repeats,
        }
        for i, (n, f, d) in enumerate(sizes)
    ]


def scoring_table(
    n: int, f: int, d: int, scales=DEFAULT_SCALES, repeats: int = 20, seed: int = 0
) -> list:
    """Median prune-scoring time per size; tokens-per-frame carries the scale."""
    if len(scales) < 3:
        raise ConfigError(f"need a ladder of >= 3 sizes, got {len(scales)}")
    if any(int(s) < 1 for s in scales):
        raise ConfigError(f"scales must be positive integers, got {scales!r}")
    sizes = [(n, f * int(s), d) for s in scales]
    rows = scoring_cost_scaling(sizes, repeats=repeats, seed=seed)
    base = rows[0]["median_seconds"]
    for row, scale in zip(rows, scales):
        row["scale"] = int(scale)
        row["ratio_to_base"] = row["median_seconds"] / base if base > 0 else float("nan")
    return rows


def cache_bytes_table(lengths, layers: int = 8, model_dim: int = 64, heads: int = 4) -> list:
    """KV payload bytes after prefilling random sequences of each length."""
    lengths = [int(x) for x in lengths]
    if len(lengths) < 2 or any(x < 1 for x in lengths):
        raise ConfigError(f"need >= 2 positive lengths, got {lengths!r}")
    config = DecoderConfig(
        layers=layers, model_dim=model_dim, heads=heads,
        mlp_dim=4 * model_dim, vocab=64, seed=0,
        max_positions=max(lengths) + 1,
    )
    decoder = Decoder(config)
    rng = np.random.default_rng(0)
    rows = []
    for length in lengths:
        embedded = rng.standard_normal((length, model_dim))
        spans = SegmentedSequence(system_len=0, visual_len=length, instruction_len=0)
        cache = decoder.prefill(embedded, spans).cache
        rows.append({
            "length": length,
            "bytes": cache.total_bytes(),
            "bytes_per_entry": cache.total_bytes() // (length * layers),
        })
    return rows


def cache_bytes_linear(rows) -> bool:
    """True iff bytes/length is the same integer for every ladder point."""
    per_unit = {row["bytes"] * 1.0 / row["length"] for row in rows}
    return len(per_unit) == 1


def run_bench(
    n: int, f: int, d: int, scales=DEFAULT_SCALES, repeats: int = 20, seed: int = 0
) -> dict:
    scoring = scoring_table(n, f, d, scales=scales, repeats=repeats, seed=seed)
    base_len = n * f
    cache_rows = cache_bytes_table([base_len * int(s) for s in scales])
    return {
        "scoring": scoring,
        "cache": cache_rows,
        "cache_bytes_linear": cache_bytes_linear(cache_rows),
    }
