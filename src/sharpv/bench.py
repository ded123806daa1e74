"""Scaling measurements behind acceptance criterion 9.

Two tables: median visual-scoring wall time per (n, f, d) size (the
scoring pass is linear in n*f*d, so doubling either axis should at most
double the median, plus timer noise), and KV-cache payload bytes over a
retained-length ladder (exactly linear by layout arithmetic, measured on
real prefill caches rather than asserted). End-to-end timing lives in
perfbench, not here.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from .cache import SegmentedSequence
from .decoder import Decoder, DecoderConfig
from .errors import ConfigError
from .pruner import PrunerConfig, VideoTokens, prune_video


def scoring_cost_scaling(
    sizes: list[tuple[int, int, int]], repeats: int, seed: int = 0
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


def _cache_ladder(lengths) -> list[int]:
    """The cache ladder as ints; ConfigError unless it holds >= 2 lengths,
    each from 1 to max_positions: each length is one real prefill, at
    8 KiB of cache per token."""
    lengths = [int(x) for x in lengths]
    if len(lengths) < 2 or any(x < 1 for x in lengths):
        raise ConfigError(f"need >= 2 positive lengths, got {lengths!r}")
    limit = DecoderConfig.max_positions
    if max(lengths) > limit:
        raise ConfigError(f"cache ladder length {max(lengths)} exceeds max_positions {limit}")
    return lengths


def cache_bytes_table(lengths) -> list:
    """KV payload bytes after prefilling random sequences of each length
    through the default decoder; the ladder is checked before the decoder
    is built."""
    lengths = _cache_ladder(lengths)
    config = DecoderConfig()
    decoder = Decoder(config)
    rng = np.random.default_rng(0)
    rows = []
    for length in lengths:
        embedded = rng.standard_normal((length, config.model_dim))
        spans = SegmentedSequence(system_len=0, visual_len=length, instruction_len=0)
        nbytes = sum(layer.nbytes() for layer in decoder.prefill(embedded, spans).cache)
        rows.append({
            "length": length,
            "bytes": nbytes,
            "bytes_per_entry": nbytes // (length * config.layers),
        })
    return rows


def cache_bytes_linear(rows) -> bool:
    """True iff bytes/length is the same integer for every ladder point."""
    per_unit = {row["bytes"] * 1.0 / row["length"] for row in rows}
    return len(per_unit) == 1

