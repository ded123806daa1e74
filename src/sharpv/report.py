"""Run report: the single JSON object the harness emits per pipeline run.

Schema (schema_version 1, all keys always present):

  vr                    float, kept visual tokens / original visual tokens
  mr                    float, cache entries after eviction / before
  token_budget          float, exactly vr * mr
  per_frame_thresholds  list[float], one retention threshold per frame
  per_frame_keep_counts list[int], tokens kept per frame
  per_layer_sim         list[float], mean visual cosine similarity per layer
  discarded_layers      list[int], layers whose visual cache was evicted
  generated_tokens      list[int], greedy token ids in decode order
  ttft_seconds          float, wall time to the first generated token
  tpot_seconds          float, mean wall time per subsequent token
  cache_bytes_before    int, KV payload bytes a full prefill cache would
                        hold (every layer keeps all prompt rows); eviction
                        runs inside prefill, so this cache never exists
  cache_bytes_after     int, KV payload bytes after eviction
  cache_layers_before   list[dict], per-layer entry counts by segment of
                        that full cache
  cache_layers_after    list[dict], same after eviction
  config                dict, echo of the effective run configuration

Wall-time fields vary between runs; everything else is a pure function of
(seed, inputs, config). comparable_dict() strips the timing fields so the
remainder can be compared byte-for-byte or pinned in golden files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import InvariantViolation

SCHEMA_VERSION = 1

# How far a per_layer_sim entry may pass +-1 and still count as a cosine:
# a report that agrees with a valid one to the benchmark gate's relative
# tolerance of 1e-9 is valid too.
_SIM_SLACK = 1e-9

# Excluded from determinism comparisons and golden files.
TIMING_FIELDS = ("ttft_seconds", "tpot_seconds")


@dataclass(frozen=True)
class RunReport:
    vr: float
    mr: float
    token_budget: float
    per_frame_thresholds: list
    per_frame_keep_counts: list
    per_layer_sim: list
    discarded_layers: list
    generated_tokens: list
    ttft_seconds: float
    tpot_seconds: float
    cache_bytes_before: int
    cache_bytes_after: int
    cache_layers_before: list
    cache_layers_after: list
    config: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def comparable_dict(self) -> dict:
        d = self.to_dict()
        for key in TIMING_FIELDS:
            d.pop(key)
        return d


def validate_report(report: RunReport) -> None:
    """Raise InvariantViolation if the report is internally inconsistent."""
    if not 0.0 < report.vr <= 1.0:
        raise InvariantViolation(f"vr must be in (0, 1], got {report.vr}")
    if not 0.0 < report.mr <= 1.0:
        raise InvariantViolation(f"mr must be in (0, 1], got {report.mr}")
    if report.token_budget != report.vr * report.mr:
        raise InvariantViolation(
            f"token_budget {report.token_budget!r} != vr*mr {report.vr * report.mr!r}"
        )
    for t in report.per_frame_thresholds:
        if not 0.0 <= t <= 1.0:
            raise InvariantViolation(f"frame threshold {t} outside [0, 1]")
    if len(report.per_frame_keep_counts) != len(report.per_frame_thresholds):
        raise InvariantViolation("keep counts and thresholds disagree on frame count")
    if any(k < 1 for k in report.per_frame_keep_counts):
        raise InvariantViolation("every frame must keep at least one token")
    n_layers = len(report.per_layer_sim)
    for s in report.per_layer_sim:
        if not -1.0 - _SIM_SLACK <= s <= 1.0 + _SIM_SLACK:  # NaN fails too
            raise InvariantViolation(f"layer similarity {s} outside [-1, 1]")
    if any(not 0 <= l < n_layers for l in report.discarded_layers):
        raise InvariantViolation(
            f"discarded layer index outside 0..{n_layers - 1}: {report.discarded_layers}"
        )
    if report.cache_bytes_after > report.cache_bytes_before:
        raise InvariantViolation("cache grew during eviction")
    if report.ttft_seconds < 0 or report.tpot_seconds < 0:
        raise InvariantViolation("negative wall time")
    if report.schema_version != SCHEMA_VERSION:
        raise InvariantViolation(
            f"schema_version {report.schema_version} != {SCHEMA_VERSION}"
        )
