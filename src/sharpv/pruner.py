"""Visual-stage pruning: spatio-temporal token scoring and per-frame retention.

A video arrives as n frames of f tokens each. Every token gets two scores:

* spatial importance — its dissimilarity to the frame's mean token, i.e.
  how far it sits from the frame's average content;
* temporal importance — its dissimilarity to the same-position token in
  the previous frame, i.e. how much it moved. The first frame has no
  predecessor, so it is scored against a virtual reference frame whose
  every token is the frame mean; its temporal row therefore equals its
  spatial row.

The combined score is temporal + weight * spatial. Retention is decided
per frame: in adaptive mode the frame keeps a fraction of tokens equal to
||temporal row||_2 / (2*sqrt(f)) (the norm's upper bound is 2*sqrt(f), so
the ratio is a normalized measure of inter-frame change); in manual mode
a token is kept iff its combined score clears a fixed threshold. Both
modes keep at least one token per frame so downstream frame bookkeeping
never sees an empty frame.

Everything here is a pure function of the token directions: scaling all
embeddings by a positive constant changes nothing unless it moves a token
or frame-mean norm across ``NORM_EPS`` (1e-12), below which a vector
counts as zero. No operation looks at token pairs across positions, so
the whole stage is O(n * f * d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .vecmath import unit_rows

MODE_ADAPTIVE = "adaptive"
MODE_MANUAL = "manual"


@dataclass(frozen=True)
class VideoTokens:
    """An (n frames x f tokens x d dims) stack of visual token embeddings.

    ``data`` is frame-major: rows [t*f, (t+1)*f) belong to frame t.
    """

    n: int
    f: int
    d: int
    data: np.ndarray  # (n*f, d) float64

    def __post_init__(self):
        if self.n < 1 or self.f < 1 or self.d < 1:
            raise ValueError(f"counts must be >= 1, got n={self.n} f={self.f} d={self.d}")
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.shape != (self.n * self.f, self.d):
            raise ShapeMismatchError(
                f"data shape {arr.shape} does not match ({self.n * self.f}, {self.d})"
            )
        if not np.isfinite(arr).all():
            raise ValueError("video tokens contain NaN or Inf")
        object.__setattr__(self, "data", arr)

    def frame(self, t: int) -> np.ndarray:
        """Rows of frame t, shape (f, d)."""
        return self.data[t * self.f : (t + 1) * self.f]

    def frames(self) -> np.ndarray:
        """The same data viewed as (n, f, d)."""
        return self.data.reshape(self.n, self.f, self.d)


@dataclass(frozen=True)
class ImportanceMap:
    """Per-token spatial/temporal/combined scores for one video."""

    spatial: np.ndarray  # (n, f), each in [0, 2]
    temporal: np.ndarray  # (n, f), each in [0, 2]
    combined: np.ndarray  # (n, f) = temporal + spatial_weight * spatial
    spatial_weight: float


@dataclass(frozen=True)
class RetentionPlan:
    """Which tokens each frame keeps and why."""

    thresholds: np.ndarray  # (n,) retention ratios in [0, 1]
    keep_counts: np.ndarray  # (n,) ints in [1, f]
    kept_indices: tuple  # n arrays of sorted within-frame indices
    mode: str
    manual_threshold: float | None = None


@dataclass(frozen=True)
class PrunedVideo:
    """The surviving tokens in original frame-major order."""

    tokens: np.ndarray  # (total kept, d)
    origin: np.ndarray  # (total kept, 2) rows of (frame index, within-frame index)
    vr: float  # retained fraction of visual tokens


@dataclass(frozen=True)
class PrunerConfig:
    spatial_weight: float = 1.0
    mode: str = MODE_ADAPTIVE
    manual_threshold: float = 1.6

    def __post_init__(self):
        if not np.isfinite([self.spatial_weight, self.manual_threshold]).all():
            raise ConfigError(
                "spatial_weight and manual_threshold must be finite, got "
                f"{self.spatial_weight} and {self.manual_threshold}"
            )
        if self.spatial_weight < 0:
            raise ConfigError(f"spatial_weight must be >= 0, got {self.spatial_weight}")
        if self.mode not in (MODE_ADAPTIVE, MODE_MANUAL):
            raise ConfigError(f"mode must be 'adaptive' or 'manual', got {self.mode!r}")
        if self.mode == MODE_MANUAL:
            hi = 2.0 * (1.0 + self.spatial_weight)
            if not 0.0 <= self.manual_threshold <= hi:
                raise ConfigError(
                    f"manual_threshold must be in [0, {hi}], got {self.manual_threshold}"
                )


def importance_maps(video: VideoTokens) -> tuple[np.ndarray, np.ndarray]:
    """(spatial, temporal) per-token scores, each shape (n, f) in [0, 2].

    Spatial: dissimilarity to the frame mean. Temporal: dissimilarity to
    the same position in the previous frame; frame 0 is scored against the
    virtual all-mean reference frame, so its row coincides with its
    spatial row. One unit-direction pass serves both maps.
    """
    frames = video.frames()
    units = unit_rows(frames)  # (n, f, d)
    mean_units = unit_rows(frames.mean(axis=1))  # (n, d)
    diff = units - mean_units[:, None, :]
    spatial = np.clip(np.linalg.norm(diff, axis=2), 0.0, 2.0)
    temporal = np.empty((video.n, video.f), dtype=np.float64)
    temporal[0] = spatial[0]
    if video.n > 1:
        step = units[1:] - units[:-1]
        temporal[1:] = np.clip(np.linalg.norm(step, axis=2), 0.0, 2.0)
    return spatial, temporal


def combined_importance(
    spatial: np.ndarray, temporal: np.ndarray, spatial_weight: float
) -> np.ndarray:
    """Element-wise temporal + spatial_weight * spatial."""
    spatial = np.asarray(spatial, dtype=np.float64)
    temporal = np.asarray(temporal, dtype=np.float64)
    if spatial.shape != temporal.shape:
        raise ShapeMismatchError(f"shape mismatch: {spatial.shape} vs {temporal.shape}")
    if spatial_weight < 0:
        raise ValueError(f"spatial_weight must be >= 0, got {spatial_weight}")
    return temporal + spatial_weight * spatial


def frame_thresholds(spatial: np.ndarray, temporal: np.ndarray) -> np.ndarray:
    """Per-frame retention ratios in [0, 1].

    Frame t >= 1 uses ||temporal row||_2 / (2*sqrt(f)); frame 0 uses its
    spatial row the same way. A static frame scores 0, a frame whose every
    token is antipodal to its predecessor scores 1.
    """
    spatial = np.asarray(spatial, dtype=np.float64)
    temporal = np.asarray(temporal, dtype=np.float64)
    if spatial.shape != temporal.shape:
        raise ShapeMismatchError(f"shape mismatch: {spatial.shape} vs {temporal.shape}")
    f = spatial.shape[1]
    norms = np.linalg.norm(temporal, axis=1)
    norms[0] = np.linalg.norm(spatial[0])
    return np.clip(norms / (2.0 * np.sqrt(f)), 0.0, 1.0)


def select_topk(importance_row: np.ndarray, keep_count: int) -> np.ndarray:
    """Indices of the keep_count largest scores, ascending; ties keep the lower index."""
    row = np.asarray(importance_row, dtype=np.float64)
    f = row.shape[0]
    if not 1 <= keep_count <= f:
        raise ValueError(f"keep_count {keep_count} out of range [1, {f}]")
    order = np.argsort(-row, kind="stable")  # stable sort = lowest index wins ties
    return np.sort(order[:keep_count])


def _keep_count(threshold: float, f: int) -> int:
    # round half away from zero, then clamp to [1, f]
    return int(min(max(np.floor(threshold * f + 0.5), 1.0), float(f)))


def prune_video(
    video: VideoTokens, config: PrunerConfig
) -> tuple[PrunedVideo, ImportanceMap, RetentionPlan]:
    """Score every token, decide per-frame retention, and materialize the survivors."""
    spatial, temporal = importance_maps(video)
    combined = combined_importance(spatial, temporal, config.spatial_weight)
    thresholds = frame_thresholds(spatial, temporal)

    kept: list[np.ndarray] = []
    counts = np.empty(video.n, dtype=np.int64)
    for t in range(video.n):
        if config.mode == MODE_ADAPTIVE:
            counts[t] = _keep_count(float(thresholds[t]), video.f)
            idx = select_topk(combined[t], int(counts[t]))
        else:
            idx = np.flatnonzero(combined[t] >= config.manual_threshold)
            if idx.size == 0:
                idx = np.array([int(np.argmax(combined[t]))], dtype=np.int64)
            counts[t] = idx.size
        kept.append(idx.astype(np.int64))

    flat = np.concatenate([t * video.f + idx for t, idx in enumerate(kept)])
    origin = np.stack([flat // video.f, flat % video.f], axis=1)
    pruned = PrunedVideo(
        tokens=video.data[flat].copy(),
        origin=origin,
        vr=flat.size / (video.n * video.f),
    )
    imap = ImportanceMap(spatial, temporal, combined, config.spatial_weight)
    plan = RetentionPlan(
        thresholds=thresholds,
        keep_counts=counts,
        kept_indices=tuple(kept),
        mode=config.mode,
        manual_threshold=config.manual_threshold if config.mode == MODE_MANUAL else None,
    )
    return pruned, imap, plan
