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

``prune_video`` decides all frames at once, with no per-frame loop, and
returns one ``PrunedVideo``: the kept tokens, their flat row indices into
the video, the retained fraction, and each frame's threshold and count.

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
from .vecmath import check_value_range, row_chunks, unit_rows

MODE_ADAPTIVE = "adaptive"
MODE_MANUAL = "manual"

# An adaptive count within this of a half rounds up. A threshold that is
# exactly 0.5 in real numbers (a zero frame after any frame scores 1 per
# token) computes as 0.5 +- 1 ulp by summation order, and rounding noise
# must not choose between (f-1)/2 and (f+1)/2 tokens.
_HALF_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class VideoTokens:
    """An (n frames x f tokens x d dims) stack of visual token embeddings.

    ``data`` is frame-major: rows [t*f, (t+1)*f) belong to frame t. Every
    value must be finite and within float32's range (ValueError otherwise).
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
        check_value_range(arr, "video tokens")
        object.__setattr__(self, "data", arr)

    def frame(self, t: int) -> np.ndarray:
        """Rows of frame t, shape (f, d)."""
        return self.data[t * self.f : (t + 1) * self.f]

    def frames(self) -> np.ndarray:
        """The same data viewed as (n, f, d)."""
        return self.data.reshape(self.n, self.f, self.d)


@dataclass(frozen=True, eq=False)
class PrunedVideo:
    """The surviving tokens in original frame-major order, and why."""

    tokens: np.ndarray  # (total kept, d)
    kept: np.ndarray  # (total kept,) ascending row indices into video.data
    vr: float  # retained fraction of visual tokens
    thresholds: np.ndarray  # (n,) retention ratios in [0, 1]
    keep_counts: np.ndarray  # (n,) ints in [1, f]


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
    spatial row. One unit-direction buffer serves both maps: the temporal
    differences are taken first, a bounded chunk of rows at a time
    (``row_chunks``), then the buffer is centred in place on the unit
    frame means, so the stage holds one input-sized array and a chunk.
    """
    frames = video.frames()
    units = unit_rows(frames)  # (n, f, d)
    temporal = np.empty((video.n, video.f), dtype=np.float64)
    # row r of the flat views, from frame 1 on, against row r - f
    flat, moved = units.reshape(-1, video.d), temporal.reshape(-1)
    f = video.f
    for rows in row_chunks(len(flat) - f, video.d):
        later = slice(rows.start + f, rows.stop + f)
        np.clip(_norms(flat[later] - flat[rows]), 0.0, 2.0, out=moved[later])
    units -= unit_rows(frames.mean(axis=1))[:, None, :]
    spatial = np.clip(_norms(units), 0.0, 2.0)
    temporal[0] = spatial[0]
    return spatial, temporal


def _norms(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm(x, axis=-1) with the same multiply and pairwise sum,
    # so bit-identical, but squaring x in place instead of into two
    # full-size temporaries.
    return np.sqrt(np.square(x, out=x).sum(axis=-1))


def frame_thresholds(temporal: np.ndarray) -> np.ndarray:
    """Per-frame retention ratios in [0, 1]: each row of the (n, f)
    temporal map scores ||row||_2 / (2*sqrt(f)). A static frame scores 0,
    a frame whose every token is antipodal to its predecessor scores 1.
    Frame 0's row is its spatial row (``importance_maps``), so it scores
    against the all-mean reference frame.
    """
    temporal = np.asarray(temporal, dtype=np.float64)
    norms = np.linalg.norm(temporal, axis=1)
    return np.clip(norms / (2.0 * np.sqrt(temporal.shape[1])), 0.0, 1.0)


def prune_video(video: VideoTokens, config: PrunerConfig) -> PrunedVideo:
    """Score every token, decide every frame's retention, and keep the survivors.

    Adaptive: frame t keeps its round(threshold_t * f) highest combined
    scores, a half rounded up and clamped to [1, f]; a stable sort ranks
    tied tokens by index, so the lower index wins a tie at the cut when
    the scores are equal as floats. Scores equal in real arithmetic (say,
    identical tokens) can differ by an ulp, and then rank by rounding.
    Manual: a token is kept iff its combined score is >= K, and a frame
    with none keeps its first argmax.
    """
    spatial, temporal = importance_maps(video)
    combined = temporal + config.spatial_weight * spatial
    thresholds = frame_thresholds(temporal)
    f = video.f
    keep = np.empty((video.n, f), dtype=bool)
    if config.mode == MODE_ADAPTIVE:
        counts = np.clip(np.floor(thresholds * f + (0.5 + _HALF_SLACK)), 1, f).astype(np.int64)
        order = np.argsort(-combined, axis=1, kind="stable")
        # keep[t, order[t, r]] = r < counts[t]: kept iff ranked below the count
        np.put_along_axis(keep, order, np.arange(f) < counts[:, None], axis=1)
    else:
        np.greater_equal(combined, config.manual_threshold, out=keep)
        empty = np.flatnonzero(~keep.any(axis=1))
        keep[empty, np.argmax(combined[empty], axis=1)] = True
        counts = keep.sum(axis=1)
    kept = np.flatnonzero(keep)
    return PrunedVideo(
        tokens=video.data[kept],
        kept=kept,
        vr=kept.size / (video.n * f),
        thresholds=thresholds,
        keep_counts=counts,
    )
