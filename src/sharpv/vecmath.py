"""The vector maths of both stages, and their one zero rule.

Stage 1's scores (``pruner.importance_maps``) are unit-chord
dissimilarities: the Euclidean distance between L2-normalized vectors,
sqrt(2 - 2*cos(angle)), in [0, 2]. Unlike (1 - cosine) it keeps
resolution between nearly-aligned vectors in high dimensions. The pruner
computes it as normalize-subtract-norm over ``unit_rows``, so rounding
can never produce a negative argument. Stage 2's score
(``memory.degradation_profile``) is a mean of ``row_cosines``.

A row whose own norm is below ``NORM_EPS`` is the zero vector. It
normalizes to (signed) zeros, so its dissimilarity is 1 to any unit
direction and 0 to another zero vector, and any cosine with it is 0. So a
row cosine is the dot product of the two ``unit_rows`` up to rounding,
and identical rows score exactly 1.

A huge row is never mistaken for the zero vector: ``VideoTokens`` and
``PromptEmbeddings`` hold values within float32's range
(``check_value_range``), so no sum of squares of a run's rows can
overflow here.

``row_chunks`` is the one chunk rule of the passes over a whole video
(generation, the tensor file's write and read, stage 1's temporal
differences): each holds the video plus a chunk of about
``CHUNK_VALUES`` values.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Norms below this are treated as zero.
NORM_EPS = 1e-12
# The largest magnitude a run's input arrays may hold: float32's, the
# tensor file's. A row's sum of squares then stays below d * 1.2e77, so
# the product of two of them in ``row_cosines`` cannot overflow float64.
FLOAT32_MAX = float(np.finfo(np.float32).max)
# Values per chunk of those passes: 512 KiB as float64, so such a pass
# holds the video plus one chunk rather than a second video.
CHUNK_VALUES = 1 << 16


def row_chunks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering rows [0, rows), each of about
    ``CHUNK_VALUES`` values at ``width`` values per row, and never less
    than one row."""
    step = max(1, CHUNK_VALUES // width)
    for r0 in range(0, rows, step):
        yield slice(r0, min(r0 + step, rows))


def in_float32_range(arr: np.ndarray) -> bool:
    """Whether every value of ``arr`` is a number of magnitude at most
    ``FLOAT32_MAX``; NaN fails both bounds. Its min and max take no
    full-size temporary."""
    return arr.size == 0 or bool(-FLOAT32_MAX <= arr.min() <= arr.max() <= FLOAT32_MAX)


def check_value_range(arr: np.ndarray, what: str) -> None:
    """ValueError unless ``in_float32_range(arr)``."""
    if not in_float32_range(arr):
        raise ValueError(
            f"{what} must be finite, with magnitudes at most float32's {FLOAT32_MAX:.4g}"
        )


def _zero_rule(sq: np.ndarray) -> np.ndarray:
    # Row sums of squares, in place: a zero row's becomes inf, so dividing
    # by its root, or by the root of its product with another sum, gives 0.
    np.copyto(sq, np.inf, where=np.sqrt(sq) < NORM_EPS)
    return sq


def unit_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization into a new array; zero rows stay zero.

    Accepts any array whose last axis is the feature dimension.
    """
    # the multiply and pairwise sum of np.linalg.norm, bit for bit, with
    # one full-size temporary rather than two
    sq = np.square(m).sum(axis=-1, keepdims=True)
    return m / np.sqrt(_zero_rule(sq), out=sq)


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine, in [-1, 1], of each row of ``a`` with the same row of ``b``;
    a pair with a zero row scores 0."""
    # Per-row dot products as batched (1, d) @ (d, 1) matmuls, cheaper per
    # call than an einsum; the root of the product of the squared norms,
    # unlike the product of the norms, gives identical rows exactly 1.
    a_rows, b_cols = a[:, None, :], b[:, :, None]
    denom = _zero_rule((a_rows @ a[:, :, None]).ravel())
    denom *= _zero_rule((b[:, None, :] @ b_cols).ravel())
    out = (a_rows @ b_cols).ravel()
    out /= np.sqrt(denom, out=denom)
    np.minimum(out, 1.0, out=out)
    return np.maximum(out, -1.0, out=out)
