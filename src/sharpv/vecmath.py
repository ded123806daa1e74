"""Row normalization shared by the scoring stages.

Both pruning scores (``pruner.importance_maps``) are unit-chord
dissimilarities: the Euclidean distance between L2-normalized vectors,
sqrt(2 - 2*cos(angle)). It lives in [0, 2] and, unlike (1 - cosine),
keeps resolution between nearly-aligned vectors in high-dimensional
spaces. The pruner computes it as normalize-subtract-norm over
``unit_rows`` rather than as sqrt(2 - 2*cos), so rounding can never
produce a negative argument; the identity between the two forms is
checked in tests instead.

Vectors with norm below ``NORM_EPS`` normalize to the zero vector, which
keeps scoring total for padded or black frames: a zero vector scores 1
against any unit direction and 0 against another zero vector.

``unit_rows`` takes one norm and one divide. Its norm is the same
multiply and pairwise sum as ``np.linalg.norm(m, axis=-1)``, so results
are bit-identical, but it allocates one full-size temporary rather than
two, and zero rows are cleared in place only when there are any.
"""

from __future__ import annotations

import numpy as np

# Norms below this are treated as zero.
NORM_EPS = 1e-12


def unit_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization into a new array; zero rows stay zero.

    Accepts any array whose last axis is the feature dimension.
    """
    norms = np.sqrt(np.square(m).sum(axis=-1, keepdims=True))
    small = norms < NORM_EPS
    norms[small] = 1.0
    out = m / norms
    if small.any():
        out[small[..., 0]] = 0.0
    return out
