"""Straight-line reference implementation of the visual pruning stage.

Deliberately shares no code with the package: plain Python lists and the
math module only, loops instead of array ops, so the two implementations
can only agree by computing the same thing. Used as the oracle in
equivalence tests.
"""

import math

EPS = 1e-12


def unit(v):
    norm = math.sqrt(sum(x * x for x in v))
    if norm < EPS:
        return [0.0] * len(v)
    return [x / norm for x in v]


def dissim(a, b):
    ua, ub = unit(a), unit(b)
    dist = math.sqrt(sum((x - y) ** 2 for x, y in zip(ua, ub)))
    return min(2.0, max(0.0, dist))


def frame_mean(frame):
    f = len(frame)
    d = len(frame[0])
    return [sum(frame[i][j] for i in range(f)) / f for j in range(d)]


def spatial_row(frame):
    mean = frame_mean(frame)
    return [dissim(tok, mean) for tok in frame]


def spatial(frames):
    return [spatial_row(frame) for frame in frames]


def temporal(frames):
    rows = [spatial_row(frames[0])]
    for t in range(1, len(frames)):
        rows.append([dissim(frames[t][i], frames[t - 1][i]) for i in range(len(frames[t]))])
    return rows


def combined(spatial_rows, temporal_rows, w):
    return [
        [tv + w * sv for sv, tv in zip(srow, trow)]
        for srow, trow in zip(spatial_rows, temporal_rows)
    ]


def thresholds(spatial_rows, temporal_rows):
    f = len(spatial_rows[0])
    out = []
    for t, trow in enumerate(temporal_rows):
        row = spatial_rows[0] if t == 0 else trow
        norm = math.sqrt(sum(x * x for x in row))
        out.append(min(1.0, max(0.0, norm / (2.0 * math.sqrt(f)))))
    return out


def keep_count(threshold, f):
    # a count within 1e-9 of a half rounds up, as in prune_video
    return int(min(max(math.floor(threshold * f + 0.5 + 1e-9), 1), f))


def topk(scores, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


def first_argmax(scores):
    best = max(scores)
    return next(i for i, s in enumerate(scores) if s == best)


def prune(frames, w, mode, manual_threshold=None):
    """Returns (thresholds, keep_counts, kept index lists)."""
    srows = spatial(frames)
    trows = temporal(frames)
    crows = combined(srows, trows, w)
    thr = thresholds(srows, trows)
    f = len(frames[0])
    counts, kept = [], []
    for t in range(len(frames)):
        if mode == "adaptive":
            k = keep_count(thr[t], f)
            idx = topk(crows[t], k)
        else:
            idx = [i for i, s in enumerate(crows[t]) if s >= manual_threshold]
            if not idx:
                idx = [first_argmax(crows[t])]
        counts.append(len(idx))
        kept.append(idx)
    return thr, counts, kept


def flat_rows(kept, f):
    """Per-frame kept index lists as ascending row indices of the whole video."""
    return [t * f + i for t, idx in enumerate(kept) for i in idx]
