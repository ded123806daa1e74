"""Straight-line dense reference of the decoder's causal prefill.

Shares no code with the package: it reads only a decoder's weight arrays
and config numbers, and computes each layer the textbook way, with the
full (H, T, T) score array, an explicit distance bias and a causal mask
over every query-key pair. ``Decoder.prefill`` computes the same thing
per query block without the masked triangle, so the two can only agree
by computing the same attention. Used as the oracle in equivalence tests.

``dense_masked_decode`` is the oracle of stage-2 eviction: instead of
removing a discarded layer's visual rows, it masks them out of a dense
pass over the prompt and the generated tokens.

The elementwise kernels are the textbook forms too (``x.mean``/``x.var``,
``x**3``, a softmax that allocates), so they also serve as the oracle of
the decoder's in-place, ``pow``-free kernels.
"""

import numpy as np

LN_EPS = 1e-5


def layer_norm(x):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS)


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def softmax(scores):
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def dense_layer(decoder, lw, x, dist=None, readable=None):
    """One decoder layer on its (T, d) input x; returns (keys, values,
    output) with keys and values (T, H, head_dim) and output (T, d).

    ``dist[i, j]`` is the position distance from query row i to key row j
    (default i - j) and ``readable[i, j]`` whether row i may read key j
    (default causal, j <= i).
    """
    heads = decoder.config.heads
    t, d = x.shape
    hd = d // heads
    slopes = np.array([2.0 ** (-8.0 * h / heads) for h in range(1, heads + 1)])
    if dist is None:
        dist = np.arange(t)[:, None] - np.arange(t)[None, :]
    if readable is None:
        readable = dist >= 0
    bias = -slopes[:, None, None] * dist
    bias[:, ~readable] = -np.inf

    xn = layer_norm(x)
    q = (xn @ lw.wq).reshape(t, heads, hd)
    k = (xn @ lw.wk).reshape(t, heads, hd)
    v = (xn @ lw.wv).reshape(t, heads, hd)
    scores = np.einsum("ihc,jhc->hij", q, k) / np.sqrt(hd) + bias  # (H, T, T)
    attended = np.einsum("hij,jhc->ihc", softmax(scores), v).reshape(t, d)
    x = x + attended @ lw.wo
    return k, v, x + gelu(layer_norm(x) @ lw.w_mlp_in) @ lw.w_mlp_out


def dense_prefill(decoder, embedded):
    """Returns dict(trace, final_hidden, logits) for the (T, d) prompt."""
    trace = []
    x = np.array(embedded, dtype=np.float64)
    for lw in decoder.layers:
        trace.append(x)
        _, _, x = dense_layer(decoder, lw, x)
    logits = layer_norm(x)[-1] @ decoder.w_out
    return dict(trace=trace, final_hidden=x, logits=logits)


def dense_masked_decode(decoder, embedded, visual_span, discard, tokens):
    """Teacher-forced logits of greedy decode after stage-2 eviction.

    One dense pass runs over the (T, d) prompt followed by the embeddings
    of ``tokens``, the ids fed to the decode steps in order; row k of the
    returned (len(tokens), vocab) array is the logits of step k. In every
    layer l with ``discard[l]``, the generated rows cannot read the prompt
    rows in ``visual_span`` (start, stop), and measure distance in
    positions counted over the rows they can read. Prompt rows keep full
    causal attention in every layer, as they had it when the layer was
    built.
    """
    t = embedded.shape[0]
    x = np.vstack([embedded, decoder.embedding[list(tokens)]])
    total = x.shape[0]
    rows = np.arange(total)
    dist = rows[:, None] - rows[None, :]
    visual = np.zeros(total, dtype=bool)
    visual[visual_span[0]:visual_span[1]] = True
    kept = np.cumsum(~visual) - 1  # position of a non-visual row once visual rows are gone
    evicted_dist = dist.copy()
    evicted_dist[t:] = kept[t:, None] - kept[None, :]
    evicted_readable = dist >= 0
    evicted_readable[t:, visual] = False
    for lw, gone in zip(decoder.layers, discard):
        if gone:
            _, _, x = dense_layer(decoder, lw, x, evicted_dist, evicted_readable)
        else:
            _, _, x = dense_layer(decoder, lw, x)
    return layer_norm(x[t:]) @ decoder.w_out
