"""Straight-line dense reference of the decoder's causal prefill.

Shares no code with the package: it reads only a decoder's weight arrays
and config numbers, and computes each layer the textbook way, with the
full (H, T, T) score array, an explicit distance bias and a causal mask
over every query-key pair. ``Decoder.prefill`` computes the same thing
per query block without the masked triangle, so the two can only agree
by computing the same attention. Used as the oracle in equivalence tests.

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


def dense_layer(decoder, lw, x):
    """One decoder layer on its (T, d) input x; returns (keys, values,
    output) with keys and values (T, H, head_dim) and output (T, d)."""
    heads = decoder.config.heads
    t, d = x.shape
    hd = d // heads
    slopes = np.array([2.0 ** (-8.0 * h / heads) for h in range(1, heads + 1)])
    dist = np.arange(t)[:, None] - np.arange(t)[None, :]
    bias = -slopes[:, None, None] * dist
    bias[:, dist < 0] = -np.inf

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
