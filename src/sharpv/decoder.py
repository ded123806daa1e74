"""A small deterministic transformer decoder with an inspectable KV cache.

Pre-norm residual blocks (multi-head causal self-attention, then a GELU
MLP), a final layer norm, and a linear head over a toy vocabulary. All
weights are drawn from one seeded generator in a fixed order, so two
decoders built from the same config are bit-identical; there is no
training and no sampling.

Positions enter attention as an additive bias proportional to the
distance between position ids (per-head slopes 2^(-8h/H)), never as
embeddings added to the residual stream. That choice is what makes cache
eviction cheap: removing rows and compacting position ids to 0..len-1 is
a complete re-encoding, with no key re-projection. Attention is computed
from cache contents alone: every cached entry is attendable, and an
evicted entry is simply gone.

Prefill never builds a (T, T) score array, and nothing per layer is
larger than its (T, d) input, keys and values. Each layer first builds
its cache layer, keys and values for every row
(``KVCacheLayer.projected``; the buffer layout is described in
cache.py). Then query block [i0, i1) of ``_QUERY_BLOCK`` rows attends
to its causal key prefix [0, i1), a slice of the layer's ``keys`` and
``values`` views, and runs the rest of the layer (output projection,
residual, MLP) on its own rows while they are still in cache, writing
them back into the layer input. The last layer is different: only its
final row's output is ever read (for the logits), so once its keys and
values are cached it projects a query, attends and runs the MLP for that
one row alone. The masked triangle beyond i1 is never computed. That
prefix holds every key the block's rows may read, so each row's softmax
is exact as it stands: an online (running max/sum) softmax or key
tiling would add nothing, as scores are already O(H * _QUERY_BLOCK * T).
As in fused attention kernels, queries come pre-scaled and the softmax's
row sums divide the (H, rows, head_dim) output, not the (H, rows, T)
weights.

Prefill also skips the softmax's row max, the shift that keeps ``exp``
from overflowing, in every layer whose weights already rule overflow
out. Every query and key there is a projection of a layer-normed row,
whose norm is below sqrt(d), and the bias is at most 0, so no score of
layer l exceeds ``score_bounds[l]`` = d/sqrt(head_dim) * max over heads
of sqrt(||W_q,h^T W_q,h||_inf * ||W_k,h^T W_k,h||_inf), computed once
per decoder (a Gram matrix's largest absolute row sum bounds its largest
eigenvalue, the squared largest singular value). Where that is below
``_SHIFT_FREE_BOUND``, ``exp`` of an unshifted score cannot overflow,
and the diagonal key (bias 0, score at least -bound) keeps a normal
weight, so the row sum never vanishes. Softmax is invariant to a
per-row shift, so the two forms differ by rounding only. The default
decoder's bounds are 55-60 against a constant of 512; a layer over it
keeps the shift, and so does every decode step, which attends over a
cache the caller supplies.

The distance bias is one (H, 2T-1) ramp per pass, and each
block's bias is a read-only Toeplitz view of it (``_causal_bias``),
O(H * T) memory in all. In prefill and decode alike, finite bias entries stop at
``_BIAS_FLOOR``, which binds only beyond distance 700/slope (2800 for
head 0 at the default 4 heads).

A decode step is one row per layer, so its cost is per-call overhead
rather than arithmetic, and it is kept to few calls. Each layer's query,
key and value projections are one (d, 3d) block, ``w_qkv``, which a
decode step multiplies once; ``wq``, ``wk`` and ``wv`` are column views
of it, which prefill multiplies separately, so that its cached keys and
values pin no (T, 3d) product. The step builds one floored ramp of
non-negative distances, (H, max len + 1), and each layer's (H, 1, len)
bias is a basic slice of its tail: a layer's position ids are
0..len-1, which ``decode_step`` checks before it appends anything.
Attention reads a layer's ``keys`` and ``values`` views, as in prefill,
and a one-row ``_layer_norm`` works on numpy scalars instead of keepdims
arrays.

Weight draw order (all values standard normal scaled by 1/sqrt(model_dim)):
token embedding (vocab, d); per layer wq, wk, wv (d, d), stored side by
side as the columns of w_qkv, then wo (d, d), w_mlp_in (d, mlp_dim),
w_mlp_out (mlp_dim, d); output head (d, vocab).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cache import KVCacheLayer, Segment, SegmentedSequence
from .errors import ConfigError, PositionOverflowError, ShapeMismatchError
from .tensorio import MAX_ELEMENTS

_LN_EPS = 1e-5
_MASKED = -np.inf
# Floor of the finite distance bias. Below about -708, np.exp leaves
# numpy's vector loop for a scalar path 18-120x slower per element; at 4
# heads, head 0 (slope 0.25) passes the floor beyond distance ~2830. At the
# floor, exp's argument is score - 700 in a shift-free prefill layer and
# score - row max - 700 where the softmax shifts, so it stays above -708
# unless the score is 8 below 0 or below the row max. A key at the floor
# already weighs under e^-700 of the diagonal (bias 0), so its weight is
# lost in rounding either way.
_BIAS_FLOOR = -700.0
# A prefill layer whose score bound (Decoder.score_bounds) is below this
# skips the softmax's row-max shift. A weight is then at most e^512, about
# 2e222, which leaves a factor of 1e85 for the key count times the largest
# value before float64 overflows; e^-512, the least weight the diagonal
# key can get, stays a normal float.
_SHIFT_FREE_BOUND = 512.0
# Query rows per prefill attention block. One block's scores are at most
# (H, 32, T); at T=1-2k, 16 and 64 rows were slower (more calls per row,
# scores falling out of cache).
_QUERY_BLOCK = 32

# Per-layer prefill hook: called with a layer's (total_len, d) input states
# and its freshly built KVCacheLayer, before the layer's attention runs;
# returns the layer to store. Prefill overwrites the states in place once
# the hook returns, so they are valid only during the call: a hook that
# keeps them must copy them.
LayerHook = Callable[[np.ndarray, KVCacheLayer], KVCacheLayer]


@dataclass(frozen=True)
class DecoderConfig:
    layers: int = 8
    model_dim: int = 64
    heads: int = 4
    mlp_dim: int = 256
    vocab: int = 256
    seed: int = 0
    max_positions: int = 8192

    def __post_init__(self):
        counts = (self.layers, self.model_dim, self.heads, self.mlp_dim,
                  self.vocab, self.max_positions)
        if min(counts) < 1:
            raise ConfigError(f"all decoder counts must be >= 1, got {self}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # the weights (embedding and head; per layer four (d, d) and two
        # (d, mlp_dim) blocks) and a cache of max_positions keys and values
        # in every layer, so a decoder that could not be built or filled
        # is rejected before anything is allocated. A pipeline run stays
        # within it: every layer reserves its decode rows and ends at its
        # entry count. Direct appends can still double a layer past it.
        d = self.model_dim
        per_layer = 4 * d * d + 2 * d * self.mlp_dim + 2 * self.max_positions * d
        elements = 2 * self.vocab * d + self.layers * per_layer
        if elements > MAX_ELEMENTS:
            raise ConfigError(
                f"decoder weights and a full cache hold {elements} values, "
                f"over the element budget of {MAX_ELEMENTS}"
            )

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


@dataclass(frozen=True, eq=False)
class LayerWeights:
    w_qkv: np.ndarray  # (d, 3d): wq | wk | wv
    wo: np.ndarray
    w_mlp_in: np.ndarray
    w_mlp_out: np.ndarray

    def _columns(self, i: int) -> np.ndarray:
        d = self.wo.shape[0]
        return self.w_qkv[:, i * d:(i + 1) * d]

    # (d, d) column views of w_qkv, not copies
    wq = property(lambda self: self._columns(0))
    wk = property(lambda self: self._columns(1))
    wv = property(lambda self: self._columns(2))


@dataclass(frozen=True, eq=False)
class PrefillResult:
    """A prefilled prompt. The cache is a plain list with one
    ``KVCacheLayer`` per decoder layer, in order, ready for ``decode_step``."""

    cache: list[KVCacheLayer]
    logits: np.ndarray  # (vocab,) for the final position
    # (d,) last-layer output of the final position, before the final norm:
    # the same contract as the hidden state decode_step returns
    final_hidden: np.ndarray


def _layer_norm(x: np.ndarray) -> np.ndarray:
    # The arithmetic of x.mean and x.var (sum, divide, centre, square, sum,
    # divide) with x centred once and no Python-level wrappers: the sums are
    # the np.add.reduce that ndarray.sum calls. Bit-identical to
    # (x - mean) / sqrt(var + eps).
    n = x.shape[-1]
    if x.shape[0] == 1:
        # One row, as in every decode-step call: the same sums, reduced to
        # numpy scalars, cost about half as much as keepdims arrays.
        xc = x - np.add.reduce(x, axis=None) / n
        xc /= math.sqrt(np.add.reduce(np.square(xc), axis=None) / n + _LN_EPS)
        return xc
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(xc), axis=-1, keepdims=True) / n
    xc /= np.sqrt(var + _LN_EPS)
    return xc


def _gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximate GELU, 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    Built in one buffer, with x^3 as x*x*x: ``x**3`` goes through libm pow,
    about 45x slower. The cube differs from pow by at most 1 ulp of
    max(1, |x|); halving is exact, so the reordering adds no error.
    """
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= 0.7978845608028654
    np.tanh(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def _head_slopes(heads: int) -> np.ndarray:
    return 2.0 ** (-8.0 * np.arange(1, heads + 1) / heads)


def _bias_ramp(slopes: np.ndarray, hi: int, lo: int) -> np.ndarray:
    """(H, hi-lo+1) distance bias, column c for distance hi-c: -slope*r
    floored at ``_BIAS_FLOOR``, or -inf for r < 0."""
    dist = np.arange(hi, lo - 1, -1, dtype=np.int64)
    ramp = np.maximum(-slopes[:, None] * dist, _BIAS_FLOOR)
    if lo < 0:
        ramp[:, dist < 0] = _MASKED
    return ramp


def _causal_bias(ramp: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Read-only (H, i1-i0, i1) bias of query rows [i0, i1) over keys [0, i1).

    Column T-1-r of the (H, 2T-1) ``ramp`` holds the bias of distance r
    (query minus key position): -slope*r, or -inf for r < 0. Entry
    (h, i, j) reads column T-1-(i0+i)+j, so rows step back one column and
    keys forward one; the columns read, [T-i1, T-2+i1-i0], lie in the ramp.
    """
    step = ramp.strides[1]
    last = (ramp.shape[1] - 1) // 2  # T - 1, the column of distance 0
    return np.lib.stride_tricks.as_strided(
        ramp[:, last - i0:],
        shape=(ramp.shape[0], i1 - i0, i1),
        strides=(ramp.strides[0], -step, step),
        writeable=False,
    )


def _score_bound(lw: LayerWeights, heads: int) -> float:
    """An upper bound on every prefill score of a layer, bias excluded.

    A layer-normed row has norm below sqrt(d), so a head's query and key
    have norms below sqrt(d) times the largest singular values of W_q,h
    and W_k,h, and their scaled product is below d/sqrt(head_dim) times
    both. The largest absolute row sum of a Gram matrix W^T W bounds its
    largest eigenvalue, the squared singular value, without a LAPACK call.
    The Gram matrices come from einsum's own loop: a BLAS call here, before
    prefill's first, raised a process's peak RSS by about 0.3 MiB.
    """
    d = lw.wo.shape[0]
    hd = d // heads

    def gram_row_sums(w):  # (H,) largest absolute row sum of each head's W_h^T W_h
        wh = w.reshape(d, heads, hd)
        return np.abs(np.einsum("dhi,dhj->hij", wh, wh)).sum(axis=2).max(axis=1)

    worst = np.max(gram_row_sums(lw.wq) * gram_row_sums(lw.wk))
    return d / math.sqrt(hd) * math.sqrt(float(worst))


class Decoder:
    """Immutable after construction; safe to share across runs."""

    def __init__(self, config: DecoderConfig):
        self.config = config
        d, mlp, vocab = config.model_dim, config.mlp_dim, config.vocab
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(d)

        def draw(*shape):  # scaled in place, with no temporary
            w = rng.standard_normal(shape)
            w *= scale
            return w

        self.embedding = draw(vocab, d)
        self.layers: list[LayerWeights] = []
        for _ in range(config.layers):
            w_qkv = np.empty((d, 3 * d))
            for i in range(3):  # wq, wk, wv, in draw order
                w_qkv[:, i * d:(i + 1) * d] = draw(d, d)
            self.layers.append(LayerWeights(
                w_qkv=w_qkv, wo=draw(d, d), w_mlp_in=draw(d, mlp), w_mlp_out=draw(mlp, d),
            ))
        self.w_out = draw(d, vocab)
        self.slopes = _head_slopes(config.heads)
        self.inv_sqrt_hd = 1.0 / np.sqrt(config.head_dim)
        # per layer, no prefill score (q @ keys) exceeds this
        self.score_bounds = tuple(_score_bound(lw, config.heads) for lw in self.layers)

    def weight_checksum(self) -> str:
        """SHA-256 over all weight bytes in draw order."""
        h = hashlib.sha256()
        h.update(self.embedding.tobytes())
        for lw in self.layers:
            for arr in (lw.wq, lw.wk, lw.wv, lw.wo, lw.w_mlp_in, lw.w_mlp_out):
                h.update(arr.tobytes())
        h.update(self.w_out.tobytes())
        return h.hexdigest()

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        # (T, d) -> (H, T, head_dim)
        t = x.shape[0]
        cfg = self.config
        return x.reshape(t, cfg.heads, cfg.head_dim).transpose(1, 0, 2)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        # (H, T, head_dim) -> (T, d)
        h, t, hd = x.shape
        return x.transpose(1, 0, 2).reshape(t, h * hd)

    def _attend(self, q, keys, values, bias, shift=True) -> np.ndarray:
        """Attention of (H, T, head_dim) pre-scaled queries over (H,
        head_dim, S) keys and (H, S, head_dim) values under an additive
        (H, T, S) bias (-inf where a key may not be read); returns (H, T,
        head_dim). The one attention routine: prefill calls it per query
        block, decode_step once per layer. Keys come transposed, as the
        right operand of ``q @ keys``, so both can pass a prefix slice of
        a layer's ``keys`` view, transposed, whose rows are contiguous.

        The softmax is left unnormalised until after the values are mixed
        in: the row sums divide the (H, T, head_dim) output instead of the
        (H, T, S) weights, as fused attention kernels do. With ``shift``,
        each row's max is subtracted before ``exp``, so no input overflows
        it. ``shift=False`` skips that pass: softmax is invariant to a
        per-row shift, so the result differs by rounding only, provided
        the caller knows every score is small enough that ``exp`` neither
        overflows nor leaves every weight of a row subnormal (prefill
        knows it from ``score_bounds``).
        """
        scores = q @ keys
        scores += bias  # only read: the prefill bias is a read-only view
        if shift:
            # the ufunc reductions ndarray.max and .sum call, without their wrappers
            scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        denom = np.add.reduce(scores, axis=-1, keepdims=True)
        out = scores @ values
        out /= denom
        return out

    def _residual_mlp(self, lw, x, attended) -> None:
        """Output projection of the (H, T, head_dim) attention result, the
        residual, and the MLP block, added in place to the layer's (T, d)
        input rows x, which become its output."""
        x += self._merge_heads(attended) @ lw.wo
        x += _gelu(_layer_norm(x) @ lw.w_mlp_in) @ lw.w_mlp_out

    def prefill(
        self, embedded: np.ndarray, spans: SegmentedSequence,
        layer_hook: LayerHook | None = None, spare_rows: int = 0,
    ) -> PrefillResult:
        """Causal forward pass over the whole prompt.

        Builds each layer's keys and values, with the prompt's segment
        tags and position ids 0..T-1, as ``KVCacheLayer.projected`` with
        ``spare_rows`` spare rows (capped at T; see cache.py), so a caller
        that will append ``spare_rows`` decode entries can do so without
        copying the layer. With a ``layer_hook``, every
        layer is passed through it together with that layer's input
        states as soon as its keys and values exist, before its attention
        runs, and the cache stores what the hook returns; the pipeline evicts there (stage 2),
        so no layer's input is kept and a discarded layer's visual rows
        never reach the cache. Without one, every layer is stored whole.
        The layer's attention reads its own keys and values, never the
        stored layer, so the hook changes what is cached but not the
        forward pass.
        Each block of ``_QUERY_BLOCK`` query rows then attends over its
        causal key prefix, with its bias a view of one distance ramp built
        per pass, and finishes the layer for its rows in place; see the
        module docstring. In the last layer, which the hook and the cache
        still see whole, only the final row projects a query, attends and
        runs the MLP: it is the only row whose output is read, and
        ``final_hidden`` is its (d,) state.
        """
        embedded = np.asarray(embedded, dtype=np.float64)
        if embedded.ndim != 2 or embedded.shape[1] != self.config.model_dim:
            raise ShapeMismatchError(
                f"embedded sequence must be (T, {self.config.model_dim}), got {embedded.shape}"
            )
        total = embedded.shape[0]
        if total != spans.total_len:
            raise ShapeMismatchError(
                f"sequence has {total} rows but spans cover {spans.total_len}"
            )
        if total > self.config.max_positions:
            raise PositionOverflowError(
                f"sequence length {total} exceeds max_positions {self.config.max_positions}"
            )
        if spare_rows < 0:
            raise ValueError(f"spare_rows must be >= 0, got {spare_rows}")

        tags = spans.tags()
        ramp = _bias_ramp(self.slopes, total - 1, 1 - total)  # (H, 2T-1)
        # (i0, i1, bias) per query block: the plan of every layer but the
        # last, which runs for the final row alone
        blocks = [(i0, min(i0 + _QUERY_BLOCK, total)) for i0 in range(0, total, _QUERY_BLOCK)]
        plan = [(i0, i1, _causal_bias(ramp, i0, i1)) for i0, i1 in blocks]
        last = [(total - 1, total, _causal_bias(ramp, total - 1, total))]

        cache = []
        x = embedded.copy()
        for l, lw in enumerate(self.layers):
            rows = plan if l < len(self.layers) - 1 else last
            shift = self.score_bounds[l] >= _SHIFT_FREE_BOUND
            q0 = rows[0][0]  # the first row that attends
            xn = _layer_norm(x)
            # Queries come pre-scaled by 1/sqrt(head_dim), once on the
            # projection rather than on every block of scores; at head_dim
            # 16 the scale is 0.25, a power of two, so the scores keep
            # their bits.
            q = self._split_heads(xn[q0:] @ lw.wq)
            q *= self.inv_sqrt_hd
            layer = KVCacheLayer.projected(xn, lw.wk, lw.wv, self.config.heads, tags, spare_rows)
            del xn
            # taken before the hook, which may replace the layer
            keys = layer.keys.transpose(1, 2, 0)  # (H, head_dim, T)
            values = layer.values.transpose(1, 0, 2)  # (H, T, head_dim)
            if layer_hook is not None:
                layer = layer_hook(x, layer)
            cache.append(layer)
            # A row's residual and MLP read only that row, and every key
            # and value exists already, so each block finishes its layer
            # in its own rows of x.
            for i0, i1, bias in rows:
                attended = self._attend(q[:, i0 - q0:i1 - q0], keys[:, :, :i1],
                                        values[:, :i1], bias, shift)
                self._residual_mlp(lw, x[i0:i1], attended)
            # not alive while the next layer projects its own
            del q, keys, values
        logits = _layer_norm(x[-1:])[0] @ self.w_out
        return PrefillResult(cache=cache, logits=logits, final_hidden=x[-1].copy())

    def decode_step(
        self, cache: list[KVCacheLayer], embedding: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one token: append a generated entry to every layer of
        the cache (one ``KVCacheLayer`` per decoder layer, mutated in place)
        and return (next-token logits, the token's final-layer hidden state).

        A new entry's position id is its layer's entry count: a layer's ids
        are 0..len-1 (prefill numbers them so, and eviction re-encodes them
        so), and the count continues that coordinate system whether or not
        the layer was evicted. The bias is read off the layer's length, so
        a layer whose last id is not len-1 (evicted, not re-encoded) raises
        ValueError before any layer is appended to.
        """
        embedding = np.asarray(embedding, dtype=np.float64)
        if embedding.shape != (self.config.model_dim,):
            raise ShapeMismatchError(
                f"embedding must have shape ({self.config.model_dim},), got {embedding.shape}"
            )
        if len(cache) != self.config.layers:
            raise ShapeMismatchError(
                f"cache has {len(cache)} layers, decoder has {self.config.layers}"
            )
        lens = [len(layer) for layer in cache]
        for l, (n, layer) in enumerate(zip(lens, cache)):
            if n and layer.position_ids[-1] != n - 1:
                raise ValueError(
                    f"layer {l} has {n} entries but last position id "
                    f"{layer.position_ids[-1]}; re-encode it to 0..{n - 1} first"
                )
        top = max(lens)  # the largest new position
        if top >= self.config.max_positions:
            raise PositionOverflowError(
                f"position {top} exceeds max_positions {self.config.max_positions}"
            )
        # Column c holds the bias of distance top-c; a layer of n entries
        # reads its last n+1 columns, distances n down to 0.
        ramp = _bias_ramp(self.slopes, top, 0)[:, None]  # (H, 1, top+1)
        heads, hd = self.config.heads, self.config.head_dim
        x = embedding[None, :].copy()  # (1, d)
        for lw, layer, n in zip(self.layers, cache, lens):
            # query, key and value, each (H, 1, head_dim)
            qkv = (_layer_norm(x) @ lw.w_qkv).reshape(3, heads, 1, hd)
            q = qkv[0]
            q *= self.inv_sqrt_hd
            layer.append(qkv[1, :, 0], qkv[2, :, 0], Segment.GENERATED, position=n)
            keys = layer.keys.transpose(1, 2, 0)  # (H, hd, n+1)
            values = layer.values.transpose(1, 0, 2)  # (H, n+1, hd)
            attended = self._attend(q, keys, values, ramp[..., top - n:])
            self._residual_mlp(lw, x, attended)
        final_hidden = x[0].copy()
        logits = _layer_norm(x)[0] @ self.w_out
        return logits, final_hidden


def init_decoder(config: DecoderConfig) -> Decoder:
    """Build a decoder whose weights are a pure function of config.seed."""
    return Decoder(config)
