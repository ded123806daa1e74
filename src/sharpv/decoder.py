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
from cache contents alone, and entries flagged inactive (see
``KVCacheLayer.active``) are excluded by masking, which gives a direct
equivalence check between evicting entries and masking them.

Weight draw order (all values standard normal scaled by 1/sqrt(model_dim)):
token embedding (vocab, d); per layer wq, wk, wv, wo (d, d), w_mlp_in
(d, mlp_dim), w_mlp_out (mlp_dim, d); output head (d, vocab).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .cache import KVCacheLayer, LayeredKVCache, Segment, SegmentedSequence
from .errors import ConfigError, PositionOverflowError, ShapeMismatchError

_LN_EPS = 1e-5
_MASKED = -np.inf

# List of per-layer (total_len x d) inputs, one per decoder layer.
HiddenTrace = list


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

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_mlp_in: np.ndarray
    w_mlp_out: np.ndarray


@dataclass(frozen=True)
class PrefillResult:
    trace: HiddenTrace  # inputs to each layer, L arrays of (total_len, d)
    cache: LayeredKVCache
    logits: np.ndarray  # (vocab,) for the final position
    final_hidden: np.ndarray  # (total_len, d), output of the last layer pre-norm


def _layer_norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _head_slopes(heads: int) -> np.ndarray:
    return 2.0 ** (-8.0 * np.arange(1, heads + 1) / heads)


class Decoder:
    """Immutable after construction; safe to share across runs."""

    def __init__(self, config: DecoderConfig):
        self.config = config
        d, mlp, vocab = config.model_dim, config.mlp_dim, config.vocab
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(d)
        self.embedding = rng.standard_normal((vocab, d)) * scale
        self.layers: list[LayerWeights] = []
        for _ in range(config.layers):
            self.layers.append(LayerWeights(
                wq=rng.standard_normal((d, d)) * scale,
                wk=rng.standard_normal((d, d)) * scale,
                wv=rng.standard_normal((d, d)) * scale,
                wo=rng.standard_normal((d, d)) * scale,
                w_mlp_in=rng.standard_normal((d, mlp)) * scale,
                w_mlp_out=rng.standard_normal((mlp, d)) * scale,
            ))
        self.w_out = rng.standard_normal((d, vocab)) * scale
        self.slopes = _head_slopes(config.heads)
        self.inv_sqrt_hd = 1.0 / np.sqrt(config.head_dim)

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

    def _qkv(self, lw: LayerWeights, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Queries, keys and values of the layer input x, each (H, T, head_dim)."""
        xn = _layer_norm(x)
        return (self._split_heads(xn @ lw.wq), self._split_heads(xn @ lw.wk),
                self._split_heads(xn @ lw.wv))

    def _attend_mlp(self, lw, x, q, keys, values, bias) -> np.ndarray:
        """Attention of q over (H, S, head_dim) keys/values under an additive
        (H, T, S) bias (-inf where a key may not be read), then the residual
        and the MLP block; returns the layer output (T, d). The one attention
        routine: prefill and decode_step differ only in keys and bias.
        """
        attn = _softmax(q @ keys.transpose(0, 2, 1) * self.inv_sqrt_hd + bias)
        x = x + self._merge_heads(attn @ values) @ lw.wo
        return x + _gelu(_layer_norm(x) @ lw.w_mlp_in) @ lw.w_mlp_out

    def prefill(self, embedded: np.ndarray, spans: SegmentedSequence) -> PrefillResult:
        """Causal forward pass over the whole prompt.

        Captures the input to every layer (the degradation trace) and the
        per-layer keys/values with segment tags and position ids 0..T-1.
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

        positions = np.arange(total, dtype=np.int64)
        dist = positions[:, None] - positions[None, :]  # (T, T), >=0 below diagonal
        bias = -self.slopes[:, None, None] * dist[None, :, :]
        bias = np.where(dist[None, :, :] < 0, _MASKED, bias)  # causal mask

        tags = spans.tags()
        trace: HiddenTrace = []
        cache = LayeredKVCache()
        x = embedded.copy()
        for lw in self.layers:
            trace.append(x.copy())
            q, k, v = self._qkv(lw, x)
            x = self._attend_mlp(lw, x, q, k, v, bias)
            cache.layers.append(KVCacheLayer(
                keys=k.transpose(1, 0, 2).copy(),  # (T, H, head_dim)
                values=v.transpose(1, 0, 2).copy(),
                position_ids=positions.copy(),
                segment_tags=tags.copy(),
            ))
        logits = _layer_norm(x)[-1] @ self.w_out
        return PrefillResult(trace=trace, cache=cache, logits=logits, final_hidden=x)

    def decode_step(
        self, cache: LayeredKVCache, embedding: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one token: append a generated entry to every layer and
        return (next-token logits, the token's final-layer hidden state).

        The cache is mutated in place. The new entry's position id is the
        layer's count of attendable entries, which continues the compacted
        coordinate system whether or not eviction happened.
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
        x = embedding[None, :].copy()  # (1, d)
        for lw, layer in zip(self.layers, cache.layers):
            pos = layer.next_position()
            if pos >= self.config.max_positions:
                raise PositionOverflowError(
                    f"position {pos} exceeds max_positions {self.config.max_positions}"
                )
            q, k, v = self._qkv(lw, x)  # (H, 1, hd) each
            layer.append(k[:, 0], v[:, 0], Segment.GENERATED, position=pos)
            bias = self.slopes[:, None, None] * (layer.position_ids - pos)  # (H, 1, S)
            if layer.active is not None:
                bias = np.where(layer.active, bias, _MASKED)
            keys = layer.keys.transpose(1, 0, 2)  # (H, S, hd)
            values = layer.values.transpose(1, 0, 2)
            x = self._attend_mlp(lw, x, q, keys, values, bias)
        final_hidden = x[0].copy()
        logits = _layer_norm(x)[0] @ self.w_out
        return logits, final_hidden


def init_decoder(config: DecoderConfig) -> Decoder:
    """Build a decoder whose weights are a pure function of config.seed."""
    return Decoder(config)
