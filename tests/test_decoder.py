import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from prefill_trace import traced_prefill
from reference_decoder import dense_layer, dense_prefill, gelu, layer_norm, softmax
import sharpv.decoder
from sharpv.cache import KVCacheLayer, Segment, SegmentedSequence
from sharpv.decoder import (
    _QUERY_BLOCK, Decoder, DecoderConfig, _causal_bias, _gelu, _layer_norm, init_decoder,
)
from sharpv.errors import ConfigError, PositionOverflowError, ShapeMismatchError
from sharpv.memory import apply_discard, reencode_positions

GOLDEN_DIR = Path(__file__).parent / "golden"

# Pinned at first build; any change to the weight draw order or scaling breaks it.
SMALL_DECODER_CHECKSUM = "639b4d558c387900c058f4694b4432f0272bb59ca430433ea3fdc9e607bd7733"
# The default decoder, the one every workload and golden runs.
DEFAULT_DECODER_CHECKSUM = "3c884aa47e3a05ab8d6d2f14fc3ca8c10048b6bc70f294e6f2d3bf72353e478c"


def small_config(seed=42):
    return DecoderConfig(layers=2, model_dim=8, heads=2, mlp_dim=16, vocab=16, seed=seed)


def traced_prefill_peak(decoder, t):
    """tracemalloc peak bytes of one prefill over t random rows."""
    embedded = np.random.default_rng(0).standard_normal((t, decoder.config.model_dim))
    spans = SegmentedSequence(system_len=0, visual_len=t, instruction_len=0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        decoder.prefill(embedded, spans)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestConfig:
    def test_head_dim(self):
        assert DecoderConfig().head_dim == 16

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            DecoderConfig(model_dim=10, heads=4)

    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigError):
            DecoderConfig(layers=0)

    @pytest.mark.parametrize("overrides", [
        {"model_dim": 20_000}, {"vocab": 100_000_000}, {"layers": 300},
        {"mlp_dim": 1_000_000}, {"max_positions": 1_000_000},
    ], ids=["d", "vocab", "layers", "mlp_dim", "max_positions"])
    def test_rejects_shapes_over_the_element_budget(self, overrides):
        with pytest.raises(ConfigError, match="element budget"):
            DecoderConfig(**overrides)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError):
            DecoderConfig(seed=-1)


class TestDeterminism:
    def test_same_seed_same_checksum(self):
        assert (
            init_decoder(small_config()).weight_checksum()
            == init_decoder(small_config()).weight_checksum()
        )

    def test_different_seed_differs(self):
        assert (
            init_decoder(small_config(seed=1)).weight_checksum()
            != init_decoder(small_config(seed=2)).weight_checksum()
        )

    def test_golden_checksum(self):
        assert init_decoder(small_config()).weight_checksum() == SMALL_DECODER_CHECKSUM

    def test_default_config_checksum(self):
        assert init_decoder(DecoderConfig()).weight_checksum() == DEFAULT_DECODER_CHECKSUM

    def test_qkv_projections_are_views_of_one_block(self):
        decoder = Decoder(small_config())
        d = decoder.config.model_dim
        for lw in decoder.layers:
            assert lw.w_qkv.shape == (d, 3 * d)
            for i, w in enumerate((lw.wq, lw.wk, lw.wv)):
                assert w.base is lw.w_qkv
                assert np.array_equal(w, lw.w_qkv[:, i * d:(i + 1) * d])


class TestPrefill:
    def test_single_position(self):
        decoder = Decoder(small_config())
        spans = SegmentedSequence(system_len=0, visual_len=1, instruction_len=0)
        res = decoder.prefill(np.ones((1, 8)), spans)
        assert all(len(layer) == 1 for layer in res.cache)
        assert res.logits.shape == (16,)

    def test_trace_shapes_and_first_entry(self):
        decoder = Decoder(small_config())
        rng = np.random.default_rng(0)
        embedded = rng.standard_normal((6, 8))
        spans = SegmentedSequence(system_len=1, visual_len=4, instruction_len=1)
        _, trace = traced_prefill(decoder, embedded, spans)
        assert len(trace) == 2
        assert all(t.shape == (6, 8) for t in trace)
        assert np.array_equal(trace[0], embedded)  # layer-0 input is the embedding

    def test_cache_tags_and_positions(self):
        decoder = Decoder(small_config())
        embedded = np.random.default_rng(1).standard_normal((6, 8))
        spans = SegmentedSequence(system_len=2, visual_len=2, instruction_len=2)
        cache = decoder.prefill(embedded, spans).cache
        for layer in cache:
            assert list(layer.position_ids) == [0, 1, 2, 3, 4, 5]
            assert list(layer.segment_tags) == [
                Segment.SYSTEM, Segment.SYSTEM, Segment.VISUAL,
                Segment.VISUAL, Segment.INSTRUCTION, Segment.INSTRUCTION,
            ]

    def test_causality(self):
        # changing a later token must not move any layer's earlier entries,
        # and must move its own entries and the final hidden state
        decoder = Decoder(small_config())
        rng = np.random.default_rng(2)
        embedded = rng.standard_normal((6, 8))
        spans = SegmentedSequence(system_len=1, visual_len=4, instruction_len=1)
        before = decoder.prefill(embedded, spans)
        changed = embedded.copy()
        # one component: a shift of the whole row is removed by layer norm,
        # so it would move no key or value
        changed[5, 0] += 1.0
        after = decoder.prefill(changed, spans)
        for was, now in zip(before.cache, after.cache):
            for field in ("keys", "values"):
                old, new = getattr(was, field), getattr(now, field)
                assert np.allclose(old[:5], new[:5], atol=1e-12)
                assert not np.allclose(old[5], new[5])
        assert not np.allclose(before.final_hidden, after.final_hidden)

    def test_last_layer_runs_for_the_final_row_only(self, monkeypatch):
        decoder = Decoder(DecoderConfig(layers=3, seed=3))
        t = 2 * _QUERY_BLOCK + 5
        embedded = np.random.default_rng(12).standard_normal((t, 64))
        spans = SegmentedSequence(system_len=2, visual_len=t - 4, instruction_len=2)
        rows = [0] * 3
        residual_mlp = decoder._residual_mlp

        def spy(lw, x, attended):
            rows[next(l for l, w in enumerate(decoder.layers) if w is lw)] += x.shape[0]
            return residual_mlp(lw, x, attended)

        monkeypatch.setattr(decoder, "_residual_mlp", spy)
        res = decoder.prefill(embedded, spans)
        assert rows == [t, t, 1]
        assert [len(layer) for layer in res.cache] == [t] * 3

    def test_final_hidden_is_the_final_rows_state(self):
        # the same (d,) contract as the hidden state decode_step returns
        decoder = Decoder(DecoderConfig(layers=3, seed=4))
        t = _QUERY_BLOCK + 3
        embedded = np.random.default_rng(13).standard_normal((t, 64))
        full = decoder.prefill(embedded, SegmentedSequence(0, t, 0))
        cache = decoder.prefill(embedded[:-1], SegmentedSequence(0, t - 1, 0)).cache
        logits, hidden = decoder.decode_step(cache, embedded[-1])
        assert full.final_hidden.shape == hidden.shape == (64,)
        assert np.abs(full.final_hidden - hidden).max() <= 1e-12
        assert np.abs(full.logits - logits).max() <= 1e-12

    def test_query_blocks_read_one_contiguous_key_block(self, monkeypatch):
        # every prefill _attend call gets a [:, :, :i1] prefix of one
        # C-contiguous (H, head_dim, T) array: each (head, channel) row of
        # keys is a contiguous run
        config = DecoderConfig(layers=2, seed=5)
        decoder = Decoder(config)
        t = 2 * _QUERY_BLOCK + 7
        embedded = np.random.default_rng(14).standard_normal((t, 64))
        seen = []
        attend = decoder._attend

        def spy(q, keys, values, bias, shift=True):
            seen.append((keys.shape, keys.strides, keys.flags.c_contiguous))
            return attend(q, keys, values, bias, shift)

        monkeypatch.setattr(decoder, "_attend", spy)
        decoder.prefill(embedded, SegmentedSequence(0, t, 0))
        h, hd, item = config.heads, config.head_dim, embedded.itemsize
        ends = [min(i0 + _QUERY_BLOCK, t) for i0 in range(0, t, _QUERY_BLOCK)]
        assert [shape for shape, _, _ in seen] == [(h, hd, i1) for i1 in ends] + [(h, hd, t)]
        assert all(strides == (hd * t * item, t * item, item) for _, strides, _ in seen)
        assert all(full for shape, _, full in seen if shape[-1] == t)

    def test_position_overflow(self):
        config = DecoderConfig(
            layers=1, model_dim=8, heads=2, mlp_dim=16, vocab=16, max_positions=4
        )
        decoder = Decoder(config)
        spans = SegmentedSequence(system_len=0, visual_len=5, instruction_len=0)
        with pytest.raises(PositionOverflowError):
            decoder.prefill(np.ones((5, 8)), spans)

    def test_shape_validation(self):
        decoder = Decoder(small_config())
        spans = SegmentedSequence(system_len=1, visual_len=2, instruction_len=1)
        with pytest.raises(ShapeMismatchError):
            decoder.prefill(np.ones((4, 9)), spans)  # wrong model dim
        with pytest.raises(ShapeMismatchError):
            decoder.prefill(np.ones((5, 8)), spans)  # wrong length for spans

    def test_peak_memory_keeps_attention_temporaries_per_layer(self):
        # The unit is one dense (H, T, T) float64 array. The bias lives for
        # the whole pass and each layer needs a few more; a layer's scores
        # or weights still alive in the next layer push the peak past 6.5.
        config = DecoderConfig()
        t = 800
        peak = traced_prefill_peak(Decoder(config), t)
        assert peak < 6.5 * config.heads * t * t * 8

    def test_peak_memory_grows_linearly_in_length(self):
        # Query-block attention keeps O(H * block * T) scores and an
        # O(H * T) bias ramp; a dense (H, T, T) temporary would quadruple
        # the peak when T doubles and alone exceed half of the unit.
        config = DecoderConfig()
        decoder = Decoder(config)
        peak_1k = traced_prefill_peak(decoder, 1024)
        peak_2k = traced_prefill_peak(decoder, 2048)
        assert peak_2k <= 2.2 * peak_1k
        assert peak_2k < 0.5 * config.heads * 2048 * 2048 * 8

    def test_layer_hook_sees_each_layer_and_its_result_is_stored(self):
        decoder = Decoder(small_config())
        embedded = np.random.default_rng(5).standard_normal((7, 8))
        spans = SegmentedSequence(system_len=2, visual_len=3, instruction_len=2)
        plain = decoder.prefill(embedded, spans)
        seen = []

        def keep_first_row(states, layer):
            seen.append((states.shape, len(layer)))
            return KVCacheLayer(layer.keys[:1], layer.values[:1],
                                layer.position_ids[:1], layer.segment_tags[:1])

        hooked = decoder.prefill(embedded, spans, layer_hook=keep_first_row)
        assert seen == [((7, 8), 7)] * 2
        assert [len(layer) for layer in hooked.cache] == [1, 1]
        for got, full in zip(hooked.cache, plain.cache):
            assert np.array_equal(got.keys, full.keys[:1])
        # the hook changes what is stored, never the forward pass
        assert np.array_equal(hooked.logits, plain.logits)
        assert np.array_equal(hooked.final_hidden, plain.final_hidden)

    def test_max_positions_prompt_completes(self):
        # One dense (1, 8192, 8192) float64 temporary alone is 512 MiB.
        config = DecoderConfig(layers=1, heads=1, model_dim=16, mlp_dim=64)
        peak = traced_prefill_peak(Decoder(config), config.max_positions)
        assert peak < 64 * 2**20


class TestBiasFloor:
    def test_floor_binds_and_changes_no_bits(self, monkeypatch):
        # Head 0's bias passes the floor beyond distance ~2800. Floored keys
        # weigh under e^-700 of the diagonal, so prefill and a decode step
        # give the same bits as the unfloored bias (floor -inf).
        config = DecoderConfig(layers=1)
        decoder = Decoder(config)
        t = 3000
        assert -decoder.slopes[0] * (t - 1) < sharpv.decoder._BIAS_FLOOR
        embedded = np.random.default_rng(11).standard_normal((t, config.model_dim))
        spans = SegmentedSequence(system_len=0, visual_len=t, instruction_len=0)

        def run():
            res = decoder.prefill(embedded, spans)
            logits, hidden = decoder.decode_step(res.cache, decoder.embedding[7])
            return res, logits, hidden

        lowest = []
        attend = decoder._attend

        def spy(q, keys, values, bias, shift=True):
            lowest.append(bias[np.isfinite(bias)].min())
            return attend(q, keys, values, bias, shift)

        monkeypatch.setattr(decoder, "_attend", spy)
        floored, logits, hidden = run()
        # every finite bias entry, in prefill and decode, stays above
        # the -708 where np.exp turns slow
        assert min(lowest) == sharpv.decoder._BIAS_FLOOR > -708
        monkeypatch.setattr(sharpv.decoder, "_BIAS_FLOOR", -np.inf)
        exact, exact_logits, exact_hidden = run()
        assert np.array_equal(floored.logits, exact.logits)
        assert np.array_equal(floored.final_hidden, exact.final_hidden)
        assert np.array_equal(logits, exact_logits)
        assert np.array_equal(hidden, exact_hidden)


def record_attention(decoder, monkeypatch):
    """Spy on a decoder's _attend; returns the list it fills with one
    (layer, largest q @ keys entry, shift) per call. A call
    starts a new layer when its keys view another buffer, and the first
    call after the list is cleared starts layer 0."""
    calls, bases = [], []
    attend = decoder._attend

    def spy(q, keys, values, bias, shift=True):
        if not calls:
            bases.clear()
        if not bases or keys.base is not bases[-1]:
            bases.append(keys.base)
        calls.append((len(bases) - 1, (q @ keys).max(), shift))
        return attend(q, keys, values, bias, shift)

    monkeypatch.setattr(decoder, "_attend", spy)
    return calls


class TestShiftFreeSoftmax:
    """Prefill skips the softmax's row-max shift in every layer whose
    score bound is below _SHIFT_FREE_BOUND; other layers and decode steps
    keep it."""

    T = 2 * _QUERY_BLOCK + 5

    @pytest.mark.parametrize("config, scale", [
        (DecoderConfig(layers=3, seed=3), 1.0),
        (DecoderConfig(layers=3, seed=3), 1e6),
        (DecoderConfig(layers=3, model_dim=32, heads=1, mlp_dim=64, seed=8), 1.0),
        (DecoderConfig(layers=2, model_dim=96, heads=8, mlp_dim=128, seed=9), 1e6),
    ])
    def test_every_prefill_score_stays_below_its_layers_bound(self, monkeypatch, config, scale):
        decoder = Decoder(config)
        calls = record_attention(decoder, monkeypatch)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            embedded = scale * rng.standard_normal((self.T, config.model_dim))
            calls.clear()
            decoder.prefill(embedded, SegmentedSequence(0, self.T, 0))
            assert sorted({l for l, _, _ in calls}) == list(range(config.layers))
            for l, top, shift in calls:
                assert top <= decoder.score_bounds[l] < sharpv.decoder._SHIFT_FREE_BOUND
                assert shift is False

    @pytest.mark.parametrize("config", [
        DecoderConfig(), DecoderConfig(layers=2, model_dim=96, heads=8, mlp_dim=128, seed=9),
    ])
    def test_bound_covers_the_largest_singular_values(self, config):
        # the Gram row-sum bound against the exact spectral norms
        decoder = Decoder(config)
        d, hd = config.model_dim, config.head_dim
        for lw, bound in zip(decoder.layers, decoder.score_bounds):
            heads = [slice(h * hd, (h + 1) * hd) for h in range(config.heads)]
            exact = max(np.linalg.norm(lw.wq[:, h], 2) * np.linalg.norm(lw.wk[:, h], 2)
                        for h in heads) * d / np.sqrt(hd)
            assert exact <= bound

    @pytest.mark.parametrize("spans", [
        SegmentedSequence(0, T, 0), SegmentedSequence(4, T - 12, 8),
    ])
    def test_layers_over_the_constant_shift_and_agree(self, monkeypatch, spans):
        # Lowering the constant below a layer's bound sends that layer
        # down the shifted path; the outputs agree either way.
        decoder = Decoder(DecoderConfig(layers=4, seed=6))
        embedded = np.random.default_rng(21).standard_normal((self.T, 64))
        calls = record_attention(decoder, monkeypatch)
        free = decoder.prefill(embedded, spans)
        assert not any(shift for _, _, shift in calls)
        bounds = decoder.score_bounds
        for limit in (0.0, sorted(bounds)[2]):  # every layer, then two of four
            monkeypatch.setattr(sharpv.decoder, "_SHIFT_FREE_BOUND", limit)
            calls.clear()
            shifted = decoder.prefill(embedded, spans)
            flags = {l: shift for l, _, shift in calls}
            assert flags == {l: bounds[l] >= limit for l in range(4)}
            assert all(shift == flags[l] for l, _, shift in calls)
            assert sum(flags.values()) == (4 if limit == 0.0 else 2)
            assert np.abs(shifted.logits - free.logits).max() <= 1e-12
            assert np.abs(shifted.final_hidden - free.final_hidden).max() <= 1e-12

    def test_decode_step_keeps_the_shift(self, monkeypatch):
        decoder = Decoder(DecoderConfig(layers=3, seed=2))
        embedded = np.random.default_rng(4).standard_normal((self.T, 64))
        cache = decoder.prefill(embedded, SegmentedSequence(0, self.T, 0)).cache
        calls = record_attention(decoder, monkeypatch)
        decoder.decode_step(cache, decoder.embedding[5])
        assert [shift for _, _, shift in calls] == [True] * 3

    def test_shift_is_what_keeps_large_scores_finite(self):
        # why direct calls and decode keep the shift: scores the weights
        # do not bound overflow exp without it
        decoder = Decoder(DecoderConfig(seed=1))
        rng = np.random.default_rng(3)
        h, hd = decoder.config.heads, decoder.config.head_dim
        q = 100.0 * rng.standard_normal((h, 4, hd))
        keys = 100.0 * rng.standard_normal((h, hd, 9))
        values = rng.standard_normal((h, 9, hd))
        bias = np.zeros((h, 4, 9))
        assert np.isfinite(decoder._attend(q, keys, values, bias)).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(decoder._attend(q, keys, values, bias, shift=False)).all()


class TestQueryBlockEquivalence:
    """Decoder.prefill (query blocks, causal key prefix, bias views of one
    ramp) against the dense (H, T, T) oracle in reference_decoder.py."""

    LENGTHS = [1, _QUERY_BLOCK - 1, _QUERY_BLOCK, _QUERY_BLOCK + 1, 3 * _QUERY_BLOCK + 5]

    # with spare rows, keys and values are written into a strided prefix
    # of their buffers
    @pytest.mark.parametrize(
        "t, spare_rows", [(t, 0) for t in LENGTHS] + [(t, 5) for t in LENGTHS],
        ids=[str(t) for t in LENGTHS] + [f"{t}-spare5" for t in LENGTHS],
    )
    def test_matches_dense_oracle(self, t, spare_rows):
        decoder = Decoder(DecoderConfig(layers=3, seed=3))
        embedded = np.random.default_rng(t).standard_normal((t, 64))
        spans = SegmentedSequence(system_len=t // 3, visual_len=t - t // 3, instruction_len=0)
        res, trace = traced_prefill(decoder, embedded, spans, spare_rows=spare_rows)
        want = dense_prefill(decoder, embedded)

        # the last layer runs for the final row only
        assert res.final_hidden.shape == (64,)
        assert np.abs(res.final_hidden - want["final_hidden"][-1]).max() <= 1e-12
        assert np.abs(res.logits - want["logits"]).max() <= 1e-12
        assert np.array_equal(trace[0], want["trace"][0])
        tags = spans.tags()
        for l, (lw, layer) in enumerate(zip(decoder.layers, res.cache)):
            # fed the decoder's own layer input, the oracle projects the
            # same keys and values bit for bit
            keys, values, out = dense_layer(decoder, lw, trace[l])
            assert np.array_equal(layer.keys, keys)
            assert np.array_equal(layer.values, values)
            assert np.array_equal(layer.position_ids, np.arange(t))
            assert np.array_equal(layer.segment_tags, tags)
            if l + 1 < len(trace):
                assert np.abs(trace[l + 1] - out).max() <= 1e-12
            else:
                assert np.abs(res.final_hidden - out[-1]).max() <= 1e-12


class TestKernels:
    """The in-place, pow-free kernels against the textbook forms in
    reference_decoder.py. _layer_norm is bit-identical; _gelu (x*x*x for
    x**3) and _attend (normalising the output, not the weights) reorder
    the arithmetic."""

    @pytest.mark.parametrize("t", [1, 33, 1062])
    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
    def test_layer_norm_bit_identical(self, t, scale):
        rng = np.random.default_rng(t)
        x = scale * (rng.standard_normal((t, 64)) + rng.standard_normal(64))
        assert np.array_equal(_layer_norm(x), layer_norm(x))

    def test_one_row_layer_norm_matches_many_row_path(self):
        # decode normalises one row at a time, through numpy scalars
        rng = np.random.default_rng(13)
        for scale in 10.0 ** np.arange(-3, 4):
            x = scale * (rng.standard_normal((500, 64)) + rng.standard_normal(64))
            many = _layer_norm(x)
            for i in range(len(x)):
                assert np.array_equal(_layer_norm(x[i:i + 1]), many[i:i + 1])
        constant = np.full((2, 64), 3.7)
        assert np.array_equal(_layer_norm(constant[:1]), _layer_norm(constant)[:1])

    @staticmethod
    def attend_against_textbook(s, shift):
        """(_attend's output, the textbook softmax's, values) on 32 random
        query rows over s keys, with masked entries."""
        decoder = Decoder(DecoderConfig(seed=1))
        rng = np.random.default_rng(s)
        h, hd = decoder.config.heads, decoder.config.head_dim
        q = rng.standard_normal((h, 32, hd))
        keys, values = (rng.standard_normal((h, s, hd)) for _ in range(2))
        bias = 10.0 * rng.standard_normal((h, 32, s))
        bias[rng.random(bias.shape) < 0.3] = -np.inf
        bias[..., 0] = 0.0  # every row keeps a readable key
        bias[:, 1, 1:] = -np.inf  # row 1 reads key 0 alone
        want = softmax(q @ keys.transpose(0, 2, 1) + bias) @ values
        got = decoder._attend(q, np.ascontiguousarray(keys.transpose(0, 2, 1)), values, bias,
                              shift)
        return got, want, values

    @pytest.mark.parametrize("s", [1, 97, 1000])
    def test_attend_matches_textbook_softmax_with_masked_entries(self, s):
        # The bound was fixed before the first run: 64 eps * max|values|.
        got, want, values = self.attend_against_textbook(s, shift=True)
        bound = 64 * np.finfo(np.float64).eps * np.abs(values).max()
        assert np.abs(got - want).max() <= bound
        assert np.array_equal(got[:, 1], values[:, 0])

    @pytest.mark.parametrize("s", [1, 97, 1000])
    def test_shift_free_attend_matches_textbook_softmax(self, s):
        # the same bound without the row-max shift; scores and bias reach
        # about +-60, which exp takes unshifted
        got, want, values = self.attend_against_textbook(s, shift=False)
        bound = 64 * np.finfo(np.float64).eps * np.abs(values).max()
        assert np.abs(got - want).max() <= bound

    def test_gelu_within_two_ulps_of_pow_form(self):
        x = np.concatenate([np.linspace(-30.0, 30.0, 600_001), [1e6, -1e6, 0.0, -0.0]])
        err = np.abs(_gelu(x) - gelu(x))
        assert (err <= 2 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(x))).all()


class TestNoAliasing:
    """The kernels write only into arrays they allocate."""

    def test_attend_accepts_read_only_inputs(self):
        decoder = Decoder(DecoderConfig(seed=1))
        rng = np.random.default_rng(8)
        t, h, hd = 40, decoder.config.heads, decoder.config.head_dim
        q, keys, values = (rng.standard_normal((h, t, hd)) for _ in range(3))
        keys = np.ascontiguousarray(keys.transpose(0, 2, 1))  # (H, hd, S)
        dist = np.arange(t - 1, -t, -1)
        bias = _causal_bias(np.where(dist < 0, -np.inf, -decoder.slopes[:, None] * dist), 0, t)
        want = decoder._attend(q.copy(), keys.copy(), values.copy(), bias.copy())
        for arr in (q, keys, values):
            arr.flags.writeable = False
        assert not bias.flags.writeable
        assert np.array_equal(decoder._attend(q, keys, values, bias), want)

    @pytest.mark.parametrize("evicted", [False, True])
    def test_decode_step_leaves_cached_entries_unchanged(self, evicted):
        decoder = Decoder(DecoderConfig(layers=3, seed=2))
        embedded = np.random.default_rng(9).standard_normal((50, 64))
        spans = SegmentedSequence(system_len=4, visual_len=40, instruction_len=6)
        cache = decoder.prefill(embedded, spans).cache
        if evicted:  # layer 0 is kept as it is, 1-2 get take() copies
            source = cache
            evicted_layers = [reencode_positions(apply_discard(l)) for l in source[1:]]
            cache = source[:1] + evicted_layers
            shared = [np.shares_memory(a.keys, b.keys) for a, b in zip(cache, source)]
            assert shared == [True, False, False]
        fields = ("keys", "values", "position_ids", "segment_tags")
        held = [[getattr(layer, f) for f in fields] for layer in cache]
        before = [[a.copy() for a in arrays] for arrays in held]
        for tok in (3, 5):
            decoder.decode_step(cache, decoder.embedding[tok])
        for layer, arrays, snap in zip(cache, held, before):
            n = len(snap[0])
            for f, arr, want in zip(fields, arrays, snap):
                assert np.array_equal(arr, want)
                assert np.array_equal(getattr(layer, f)[:n], want)


class TestDecodeStep:
    def test_appends_generated_entry(self):
        decoder = Decoder(small_config())
        embedded = np.random.default_rng(3).standard_normal((5, 8))
        spans = SegmentedSequence(system_len=1, visual_len=3, instruction_len=1)
        cache = decoder.prefill(embedded, spans).cache
        logits, hidden = decoder.decode_step(cache, decoder.embedding[0])
        assert logits.shape == (16,)
        assert hidden.shape == (8,)
        for layer in cache:
            assert len(layer) == 6
            assert layer.segment_tags[-1] == Segment.GENERATED
            assert layer.position_ids[-1] == 5

    @pytest.mark.parametrize("embedding, layers, match", [
        (np.zeros(7), 2, "embedding must have shape"),
        (np.zeros((1, 8)), 2, "embedding must have shape"),
        (np.zeros(8), 1, "cache has 1 layers, decoder has 2"),
    ], ids=["width", "2-d", "layer-count"])
    def test_rejects_a_wrong_embedding_or_layer_count(self, embedding, layers, match):
        decoder = Decoder(small_config())
        embedded = np.random.default_rng(3).standard_normal((5, 8))
        spans = SegmentedSequence(system_len=1, visual_len=3, instruction_len=1)
        cache = decoder.prefill(embedded, spans).cache[:layers]
        with pytest.raises(ShapeMismatchError, match=match):
            decoder.decode_step(cache, embedding)
        assert [len(layer) for layer in cache] == [5] * layers

    def test_deterministic(self):
        def run():
            decoder = Decoder(small_config())
            embedded = np.random.default_rng(4).standard_normal((5, 8))
            spans = SegmentedSequence(system_len=1, visual_len=3, instruction_len=1)
            cache = decoder.prefill(embedded, spans).cache
            tokens = []
            tok = 3
            for _ in range(6):
                logits, _ = decoder.decode_step(cache, decoder.embedding[tok])
                tok = int(np.argmax(logits))
                tokens.append(tok)
            return tokens

        assert run() == run()

    def test_bias_is_the_floored_distance_of_each_layers_ids(self, monkeypatch):
        # Layers of different lengths read different slices of one ramp;
        # at length 2900 the floor binds for head 0 (slope 0.25).
        decoder = Decoder(DecoderConfig(layers=3))
        h, hd = decoder.config.heads, decoder.config.head_dim
        rng = np.random.default_rng(14)
        cache = [
            KVCacheLayer(keys=rng.standard_normal((n, h, hd)),
                         values=rng.standard_normal((n, h, hd)),
                         position_ids=np.arange(n, dtype=np.int64),
                         segment_tags=np.zeros(n, dtype=np.uint8))
            for n in (2900, 1, 37)
        ]
        biases = []
        attend = decoder._attend

        def spy(q, keys, values, bias, shift=True):
            biases.append(bias)
            return attend(q, keys, values, bias, shift)

        monkeypatch.setattr(decoder, "_attend", spy)
        decoder.decode_step(cache, decoder.embedding[1])
        assert biases[0].min() == sharpv.decoder._BIAS_FLOOR
        for layer, bias in zip(cache, biases):
            pos = layer.position_ids[-1]
            want = np.maximum(decoder.slopes[:, None, None] * (layer.position_ids - pos),
                              sharpv.decoder._BIAS_FLOOR)
            assert np.array_equal(bias, want)

    def test_position_overflow(self):
        config = DecoderConfig(
            layers=1, model_dim=8, heads=2, mlp_dim=16, vocab=16, max_positions=3
        )
        decoder = Decoder(config)
        spans = SegmentedSequence(system_len=0, visual_len=3, instruction_len=0)
        cache = decoder.prefill(np.ones((3, 8)), spans).cache
        with pytest.raises(PositionOverflowError):
            decoder.decode_step(cache, decoder.embedding[0])


class TestPrefillHandOff:
    """Each layer prefill builds owns its four buffers, with spare rows."""

    T = 2 * _QUERY_BLOCK + 5
    SPANS = SegmentedSequence(system_len=3, visual_len=2 * _QUERY_BLOCK, instruction_len=2)

    def prefill(self, spare_rows, hook=None, layers=2):
        decoder = Decoder(DecoderConfig(layers=layers, seed=6))
        embedded = np.random.default_rng(15).standard_normal((self.T, 64))
        return decoder, decoder.prefill(embedded, self.SPANS, layer_hook=hook,
                                        spare_rows=spare_rows)

    def test_kept_layer_appends_into_its_prefill_buffers(self):
        decoder, res = self.prefill(spare_rows=4)
        layer = res.cache[0]
        fields = ("keys", "values", "position_ids", "segment_tags")
        bufs = [getattr(layer, f).base for f in fields]
        held = [getattr(layer, f).copy() for f in fields]
        decoder.decode_step(res.cache, decoder.embedding[2])
        # all four arrays were written in place, in buffers of the prefill capacity
        for f, buf, want in zip(fields, bufs, held):
            assert getattr(layer, f).base is buf
            assert np.array_equal(getattr(layer, f)[:self.T], want)
        assert layer.position_ids.base.shape == layer.segment_tags.base.shape == (self.T + 4,)

    @pytest.mark.parametrize("spare_rows", [0, 1, 7, T, 3 * T])
    def test_capacity_is_prompt_plus_capped_spare_rows(self, spare_rows):
        decoder, res = self.prefill(spare_rows)
        h, hd = decoder.config.heads, decoder.config.head_dim
        capacity = self.T + min(spare_rows, self.T)
        for layer in res.cache:
            assert layer.keys.base.shape == (h, hd, capacity)
            assert layer.values.base.shape == (capacity, h, hd)

    def test_negative_spare_rows_rejected(self):
        with pytest.raises(ValueError, match="spare_rows must be >= 0"):
            self.prefill(spare_rows=-1)

    def test_no_spare_rows_copies_on_the_first_append_as_before(self):
        decoder, res = self.prefill(spare_rows=0)
        _, spare = self.prefill(spare_rows=3)
        key_buf = res.cache[0].keys.base
        tok = 1
        for _ in range(3):
            logits, hidden = decoder.decode_step(res.cache, decoder.embedding[tok])
            want, want_hidden = decoder.decode_step(spare.cache, decoder.embedding[tok])
            assert np.array_equal(logits, want) and np.array_equal(hidden, want_hidden)
            tok = int(np.argmax(logits))
        layer = res.cache[0]
        assert layer.keys.base is not key_buf
        assert layer.keys.base.shape[-1] == layer.values.base.shape[0] == 2 * self.T

    def test_decode_reads_keys_with_unit_stride(self, monkeypatch):
        # layer 0 kept with its prefill buffers, layers 1-2 evicted, so
        # their first append regrows them
        built = []

        def hook(states, layer):
            built.append(layer)
            return layer if len(built) == 1 else reencode_positions(apply_discard(layer))

        decoder, res = self.prefill(spare_rows=2, hook=hook, layers=3)
        assert [len(layer) for layer in res.cache] == [self.T, 5, 5]
        seen = []
        attend = decoder._attend

        def spy(q, keys, values, bias, shift=True):
            seen.append(keys.strides[-1])
            return attend(q, keys, values, bias, shift)

        monkeypatch.setattr(decoder, "_attend", spy)
        for tok in (1, 2, 3):  # the third append overflows the kept layer's spare rows
            decoder.decode_step(res.cache, decoder.embedding[tok])
        assert seen == [np.dtype(np.float64).itemsize] * 9

    def test_replaced_layer_does_not_inherit_the_buffers(self):
        handed = []

        def hook(states, layer):
            handed.append((layer.keys.base, layer.values.base))
            return reencode_positions(layer)

        decoder, res = self.prefill(spare_rows=4, hook=hook)
        for layer, (key_buf, value_buf) in zip(res.cache, handed):
            layer.append(*np.ones((2, 4, 16)), Segment.GENERATED, position=self.T)
            assert not np.shares_memory(layer.keys, key_buf)
            assert not np.shares_memory(layer.values, value_buf)
            assert len(layer) == self.T + 1


class TestCacheConsistency:
    @pytest.mark.parametrize("split", [1, 4, 7])
    def test_prefill_plus_decode_matches_full_prefill(self, split):
        decoder = Decoder(DecoderConfig(layers=4, model_dim=16, heads=4, mlp_dim=32, vocab=32, seed=5))
        rng = np.random.default_rng(6)
        total = 8
        embedded = rng.standard_normal((total, 16))

        full_spans = SegmentedSequence(system_len=0, visual_len=total, instruction_len=0)
        full = decoder.prefill(embedded, full_spans)

        prefix_spans = SegmentedSequence(system_len=0, visual_len=split, instruction_len=0)
        partial = decoder.prefill(embedded[:split], prefix_spans)
        cache = partial.cache
        hidden = None
        for i in range(split, total):
            logits, hidden = decoder.decode_step(cache, embedded[i])
        assert hidden == pytest.approx(full.final_hidden, abs=1e-5)
        assert logits == pytest.approx(full.logits, abs=1e-5)


class TestGoldenLogits:
    def test_prefill_matches_golden(self):
        golden = json.loads((GOLDEN_DIR / "prefill_logits.json").read_text())
        decoder = Decoder(DecoderConfig(**golden["decoder"]))
        rng = np.random.default_rng(golden["input_rng_seed"])
        spans = SegmentedSequence(**golden["spans"])
        embedded = rng.standard_normal((spans.total_len, 64))
        logits = decoder.prefill(embedded, spans).logits
        assert logits == pytest.approx(np.array(golden["logits"]), abs=1e-7)
