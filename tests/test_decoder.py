import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sharpv.cache import Segment, SegmentedSequence
from sharpv.decoder import Decoder, DecoderConfig, init_decoder
from sharpv.errors import ConfigError, PositionOverflowError, ShapeMismatchError

GOLDEN_DIR = Path(__file__).parent / "golden"

# Pinned at first build; any change to the weight draw order or scaling breaks it.
SMALL_DECODER_CHECKSUM = "639b4d558c387900c058f4694b4432f0272bb59ca430433ea3fdc9e607bd7733"


def small_config(seed=42):
    return DecoderConfig(layers=2, model_dim=8, heads=2, mlp_dim=16, vocab=16, seed=seed)


class TestConfig:
    def test_head_dim(self):
        assert DecoderConfig().head_dim == 16

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            DecoderConfig(model_dim=10, heads=4)

    def test_rejects_zero_counts(self):
        with pytest.raises(ConfigError):
            DecoderConfig(layers=0)

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


class TestPrefill:
    def test_single_position(self):
        decoder = Decoder(small_config())
        spans = SegmentedSequence(system_len=0, visual_len=1, instruction_len=0)
        res = decoder.prefill(np.ones((1, 8)), spans)
        assert all(len(layer) == 1 for layer in res.cache.layers)
        assert res.logits.shape == (16,)

    def test_trace_shapes_and_first_entry(self):
        decoder = Decoder(small_config())
        rng = np.random.default_rng(0)
        embedded = rng.standard_normal((6, 8))
        spans = SegmentedSequence(system_len=1, visual_len=4, instruction_len=1)
        res = decoder.prefill(embedded, spans)
        assert len(res.trace) == 2
        assert all(t.shape == (6, 8) for t in res.trace)
        assert np.array_equal(res.trace[0], embedded)  # layer-0 input is the embedding

    def test_cache_tags_and_positions(self):
        decoder = Decoder(small_config())
        embedded = np.random.default_rng(1).standard_normal((6, 8))
        spans = SegmentedSequence(system_len=2, visual_len=2, instruction_len=2)
        cache = decoder.prefill(embedded, spans).cache
        for layer in cache.layers:
            assert list(layer.position_ids) == [0, 1, 2, 3, 4, 5]
            assert list(layer.segment_tags) == [
                Segment.SYSTEM, Segment.SYSTEM, Segment.VISUAL,
                Segment.VISUAL, Segment.INSTRUCTION, Segment.INSTRUCTION,
            ]

    def test_causality(self):
        # changing a later token must not move earlier final hidden states
        decoder = Decoder(small_config())
        rng = np.random.default_rng(2)
        embedded = rng.standard_normal((6, 8))
        spans = SegmentedSequence(system_len=1, visual_len=4, instruction_len=1)
        before = decoder.prefill(embedded, spans).final_hidden
        changed = embedded.copy()
        changed[5] += 1.0
        after = decoder.prefill(changed, spans).final_hidden
        assert np.allclose(before[:5], after[:5], atol=1e-12)
        assert not np.allclose(before[5], after[5])

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
        decoder = Decoder(config)
        embedded = np.random.default_rng(0).standard_normal((t, config.model_dim))
        spans = SegmentedSequence(system_len=0, visual_len=t, instruction_len=0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            decoder.prefill(embedded, spans)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * config.heads * t * t * 8


class TestDecodeStep:
    def test_appends_generated_entry(self):
        decoder = Decoder(small_config())
        embedded = np.random.default_rng(3).standard_normal((5, 8))
        spans = SegmentedSequence(system_len=1, visual_len=3, instruction_len=1)
        cache = decoder.prefill(embedded, spans).cache
        logits, hidden = decoder.decode_step(cache, decoder.embedding[0])
        assert logits.shape == (16,)
        assert hidden.shape == (8,)
        for layer in cache.layers:
            assert len(layer) == 6
            assert layer.segment_tags[-1] == Segment.GENERATED
            assert layer.position_ids[-1] == 5

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

    def test_position_overflow(self):
        config = DecoderConfig(
            layers=1, model_dim=8, heads=2, mlp_dim=16, vocab=16, max_positions=3
        )
        decoder = Decoder(config)
        spans = SegmentedSequence(system_len=0, visual_len=3, instruction_len=0)
        cache = decoder.prefill(np.ones((3, 8)), spans).cache
        with pytest.raises(PositionOverflowError):
            decoder.decode_step(cache, decoder.embedding[0])


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
        assert hidden == pytest.approx(full.final_hidden[-1], abs=1e-5)
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
