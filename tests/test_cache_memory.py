import math

import numpy as np
import pytest

from sharpv.cache import KVCacheLayer, Segment, SegmentedSequence
from sharpv.decoder import Decoder, DecoderConfig
from prefill_trace import traced_prefill
from sharpv.memory import apply_discard, degradation_profile, reencode_positions
from sharpv.pipeline import prefill_with_eviction


def make_layer(seq_len, heads=2, head_dim=4, visual=(2, 6), seed=0):
    rng = np.random.default_rng(seed)
    tags = np.full(seq_len, int(Segment.SYSTEM), dtype=np.uint8)
    tags[visual[0]:visual[1]] = int(Segment.VISUAL)
    tags[visual[1]:] = int(Segment.INSTRUCTION)
    return KVCacheLayer(
        keys=rng.standard_normal((seq_len, heads, head_dim)),
        values=rng.standard_normal((seq_len, heads, head_dim)),
        position_ids=np.arange(seq_len, dtype=np.int64),
        segment_tags=tags,
    )


def make_cache(layers, seq_len=10, visual=(2, 6)):
    return [make_layer(seq_len, visual=visual, seed=i) for i in range(layers)]


def entries(cache):
    return sum(len(layer) for layer in cache)


def payload_bytes(cache):
    return sum(layer.nbytes() for layer in cache)


def spans_for(seq_len=10, visual=(2, 6)):
    return SegmentedSequence(
        system_len=visual[0],
        visual_len=visual[1] - visual[0],
        instruction_len=seq_len - visual[1],
    )


class TestSegmentedSequence:
    def test_spans_partition(self):
        s = SegmentedSequence(system_len=3, visual_len=5, instruction_len=2)
        assert s.visual_span == (3, 8)
        assert s.total_len == 10
        assert list(s.tags()) == [Segment.SYSTEM] * 3 + [Segment.VISUAL] * 5 + [
            Segment.INSTRUCTION] * 2

    def test_tags_cover(self):
        s = SegmentedSequence(system_len=1, visual_len=2, instruction_len=1)
        assert list(s.tags()) == [
            Segment.SYSTEM, Segment.VISUAL, Segment.VISUAL, Segment.INSTRUCTION,
        ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SegmentedSequence(system_len=-1, visual_len=2, instruction_len=1)

    def test_rejects_empty_total(self):
        with pytest.raises(ValueError):
            SegmentedSequence(system_len=0, visual_len=0, instruction_len=0)


class TestKVCacheLayer:
    def test_append_grows_all_arrays(self):
        layer = make_layer(4, visual=(1, 3))
        layer.append(
            np.zeros((2, 4)), np.ones((2, 4)), Segment.GENERATED, position=4
        )
        assert len(layer) == 5
        assert layer.position_ids[-1] == 4
        assert layer.segment_tags[-1] == Segment.GENERATED
        assert len(layer.values) == len(layer.position_ids) == len(layer.segment_tags) == 5

    def test_layers_sharing_arrays_write_separate_buffers(self):
        decoder = Decoder(DecoderConfig(layers=1, model_dim=8, heads=2, mlp_dim=16, vocab=16))
        embedded = np.random.default_rng(3).standard_normal((6, 8))
        a = decoder.prefill(embedded, spans_for(6, visual=(1, 4))).cache[0]
        rng = np.random.default_rng(4)
        a.append(*rng.standard_normal((2, 2, 4)), Segment.GENERATED, position=6)
        b = reencode_positions(a)  # shares a's keys and values
        assert b.keys.base is a.keys.base and b.values.base is a.values.base
        held = a.keys.copy(), a.values.copy()
        row_b, row_a = rng.standard_normal((2, 2, 2, 4))
        b.append(*row_b, Segment.GENERATED, position=7)
        a.append(*row_a, Segment.GENERATED, position=7)
        for layer, row in ((a, row_a), (b, row_b)):
            assert len(layer) == 8
            assert np.array_equal(layer.keys[:7], held[0])
            assert np.array_equal(layer.values[:7], held[1])
            assert np.array_equal(layer.keys[7], row[0])
            assert np.array_equal(layer.values[7], row[1])

    def test_prefill_layers_own_all_four_buffers(self):
        decoder = Decoder(DecoderConfig(layers=3, model_dim=8, heads=2, mlp_dim=16, vocab=16))
        embedded = np.random.default_rng(7).standard_normal((6, 8))
        spans = spans_for(6, visual=(1, 4))
        cache = decoder.prefill(embedded, spans, spare_rows=2).cache
        fields = ("keys", "values", "position_ids", "segment_tags")
        bases = [[getattr(layer, f).base for f in fields] for layer in cache]
        for layer in cache:
            assert np.array_equal(layer.position_ids, np.arange(6))
            assert np.array_equal(layer.segment_tags, spans.tags())
        for i, a in enumerate(bases):
            for b in bases[i + 1:]:
                assert not any(np.shares_memory(x, y) for x, y in zip(a, b))
        decoder.decode_step(cache, decoder.embedding[3])
        for layer, held in zip(cache, bases):
            assert all(getattr(layer, f).base is base for f, base in zip(fields, held))
            assert list(layer.position_ids) == list(range(7))
            assert list(layer.segment_tags) == list(spans.tags()) + [Segment.GENERATED]

    def test_appends_reallocate_logarithmically_often(self):
        n0, steps = 10, 256
        layer = make_layer(n0)
        rows = list(np.random.default_rng(5).standard_normal((steps, 2, 2, 4)))
        owners = []
        for i, (key, value) in enumerate(rows):
            layer.append(key, value, Segment.GENERATED, position=n0 + i)
            owner = layer.keys if layer.keys.base is None else layer.keys.base
            if not owners or owner is not owners[-1]:
                owners.append(owner)
        assert len(owners) <= math.ceil(math.log2(steps + n0)) + 1
        assert np.array_equal(layer.keys[n0:], [k for k, _ in rows])
        assert np.array_equal(layer.values[n0:], [v for _, v in rows])
        assert np.array_equal(layer.position_ids, np.arange(n0 + steps))
        assert len(layer.values) == len(layer.segment_tags) == n0 + steps

    def test_next_position_counts_entries(self):
        # decode_step gives a new entry the position len(layer)
        decoder = Decoder(DecoderConfig(layers=2, model_dim=8, heads=2, mlp_dim=16, vocab=16))
        embedded = np.random.default_rng(6).standard_normal((5, 8))
        cache = decoder.prefill(embedded, spans_for(5, visual=(1, 4))).cache
        cache[1] = reencode_positions(apply_discard(cache[1]))
        assert [len(layer) for layer in cache] == [5, 2]
        decoder.decode_step(cache, decoder.embedding[0])
        assert [layer.position_ids[-1] for layer in cache] == [5, 2]

    def test_decode_rejects_a_layer_not_reencoded(self):
        # the decode bias is read off a layer's length, so its ids must be
        # 0..len-1; an evicted layer keeps gapped ids until re-encoded
        decoder = Decoder(DecoderConfig(layers=2, model_dim=8, heads=2, mlp_dim=16, vocab=16))
        embedded = np.random.default_rng(6).standard_normal((5, 8))
        cache = decoder.prefill(embedded, spans_for(5, visual=(1, 4))).cache
        cache[1] = apply_discard(cache[1])
        assert list(cache[1].position_ids) == [0, 4]
        keys = [layer.keys for layer in cache]
        with pytest.raises(ValueError, match="layer 1 has 2 entries but last position id 4"):
            decoder.decode_step(cache, decoder.embedding[0])
        # nothing was appended, not even to layer 0
        assert all(layer.keys is k for layer, k in zip(cache, keys))
        assert [len(layer) for layer in cache] == [5, 2]
        cache[1] = reencode_positions(cache[1])
        decoder.decode_step(cache, decoder.embedding[0])
        assert [layer.position_ids[-1] for layer in cache] == [5, 2]

    def test_segment_counts(self):
        layer = make_layer(10, visual=(2, 6))
        assert layer.segment_counts() == {
            "system": 2, "visual": 4, "instruction": 4, "generated": 0,
        }

    def test_cache_totals(self):
        cache = make_cache(3, seq_len=10)
        assert entries(cache) == 30
        assert payload_bytes(cache) == 30 * 2 * (2 * 4 * 8)  # keys + values, float64


class TestDegradationProfile:
    def test_identity_trace_is_one(self):
        rng = np.random.default_rng(1)
        original = rng.standard_normal((10, 8))
        trace = [original.copy() for _ in range(4)]
        sims = [degradation_profile(states, original, spans_for(10)) for states in trace]
        assert sims == pytest.approx([1.0] * 4, abs=1e-12)

    def test_orthogonal_rows_are_zero(self):
        original = np.zeros((4, 4))
        original[:, 0] = 1.0
        rotated = np.zeros((4, 4))
        rotated[:, 1] = 1.0
        spans = SegmentedSequence(system_len=1, visual_len=2, instruction_len=1)
        assert degradation_profile(rotated, original, spans) == pytest.approx(0.0, abs=1e-12)

    def test_only_visual_span_counts(self):
        rng = np.random.default_rng(2)
        original = rng.standard_normal((10, 8))
        trace_layer = original.copy()
        trace_layer[0] = -original[0]  # system row, must not matter
        trace_layer[9] = -original[9]  # instruction row, must not matter
        sim = degradation_profile(trace_layer, original, spans_for(10))
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_matches_cosine_loop_on_decoder_trace(self):
        config = DecoderConfig(layers=8, model_dim=64, heads=4, mlp_dim=128, vocab=32, seed=42)
        decoder = Decoder(config)
        rng = np.random.default_rng(7)
        spans = SegmentedSequence(system_len=3, visual_len=12, instruction_len=5)
        embedded = rng.standard_normal((spans.total_len, 64))
        _, trace = traced_prefill(decoder, embedded, spans)
        lo, hi = spans.visual_span
        for l in range(8):
            sims = []
            for i in range(lo, hi):
                a, b = trace[l][i], embedded[i]
                sims.append(
                    float(np.dot(a, b)) / (math.sqrt(np.dot(a, a)) * math.sqrt(np.dot(b, b)))
                )
            sim = degradation_profile(trace[l], embedded, spans)
            assert sim == pytest.approx(sum(sims) / len(sims), abs=1e-6)

    def test_empty_visual_span_rejected(self):
        original = np.ones((4, 4))
        spans = SegmentedSequence(system_len=2, visual_len=0, instruction_len=2)
        with pytest.raises(ValueError):
            degradation_profile(original, original, spans)


def stage2_prompt():
    """An 8-layer decoder and a random prompt whose layer scores fall from
    1.0 (layer 0) to about 0.25 (layer 7), all distinct."""
    config = DecoderConfig(layers=8, model_dim=64, heads=4, mlp_dim=256, vocab=64, seed=0)
    embedded = np.random.default_rng(7).standard_normal((20, 64))
    return Decoder(config), embedded, spans_for(20, visual=(3, 15))


class TestDiscardDecision:
    """The threshold rule, on ``prefill_with_eviction``: a layer is
    discarded iff its score is strictly below m clamped to [-1, 1]."""

    def test_minus_one_discards_nothing(self):
        decoder, embedded, spans = stage2_prompt()
        prefill, _, discarded = prefill_with_eviction(decoder, embedded, spans, -1.0)
        assert discarded == []
        full = decoder.prefill(embedded, spans).cache
        for got, want in zip(prefill.cache, full):
            for field in ("keys", "values", "position_ids", "segment_tags"):
                assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_one_discards_everything_below(self):
        decoder, embedded, spans = stage2_prompt()
        _, sims, discarded = prefill_with_eviction(decoder, embedded, spans, 1.0)
        assert sims[0] == 1.0  # layer 0's input is the prompt itself
        assert discarded == [l for l, sim in enumerate(sims) if sim < 1.0]
        assert discarded == list(range(1, 8))

    def test_default_threshold_example(self):
        decoder, embedded, spans = stage2_prompt()
        prefill, sims, discarded = prefill_with_eviction(decoder, embedded, spans, 0.3)
        assert discarded == [l for l, sim in enumerate(sims) if sim < 0.3]
        assert discarded == [5, 6, 7]
        assert [layer.segment_counts()["visual"] for layer in prefill.cache] == [12] * 5 + [0] * 3

    def test_strict_inequality(self):
        decoder, embedded, spans = stage2_prompt()
        _, sims, _ = prefill_with_eviction(decoder, embedded, spans, -1.0)
        for l in range(1, 8):
            _, _, at = prefill_with_eviction(decoder, embedded, spans, sims[l])
            _, _, above = prefill_with_eviction(decoder, embedded, spans, np.nextafter(sims[l], 2.0))
            assert l not in at and l in above

    def test_threshold_clamped(self):
        decoder, embedded, spans = stage2_prompt()
        for outside, edge in ((5.0, 1.0), (-5.0, -1.0)):
            got, got_sims, got_discarded = prefill_with_eviction(decoder, embedded, spans, outside)
            want, sims, discarded = prefill_with_eviction(decoder, embedded, spans, edge)
            assert (got_sims, got_discarded) == (sims, discarded)
            assert [len(layer) for layer in got.cache] == [len(layer) for layer in want.cache]
            assert 0 not in got_discarded
        assert got_discarded == []

    def test_monotone_in_threshold(self):
        decoder, embedded, spans = stage2_prompt()
        _, sims, _ = prefill_with_eviction(decoder, embedded, spans, -1.0)
        previous, previous_mr = set(), 1.0
        for m in sorted({-1.0, 0.0, 0.1, 0.2, 0.4, 1.0, *sims}):
            prefill, _, discarded = prefill_with_eviction(decoder, embedded, spans, m)
            mr = entries(prefill.cache) / (8 * spans.total_len)
            assert previous <= set(discarded)
            assert mr <= previous_mr
            previous, previous_mr = set(discarded), mr
        assert previous == set(range(1, 8))


class TestApplyDiscard:
    def test_all_false_identity(self):
        layer = make_layer(10, visual=(2, 2))  # no entry is visual
        out = apply_discard(layer)
        for f in ("keys", "values", "position_ids", "segment_tags"):
            assert np.array_equal(getattr(out, f), getattr(layer, f))

    def test_all_true_drops_exactly_visual(self):
        cache = make_cache(4, seq_len=10, visual=(2, 6))
        bytes_before = payload_bytes(cache)
        out = [apply_discard(layer) for layer in cache]
        per_entry = cache[0].keys[0].nbytes + cache[0].values[0].nbytes
        assert entries(out) == entries(cache) - 4 * 4
        assert bytes_before - payload_bytes(out) == 4 * 4 * per_entry
        for layer in out:
            assert not (layer.segment_tags == Segment.VISUAL).any()

    def test_mixed_plan_counts(self):
        cache = make_cache(4, seq_len=10, visual=(2, 6))
        plan = [False, True, False, True]
        out = [apply_discard(l) if d else l for d, l in zip(plan, cache)]
        expected = [10 if not d else 6 for d in plan]
        assert [len(l) for l in out] == expected

    def test_never_removes_text_or_generated(self):
        cache = make_cache(2, seq_len=10, visual=(2, 6))
        cache[0].append(
            np.zeros((2, 4)), np.zeros((2, 4)), Segment.GENERATED, position=10
        )
        cache[1].append(
            np.zeros((2, 4)), np.zeros((2, 4)), Segment.GENERATED, position=10
        )
        for layer in cache:
            counts = apply_discard(layer).segment_counts()
            assert counts["system"] == 2
            assert counts["instruction"] == 4
            assert counts["generated"] == 1

    def test_prefill_layer_evicts_like_a_contiguous_copy(self):
        # prefill's keys are a strided view of its (H, head_dim, T) block
        decoder = Decoder(DecoderConfig(layers=2, seed=3))
        embedded = np.random.default_rng(12).standard_normal((70, 64))
        layer = decoder.prefill(embedded, spans_for(70, visual=(4, 62))).cache[0]
        assert not layer.keys.flags.c_contiguous
        copy = KVCacheLayer(*(np.ascontiguousarray(getattr(layer, f)) for f in
                              ("keys", "values", "position_ids", "segment_tags")))
        out, want = apply_discard(layer), apply_discard(copy)
        assert len(out) == 12
        for f in ("keys", "values", "position_ids", "segment_tags"):
            got = getattr(out, f)
            assert np.array_equal(got, getattr(want, f))
            assert got.flags.c_contiguous and got.flags.owndata
            assert not np.shares_memory(got, getattr(layer, f))

    def test_source_cache_untouched(self):
        layer = make_layer(10)
        fields = ("keys", "values", "position_ids", "segment_tags")
        snapshot = [getattr(layer, f).copy() for f in fields]
        apply_discard(layer)
        assert len(layer) == 10
        for f, want in zip(fields, snapshot):
            assert np.array_equal(getattr(layer, f), want)


class TestReencode:
    def test_contiguous_unchanged(self):
        layer = make_layer(6)
        out = reencode_positions(layer)
        assert np.array_equal(out.position_ids, layer.position_ids)

    def test_gap_compaction(self):
        layer = make_layer(5)
        layer.position_ids = np.array([0, 1, 5, 6, 7], dtype=np.int64)
        out = reencode_positions(layer)
        assert list(out.position_ids) == [0, 1, 2, 3, 4]

    def test_idempotent_monotone_bijection(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            size = int(rng.integers(1, 30))
            ids = np.sort(rng.choice(1000, size=size, replace=False)).astype(np.int64)
            layer = make_layer(size, visual=(0, size))
            layer.position_ids = ids
            once = reencode_positions(layer)
            assert list(once.position_ids) == list(range(size))
            twice = reencode_positions(once)
            assert np.array_equal(once.position_ids, twice.position_ids)


def retained(before, after):
    """MR as the pipeline reports it: cache entries kept over entries held."""
    return entries(after) / entries(before)


class TestMrMetric:
    def test_no_discard_is_one(self):
        cache = make_cache(3)
        assert retained(cache, cache) == 1.0

    def test_sixty_percent_visual_all_discarded(self):
        # 12 of 20 entries are visual; discarding them all leaves 8/20 = 0.4
        cache = make_cache(5, seq_len=20, visual=(4, 16))
        after = [apply_discard(layer) for layer in cache]
        assert retained(cache, after) == 0.4

    def test_mixed_plan_hand_count(self):
        cache = make_cache(4, seq_len=10, visual=(2, 6))
        plan = [False, True, False, True]
        after = [apply_discard(l) if d else l for d, l in zip(plan, cache)]
        assert retained(cache, after) == (10 + 6 + 10 + 6) / 40


class TestMaskDiscard:
    def test_masked_positions_match_removal(self):
        # removal plus re-encoding leaves exactly the rows a visual mask
        # keeps, each at its rank among the kept rows
        cache = make_cache(3, seq_len=10, visual=(2, 6))
        plan = [True, False, True]
        removed = [reencode_positions(apply_discard(l)) if d else l for d, l in zip(plan, cache)]
        for discard, src, rem in zip(plan, cache, removed):
            keep = ~((src.segment_tags == Segment.VISUAL) & discard)
            ranks = np.cumsum(keep) - 1
            assert np.array_equal(ranks[keep], rem.position_ids)
            assert np.array_equal(src.keys[keep], rem.keys)
            assert int(keep.sum()) == len(rem)
            assert rem.position_ids[-1] + 1 == len(rem)  # a new entry continues the ids
