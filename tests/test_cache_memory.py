import math

import numpy as np
import pytest

from sharpv.cache import KVCacheLayer, LayeredKVCache, Segment, SegmentedSequence
from sharpv.decoder import Decoder, DecoderConfig
from sharpv.errors import ShapeMismatchError
from sharpv.memory import (
    DegradationProfile,
    apply_discard,
    degradation_profile,
    discard_decision,
    mask_discard,
    mr_metric,
    reencode_positions,
)


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
    return LayeredKVCache(
        layers=[make_layer(seq_len, visual=visual, seed=i) for i in range(layers)]
    )


def spans_for(seq_len=10, visual=(2, 6)):
    return SegmentedSequence(
        system_len=visual[0],
        visual_len=visual[1] - visual[0],
        instruction_len=seq_len - visual[1],
    )


class TestSegmentedSequence:
    def test_spans_partition(self):
        s = SegmentedSequence(system_len=3, visual_len=5, instruction_len=2)
        assert s.system_span == (0, 3)
        assert s.visual_span == (3, 8)
        assert s.instruction_span == (8, 10)
        assert s.total_len == 10

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
        layer.validate()

    def test_next_position_counts_active(self):
        layer = make_layer(5, visual=(1, 4))
        assert layer.next_position() == 5
        layer.active = np.array([True, False, False, True, True])
        assert layer.next_position() == 3

    def test_validate_catches_length_mismatch(self):
        layer = make_layer(4)
        layer.position_ids = np.arange(3, dtype=np.int64)
        with pytest.raises(ShapeMismatchError):
            layer.validate()

    def test_segment_counts(self):
        layer = make_layer(10, visual=(2, 6))
        assert layer.segment_counts() == {
            "system": 2, "visual": 4, "instruction": 4, "generated": 0,
        }

    def test_cache_totals(self):
        cache = make_cache(3, seq_len=10)
        assert cache.total_entries() == 30
        assert cache.total_bytes() == sum(l.nbytes() for l in cache.layers)


class TestDegradationProfile:
    def test_identity_trace_is_one(self):
        rng = np.random.default_rng(1)
        original = rng.standard_normal((10, 8))
        trace = [original.copy() for _ in range(4)]
        prof = degradation_profile(trace, original, spans_for(10))
        assert prof.per_layer_sim == pytest.approx([1.0] * 4, abs=1e-12)

    def test_orthogonal_rows_are_zero(self):
        original = np.zeros((4, 4))
        original[:, 0] = 1.0
        rotated = np.zeros((4, 4))
        rotated[:, 1] = 1.0
        spans = SegmentedSequence(system_len=1, visual_len=2, instruction_len=1)
        prof = degradation_profile([rotated], original, spans)
        assert prof.per_layer_sim[0] == pytest.approx(0.0, abs=1e-12)

    def test_only_visual_span_counts(self):
        rng = np.random.default_rng(2)
        original = rng.standard_normal((10, 8))
        trace_layer = original.copy()
        trace_layer[0] = -original[0]  # system row, must not matter
        trace_layer[9] = -original[9]  # instruction row, must not matter
        prof = degradation_profile([trace_layer], original, spans_for(10))
        assert prof.per_layer_sim[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_cosine_loop_on_decoder_trace(self):
        config = DecoderConfig(layers=8, model_dim=64, heads=4, mlp_dim=128, vocab=32, seed=42)
        decoder = Decoder(config)
        rng = np.random.default_rng(7)
        spans = SegmentedSequence(system_len=3, visual_len=12, instruction_len=5)
        embedded = rng.standard_normal((spans.total_len, 64))
        trace = decoder.prefill(embedded, spans).trace
        prof = degradation_profile(trace, embedded, spans)
        lo, hi = spans.visual_span
        for l in range(8):
            sims = []
            for i in range(lo, hi):
                a, b = trace[l][i], embedded[i]
                sims.append(
                    float(np.dot(a, b)) / (math.sqrt(np.dot(a, a)) * math.sqrt(np.dot(b, b)))
                )
            assert prof.per_layer_sim[l] == pytest.approx(sum(sims) / len(sims), abs=1e-6)

    def test_empty_visual_span_rejected(self):
        original = np.ones((4, 4))
        spans = SegmentedSequence(system_len=2, visual_len=0, instruction_len=2)
        with pytest.raises(ValueError):
            degradation_profile([original], original, spans)


class TestDiscardDecision:
    def test_minus_one_discards_nothing(self):
        prof = DegradationProfile(per_layer_sim=np.array([0.5, -0.9, 0.0]))
        plan = discard_decision(prof, -1.0)
        assert not plan.per_layer.any()

    def test_one_discards_everything_below(self):
        prof = DegradationProfile(per_layer_sim=np.array([0.99, 0.5, -0.2]))
        plan = discard_decision(prof, 1.0)
        assert plan.per_layer.all()

    def test_default_threshold_example(self):
        prof = DegradationProfile(per_layer_sim=np.array([0.9, 0.5, 0.19, 0.05]))
        plan = discard_decision(prof, 0.2)
        assert list(plan.per_layer) == [False, False, True, True]
        assert plan.discarded_layers() == [2, 3]

    def test_strict_inequality(self):
        prof = DegradationProfile(per_layer_sim=np.array([0.2]))
        assert not discard_decision(prof, 0.2).per_layer[0]

    def test_threshold_clamped(self):
        prof = DegradationProfile(per_layer_sim=np.array([0.5]))
        assert discard_decision(prof, 7.0).per_layer[0]  # clamps to 1.0
        assert not discard_decision(prof, -7.0).per_layer[0]  # clamps to -1.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        prof = DegradationProfile(per_layer_sim=rng.uniform(-1, 1, size=8))
        previous = set()
        for m in (-1.0, 0.0, 0.1, 0.2, 0.4, 1.0):
            current = set(discard_decision(prof, m).discarded_layers())
            assert previous <= current
            previous = current


class TestApplyDiscard:
    def test_all_false_identity(self):
        cache = make_cache(3)
        plan = discard_decision(
            DegradationProfile(per_layer_sim=np.ones(3)), -1.0
        )
        out = apply_discard(cache, plan)
        for a, b in zip(out.layers, cache.layers):
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.position_ids, b.position_ids)
            assert np.array_equal(a.segment_tags, b.segment_tags)

    def test_all_true_drops_exactly_visual(self):
        cache = make_cache(4, seq_len=10, visual=(2, 6))
        bytes_before = cache.total_bytes()
        plan = discard_decision(
            DegradationProfile(per_layer_sim=np.zeros(4)), 1.0
        )
        out = apply_discard(cache, plan)
        per_entry = cache.layers[0].keys[0].nbytes + cache.layers[0].values[0].nbytes
        assert out.total_entries() == cache.total_entries() - 4 * 4
        assert bytes_before - out.total_bytes() == 4 * 4 * per_entry
        for layer in out.layers:
            assert not (layer.segment_tags == Segment.VISUAL).any()

    def test_mixed_plan_counts(self):
        cache = make_cache(4, seq_len=10, visual=(2, 6))
        prof = DegradationProfile(per_layer_sim=np.array([0.9, 0.1, 0.9, 0.1]))
        plan = discard_decision(prof, 0.2)
        out = apply_discard(cache, plan)
        expected = [10 if not d else 6 for d in plan.per_layer]
        assert [len(l) for l in out.layers] == expected

    def test_never_removes_text_or_generated(self):
        cache = make_cache(2, seq_len=10, visual=(2, 6))
        cache.layers[0].append(
            np.zeros((2, 4)), np.zeros((2, 4)), Segment.GENERATED, position=10
        )
        cache.layers[1].append(
            np.zeros((2, 4)), np.zeros((2, 4)), Segment.GENERATED, position=10
        )
        plan = discard_decision(DegradationProfile(per_layer_sim=np.zeros(2)), 1.0)
        out = apply_discard(cache, plan)
        for layer in out.layers:
            counts = layer.segment_counts()
            assert counts["system"] == 2
            assert counts["instruction"] == 4
            assert counts["generated"] == 1

    def test_source_cache_untouched(self):
        cache = make_cache(2)
        snapshot = cache.total_entries()
        plan = discard_decision(DegradationProfile(per_layer_sim=np.zeros(2)), 1.0)
        apply_discard(cache, plan)
        assert cache.total_entries() == snapshot

    def test_length_mismatch_rejected(self):
        cache = make_cache(2)
        plan = discard_decision(DegradationProfile(per_layer_sim=np.zeros(3)), 1.0)
        with pytest.raises(ShapeMismatchError):
            apply_discard(cache, plan)


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


class TestMrMetric:
    def test_no_discard_is_one(self):
        cache = make_cache(3)
        assert mr_metric(cache, cache) == 1.0

    def test_sixty_percent_visual_all_discarded(self):
        # 12 of 20 entries are visual; discarding them all leaves 8/20 = 0.4
        cache = make_cache(5, seq_len=20, visual=(4, 16))
        plan = discard_decision(DegradationProfile(per_layer_sim=np.zeros(5)), 1.0)
        after = apply_discard(cache, plan)
        assert mr_metric(cache, after) == 0.4

    def test_mixed_plan_hand_count(self):
        cache = make_cache(4, seq_len=10, visual=(2, 6))
        prof = DegradationProfile(per_layer_sim=np.array([0.5, 0.1, 0.5, 0.1]))
        after = apply_discard(cache, discard_decision(prof, 0.2))
        assert mr_metric(cache, after) == (10 + 6 + 10 + 6) / 40

    def test_layer_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mr_metric(make_cache(2), make_cache(3))


class TestMaskDiscard:
    def test_masked_positions_match_removal(self):
        cache = make_cache(3, seq_len=10, visual=(2, 6))
        prof = DegradationProfile(per_layer_sim=np.array([0.1, 0.9, 0.1]))
        plan = discard_decision(prof, 0.2)
        removed = apply_discard(cache, plan)
        removed.layers = [reencode_positions(l) for l in removed.layers]
        masked = mask_discard(cache, plan)
        for rem, msk in zip(removed.layers, masked.layers):
            keep = msk.active
            assert np.array_equal(msk.position_ids[keep], rem.position_ids)
            assert np.array_equal(msk.keys[keep], rem.keys)
            assert msk.active_count() == len(rem)
            assert msk.next_position() == rem.next_position()
