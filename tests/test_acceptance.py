"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
Tolerances are pinned in the assertions; a failure here means a shipped
behavior regressed, not that a unit drifted.
"""

import math
import time

import numpy as np
import pytest

from sharpv.bench import cache_bytes_linear, cache_bytes_table, scoring_cost_scaling
from sharpv.cache import SegmentedSequence
from sharpv.decoder import Decoder, DecoderConfig
from sharpv.memory import (
    DegradationProfile,
    DiscardPlan,
    apply_discard,
    discard_decision,
    mask_discard,
    mr_metric,
    reencode_positions,
)
from sharpv.pipeline import PipelineConfig, PromptEmbeddings, baseline_generate, run_pipeline
from sharpv.pruner import (
    MODE_MANUAL,
    PrunerConfig,
    VideoTokens,
    frame_thresholds,
    prune_video,
    importance_maps,
)
from sharpv.synth import SyntheticVideoSpec, gen_prompt_embeddings, gen_synthetic_video, parse_pattern
from sharpv.vecmath import cosine_sim, dissim

import reference_pruner as ref


def _verdict(number, name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number:>2}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _toy_inputs(pattern="uniform:0.5", n=8, f=16, d=64, seed=42):
    video = gen_synthetic_video(
        SyntheticVideoSpec(n=n, f=f, d=d, seed=seed, pattern=parse_pattern(pattern))
    )
    system, instruction = gen_prompt_embeddings(seed, 4, 8, d)
    return video, PromptEmbeddings(system, instruction)


def test_c01_dissimilarity_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 129))
        a, b = rng.standard_normal(d), rng.standard_normal(d)
        dv = dissim(a, b)
        cv = cosine_sim(a, b)
        if not 0.0 <= dv <= 2.0:
            _verdict(1, "dissimilarity identity", False, f"dissim {dv} out of [0,2]")
        worst = max(worst, abs(dv * dv - (2.0 - 2.0 * cv)))
    elapsed = time.perf_counter() - start
    _verdict(
        1, "dissimilarity identity",
        worst <= 1e-9 and elapsed < 1.0,
        f"max |d^2-(2-2cos)| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_threshold_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(102)

    # static: every frame equals its predecessor -> thresholds exactly 0
    frame = rng.standard_normal((6, 8))
    static = VideoTokens(4, 6, 8, np.tile(frame, (4, 1)))
    thr_static = frame_thresholds(*importance_maps(static))
    static_ok = (thr_static[1:] == 0.0).all()

    # antipodal unit tokens: every frame flips sign -> thresholds exactly 1
    base = np.eye(6, 8)
    anti = VideoTokens(4, 6, 8, np.vstack([base, -base, base, -base]))
    thr_anti = frame_thresholds(*importance_maps(anti))
    anti_ok = np.allclose(thr_anti[1:], 1.0, atol=1e-9)

    bounds_ok = True
    for _ in range(200):
        n, f, d = int(rng.integers(1, 9)), int(rng.integers(1, 17)), int(rng.integers(1, 33))
        v = VideoTokens(n, f, d, rng.standard_normal((n * f, d)))
        thr = frame_thresholds(*importance_maps(v))
        bounds_ok &= bool(((thr >= 0.0) & (thr <= 1.0)).all())
    elapsed = time.perf_counter() - start
    _verdict(
        2, "threshold bounds",
        static_ok and anti_ok and bounds_ok and elapsed < 5.0,
        f"static exact-0 {static_ok}, antipodal 1±1e-9 {anti_ok}, "
        f"200 videos in [0,1] {bounds_ok}, {elapsed:.2f}s",
    )


def test_c03_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng([103, seed])
        n = int(rng.integers(1, 9))
        f = int(rng.integers(1, 17))
        d = int(rng.integers(2, 33))
        v = VideoTokens(n, f, d, rng.standard_normal((n * f, d)))
        frames = [[list(tok) for tok in v.frame(t)] for t in range(n)]

        _, _, adaptive = prune_video(v, PrunerConfig(spatial_weight=1.0))
        _, _, kept_a = ref.prune(frames, 1.0, "adaptive")
        if [list(k) for k in adaptive.kept_indices] != kept_a:
            mismatches += 1

        _, _, manual = prune_video(v, PrunerConfig(mode=MODE_MANUAL, manual_threshold=1.6))
        _, _, kept_m = ref.prune(frames, 1.0, "manual", 1.6)
        if [list(k) for k in manual.kept_indices] != kept_m:
            mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(
        3, "oracle equivalence (both modes, 50 videos)",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )


def test_c04_scale_invariance():
    rng = np.random.default_rng(104)
    failures = 0
    for _ in range(20):
        n, f, d = int(rng.integers(1, 7)), int(rng.integers(2, 13)), int(rng.integers(2, 25))
        v = VideoTokens(n, f, d, rng.standard_normal((n * f, d)))
        alpha = float(10.0 ** rng.uniform(-3, 3))
        scaled = VideoTokens(n, f, d, v.data * alpha)
        _, _, p1 = prune_video(v, PrunerConfig())
        _, _, p2 = prune_video(scaled, PrunerConfig())
        same = (
            np.allclose(p1.thresholds, p2.thresholds, atol=1e-9)
            and np.array_equal(p1.keep_counts, p2.keep_counts)
            and all(np.array_equal(a, b) for a, b in zip(p1.kept_indices, p2.kept_indices))
        )
        failures += not same
    _verdict(
        4, "scale invariance of retention plans",
        failures == 0, f"{failures}/20 trials changed",
    )


def test_c05_noop_identity():
    decoder = Decoder(DecoderConfig())
    video, prompt = _toy_inputs()
    config = PipelineConfig(
        mode="manual", manual_threshold=0.0, degradation_threshold=-1.0, decode_steps=16
    )
    tokens, report = run_pipeline(decoder, video, prompt, config)
    base = baseline_generate(decoder, video, prompt, 16)
    _verdict(
        5, "no-op pipeline is bit-identical to baseline",
        tokens == base and report.vr == 1.0 and report.mr == 1.0,
        f"tokens equal {tokens == base}, vr {report.vr}, mr {report.mr}",
    )


def test_c06_masking_vs_removal():
    decoder = Decoder(DecoderConfig(layers=8, model_dim=64, heads=4, mlp_dim=256, vocab=64, seed=0))
    rng = np.random.default_rng(106)
    spans = SegmentedSequence(system_len=4, visual_len=24, instruction_len=6)
    worst = 0.0
    for trial in range(20):
        embedded = rng.standard_normal((spans.total_len, 64))
        plan = DiscardPlan(
            per_layer=rng.random(8) < 0.5, threshold=float("nan")
        )
        removed = apply_discard(decoder.prefill(embedded, spans).cache, plan)
        removed.layers = [reencode_positions(l) for l in removed.layers]
        masked = mask_discard(decoder.prefill(embedded, spans).cache, plan)
        tok = int(rng.integers(0, 64))
        for _ in range(3):
            logits_r, _ = decoder.decode_step(removed, decoder.embedding[tok])
            logits_m, _ = decoder.decode_step(masked, decoder.embedding[tok])
            worst = max(worst, float(np.max(np.abs(logits_r - logits_m))))
            tok = int(np.argmax(logits_r))
    _verdict(
        6, "discard == masking (20 random plans, L=8 d=64)",
        worst <= 1e-5, f"max |logit diff| = {worst:.2e}",
    )


def test_c07_mr_arithmetic():
    # 60% visual span, every layer discarded -> exactly 0.4 retained
    heads, head_dim = 2, 4
    layers = []
    spans = SegmentedSequence(system_len=4, visual_len=12, instruction_len=4)
    rng = np.random.default_rng(107)
    from sharpv.cache import KVCacheLayer, LayeredKVCache

    for _ in range(5):
        layers.append(KVCacheLayer(
            keys=rng.standard_normal((20, heads, head_dim)),
            values=rng.standard_normal((20, heads, head_dim)),
            position_ids=np.arange(20, dtype=np.int64),
            segment_tags=spans.tags(),
        ))
    cache = LayeredKVCache(layers=layers)
    all_true = DiscardPlan(per_layer=np.ones(5, dtype=bool), threshold=1.0)
    after = apply_discard(cache, all_true)
    exact = mr_metric(cache, after)

    # monotone discard sets over the threshold sweep, on a real profile
    decoder = Decoder(DecoderConfig())
    video, prompt = _toy_inputs()
    from sharpv.memory import degradation_profile

    embedded = np.vstack([prompt.system, video.data, prompt.instruction])
    full_spans = SegmentedSequence(
        system_len=4, visual_len=video.data.shape[0], instruction_len=8
    )
    prefill = decoder.prefill(embedded, full_spans)
    profile = degradation_profile(prefill.trace, embedded, full_spans)
    previous, monotone = set(), True
    mrs = []
    for m in (-1.0, 0.0, 0.1, 0.2, 0.4, 1.0):
        plan = discard_decision(profile, m)
        current = set(plan.discarded_layers())
        monotone &= previous <= current
        previous = current
        swept = apply_discard(prefill.cache, plan)
        mrs.append(mr_metric(prefill.cache, swept))
    non_increasing = all(a >= b for a, b in zip(mrs, mrs[1:]))
    _verdict(
        7, "mr arithmetic and monotone threshold sweep",
        exact == 0.4 and monotone and non_increasing,
        f"60% visual all-discard mr = {exact}, discard sets nested {monotone}, "
        f"mr non-increasing {non_increasing}",
    )


def test_c08_token_budget():
    decoder = Decoder(DecoderConfig())
    exact = True
    for pattern in ("static", "uniform:0.5", "burst:2,5"):
        for mode, k in (("adaptive", 1.6), ("manual", 1.6)):
            for m in (-1.0, 0.2, 1.0):
                video, prompt = _toy_inputs(pattern=pattern)
                config = PipelineConfig(
                    mode=mode, manual_threshold=k, degradation_threshold=m, decode_steps=2
                )
                _, report = run_pipeline(decoder, video, prompt, config)
                exact &= report.token_budget == report.vr * report.mr
    _verdict(8, "token budget == vr*mr in every run", exact)


def test_c09_complexity_scaling():
    start = time.perf_counter()
    # sizes chosen so every working set stays inside the L2 cache: once a
    # size spills to a slower memory tier the ratio measures the memory
    # hierarchy, not the algorithm
    base = (8, 16, 64)
    sizes = [base, (8, 32, 64), (8, 16, 128)]  # 2x tokens, then 2x dim
    rows = scoring_cost_scaling(sizes, repeats=100, seed=109)
    t0 = rows[0]["median_seconds"]
    ratio_tokens = rows[1]["median_seconds"] / t0
    ratio_dim = rows[2]["median_seconds"] / t0

    cache_rows = cache_bytes_table([64, 128, 256, 512])
    linear = cache_bytes_linear(cache_rows)
    elapsed = time.perf_counter() - start
    _verdict(
        9, "scoring time scales (<=2.5x per doubling), cache bytes linear",
        ratio_tokens <= 2.5 and ratio_dim <= 2.5 and linear and elapsed < 60.0,
        f"2x tokens -> {ratio_tokens:.2f}x, 2x dim -> {ratio_dim:.2f}x, "
        f"linear {linear}, {elapsed:.1f}s",
    )


def test_c10_api_surface_audit():
    import inspect

    import sharpv.cache as cache_mod
    import sharpv.memory as memory_mod
    import sharpv.pruner as pruner_mod

    forbidden = ("attention", "attn")
    offenders = []
    for mod in (pruner_mod, memory_mod, cache_mod):
        for name in dir(mod):
            if name.startswith("_"):
                continue
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # re-exports from elsewhere
            if any(tok in name.lower() for tok in forbidden):
                offenders.append(f"{mod.__name__}.{name}")
            if inspect.isfunction(obj):
                for param in inspect.signature(obj).parameters:
                    if any(tok in param.lower() for tok in forbidden):
                        offenders.append(f"{mod.__name__}.{name}({param})")
            if inspect.isclass(obj):
                for field in getattr(obj, "__dataclass_fields__", {}):
                    if any(tok in field.lower() for tok in forbidden):
                        offenders.append(f"{mod.__name__}.{name}.{field}")
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_"):
                        continue
                    for param in inspect.signature(meth).parameters:
                        if any(tok in param.lower() for tok in forbidden):
                            offenders.append(f"{mod.__name__}.{name}.{meth_name}({param})")
    _verdict(
        10, "pruning APIs take no attention weights",
        not offenders, f"offenders: {offenders}" if offenders else "surface clean",
    )


def test_c11_synthetic_closed_form():
    worst = 0.0
    for rate in (0.1, 0.5, 1.0, 2.0):
        video = gen_synthetic_video(
            SyntheticVideoSpec(n=6, f=9, d=16, seed=111, pattern=parse_pattern(f"uniform:{rate}"))
        )
        thr = frame_thresholds(*importance_maps(video))
        expected = math.sin(rate / 2.0)
        worst = max(worst, float(np.max(np.abs(thr[1:] - expected))))
    _verdict(
        11, "uniform-motion thresholds equal sin(rate/2)",
        worst <= 1e-6, f"max deviation {worst:.2e}",
    )
