"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sharpv  # noqa: E402
import spans as tracing  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(tmp_path, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", "smoke", "--seconds", "0.3",
           "--results", str(tmp_path), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_inputs():
    wl = worker.WORKLOADS["smoke"]
    spec = sharpv.SyntheticVideoSpec(n=wl.n, f=wl.f, d=worker.D, seed=worker.DEFAULT_SEED,
                                     pattern=sharpv.parse_pattern(wl.pattern))
    system, instruction = sharpv.gen_prompt_embeddings(
        worker.DEFAULT_SEED, worker.SYSTEM_LEN, worker.INSTRUCTION_LEN, worker.D)
    config = sharpv.PipelineConfig(mode=wl.mode, manual_threshold=wl.k,
                                   degradation_threshold=wl.m,
                                   decode_steps=wl.decode_steps)
    return (sharpv.init_decoder(sharpv.DecoderConfig()), sharpv.gen_synthetic_video(spec),
            sharpv.PromptEmbeddings(system, instruction), config)


def expected_checker():
    expected = json.loads((HERE / "expected" / "smoke.json").read_text())
    return worker.Checker(expected, worker.WORKLOADS["smoke"].decode_steps,
                          sharpv.validate_report)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(tmp_path, trace, section):
    done = run_benchmark(tmp_path, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    units = worker.LAYER_UNITS if trace else worker.E2E_UNITS
    assert units == want
    record = json.loads((tmp_path / f"smoke-seed0-trace{trace}.json").read_text())
    assert record["correctness"]["checked_against_expected"]
    assert {"git_sha", "numpy", "blas", "blas_threads", "cpu_count", "python"} <= set(
        record["environment"])
    assert record["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_end_to_end_metrics_are_never_zero(tmp_path):
    done = run_benchmark(tmp_path)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_benchmark(tmp_path / "out", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_gate_accepts_expected_report_and_counts_a_flipped_token():
    inputs = smoke_inputs()
    tokens, report = sharpv.run_pipeline(*inputs)
    checker = expected_checker()
    assert checker.check((tokens, report))

    flipped = list(report.generated_tokens)
    flipped[-1] = (flipped[-1] + 1) % 256
    assert not checker.check((flipped, dataclasses.replace(report, generated_tokens=flipped)))
    assert not checker.check(RuntimeError("boom"))
    assert (checker.attempted, checker.failed) == (3, 2)


def test_gate_float_tolerance_is_relative_1e9():
    _, report = sharpv.run_pipeline(*smoke_inputs())
    sims = list(report.per_layer_sim)
    checker = expected_checker()
    near = [sims[0] * (1 + 1e-12)] + sims[1:]
    assert checker.check((report.generated_tokens, dataclasses.replace(report, per_layer_sim=near)))
    far = [sims[0] * (1 + 1e-6)] + sims[1:]
    assert not checker.check((report.generated_tokens, dataclasses.replace(report, per_layer_sim=far)))


def test_traced_self_times_add_up_to_the_request():
    inputs = smoke_inputs()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for request in range(2):
            tracer.call_request(request, sharpv.run_pipeline, *inputs)
    finally:
        tracer.uninstall()
    assert sharpv.pipeline.prune_video is sharpv.prune_video  # restored
    own = tracing.self_times(tracer.spans)
    by_request = tracing.per_request(tracer.spans, own)
    total = tracing.per_request(tracer.spans, [s[2] - s[1] for s in tracer.spans])
    for request in range(2):
        summed = sum(v.get(request, 0.0) for v in by_request.values())
        assert summed == pytest.approx(total[tracing.REQUEST][request], rel=1e-9)
    names = {s[0] for s in tracer.spans}
    assert names == {*tracing.TRACED, tracing.REQUEST}
    assert all(s[3] >= 0 for s in tracer.spans if s[0] != tracing.REQUEST)


def test_missing_traced_name_records_zero_calls(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "memory.gone", ("sharpv.pipeline", "no_such_function"))
    monkeypatch.setitem(tracing.TRACED, "decoder.gone", ("sharpv.decoder", "NoClass.method"))
    tracer = tracing.Tracer()
    assert tracer.missing == ["memory.gone", "decoder.gone"]
    tracer.install()
    try:
        tracer.call_request(0, sharpv.run_pipeline, *smoke_inputs())
    finally:
        tracer.uninstall()
    assert not any(s[0].endswith(".gone") for s in tracer.spans)


def test_append_bytes_tells_a_copy_from_an_in_place_write():
    layer = sharpv.KVCacheLayer(keys=np.zeros((3, 2, 4)), values=np.zeros((3, 2, 4)),
                                position_ids=np.arange(3), segment_tags=np.zeros(3, np.uint8))
    before = tracing.layer_owners(layer)
    layer.append(np.ones((2, 4)), np.ones((2, 4)), sharpv.Segment.GENERATED, 3)
    # concatenation reallocates every array: all of them count
    assert tracing.append_bytes(layer, before) == 2 * 4 * 2 * 4 * 8 + 4 * 8 + 4

    buffer = np.zeros((8, 2, 4))
    layer.keys = buffer[:4]
    before = tracing.layer_owners(layer)
    layer.keys = buffer[:5]  # same memory owner: only the new row was written
    # untouched arrays keep their owner too, so each counts one row
    assert tracing.append_bytes(layer, before) == 2 * 4 * 8 + 2 * 4 * 8 + 8 + 1


def test_tail_keeps_at_least_ten_samples_beyond():
    assert worker.tail(list(range(1, 41))) == (30, 75.0, 10)
    assert worker.tail(list(range(1, 201))) == (180, 90.0, 20)
    assert worker.tail([5.0, 1.0]) == (5.0, 100.0, 0)
