"""One benchmark run: set up a workload, call run_pipeline back to back, report.

Started by run.py in a fresh process whose BLAS thread count is already
pinned. The load is a closed loop with one client: the next request is
sent when the previous one returns, with no concurrency and no arrival
rate. With --trace 0 every request is timed plainly and the end-to-end
metrics are reported; with --trace 1 plain and traced requests alternate,
the per-layer metrics come from the traced ones and the gap between the
two is the tracing overhead.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; a results file with the
environment, sample counts and correctness details is written under
--results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
SETUP_REPEATS = 5  # set-up is repeated and its median reported
WARMUP_SECONDS = 1.0  # untimed requests before the measured loop
FLOAT_REL_TOL = 1e-9  # same rule as tests/golden/run_report.json

D = 64
SYSTEM_LEN = 4
INSTRUCTION_LEN = 8


@dataclass(frozen=True)
class Workload:
    pattern: str
    n: int
    f: int
    mode: str
    k: float
    decode_steps: int
    m: float = 0.2  # degradation threshold


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    # Long prompt (T=1062): dense (H,T,T) prefill attention dominates.
    "prefill_long": Workload("uniform:0.5", 64, 64, "adaptive", 1.6, 8),
    # Short prompt, 256 greedy steps: decode_step and KV append dominate;
    # also the manual-threshold branch of the pruner. K=2.2 keeps 45-47
    # visual tokens on every seed tried (K=1.9 kept 59-90), so the prompt
    # length does not move with the seed.
    "decode_long": Workload("uniform:0.5", 16, 32, "manual", 2.2, 256),
    # 73,728 visual tokens prune to 128: stage-1 scoring and top-k dominate.
    # Runnable, but not in BENCHMARK.json (see README.md, Steadiness).
    # m=-1 lets stage 2 profile and plan but never discard; at m=0.2 the
    # evicted layers varied with the seed (none to three of them).
    "static_scene": Workload("static", 128, 576, "adaptive", 1.6, 8, m=-1.0),
    # Tiny size for the benchmark's own tests; not in BENCHMARK.json.
    "smoke": Workload("uniform:0.5", 4, 8, "adaptive", 1.6, 4),
}

E2E_UNITS = {
    "setup_s": "s",
    "ttft_ms_mean": "ms",
    "tpot_ms_mean": "ms",
    "request_ms_mean": "ms",
    "request_ms_tail": "ms",
    "visual_tokens_per_s": "tok/s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

LAYER_UNITS = {
    "pruner.prune_video.ms_p50": "ms",
    "pruner.vr": "ratio",
    "decoder.prefill.ms_p50": "ms",
    "decoder.prefill.tokens": "count",
    "decoder.prefill.peak_mb": "MiB",
    "decoder.decode_step.ms_p50": "ms",
    "decoder.decode_step.ms_p99": "ms",
    "cache.append.us_p50": "us",
    "cache.append.bytes_copied": "bytes/request",
    "memory.degradation_profile.ms_p50": "ms",
    "memory.evict.ms_p50": "ms",
    "memory.discarded_layers": "count",
    "memory.mr": "ratio",
    "cache.kv_bytes_before": "bytes",
    "cache.kv_bytes_after": "bytes",
    "pipeline.run_pipeline.self_ms_p50": "ms",
    "synth.gen_synthetic_video.ms": "ms",
    "tensorio.read_video.ms": "ms",
    "trace.overhead_pct": "%",
}

EVICT_SPANS = ("memory.discard_decision", "memory.apply_discard", "memory.reencode_positions")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(HERE / "results"),
                   help="directory for the results file (and spans with --trace 1)")
    p.add_argument("--record-expected", action="store_true",
                   help="write this run's report as the expected one for the workload "
                        f"(only at --seed {DEFAULT_SEED})")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.record_expected and args.seed != DEFAULT_SEED:
        p.error(f"--record-expected needs --seed {DEFAULT_SEED}")
    return args


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the 90th percentile, lowered
    below 100 samples so that ten samples lie beyond it; the maximum if
    there are ten or fewer.

    Capping at p90 keeps at least a tenth of the samples beyond the tail
    value, which steadies it against bursts of host contention that an
    11th-slowest request on a long run would track.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    beyond = max(10, n // 10)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def mismatches(got, want, path="report") -> list[str]:
    """Paths where got differs from want: floats by FLOAT_REL_TOL, all else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (got, want))
        if numbers and math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


class Checker:
    """Counts failed requests: a request fails if it raises, if its report
    is invalid, or if its comparable report differs from the reference.

    The reference is the committed expected report at the default seed;
    at any other seed it is the first request of the run, so every request
    of a run must agree.
    """

    def __init__(self, expected: dict | None, decode_steps: int, validate):
        self.reference = expected
        self.checked_expected = expected is not None
        self.decode_steps = decode_steps
        self.validate = validate
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outcome) -> bool:
        """outcome is (tokens, report) or the exception the request raised."""
        self.attempted += 1
        problems = self._problems(outcome)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"request {self.attempted - 1}: " + "; ".join(problems[:5]))
        return not problems

    def _problems(self, outcome) -> list[str]:
        if isinstance(outcome, BaseException):
            return [f"raised {outcome!r}"]
        tokens, report = outcome
        try:
            self.validate(report)
        except Exception as exc:  # any invariant failure counts against the request
            return [f"invalid report: {exc!r}"]
        got = report.comparable_dict()
        if list(tokens) != got["generated_tokens"] or len(tokens) != self.decode_steps:
            return ["returned tokens disagree with the report or the step count"]
        if self.reference is None:
            self.reference = json.loads(json.dumps(got))
            return []
        return mismatches(got, self.reference)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(ROOT / "src"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _git_sha() -> str | None:
    # The checkout the benchmark runs in need not be a git repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*.py") if "__pycache__" not in p.parts):
        h.update(path.relative_to(top).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(sharpv, wl: Workload, seed: int, scratch: Path):
    """Build the decoder and this seed's inputs; the video goes through a
    SHRPVID1 file, as `sharpv run --in` reads it. Returns the inputs and
    the time of each step."""
    t0 = time.perf_counter()
    decoder = sharpv.init_decoder(sharpv.DecoderConfig())
    t1 = time.perf_counter()
    spec = sharpv.SyntheticVideoSpec(n=wl.n, f=wl.f, d=D, seed=seed,
                                     pattern=sharpv.parse_pattern(wl.pattern))
    generated = sharpv.gen_synthetic_video(spec)
    t2 = time.perf_counter()
    sharpv.write_video(scratch, generated)
    t3 = time.perf_counter()
    video = sharpv.read_video(scratch)
    t4 = time.perf_counter()
    system, instruction = sharpv.gen_prompt_embeddings(seed, SYSTEM_LEN, INSTRUCTION_LEN, D)
    prompt = sharpv.PromptEmbeddings(system, instruction)
    config = sharpv.PipelineConfig(mode=wl.mode, manual_threshold=wl.k,
                                   degradation_threshold=wl.m,
                                   decode_steps=wl.decode_steps)
    t5 = time.perf_counter()
    times = {"init_decoder": t1 - t0, "gen_synthetic_video": t2 - t1,
             "write_video": t3 - t2, "read_video": t4 - t3, "prompt_and_config": t5 - t4,
             "total": t5 - t0}
    return (decoder, video, prompt, config), times


def timed_call(fn, *args):
    """(outcome, seconds); the outcome is the exception if the call raised."""
    start = time.perf_counter()
    try:
        outcome = fn(*args)
    except Exception as exc:  # a failed request is counted, not fatal
        outcome = exc
    return outcome, time.perf_counter() - start


def prefill_peak_mib(tracing, run, inputs) -> float:
    """tracemalloc peak inside Decoder.prefill during one request."""
    found = tracing.resolve(tracing.TRACED["decoder.prefill"])
    if found is None:
        return 0.0
    owner, attr, original = found
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    setattr(owner, attr, measured)
    try:
        run(*inputs)
    finally:
        setattr(owner, attr, original)
    return max(peaks, default=0) / 2**20


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]

    t_import = time.perf_counter()
    import sharpv
    import spans as tracing
    import_s = time.perf_counter() - t_import

    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = results_dir / f".{stem}-{os.getpid()}.shrpvid"
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            inputs, times = set_up(sharpv, wl, args.seed, scratch)
            setups.append(times)
    finally:
        scratch.unlink(missing_ok=True)
    setup_s = import_s + median([s["total"] for s in setups])

    expected_path = HERE / "expected" / f"{args.workload}.json"
    expected = None
    if args.seed == DEFAULT_SEED and not args.record_expected and expected_path.is_file():
        expected = json.loads(expected_path.read_text())
    checker = Checker(expected, wl.decode_steps, sharpv.validate_report)
    run = sharpv.run_pipeline

    prefill_peak = prefill_peak_mib(tracing, run, inputs) if args.trace else None
    warm_end = time.perf_counter() + WARMUP_SECONDS
    while True:
        checker.check(timed_call(run, *inputs)[0])
        if time.perf_counter() >= warm_end:
            break
    if args.record_expected and checker.failed == 0:
        expected_path.parent.mkdir(exist_ok=True)
        expected_path.write_text(json.dumps(checker.reference, indent=1, sort_keys=True) + "\n")

    tracer = tracing.Tracer() if args.trace else None
    plain, plain_reports, traced_reports = [], [], {}
    deadline = time.perf_counter() + args.seconds
    request = 0
    while True:
        if tracer is not None and request % 2 == 1:
            tracer.install()
            try:
                outcome, seconds = timed_call(tracer.call_request, request, run, *inputs)
            finally:
                tracer.uninstall()
            if checker.check(outcome):
                traced_reports[request] = outcome[1]
        else:
            outcome, seconds = timed_call(run, *inputs)
            if checker.check(outcome):
                plain.append(seconds)
                plain_reports.append(outcome[1])
        request += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    visual_tokens = wl.n * wl.f
    tail_ms, tail_pct, tail_beyond = tail(plain) if plain else (0.0, 0.0, 0)
    e2e = {
        "setup_s": setup_s,
        "ttft_ms_mean": 1e3 * mean([r.ttft_seconds for r in plain_reports]),
        "tpot_ms_mean": 1e3 * mean([r.tpot_seconds for r in plain_reports]),
        "request_ms_mean": 1e3 * mean(plain),
        "request_ms_tail": 1e3 * tail_ms,
        "visual_tokens_per_s": visual_tokens * len(plain) / sum(plain) if plain else 0.0,
        "peak_rss_mb": peak_rss_mib,
        "success_rate": (checker.attempted - checker.failed) / checker.attempted,
    }
    details = {
        "requests_timed": len(plain),
        "p50_ms": {"ttft": 1e3 * median([r.ttft_seconds for r in plain_reports]),
                   "tpot": 1e3 * median([r.tpot_seconds for r in plain_reports]),
                   "request": 1e3 * median(plain)},
        "requests_traced": len(traced_reports),
        "request_ms_tail": {"percentile": tail_pct, "samples": len(plain),
                            "samples_beyond": tail_beyond},
        "error_rate": checker.failed / checker.attempted,
        "request_ms": [round(1e3 * x, 4) for x in plain],
        "ttft_ms": [round(1e3 * r.ttft_seconds, 4) for r in plain_reports],
        "tpot_ms": [round(1e3 * r.tpot_seconds, 4) for r in plain_reports],
        "setup_import_s": import_s,
        "setup_repeats_s": setups,
    }

    layer = dict.fromkeys(LAYER_UNITS, 0.0)
    if tracer is not None and traced_reports:
        layer, layer_details = layer_metrics(tracing, tracer, traced_reports, plain, setups)
        details.update(layer_details)
        tracer.write(results_dir / f"{stem}-spans.jsonl")
        details["spans_file"] = f"{stem}-spans.jsonl"
        details["prefill_peak_note"] = "tracemalloc peak inside one Decoder.prefill call"
        layer["decoder.prefill.peak_mb"] = prefill_peak

    metrics = layer if args.trace else e2e
    units = LAYER_UNITS if args.trace else E2E_UNITS
    correct = checker.failed == 0 and checker.attempted > 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "parameters": {**vars(wl), "d": D, "system_len": SYSTEM_LEN,
                       "instruction_len": INSTRUCTION_LEN},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "correctness": {"checked_against_expected": checker.checked_expected,
                        "problems": checker.problems},
        "details": details,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in result["metrics"].items():
        print(f"{args.workload:>13} {name:<36} {m['value']:>14.6g} {m['unit']}")
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def layer_metrics(tracing, tracer, reports, plain, setups):
    """Per-layer metrics from the spans of the traced requests; ``reports``
    maps each successful traced request id to its report."""
    spans = tracer.spans
    durations = {}
    for s in spans:
        durations.setdefault(s[0], []).append(s[2] - s[1])
    own = tracing.self_times(spans)
    self_by_request = tracing.per_request(spans, own)
    incl_by_request = tracing.per_request(spans, [s[2] - s[1] for s in spans])
    copied = tracing.per_request(spans, [s[5] or 0 for s in spans])["cache.append"]

    def ms_p50(name):
        return 1e3 * median(durations.get(name, []))

    evict = [sum(incl_by_request[n].get(r, 0.0) for n in EVICT_SPANS)
             for r in incl_by_request[tracing.REQUEST]]
    last = reports[max(reports)]
    traced_p50 = median(durations.get(tracing.REQUEST, []))
    plain_p50 = median(plain)
    metrics = {
        "pruner.prune_video.ms_p50": ms_p50("pruner.prune_video"),
        "pruner.vr": last.vr,
        "decoder.prefill.ms_p50": ms_p50("decoder.prefill"),
        "decoder.prefill.tokens": sum(last.per_frame_keep_counts) + SYSTEM_LEN + INSTRUCTION_LEN,
        "decoder.decode_step.ms_p50": ms_p50("decoder.decode_step"),
        "decoder.decode_step.ms_p99": 1e3 * percentile(durations.get("decoder.decode_step", []), 99),
        "cache.append.us_p50": 1e6 * median(durations.get("cache.append", [])),
        "cache.append.bytes_copied": median(list(copied.values())),
        "memory.degradation_profile.ms_p50": ms_p50("memory.degradation_profile"),
        "memory.evict.ms_p50": 1e3 * median(evict),
        "memory.discarded_layers": len(last.discarded_layers),
        "memory.mr": last.mr,
        "cache.kv_bytes_before": last.cache_bytes_before,
        "cache.kv_bytes_after": last.cache_bytes_after,
        "pipeline.run_pipeline.self_ms_p50":
            1e3 * median(list(self_by_request[tracing.REQUEST].values())),
        "synth.gen_synthetic_video.ms": 1e3 * median([s["gen_synthetic_video"] for s in setups]),
        "tensorio.read_video.ms": 1e3 * median([s["read_video"] for s in setups]),
        "trace.overhead_pct": 100.0 * (traced_p50 / plain_p50 - 1.0) if plain_p50 else 0.0,
    }
    # Median share of each request's time spent in each span's own code;
    # the shares of one request add up to 1 by construction.
    request_s = incl_by_request[tracing.REQUEST]
    shares = {name: median([by_req.get(r, 0.0) / request_s[r] for r in reports])
              for name, by_req in self_by_request.items()}
    ttft_shares = {
        name: median([incl_by_request[name].get(r, 0.0) / rep.ttft_seconds
                      for r, rep in reports.items()])
        for name in ("pruner.prune_video", "decoder.prefill")
    }
    details = {
        "span_calls": {name: len(durations.get(name, [])) for name in (*tracing.TRACED, tracing.REQUEST)},
        "spans_missing": tracer.missing,
        "self_ms_p50": {name: 1e3 * median(list(v.values())) for name, v in self_by_request.items()},
        "self_share_of_request_p50": shares,
        "inclusive_share_of_ttft_p50": ttft_shares,
        "bytes_copied_note": "computed from the layer's array sizes at append time: a whole "
                             "array when its memory owner changed, else one entry's row",
    }
    return metrics, details


if __name__ == "__main__":
    sys.exit(main())
