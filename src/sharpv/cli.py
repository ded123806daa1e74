"""Command-line harness: run the pipeline, generate inputs, benchmark.

    sharpv run   [--pattern P] [--n N] [--f F] [--d D] [--seed S]
                 [--mode adaptive|manual] [--w W] [--k K] [--m M]
                 [--decode-steps T] [--in video.svt] [--out report.json]
                 [--config cfg.json]
    sharpv gen   --out video.svt [--pattern P] [--n N] [--f F] [--d D]
                 [--seed S] [--config cfg.json]
    sharpv bench [--n N] [--f F] [--d D] [--seed S] [--scales 1,2,4]
                 [--repeats R] [--out table.json] [--config cfg.json]

Settings resolve as defaults < JSON config file < command-line flags.
The config file is a flat JSON object; unknown keys are rejected, and so
are keys the command does not read (`gen` reads pattern, n, f, d and
seed; `bench` reads n, f, d and seed; `run --in` takes n, f and d from
the file and reads no pattern, so it rejects all four, as flags too, and
echoes no pattern in the report's config). Keys
without a flag (system_len, instruction_len, layers, heads, mlp_dim,
vocab, max_positions, decoder_seed) are settable only via the file.

The harness only parses arguments, calls the library and emits. Decoder
and pipeline defaults are ``DecoderConfig``'s and ``PipelineConfig``'s,
and the bench ladder's defaults and input checks are in ``bench``. The
video and prompt defaults (pattern, n, f, seed, prompt lengths) live
here, their only user.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format
error, 4 report invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace

from . import bench as bench_mod
from .decoder import Decoder, DecoderConfig
from .errors import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    InvariantViolation,
    PositionOverflowError,
    ShapeMismatchError,
    TensorFormatError,
)
from .pipeline import PipelineConfig, PromptEmbeddings, run_pipeline
from .pruner import VideoTokens
from .synth import (
    SyntheticVideoSpec,
    gen_prompt_embeddings,
    gen_synthetic_video,
    parse_pattern,
)
from .tensorio import read_video, write_video


@dataclass(frozen=True)
class HarnessConfig:
    pattern: str = "uniform:0.5"
    n: int = 8
    f: int = 16
    d: int = DecoderConfig.model_dim
    seed: int = 42
    mode: str = PipelineConfig.mode
    w: float = PipelineConfig.spatial_weight
    k: float = PipelineConfig.manual_threshold
    m: float = PipelineConfig.degradation_threshold
    decode_steps: int = PipelineConfig.decode_steps
    system_len: int = 4
    instruction_len: int = 8
    layers: int = DecoderConfig.layers
    heads: int = DecoderConfig.heads
    mlp_dim: int = DecoderConfig.mlp_dim
    vocab: int = DecoderConfig.vocab
    max_positions: int = DecoderConfig.max_positions
    decoder_seed: int = DecoderConfig.seed

    def __post_init__(self):
        if self.seed < 0 or self.decoder_seed < 0:
            raise ConfigError("seeds must be >= 0")
        if self.system_len < 1 or self.instruction_len < 1:
            raise ConfigError("prompt segment lengths must be >= 1")


_INT_FIELDS = {f.name for f in fields(HarnessConfig) if f.type == "int"}
_FLOAT_FIELDS = {f.name for f in fields(HarnessConfig) if f.type == "float"}
_ALL_KEYS = frozenset(f.name for f in fields(HarnessConfig))
# The settings `sharpv gen`, `sharpv bench` and `sharpv run --in` read; a
# config file or flag that sets any other is rejected rather than
# silently ignored.
_GEN_KEYS = frozenset({"pattern", "n", "f", "d", "seed"})
_BENCH_KEYS = frozenset({"n", "f", "d", "seed"})
_RUN_IN_KEYS = _ALL_KEYS - {"pattern", "n", "f", "d"}  # the video comes from the file


def load_config_file(path: str, known=_ALL_KEYS, command="this command") -> dict:
    with open(path, "rb") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"config keys {command} does not read: {', '.join(unknown)}")
    return raw


def resolve_config(
    args: argparse.Namespace, known=_ALL_KEYS, command="this command"
) -> HarnessConfig:
    merged = asdict(HarnessConfig())
    if args.config is not None:
        merged.update(load_config_file(args.config, known, command))
    unread = sorted(f"--{name}" for name in set(merged) - known
                    if getattr(args, name, None) is not None)
    if unread:
        raise ConfigError(f"flags {command} does not read: {', '.join(unread)}")
    for name in merged:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    for name, value in merged.items():
        want = int if name in _INT_FIELDS else float if name in _FLOAT_FIELDS else str
        if want is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"config key {name} must be an integer, got {value!r}")
        if want is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"config key {name} must be a number, got {value!r}")
        if want is str and not isinstance(value, str):
            raise ConfigError(f"config key {name} must be a string, got {value!r}")
        merged[name] = want(value)
    return HarnessConfig(**merged)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _synthetic_video(cfg: HarnessConfig) -> VideoTokens:
    return gen_synthetic_video(SyntheticVideoSpec(
        n=cfg.n, f=cfg.f, d=cfg.d, seed=cfg.seed, pattern=parse_pattern(cfg.pattern)
    ))


def cmd_run(args: argparse.Namespace) -> int:
    if args.in_path is None:
        cfg = resolve_config(args)
        video = _synthetic_video(cfg)
        echo = asdict(cfg)
    else:
        cfg = resolve_config(args, _RUN_IN_KEYS, "run --in")
        video = read_video(args.in_path)
        cfg = replace(cfg, n=video.n, f=video.f, d=video.d)
        echo = asdict(cfg)
        del echo["pattern"]  # never read
    system, instruction = gen_prompt_embeddings(
        cfg.seed, cfg.system_len, cfg.instruction_len, cfg.d
    )
    decoder = Decoder(DecoderConfig(
        layers=cfg.layers, model_dim=cfg.d, heads=cfg.heads, mlp_dim=cfg.mlp_dim,
        vocab=cfg.vocab, seed=cfg.decoder_seed, max_positions=cfg.max_positions,
    ))
    pipe_cfg = PipelineConfig(
        spatial_weight=cfg.w, mode=cfg.mode, manual_threshold=cfg.k,
        degradation_threshold=cfg.m, decode_steps=cfg.decode_steps,
    )
    _, report = run_pipeline(
        decoder, video, PromptEmbeddings(system, instruction), pipe_cfg,
        config_echo=echo,
    )
    _emit(report.to_json(), args.out_path)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.out_path is None:
        raise ConfigError("gen requires --out")
    cfg = resolve_config(args, _GEN_KEYS)
    video = _synthetic_video(cfg)
    write_video(args.out_path, video)
    _emit(json.dumps({
        "written": args.out_path, "n": video.n, "f": video.f, "d": video.d,
        "pattern": cfg.pattern, "seed": cfg.seed,
    }, sort_keys=True), None)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, _BENCH_KEYS)
    try:
        scales = tuple(int(s) for s in args.scales.split(","))
    except ValueError as exc:
        raise ConfigError(f"--scales must be comma-separated integers: {exc}") from exc
    table = bench_mod.run_bench(
        cfg.n, cfg.f, cfg.d, scales=scales, repeats=args.repeats, seed=cfg.seed
    )
    _emit(json.dumps(table, indent=2, sort_keys=True), args.out_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharpv",
        description="Two-stage visual token pruning and KV-cache eviction harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pattern=True, prune_flags=True):
        if pattern:
            p.add_argument("--pattern", help="static | uniform:RATE | burst:I,J | mixed:SEG+SEG")
        p.add_argument("--n", type=int, help="frame count")
        p.add_argument("--f", type=int, help="tokens per frame")
        p.add_argument("--d", type=int, help="embedding dimension")
        p.add_argument("--seed", type=int, help="generation seed")
        if prune_flags:
            p.add_argument("--mode", choices=("adaptive", "manual"))
            p.add_argument("--w", type=float, help="spatial weight in combined importance")
            p.add_argument("--k", type=float, help="manual-mode keep threshold")
            p.add_argument("--m", type=float, help="cache-eviction similarity threshold")
            p.add_argument("--decode-steps", type=int, dest="decode_steps")
        p.add_argument("--out", dest="out_path", help="output path (default stdout)")
        p.add_argument("--config", help="JSON config file")

    run_p = sub.add_parser("run", help="run the full pipeline, print a JSON report")
    common(run_p)
    run_p.add_argument("--in", dest="in_path", help="read video tokens from a tensor file")
    run_p.set_defaults(handler=cmd_run)

    gen_p = sub.add_parser("gen", help="write a synthetic video tensor file")
    common(gen_p, prune_flags=False)
    gen_p.set_defaults(handler=cmd_gen)

    bench_p = sub.add_parser("bench", help="scaling tables for scoring time and cache bytes")
    common(bench_p, pattern=False, prune_flags=False)
    bench_p.add_argument("--scales", default=",".join(map(str, bench_mod.DEFAULT_SCALES)),
                         help="comma-separated size multipliers")
    bench_p.add_argument("--repeats", type=int, default=bench_mod.DEFAULT_REPEATS,
                         help="timing repetitions per size")
    bench_p.set_defaults(handler=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, PositionOverflowError, ShapeMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TensorFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
