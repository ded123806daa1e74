"""Command-line harness: run the pipeline, generate inputs.

    sharpv run [--pattern P] [--n N] [--f F] [--d D] [--seed S]
               [--mode adaptive|manual] [--w W] [--k K] [--m M]
               [--decode-steps T] [--in video.svt] [--out report.json]
               [--config cfg.json]
    sharpv gen --out video.svt [--pattern P] [--n N] [--f F] [--d D]
               [--seed S] [--config cfg.json]

Settings resolve as defaults < JSON config file < command-line flags.
Three tables next to ``HarnessConfig`` say everything about them:
``_TYPES`` (each setting's type, from its annotation), ``_FLAGS`` (the
settings that have a flag) and ``_READS`` (the settings each of `run`,
`run --in` and `gen` reads). A command's parser has the flags in both
``_FLAGS`` and its set, and `run` adds `--in`; a config key, or a flag,
outside its set is rejected, and `run` echoes its set, with n, f and d,
in the report's config. So `run --in`, whose file fixes n, f and d and
which has no pattern, rejects all four and echoes no pattern. Settings
without a flag (system_len, instruction_len, layers, heads, mlp_dim,
vocab, max_positions, decoder_seed) are settable only via the file.

The harness only parses arguments, calls the library and emits; `run`
builds its pipeline and decoder configs, which check every setting they
hold, before it makes or reads a video. `run --in` learns d from its
file's header, so it checks the decoder's settings between that header
and the payload, both read through one handle (a pipe reads once).
Decoder and pipeline defaults are ``DecoderConfig``'s and
``PipelineConfig``'s. The video and prompt defaults (pattern, n, f,
seed, prompt lengths) live here, their only user.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format
error, 4 report invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from typing import get_type_hints

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
from .tensorio import read_video_header, read_video_payload, write_video


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
        # the library checks these too, but `run --in` would read its file first
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.system_len < 1 or self.instruction_len < 1:
            raise ConfigError("prompt segment lengths must be >= 1")


# Each setting's type, the settings that have a flag (with its help), and
# the settings each command reads: a config key or flag outside a
# command's set is rejected rather than silently ignored.
_TYPES = get_type_hints(HarnessConfig)
_FLAGS = {
    "pattern": "static | uniform:RATE | burst:I,J | mixed:SEG+SEG",
    "n": "frame count",
    "f": "tokens per frame",
    "d": "embedding dimension",
    "seed": "generation seed",
    "mode": "adaptive | manual",
    "w": "spatial weight in combined importance",
    "k": "manual-mode keep threshold",
    "m": "cache-eviction similarity threshold",
    "decode_steps": "greedy decode steps",
}
_READS = {
    "run": frozenset(_TYPES),
    "run --in": frozenset(_TYPES) - {"pattern", "n", "f", "d"},  # the file fixes n, f, d
    "gen": frozenset({"pattern", "n", "f", "d", "seed"}),
}
_KINDS = {int: "an integer", float: "a number", str: "a string"}


def resolve_config(args: argparse.Namespace, command: str) -> HarnessConfig:
    """Defaults < config file < flags, for the settings ``command`` reads;
    ConfigError on a key or flag it does not read or a mistyped value."""
    merged = asdict(HarnessConfig())
    if args.config is not None:
        with open(args.config, "rb") as fh:
            try:
                raw = json.load(fh)
            # ValueError covers JSONDecodeError, UnicodeDecodeError and an
            # integer too long to parse; RecursionError, nesting too deep
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unread = sorted(set(raw) - _READS[command])
        if unread:
            raise ConfigError(f"config keys {command} does not read: {', '.join(unread)}")
        for name, value in raw.items():
            want = _TYPES[name]
            if type(value) not in ((int, float) if want is float else (want,)):  # no bool
                raise ConfigError(f"config key {name} must be {_KINDS[want]}, got {value!r}")
            try:
                merged[name] = want(value)
            except OverflowError as exc:  # float() of a huge int; its digits stay out
                raise ConfigError(f"config key {name} is too large for a float") from exc
    flags = {name: getattr(args, name) for name in _FLAGS if getattr(args, name, None) is not None}
    unread = sorted(set(flags) - _READS[command])
    if unread:
        raise ConfigError(f"flags {command} does not read: --{', --'.join(unread)}")
    merged.update(flags)
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


def _decoder_config(cfg: HarnessConfig) -> DecoderConfig:
    return DecoderConfig(layers=cfg.layers, model_dim=cfg.d, heads=cfg.heads,
                         mlp_dim=cfg.mlp_dim, vocab=cfg.vocab, seed=cfg.decoder_seed,
                         max_positions=cfg.max_positions)


def cmd_run(args: argparse.Namespace) -> int:
    command = "run" if args.in_path is None else "run --in"
    cfg = resolve_config(args, command)
    # the configs check their settings before a video is made or read;
    # `--in` learns d from its file's header, before the payload is read
    pipe_cfg = PipelineConfig(spatial_weight=cfg.w, mode=cfg.mode, manual_threshold=cfg.k,
                              degradation_threshold=cfg.m, decode_steps=cfg.decode_steps)
    if args.in_path is None:
        decoder_cfg = _decoder_config(cfg)
        video = _synthetic_video(cfg)
    else:
        # one handle for header and payload: a pipe cannot be read twice
        with open(args.in_path, "rb") as fh:
            n, f, d = read_video_header(fh, args.in_path)
            cfg = replace(cfg, n=n, f=f, d=d)
            decoder_cfg = _decoder_config(cfg)
            video = read_video_payload(fh, n, f, d, args.in_path)
    system, instruction = gen_prompt_embeddings(
        cfg.seed, cfg.system_len, cfg.instruction_len, cfg.d
    )
    echo = {k: v for k, v in asdict(cfg).items() if k in _READS[command] | {"n", "f", "d"}}
    _, report = run_pipeline(
        Decoder(decoder_cfg), video, PromptEmbeddings(system, instruction), pipe_cfg
    )
    _emit(replace(report, config=echo).to_json(), args.out_path)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.out_path is None:
        raise ConfigError("gen requires --out")
    cfg = resolve_config(args, "gen")
    video = _synthetic_video(cfg)
    write_video(args.out_path, video)
    _emit(json.dumps({
        "written": args.out_path, "n": video.n, "f": video.f, "d": video.d,
        "pattern": cfg.pattern, "seed": cfg.seed,
    }, sort_keys=True), None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command; each takes a flag for every setting in
    both ``_FLAGS`` and the settings it reads (``run --in`` shares
    ``run``'s parser, and ``resolve_config`` rejects the flags it does
    not read)."""
    parser = argparse.ArgumentParser(
        prog="sharpv",
        description="Two-stage visual token pruning and KV-cache eviction harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, help_text in (
        ("run", cmd_run, "run the full pipeline, print a JSON report"),
        ("gen", cmd_gen, "write a synthetic video tensor file"),
    ):
        p = sub.add_parser(command, help=help_text)
        for name, text in _FLAGS.items():
            if name in _READS[command]:
                p.add_argument("--" + name.replace("_", "-"), type=_TYPES[name], help=text)
        p.add_argument("--out", dest="out_path", help="output path (default stdout)")
        p.add_argument("--config", help="JSON config file")
        p.set_defaults(handler=handler)
    sub.choices["run"].add_argument("--in", dest="in_path",
                                    help="read video tokens from a tensor file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
