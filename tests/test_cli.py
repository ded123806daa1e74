import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sharpv.cli as cli
from sharpv.decoder import Decoder, DecoderConfig
from sharpv.errors import InvariantViolation
from sharpv.pipeline import PipelineConfig, PromptEmbeddings, run_pipeline
from sharpv.synth import SyntheticVideoSpec, gen_prompt_embeddings, gen_synthetic_video, parse_pattern
from sharpv.tensorio import read_video


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, "run", *argv)
    assert code == 0, err
    return json.loads(out)


class TestRun:
    def test_default_run_emits_valid_report(self, capsys):
        report = run_report(capsys, "--decode-steps", "2")
        assert report["schema_version"] == 1
        assert 0 < report["vr"] <= 1
        assert 0 < report["mr"] <= 1
        assert report["token_budget"] == report["vr"] * report["mr"]

    def test_echoes_adaptive_defaults(self, capsys):
        report = run_report(capsys, "--decode-steps", "2")
        assert report["config"]["w"] == 1.0
        assert report["config"]["m"] == 0.2
        assert report["config"]["mode"] == "adaptive"

    def test_echoes_manual_threshold(self, capsys):
        report = run_report(capsys, "--mode", "manual", "--k", "1.6", "--decode-steps", "2")
        assert report["config"]["k"] == 1.6
        assert report["config"]["mode"] == "manual"

    def test_static_pattern_vr(self, capsys):
        report = run_report(capsys, "--pattern", "static", "--decode-steps", "2")
        assert report["vr"] == 1 / report["config"]["f"]

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "run", "--decode-steps", "2", "--out", str(out)
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["schema_version"] == 1

    def test_deterministic_modulo_timing(self, capsys):
        a = run_report(capsys, "--seed", "5", "--decode-steps", "4")
        b = run_report(capsys, "--seed", "5", "--decode-steps", "4")
        for key in ("ttft_seconds", "tpot_seconds"):
            a.pop(key), b.pop(key)
        assert a == b

    def test_flagless_run_uses_library_defaults(self, capsys):
        # the CLI's defaults for the decoder and pipeline are the library's
        report = run_report(capsys)
        cfg = cli.HarnessConfig()
        video = gen_synthetic_video(SyntheticVideoSpec(
            n=cfg.n, f=cfg.f, d=cfg.d, seed=cfg.seed, pattern=parse_pattern(cfg.pattern)
        ))
        prompt = PromptEmbeddings(*gen_prompt_embeddings(
            cfg.seed, cfg.system_len, cfg.instruction_len, cfg.d
        ))
        _, expected = run_pipeline(Decoder(DecoderConfig()), video, prompt, PipelineConfig())
        expected = expected.comparable_dict()
        for key in ("ttft_seconds", "tpot_seconds", "config"):
            report.pop(key)
        expected.pop("config")
        assert report == json.loads(json.dumps(expected))

    def test_run_from_tensor_file(self, capsys, tmp_path):
        path = tmp_path / "v.svt"
        code, _, _ = run_cli(
            capsys, "gen", "--out", str(path),
            "--pattern", "uniform:0.5", "--n", "4", "--f", "8", "--d", "64", "--seed", "3",
        )
        assert code == 0
        from_file = run_report(capsys, "--in", str(path), "--seed", "3", "--decode-steps", "2")
        inline = run_report(
            capsys, "--pattern", "uniform:0.5", "--n", "4", "--f", "8", "--d", "64",
            "--seed", "3", "--decode-steps", "2",
        )
        for key in ("ttft_seconds", "tpot_seconds", "config"):
            from_file.pop(key), inline.pop(key)
        assert from_file == inline


    @pytest.mark.parametrize("flags, config, named", [
        (("--pattern", "burst:9,9", "--n", "99"), None,
         "flags run --in does not read: --n, --pattern"),
        (("--f", "3", "--d", "8"), None, "flags run --in does not read: --d, --f"),
        ((), {"pattern": "static", "n": 2}, "config keys run --in does not read: n, pattern"),
    ])
    def test_in_rejects_the_video_settings_it_does_not_read(
        self, capsys, tmp_path, flags, config, named
    ):
        # the file fixes n, f and d and has no pattern
        path, cfg = tmp_path / "v.svt", tmp_path / "cfg.json"
        code, _, _ = run_cli(
            capsys, "gen", "--out", str(path), "--n", "2", "--f", "4", "--seed", "3"
        )
        assert code == 0
        argv = ["run", "--in", str(path), "--decode-steps", "2", *flags]
        if config is not None:
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert named in err
        cfg.write_text(json.dumps({"seed": 3, "layers": 2}))
        report = run_report(capsys, "--in", str(path), "--decode-steps", "2", "--config", str(cfg))
        assert "pattern" not in report["config"]
        assert (report["config"]["n"], report["config"]["f"], report["config"]["d"]) == (2, 4, 64)
        assert report["config"]["layers"] == 2


class TestExitCodes:
    def test_bad_pattern_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--pattern", "wiggle")
        assert code == 2
        assert "config error" in err

    def test_negative_seed_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--seed", "-4")
        assert code == 2

    @pytest.mark.parametrize("argv, config, message", [
        (["run", "--pattern", "uniform:-1"], None, "rate must be a finite value >= 0"),
        (["run"], {"system_len": 0}, "prompt segment lengths must be >= 1"),
        (["run"], [], "must hold a JSON object"),
    ], ids=["negative-rate", "system-len", "config-list"])
    def test_bad_setting_is_config_error(self, capsys, tmp_path, argv, config, message):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "config error" in err and message in err

    def test_gen_without_out_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "gen")
        assert code == 2

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--in", str(tmp_path / "nope.svt"))
        assert code == 3
        assert "i/o error" in err

    def test_bad_magic_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "junk.svt"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        code, _, _ = run_cli(capsys, "run", "--in", str(path))
        assert code == 3

    def test_invariant_violation_maps_to_four(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantViolation("forced")

        monkeypatch.setattr(cli, "run_pipeline", boom)
        code, _, err = run_cli(capsys, "run", "--decode-steps", "2")
        assert code == 4
        assert "invariant violation" in err

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--decode-steps", "2",
            "--out", str(tmp_path / "missing_dir" / "report.json"),
        )
        assert code == 3

    @pytest.mark.parametrize("flags", [
        ("--m", "nan"), ("--m", "inf"), ("--w", "nan"), ("--w", "inf"),
        ("--k", "nan"), ("--mode", "manual", "--k", "inf"),
    ])
    def test_non_finite_setting_is_config_error(self, capsys, tmp_path, flags):
        out = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "run", "--decode-steps", "2", *flags, "--out", str(out))
        assert code == 2
        assert "config error" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("run", "--pattern", "uniform:1e308"),
        ("gen", "--pattern", "uniform:1e308"),
        ("run", "--pattern", "mixed:uniform:1e308@4+static@4"),
    ])
    def test_overflowing_rotation_is_config_error(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert "config error" in err and "overflows the rotation angle" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("gen", "--pattern", "static"),
        ("run", "--pattern", "static"),
    ])
    def test_oversized_input_is_config_error(self, capsys, tmp_path, argv):
        # 6.4e15 elements: far past the budget, and far past what numpy could
        # allocate, so a missing check fails at once instead of using memory
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, *argv, "--n", "10000000", "--f", "10000000", "--d", "64", "--out", str(out)
        )
        assert code == 2
        assert "element budget" in err
        assert not out.exists()

    def test_decode_past_max_positions_fails_before_prefill(self, capsys, tmp_path, monkeypatch):
        # a static video keeps one token per frame: T = 4 + 8 + 8 = 20, and
        # decode writes up to position T + steps - 2, so 24 positions fit
        # exactly 5 steps
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pattern": "static", "max_positions": 24}))
        report = run_report(capsys, "--config", str(cfg), "--decode-steps", "5")
        assert len(report["generated_tokens"]) == 5

        def prefill(*args, **kwargs):
            raise AssertionError("prefill started")

        monkeypatch.setattr(cli.Decoder, "prefill", prefill)
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(
            capsys, "run", "--config", str(cfg), "--decode-steps", "6", "--out", str(out)
        )
        assert code == 2
        assert "max_positions 24" in err
        assert stdout == ""
        assert not out.exists()


class TestConfigFile:
    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": 8, "decode_steps": 2}))
        report = run_report(capsys, "--config", str(cfg))
        assert report["config"]["f"] == 8
        assert len(report["per_frame_keep_counts"]) == 8  # n frames unchanged

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": 8, "decode_steps": 2}))
        report = run_report(capsys, "--config", str(cfg), "--f", "4")
        assert report["config"]["f"] == 4

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 8}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "frames" in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("content", [
        b"\xff\xff\xff{", b"{not json", b"[" * 100_000, b'{"n": ' + b"9" * 5000 + b"}",
    ], ids=["undecodable", "malformed", "nested-too-deep", "int-too-long-to-parse"])
    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_config_file_that_is_not_json_is_config_error(self, capsys, tmp_path, command, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        argv = [command, "--config", str(cfg)]
        if command == "gen":
            argv += ["--out", str(tmp_path / "v.svt")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"config error: config file {cfg} is not valid JSON" in err

    def test_int_too_large_for_a_float_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"m": ' + "9" * 401 + "}")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "config error: config key m is too large for a float\n"

    def test_wrong_type_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": "eight"}))
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2

    def test_config_only_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system_len": 2, "instruction_len": 3, "layers": 4}))
        report = run_report(capsys, "--config", str(cfg), "--decode-steps", "2")
        assert report["config"]["system_len"] == 2
        assert len(report["per_layer_sim"]) == 4


class TestGen:
    def test_writes_readable_tensor(self, capsys, tmp_path):
        path = tmp_path / "v.svt"
        code, out, _ = run_cli(
            capsys, "gen", "--out", str(path), "--n", "3", "--f", "5", "--d", "8",
        )
        assert code == 0
        meta = json.loads(out)
        assert meta["n"] == 3 and meta["f"] == 5 and meta["d"] == 8
        video = read_video(path)
        assert video.data.shape == (15, 8)

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.svt", tmp_path / "b.svt"
        run_cli(capsys, "gen", "--out", str(a), "--seed", "9")
        run_cli(capsys, "gen", "--out", str(b), "--seed", "9")
        assert a.read_bytes() == b.read_bytes()

    def test_config_keys_gen_does_not_read_are_rejected(self, capsys, tmp_path):
        cfg, path = tmp_path / "cfg.json", tmp_path / "v.svt"
        cfg.write_text(json.dumps({"pattern": "static", "n": 2, "f": 3, "d": 8, "seed": 1}))
        code, _, err = run_cli(capsys, "gen", "--out", str(path), "--config", str(cfg))
        assert code == 0, err
        assert read_video(path).data.shape == (6, 8)
        path.unlink()
        cfg.write_text(json.dumps({"mode": "bogus", "layers": 2}))
        code, out, err = run_cli(capsys, "gen", "--out", str(path), "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert not path.exists()
        assert "layers, mode" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def subparsers():
    """The parser's subcommands, name -> parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestSettingsTable:
    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_parser_flags_are_the_settings_the_command_reads(self, command):
        own = {"help", "out_path", "config", "in_path"}
        settings = {a.dest for a in subparsers()[command]._actions} - own
        assert settings == cli._FLAGS.keys() & cli._READS[command]

    @pytest.mark.parametrize("command, key", [
        (command, field.name) for command, reads in cli._READS.items()
        for field in dataclasses.fields(cli.HarnessConfig) if field.name not in reads
    ])
    def test_config_key_the_command_does_not_read_exits_2(self, capsys, tmp_path, command, key):
        video, cfg, out = tmp_path / "v.svt", tmp_path / "cfg.json", tmp_path / "out"
        assert run_cli(capsys, "gen", "--out", str(video), "--n", "2", "--f", "4")[0] == 0
        cfg.write_text(json.dumps({key: getattr(cli.HarnessConfig(), key)}))
        argv = {"run --in": ("run", "--in", str(video)), "gen": ("gen",)}
        code, stdout, err = run_cli(capsys, *argv[command], "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert f"config keys {command} does not read: {key}" in err
        assert stdout == ""
        assert not out.exists()

    def test_bad_mode_exits_2_before_a_video_is_made(self, capsys, monkeypatch):
        def made(*args, **kwargs):
            raise AssertionError("video made")

        monkeypatch.setattr(cli, "gen_synthetic_video", made)
        code, out, err = run_cli(capsys, "run", "--mode", "bogus")
        assert code == 2
        assert out == ""
        assert "mode must be" in err

    def test_in_checks_the_decoder_at_the_files_d(self, capsys, tmp_path):
        # 3 heads divide the file's d of 48, not the default d of 64
        video, cfg = tmp_path / "v.svt", tmp_path / "cfg.json"
        assert run_cli(capsys, "gen", "--out", str(video), "--n", "2", "--f", "4",
                       "--d", "48")[0] == 0
        cfg.write_text(json.dumps({"heads": 3, "layers": 2}))
        report = run_report(capsys, "--in", str(video), "--decode-steps", "2",
                            "--config", str(cfg))
        assert (report["config"]["d"], report["config"]["heads"]) == (48, 3)

    def test_in_negative_seed_exits_2_before_the_file_is_read(self, capsys, tmp_path,
                                                               monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("file read")

        video = tmp_path / "v.svt"
        assert run_cli(capsys, "gen", "--out", str(video), "--n", "2", "--f", "4")[0] == 0
        monkeypatch.setattr(cli, "read_video_header", read)
        code, out, err = run_cli(capsys, "run", "--in", str(video), "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("dims, config, message", [
        (("1", "1", "20000"), {}, "over the element budget"),
        (("2", "4", "48"), {"heads": 5}, "model_dim 48 not divisible by heads 5"),
    ], ids=["element-budget", "heads"])
    def test_in_checks_the_decoder_before_the_payload_is_read(
        self, capsys, tmp_path, monkeypatch, dims, config, message
    ):
        def read(*args, **kwargs):
            raise AssertionError("payload read")

        video, cfg = tmp_path / "v.svt", tmp_path / "cfg.json"
        n, f, d = dims
        assert run_cli(capsys, "gen", "--out", str(video), "--n", n, "--f", f, "--d", d)[0] == 0
        cfg.write_text(json.dumps(config))
        monkeypatch.setattr(cli, "read_video_payload", read)
        code, out, err = run_cli(capsys, "run", "--in", str(video), "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert message in err

    def test_in_reads_a_pipe(self, capsys, tmp_path):
        # a pipe yields its bytes once, so header and payload need one handle
        video = tmp_path / "v.svt"
        assert run_cli(capsys, "gen", "--out", str(video), "--n", "2", "--f", "4",
                       "--d", "16")[0] == 0
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, video.read_bytes())  # 532 bytes fit the pipe's buffer
            os.close(write_end)
            report = run_report(capsys, "--in", f"/dev/fd/{read_end}", "--decode-steps", "2")
        finally:
            os.close(read_end)
        assert (report["config"]["n"], report["config"]["d"]) == (2, 16)

    @pytest.mark.parametrize("flags, config", [
        (("--d", "20000"), None), ((), {"vocab": 100_000_000}),
    ], ids=["d", "vocab"])
    def test_decoder_over_the_element_budget_exits_2_before_any_work(
        self, capsys, tmp_path, monkeypatch, flags, config
    ):
        def started(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "gen_synthetic_video", started)
        monkeypatch.setattr(cli, "Decoder", started)
        argv = ["run", *flags]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "element budget" in err

    def test_readme_sections_are_the_parser_subcommands(self):
        headings = re.findall(r"^### `sharpv (\S+)`", README.read_text(), flags=re.M)
        assert sorted(headings) == sorted(subparsers())

    @pytest.mark.parametrize("command", sorted(subparsers()))
    def test_readme_flags_line_lists_the_parser_options(self, command):
        section = README.read_text().split(f"### `sharpv {command}`")[1].split("\n### ")[0]
        listed = section.split("Flags: `")[1].split("`")[0]
        options = {s for a in subparsers()[command]._actions for s in a.option_strings}
        assert set(re.findall(r"--[a-z-]+", listed)) == options - {"-h", "--help"}


class TestSubprocess:
    def test_module_entrypoint(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sharpv.cli", "run",
             "--pattern", "static", "--decode-steps", "2", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["vr"] == 1 / 16
