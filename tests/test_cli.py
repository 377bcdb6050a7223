"""CLI surface: subcommands, exit codes, formats, determinism."""

import ast
import errno
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rangenull import (
    BlockSenseOp,
    ColorMeanOp,
    DenseOperator,
    ImageTensor,
    PoolingOp,
    RawReader,
    cs_build,
    cs_measure,
    load_png,
    load_sense_op,
    load_tensor,
    measure,
    pool_down,
    pool_up,
    quantize,
    read_raw,
    reconstruct,
    save_png,
    save_sense_op,
    verify_consistency,
    write_raw,
)
from rangenull import linop, pooling, restore, tensor
from rangenull.rng import Stream
from rangenull.cli import BENCH_OPS, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def no_thread_outlives_the_call():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture
def png_256(tmp_path, stream):
    path = tmp_path / "gt.png"
    save_png(ImageTensor(stream.uniform((3, 256, 256))), path)
    return path


class TestDegrade:
    def test_box_scale_8_shape(self, capsys, tmp_path, png_256):
        out_path = tmp_path / "lr.png"
        code, _, _ = run_cli(
            capsys, "degrade", "--input", str(png_256), "--output", str(out_path),
            "--scale", "8", "--filter", "box",
        )
        assert code == 0
        assert load_png(out_path).shape == (3, 32, 32)

    def test_scale_one_equals_quantize(self, capsys, tmp_path, stream):
        src = tmp_path / "in.png"
        t = ImageTensor(stream.uniform((3, 8, 8)))
        save_png(t, src)
        out_path = tmp_path / "out.png"
        code, _, _ = run_cli(
            capsys, "degrade", "--input", str(src), "--output", str(out_path), "--scale", "1",
        )
        assert code == 0
        assert load_png(out_path) == quantize(t)

    def test_same_format_out(self, capsys, tmp_path, stream):
        src = tmp_path / "in.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 4, 4))), src)
        out_path = tmp_path / "out.bin"
        code, _, _ = run_cli(
            capsys, "degrade", "--input", str(src), "--output", str(out_path), "--scale", "2",
        )
        assert code == 0
        assert read_raw(out_path).shape == (1, 2, 2)

    def test_non_divisible_exits_3(self, capsys, tmp_path, png_256):
        code, _, err = run_cli(
            capsys, "degrade", "--input", str(png_256), "--output",
            str(tmp_path / "x.png"), "--scale", "3",
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("scale", ["2", "4"])
    def test_box_degradation_verifies_exactly(self, capsys, tmp_path, stream, scale):
        gt, lr = tmp_path / "gt.pdt1", tmp_path / "lr.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 48, 40))), gt)
        code, _, _ = run_cli(
            capsys, "degrade", "--input", str(gt), "--output", str(lr), "--scale", scale,
            "--filter", "box",
        )
        assert code == 0
        code, stdout, _ = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(gt), "--scale", scale)
        assert code == 0
        record = json_lines(stdout)[0]
        assert record["max_abs"] == 0.0
        assert record["psnr"] == 300.0

    def test_usage_error_exits_2(self, tmp_path, png_256, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["degrade", "--input", str(png_256), "--output", str(tmp_path / "x.png"),
                  "--scale", "8", "--filter", "gaussian"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestPd:
    def test_nearest_predictor_consistent(self, capsys, tmp_path, stream):
        lr = tmp_path / "lr.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 32, 32))), lr)
        out = tmp_path / "sr.pdt1"
        code, stdout, _ = run_cli(
            capsys, "pd", "--lr", str(lr), "--output", str(out), "--scale", "8",
            "--predictor", "nearest",
        )
        assert code == 0
        report = json_lines(stdout)[0]
        assert report["max_abs"] <= 1e-12
        assert read_raw(out).shape == (3, 256, 256)

    def test_png_adds_quantized_report(self, capsys, tmp_path, stream):
        lr = tmp_path / "lr.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 4, 4))), lr)
        out, png = tmp_path / "sr.pdt1", tmp_path / "sr.png"
        code, stdout, _ = run_cli(
            capsys, "pd", "--lr", str(lr), "--output", str(out), "--png", str(png),
            "--scale", "2", "--predictor", "bicubic",
        )
        assert code == 0
        lines = json_lines(stdout)
        assert len(lines) == 2
        assert lines[0]["max_abs"] <= 1e-12
        assert lines[1]["max_abs"] >= lines[0]["max_abs"]
        assert png.exists()

    def test_external_consistent_prediction_unchanged(self, capsys, tmp_path, stream):
        pred = ImageTensor(stream.uniform((1, 8, 8)))
        y = pool_down(pred, 2)
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "sr.pdt1"
        write_raw(y, lr)
        write_raw(pred, raw)
        code, _, _ = run_cli(
            capsys, "pd", "--lr", str(lr), "--output", str(out), "--scale", "2",
            "--predictor", "external", "--raw", str(raw),
        )
        assert code == 0
        assert np.max(np.abs(read_raw(out).data - pred.data)) <= 1e-12

    def test_shape_mismatch_exits_3(self, capsys, tmp_path, stream):
        lr, raw = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 4, 4))), lr)
        write_raw(ImageTensor(stream.uniform((1, 6, 6))), raw)
        code, _, err = run_cli(
            capsys, "pd", "--lr", str(lr), "--output", str(tmp_path / "o.pdt1"),
            "--scale", "2", "--predictor", "external", "--raw", str(raw),
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("command", ["pd", "colorize", "cs"])
    def test_output_directory_exits_3_without_record(self, capsys, tmp_path, stream, command):
        out = tmp_path / "out"
        out.mkdir()
        if command == "pd":
            y = tmp_path / "y.pdt1"
            write_raw(ImageTensor(stream.uniform((3, 4, 4))), y)
            argv = ["pd", "--lr", str(y), "--scale", "2"]
        elif command == "colorize":
            y, raw = tmp_path / "y.pdt1", tmp_path / "raw.pdt1"
            write_raw(ImageTensor(stream.uniform((1, 4, 4))), y)
            write_raw(ImageTensor(stream.uniform((3, 4, 4))), raw)
            argv = ["colorize", "--mode", "pd", "--input", str(y), "--raw", str(raw)]
        else:
            op, y, raw = tmp_path / "op.pdm1", tmp_path / "y.pdt1", tmp_path / "raw.pdt1"
            run_cli(capsys, "cs", "--action", "build", "--block", "2", "--ratio", "0.5",
                    "--output", str(op))
            write_raw(ImageTensor(stream.uniform((2, 2, 2))), y)
            write_raw(ImageTensor(stream.uniform((1, 4, 4))), raw)
            argv = ["cs", "--action", "pd", "--op", str(op), "--lr", str(y), "--raw", str(raw)]
        before = sorted(tmp_path.rglob("*"))
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(out))
        assert code == 3
        assert stderr.startswith("error: ") and "Is a directory" in stderr
        assert stdout == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag, dest", [("--output", "."), ("--output", "out/"), ("--png", "out")])
    def test_directory_destination_exits_3_naming_it(self, capsys, tmp_path, stream, monkeypatch, flag, dest):
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path)
        write_raw(ImageTensor(stream.uniform((3, 4, 4))), "y.pdt1")
        argv = ["pd", "--lr", "y.pdt1", "--scale", "2", "--output", "o.pdt1", flag, dest]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 3
        assert stderr.startswith("error: ") and repr(dest) in stderr and "Is a directory" in stderr
        assert stdout == ""
        assert not (tmp_path / "o.pdt1").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_consecutive_calls_parse_independently(self, capsys, tmp_path, stream):
        lr, out, png = tmp_path / "lr.pdt1", tmp_path / "o.pdt1", tmp_path / "o.png"
        write_raw(ImageTensor(stream.uniform((3, 4, 4))), lr)
        argv = ["pd", "--lr", str(lr), "--scale", "2", "--output", str(out)]
        code, stdout, _ = run_cli(capsys, *argv, "--png", str(png))
        assert code == 0 and len(json_lines(stdout)) == 2
        png.unlink()
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0 and len(json_lines(stdout)) == 1
        assert not png.exists()


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


@pytest.fixture
def sources(capsys, tmp_path, stream):
    """Inputs for every writing command, in a directory of their own."""
    src = tmp_path / "src"
    src.mkdir()
    f = {name: str(src / name) for name in ("rgb.png", "rgb.pdt1", "gray.pdt1", "raw.pdt1", "op.pdm1",
                                             "m.pdt1", "cs_raw.pdt1")}
    save_png(ImageTensor(stream.uniform((3, 8, 8))), f["rgb.png"])
    write_raw(ImageTensor(stream.uniform((3, 8, 8))), f["rgb.pdt1"])
    write_raw(ImageTensor(stream.uniform((1, 4, 4))), f["gray.pdt1"])
    write_raw(ImageTensor(stream.gaussian((3, 4, 4))), f["raw.pdt1"])
    run_cli(capsys, "cs", "--action", "build", "--block", "2", "--ratio", "0.5", "--seed", "1",
            "--output", f["op.pdm1"])
    write_raw(cs_measure(load_sense_op(f["op.pdm1"]), ImageTensor(stream.uniform((1, 4, 4)))), f["m.pdt1"])
    write_raw(ImageTensor(stream.gaussian((1, 4, 4))), f["cs_raw.pdt1"])
    return f


# Each writing command, without its --output: (argv, None) for a plain
# write, (argv, (op, y)) for a reconstruction whose records op.verify(y, .)
# must reproduce.
_WRITERS = {
    "degrade-png": lambda f: (["degrade", "--input", f["rgb.png"], "--scale", "2"], None),
    "degrade-pdt1": lambda f: (["degrade", "--input", f["rgb.pdt1"], "--scale", "2"], None),
    "errmap": lambda f: (["errmap", "--gt", f["rgb.png"], "--sr", f["rgb.pdt1"]], None),
    "colorize-gray": lambda f: (["colorize", "--mode", "gray", "--input", f["rgb.pdt1"]], None),
    "colorize-color": lambda f: (["colorize", "--mode", "color", "--input", f["gray.pdt1"]], None),
    "colorize-pd": lambda f: (
        ["colorize", "--mode", "pd", "--input", f["gray.pdt1"], "--raw", f["raw.pdt1"]],
        (ColorMeanOp(4, 4), load_tensor(f["gray.pdt1"])),
    ),
    "cs-pinv": lambda f: (["cs", "--action", "pinv", "--op", f["op.pdm1"], "--input", f["m.pdt1"]], None),
    "cs-pd": lambda f: (
        ["cs", "--action", "pd", "--op", f["op.pdm1"], "--lr", f["m.pdt1"], "--raw", f["cs_raw.pdt1"]],
        (load_sense_op(f["op.pdm1"]), load_tensor(f["m.pdt1"])),
    ),
    "pd": lambda f: (
        ["pd", "--lr", f["rgb.pdt1"], "--scale", "2", "--predictor", "bicubic"],
        (PoolingOp(2, 3, 16, 16), load_tensor(f["rgb.pdt1"])),
    ),
}


class TestOutputRule:
    """A destination ending in .png (any case) gets an 8-bit PNG and any other
    a PDT1; each reconstruction record describes the file it follows."""

    @pytest.mark.parametrize("name", ["o.png", "o.PNG", "o.Png", "o.pdt1", "o.png.bak"])
    @pytest.mark.parametrize("command", sorted(_WRITERS))
    def test_extension_picks_format(self, capsys, tmp_path, sources, command, name):
        argv, reconstruction = _WRITERS[command](sources)
        dest = tmp_path / name
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(dest))
        assert (code, stderr) == (0, "")
        assert dest.read_bytes().startswith(PNG_SIGNATURE) == name.lower().endswith(".png")
        if reconstruction is None:
            assert stdout == ""
        else:
            op, y = reconstruction
            assert json_lines(stdout) == [op.verify(y, load_tensor(dest)).to_dict()]

    @pytest.mark.parametrize("command", sorted(_WRITERS))
    def test_png_holds_the_quantized_pdt1(self, capsys, tmp_path, sources, command):
        argv, _ = _WRITERS[command](sources)
        exact, png = tmp_path / "o.pdt1", tmp_path / "o.png"
        assert run_cli(capsys, *argv, "--output", str(exact))[0] == 0
        assert run_cli(capsys, *argv, "--output", str(png))[0] == 0
        assert load_png(png) == quantize(read_raw(exact))

    @pytest.mark.parametrize("output, png", [("a.pdt1", "b.png"), ("a.png", "b.pdt1"), ("a.PNG", "b.png")])
    def test_pd_records_follow_both_files(self, capsys, tmp_path, sources, output, png):
        argv, (op, y) = _WRITERS["pd"](sources)
        paths = [tmp_path / output, tmp_path / png]
        code, stdout, _ = run_cli(capsys, *argv, "--output", str(paths[0]), "--png", str(paths[1]))
        assert code == 0
        assert json_lines(stdout) == [op.verify(y, load_tensor(p)).to_dict() for p in paths]

    def test_png_measurement_needs_one_or_three_channels(self, capsys, tmp_path, sources):
        dest = tmp_path / "m.png"
        code, stdout, stderr = run_cli(capsys, "cs", "--action", "measure", "--op", sources["op.pdm1"],
                                       "--input", sources["cs_raw.pdt1"], "--output", str(dest))
        assert code == 3
        assert stderr == "error: PNG output needs 1 or 3 channels, got 2\n"
        assert stdout == ""
        assert list(tmp_path.glob("m*")) == []

    @pytest.mark.parametrize("output, png", [("o.pdt1", "o.png"), ("o.png", None)])
    def test_pd_png_channel_count_checked_before_any_write(self, capsys, tmp_path, stream, output, png):
        lr = tmp_path / "y.pdt1"
        write_raw(ImageTensor(stream.uniform((2, 4, 4))), lr)
        argv = ["pd", "--lr", str(lr), "--scale", "2", "--output", str(tmp_path / output)]
        code, stdout, stderr = run_cli(capsys, *argv, *(["--png", str(tmp_path / png)] if png else []))
        assert code == 3
        assert stderr == "error: PNG output needs 1 or 3 channels, got 2\n"
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["y.pdt1"]

    def test_missing_directory_checked_before_any_write(self, capsys, tmp_path, sources):
        argv, _ = _WRITERS["pd"](sources)
        dest = str(tmp_path / "missing" / "o.png")
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(tmp_path / "o.pdt1"), "--png", dest)
        assert code == 3
        assert stderr.startswith("error: ") and "No such file or directory" in stderr and repr(dest) in stderr
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]

    @pytest.mark.parametrize("output, png", [("a" * 245 + ".pdt1", "b" * 246 + ".png"),
                                             ("\u00e9" * 122 + "a.pdt1", "\u00e9" * 123 + ".png")],
                             ids=["ascii", "two-byte"])
    def test_pd_writes_names_of_250_bytes(self, capsys, tmp_path, sources, output, png):
        # Each temporary file's name is cut to fit 255 bytes, mid-character too.
        assert {len(os.fsencode(name)) for name in (output, png)} == {250}
        argv, (op, y) = _WRITERS["pd"](sources)
        paths = [tmp_path / output, tmp_path / png]
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(paths[0]), "--png", str(paths[1]))
        assert (code, stderr) == (0, "")
        assert json_lines(stdout) == [op.verify(y, load_tensor(p)).to_dict() for p in paths]
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("long", ["--output", "--png"])
    def test_pd_refuses_a_name_over_255_bytes_before_any_write(self, capsys, tmp_path, sources, long):
        argv, _ = _WRITERS["pd"](sources)
        paths = {"--output": str(tmp_path / "o.pdt1"), "--png": str(tmp_path / "o.png")}
        paths[long] = str(tmp_path / ("a" * 252 + ".png"))
        code, stdout, stderr = run_cli(capsys, *argv, *(arg for pair in paths.items() for arg in pair))
        message = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: {paths[long]!r}"
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src"]


@pytest.mark.usefixtures("refuse_threads")
class TestOneThread:
    """Every CLI call runs on the calling Python thread and starts no other."""

    @pytest.mark.parametrize("command", sorted(_WRITERS))
    def test_writing_commands(self, capsys, tmp_path, sources, command):
        argv, _ = _WRITERS[command](sources)
        if command == "pd":
            argv = [*argv, "--png", str(tmp_path / "o.png")]
        code, _, stderr = run_cli(capsys, *argv, "--output", str(tmp_path / "o.pdt1"))
        assert (code, stderr) == (0, "")

    def test_table1(self, capsys):
        code, stdout, _ = run_cli(capsys, "table1", "--count", "2", "--size", "32", "--scale", "4")
        assert code == 0 and json_lines(stdout)[0]["count"] == 2


class TestVerify:
    def test_pd_output_verifies_high(self, capsys, tmp_path, stream):
        lr = tmp_path / "lr.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 8, 8))), lr)
        sr = tmp_path / "sr.pdt1"
        run_cli(capsys, "pd", "--lr", str(lr), "--output", str(sr), "--scale", "4",
                "--predictor", "bilinear")
        code, stdout, _ = run_cli(
            capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", "4",
        )
        assert code == 0
        assert json_lines(stdout)[0]["psnr"] >= 240.0

    def test_replicated_sr_hits_cap(self, capsys, tmp_path, stream):
        y = ImageTensor(stream.uniform((1, 4, 4)))
        lr, sr = tmp_path / "lr.pdt1", tmp_path / "sr.pdt1"
        write_raw(y, lr)
        write_raw(pool_up(y, 2), sr)
        code, stdout, _ = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", "2")
        assert code == 0
        assert json_lines(stdout)[0]["psnr"] == 300.0

    def test_quantized_sr_is_finite_and_lower(self, capsys, tmp_path, stream):
        lr = tmp_path / "lr.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 8, 8))), lr)
        sr, png = tmp_path / "sr.pdt1", tmp_path / "sr.png"
        run_cli(capsys, "pd", "--lr", str(lr), "--output", str(sr), "--png", str(png),
                "--scale", "2", "--predictor", "bicubic")
        code, stdout, _ = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(png), "--scale", "2")
        assert code == 0
        quantized_psnr = json_lines(stdout)[0]["psnr"]
        assert np.isfinite(quantized_psnr)
        assert quantized_psnr < 300.0


class TestCraftedPng:
    def test_verify_exits_3(self, capsys, crafted_png):
        path = str(crafted_png)
        code, _, err = run_cli(capsys, "verify", "--lr", path, "--sr", path, "--scale", "1")
        assert code == 3
        assert "error:" in err


class TestErrmap:
    def test_equal_inputs_black_map(self, capsys, tmp_path, stream):
        t = ImageTensor(stream.uniform((3, 4, 4)))
        a = tmp_path / "a.pdt1"
        write_raw(t, a)
        out = tmp_path / "map.png"
        code, _, _ = run_cli(capsys, "errmap", "--gt", str(a), "--sr", str(a), "--output", str(out))
        assert code == 0
        assert np.all(load_png(out).data == 0.0)

    def test_byte_identical_across_runs(self, capsys, tmp_path, stream):
        gt, sr = tmp_path / "gt.pdt1", tmp_path / "sr.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 8, 8))), gt)
        write_raw(ImageTensor(stream.uniform((3, 8, 8))), sr)
        m1, m2 = tmp_path / "m1.png", tmp_path / "m2.png"
        run_cli(capsys, "errmap", "--gt", str(gt), "--sr", str(sr), "--output", str(m1))
        run_cli(capsys, "errmap", "--gt", str(gt), "--sr", str(sr), "--output", str(m2))
        assert m1.read_bytes() == m2.read_bytes()

    def test_gain_monotonicity(self, capsys, tmp_path, stream):
        gt, sr = tmp_path / "gt.pdt1", tmp_path / "sr.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 4, 4))), gt)
        write_raw(ImageTensor(stream.uniform((1, 4, 4))), sr)
        g5, g10 = tmp_path / "g5.png", tmp_path / "g10.png"
        run_cli(capsys, "errmap", "--gt", str(gt), "--sr", str(sr), "--output", str(g5), "--gain", "5")
        run_cli(capsys, "errmap", "--gt", str(gt), "--sr", str(sr), "--output", str(g10), "--gain", "10")
        assert np.all(load_png(g10).data >= load_png(g5).data)

    def test_infinite_gain_exits_3_on_equal_and_on_different_inputs(self, capsys, tmp_path, stream):
        # 0 * inf once made NaN where the inputs agree, so equal inputs
        # exited 3 naming non-finite samples and different ones exited 0.
        gt, sr, out = tmp_path / "gt.pdt1", tmp_path / "sr.pdt1", tmp_path / "map.png"
        a = stream.uniform((3, 4, 4))
        write_raw(ImageTensor(a), gt)
        for b in (a, a + 0.5):
            write_raw(ImageTensor(b), sr)
            code, stdout, stderr = run_cli(capsys, "errmap", "--gt", str(gt), "--sr", str(sr), "--output", str(out),
                                           "--gain", "inf")
            assert (code, stdout, stderr) == (3, "", "error: gain must be a positive finite number, got inf\n")
            assert not out.exists()


class TestBench:
    def test_single_iteration_collapses_percentiles(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "bench", "--op", "pd", "--size", "64", "--scale", "8",
            "--iterations", "1", "--seed", "0",
        )
        assert code == 0
        result = json_lines(stdout)[0]
        assert result["p50_ms"] == result["p95_ms"] == result["mean_ms"]
        assert result["iterations"] == 1
        assert result["op_name"] == "pd"

    @pytest.mark.parametrize("op", BENCH_OPS)
    def test_fields_and_ordering(self, capsys, op):
        code, stdout, _ = run_cli(
            capsys, "bench", "--op", op, "--size", "64", "--scale", "4",
            "--iterations", "5", "--seed", "1",
        )
        assert code == 0
        result = json_lines(stdout)[0]
        assert sorted(result) == ["image_size", "iterations", "mean_ms", "op_name", "p50_ms", "p95_ms"]
        assert result["op_name"] == op
        assert 0.0 <= result["p50_ms"] <= result["p95_ms"]

    def test_bad_iterations_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--size", "64", "--scale", "8", "--iterations", "0")
        assert code == 3


class TestTable1:
    def test_seeded_rerun_identical_modulo_timing(self, capsys):
        args = ["table1", "--count", "4", "--size", "64", "--scale", "8", "--seed", "5"]
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        a, b = json_lines(out_a)[0], json_lines(out_b)[0]
        a.pop("mean_time_ms")
        b.pop("mean_time_ms")
        assert a == b

    def test_double_precision_summary(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "table1", "--count", "4", "--size", "64", "--scale", "8", "--seed", "0",
        )
        assert code == 0
        summary = json_lines(stdout)[0]
        assert summary["mean_max_abs"] <= 1e-12
        assert summary["mean_psnr"] >= 240.0
        assert summary["mean_psnr_float32"] >= 125.0

    def test_workers_option_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--count", "2", "--size", "32", "--scale", "4", "--workers", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_zero_count_errors(self, capsys):
        code, _, _ = run_cli(capsys, "table1", "--count", "0", "--size", "32", "--scale", "4")
        assert code == 3


class TestScaleValidation:
    @pytest.mark.parametrize("command", ["bench", "table1"])
    @pytest.mark.parametrize("scale", ["0", "-2"])
    def test_non_positive_scale_exits_3(self, capsys, command, scale):
        code, stdout, stderr = run_cli(capsys, command, "--size", "64", "--scale", scale)
        assert code == 3
        assert stdout == ""
        assert stderr == f"error: scale must be a positive integer, got {scale}\n"

    @pytest.mark.parametrize("command", ["bench", "table1"])
    @pytest.mark.parametrize("size", ["0", "-16"])
    def test_non_positive_size_exits_3(self, capsys, command, size):
        code, stdout, stderr = run_cli(capsys, command, "--size", size)
        assert code == 3
        assert stdout == ""
        assert stderr == f"error: size must be a positive integer, got {size}\n"


class TestColorize:
    def test_gray_color_roundtrip(self, capsys, tmp_path, stream):
        g = ImageTensor(stream.uniform((1, 4, 4)))
        gpath = tmp_path / "g.pdt1"
        write_raw(g, gpath)
        cpath = tmp_path / "c.pdt1"
        code, _, _ = run_cli(capsys, "colorize", "--mode", "color", "--input", str(gpath),
                             "--output", str(cpath))
        assert code == 0
        back = tmp_path / "back.pdt1"
        code, _, _ = run_cli(capsys, "colorize", "--mode", "gray", "--input", str(cpath),
                             "--output", str(back))
        assert code == 0
        assert read_raw(back) == g

    def test_pd_mode_reports_consistency(self, capsys, tmp_path, stream):
        y, raw = tmp_path / "y.pdt1", tmp_path / "raw.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 4, 4))), y)
        write_raw(ImageTensor(stream.gaussian((3, 4, 4))), raw)
        out = tmp_path / "out.pdt1"
        code, stdout, _ = run_cli(
            capsys, "colorize", "--mode", "pd", "--input", str(y), "--raw", str(raw),
            "--output", str(out),
        )
        assert code == 0
        assert json_lines(stdout)[0]["max_abs"] <= 1e-12

    def test_pd_without_raw_exits_3(self, capsys, tmp_path, stream):
        y = tmp_path / "y.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 2, 2))), y)
        code, _, _ = run_cli(capsys, "colorize", "--mode", "pd", "--input", str(y),
                             "--output", str(tmp_path / "o.pdt1"))
        assert code == 3

    @pytest.mark.parametrize("mode, channels", [("gray", 3), ("color", 1)])
    def test_raw_needs_the_pd_mode(self, capsys, tmp_path, stream, mode, channels):
        x, raw, out = tmp_path / "x.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        write_raw(ImageTensor(stream.uniform((channels, 4, 4))), x)
        write_raw(ImageTensor(stream.uniform((3, 4, 4))), raw)
        code, stdout, stderr = run_cli(capsys, "colorize", "--mode", mode, "--input", str(x), "--raw", str(raw),
                                       "--output", str(out))
        assert (code, stdout, stderr) == (3, "", "error: colorize --raw is read only with --mode pd\n")
        assert not out.exists()


class TestCs:
    def test_build_measure_pinv_pd_flow(self, capsys, tmp_path, stream):
        op_path = tmp_path / "op.pdm1"
        code, stdout, _ = run_cli(
            capsys, "cs", "--action", "build", "--block", "4", "--ratio", "1.0",
            "--seed", "3", "--output", str(op_path),
        )
        assert code == 0
        assert json_lines(stdout)[0]["q"] == 16
        img = tmp_path / "x.pdt1"
        x = ImageTensor(stream.uniform((1, 8, 8)))
        write_raw(x, img)
        meas = tmp_path / "m.pdt1"
        assert run_cli(capsys, "cs", "--action", "measure", "--op", str(op_path),
                       "--input", str(img), "--output", str(meas))[0] == 0
        rec = tmp_path / "rec.pdt1"
        assert run_cli(capsys, "cs", "--action", "pinv", "--op", str(op_path),
                       "--input", str(meas), "--output", str(rec))[0] == 0
        assert np.max(np.abs(read_raw(rec).data - x.data)) <= 1e-10
        raw = tmp_path / "raw.pdt1"
        write_raw(ImageTensor(stream.gaussian((1, 8, 8))), raw)
        out = tmp_path / "out.pdt1"
        code, stdout, _ = run_cli(
            capsys, "cs", "--action", "pd", "--op", str(op_path), "--lr", str(meas),
            "--raw", str(raw), "--output", str(out),
        )
        assert code == 0
        assert json_lines(stdout)[0]["max_abs"] <= 1e-10

    def test_build_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.pdm1", tmp_path / "b.pdm1"
        args = ["cs", "--action", "build", "--block", "4", "--ratio", "0.25", "--seed", "7"]
        run_cli(capsys, *args, "--output", str(a))
        run_cli(capsys, *args, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_op_fields(self, capsys, tmp_path):
        op_path = tmp_path / "op.pdm1"
        run_cli(capsys, "cs", "--action", "build", "--block", "4", "--ratio", "0.5",
                "--seed", "1", "--output", str(op_path))
        op = load_sense_op(op_path)
        assert (op.block, op.q, op.seed) == (4, 8, 1)

    @pytest.mark.parametrize("seed, kept", [(-1, 2**64 - 1), (2**64 + 5, 5), (7, 7)])
    def test_build_record_holds_the_seed_of_its_file(self, capsys, tmp_path, seed, kept):
        # The record, the operator and its PDM1 file keep the seed modulo 2**64.
        op_path, in_range = tmp_path / "op.pdm1", tmp_path / "kept.pdm1"
        args = ["cs", "--action", "build", "--block", "2", "--ratio", "0.5", "--seed"]
        code, stdout, _ = run_cli(capsys, *args, str(seed), "--output", str(op_path))
        assert code == 0
        assert json_lines(stdout)[0]["seed"] == kept == load_sense_op(op_path).seed == cs_build(2, 0.5, seed).seed
        assert run_cli(capsys, *args, str(kept), "--output", str(in_range))[0] == 0
        assert op_path.read_bytes() == in_range.read_bytes()

    def test_missing_flags_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cs", "--action", "measure", "--input", "x.pdt1",
                               "--output", str(tmp_path / "m.pdt1"))
        assert code == 3
        assert "--op" in err


# The address-space limit makes each size fail at allocation on any host,
# whatever its overcommit policy.
_LIMITED_CLI = (
    "import resource, runpy, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
    "runpy.run_module('rangenull', run_name='__main__')"
)


# Peak RSS of the process, in KiB, printed after ``main`` returns.  It is
# read from VmHWM, not ``ru_maxrss``, which on Linux keeps the peak of the
# process image that exec replaced (here, the test runner's).
_PEAK_AFTER_CLI = (
    "import re, resource, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
    "from rangenull.cli import main; "
    "code = main(sys.argv[1:]); "
    "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]); "
    "sys.exit(code)"
)


class TestOversizedNumbers:
    def test_nearest_fails_before_filling_memory(self, tmp_path, stream):
        # A 3x8x8 image at scale 200000 is 56 TiB: the output is allocated
        # (and refused) before any intermediate is filled.
        lr, out = tmp_path / "lr.pdt1", tmp_path / "o.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 8, 8))), lr)
        argv = ["pd", "--lr", str(lr), "--output", str(out), "--scale", "200000", "--predictor", "nearest"]
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_AFTER_CLI, *argv], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert not out.exists()
        assert int(proc.stdout) < 100 * 1024

    @pytest.mark.parametrize(
        "argv",
        [
            ["pd", "--scale", "1000000", "--predictor", "bicubic"],
            ["pd", "--scale", "1000000000", "--predictor", "nearest"],
            ["pd", "--scale", "9223372036854775808", "--predictor", "nearest"],
            ["bench", "--iterations", "1000000000000"],
            ["table1", "--count", "1", "--size", "4000000"],
        ],
        ids=["bicubic-pib", "nearest-tib", "nearest-overflow", "bench-iterations", "table1-size"],
    )
    def test_exits_3_without_traceback(self, tmp_path, stream, argv):
        lr, out = tmp_path / "lr.pdt1", tmp_path / "o.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 8, 8))), lr)
        if argv[0] == "pd":
            argv = [*argv, "--lr", str(lr), "--output", str(out)]
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", _LIMITED_CLI, *argv], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


class TestProcessLevel:
    def test_import_loads_no_thread_pool(self):
        # ``concurrent.futures`` pulls in ``logging``: milliseconds at every start.
        code = "import sys, rangenull.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_module_invocation_and_env_seed(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "rangenull", "table1", "--count", "2", "--size", "32",
             "--scale", "4", "--seed", "77"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip())["seed"] == 77

    def test_environment_sets_no_seed(self):
        env = {**os.environ, "PYTHONPATH": SRC, "RANGENULL_SEED": "77"}
        proc = subprocess.run(
            [sys.executable, "-m", "rangenull", "table1", "--count", "2", "--size", "32",
             "--scale", "4"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip())["seed"] == 0

    def test_usage_error_exit_code(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "rangenull", "nonsense"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2


class TestCliBoundary:
    """``cli.py`` parses and dispatches: it, and ``bench`` behind it, reach
    the library through public names only, and its outputs depend on
    nothing but argv and input files."""

    tree = ast.parse((Path(SRC) / "rangenull" / "cli.py").read_text())

    @pytest.mark.parametrize("module", ["cli", "bench"])
    def test_imports_no_private_library_name(self, module):
        tree = ast.parse((Path(SRC) / "rangenull" / f"{module}.py").read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "rangenull")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []

    def test_reads_no_environment(self):
        names = {node.attr for node in ast.walk(self.tree) if isinstance(node, ast.Attribute)}
        names |= {
            alias.name for node in ast.walk(self.tree) if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        assert not {"environ", "getenv"} & names


class TestStripeLayer:
    """The stripe walk and the file writers live in ``tensor``; ``pooling`` and
    ``restore`` keep their kernels and reach the walk only through ``tensor``."""

    trees = {path.stem: ast.parse(path.read_text()) for path in (Path(SRC) / "rangenull").glob("*.py")}

    def test_stripe_geometry_is_defined_only_in_tensor(self):
        defined = set()
        for module, tree in self.trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    defined.add((module, node.name))
                elif isinstance(node, ast.Assign):
                    defined |= {(module, target.id) for target in node.targets if isinstance(target, ast.Name)}
        walk = {"_STRIPE_BYTES", "_band_rows", "_pooling_rows", "_stripes"}
        assert {(module, name) for module, name in defined if name in walk} == {("tensor", name) for name in walk}

    def test_restore_imports_nothing_from_pooling(self):
        imported = []
        for node in ast.walk(self.trees["restore"]):
            if isinstance(node, ast.ImportFrom):
                imported += [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
        assert [name for name in imported if name.split(".")[-1] == "pooling"] == []

    def test_no_module_uses_writer_or_write_raw_stripes(self):
        # A definition, an import or a use, by name or as an attribute.
        used = {
            (module, name)
            for module, tree in self.trees.items()
            for node in ast.walk(tree)
            for name in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
            if name in {"_writer", "write_raw_stripes"}
        }
        assert used == set()

    def test_one_combine_opens_writers(self):
        # No per-operator streamed combine is left, and only ``linop`` opens
        # writers outside ``tensor``: a use by name or as an attribute, not
        # an import.
        defined, users = set(), set()
        for module, tree in self.trees.items():
            for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
                defined.add(function.name)
                for node in ast.walk(function):
                    if "_open_writers" in (getattr(node, "id", None), getattr(node, "attr", None)):
                        users.add(module if module in ("linop", "tensor") else f"{module}.{function.name}")
        assert not defined & {"stream_pd", "cs_stream_pd", "color_stream_pd"}
        assert users <= {"linop", "tensor"} and "linop" in users

    def test_files_open_before_the_first_walk(self):
        # Every protocol opens its files, and so checks every destination,
        # before it walks its input: every walk it names, the operator's
        # ``_walk``, ``measure`` (the combine's first walk) or
        # ``_writable_stripes``, is named inside its one ``with
        # _open_writers(...)``, and ``linop`` leaves the destination checks
        # to ``tensor._write_atomic``.
        walks = {"_walk", "measure", "_writable_stripes"}
        expected = {"measure": {"_walk"}, "lift": {"_writable_stripes"},
                    "reconstruct": {"_walk", "measure", "_writable_stripes"}}
        for name, named in expected.items():
            (function,) = [node for node in self.trees["linop"].body if getattr(node, "name", None) == name]
            (opened,) = [node for node in ast.walk(function) if isinstance(node, ast.With)
                         and any(_calls(item.context_expr, "_open_writers") for item in node.items)]
            for walk in walks:
                assert _uses(opened, walk) == _uses(function, walk), (name, walk)
            assert {walk for walk in walks if _uses(opened, walk)} == named, name
        assert "check_destination" not in _names(self.trees["linop"])

    def _callers(self, name):
        """(module, class or None, function) of each top-level function or
        method that calls ``name``, by name or as an attribute."""
        found = set()
        for module, tree in self.trees.items():
            scopes = [(None, node) for node in tree.body]
            for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
                scopes += [(cls.name, node) for node in cls.body]
            for owner, function in scopes:
                if isinstance(function, ast.FunctionDef) and _calls(function, name):
                    found.add((module, owner, function.name))
        return found

    def test_one_combine_walk_per_operator(self):
        # Every combine runs the one walk of ``reconstruct`` (behind
        # ``combine`` and ``table1``): a block operator's stripe is measured
        # only there and in its measurer, ``reconstruct`` alone makes the
        # combine's checks, it has no helper of its own, and no operator
        # class overrides ``combine``.
        assert self._callers("_forward_band") == {("linop", "_Banded", "add"), ("linop", None, "reconstruct")}
        removed = {"_combined", "_combine_checks", "_reconstruct", "_combine_band"}
        assert not removed & set().union(*map(_names, self.trees.values()))
        for module, cls in self._operator_classes():
            if cls != "LinearOperator":
                assert "combine" not in self._members(module, cls), cls
        # ``resample`` has no enlargement of its own: its phases run only in
        # its reduction loop and in ``_Enlarged``'s stripes.
        expected = {("resample", None, "resample"), ("resample", "_Enlarged", "stripes")}
        assert self._callers("_apply_phases") == expected
        (resample,) = [node for node in self.trees["resample"].body if getattr(node, "name", None) == "resample"]
        (loop,) = [node for node in resample.body if isinstance(node, ast.For)]
        assert _calls(resample, "_apply_phases") == _calls(loop, "_apply_phases") == 2

    def _operator_classes(self):
        """(module, class) of ``LinearOperator`` and every class derived from it."""
        bases = {(module, node.name): {getattr(base, "id", None) for base in node.bases}
                 for module, tree in self.trees.items() for node in tree.body if isinstance(node, ast.ClassDef)}
        found = {("linop", "LinearOperator")}
        while True:
            more = {key for key, names in bases.items() if names & {cls for _, cls in found}} - found
            if not more:
                return found
            found |= more

    def _members(self, module, cls):
        (body,) = [node.body for node in self.trees[module].body if getattr(node, "name", None) == cls]
        return {getattr(node, "name", None) for node in body}

    def test_one_forward_walk_per_operator(self):
        # Every forward of an array or a stripe source is ``measure``'s walk,
        # which is also the first walk of ``reconstruct`` (behind
        # ``combine``) for an operator that is not a block operator: only
        # ``measure`` and ``reconstruct`` walk an operator's stripes or
        # make its measurers.  No walk of another shape is left, and no
        # source is read through before it is refused: no protocol asks
        # whether its input is an ``ImageTensor`` to pick its order, and
        # ``verify_consistency`` is one call.
        protocols = {("linop", None, "measure"), ("linop", None, "reconstruct")}
        assert self._callers("_measurer") == self._callers("_walk") == protocols
        assert {caller for caller in self._callers("_check_input") if caller[2] != "_check_input"} <= {
            ("linop", None, "measure")}
        removed = {"_read_first", "_WalkOperator", "_combine_walk", "_channel_mean", "_forward_checked",
                   "_forward_walk", "_stream_walk", "_read_through", "_raw_shape", "_checked", "_raw_measured",
                   "_measured"}
        assert not removed & set().union(*map(_names, self.trees.values()))
        for name in ("measure", "reconstruct"):
            (function,) = [node for node in self.trees["linop"].body if getattr(node, "name", None) == name]
            assert "known" not in _names(function), name
        (verify,) = [node for node in self.trees["pooling"].body if getattr(node, "name", None) == "verify_consistency"]
        assert [type(node) for node in verify.body[1:]] == [ast.Return]
        assert _calls(verify, "for_measurement") == _calls(verify, "verify") == 1
        # The operators share one ``forward``, which is ``measure`` itself,
        # one ``combine`` on the one walk, and one ``verify``: only
        # ``DenseOperator`` gives its own forward, a matrix product.
        for module, cls in self._operator_classes() - {("linop", "LinearOperator"), ("linop", "DenseOperator")}:
            assert not {"forward", "combine", "verify"} & self._members(module, cls), cls
        (body,) = [node.body for node in self.trees["linop"].body if getattr(node, "name", None) == "LinearOperator"]
        (forward,) = [node for node in body if getattr(node, "name", None) == "forward"]
        assert _calls(forward, "measure") == 1
        for name in ("_check", "pool_down", "cs_measure", "color_to_gray"):
            assert _calls(forward, name) == 0
        # ``measure`` writes through the writers ``reconstruct`` uses.
        assert "save_tensor" not in _names(self.trees["linop"])

    def test_no_operator_class_defines_a_walk(self):
        # An operator gives kernels: none of its methods loops, and only
        # ``_walk`` names the stripe walks of ``tensor``.
        walks = {"_stripes", "_writable_stripes", "_gather"}
        for module, cls in self._operator_classes():
            (body,) = [node.body for node in self.trees[module].body if getattr(node, "name", None) == cls]
            for method in (node for node in body if isinstance(node, ast.FunctionDef)):
                assert not [node for node in ast.walk(method) if isinstance(node, (ast.For, ast.While))], (cls, method.name)
                if method.name != "_walk":
                    assert not walks & _names(method), (cls, method.name)

    def test_one_finiteness_rule(self):
        # A stripe source never checks its samples: no function takes a
        # ``checked`` flag and no class says whether its walks check by
        # band.  Only ``ImageTensor`` checks samples from outside; the walks
        # check what they compute.
        for module, tree in self.trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    assert "checked" not in {arg.arg for arg in args}, (module, node.name)
                elif isinstance(node, ast.ClassDef):
                    assigned = {target.id for item in node.body if isinstance(item, ast.Assign)
                                for target in item.targets if isinstance(target, ast.Name)}
                    assigned |= {item.target.id for item in node.body
                                 if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
                    assert "by_band" not in assigned, (module, node.name)
        assert self._callers("_check_finite") == {
            ("tensor", "ImageTensor", "__post_init__"),
            ("linop", "_Banded", "add"),
            ("linop", "_Lifted", "_made"),
            ("linop", None, "reconstruct"),
            ("restore", "_ChannelMean", "add"),
        }

    def test_one_prediction_dispatch(self):
        # ``predict_raw`` gathers what ``open_prediction`` yields, which alone
        # picks the predictor: it alone opens an external file or enlarges,
        # and ``resample`` enlarges through ``predict_raw``.
        (predict_raw,) = [node for node in self.trees["resample"].body if getattr(node, "name", None) == "predict_raw"]
        assert _calls(predict_raw, "open_prediction") == 1 and _calls(predict_raw, "load_tensor") == 0
        assert self._callers("_Enlarged") == {("resample", None, "open_prediction")}
        opening = {caller for caller in self._callers("open_stripes") if caller[0] == "resample"}
        assert opening == {("resample", None, "open_prediction")}
        assert "load_tensor" not in _names(self.trees["resample"])

    def test_one_pseudo_inverse(self):
        # ``lift`` alone walks a pseudo-inverse source: ``pinv`` and the CLI
        # call it, ``pool_up``, ``gray_to_color`` and ``cs_pinv`` call
        # ``pinv``, no operator class but ``DenseOperator`` defines ``pinv``
        # and none replicates by itself, and ``nearest`` is pooling's source.
        # ``reconstruct`` takes the sources of ``A+ y`` and ``A+ (A x_raw)``
        # from the same kernel, and ``_Lifted._made`` makes ``A+ y`` itself.
        assert self._callers("_lift_source") == {
            ("linop", None, "lift"), ("linop", None, "reconstruct"), ("resample", None, "open_prediction")}
        assert self._callers("lift") == {
            ("linop", "LinearOperator", "pinv"), ("cli", None, "_cmd_colorize"), ("cli", None, "_cmd_cs")}
        assert not {"lift"} & (_names(self.trees["pooling"]) | _names(self.trees["restore"]))
        for module, cls in self._operator_classes() - {("linop", "LinearOperator"), ("linop", "DenseOperator")}:
            assert "pinv" not in self._members(module, cls), cls
        assert "_lift_band" not in set().union(*map(_names, self.trees.values()))
        assert self._callers("gathered") == {("tensor", None, "_gather")}
        assert not {"cs_stream_pinv", "_replicate", "_pinv_walk"} & set().union(*map(_names, self.trees.values()))
        assert "repeat" not in set().union(*map(_names, self.trees.values()))

    def test_one_identity_and_one_format_choice(self):
        # The identity is pooling at scale 1 and adds nothing but its
        # constructor; ``linop`` keeps no identity of its own; and
        # ``_open_writers`` alone picks a file's format from its name.
        (identity,) = [node for node in self.trees["pooling"].body if getattr(node, "name", None) == "IdentityOperator"]
        assert [getattr(base, "id", None) for base in identity.bases] == ["PoolingOp"]
        members = [node for node in identity.body if not isinstance(node, ast.Expr)]
        assert [getattr(node, "name", None) for node in members] == ["__init__"]
        assert "IdentityOperator" not in {getattr(node, "name", None) for node in ast.walk(self.trees["linop"])}
        assert self._callers("_is_png_path") == {("tensor", None, "_open_writers")}

    def test_one_combine_formula(self):
        # A block operator gives its forward band and ``A+`` (``_expand``)
        # only; ``reconstruct`` spells the band combine and ``_Lifted``
        # ``A+ y`` from them, once for every block operator, and no module
        # defines a band combine of its own.
        defined = {node.name for tree in self.trees.values() for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "_combine_band" not in defined
        assert self._callers("_expand") == {("linop", None, "reconstruct"), ("linop", "_Lifted", "_made")}
        assert "_pinv_tiles" not in set().union(*map(_names, self.trees.values()))

    def test_block_walks_without_special_cases(self):
        # The one walk measures every file after its write and names the PDT1
        # writer only to check the stripe before a first write; ``reconstruct``
        # alone tells a block operator, which measures each stripe in place,
        # from another, by its class; ``lift`` walks every operator's source
        # alike; and pooling's scratch is one array.
        def function(module, name, cls=None):
            body = self.trees[module].body
            if cls is not None:
                (body,) = [node.body for node in body if getattr(node, "name", None) == cls]
            (found,) = [node for node in body if getattr(node, "name", None) == name]
            return found

        walk = function("linop", "reconstruct")
        assert sum(getattr(node, "id", None) == "_RawWriter" for node in ast.walk(walk)) == 1
        functions = [node for node in self.trees["linop"].body if isinstance(node, ast.FunctionDef)]
        assert [node.name for node in functions if "BlockOperator" in _names(node)] == ["reconstruct"]
        assert not [node for node in ast.walk(walk) if isinstance(node, ast.Compare)
                    and "raw" in _names(node) and isinstance(node.ops[0], (ast.Is, ast.IsNot))]
        lift_def = function("linop", "lift")
        assert not {"BlockOperator", "whole_channels", "_Lifted"} & _names(lift_def)
        scratch = function("pooling", "_scratch", "PoolingOp")
        (returned,) = [node.value for node in ast.walk(scratch) if isinstance(node, ast.Return)]
        assert _calls(scratch, "empty") == 1 and not isinstance(returned, ast.Tuple)


class TestCombineFirstWalkIsMeasure:
    """The first walk of every combine but a block operator's is ``measure``
    of the prediction itself, with no paths; a block operator measures each
    stripe within the one walk and never calls it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of every ``linop.measure`` call from now on."""
        calls = []

        def spy(*args, real=linop.measure):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linop, "measure", spy)
        return calls

    @pytest.mark.parametrize("operator", ["channel_mean", "dense"])
    def test_combine_measures_the_prediction_once(self, calls, stream, operator):
        if operator == "channel_mean":
            op = ColorMeanOp(4, 6)
        else:
            op = DenseOperator(stream.gaussian((5, 12)), in_shape=(1, 3, 4), out_shape=(1, 1, 5))
        x_raw = ImageTensor(stream.uniform(op.in_shape))
        op.combine(ImageTensor(stream.uniform(op.out_shape)), x_raw)
        assert len(calls) == 1
        assert len(calls[0]) == 2 and calls[0][0] is op and calls[0][1] is x_raw.data

    @pytest.mark.parametrize("operator", ["pooling", "block_sensing"])
    def test_a_block_combine_never_calls_it(self, calls, stream, operator):
        op = PoolingOp(2, 3, 8, 12) if operator == "pooling" else cs_build(4, 0.5, seed=1)
        x_raw = ImageTensor(stream.uniform((3, 8, 12)))
        y = ImageTensor(stream.uniform((3 * op.q, 2, 3) if operator == "block_sensing" else (3, 4, 6)))
        op.combine(y, x_raw)
        assert calls == []

    def test_colorize_pd_measures_its_raw_once(self, capsys, calls, tmp_path, stream):
        gray, raw, out = tmp_path / "y.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        _pdt1(gray, stream.uniform((1, 4, 6)))
        _pdt1(raw, stream.uniform((3, 4, 6)))
        argv = ["colorize", "--mode", "pd", "--input", gray, "--raw", raw, "--output", out]
        assert run_cli(capsys, *map(str, argv))[0] == 0
        ((op, x_raw),) = calls
        assert isinstance(op, ColorMeanOp) and op.in_shape == (3, 4, 6)
        assert isinstance(x_raw, RawReader) and x_raw.path == str(raw)


class TestNoUnusedImports:
    """Every name a library module imports is used in it (``__init__`` only
    re-exports, so it is left out)."""

    MODULES = sorted(path.name for path in (Path(SRC) / "rangenull").glob("*.py") if path.name != "__init__.py")

    @pytest.mark.parametrize("module", MODULES)
    def test_every_imported_name_is_used(self, module):
        tree = ast.parse((Path(SRC) / "rangenull" / module).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used == set()


def _calls(tree, name):
    """How many calls to ``name``, by name or as an attribute, ``tree`` holds."""
    funcs = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    return sum(name in (getattr(func, "id", None), getattr(func, "attr", None)) for func in funcs)


def _uses(tree, name):
    """How many times ``tree`` names ``name``, by name or as an attribute."""
    return sum(name in (getattr(node, "id", None), getattr(node, "attr", None)) for node in ast.walk(tree))


def _names(tree):
    """Every name ``tree`` defines, imports or uses, by name or as an attribute."""
    return {
        name
        for node in ast.walk(tree)
        for name in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
        if isinstance(name, str)
    }


def _pdt1(path, a):
    """Write ``a`` as PDT1 bytes directly, so a test can store what ``write_raw`` refuses."""
    a = np.asarray(a, dtype="<f8")
    path.write_bytes(struct.pack("<4sIII", b"PDT1", *a.shape) + a.tobytes())


def _resize_on_first_read(monkeypatch, path, change, after=0):
    """Truncate or extend ``path`` by ``change`` bytes at the first ``os.preadv``
    on it after ``after`` others."""
    real_preadv, inode = os.preadv, path.stat().st_ino
    seen = []

    def preadv(fd, buffers, offset):
        if os.fstat(fd).st_ino == inode:
            seen.append(fd)
            if len(seen) > after:
                monkeypatch.setattr(os, "preadv", real_preadv)
                os.truncate(path, path.stat().st_size + change)
        return real_preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", preadv)


# Faults of a PDT1 prediction (``pd --raw``) or reconstruction (``verify
# --sr``) of shape (3, 8, 10) for a (3, 4, 5) measurement at scale 2, and
# the message each gives; {path} is the faulty file, {role} its command's
# shape message.
_FAULTS = {
    "bad_magic": "{path}: unrecognized format (expected PNG or PDT1)",
    "short_header": "{path}: not a PDT1 tensor file (bad magic)",
    "zero_dimension": "{path}: invalid tensor dimensions (3, 0, 10)",
    "sample_short": "{path}: payload is 1912 bytes, header dimensions need 1920",
    "sample_long": "{path}: payload is 1928 bytes, header dimensions need 1920",
    "nan_in_last_stripe": "tensor samples must be finite (no NaN or infinity)",
    "shape_mismatch": "{role}",
    "overflow": "tensor samples must be finite (no NaN or infinity)",
    "shrinks": "{path}: payload shrank while it was read",
    "grows": "{path}: payload grew while it was read",
}
_SHAPE_MESSAGES = {
    "pd": "external prediction shape (3, 8, 12), expected (3, 8, 10)",
    "verify": "input shape (3, 8, 12) does not match operator shape (3, 8, 10)",
}


def _make_fault(fault, path, monkeypatch, stream):
    """Write the faulty file of ``fault`` at ``path``; return the measurement."""
    y = stream.uniform((3, 4, 5))
    x = stream.uniform((3, 8, 10))
    if fault == "overflow":
        # Every block mean is 1e308 but the last, whose anchored residual
        # overflows; y then makes no other sample overflow.
        y, x = np.full(y.shape, -1e308), np.full(x.shape, 1e308)
        x[-1, -1, -1] = -1e308
    if fault == "nan_in_last_stripe":
        x[-1, -1, -1] = np.nan
    _pdt1(path, x if fault != "shape_mismatch" else stream.uniform((3, 8, 12)))
    data = path.read_bytes()
    if fault == "bad_magic":
        path.write_bytes(b"NOPE" + data[4:])
    elif fault == "short_header":
        path.write_bytes(data[:10])
    elif fault == "zero_dimension":
        path.write_bytes(data[:8] + struct.pack("<I", 0) + data[12:])
    elif fault == "sample_short":
        path.write_bytes(data[:-8])
    elif fault == "sample_long":
        path.write_bytes(data + bytes(8))
    elif fault in ("shrinks", "grows"):
        _resize_on_first_read(monkeypatch, path, -8 if fault == "shrinks" else 8)
    return y


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestStreamedErrors:
    """``pd --predictor external`` with a PDT1 ``--raw`` and ``verify`` with a
    PDT1 ``--sr`` read the file one stripe at a time; every fault still
    exits 3 with the message of the in-memory path, prints nothing and
    leaves no file behind."""

    @pytest.fixture(autouse=True)
    def one_block_row_per_stripe(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 1)

    # "in_memory" names the PNG output, which pd once wrote from whole
    # images; it takes the same stripe walk now.
    @pytest.mark.parametrize("output", ["o.pdt1", "o.png"], ids=["streamed", "in_memory"])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_pd(self, capsys, tmp_path, stream, monkeypatch, fault, output):
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / output
        _pdt1(lr, _make_fault(fault, raw, monkeypatch, stream))
        out.write_bytes(b"old")
        code, stdout, stderr = run_cli(
            capsys, "pd", "--lr", str(lr), "--scale", "2", "--predictor", "external",
            "--raw", str(raw), "--output", str(out),
        )
        message = _FAULTS[fault].format(path=raw, role=_SHAPE_MESSAGES["pd"])
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert out.read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_verify(self, capsys, tmp_path, stream, monkeypatch, fault):
        lr, sr = tmp_path / "lr.pdt1", tmp_path / "sr.pdt1"
        _pdt1(lr, _make_fault(fault, sr, monkeypatch, stream))
        code, stdout, stderr = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", "2")
        message = _FAULTS[fault].format(path=sr, role=_SHAPE_MESSAGES["verify"])
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.pdt1", "sr.pdt1"]

    @pytest.mark.parametrize("fault", ["nan_in_last_stripe", "shrinks", "grows"])
    def test_pd_checks_the_destination_before_reading(self, capsys, tmp_path, stream, monkeypatch, fault):
        # A fault met while reading --raw now comes after the destination
        # check, which must precede the first streamed write.
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "out"
        out.mkdir()
        _pdt1(lr, _make_fault(fault, raw, monkeypatch, stream))
        code, stdout, stderr = run_cli(
            capsys, "pd", "--lr", str(lr), "--scale", "2", "--predictor", "external",
            "--raw", str(raw), "--output", str(out),
        )
        assert (code, stdout) == (3, "")
        assert stderr.startswith("error: ") and "Is a directory" in stderr
        assert not list(tmp_path.rglob("*.tmp")) and not any(out.iterdir())

    def test_verify_names_a_mismatched_sr_before_reading(self, capsys, tmp_path, stream):
        # A --sr of the wrong shape is refused from its header, as pd's
        # --raw is: a NaN in it is not reached.
        lr, sr = tmp_path / "lr.pdt1", tmp_path / "sr.pdt1"
        _pdt1(lr, stream.uniform((3, 4, 5)))
        x = stream.uniform((3, 8, 12))
        x[-1, -1, -1] = np.nan
        _pdt1(sr, x)
        code, stdout, stderr = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", "2")
        assert (code, stdout, stderr) == (3, "", f"error: {_SHAPE_MESSAGES['verify']}\n")

    @pytest.mark.parametrize("fault", ["nan_in_last_stripe", "shrinks", "grows"])
    def test_pd_names_a_wrong_shape_before_reading(self, capsys, tmp_path, stream, monkeypatch, fault):
        # A --raw of the wrong shape is refused from its header, so a fault
        # met only while reading it is not reached: the file is never read.
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        _pdt1(lr, stream.uniform((3, 4, 5)))
        x = stream.uniform((3, 8, 12))
        if fault == "nan_in_last_stripe":
            x[-1, -1, -1] = np.nan
        _pdt1(raw, x)
        if fault in ("shrinks", "grows"):
            _resize_on_first_read(monkeypatch, raw, -8 if fault == "shrinks" else 8)
        code, stdout, stderr = run_cli(
            capsys, "pd", "--lr", str(lr), "--scale", "2", "--predictor", "external",
            "--raw", str(raw), "--output", str(out),
        )
        assert (code, stdout, stderr) == (3, "", f"error: {_SHAPE_MESSAGES['pd']}\n")
        assert raw.stat().st_size == 16 + 8 * x.size
        assert not out.exists()

    @pytest.mark.parametrize("change", [-8, 8], ids=["shrinks", "grows"])
    @pytest.mark.parametrize("shape, scale", [((3, 8, 12), "2"), ((3, 8, 10), "0")], ids=["shape", "scale"])
    def test_verify_refuses_an_unfit_sr_unread(self, capsys, tmp_path, stream, monkeypatch, shape, scale, change):
        # An --sr that does not fit is refused by its shape or the scale
        # before its first stripe is read: neither the NaN in that stripe
        # nor the change of size that a first read would make is met.
        lr, sr = tmp_path / "lr.pdt1", tmp_path / "sr.pdt1"
        _pdt1(lr, stream.uniform((3, 4, 5)))
        x = stream.uniform(shape)
        x[0, 0, 0] = np.nan
        _pdt1(sr, x)
        _resize_on_first_read(monkeypatch, sr, change)
        code, stdout, stderr = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", scale)
        message = _SHAPE_MESSAGES["verify"] if scale == "2" else "scale must be a positive integer, got 0"
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert sr.stat().st_size == 16 + 8 * x.size


class TestReconstructFaultOrder:
    """``reconstruct`` with a prediction that does not fit, for every
    operator: the destination's fault comes first, then the shape's; the
    prediction's own faults are never met, for it is never read, and no
    file is left behind."""

    @pytest.fixture(autouse=True)
    def one_row_per_stripe(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 1)

    @pytest.mark.parametrize("destination", ["directory", "file"])
    @pytest.mark.parametrize("source, fault", [("pdt1", "nan_in_last_stripe"), ("pdt1", "shrinks"),
                                               ("pdt1", None), ("array", None)])
    @pytest.mark.parametrize("operator", ["pooling", "cs", "color"])
    def test_order(self, tmp_path, stream, monkeypatch, operator, source, fault, destination):
        x = stream.uniform((3, 8, 10))
        if operator == "pooling":
            y = pool_down(ImageTensor(x), 2)
            op = PoolingOp.for_measurement(y, 2)
        elif operator == "cs":
            op = cs_build(2, 0.5, seed=1)
            y = cs_measure(op, ImageTensor(x))
        else:
            op, y = ColorMeanOp(8, 10), ImageTensor(x[:1])
        misfit, raw, out = stream.uniform((3, 8, 12)), tmp_path / "raw.pdt1", tmp_path / "out"
        if fault == "nan_in_last_stripe":
            misfit[-1, -1, -1] = np.nan
        _pdt1(raw, misfit)
        if destination == "directory":
            out.mkdir()
        if fault == "shrinks":
            _resize_on_first_read(monkeypatch, raw, -8)
        with RawReader(raw) as reader, pytest.raises(Exception) as info:
            reconstruct(op, y, reader if source == "pdt1" else misfit, out)
        if destination == "directory":
            expected = (IsADirectoryError, str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))))
        else:
            expected = (ValueError, "raw prediction shape (3, 8, 12) does not match operator input (3, 8, 10)")
        assert (type(info.value), str(info.value)) == expected
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "raw.pdt1"][destination == "file":]
        assert raw.stat().st_size == 16 + 8 * misfit.size


class TestMeasureFaultOrder:
    """``measure`` for every operator: a source that does not fit is refused
    with the operator's message and never read, so its own faults are not
    met; for a source that fits the destination is checked first, then the
    walk meets the source's faults.  No file is left behind."""

    # The misfit source of each operator, and its refusal.
    MISFITS = {
        "pooling": ((3, 8, 12), "input shape (3, 8, 12) does not match operator shape (3, 8, 10)"),
        "cs": ((3, 8, 11), "image size 8x11 is not divisible by block 2"),
        "color": ((2, 8, 10), "expected a 3-channel image, got 2"),
    }

    @pytest.fixture(autouse=True)
    def one_row_per_stripe(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 1)

    @pytest.mark.parametrize("destination", ["directory", "file"])
    @pytest.mark.parametrize("source, fault", [("pdt1", "nan_in_last_stripe"), ("pdt1", "shrinks"),
                                               ("pdt1", None), ("array", None)])
    @pytest.mark.parametrize("fits", [False, True], ids=["misfit", "fit"])
    @pytest.mark.parametrize("operator", list(MISFITS))
    def test_order(self, tmp_path, stream, monkeypatch, operator, fits, source, fault, destination):
        op = {"pooling": PoolingOp(2, 3, 8, 10), "cs": cs_build(2, 0.5, seed=1), "color": ColorMeanOp(8, 10)}[operator]
        shape, refusal = self.MISFITS[operator]
        x = stream.uniform((3, 8, 10) if fits else shape)
        if fault == "nan_in_last_stripe":
            x[-1, -1, -1] = np.nan
        raw, out = tmp_path / "raw.pdt1", tmp_path / "out"
        _pdt1(raw, x)
        if destination == "directory":
            out.mkdir()
        if fault == "shrinks":
            _resize_on_first_read(monkeypatch, raw, -8)
        with RawReader(raw) as reader:
            src = reader if source == "pdt1" else x
            if fits and fault is None and destination == "file":
                assert measure(op, src, out) is None
                assert read_raw(out) == op.forward(ImageTensor(x))
                return
            with pytest.raises(Exception) as info:
                measure(op, src, out)
        if not fits:
            expected = (ValueError, refusal)
        elif destination == "directory":
            expected = (IsADirectoryError, str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))))
        elif fault == "nan_in_last_stripe":
            expected = (ValueError, "tensor samples must be finite (no NaN or infinity)")
        else:
            expected = (ValueError, f"{raw}: payload shrank while it was read")
        assert (type(info.value), str(info.value)) == expected
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "raw.pdt1"][destination == "file":]
        if not fits or destination == "directory":
            assert raw.stat().st_size == 16 + 8 * x.size


def _payload_reads(monkeypatch):
    """The paths ``tensor._pread_exact`` reads from now on, in order."""
    paths = []

    def record(fd, arr, offset, path, real=tensor._pread_exact):
        paths.append(os.fspath(path))
        real(fd, arr, offset, path)

    monkeypatch.setattr(tensor, "_pread_exact", record)
    return paths


class TestRefusedInputIsNotRead:
    """A source that a protocol refuses by its shape, block, channels or
    scale is refused from its PDT1 header: no sample of it is read, so a
    NaN in it is not met, and no file is left behind."""

    @staticmethod
    def _case(operator, stream):
        """The operator on (3, 8, 10) images, its measurement of one, the
        shape of a source it refuses, and the refusals of ``measure`` and
        ``reconstruct``."""
        combine = "raw prediction shape {} does not match operator input (3, 8, 10)"
        if operator == "pooling":
            op, shape = PoolingOp(2, 3, 8, 10), (3, 8, 12)
            refusal = "input shape (3, 8, 12) does not match operator shape (3, 8, 10)"
        elif operator == "cs":
            op, shape, refusal = cs_build(2, 0.5, seed=1), (3, 8, 11), "image size 8x11 is not divisible by block 2"
        elif operator == "color":
            op, shape, refusal = ColorMeanOp(8, 10), (2, 8, 10), "expected a 3-channel image, got 2"
        else:
            matrix = stream.gaussian((80, 240))
            op, shape = DenseOperator(matrix, in_shape=(3, 8, 10), out_shape=(1, 8, 10)), (3, 8, 12)
            refusal = "input shape (3, 8, 12) does not match operator shape (3, 8, 10)"
        y = op.forward(ImageTensor(stream.uniform((3, 8, 10))))
        return op, y, shape, refusal, combine.format(shape)

    @pytest.mark.parametrize("protocol", ["measure", "reconstruct"])
    @pytest.mark.parametrize("operator", ["pooling", "cs", "color", "dense"])
    def test_protocols(self, tmp_path, stream, monkeypatch, operator, protocol):
        op, y, shape, refusal, combine = self._case(operator, stream)
        raw, out = tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        x = stream.uniform(shape)
        x[0, 0, 0] = np.nan
        _pdt1(raw, x)
        reads = _payload_reads(monkeypatch)
        with RawReader(raw) as reader, pytest.raises(ValueError) as info:
            if protocol == "measure":
                measure(op, reader, out)
            else:
                reconstruct(op, y, reader, out)
        assert str(info.value) == (refusal if protocol == "measure" else combine)
        assert reads == [] and [p.name for p in tmp_path.iterdir()] == ["raw.pdt1"]

    @pytest.mark.parametrize("shape, scale, message", [
        ((3, 8, 12), 2, "input shape (3, 8, 12) does not match operator shape (3, 8, 10)"),
        ((3, 8, 10), 0, "scale must be a positive integer, got 0"),
    ], ids=["shape", "scale"])
    def test_verify_consistency(self, tmp_path, stream, monkeypatch, shape, scale, message):
        raw = tmp_path / "sr.pdt1"
        x = stream.uniform(shape)
        x[0, 0, 0] = np.nan
        _pdt1(raw, x)
        reads = _payload_reads(monkeypatch)
        with RawReader(raw) as reader, pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_consistency(ImageTensor(stream.uniform((3, 4, 5))), reader, scale)
        assert reads == []

    @pytest.mark.parametrize("command", ["verify", "cs-measure", "cs-pd", "colorize-gray", "colorize-pd"])
    def test_cli(self, capsys, tmp_path, stream, monkeypatch, command):
        misfit, lr, out = tmp_path / "misfit.pdt1", tmp_path / "lr.pdt1", tmp_path / "o.pdt1"
        op = tmp_path / "op.pdm1"
        shapes = {"verify": (3, 8, 12), "cs-measure": (3, 8, 9), "cs-pd": (3, 8, 9), "colorize-gray": (2, 8, 10),
                  "colorize-pd": (3, 8, 12)}
        x = stream.uniform(shapes[command])
        x[0, 0, 0] = np.nan
        _pdt1(misfit, x)
        if command.startswith("cs"):
            save_sense_op(cs_build(2, 0.5, seed=1), op)
            _pdt1(lr, stream.uniform((6, 4, 5)))
        else:
            _pdt1(lr, stream.uniform((3, 4, 5) if command == "verify" else (1, 8, 10)))
        argv, message = {
            "verify": (["verify", "--lr", lr, "--sr", misfit, "--scale", "2"], _SHAPE_MESSAGES["verify"]),
            "cs-measure": (["cs", "--action", "measure", "--op", op, "--input", misfit, "--output", out],
                           "image size 8x9 is not divisible by block 2"),
            "cs-pd": (["cs", "--action", "pd", "--op", op, "--lr", lr, "--raw", misfit, "--output", out],
                      "raw prediction shape (3, 8, 9) does not match operator input (3, 8, 10)"),
            "colorize-gray": (["colorize", "--mode", "gray", "--input", misfit, "--output", out],
                              "expected a 3-channel image, got 2"),
            "colorize-pd": (["colorize", "--mode", "pd", "--input", lr, "--raw", misfit, "--output", out],
                            "raw prediction shape (3, 8, 12) does not match operator input (3, 8, 10)"),
        }[command]
        reads = _payload_reads(monkeypatch)
        assert run_cli(capsys, *map(str, argv)) == (3, "", f"error: {message}\n")
        assert str(misfit) not in reads
        assert not out.exists() and not list(tmp_path.rglob("*.tmp"))

    def test_cs_measure_into_a_png_of_twelve_channels(self, capsys, tmp_path, stream, monkeypatch):
        # The measurement's shape is known from the input's header, so its
        # PNG is refused before the input is read; a NaN in it is not met.
        op, x, out = tmp_path / "op.pdm1", tmp_path / "x.pdt1", tmp_path / "o.png"
        save_sense_op(cs_build(2, 1.0, seed=3), op)
        samples = stream.uniform((3, 8, 10))
        samples[-1, -1, -1] = np.nan
        _pdt1(x, samples)
        reads = _payload_reads(monkeypatch)
        argv = ["cs", "--action", "measure", "--op", str(op), "--input", str(x), "--output", str(out)]
        assert run_cli(capsys, *argv) == (3, "", "error: PNG output needs 1 or 3 channels, got 12\n")
        assert str(x) not in reads
        assert not out.exists() and not list(tmp_path.rglob("*.tmp"))

    def test_measure_refuses_an_unbound_forward_into_files(self, tmp_path, stream, monkeypatch):
        # An operator that gives its own ``forward`` and no ``out_shape`` has
        # no shape to open files for: refused by name before the input is
        # read.  Into an array it measures as before.
        class HalfWidth(linop.LinearOperator):
            def forward(self, x):
                return ImageTensor(x.data[:, :, ::2])

            def pinv(self, y):
                return ImageTensor(y.data.repeat(2, axis=2))

        raw, out = tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        x = stream.uniform((3, 8, 10))
        _pdt1(raw, x)
        reads = _payload_reads(monkeypatch)
        with RawReader(raw) as reader, pytest.raises(ValueError) as info:
            measure(HalfWidth(), reader, out)
        assert str(info.value) == "HalfWidth leaves out_shape None, so its measurement has no files"
        assert reads == [] and [p.name for p in tmp_path.iterdir()] == ["raw.pdt1"]
        with RawReader(raw) as reader:
            assert measure(HalfWidth(), reader).tobytes() == x[:, :, ::2].tobytes()


# Faults of a PDT1 prediction (``pd --raw``) or reconstruction (``verify
# --sr``) of shape (3, 4s, 5s) for a (3, 4, 5) measurement at scale s, read
# one block row at a time, 12 stripes: a NaN or an infinity in the first,
# a middle or the last stripe, a block whose residual from its first
# sample overflows (none at scale 1, where every sample is its own
# block), a file that shrinks or grows from the sixth read on, and pairs
# of these, where the fault a per-stripe check meets first names the error.
_PARITY_SAMPLES = {"first": lambda s: (0, 0, 0), "middle": lambda s: (1, 3 * s - 1, 3), "last": lambda s: (-1, -1, -1)}
_PARITY_FAULTS = [
    *(f"{value}_in_{where}" for value in ("nan", "+inf", "-inf") for where in _PARITY_SAMPLES),
    "overflow",
    "shrinks",
    "grows",
    "nan_in_first, grows",
    "-inf_in_middle, shrinks",
    "overflow, grows",
]


def _make_parity_fault(fault, path, s, monkeypatch, stream):
    """Write the faulty file of ``fault`` at ``path``; return the
    measurement, and the message the fault gives ``pd`` and ``verify``, or
    None where the call succeeds."""
    x = stream.uniform((3, 4 * s, 5 * s))
    finite = "tensor samples must be finite (no NaN or infinity)"
    # (when it is met, message): at its stripe (0), at the last read (1).
    messages, resize = [], None
    for part in fault.split(", "):
        if part == "overflow":
            x[1, 2 * s, :2] = [1.7e308, -1.7e308]
            # pd meets it in the combined stripe, verify in the stripe's measurement.
            messages += [(0, finite)] if s > 1 else []
        elif part in ("shrinks", "grows"):
            resize = -8 if part == "shrinks" else 8
            messages.append((1, f"{path}: payload {'shrank' if part == 'shrinks' else 'grew'} while it was read"))
        else:
            value, where = part.split("_in_")
            x[_PARITY_SAMPLES[where](s)] = float(value)
            messages.append((0, finite))
    _pdt1(path, x)
    if resize:
        _resize_on_first_read(monkeypatch, path, resize, after=5)
    return stream.uniform((3, 4, 5)), min(messages)[1] if messages else None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestStreamedFaultParity:
    """A non-finite sample anywhere in a PDT1 ``--raw`` or ``--sr``, at every
    scale and into every order of outputs, exits 3 with the message it gave
    when the reader checked every stripe, prints nothing and leaves no
    output and no temporary file; a block whose mean overflows is refused
    at its stripe by both commands, and so are files that change size."""

    @pytest.fixture(autouse=True)
    def one_block_row_per_stripe(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 1)

    @pytest.mark.parametrize("outputs", [("o.pdt1",), ("o.png",), ("o.png", "o2.pdt1")], ids="+".join)
    @pytest.mark.parametrize("fault", _PARITY_FAULTS)
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 8])
    def test_pd(self, capsys, tmp_path, stream, monkeypatch, s, fault, outputs):
        lr, raw = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1"
        y, message = _make_parity_fault(fault, raw, s, monkeypatch, stream)
        _pdt1(lr, y)
        argv = ["pd", "--lr", str(lr), "--scale", str(s), "--predictor", "external", "--raw", str(raw),
                "--output", str(tmp_path / outputs[0])]
        argv += ["--png", str(tmp_path / outputs[1])] if len(outputs) > 1 else []
        code, stdout, stderr = run_cli(capsys, *argv)
        if message is None:
            assert (code, stderr, len(json_lines(stdout))) == (0, "", len(outputs))
            return
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.pdt1", "raw.pdt1"]

    @pytest.mark.parametrize("fault", _PARITY_FAULTS)
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 8])
    def test_verify(self, capsys, tmp_path, stream, monkeypatch, s, fault):
        lr, sr = tmp_path / "lr.pdt1", tmp_path / "sr.pdt1"
        y, message = _make_parity_fault(fault, sr, s, monkeypatch, stream)
        _pdt1(lr, y)
        code, stdout, stderr = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", str(s))
        if message is None:
            assert (code, stderr, len(json_lines(stdout))) == (0, "", 1)
            return
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.pdt1", "sr.pdt1"]

    def test_verify_stops_reading_at_an_overflowing_block(self, capsys, tmp_path, stream, monkeypatch):
        # At scale 2 the overflowing block is in block row 2 of channel 1:
        # the 7th of 12 stripes, and the last one read.
        lr, sr = tmp_path / "lr.pdt1", tmp_path / "sr.pdt1"
        y, message = _make_parity_fault("overflow", sr, 2, monkeypatch, stream)
        _pdt1(lr, y)
        reads = _payload_reads(monkeypatch)
        code, stdout, stderr = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", "2")
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert reads.count(str(sr)) == 7


class TestFiniteChecks:
    """On finite inputs, ``pd --predictor external`` into a PDT1 and
    ``verify`` check finiteness through the block means: no full-resolution
    stripe goes through ``_check_finite``, only low-resolution arrays."""

    def test_no_full_resolution_stripe_is_checked(self, capsys, tmp_path, stream, monkeypatch):
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        _pdt1(lr, stream.uniform((3, 16, 16)))
        _pdt1(raw, stream.uniform((3, 64, 64)))
        checked = []

        def record(arr, real=tensor._check_finite):
            checked.append(arr.shape)
            real(arr)

        for module in (tensor, linop, pooling):
            # pooling checks nothing itself today; set there too, should it again.
            monkeypatch.setattr(module, "_check_finite", record, raising=False)
        code, _, _ = run_cli(capsys, "pd", "--lr", str(lr), "--scale", "4", "--predictor", "external",
                             "--raw", str(raw), "--output", str(out))
        assert code == 0
        assert run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(out), "--scale", "4")[0] == 0
        assert checked and all(shape[-1] == 16 for shape in checked)

    @staticmethod
    def _record_checks(monkeypatch):
        """The shapes of the arrays passed to ``_check_finite``, in order."""
        checked = []

        def record(arr, real=tensor._check_finite):
            checked.append(arr.shape)
            real(arr)

        for module in (tensor, linop, pooling, restore):
            monkeypatch.setattr(module, "_check_finite", record, raising=False)
        return checked

    @pytest.mark.parametrize("action", ["measure", "pd"])
    def test_cs_checks_no_full_resolution_stripe(self, capsys, tmp_path, stream, monkeypatch, action):
        # Block sensing checks through its measurements, into a PDT1.
        op, x = tmp_path / "op.pdm1", tmp_path / "x.pdt1"
        sense = cs_build(8, 0.25, seed=1)
        save_sense_op(sense, op)
        _pdt1(x, stream.uniform((3, 64, 64)))
        if action == "measure":
            argv = ["--input", str(x)]
        else:
            _pdt1(tmp_path / "y.pdt1", stream.uniform((3 * sense.q, 8, 8)))
            argv = ["--lr", str(tmp_path / "y.pdt1"), "--raw", str(x)]
        checked = self._record_checks(monkeypatch)
        code, _, _ = run_cli(capsys, "cs", "--action", action, "--op", str(op), *argv,
                             "--output", str(tmp_path / "o.pdt1"))
        assert code == 0
        assert [shape for shape in checked if shape[-1] == 64] == []

    @pytest.mark.parametrize("output", ["o.pdt1", "o.png"])
    def test_colorize_pd_checks_each_color_sample_once(self, capsys, tmp_path, stream, monkeypatch, output):
        # The combined stripes, (k, 64) each, and never the prediction's; the
        # gray input's load is (1, 64, 64), and the record's mean is checked
        # band by band by its measurer, not whole.
        gray, raw = tmp_path / "g.pdt1", tmp_path / "raw.pdt1"
        _pdt1(gray, stream.uniform((1, 64, 64)))
        _pdt1(raw, stream.uniform((3, 64, 64)))
        checked = self._record_checks(monkeypatch)
        code, _, _ = run_cli(capsys, "colorize", "--mode", "pd", "--input", str(gray), "--raw", str(raw),
                             "--output", str(tmp_path / output))
        assert code == 0
        assert sum(k * w for k, w in (shape for shape in checked if len(shape) == 2)) == 3 * 64 * 64
        assert [shape for shape in checked if len(shape) != 2] == [(1, 64, 64)]


class TestSensingChecksThroughItsProduct:
    """Block sensing checks a sample only through the BLAS product of its
    block, which must carry ``0 * NaN`` and ``0 * inf`` as NaN: with rows
    that select pixels most weights are exactly 0, and a non-finite pixel
    that no row samples is still refused, with nothing written."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_unsampled_pixel_is_refused(self, capsys, tmp_path, stream, value):
        op = BlockSenseOp(4, 4, seed=0, ratio=0.25, rows=np.eye(16)[:4])  # the first row of each block
        save_sense_op(op, tmp_path / "op.pdm1")
        x = stream.uniform((3, 8, 12))
        x[1, 5, 2] = value  # the second row of its block
        _pdt1(tmp_path / "x.pdt1", x)
        _pdt1(tmp_path / "y.pdt1", stream.uniform((3 * op.q, 2, 3)))
        message = "tensor samples must be finite (no NaN or infinity)"
        with RawReader(tmp_path / "x.pdt1") as reader, pytest.raises(ValueError, match=re.escape(message)):
            measure(load_sense_op(tmp_path / "op.pdm1"), reader)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        common = ["cs", "--op", str(tmp_path / "op.pdm1")]
        for argv in (["--action", "measure", "--input", str(tmp_path / "x.pdt1"), "--output", str(tmp_path / "m.pdt1")],
                     ["--action", "pd", "--lr", str(tmp_path / "y.pdt1"), "--raw", str(tmp_path / "x.pdt1"),
                      "--output", str(tmp_path / "o.pdt1")],
                     ["--action", "pd", "--lr", str(tmp_path / "y.pdt1"), "--raw", str(tmp_path / "x.pdt1"),
                      "--output", str(tmp_path / "o.png")]):
            assert run_cli(capsys, *common, *argv) == (3, "", f"error: {message}\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == inputs


class TestTornWalk:
    """A PDT1 rewritten in place, at its size, while one walk reads it is
    refused at the end of that walk, naming the file: the command exits 3,
    prints nothing and writes no output."""

    @pytest.fixture(autouse=True)
    def one_block_row_per_stripe(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 1)

    @pytest.mark.parametrize("command", ["pd", "verify", "cs"])
    def test_refused(self, capsys, tmp_path, stream, monkeypatch, command):
        lr, x, out = tmp_path / "lr.pdt1", tmp_path / "x.pdt1", tmp_path / "o.pdt1"
        _pdt1(lr, stream.uniform((3, 4, 5)))
        _pdt1(x, stream.uniform((3, 8, 10)))
        if command == "pd":
            argv = ["pd", "--lr", str(lr), "--scale", "2", "--predictor", "external", "--raw", str(x),
                    "--output", str(out)]
        elif command == "verify":
            argv = ["verify", "--lr", str(lr), "--sr", str(x), "--scale", "2"]
        else:
            save_sense_op(cs_build(2, 0.5, seed=1), tmp_path / "op.pdm1")
            argv = ["cs", "--action", "measure", "--op", str(tmp_path / "op.pdm1"), "--input", str(x),
                    "--output", str(out)]
        inputs = sorted(p.name for p in tmp_path.iterdir())
        _rewrite_after_reads(monkeypatch, x, 1)
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout, stderr) == (3, "", f"error: {x}: file changed between two reads\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


class TestStreamedMemory:
    """The streamed commands hold the measurement, its pooled estimate and a
    few stripes: at scale 4 well under a quarter of one image's bytes,
    where the in-memory path holds two images for ``pd`` and one for
    ``verify``.  Every predictor, with a second PDT1 or a PNG output, stays
    under one image."""

    @pytest.mark.parametrize("command", ["pd", "verify"])
    def test_peak_below_a_quarter_of_the_image(self, capsys, tmp_path, command):
        shape = (3, 1024, 1024)
        image_bytes = 8 * np.prod(shape)
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        x = np.random.default_rng(7).uniform(size=shape)
        _pdt1(raw, x)
        _pdt1(lr, x.reshape(3, 256, 4, 256, 4).mean(axis=(2, 4)))
        del x
        if command == "pd":
            argv = ["pd", "--lr", str(lr), "--scale", "4", "--predictor", "external",
                    "--raw", str(raw), "--output", str(out)]
        else:
            argv = ["verify", "--lr", str(lr), "--sr", str(raw), "--scale", "4"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(json_lines(capsys.readouterr().out)) == 1
        assert peak < image_bytes / 4

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A 3 x 256^2 measurement as PNG and PDT1, and a 3 x 1024^2 prediction."""
        d = tmp_path_factory.mktemp("inputs")
        rng = np.random.default_rng(7)
        y = ImageTensor(rng.uniform(size=(3, 256, 256)))
        save_png(y, d / "lr.png")
        write_raw(y, d / "lr.pdt1")
        _pdt1(d / "raw.pdt1", rng.uniform(size=(3, 1024, 1024)))
        return d

    @pytest.mark.parametrize("predictor", ["nearest", "bilinear", "bicubic", "external"])
    @pytest.mark.parametrize("lr, second", [("lr.png", "o.png"), ("lr.pdt1", "o2.pdt1")], ids=["png", "pdt1"])
    def test_every_predictor_stays_below_one_image(self, capsys, tmp_path, inputs, predictor, lr, second):
        # At scale 4 the in-memory path peaked at 3.2 images with a PNG and at
        # 2.2 into two PDT1 files.
        image_bytes = 8 * 3 * 1024 * 1024
        argv = ["pd", "--lr", str(inputs / lr), "--scale", "4", "--predictor", predictor,
                "--output", str(tmp_path / "o.pdt1"), "--png", str(tmp_path / second)]
        argv += ["--raw", str(inputs / "raw.pdt1")] if predictor == "external" else []
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(json_lines(capsys.readouterr().out)) == 2
        assert peak < image_bytes

    @pytest.mark.parametrize("command", ["pd", "verify"])
    def test_wrong_shape_is_refused_below_a_quarter_of_the_image(self, capsys, tmp_path, command):
        # A 3 x 1024^2 file against a measurement that wants 3 x 1024 x 1020:
        # refused with the in-memory path's message, without loading it.
        shape = (3, 1024, 1024)
        image_bytes = 8 * np.prod(shape)
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        _pdt1(raw, np.random.default_rng(7).uniform(size=shape))
        _pdt1(lr, np.zeros((3, 256, 255)))
        if command == "pd":
            argv = ["pd", "--lr", str(lr), "--scale", "4", "--predictor", "external",
                    "--raw", str(raw), "--output", str(out)]
            message = "external prediction shape (3, 1024, 1024), expected (3, 1024, 1020)"
        else:
            argv = ["verify", "--lr", str(lr), "--sr", str(raw), "--scale", "4"]
            message = "input shape (3, 1024, 1024) does not match operator shape (3, 1024, 1020)"
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, *capsys.readouterr()) == (3, "", f"error: {message}\n")
        assert not out.exists()
        assert peak < image_bytes / 4


def _cs_argv(inputs, action, out):
    """``cs --action <action>`` on the files of ``TestCsStreamedMemory.inputs``."""
    given = {"measure": ["--input", "x.pdt1"], "pinv": ["--input", "m.pdt1"],
             "pd": ["--lr", "m.pdt1", "--raw", "raw.pdt1"]}[action]
    paths = [str(inputs / name) if name.endswith(".pdt1") else name for name in given]
    return ["cs", "--action", action, "--op", str(inputs / "op.pdm1"), *paths, "--output", str(out)]


def _cs_traced_peak(inputs, action, out):
    """The tracemalloc peak of one ``cs`` call (see ``_traced_peak``)."""
    return _traced_peak(_cs_argv(inputs, action, out))


def _traced_peak(argv):
    """The tracemalloc peak of one CLI call, after an untraced call has built
    what the first call builds once."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cs_inputs(d):
    """A 3 x 1008^2 image and raw prediction as PDT1, a block-8 operator of
    ratio 0.25 and the image's measurement, in the directory ``d``."""
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(3, 1008, 1008))
    _pdt1(d / "x.pdt1", x)
    _pdt1(d / "raw.pdt1", x + rng.normal(0.0, 0.03, x.shape))
    op = cs_build(8, 0.25, seed=1)
    save_sense_op(op, d / "op.pdm1")
    write_raw(cs_measure(op, ImageTensor(x)), d / "m.pdt1")


class TestCsStreamedMemory:
    """``cs --action measure|pinv|pd`` hold no image array.  The calls that
    loaded and wrote whole images peaked with the output image beside a
    block copy; the streamed calls hold channels in their place, so each
    peaks at least one image below them, less a stripe and 64 KiB of
    bookkeeping."""

    IMAGE_BYTES = 8 * 3 * 1008 * 1008
    # Peaks of the whole-image calls, measured by ``_cs_traced_peak``.
    WHOLE_IMAGE_PEAKS = {"measure": 60974400, "pinv": 54877768, "pd": 91456920}

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cs_inputs")
        _cs_inputs(d)
        return d

    @pytest.mark.parametrize("action", ["measure", "pinv", "pd"])
    def test_peak_one_image_below_the_whole_image_call(self, capsys, tmp_path, inputs, action):
        peak = _cs_traced_peak(inputs, action, tmp_path / "o.pdt1")
        capsys.readouterr()
        assert peak <= self.WHOLE_IMAGE_PEAKS[action] - self.IMAGE_BYTES + tensor._STRIPE_BYTES + (1 << 16)

    # What each call holds at its peak: whole measurements (a quarter image
    # at this ratio: the one read or written, and pd's record), whole
    # channels (the one read from the file or handed to the writer and its
    # block copy or back-projection; pd combines in the channel it read, so
    # it holds that and one block copy or back-projection) and one
    # channel's measurements (measure, pd).
    HELD = {"measure": (1, 2, 1), "pinv": (1, 2, 0), "pd": (2, 2, 1)}

    @pytest.mark.parametrize("action", ["measure", "pinv", "pd"])
    def test_peak_of_one_product_per_channel(self, capsys, tmp_path, inputs, action):
        measurements, channels, products = self.HELD[action]
        m, channel = self.IMAGE_BYTES // 4, self.IMAGE_BYTES // 3
        peak = _cs_traced_peak(inputs, action, tmp_path / "o.pdt1")
        capsys.readouterr()
        assert peak <= measurements * m + channels * channel + products * m // 3 + (1 << 17)


_OUTPUTS = {"pdt1": ("o.pdt1",), "png": ("o.png",), "pdt1+png": ("o.pdt1", "o.png"),
            "png+pdt1": ("o.png", "o2.pdt1"), "pdt1+pdt1": ("o.pdt1", "o2.pdt1")}
_GOLDEN_CASES = [
    *((p, "pdt1", o, 3) for p in ("nearest", "bilinear", "bicubic", "external") for o in _OUTPUTS),
    *((p, "pdt1", "pdt1+png", s) for p in ("nearest", "bilinear", "bicubic", "external") for s in (1, 2, 4, 8)),
    *((p, "png", "png+pdt1", 3) for p in ("nearest", "bilinear", "bicubic", "external")),
]


def _golden_digest(capsys, tmp_path, predictor, lr_format, outputs, s):
    """sha256 of every output file of one ``pd`` call, in order, then its
    stdout: inputs from ``Stream(16)``, a 3 x 5 x 7 measurement."""
    rng = Stream(16)
    y = ImageTensor(rng.uniform((3, 5, 7)) * 1.5 - 0.25)
    x_raw = ImageTensor(rng.uniform((3, 5 * s, 7 * s)) * 1.5 - 0.25)
    lr, raw = tmp_path / f"lr.{lr_format}", tmp_path / f"raw.{lr_format}"
    (save_png if lr_format == "png" else write_raw)(y, lr)
    (save_png if lr_format == "png" else write_raw)(x_raw, raw)
    paths = [tmp_path / name for name in _OUTPUTS[outputs]]
    argv = ["pd", "--lr", str(lr), "--scale", str(s), "--predictor", predictor, "--output", str(paths[0])]
    argv += ["--png", str(paths[1])] if len(paths) > 1 else []
    argv += ["--raw", str(raw)] if predictor == "external" else []
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stderr) == (0, "")
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    digest.update(stdout.encode())
    return digest.hexdigest()[:16]


# Recorded with the in-memory ``pd`` that predated the one stripe walk.
_GOLDEN = {
    "nearest-pdt1-pdt1-3": "8c83f507fd3b487b",
    "nearest-pdt1-png-3": "8d7eadd7ec754212",
    "nearest-pdt1-pdt1+png-3": "b946a79c5f58a23a",
    "nearest-pdt1-png+pdt1-3": "443154fff9c50059",
    "nearest-pdt1-pdt1+pdt1-3": "447479162f342b74",
    "bilinear-pdt1-pdt1-3": "6f0bf9558460c001",
    "bilinear-pdt1-png-3": "ad184dc515a672aa",
    "bilinear-pdt1-pdt1+png-3": "fdd4e9f1efe534da",
    "bilinear-pdt1-png+pdt1-3": "0508daa7c99e0ba2",
    "bilinear-pdt1-pdt1+pdt1-3": "724e37f995b7171c",
    "bicubic-pdt1-pdt1-3": "20a1bf67af5920f9",
    "bicubic-pdt1-png-3": "9f06020736c7a9db",
    "bicubic-pdt1-pdt1+png-3": "cb8de8dc3c705c4f",
    "bicubic-pdt1-png+pdt1-3": "b89f91032292fd85",
    "bicubic-pdt1-pdt1+pdt1-3": "11647619cf93dc76",
    "external-pdt1-pdt1-3": "18aebc3aa9f13881",
    "external-pdt1-png-3": "b62089402aecce85",
    "external-pdt1-pdt1+png-3": "dd719159002b8ac8",
    "external-pdt1-png+pdt1-3": "0ee3ef2d0758397e",
    "external-pdt1-pdt1+pdt1-3": "d0ee2d702c835331",
    "nearest-pdt1-pdt1+png-1": "5ed8f87abfbf4e98",
    "nearest-pdt1-pdt1+png-2": "dec7acaa1149194e",
    "nearest-pdt1-pdt1+png-4": "477919ec3403954b",
    "nearest-pdt1-pdt1+png-8": "79755d32c71b4d3e",
    "bilinear-pdt1-pdt1+png-1": "5ed8f87abfbf4e98",
    "bilinear-pdt1-pdt1+png-2": "bf1637bf64917ead",
    "bilinear-pdt1-pdt1+png-4": "222fec3cade6769e",
    "bilinear-pdt1-pdt1+png-8": "a048e52fd0126d3f",
    "bicubic-pdt1-pdt1+png-1": "5ed8f87abfbf4e98",
    "bicubic-pdt1-pdt1+png-2": "e427e4717e539406",
    "bicubic-pdt1-pdt1+png-4": "f798bbd135453df2",
    "bicubic-pdt1-pdt1+png-8": "006c3d530c1f69b2",
    "external-pdt1-pdt1+png-1": "5ed8f87abfbf4e98",
    "external-pdt1-pdt1+png-2": "18b2927256257928",
    "external-pdt1-pdt1+png-4": "494f4317ef098d26",
    "external-pdt1-pdt1+png-8": "933fe0262b03de9e",
    "nearest-png-png+pdt1-3": "87712556ffc63c75",
    "bilinear-png-png+pdt1-3": "a26ee3182e941fd2",
    "bicubic-png-png+pdt1-3": "622040594119fa4b",
    "external-png-png+pdt1-3": "3f00ea738853a507",
}


class TestPdGoldenBytes:
    """Every predictor and output order writes the bytes and prints the
    records that ``pd`` gave when it held whole images."""

    @pytest.mark.parametrize("case", _GOLDEN_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_digest(self, capsys, tmp_path, case):
        assert _golden_digest(capsys, tmp_path, *case) == _GOLDEN["-".join(map(str, case))]


_CS_IO = {"pdt1": ("pdt1", "o.pdt1"), "png": ("png", "o.png"), "pdt1-png": ("pdt1", "o.png")}
_CS_GOLDEN_CASES = [
    (action, b, c, io)
    for action in ("measure", "pinv", "pd")
    for b in (1, 3, 8, 12)
    for c in (1, 3)
    for io in (("pdt1", "png") if action == "pinv" else _CS_IO)
]


def _cs_golden_digest(capsys, tmp_path, action, b, c, io, ratio=0.25, size=None):
    """sha256 of the exit code, stdout, stderr and output file of one ``cs``
    call: an operator of block ``b`` and ``ratio`` from seed 2026, and
    inputs from ``Stream(17)`` of ``c`` x 3b x 2b, or ``c`` x ``size``; the
    image input (``measure --input``, ``pd --raw``) in the format ``io``
    names, the measurement always PDT1."""
    rng = Stream(17)
    in_format, name = _CS_IO[io]
    shape = (c, *(size or (3 * b, 2 * b)))
    op_path, m_path, x_path = tmp_path / "op.pdm1", tmp_path / "m.pdt1", tmp_path / f"x.{in_format}"
    assert run_cli(capsys, "cs", "--action", "build", "--block", str(b), "--ratio", str(ratio), "--seed", "2026",
                   "--output", str(op_path))[0] == 0
    write_raw(cs_measure(load_sense_op(op_path), ImageTensor(rng.uniform(shape))), m_path)
    x = ImageTensor(rng.uniform(shape) * 1.5 - 0.25)
    (save_png if in_format == "png" else write_raw)(x, x_path)
    inputs = {"measure": ["--input", x_path], "pinv": ["--input", m_path], "pd": ["--lr", m_path, "--raw", x_path]}
    out = tmp_path / name
    code, stdout, stderr = run_cli(capsys, "cs", "--action", action, "--op", str(op_path),
                                   *map(str, inputs[action]), "--output", str(out))
    digest = hashlib.sha256(f"{code}\n{stdout}\n{stderr.replace(str(tmp_path), '<tmp>')}\n".encode())
    digest.update(out.read_bytes() if out.exists() else b"<none>")
    return digest.hexdigest()[:16]


# Recorded with the ``cs`` that loaded whole images and wrote them whole.
_CS_GOLDEN = {
    "measure-1-1-pdt1": "366d2d41bb75ebdd",
    "measure-1-1-png": "b9fdac846fa7bbd4",
    "measure-1-1-pdt1-png": "6f9cb9c118b648bf",
    "measure-1-3-pdt1": "e7d89e578ccef3ec",
    "measure-1-3-png": "52b307d2d0fda28e",
    "measure-1-3-pdt1-png": "caeafd7aafbd9572",
    "measure-3-1-pdt1": "fd0c2756c31bf120",
    "measure-3-1-png": "2e7040bd9787d9ab",
    "measure-3-1-pdt1-png": "d7a401cf1a8a99f2",
    "measure-3-3-pdt1": "8ff7a197dc1bd2e9",
    "measure-3-3-png": "c90e2e68a6159c64",
    "measure-3-3-pdt1-png": "c90e2e68a6159c64",
    "measure-8-1-pdt1": "68698693172f7f76",
    "measure-8-1-png": "96ad95b4d0738331",
    "measure-8-1-pdt1-png": "96ad95b4d0738331",
    "measure-8-3-pdt1": "e03422c6cc84604d",
    "measure-8-3-png": "c2aa3aea9a0419a2",
    "measure-8-3-pdt1-png": "c2aa3aea9a0419a2",
    "measure-12-1-pdt1": "3a727f1b2ca551de",
    "measure-12-1-png": "f9aea9c5ce37dc96",
    "measure-12-1-pdt1-png": "f9aea9c5ce37dc96",
    "measure-12-3-pdt1": "9c0e2cbc798f97e2",
    "measure-12-3-png": "e735a160f8267367",
    "measure-12-3-pdt1-png": "e735a160f8267367",
    "pinv-1-1-pdt1": "6faed6f4c0991473",
    "pinv-1-1-png": "22acfb0ef2b1148a",
    "pinv-1-3-pdt1": "d147a1a02b29db8c",
    "pinv-1-3-png": "a54bd614a058c176",
    "pinv-3-1-pdt1": "c05c3daa9c9c6e32",
    "pinv-3-1-png": "08d320bcf7b73d39",
    "pinv-3-3-pdt1": "566b8bada1230456",
    "pinv-3-3-png": "c19f3a6a9abb7c4b",
    "pinv-8-1-pdt1": "868da8033047e8f2",
    "pinv-8-1-png": "245058e87bad04ff",
    "pinv-8-3-pdt1": "0f96e0eacff86c6b",
    "pinv-8-3-png": "426a8f2d8ed5e03e",
    "pinv-12-1-pdt1": "a82869f3245d1cb9",
    "pinv-12-1-png": "858b8127c4361ad5",
    "pinv-12-3-pdt1": "46e9fcf0433edad1",
    "pinv-12-3-png": "80864ba162f1b02e",
    "pd-1-1-pdt1": "72ec4f2d7693586a",
    "pd-1-1-png": "259226f643496df7",
    "pd-1-1-pdt1-png": "259226f643496df7",
    "pd-1-3-pdt1": "55e93e9264d61513",
    "pd-1-3-png": "f7967385fd735b7c",
    "pd-1-3-pdt1-png": "f7967385fd735b7c",
    "pd-3-1-pdt1": "35295b34bd2db75d",
    "pd-3-1-png": "abdb7100752fa256",
    "pd-3-1-pdt1-png": "d7106b3e8f0d5fb9",
    "pd-3-3-pdt1": "820681449d27e6a6",
    "pd-3-3-png": "f82a5e58cd2d3e84",
    "pd-3-3-pdt1-png": "6beee3bb051c19f0",
    "pd-8-1-pdt1": "73164ebc81ae4950",
    "pd-8-1-png": "00e36a45d02fb673",
    "pd-8-1-pdt1-png": "fb19b20a35a61d88",
    "pd-8-3-pdt1": "7dfbd8bf50cd3dd5",
    "pd-8-3-png": "6dbf2c11357270b5",
    "pd-8-3-pdt1-png": "97a3d15b61635e19",
    "pd-12-1-pdt1": "b4674188379df1e5",
    "pd-12-1-png": "89f764dd4e9b2523",
    "pd-12-1-pdt1-png": "c8a24aa4be0d6443",
    "pd-12-3-pdt1": "c2a3aa39160516bc",
    "pd-12-3-png": "3ebc58feb6bed97e",
    "pd-12-3-pdt1-png": "630c439b04944858",
}


class TestCsGoldenBytes:
    """``cs --action measure|pinv|pd`` write the bytes, print the records and
    refuse with the messages that they gave when they held whole images, at
    every stripe height."""

    @pytest.mark.parametrize("stripe_bytes", [1, tensor._STRIPE_BYTES], ids=["one_block_row", "default"])
    @pytest.mark.parametrize("case", _CS_GOLDEN_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_digest(self, capsys, tmp_path, monkeypatch, case, stripe_bytes):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", stripe_bytes)
        assert _cs_golden_digest(capsys, tmp_path, *case) == _CS_GOLDEN["-".join(map(str, case))]

    # Shapes whose channels span several stripes, one with a short last
    # stripe (216 x 304) and one a single block wide (8200 x 8), and low
    # ratios: products over a stripe of such a channel rounded otherwise.
    # Recorded with the ``cs`` that measured and back-projected a block copy
    # of the whole image.
    WIDE = {
        ("measure", 8, 0.25, (216, 304)): "1f0ef1b87a012e66",
        ("pinv", 8, 0.25, (216, 304)): "2f70c5d2c2631f0f",
        ("pd", 8, 0.25, (216, 304)): "560ebcffcf3eb8d1",
        ("measure", 8, 0.25, (8200, 8)): "f543c263bcc48d3b",
        ("pinv", 8, 0.25, (8200, 8)): "d26b406e2bab699c",
        ("pd", 8, 0.25, (8200, 8)): "50a1cbcfb3406331",
        ("measure", 8, 0.02, (216, 304)): "cdc46e7706df6ec8",
        ("pinv", 8, 0.02, (216, 304)): "23a2786a774cfdbc",
        ("pd", 8, 0.02, (216, 304)): "2b01e23b7a4566fa",
        ("measure", 3, 0.1, (219, 303)): "3efbe5cb73f71ffa",
        ("pinv", 3, 0.1, (219, 303)): "a4f4affbd62aa6ec",
        ("pd", 3, 0.1, (219, 303)): "5236d469643fe8b6",
    }

    @pytest.mark.parametrize("stripe_bytes", [1, tensor._STRIPE_BYTES], ids=["one_block_row", "default"])
    @pytest.mark.parametrize("case", list(WIDE), ids=lambda case: "-".join(map(str, case)).replace(", ", "x"))
    def test_digest_of_channels_of_several_stripes(self, capsys, tmp_path, monkeypatch, case, stripe_bytes):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", stripe_bytes)
        action, b, ratio, size = case
        assert _cs_golden_digest(capsys, tmp_path, action, b, 3, "pdt1", ratio, size) == self.WIDE[case]


def _cs_fault(fault, action, tmp_path, monkeypatch, stream):
    """Inputs of one fault of ``cs --action measure|pinv|pd`` with a full-ratio
    block-2 operator on a 3 x 8 x 10 image; return the argv without
    ``--output`` and the message the fault gives, {out} standing for the
    output path."""
    rows = cs_build(2, 1.0, seed=3).rows
    op = tmp_path / "op.pdm1"
    save_sense_op(BlockSenseOp(2, 4, seed=3, ratio=1.0, rows=rows), op)
    image, m = tmp_path / "x.pdt1", tmp_path / "m.pdt1"
    x, y = stream.uniform((3, 8, 10)), stream.uniform((12, 4, 5))
    message = None
    if fault == "overflow":
        # Signs that line up with a row (measure) or a column (pinv, pd) of
        # the rows, so that sums of magnitudes overflow.
        x[-1, -2:, -2:] = 1.7e308 * np.sign(rows[0]).reshape(2, 2)
        y[-4:, -1, -1] = 1.7e308 * np.sign(rows[:, 0])
        message = "tensor samples must be finite (no NaN or infinity)"
    if fault == "nan_in_last_stripe":
        x[-1, -1, -1] = np.nan
        message = "tensor samples must be finite (no NaN or infinity)"
    if fault in ("shape_mismatch", "shape_mismatch_and_nan"):
        x = stream.uniform((3, 8, 9))
        message = {"measure": "image size 8x9 is not divisible by block 2",
                   "pd": "raw prediction shape (3, 8, 9) does not match operator input (3, 8, 10)"}.get(action)
        if fault == "shape_mismatch_and_nan":
            x[-1, -1, -1] = np.nan  # not met: the file's shape is refused before it is read
    if fault == "channels_not_multiple_of_q":
        y = stream.uniform((10, 4, 5))
        message = "measurement channels 10 are not a multiple of q=4"
    if fault == "png_channels":
        x, y = stream.uniform((2, 8, 10)), stream.uniform((8, 4, 5))
        message = f"PNG output needs 1 or 3 channels, got {8 if action == 'measure' else 2}"
    if fault == "directory_output":
        message = "[Errno 21] Is a directory: {out!r}"
    # The file of the fault: the image for measure and pd, the measurement for pinv.
    faulty = m if action == "pinv" else image
    _pdt1(image, x)
    _pdt1(m, y)
    data = faulty.read_bytes()
    if fault == "sample_short":
        faulty.write_bytes(data[:-8])
        message = f"{faulty}: payload is {len(data) - 24} bytes, header dimensions need {len(data) - 16}"
    elif fault in ("shrinks", "grows"):
        _resize_on_first_read(monkeypatch, faulty, -8 if fault == "shrinks" else 8)
        message = f"{faulty}: payload {'shrank' if fault == 'shrinks' else 'grew'} while it was read"
    inputs = {"measure": ["--input", image], "pinv": ["--input", m], "pd": ["--lr", m, "--raw", image]}
    return ["cs", "--action", action, "--op", str(op), *map(str, inputs[action])], message


# The faults ``cs`` meets only by reading the image or the measurement.
_CS_READ_FAULTS = {"shrinks", "grows", "nan_in_last_stripe", "overflow"}
_CS_FAULTS = {
    "measure": ["sample_short", "shrinks", "grows", "nan_in_last_stripe", "shape_mismatch",
                "shape_mismatch_and_nan", "overflow", "directory_output", "png_channels"],
    "pinv": ["sample_short", "shrinks", "grows", "channels_not_multiple_of_q", "overflow", "directory_output",
             "png_channels"],
    "pd": ["sample_short", "shrinks", "grows", "nan_in_last_stripe", "shape_mismatch", "shape_mismatch_and_nan",
           "channels_not_multiple_of_q", "overflow", "directory_output", "png_channels"],
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestCsStreamedFaults:
    """``cs --action measure|pinv|pd`` read and write images one stripe at a
    time; every single fault exits 3 with the message it gave when they
    held whole images, prints nothing and leaves the old output and no
    temporary file."""

    @pytest.fixture(autouse=True)
    def one_block_row_per_stripe(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 1)

    @pytest.mark.parametrize(
        "action, fault, output",
        [
            (action, fault, output)
            for action, faults in _CS_FAULTS.items()
            for fault in faults
            for output in (("o.png",) if fault == "png_channels" else ("o.pdt1", "o.png"))
        ],
    )
    def test_fault(self, capsys, tmp_path, stream, monkeypatch, action, fault, output):
        argv, message = _cs_fault(fault, action, tmp_path, monkeypatch, stream)
        out = tmp_path / output
        if fault == "directory_output":
            out.mkdir()
        else:
            out.write_bytes(b"old")
        unread = action == "measure" and output == "o.png" and fault in _CS_READ_FAULTS
        if unread:
            # The 12-channel measurement's PNG is refused before the image is read.
            message = "PNG output needs 1 or 3 channels, got 12"
        reads = _payload_reads(monkeypatch)
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(out))
        assert (code, stdout, stderr) == (3, "", f"error: {message.format(out=str(out))}\n")
        assert out.is_dir() or out.read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))
        assert not unread or str(tmp_path / "x.pdt1") not in reads

    @pytest.mark.parametrize("action", ["measure", "pinv", "pd"])
    def test_a_non_finite_weight_is_refused_before_the_image(self, capsys, tmp_path, stream, monkeypatch, action):
        # The operator file is loaded first, and names itself: no image is read.
        # The constructor refuses such rows, so the PDM1 bytes are packed here.
        rows = cs_build(4, 0.5, seed=1).rows.copy()
        rows[1, 5] = np.nan
        op, x, m = tmp_path / "op.pdm1", tmp_path / "x.pdt1", tmp_path / "m.pdt1"
        op.write_bytes(struct.pack("<4sIIQ", b"PDM1", 4, 8, 1) + rows.astype("<f8").tobytes())
        _pdt1(x, stream.uniform((3, 8, 12)))
        _pdt1(m, stream.uniform((24, 2, 3)))
        inputs = {"measure": ["--input", x], "pinv": ["--input", m], "pd": ["--lr", m, "--raw", x]}[action]
        reads = _payload_reads(monkeypatch)
        argv = ["cs", "--action", action, "--op", op, *inputs, "--output", tmp_path / "o.pdt1"]
        message = f"{op}: PDM1 row weights must be finite (no NaN or infinity)"
        assert run_cli(capsys, *map(str, argv)) == (3, "", f"error: {message}\n")
        assert reads == [str(op)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.pdt1", "op.pdm1", "x.pdt1"]


    def test_pd_measures_its_record_before_the_rename(self, capsys, tmp_path):
        # A finite combine whose record overflows: A+ y with y at the largest
        # float measures back to y only up to rounding, and for some seeds
        # that rounds past it.  When the image was written whole, the file
        # was in place before the record failed; now the record is measured
        # before the rename, and the old file stays.
        y = ImageTensor(np.full((1, 1, 1), sys.float_info.max))
        x_raw = ImageTensor(np.zeros((1, 2, 2)))
        for seed in range(64):
            op = cs_build(2, 0.25, seed=seed)
            try:
                with np.errstate(over="ignore"):
                    cs_measure(op, op.combine(y, x_raw))
            except ValueError:
                break
        else:
            pytest.fail("no seed below 64 gives an overflowing record")
        op_path, lr, raw, out = (tmp_path / name for name in ("op.pdm1", "y.pdt1", "raw.pdt1", "o.pdt1"))
        save_sense_op(op, op_path)
        write_raw(y, lr)
        write_raw(x_raw, raw)
        out.write_bytes(b"old")
        code, stdout, stderr = run_cli(capsys, "cs", "--action", "pd", "--op", str(op_path), "--lr", str(lr),
                                       "--raw", str(raw), "--output", str(out))
        assert (code, stdout, stderr) == (3, "", "error: tensor samples must be finite (no NaN or infinity)\n")
        assert out.read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("action", ["pinv", "pd"])
    def test_png_channels_come_before_an_overflowing_result(self, capsys, tmp_path, stream, action):
        # A 2-channel measurement whose back-projection overflows: the
        # result is checked finite one stripe at a time, once the PNG writer
        # has refused the channel count.  Into a PDT1 the overflow shows.
        rows = cs_build(2, 1.0, seed=3).rows
        op, m, raw = tmp_path / "op.pdm1", tmp_path / "m.pdt1", tmp_path / "raw.pdt1"
        save_sense_op(BlockSenseOp(2, 4, seed=3, ratio=1.0, rows=rows), op)
        y = stream.uniform((8, 4, 5))
        y[-4:, -1, -1] = 1.7e308 * np.sign(rows[:, 0])
        _pdt1(m, y)
        _pdt1(raw, stream.uniform((2, 8, 10)))
        inputs = {"pinv": ["--input", m], "pd": ["--lr", m, "--raw", raw]}[action]
        argv = ["cs", "--action", action, "--op", str(op), *map(str, inputs), "--output"]
        for name, message in [("o.png", "PNG output needs 1 or 3 channels, got 2"),
                              ("o.pdt1", "tensor samples must be finite (no NaN or infinity)")]:
            out = tmp_path / name
            out.write_bytes(b"old")
            assert run_cli(capsys, *argv, str(out)) == (3, "", f"error: {message}\n")
            assert out.read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("fault", ["nan_in_last_stripe", "shrinks", "grows"])
    def test_pd_checks_the_destination_before_reading_the_raw(self, capsys, tmp_path, stream, monkeypatch, fault):
        argv, _ = _cs_fault(fault, "pd", tmp_path, monkeypatch, stream)
        out = tmp_path / "out"
        out.mkdir()
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(out))
        assert (code, stdout, stderr) == (3, "", f"error: [Errno 21] Is a directory: {str(out)!r}\n")
        assert not list(tmp_path.rglob("*.tmp"))


class TestPdWalkFaults:
    """Faults that ``pd`` meets in an order of its own, now that every
    reconstruction is one stripe walk into files opened first."""

    @pytest.mark.parametrize("predictor", ["nearest", "bilinear", "bicubic"])
    def test_raw_needs_the_external_predictor(self, capsys, tmp_path, stream, predictor):
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 4, 4))), lr)
        write_raw(ImageTensor(stream.uniform((3, 8, 8))), raw)
        code, stdout, stderr = run_cli(capsys, "pd", "--lr", str(lr), "--scale", "2", "--predictor", predictor,
                                       "--raw", str(raw), "--output", str(out))
        assert (code, stdout, stderr) == (3, "", "error: pd --raw is read only with --predictor external\n")
        assert not out.exists()

    @pytest.mark.parametrize("predictor, png", [("bicubic", None), ("external", "o.png")])
    def test_prediction_faults_come_after_the_destination_check(self, capsys, tmp_path, predictor, png):
        # A bicubic prediction that overflows, and a PDT1 prediction holding
        # a NaN that a second output once had read whole before any check.
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "out"
        y = np.full((1, 4, 4), 1.7e308)
        y[0, ::2, 1::2] = y[0, 1::2, ::2] = -1.7e308
        _pdt1(lr, y)
        x = np.zeros((1, 8, 8))
        x[0, -1, -1] = np.nan
        _pdt1(raw, x)
        argv = ["pd", "--lr", str(lr), "--scale", "2", "--predictor", predictor, "--raw", str(raw)]
        argv = argv if predictor == "external" else argv[:-2]
        argv += ["--png", str(tmp_path / png)] if png else []
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(tmp_path / "o.pdt1"))
        assert (code, stdout, stderr) == (3, "", "error: tensor samples must be finite (no NaN or infinity)\n")
        out.mkdir()
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(out))
        assert (code, stdout) == (3, "")
        assert stderr.startswith("error: ") and "Is a directory" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.pdt1", "out", "raw.pdt1"]

    def test_png_channels_are_checked_before_the_walk(self, capsys, tmp_path):
        lr, raw, out = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1", tmp_path / "o.png"
        x = np.full((2, 8, 10), 1e308)
        x[-1, -1, -1] = -1e308
        _pdt1(raw, x)
        _pdt1(lr, np.full((2, 4, 5), -1e308))
        code, stdout, stderr = run_cli(capsys, "pd", "--lr", str(lr), "--scale", "2", "--predictor", "external",
                                       "--raw", str(raw), "--output", str(out))
        assert (code, stdout, stderr) == (3, "", "error: PNG output needs 1 or 3 channels, got 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("output, png", [("o.pdt1", None), ("o.png", "o2.pdt1")])
    def test_pdt1_larger_than_the_free_space_is_refused(self, capsys, tmp_path, stream, monkeypatch, output, png):
        lr, out = tmp_path / "lr.pdt1", tmp_path / output
        write_raw(ImageTensor(stream.uniform((3, 4, 4))), lr)
        out.write_bytes(b"old")
        pdt1 = tmp_path / (png or output)
        # 16 + 8 * 3 * 8 * 8 bytes are needed; 1535 are free.
        monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((1, 1, 2048, 1535, 1535, 9, 9, 9, 0, 255)))
        argv = ["pd", "--lr", str(lr), "--scale", "2", "--output", str(out)]
        code, stdout, stderr = run_cli(capsys, *argv, *(["--png", str(pdt1)] if png else []))
        assert (code, stdout, stderr) == (3, "", f"error: [Errno 28] No space left on device: {str(pdt1)!r}\n")
        assert out.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"lr.pdt1", output})
        monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((1, 1, 2048, 1552, 1552, 9, 9, 9, 0, 255)))
        assert run_cli(capsys, *argv)[0] == 0

    def test_pdt1_dimensions_past_32_bits_are_refused(self, capsys, tmp_path, stream, monkeypatch):
        # With room enough, the header's u32 fields refuse 8e9 rows before
        # anything of that size is allocated.
        lr, out = tmp_path / "lr.pdt1", tmp_path / "o.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 8, 8))), lr)
        monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((1, 1, 2**64, 2**64, 2**64, 9, 9, 9, 0, 255)))
        code, stdout, stderr = run_cli(capsys, "pd", "--lr", str(lr), "--scale", "1000000000", "--output", str(out))
        shape = (3, 8000000000, 8000000000)
        assert (code, stdout) == (3, "")
        assert stderr == f"error: tensor shape {shape} does not fit the PDT1 header's 32-bit fields\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.pdt1"]


class TestPdCombinesInPlace:
    """``pd`` combines each stripe in the buffer its prediction source made
    it in: a PDT1 ``--raw`` and an enlarging predictor need no second
    stripe buffer, and only a decoded PNG ``--raw``, an array, gets one."""

    @pytest.fixture
    def no_blank(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a _Blank stripe buffer was built")

        monkeypatch.setattr(tensor, "_Blank", refuse)

    @pytest.mark.parametrize("predictor, raw_format", [("external", "pdt1"), ("bicubic", None)])
    def test_no_blank_buffer_beside_a_source_that_makes_its_stripes(
        self, capsys, tmp_path, stream, no_blank, predictor, raw_format
    ):
        lr, raw = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 6, 5))), lr)
        write_raw(ImageTensor(stream.uniform((3, 24, 20))), raw)
        argv = ["pd", "--lr", str(lr), "--scale", "4", "--predictor", predictor,
                "--output", str(tmp_path / "o.pdt1"), "--png", str(tmp_path / "o.png")]
        argv += ["--raw", str(raw)] if raw_format else []
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stderr) == (0, "") and len(json_lines(stdout)) == 2

    def test_a_png_raw_gets_a_blank_buffer(self, tmp_path, stream, no_blank):
        # The patch above is live: a decoded PNG is an array, which the walk
        # must not overwrite.
        lr, raw = tmp_path / "lr.pdt1", tmp_path / "raw.png"
        write_raw(ImageTensor(stream.uniform((3, 6, 5))), lr)
        save_png(ImageTensor(stream.uniform((3, 24, 20))), raw)
        argv = ["pd", "--lr", str(lr), "--scale", "4", "--predictor", "external", "--raw", str(raw),
                "--output", str(tmp_path / "o.pdt1")]
        with pytest.raises(AssertionError, match="_Blank"):
            main(argv)


class TestOneDiagnosticLine:
    """An overflowing combine or pooled mean is reported on exactly one
    ``error:`` line, with no numpy warning before it, in a fresh process
    where every warning would be printed."""

    @pytest.mark.parametrize("command", ["pd-streamed", "pd-png", "verify"])
    def test_overflow_prints_only_the_error(self, tmp_path, command):
        lr, raw = tmp_path / "lr.pdt1", tmp_path / "raw.pdt1"
        x = np.full((3, 8, 10), 1e308)
        x[-1, -1, -1] = -1e308
        _pdt1(raw, x)
        _pdt1(lr, np.full((3, 4, 5), -1e308))
        if command == "verify":
            argv = ["verify", "--lr", str(lr), "--sr", str(raw), "--scale", "2"]
        else:
            out = tmp_path / ("o.png" if command == "pd-png" else "o.pdt1")
            argv = ["pd", "--lr", str(lr), "--scale", "2", "--predictor", "external",
                    "--raw", str(raw), "--output", str(out)]
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "rangenull", *argv], capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: tensor samples must be finite (no NaN or infinity)\n"


class TestSaturatedRecords:
    """A reconstruction whose squared error overflows still gets its record:
    the figures saturate at the largest float and the PSNR stays finite."""

    PSNR_FLOOR = 10.0 * np.log10(1.0 / sys.float_info.max)

    def test_verify_of_a_huge_sr(self, capsys, tmp_path):
        lr, sr = tmp_path / "lr.pdt1", tmp_path / "sr.pdt1"
        write_raw(ImageTensor(np.zeros((1, 2, 2))), lr)
        write_raw(ImageTensor(np.full((1, 4, 4), 1e200)), sr)
        code, stdout, stderr = run_cli(capsys, "verify", "--lr", str(lr), "--sr", str(sr), "--scale", "2")
        assert (code, stderr) == (0, "")
        (record,) = json_lines(stdout)
        assert record["mse"] == sys.float_info.max and record["l1"] == 1e200
        assert record["psnr"] == pytest.approx(self.PSNR_FLOOR) and record["psnr"] >= -3082.6

    def test_pd_png_of_a_huge_measurement(self, capsys, tmp_path):
        lr, out, png = tmp_path / "lr.pdt1", tmp_path / "o.pdt1", tmp_path / "o.png"
        write_raw(ImageTensor(np.full((1, 2, 2), 1e200)), lr)
        code, stdout, stderr = run_cli(
            capsys, "pd", "--lr", str(lr), "--output", str(out), "--png", str(png), "--scale", "2",
        )
        assert (code, stderr) == (0, "")
        exact, quantized = json_lines(stdout)
        assert exact["psnr"] == 300.0
        assert quantized["mse"] == sys.float_info.max
        assert quantized["psnr"] == pytest.approx(self.PSNR_FLOOR)
        assert load_tensor(png) == ImageTensor(np.ones((1, 4, 4)))


# Sizes of the ``colorize --mode pd`` golden cases: one pixel, one row, one
# column, odd sides, and 2100 x 64, three stripes of a channel at the
# default stripe size, the last one short.
_COLOR_SIZES = [(1, 1), (1, 7), (9, 1), (5, 7), (13, 9), (2100, 64)]
_COLOR_GOLDEN_CASES = [(raw, out, size) for raw in ("pdt1", "png") for out in ("pdt1", "png") for size in _COLOR_SIZES]


def _color_case_id(case):
    raw, out, (h, w) = case
    return f"{raw}-{out}-{h}x{w}"


def _color_golden_digest(capsys, tmp_path, raw_format, out_format, size):
    """sha256 of the output file of one ``colorize --mode pd`` call, then of
    its stdout: a gray PDT1 measurement and a color prediction of ``size``
    from ``Stream(17)``, with signed zeros and samples outside [0, 1]."""
    rng = Stream(17)
    y, x = (rng.uniform((c, *size)) * 1.5 - 0.25 for c in (1, 3))
    # Pixels whose samples are all zeros of either sign, so that the output
    # holds zeros of both signs.
    zero = rng.uniform(size) < 0.3
    signs = np.copysign(0.0, rng.uniform((4, *size)) - 0.5)
    y[:, zero], x[:, zero] = signs[:1, zero], signs[1:, zero]
    lr, raw, out = tmp_path / "y.pdt1", tmp_path / f"raw.{raw_format}", tmp_path / f"o.{out_format}"
    write_raw(ImageTensor(y), lr)
    (save_png if raw_format == "png" else write_raw)(ImageTensor(x), raw)
    code, stdout, stderr = run_cli(capsys, "colorize", "--mode", "pd", "--input", str(lr), "--raw", str(raw),
                                   "--output", str(out))
    assert (code, stderr) == (0, "")
    return hashlib.sha256(out.read_bytes() + stdout.encode()).hexdigest()[:16]


class TestColorizeGoldenBytes:
    """``colorize --mode pd`` writes the bytes and prints the record that it
    gave when it combined whole images in memory, at every stripe height.
    Recorded with ``ColorMeanOp.combine``, ``save_tensor`` and ``verify``."""

    GOLDEN = {
        "pdt1-pdt1-1x1": "270d2655543210c9",
        "pdt1-pdt1-1x7": "c32649cc629d68f5",
        "pdt1-pdt1-9x1": "2602c02eed5f021c",
        "pdt1-pdt1-5x7": "24fbe14c352057bc",
        "pdt1-pdt1-13x9": "1c5bd379235bac93",
        "pdt1-pdt1-2100x64": "af1a273626b36edd",
        "pdt1-png-1x1": "4ac260e18a946151",
        "pdt1-png-1x7": "d9a44b8b0b5cb277",
        "pdt1-png-9x1": "41a867ac7edcb09c",
        "pdt1-png-5x7": "605a44fb3e46140d",
        "pdt1-png-13x9": "c5190fa2b89e3072",
        "pdt1-png-2100x64": "be0fe0a17d28e433",
        "png-pdt1-1x1": "ffbf5a41b07591fa",
        "png-pdt1-1x7": "bf711f8426e93bb3",
        "png-pdt1-9x1": "2f1dfbee2a46ffcb",
        "png-pdt1-5x7": "244fb6f467ade669",
        "png-pdt1-13x9": "3ad7760f03a08fb0",
        "png-pdt1-2100x64": "14a2573e4b464eed",
        "png-png-1x1": "4ac260e18a946151",
        "png-png-1x7": "03ffee502b46a5f6",
        "png-png-9x1": "52a2047497f865dc",
        "png-png-5x7": "52809a40c88c8566",
        "png-png-13x9": "9c18b797df2c3d1a",
        "png-png-2100x64": "0ffe269987e03206",
    }

    @pytest.mark.parametrize("stripe_bytes", [1, tensor._STRIPE_BYTES], ids=["one_row", "default"])
    @pytest.mark.parametrize("case", _COLOR_GOLDEN_CASES, ids=_color_case_id)
    def test_digest(self, capsys, tmp_path, monkeypatch, case, stripe_bytes):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", stripe_bytes)
        assert _color_golden_digest(capsys, tmp_path, *case) == self.GOLDEN[_color_case_id(case)]


def _rewrite_after_reads(monkeypatch, path, reads):
    """Once ``reads`` calls of ``os.preadv`` on ``path`` have returned, give it
    zero samples of the same size and a later modification time."""
    real_preadv, inode = os.preadv, path.stat().st_ino
    seen = []

    def preadv(fd, buffers, offset):
        n = real_preadv(fd, buffers, offset)
        if os.fstat(fd).st_ino == inode:
            seen.append(fd)
        if len(seen) == reads:
            monkeypatch.setattr(os, "preadv", real_preadv)
            before = path.stat()
            path.write_bytes(path.read_bytes()[:16] + bytes(before.st_size - 16))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000))
        return n

    monkeypatch.setattr(os, "preadv", preadv)


# Faults of ``colorize --mode pd`` with a (1, 8, 10) measurement and a PDT1
# prediction read one row at a time, 24 reads a walk; the message each
# gives, {raw} standing for the prediction's path and {out} for the output's.
_COLOR_FAULTS = {
    "truncated": "{raw}: payload is 1912 bytes, header dimensions need 1920",
    "nan_in_first_stripe": "tensor samples must be finite (no NaN or infinity)",
    "nan_in_last_stripe": "tensor samples must be finite (no NaN or infinity)",
    "overflow": "tensor samples must be finite (no NaN or infinity)",
    "shrinks_in_the_first_walk": "{raw}: payload shrank while it was read",
    "grows_in_the_first_walk": "{raw}: payload grew while it was read",
    "shrinks_in_the_second_walk": "{raw}: payload shrank while it was read",
    "grows_in_the_second_walk": "{raw}: payload grew while it was read",
    "rewritten_between_the_walks": "{raw}: file changed between two reads",
    "rewritten_in_the_second_walk": "{raw}: file changed between two reads",
    "wrong_shape": "raw prediction shape (3, 8, 12) does not match operator input (3, 8, 10)",
    "color_input": "measurement shape (3, 8, 10) does not match operator shape (1, 8, 10)",
    "directory_output": "[Errno 21] Is a directory: {out!r}",
    "missing_directory": "[Errno 2] No such file or directory: {out!r}",
}


def _color_fault(fault, tmp_path, monkeypatch, stream):
    """Write the inputs of ``fault``; return the argv without ``--output``."""
    lr, raw = tmp_path / "y.pdt1", tmp_path / "raw.pdt1"
    y, x = stream.uniform((1, 8, 10)), stream.uniform((3, 8, 10))
    if fault == "nan_in_first_stripe":
        x[0, 0, 0] = np.nan
    elif fault == "nan_in_last_stripe":
        x[-1, -1, -1] = np.nan
    elif fault == "overflow":
        x[:, -1, -1] = [-1.7e308, 1.7e308, 0.0]  # the residual of channel 1 overflows
    elif fault == "wrong_shape":
        x = stream.uniform((3, 8, 12))
    elif fault == "color_input":
        y = stream.uniform((3, 8, 10))
    _pdt1(lr, y)
    _pdt1(raw, x)
    if fault == "truncated":
        raw.write_bytes(raw.read_bytes()[:-8])
    elif fault.startswith(("shrinks", "grows")):
        reads = 0 if fault.endswith("first_walk") else 24
        _resize_on_first_read(monkeypatch, raw, -8 if fault.startswith("shrinks") else 8, after=reads)
    elif fault.startswith("rewritten"):
        _rewrite_after_reads(monkeypatch, raw, 24 if fault.endswith("between_the_walks") else 25)
    return ["colorize", "--mode", "pd", "--input", str(lr), "--raw", str(raw)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestColorizeStreamedFaults:
    """``colorize --mode pd`` walks a PDT1 ``--raw`` twice; every single fault
    exits 3 with the message it gave when the prediction was loaded whole,
    prints nothing and leaves the old output and no temporary file.  A
    ``--raw`` whose size or modification time changes between the walks is
    refused."""

    @pytest.fixture(autouse=True)
    def one_row_per_stripe(self, monkeypatch):
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 1)

    @pytest.mark.parametrize("output", ["o.pdt1", "o.png"])
    @pytest.mark.parametrize("fault", list(_COLOR_FAULTS))
    def test_fault(self, capsys, tmp_path, stream, monkeypatch, fault, output):
        argv = _color_fault(fault, tmp_path, monkeypatch, stream)
        out = tmp_path / output
        if fault == "directory_output":
            out.mkdir()
        elif fault == "missing_directory":
            out = tmp_path / "missing" / output
        else:
            out.write_bytes(b"old")
        message = _COLOR_FAULTS[fault].format(raw=str(tmp_path / "raw.pdt1"), out=str(out))
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(out))
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")
        assert out.is_dir() or not out.parent.exists() or out.read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("fault", ["nan_in_last_stripe", "shrinks_in_the_first_walk", "wrong_shape"])
    def test_the_destination_comes_before_raw_faults(self, capsys, tmp_path, stream, monkeypatch, fault):
        # As for pooling and block sensing, the destination is checked before
        # the first walk reads --raw: the prediction's faults are not met.
        argv = _color_fault(fault, tmp_path, monkeypatch, stream)
        out = tmp_path / "out"
        out.mkdir()
        message = f"[Errno 21] Is a directory: {str(out)!r}"
        assert run_cli(capsys, *argv, "--output", str(out)) == (3, "", f"error: {message}\n")
        assert not list(tmp_path.rglob("*.tmp")) and not any(out.iterdir())
        assert (tmp_path / "raw.pdt1").stat().st_size == 16 + 8 * 3 * 8 * (12 if fault == "wrong_shape" else 10)

    def test_no_free_space_comes_before_an_overflowing_combine(self, capsys, tmp_path, stream, monkeypatch):
        # Loaded whole, the prediction was combined before its file was
        # opened, so the overflow was named; streamed, the file is opened
        # first and its free space refused.  Into a PNG, which has no such
        # check, the overflow shows.
        argv = _color_fault("overflow", tmp_path, monkeypatch, stream)
        monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((1, 1, 2048, 0, 0, 9, 9, 9, 0, 255)))
        for name, message in [("o.pdt1", None), ("o.png", "tensor samples must be finite (no NaN or infinity)")]:
            out = tmp_path / name
            out.write_bytes(b"old")
            message = message or f"[Errno 28] No space left on device: {str(out)!r}"
            assert run_cli(capsys, *argv, "--output", str(out)) == (3, "", f"error: {message}\n")
            assert out.read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_no_free_space_reads_no_sample_of_raw(self, capsys, tmp_path, stream, monkeypatch):
        # The file is opened, and its free space refused, before the first
        # walk takes the prediction's mean: its NaN is not met.
        argv = _color_fault("nan_in_last_stripe", tmp_path, monkeypatch, stream)
        monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result((1, 1, 2048, 0, 0, 9, 9, 9, 0, 255)))
        out = tmp_path / "o.pdt1"
        reads = _payload_reads(monkeypatch)
        message = f"[Errno 28] No space left on device: {str(out)!r}"
        assert run_cli(capsys, *argv, "--output", str(out)) == (3, "", f"error: {message}\n")
        assert str(tmp_path / "raw.pdt1") not in reads
        assert not out.exists() and not list(tmp_path.rglob("*.tmp"))


class TestColorizeStreamedMemory:
    """``colorize --mode pd`` holds the measurement, the prediction's channel
    mean, the record's two planes and one stripe, and into a PNG the 8-bit
    image: at 3 x 1008² at most 1.5 images, where combining whole images
    peaked at 3.0 (PDT1) and 3.6 (PNG)."""

    IMAGE_BYTES = 8 * 3 * 1008 * 1008

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("color_inputs")
        rng = np.random.default_rng(7)
        _pdt1(d / "y.pdt1", rng.uniform(size=(1, 1008, 1008)))
        _pdt1(d / "raw.pdt1", rng.uniform(size=(3, 1008, 1008)))
        return d

    @pytest.mark.parametrize("output", ["o.pdt1", "o.png"])
    def test_peak_at_most_one_and_a_half_images(self, capsys, tmp_path, inputs, output):
        argv = ["colorize", "--mode", "pd", "--input", str(inputs / "y.pdt1"), "--raw", str(inputs / "raw.pdt1"),
                "--output", str(tmp_path / output)]
        peak = _traced_peak(argv)
        capsys.readouterr()
        assert peak <= 1.5 * self.IMAGE_BYTES

    @pytest.mark.parametrize("output", ["o.pdt1", "o.png"])
    def test_gray_holds_no_color_image(self, capsys, tmp_path, inputs, output):
        # ``--mode gray`` holds channel 0, the sum and one stripe, then the
        # gray image and, into a PNG, its quantized copy, 8-bit image and
        # encoding: 0.69 images into a PDT1 and 0.78 into a PNG, where
        # loading the color image whole peaked at 1.69 and 1.78.
        argv = ["colorize", "--mode", "gray", "--input", str(inputs / "raw.pdt1"), "--output", str(tmp_path / output)]
        peak = _traced_peak(argv)
        capsys.readouterr()
        assert peak <= 0.8 * self.IMAGE_BYTES

    @pytest.mark.parametrize("output", ["o.pdt1", "o.png"])
    def test_color_holds_the_gray_input_and_stripes(self, capsys, tmp_path, inputs, output):
        # ``--mode color`` loads the gray image and writes the color image a
        # stripe at a time: the input and a stripe, and into a PNG the 8-bit
        # image and its encoding, with zlib's state and the encoder's band
        # in the last MiB.  Writing the color image whole peaked at 5.0 gray
        # images into a PDT1 and 7.8 into a PNG.
        argv = ["colorize", "--mode", "color", "--input", str(inputs / "y.pdt1"), "--output", str(tmp_path / output)]
        peak = _traced_peak(argv)
        capsys.readouterr()
        bound = self.IMAGE_BYTES // 3 + 2 * tensor._STRIPE_BYTES
        if output == "o.png":
            bound += 2 * (self.IMAGE_BYTES // 8) + (1 << 20)
        assert peak <= bound

    def test_gray_into_a_png_holds_no_quantized_copy(self, capsys, tmp_path, inputs):
        # The PNG quantizes the gray image in place into its 8-bit image, so
        # it peaks as a PDT1 does: 0.69 images each, where a quantized copy
        # held beside the gray image took the PNG to 0.78.
        peaks = {}
        for output in ("o.pdt1", "o.png"):
            peaks[output] = _traced_peak(["colorize", "--mode", "gray", "--input", str(inputs / "raw.pdt1"),
                                          "--output", str(tmp_path / output)])
        capsys.readouterr()
        assert peaks["o.png"] <= peaks["o.pdt1"] + 0.02 * self.IMAGE_BYTES
