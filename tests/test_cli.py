"""CLI surface: subcommands, exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rangenull import (
    ColorMeanOp,
    ImageTensor,
    PoolingOp,
    cs_measure,
    load_png,
    load_sense_op,
    load_tensor,
    pool_down,
    pool_up,
    quantize,
    read_raw,
    save_png,
    write_raw,
)
from rangenull.cli import main

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

    def test_fields_and_ordering(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "bench", "--op", "pool_down", "--size", "64", "--scale", "4",
            "--iterations", "5", "--seed", "1",
        )
        assert code == 0
        result = json_lines(stdout)[0]
        assert sorted(result) == ["image_size", "iterations", "mean_ms", "op_name", "p50_ms", "p95_ms"]
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

    def test_workers_do_not_change_numbers(self, capsys):
        base = ["table1", "--count", "6", "--size", "32", "--scale", "4", "--seed", "2"]
        _, out_a, _ = run_cli(capsys, *base, "--workers", "1")
        _, out_b, _ = run_cli(capsys, *base, "--workers", "4")
        a, b = json_lines(out_a)[0], json_lines(out_b)[0]
        a.pop("mean_time_ms")
        b.pop("mean_time_ms")
        assert a == b

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

    def test_missing_flags_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cs", "--action", "measure", "--input", "x.pdt1",
                               "--output", str(tmp_path / "m.pdt1"))
        assert code == 3
        assert "--op" in err


class TestProcessLevel:
    def test_module_invocation_and_env_seed(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": SRC, "RANGENULL_SEED": "77"}
        proc = subprocess.run(
            [sys.executable, "-m", "rangenull", "table1", "--count", "2", "--size", "32",
             "--scale", "4"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip())["seed"] == 77

    def test_usage_error_exit_code(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "rangenull", "nonsense"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
