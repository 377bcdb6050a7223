"""The benchmark's workloads: seeded fixtures, request mixes and output checks.

A request is one user-level reconstruction: one or more CLI invocations
run back to back through ``rangenull.cli.main``.  Each workload supplies

- ``fixtures(rng, work)``: writes the inputs (benchmark time, not set-up);
- ``setup(call, work, seed)``: the program's one-time work, timed as set-up;
  returns the files it wrote, which must not change when it is repeated;
- ``prepare(work)``: inputs that depend on set-up outputs (benchmark time);
- ``requests(work)``: one cycle of the request mix, run in a closed loop;
- ``cycle_s``: nominal seconds per cycle.  A run of S seconds measures
  ``round(S / cycle_s)`` whole cycles, so every commit is measured on the
  same sample count.  Each value is close to the cycle time on the
  reference machine, rounded so that at the benchmark's 20 s the median
  and the tail latency fall inside one request kind, not on the boundary
  between two.

Every check recomputes ``A x_hat`` with plain numpy, never through the
package under test.  A request's checks run on its first run; every
repeat must then reproduce those outputs byte for byte.  See README.md
for why each workload exists and which modules it loads or bypasses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fixtures as fx

TOL = 1e-12  # consistency tolerance on A x_hat against the measurement


class CheckError(Exception):
    """An output that is missing, malformed or inconsistent."""


@dataclass
class Request:
    kind: str
    argvs: list[list[str]]
    mpix: float  # full-resolution pixels handled, in millions
    outputs: list[Path]
    check: Callable[[list[dict], list[bytes]], None]  # (stdout records, output bytes)


def _lines(records: list[dict], count: int) -> None:
    if len(records) != count:
        raise CheckError(f"expected {count} JSON records on stdout, got {len(records)}")


def _close(name: str, got: np.ndarray, want: np.ndarray) -> None:
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want)))
    if not err <= TOL:
        raise CheckError(f"{name}: max abs difference {err:.3g} > {TOL}")


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------- sr_png


class SrPng:
    """PNG in, bicubic or bilinear prediction, consistent combine, PNG and PDT1 out."""

    name = "sr_png"
    cycle_s = 5.0
    cases = ((128, 8), (256, 4), (512, 2))  # LR side and scale; every output is 3 x 1024^2
    predictors = ("bicubic", "bilinear")

    def fixtures(self, rng: np.random.Generator, work: Path) -> dict:
        info = {}
        for side, _ in self.cases:
            levels = fx.to_levels(fx.smooth_rgb(rng, side, side, noise=0.001))
            png, filters = fx.encode_png(levels)
            if not np.array_equal(fx.decode_png(png), levels):
                raise RuntimeError(f"fixture lr{side}.png does not decode to its source levels")
            (work / f"lr{side}.png").write_bytes(png)
            np.save(work / f"lr{side}.npy", levels)
            counts = np.bincount(filters, minlength=5)
            info[f"lr{side}.png"] = {
                "shape": [3, side, side],
                "bytes": len(png),
                "row_filters": dict(zip(fx.FILTER_NAMES, counts.tolist())),
            }
        return info

    def setup(self, call, work: Path, seed: int) -> list[Path]:
        return []

    def prepare(self, work: Path) -> None:
        pass

    def requests(self, work: Path) -> list[Request]:
        out_png, out_raw = work / "out.png", work / "out.pdt1"
        reqs = []
        for predictor in self.predictors:
            for side, s in self.cases:
                y = np.load(work / f"lr{side}.npy").transpose(2, 0, 1) / 255.0

                def check(records, blobs, y=y, s=s):
                    _lines(records, 2)
                    x_hat = fx.parse_pdt1(blobs[1])
                    _close("block mean of x_hat", fx.block_mean(x_hat, s), y)
                    if not np.array_equal(fx.decode_png(blobs[0]), fx.to_levels(x_hat)):
                        raise CheckError("PNG levels differ from the quantized PDT1 output")

                argv = ["pd", "--lr", str(work / f"lr{side}.png"), "--scale", str(s),
                        "--predictor", predictor, "--png", str(out_png), "--output", str(out_raw)]
                reqs.append(Request(f"pd-{predictor}-{side}-x{s}", [argv], (side * s) ** 2 / 1e6,
                                    [out_png, out_raw], check))
        return reqs


# ---------------------------------------------------------------- pd_exact


class PdExact:
    """PDT1 in, external prediction, consistent combine, PDT1 out, then verify."""

    name = "pd_exact"
    cycle_s = 2.5
    side = 2048
    scales = (2, 4, 8)

    def fixtures(self, rng: np.random.Generator, work: Path) -> dict:
        gt = fx.smooth_rgb(rng, self.side, self.side, noise=0.02)
        info = {}
        for s in self.scales:
            y = fx.block_mean(gt, s)
            fx.write_pdt1(work / f"y{s}.pdt1", y)
            info[f"y{s}.pdt1"] = {"shape": list(y.shape), "bytes": y.nbytes}
        gt += rng.normal(0.0, 0.03, gt.shape)  # the external prediction: truth plus error
        fx.write_pdt1(work / "x_raw.pdt1", gt)
        info["x_raw.pdt1"] = {"shape": list(gt.shape), "bytes": gt.nbytes}
        return info

    def setup(self, call, work: Path, seed: int) -> list[Path]:
        return []

    def prepare(self, work: Path) -> None:
        pass

    def requests(self, work: Path) -> list[Request]:
        out = work / "out.pdt1"
        reqs = []
        for s in self.scales:
            lr = work / f"y{s}.pdt1"
            y = fx.read_pdt1(lr)

            def check(records, blobs, y=y, s=s):
                _lines(records, 2)
                _close("block mean of x_hat", fx.block_mean(fx.parse_pdt1(blobs[0]), s), y)
                if not records[1]["max_abs"] <= TOL:
                    raise CheckError(f"verify reports max_abs {records[1]['max_abs']}")

            argvs = [
                ["pd", "--lr", str(lr), "--scale", str(s), "--predictor", "external",
                 "--raw", str(work / "x_raw.pdt1"), "--output", str(out)],
                ["verify", "--lr", str(lr), "--sr", str(out), "--scale", str(s)],
            ]
            reqs.append(Request(f"pd-verify-x{s}", argvs, self.side**2 / 1e6, [out], check))
        return reqs


# ---------------------------------------------------------------- operators


def _sensed(rows: np.ndarray, block: int, m: np.ndarray, n_records: int):
    def check(records, blobs):
        _lines(records, n_records)
        _close("rows times blocks of x_hat", fx.sense(rows, block, fx.parse_pdt1(blobs[0])), m)

    return check


class Operators:
    """Block compressed sensing, colorization and antialiased bicubic degradation."""

    name = "operators"
    cycle_s = 1.55
    side = 1008  # divisible by 2, 4, 8 and 12
    blocks = (8, 12)
    ratio = 0.25
    degrade_scales = (2, 4)

    def fixtures(self, rng: np.random.Generator, work: Path) -> dict:
        x = fx.smooth_rgb(rng, self.side, self.side, noise=0.02)
        raw = x + rng.normal(0.0, 0.03, x.shape)
        gray = x.mean(axis=0, keepdims=True)
        info = {}
        for name, a in (("x", x), ("x_raw", raw), ("gray", gray)):
            fx.write_pdt1(work / f"{name}.pdt1", a)
            info[f"{name}.pdt1"] = {"shape": list(a.shape), "bytes": a.nbytes}
        return info

    def setup(self, call, work: Path, seed: int) -> list[Path]:
        for b in self.blocks:
            argv = ["cs", "--action", "build", "--block", str(b), "--ratio", str(self.ratio),
                    "--seed", str(seed), "--output", str(work / f"op{b}.pdm1")]
            code = call(argv)
            if code != 0:
                raise RuntimeError(f"cs --action build --block {b} exited with {code}")
        return [work / f"op{b}.pdm1" for b in self.blocks]

    def prepare(self, work: Path) -> None:
        x = fx.read_pdt1(work / "x.pdt1")
        for b in self.blocks:
            rows = fx.read_pdm1(work / f"op{b}.pdm1")
            fx.write_pdt1(work / f"m{b}.pdt1", fx.sense(rows, b, x))

    def requests(self, work: Path) -> list[Request]:
        out = work / "out.pdt1"
        x_path, raw_path, gray_path = work / "x.pdt1", work / "x_raw.pdt1", work / "gray.pdt1"
        mpix = self.side**2 / 1e6
        reqs = []
        for b in self.blocks:
            op, m_path = work / f"op{b}.pdm1", work / f"m{b}.pdt1"
            rows, m = fx.read_pdm1(op), fx.read_pdt1(m_path)

            def measured(records, blobs, m=m):
                _lines(records, 0)
                _close("measurement", fx.parse_pdt1(blobs[0]), m)

            base = ["cs", "--op", str(op), "--output", str(out)]
            reqs += [
                Request(f"cs-measure-b{b}", [base + ["--action", "measure", "--input", str(x_path)]],
                        mpix, [out], measured),
                Request(f"cs-pinv-b{b}", [base + ["--action", "pinv", "--input", str(m_path)]],
                        mpix, [out], _sensed(rows, b, m, 0)),
                Request(f"cs-pd-b{b}", [base + ["--action", "pd", "--lr", str(m_path), "--raw", str(raw_path)]],
                        mpix, [out], _sensed(rows, b, m, 1)),
            ]
        gray = fx.read_pdt1(gray_path)

        def colorized(records, blobs):
            _lines(records, 1)
            _close("channel mean of x_hat", fx.parse_pdt1(blobs[0]).mean(axis=0, keepdims=True), gray)

        reqs.append(Request("colorize-pd", [["colorize", "--mode", "pd", "--input", str(gray_path),
                                             "--raw", str(raw_path), "--output", str(out)]],
                            mpix, [out], colorized))
        for s in self.degrade_scales:

            def degraded(records, blobs, s=s):
                _lines(records, 0)
                x = fx.read_pdt1(x_path)
                w = fx.cubic_down_matrix(self.side, s)
                want = np.stack([w @ (x[c] @ w.T) for c in range(x.shape[0])])
                _close(f"bicubic x{s} against the reference resampler", fx.parse_pdt1(blobs[0]), want)

            reqs.append(Request(f"degrade-bicubic-x{s}",
                                [["degrade", "--input", str(x_path), "--output", str(out), "--scale", str(s),
                                  "--filter", "bicubic", "--antialias"]],
                                mpix, [out], degraded))
        return reqs


WORKLOADS = {w.name: w for w in (SrPng(), PdExact(), Operators())}
