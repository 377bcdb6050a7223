"""Command-line interface.

Subcommands: degrade, pd, verify, errmap, bench, table1, colorize, cs.
An output path ending in ``.png`` (any case) gets an 8-bit PNG, and any
other path a PDT1 (``cs --action build`` writes its PDM1 operator file).
Machine-readable JSON goes to stdout (one object per line); every record
of a reconstruction describes the file it follows.  Diagnostics go to
stderr.  Exit codes: 0 success, 2 usage error, 3 input contract
violation.  The environment variable RANGENULL_SEED overrides the
default seed 0 wherever a --seed flag is omitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .metrics import compare, error_map
from .linop import LinearOperator
from .pooling import (
    PoolingOp,
    _block_mean,
    _pd_combine_arr,
    _require_divisible,
    pd_combine,
    pool_down,
    pool_up,
)
from .resample import FILTERS, PREDICTORS, ResampleSpec, predict_raw, resample
from .restore import (
    ColorMeanOp,
    color_to_gray,
    cs_build,
    cs_measure,
    cs_pinv,
    gray_to_color,
    load_sense_op,
    save_sense_op,
)
from .rng import Stream, derive
from .tensor import ImageTensor, check_destination, check_png_channels, load_tensor, save_png, write_raw

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3

BENCH_OPS = ("pd", "pool_down", "pool_up")


def _default_seed() -> int:
    raw = os.environ.get("RANGENULL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"RANGENULL_SEED must be an integer, got {raw!r}") from exc


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _is_png(path: str) -> bool:
    return path.lower().endswith(".png")


def _save(t: ImageTensor, path: str) -> None:
    """Write ``t`` as an 8-bit PNG if ``path`` ends in ``.png``, else as PDT1."""
    if _is_png(path):
        save_png(t, path)
    else:
        write_raw(t, path)


def _reconstruct(op: LinearOperator, y: ImageTensor, x_raw: ImageTensor, *paths: str) -> None:
    """Combine once, write ``x_hat`` to each path in turn, and print one
    record per file: ``op.verify`` of what that file holds.

    Every destination, and a PNG's channel count, is checked before the
    first write, and the records are printed after the last, so a failed
    call prints nothing.  A PDT1 is written on one helper thread while this
    thread verifies the same immutable ``x_hat``; a PNG rebinds ``x_hat`` to
    the 8-bit image it holds, which any later path receives.
    """
    for path in paths:
        check_destination(path)
    x_hat = op.combine(y, x_raw)
    if any(map(_is_png, paths)):
        check_png_channels(x_hat.channels)
    records = []
    for path in paths:
        if _is_png(path):
            # Rebinding frees the exact image before the report's temporaries exist.
            x_hat = save_png(x_hat, path)
            report = op.verify(y, x_hat)
        else:
            with ThreadPoolExecutor(max_workers=1) as helper:
                written = helper.submit(write_raw, x_hat, path)
                report = op.verify(y, x_hat)
                written.result()
        records.append(report.to_dict())
    for record in records:
        _emit(record)


@dataclass(frozen=True)
class BenchResult:
    """Timing summary for repeated runs of one operation."""

    op_name: str
    image_size: int
    iterations: int
    mean_ms: float
    p50_ms: float
    p95_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


def run_bench(op_name: str, size: int, scale: int, iterations: int, seed: int) -> BenchResult:
    """Time one operation on seeded random 3-channel tensors.

    Two untimed warmup runs precede the measured iterations.
    """
    if op_name not in BENCH_OPS:
        raise ValueError(f"op must be one of {BENCH_OPS}, got {op_name!r}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _require_divisible(size, size, scale)
    stream = Stream(seed)
    hr = ImageTensor(stream.uniform((3, size, size)))
    lr = ImageTensor(stream.uniform((3, size // scale, size // scale)))
    if op_name == "pd":
        work = lambda: pd_combine(lr, hr, scale)
    elif op_name == "pool_down":
        work = lambda: pool_down(hr, scale)
    else:
        work = lambda: pool_up(lr, scale)
    for _ in range(2):
        work()
    times = np.empty(iterations)
    for i in range(iterations):
        start = time.perf_counter()
        work()
        times[i] = (time.perf_counter() - start) * 1e3
    return BenchResult(
        op_name=op_name,
        image_size=size,
        iterations=iterations,
        mean_ms=float(times.mean()),
        p50_ms=float(np.percentile(times, 50)),
        p95_ms=float(np.percentile(times, 95)),
    )


def _table1_case(seed: int, index: int, size: int, scale: int) -> dict:
    stream = Stream(derive(seed, index))
    gt = stream.uniform((3, size, size))
    raw = stream.uniform((3, size, size))
    lr = _block_mean(gt, scale)
    start = time.perf_counter()
    combined = _pd_combine_arr(lr, raw, scale)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    report = compare(ImageTensor(lr), ImageTensor(_block_mean(combined, scale)))
    # Single-precision rerun of the same combine, compared in double.
    lr32 = lr.astype(np.float32)
    combined32 = _pd_combine_arr(lr32, raw.astype(np.float32), scale)
    down32 = _block_mean(combined32, scale).astype(np.float64)
    report32 = compare(ImageTensor(lr32.astype(np.float64)), ImageTensor(down32))
    return {
        "psnr": report.psnr,
        "max_abs": report.max_abs,
        "l1": report.l1,
        "psnr_float32": report32.psnr,
        "time_ms": elapsed_ms,
    }


def run_table1(count: int, size: int, scale: int, seed: int, workers: int = 1) -> dict:
    """Consistency protocol over seeded random images and raw predictions.

    Per image: draw a random ground truth, pool it down to the reference,
    combine with a random raw prediction, and measure how far the pooled
    result drifts from the reference, in double and in single precision.
    Results are averaged over ``count`` images and are identical for any
    worker count (each image derives its own child stream).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _require_divisible(size, size, scale)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        cases = [_table1_case(seed, i, size, scale) for i in range(count)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cases = list(pool.map(lambda i: _table1_case(seed, i, size, scale), range(count)))
    summary = {"count": count, "size": size, "scale": scale, "seed": seed}
    for key in cases[0]:
        summary[f"mean_{key}"] = float(np.mean([c[key] for c in cases]))
    return summary


def _cmd_degrade(args: argparse.Namespace) -> int:
    x = load_tensor(args.input)
    spec = ResampleSpec(filter=args.filter, antialias=args.antialias, scale=args.scale, direction="down")
    _save(resample(x, spec), args.output)
    return EXIT_OK


def _cmd_pd(args: argparse.Namespace) -> int:
    y = load_tensor(args.lr)
    x_raw = predict_raw(y, args.predictor, args.scale, args.raw)
    pngs = () if args.png is None else (args.png,)
    _reconstruct(PoolingOp.for_measurement(y, args.scale), y, x_raw, args.output, *pngs)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    lr = load_tensor(args.lr)
    sr = load_tensor(args.sr)
    _emit(PoolingOp.for_measurement(lr, args.scale).verify(lr, sr).to_dict())
    return EXIT_OK


def _cmd_errmap(args: argparse.Namespace) -> int:
    gt = load_tensor(args.gt)
    sr = load_tensor(args.sr)
    _save(error_map(gt, sr, args.gain), args.output)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    _emit(run_bench(args.op, args.size, args.scale, args.iterations, seed).to_dict())
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    _emit(run_table1(args.count, args.size, args.scale, seed, args.workers))
    return EXIT_OK


def _cmd_colorize(args: argparse.Namespace) -> int:
    x = load_tensor(args.input)
    if args.mode != "pd":
        _save((color_to_gray if args.mode == "gray" else gray_to_color)(x), args.output)
        return EXIT_OK
    if args.raw is None:
        raise ValueError("colorize --mode pd needs --raw with the color prediction")
    _reconstruct(ColorMeanOp(x.height, x.width), x, load_tensor(args.raw), args.output)
    return EXIT_OK


def _require_flag(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"cs --action {args.action} needs --{name}")
    return value


def _cmd_cs(args: argparse.Namespace) -> int:
    if args.action == "build":
        seed = args.seed if args.seed is not None else _default_seed()
        op = cs_build(args.block, args.ratio, seed)
        save_sense_op(op, args.output)
        _emit({"block": op.block, "q": op.q, "ratio": op.ratio, "seed": op.seed})
        return EXIT_OK
    op = load_sense_op(_require_flag(args, "op"))
    if args.action != "pd":
        kernel = cs_measure if args.action == "measure" else cs_pinv
        _save(kernel(op, load_tensor(_require_flag(args, "input"))), args.output)
        return EXIT_OK
    y = load_tensor(_require_flag(args, "lr"))
    x_raw = load_tensor(_require_flag(args, "raw"))
    _reconstruct(op, y, x_raw, args.output)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangenull",
        description="Exact range/null-space decompositions for linear image degradations. "
        "An output path ending in .png gets an 8-bit PNG; any other path gets a PDT1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="downsample an image (PNG or PDT1 in, format by output extension)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--scale", required=True, type=int)
    p.add_argument("--filter", default="box", choices=FILTERS)
    p.add_argument("--antialias", default=True, action=argparse.BooleanOptionalAction)
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser(
        "pd",
        help="reconstruct with the consistent combine; prints one consistency "
        "record per output file, --output first",
    )
    p.add_argument("--lr", required=True)
    p.add_argument("--output", required=True, help="output path: PDT1, or 8-bit PNG if it ends in .png")
    p.add_argument("--png", default=None, help="optional second output path, written after --output")
    p.add_argument("--scale", required=True, type=int)
    p.add_argument("--predictor", default="nearest", choices=PREDICTORS)
    p.add_argument("--raw", default=None, help="prediction file for --predictor external")
    p.set_defaults(func=_cmd_pd)

    p = sub.add_parser("verify", help="report consistency between an LR file and a pooled SR file")
    p.add_argument("--lr", required=True)
    p.add_argument("--sr", required=True)
    p.add_argument("--scale", required=True, type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("errmap", help="render an amplified error map (8-bit PNG if the output ends in .png)")
    p.add_argument("--gt", required=True)
    p.add_argument("--sr", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--gain", default=5.0, type=float)
    p.set_defaults(func=_cmd_errmap)

    p = sub.add_parser("bench", help="time an operation on seeded random tensors")
    p.add_argument("--op", default="pd", choices=BENCH_OPS)
    p.add_argument("--size", default=1024, type=int)
    p.add_argument("--scale", default=8, type=int)
    p.add_argument("--iterations", default=100, type=int)
    p.add_argument("--seed", default=None, type=int)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table1", help="run the random-image consistency protocol")
    p.add_argument("--count", default=100, type=int)
    p.add_argument("--size", default=256, type=int)
    p.add_argument("--scale", default=8, type=int)
    p.add_argument("--seed", default=None, type=int)
    p.add_argument("--workers", default=1, type=int)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("colorize", help="channel-mean operator: gray, color, or pd mode")
    p.add_argument("--mode", required=True, choices=("gray", "color", "pd"))
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--raw", default=None, help="color prediction for --mode pd")
    p.set_defaults(func=_cmd_colorize)

    p = sub.add_parser("cs", help="block compressed sensing: build, measure, pinv, or pd")
    p.add_argument("--action", required=True, choices=("build", "measure", "pinv", "pd"))
    p.add_argument("--block", default=8, type=int)
    p.add_argument("--ratio", default=0.25, type=float)
    p.add_argument("--seed", default=None, type=int)
    p.add_argument("--op", default=None, help="PDM1 operator file (measure/pinv/pd)")
    p.add_argument("--input", default=None)
    p.add_argument("--lr", default=None, help="measurement file for --action pd")
    p.add_argument("--raw", default=None, help="raw prediction file for --action pd")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_cs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
