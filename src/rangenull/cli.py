"""Command-line interface.

Subcommands: degrade, pd, verify, errmap, bench, table1, colorize, cs.
An output path ending in ``.png`` (any case) gets an 8-bit PNG, and any
other path a PDT1 (``cs --action build`` writes its PDM1 operator file).
Machine-readable JSON goes to stdout (one object per line); every record
of a reconstruction describes the file it follows.  Diagnostics go to
stderr.  Exit codes: 0 success, 2 usage error, 3 input contract
violation.  A call's outputs depend only on its arguments and input
files: ``--seed`` defaults to 0.  The ``bench`` and ``table1`` protocols
live in ``rangenull.bench``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bench import BENCH_OPS, run_bench, run_table1
from .linop import lift, measure, reconstruct
from .metrics import error_map
from .pooling import PoolingOp, verify_consistency
from .resample import FILTERS, PREDICTORS, ResampleSpec, open_prediction, resample
from .restore import ColorMeanOp, cs_build, load_sense_op, save_sense_op
from .tensor import load_tensor, open_stripes, save_tensor

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _cmd_degrade(args: argparse.Namespace) -> int:
    x = load_tensor(args.input)
    spec = ResampleSpec(filter=args.filter, antialias=args.antialias, scale=args.scale, direction="down")
    save_tensor(resample(x, spec), args.output)
    return EXIT_OK


def _cmd_pd(args: argparse.Namespace) -> int:
    """Reconstruct ``--output`` (then ``--png``) from ``--lr`` and print one
    record per file: ``reconstruct`` with a ``PoolingOp`` walks every
    prediction one stripe at a time, from ``open_prediction``."""
    if args.raw is not None and args.predictor != "external":
        raise ValueError("pd --raw is read only with --predictor external")
    y = load_tensor(args.lr)
    pngs = () if args.png is None else (args.png,)
    with open_prediction(y, args.predictor, args.scale, args.raw) as x_raw:
        records = reconstruct(PoolingOp.for_measurement(y, args.scale), y, x_raw, args.output, *pngs)
    for record in records:
        _emit(record.to_dict())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    lr = load_tensor(args.lr)
    with open_stripes(args.sr) as sr:
        _emit(verify_consistency(lr, sr, args.scale).to_dict())
    return EXIT_OK


def _cmd_errmap(args: argparse.Namespace) -> int:
    gt = load_tensor(args.gt)
    sr = load_tensor(args.sr)
    save_tensor(error_map(gt, sr, args.gain), args.output)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    _emit(run_bench(args.op, args.size, args.scale, args.iterations, args.seed).to_dict())
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    _emit(run_table1(args.count, args.size, args.scale, args.seed))
    return EXIT_OK


def _cmd_colorize(args: argparse.Namespace) -> int:
    """``gray``, ``color`` and ``pd`` run ``measure``, ``lift`` and
    ``reconstruct`` with a ``ColorMeanOp``, on ``--input`` or, for ``pd``,
    the color prediction ``--raw``; ``pd`` prints its record.  Color images
    are read (from a PDT1) and written one stripe at a time."""
    if args.raw is not None and args.mode != "pd":
        raise ValueError("colorize --raw is read only with --mode pd")
    if args.mode == "gray":
        with open_stripes(args.input) as x:
            measure(ColorMeanOp(*x.shape[1:]), x, args.output)
        return EXIT_OK
    x = load_tensor(args.input)
    if args.mode == "color":
        lift(ColorMeanOp.for_measurement(x), x, args.output)
        return EXIT_OK
    if args.raw is None:
        raise ValueError("colorize --mode pd needs --raw with the color prediction")
    with open_stripes(args.raw) as x_raw:
        (record,) = reconstruct(ColorMeanOp(x.height, x.width), x, x_raw, args.output)
    _emit(record.to_dict())
    return EXIT_OK


def _require_flag(args: argparse.Namespace, name: str) -> str:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"cs --action {args.action} needs --{name}")
    return value


def _cmd_cs(args: argparse.Namespace) -> int:
    """``build`` writes a PDM1 operator and prints its fields; ``measure``,
    ``pinv`` and ``pd`` load it and run ``linop.measure``, ``linop.lift``
    and ``linop.reconstruct``, which read a PDT1 image (a PNG is decoded
    whole) and write the image one stripe at a time, so none of them holds
    an image-sized array.
    """
    if args.action == "build":
        op = cs_build(args.block, args.ratio, args.seed)
        save_sense_op(op, args.output)
        _emit({"block": op.block, "q": op.q, "ratio": op.ratio, "seed": op.seed})
        return EXIT_OK
    op = load_sense_op(_require_flag(args, "op"))
    if args.action == "measure":
        with open_stripes(_require_flag(args, "input")) as x:
            measure(op, x, args.output)
    elif args.action == "pinv":
        lift(op, load_tensor(_require_flag(args, "input")), args.output)
    else:
        y = load_tensor(_require_flag(args, "lr"))
        with open_stripes(_require_flag(args, "raw")) as x_raw:
            (record,) = reconstruct(op, y, x_raw, args.output)
        _emit(record.to_dict())
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
    p.add_argument("--seed", default=0, type=int)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table1", help="run the random-image consistency protocol")
    p.add_argument("--count", default=100, type=int)
    p.add_argument("--size", default=256, type=int)
    p.add_argument("--scale", default=8, type=int)
    p.add_argument("--seed", default=0, type=int)
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
    p.add_argument("--seed", default=0, type=int)
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
        # Images are checked finite and reports saturate, so numpy's overflow
        # warnings would only repeat what the call reports itself.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
