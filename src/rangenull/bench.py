"""Timing and consistency protocols behind ``rangenull bench`` and ``table1``.

``run_bench`` times one pooling operation on seeded random tensors;
``run_table1`` runs the paper's random-image consistency protocol in
double and single precision.  Both take every input, the seed included,
as an argument.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .linop import _combined, measure
from .metrics import compare
from .pooling import PoolingOp
from .rng import Stream, derive
from .tensor import ImageTensor, _adopt

BENCH_OPS = ("pd", "pool_down", "pool_up")


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
    if size < 1:
        raise ValueError(f"size must be a positive integer, got {size}")
    op = PoolingOp(scale, 3, size, size)
    stream = Stream(seed)
    hr = ImageTensor(stream.uniform(op.in_shape))
    lr = ImageTensor(stream.uniform(op.out_shape))
    if op_name == "pd":
        work = lambda: op.combine(lr, hr)
    elif op_name == "pool_down":
        work = lambda: op.forward(hr)
    else:
        work = lambda: op.pinv(lr)
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


def _table1_case(op: PoolingOp, seed: int, index: int) -> dict:
    stream = Stream(derive(seed, index))
    gt = stream.uniform(op.in_shape)
    raw = stream.uniform(op.in_shape)
    lr = measure(op, gt)
    start = time.perf_counter()
    combined = _combined(op, lr, raw)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    report = op.verify(_adopt(lr), combined)
    # Single-precision rerun of the same combine, compared in double.
    lr32 = lr.astype(np.float32)
    combined32 = _combined(op, lr32, raw.astype(np.float32))
    down32 = measure(op, combined32).astype(np.float64)
    report32 = compare(ImageTensor(lr32.astype(np.float64)), ImageTensor(down32))
    return {
        "psnr": report.psnr,
        "max_abs": report.max_abs,
        "l1": report.l1,
        "psnr_float32": report32.psnr,
        "time_ms": elapsed_ms,
    }


def run_table1(count: int, size: int, scale: int, seed: int) -> dict:
    """Consistency protocol over seeded random images and raw predictions.

    Per image: draw a random ground truth, pool it down to the reference,
    combine with a random raw prediction, and measure how far the pooled
    result drifts from the reference, in double and in single precision.
    Results are averaged over ``count`` images; each image derives its own
    child stream from ``seed``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if size < 1:
        raise ValueError(f"size must be a positive integer, got {size}")
    op = PoolingOp(scale, 3, size, size)
    cases = [_table1_case(op, seed, i) for i in range(count)]
    summary = {"count": count, "size": size, "scale": scale, "seed": seed}
    for key in cases[0]:
        summary[f"mean_{key}"] = float(np.mean([c[key] for c in cases]))
    return summary
