"""Span tracing of the package from outside it.

``Tracer.install`` wraps the public functions each layer exports and
rebinds the wrapper at every place the original is bound: the defining
module and every ``rangenull`` module that imported it with ``from .x
import y`` (``rangenull.cli.pd_combine``, ``rangenull.resample.pool_up``,
``rangenull.restore.svd`` and so on).  Two class attributes are wrapped
on the class itself: ``ImageTensor.__post_init__`` (every tensor
construction) and ``Stream.gaussian``.  ``uninstall`` restores the
originals, so untraced and traced cycles of the same process run the same
code apart from the wrappers.  A target the package no longer has is
skipped and listed as untraceable in the details; its metrics read 0.

Spans are kept in memory as ``[name, start, end, parent, request, phase,
work]`` and written out once at the end.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import struct
import sys
import time
from pathlib import Path

import numpy as np


def _png_bytes(args, kwargs):
    data = args[0]
    try:
        width, height, depth, color_type = struct.unpack_from(">IIBB", data, 16)
    except struct.error:
        return {}
    return {"bytes": width * height * (3 if color_type == 2 else 1) * depth // 8}


def _resample_work(args, kwargs):
    x, spec = args[0], args[1]
    pix = x.height * x.width
    s2 = spec.scale * spec.scale
    return {"mpix": (pix * s2 if spec.direction == "up" else pix) / 1e6}


def _resample_name(args, kwargs):
    return "resample.up" if args[1].direction == "up" else "resample.down"


def _file_bytes(args, kwargs):
    try:
        return {"bytes": os.path.getsize(args[0])}
    except OSError:
        return {}


def _tensor_copied(args, kwargs):
    d = args[0].data
    view_or_cast = not (
        isinstance(d, np.ndarray) and d.dtype == np.float64 and d.flags.c_contiguous and d.base is None
    )
    return {"copied": int(view_or_cast)}


# (module, attribute, span name or namer, work counter); an attribute
# "Class.method" is wrapped on the class.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("_png", "decode", "png.decode", _png_bytes),
    ("_png", "encode", "png.encode", lambda a, k: {"bytes": a[0].nbytes}),
    ("resample", "predict_raw", "resample.predict_raw", None),
    ("resample", "resample", _resample_name, _resample_work),
    ("pooling", "pd_combine", "pooling.pd_combine",
     lambda a, k: {"bytes": a[0].data.nbytes + 2 * a[1].data.nbytes}),
    ("pooling", "pool_down", "pooling.pool_down", None),
    ("pooling", "pool_up", "pooling.pool_up", None),
    ("pooling", "verify_consistency", "pooling.verify_consistency", None),
    ("tensor", "read_raw", "tensor.read_raw", _file_bytes),
    ("tensor", "write_raw", "tensor.write_raw", lambda a, k: {"bytes": a[0].data.nbytes + 16}),
    ("tensor", "load_png", "tensor.load_png", None),
    ("tensor", "save_png", "tensor.save_png", None),
    ("tensor", "quantize", "tensor.quantize", None),
    ("tensor", "ImageTensor.__post_init__", "tensor.ImageTensor", _tensor_copied),
    ("metrics", "compare", "metrics.compare", None),
    ("restore", "cs_build", "restore.cs_build", None),
    ("restore", "cs_measure", "restore.cs_measure", None),
    ("restore", "cs_pinv", "restore.cs_pinv", None),
    ("restore", "generic_pd", "restore.generic_pd", None),
    ("restore", "color_to_gray", "restore.color_to_gray", None),
    ("restore", "gray_to_color", "restore.gray_to_color", None),
    ("restore", "load_sense_op", "restore.load_sense_op", None),
    ("linop", "svd", "linop.svd", None),
    ("rng", "Stream.gaussian", "rng.gaussian", None),
]

# Spans that only the set-up runs; their metrics are per set-up, all
# others per request.
SETUP_SPANS = ("restore.cs_build", "linop.svd", "rng.gaussian")

# name: (unit, kind, spans).  Kinds: busy/self = seconds per request (or
# per set-up), rate = work per busy second, calls = spans per request,
# ratio = share of spans whose work flag is set.
PER_LAYER = {
    "png.decode.busy_s": ("s", "busy", ["png.decode"]),
    "png.decode.mb_s": ("MB/s", "rate_bytes", ["png.decode"]),
    "png.encode.busy_s": ("s", "busy", ["png.encode"]),
    "png.encode.mb_s": ("MB/s", "rate_bytes", ["png.encode"]),
    "resample.predict_raw.busy_s": ("s", "busy", ["resample.predict_raw"]),
    "resample.up.busy_s": ("s", "busy", ["resample.up"]),
    "resample.down.busy_s": ("s", "busy", ["resample.down"]),
    "resample.mpix_s": ("Mpix/s", "rate_mpix", ["resample.up", "resample.down"]),
    "pooling.pd_combine.busy_s": ("s", "busy", ["pooling.pd_combine"]),
    "pooling.pd_combine.bw_frac": ("ratio", "bw_frac", ["pooling.pd_combine"]),
    "pooling.pool_down.busy_s": ("s", "busy", ["pooling.pool_down"]),
    "pooling.pool_up.busy_s": ("s", "busy", ["pooling.pool_up"]),
    "pooling.verify_consistency.busy_s": ("s", "busy", ["pooling.verify_consistency"]),
    "tensor.read_raw.busy_s": ("s", "busy", ["tensor.read_raw"]),
    "tensor.read_raw.mb_s": ("MB/s", "rate_bytes", ["tensor.read_raw"]),
    "tensor.write_raw.busy_s": ("s", "busy", ["tensor.write_raw"]),
    "tensor.write_raw.mb_s": ("MB/s", "rate_bytes", ["tensor.write_raw"]),
    "tensor.load_png.self_s": ("s", "self", ["tensor.load_png"]),
    "tensor.save_png.self_s": ("s", "self", ["tensor.save_png"]),
    "tensor.quantize.busy_s": ("s", "busy", ["tensor.quantize"]),
    "tensor.ImageTensor.calls": ("count", "calls", ["tensor.ImageTensor"]),
    "tensor.ImageTensor.busy_s": ("s", "busy", ["tensor.ImageTensor"]),
    "tensor.ImageTensor.copy_ratio": ("ratio", "ratio_copied", ["tensor.ImageTensor"]),
    "metrics.compare.busy_s": ("s", "busy", ["metrics.compare"]),
    "restore.cs_measure.busy_s": ("s", "busy", ["restore.cs_measure"]),
    "restore.cs_pinv.busy_s": ("s", "busy", ["restore.cs_pinv"]),
    "restore.generic_pd.self_s": ("s", "self", ["restore.generic_pd"]),
    "restore.color_to_gray.busy_s": ("s", "busy", ["restore.color_to_gray"]),
    "restore.gray_to_color.busy_s": ("s", "busy", ["restore.gray_to_color"]),
    "restore.load_sense_op.busy_s": ("s", "busy", ["restore.load_sense_op"]),
    "restore.cs_build.self_s": ("s", "self", ["restore.cs_build"]),
    "linop.svd.busy_s": ("s", "busy", ["linop.svd"]),
    "rng.gaussian.busy_s": ("s", "busy", ["rng.gaussian"]),
    "cli.main.self_ms": ("ms", "self_ms", ["cli.main"]),
}


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self.request: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, fn, name, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.request, self.phase,
                   work(args, kwargs) if work else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "rangenull" or n.startswith("rangenull.")]
        for mod_name, target, name, work in TARGETS:
            owner = sys.modules.get(f"rangenull.{mod_name}")
            *path, attr = target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                self.missing.add(f"{mod_name}.{target}")
                continue
            sites = [owner] if path else modules
            wrapper = self._wrap(original, name, work)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Duration minus child coverage, per span."""
        children: dict[int, list[tuple[float, float]]] = {}
        for rec in self.spans:
            if rec[3] >= 0:
                children.setdefault(rec[3], []).append((rec[1], rec[2]))
        out = []
        for i, rec in enumerate(self.spans):
            covered, reach = 0.0, rec[1]
            for start, end in sorted(children.get(i, [])):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(rec[2] - rec[1] - covered)
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "phase", "work")
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = []
        for rec, own in zip(self.spans, self.self_times()):
            row = dict(zip(keys, rec))
            row["start"], row["end"] = rec[1] - t0, rec[2] - t0
            row["self"] = own
            rows.append(row)
        path.write_text(json.dumps(rows))

    def layer_metrics(self, n_requests: int, n_setups: int, memcpy_gb_s: float, overhead: float) -> dict:
        own = self.self_times()
        result = {}
        for metric, (unit, kind, names) in PER_LAYER.items():
            setup = names[0] in SETUP_SPANS
            phase, count = ("setup", n_setups) if setup else ("request", n_requests)
            picked = [(rec, s) for rec, s in zip(self.spans, own) if rec[0] in names and rec[5] == phase]
            busy = sum(rec[2] - rec[1] for rec, _ in picked)

            def total(key):
                return sum((rec[6] or {}).get(key, 0) for rec, _ in picked)

            if kind == "busy":
                value = busy / count
            elif kind == "self":
                value = sum(s for _, s in picked) / count
            elif kind == "self_ms":
                value = 1e3 * sum(s for _, s in picked) / count
            elif kind == "calls":
                value = len(picked) / count
            elif kind == "ratio_copied":
                value = total("copied") / len(picked) if picked else 0.0
            elif kind == "rate_bytes":
                value = total("bytes") / 1e6 / busy if busy else 0.0
            elif kind == "rate_mpix":
                value = total("mpix") / busy if busy else 0.0
            else:  # bw_frac
                value = total("bytes") / 1e9 / busy / memcpy_gb_s if busy else 0.0
            result[metric] = {"value": value, "unit": unit}
        result["memcpy_gb_s"] = {"value": memcpy_gb_s, "unit": "GB/s"}
        result["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        return result


def memcpy_gb_s(mb: int = 128, repeats: int = 5) -> float:
    """Plain array copy rate, counting bytes read plus bytes written."""
    src = np.ones(mb * (1 << 20) // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / 1e9 / float(np.median(times[1:]))
