"""Separable image resampling with box, bilinear, and bicubic kernels.

Covers the downsamplers a reconstruction is typically tested against.
Box is block pooling, shrinking by ``pool_down`` and enlarging by
replication whatever the antialias flag says, so it is the paper's
degradation bit for bit.  Antialiased bilinear and bicubic downsampling
stretches the kernel by the scale factor so it low-passes before
decimation; without antialiasing the kernel keeps its unit support and
simply interpolates at the decimated positions.  Output pixel ``i``
samples the source at ``(i + 0.5) * s - 0.5`` going down and ``(i + 0.5)
/ s - 0.5`` going up, which keeps constant images fixed and the two
directions mutually consistent.  Borders clamp to the edge pixel and
every output pixel's weights are normalized to sum to 1.

With an integer scale the weights repeat with period ``s``: enlarging
has ``s`` phases of at most five nonzero taps each, shrinking one phase
that steps ``s`` source pixels at a time (about ``4 s`` taps when
antialiased).  Each phase's weights are computed once.  Each axis of each
channel is one batched matrix product (``_apply_phases``) of a
sliding-window view of the edge-padded plane (``_windows``) with the
small (taps, phases) weight matrix, so the cost is proportional to
pixels times taps and no (output, input) matrix is ever built.  The
vertical pass, the cheaper one per output pixel, runs on the
full-resolution side: first when shrinking, last when enlarging.
Every enlargement takes one path.  ``open_prediction``, the one
predictor dispatch, yields it as a stripe source for ``tensor._stripes``:
``nearest`` as pooling's ``A+ y`` source (``linop.lift``), bilinear and
bicubic as ``_Enlarged``, which makes each stripe from the horizontal
pass of the low-resolution plane.  ``predict_raw`` gathers that source,
and ``resample`` enlarges through ``predict_raw``.
The horizontal pass writes its plane down columns, so that plane's rows
are padded to an odd number of 64-byte cache lines (``_intermediate``):
at a power-of-two width every row would fall in the same cache sets.
Shrinking copies that plane into the output.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .pooling import PoolingOp, pool_down
from .tensor import ImageTensor, _gather, open_stripes

FILTERS = ("box", "bilinear", "bicubic")
DIRECTIONS = ("down", "up")
PREDICTORS = ("nearest", "bilinear", "bicubic", "external")

_CUBIC_A = -0.5  # Catmull-Rom family coefficient


def _kernel_bilinear(t: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(t))


def _kernel_bicubic(t: np.ndarray) -> np.ndarray:
    at = np.abs(t)
    a = _CUBIC_A
    inner = ((a + 2.0) * at - (a + 3.0)) * at * at + 1.0
    outer = ((a * at - 5.0 * a) * at + 8.0 * a) * at - 4.0 * a
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


_KERNELS = {"bilinear": _kernel_bilinear, "bicubic": _kernel_bicubic}
_RADII = {"bilinear": 1.0, "bicubic": 2.0}


@dataclass(frozen=True)
class ResampleSpec:
    """Resampling configuration: kernel, antialias flag, integer scale, direction."""

    filter: str
    antialias: bool
    scale: int
    direction: str

    def __post_init__(self) -> None:
        if self.filter not in FILTERS:
            raise ValueError(f"filter must be one of {FILTERS}, got {self.filter!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if not isinstance(self.scale, int) or self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale}")


def _phase_weights(spec: ResampleSpec) -> tuple[int, np.ndarray]:
    """The first tap offset and the normalized (taps, phases) kernel weights.

    Output pixel ``q * phases + p`` is ``sum_k weights[k, p] * src[q * step
    + first + k]``, with ``step`` = ``scale`` going down and 1 going up and
    the source index clamped to the edge.  Every phase shares one tap range;
    taps outside a phase's own support get weight 0.
    """
    kernel = _KERNELS[spec.filter]
    s = spec.scale
    if spec.direction == "down":
        stretch = float(s) if spec.antialias else 1.0
        centers = np.array([(s - 1) / 2])
    else:
        stretch = 1.0
        centers = (np.arange(s) + 0.5) / s - 0.5
    support = _RADII[spec.filter] * stretch
    offsets = np.arange(math.floor(centers[0] - support), math.ceil(centers[-1] + support) + 1)
    weights = kernel((offsets[:, None] - centers) / stretch)
    used = np.flatnonzero(weights.any(axis=1))  # drop the taps no phase reaches
    weights = weights[used[0] : used[-1] + 1]
    return int(offsets[used[0]]), weights / weights.sum(axis=0)


def _windows(plane: np.ndarray, axis: int, first: int, taps: int, step: int) -> np.ndarray:
    """The ``taps`` source samples of each output phase group along ``axis``
    of a 2-D ``plane``, that axis first: (groups, other axis, taps) views of
    the edge-padded plane."""
    size = plane.shape[axis]
    n = size // step
    # Edge padding reproduces the clamp; the weights and their sums are unchanged.
    before = max(0, -first)
    pad = [(0, 0), (0, 0)]
    pad[axis] = (before, max(0, (n - 1) * step + first + taps - size))
    start = first + before
    window = [slice(None), slice(None)]
    window[axis] = slice(start, start + (n - 1) * step + 1, step)
    windows = sliding_window_view(np.pad(plane, pad, mode="edge"), taps, axis=axis)[tuple(window)]
    return np.moveaxis(windows, axis, 0)


def _apply_phases(windows: np.ndarray, weights: np.ndarray, axis: int, out: np.ndarray) -> None:
    """Write the phase weights applied to ``windows`` into ``out``, whose
    ``axis`` holds the windows' groups times the phases.

    Each output is one window's dot product with one phase's weights, at
    most five going up, so a stripe of groups is expected to give the bytes
    it has in the whole plane; the tests compare the two byte for byte.
    """
    phases = weights.shape[1]
    split = out.reshape(out.shape[:axis] + (len(windows), phases) + out.shape[axis + 1 :])
    # Batched over windows with the other image axis as matrix rows, so both
    # operands and the output are strided matrices that BLAS accepts.
    np.matmul(windows, weights, out=np.moveaxis(split, (axis, axis + 1), (0, -1)))


def _intermediate(height: int, width: int) -> np.ndarray:
    """An empty (height, width) float64 plane for the horizontal pass, its
    rows an odd number of 64-byte lines apart: an enlargement's first
    pass, or a reduction's last, whose plane is then copied into the
    output.

    That pass writes down columns, one sample per row.  Rows whose
    distance is a multiple of 4 KiB, as at any power-of-two width from
    512 samples, all map to the same cache sets: at 1024 samples an
    enlargement's pass ran three to four times slower than at this
    stride, and a whole bicubic reduction from 2048 samples by 2 about
    2.7 times slower.
    """
    lines = -(-width // 8) | 1
    return np.empty((height, 8 * lines))[:, :width]


def resample(x: ImageTensor, spec: ResampleSpec) -> ImageTensor:
    """Apply separable resampling; an enlargement is ``predict_raw``'s."""
    s = spec.scale
    if spec.direction == "up":
        return predict_raw(x, "nearest" if spec.filter == "box" else spec.filter, s)
    if spec.filter == "box":
        return pool_down(x, s)
    if x.height % s or x.width % s:
        raise ValueError(f"image size {x.height}x{x.width} is not divisible by scale {s}")
    out_h, out_w = x.height // s, x.width // s
    first, weights = _phase_weights(spec)
    mid, last = np.empty((out_h, x.width)), _intermediate(out_h, out_w)
    out = np.empty((x.channels, out_h, out_w))
    for plane, dest in zip(x.data, out):
        _apply_phases(_windows(plane, 0, first, len(weights), s), weights, 0, mid)
        _apply_phases(_windows(mid, 1, first, len(weights), s), weights, 1, last)
        np.copyto(dest, last)
    return ImageTensor(out)


def predict_raw(y: ImageTensor, method: str, s: int, external_path=None) -> ImageTensor:
    """Produce a raw upsampled prediction to feed the consistent combine:
    the stripes ``open_prediction`` yields, gathered into one array.

    ``nearest`` is plain replication (``pool_up``); the interpolating
    methods give smoother guesses; ``external`` loads a
    prediction produced elsewhere and validates its geometry.
    """
    with open_prediction(y, method, s, external_path) as x_raw:
        return ImageTensor(_gather(x_raw))


@contextlib.contextmanager
def open_prediction(y: ImageTensor, method: str, s: int, external_path=None):
    """Yield the prediction of ``y`` enlarged ``s`` times by ``method`` as a
    stripe source, for ``linop.reconstruct`` and ``predict_raw``.

    ``external`` opens its file with ``tensor.open_stripes`` and refuses a
    shape other than ``y``'s times ``s`` before it reads a PDT1's samples;
    the others enlarge ``y`` a stripe of rows at a time, ``nearest`` as
    ``PoolingOp``'s ``A+ y``, the others by ``_Enlarged``.
    """
    if method not in PREDICTORS:
        raise ValueError(f"predictor must be one of {PREDICTORS}, got {method!r}")
    if s < 1:
        raise ValueError(f"scale must be a positive integer, got {s}")
    if method != "external":
        yield PoolingOp.for_measurement(y, s)._lift_source(y.data) if method == "nearest" else _Enlarged(y, method, s)
        return
    if external_path is None:
        raise ValueError("external predictor needs a file path")
    with open_stripes(external_path) as x_raw:
        expected = (y.channels, s * y.height, s * y.width)
        if x_raw.shape != expected:
            raise ValueError(f"external prediction shape {x_raw.shape}, expected {expected}")
        yield x_raw


class _Enlarged:
    """``y`` enlarged ``s`` times by the bilinear or bicubic kernel, a stripe
    source made one stripe of rows at a time.

    Each channel's horizontal pass runs once on its low-resolution rows,
    into one ``_intermediate`` plane between halo rows that copy its edge
    rows; for each stripe, the vertical pass windows that plane in place,
    at its odd-line stride, over the low-resolution rows the stripe
    overlaps, and the stripe is sliced from their enlargement.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, y: ImageTensor, method: str, s: int):
        self._y, self._method, self._s = y, method, s
        self.shape = (y.channels, s * y.height, s * y.width)

    def stripes(self, rows: int):
        s, (_, height, width) = self._s, self._y.shape
        # A stripe overlaps ceil(rows / s) low-resolution rows, one more if it may start inside one.
        buf = np.empty((min(height, -(-rows // s) + bool(rows % s)), s, width * s))
        first, weights = _phase_weights(ResampleSpec(self._method, False, s, "up"))
        before, taps = max(0, -first), len(weights)
        mid = _intermediate(before + height + max(0, first + taps - 1), width * s)
        windows = sliding_window_view(mid, taps, axis=0)[before + first : before + first + height]
        for plane in self._y.data:
            _apply_phases(_windows(plane, 1, first, taps, 1), weights, 1, mid[before : before + height])
            mid[:before] = mid[before]  # the halo's edge rows, the clamp, as in ``_windows``
            mid[before + height :] = mid[before + height - 1]
            for r0 in range(0, s * height, rows):
                q0, q1 = r0 // s, min(height, -(-(r0 + rows) // s))
                out = buf[: q1 - q0].reshape(-1, width * s)
                _apply_phases(windows[q0:q1], weights, 0, out)
                yield out[r0 - s * q0 :][:rows]
