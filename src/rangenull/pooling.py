"""Block-mean downsampling, replication upsampling, and ``PoolingOp``,
the operator built from them.

The two maps form an exact pseudo-inverse pair: downsampling a replicated
image returns the original bit-for-bit (block means are computed relative
to the block's first sample, so a constant block averages to exactly that
constant).  ``PoolingOp`` inherits ``verify`` from ``LinearOperator`` and
overrides only ``combine``, with the fused ``pd_combine`` kernel: it swaps
the block means of any raw prediction for the reference low-resolution
values in one cache-friendly pass, bit-identical to the generic combine.
``extract_highfreq`` and ``verify_consistency`` are the scale-argument
spellings of ``null_project`` and ``PoolingOp.verify``.
"""

from __future__ import annotations

import numpy as np

from .linop import LinearOperator, null_project
from .metrics import ConsistencyReport
from .tensor import ImageTensor


def _require_divisible(h: int, w: int, s: int) -> None:
    if s < 1:
        raise ValueError(f"scale must be a positive integer, got {s}")
    if h % s or w % s:
        raise ValueError(f"image size {h}x{w} is not divisible by scale {s}")


def _block_mean(a: np.ndarray, s: int) -> np.ndarray:
    """Mean over non-overlapping s x s blocks, dtype preserving.

    Anchoring on each block's first sample makes constant blocks average
    exactly, which is what keeps down(up(y)) bit-identical to y.
    """
    if s == 1:
        return a.copy()
    c, h, w = a.shape
    blocks = a.reshape(c, h // s, s, w // s, s)
    first = blocks[:, :, 0, :, 0]
    resid = blocks - first[:, :, None, :, None]
    return first + resid.sum(axis=(2, 4)) / (s * s)


def _replicate(a: np.ndarray, s: int) -> np.ndarray:
    if s == 1:
        return a.copy()
    return np.repeat(np.repeat(a, s, axis=1), s, axis=2)


def pool_down(x: ImageTensor, s: int) -> ImageTensor:
    """Average each s x s block into one pixel (hard error if not divisible)."""
    _require_divisible(x.height, x.width, s)
    return ImageTensor(_block_mean(x.data, s))


def pool_up(y: ImageTensor, s: int) -> ImageTensor:
    """Replicate each pixel into an s x s block; pool_down undoes it exactly."""
    if s < 1:
        raise ValueError(f"scale must be a positive integer, got {s}")
    return ImageTensor(_replicate(y.data, s))


def extract_highfreq(x_raw: ImageTensor, s: int) -> ImageTensor:
    """Remove every block's mean, leaving the part pooling cannot see."""
    return null_project(PoolingOp(s, *x_raw.shape), x_raw)


def pd_combine(y: ImageTensor, x_raw: ImageTensor, s: int) -> ImageTensor:
    """Replicated reference plus the prediction's high-frequency part.

    The output's block means equal ``y`` by construction, so pooling it
    back down reproduces ``y`` to float rounding regardless of ``x_raw``.
    """
    if x_raw.shape != (y.channels, s * y.height, s * y.width):
        raise ValueError(
            f"raw prediction shape {x_raw.shape} does not match "
            f"{(y.channels, s * y.height, s * y.width)} expected for scale {s}"
        )
    return ImageTensor(_pd_combine_arr(y.data, x_raw.data, s))


def _pd_combine_arr(y: np.ndarray, x_raw: np.ndarray, s: int) -> np.ndarray:
    # Processed per channel in stripes of whole block rows so the working
    # set stays cache-resident; block reductions never cross a stripe, so
    # the result is bit-identical to the whole-image expression
    # replicate(y) + (x_raw - replicate(block_mean(x_raw))).
    out = np.empty_like(x_raw)
    channels, height, width = x_raw.shape
    stripe = max(1, 1_048_576 // max(1, s * width * x_raw.itemsize))
    for ch in range(channels):
        for r0 in range(0, height // s, stripe):
            r1 = min(r0 + stripe, height // s)
            yv = y[ch : ch + 1, r0:r1]
            xv = x_raw[ch : ch + 1, r0 * s : r1 * s]
            highfreq = xv - _replicate(_block_mean(xv, s), s)
            out[ch : ch + 1, r0 * s : r1 * s] = _replicate(yv, s) + highfreq
    return out


def verify_consistency(
    y: ImageTensor, x_hat: ImageTensor, s: int, quantized: bool = False
) -> ConsistencyReport:
    """Compare ``y`` against the pooled-down reconstruction (see ``LinearOperator.verify``)."""
    return PoolingOp.for_measurement(y, s).verify(y, x_hat, quantized)


class PoolingOp(LinearOperator):
    """Block-mean downsampler bound to a fixed geometry."""

    def __init__(self, scale: int, channels: int, height: int, width: int):
        _require_divisible(height, width, scale)
        self.scale = scale
        self.in_shape = (channels, height, width)
        self.out_shape = (channels, height // scale, width // scale)

    @classmethod
    def for_measurement(cls, y: ImageTensor, scale: int) -> "PoolingOp":
        """The operator that maps ``scale``-times larger images onto ``y``'s shape."""
        return cls(scale, y.channels, scale * y.height, scale * y.width)

    def forward(self, x: ImageTensor) -> ImageTensor:
        self._check(x, self.in_shape, "input")
        return pool_down(x, self.scale)

    def pinv(self, y: ImageTensor) -> ImageTensor:
        self._check(y, self.out_shape, "measurement")
        return pool_up(y, self.scale)

    def combine(self, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
        """Same result as the generic combine, computed by the fused ``pd_combine`` kernel."""
        self._check(y, self.out_shape, "measurement")
        return pd_combine(y, x_raw, self.scale)
