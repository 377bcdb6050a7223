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

Both kernels walk the image in stripes of whole block rows of about
512 KiB, so that a stripe, its output and the temporaries fit a 2 MiB L2
cache, and work on whole image rows, so every numpy step runs over a
full row.  A block's mean is built from elementwise operations only, in
a fixed order, so it does not depend on how the image is striped:
``pool_down`` and ``pd_combine`` agree bit for bit.  Both keep the input
dtype.
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


_STRIPE_BYTES = 1 << 19


def _stripes(a: np.ndarray, s: int):
    """(channel, block-row slice) pieces of ``a`` of about ``_STRIPE_BYTES`` each."""
    channels, height, width = a.shape
    step = max(1, _STRIPE_BYTES // (s * width * a.itemsize))
    for ch in range(channels):
        for r0 in range(0, height // s, step):
            yield ch, slice(r0, r0 + step)


def _band_mean(rows: np.ndarray, s: int) -> np.ndarray:
    """Means of the s x s blocks of ``rows``, k block rows shaped (k, s, width).

    Anchoring on each block's first sample makes constant blocks average
    exactly, which is what keeps down(up(y)) bit-identical to y.  The
    residuals are summed one block row at a time, then across the s
    columns of each block.
    """
    first = rows[:, 0, ::s]
    anchor = np.repeat(first, s, axis=-1)
    acc = rows[:, 0] - anchor
    resid = np.empty_like(acc)
    for r in range(1, s):
        acc += np.subtract(rows[:, r], anchor, out=resid)
    columns = acc.reshape(len(rows), -1, s)
    total = columns[..., 0].copy()
    for k in range(1, s):
        total += columns[..., k]
    total /= s * s
    total += first
    return total


def _block_mean(a: np.ndarray, s: int) -> np.ndarray:
    """Mean over non-overlapping s x s blocks, dtype preserving."""
    if s == 1:
        return a.copy()
    channels, height, width = a.shape
    rows = a.reshape(channels, height // s, s, width)
    out = np.empty((channels, height // s, width // s), a.dtype)
    for ch, band in _stripes(a, s):
        out[ch, band] = _band_mean(rows[ch, band], s)
    return out


def _replicate(a: np.ndarray, s: int) -> np.ndarray:
    if s == 1:
        return a.copy()
    # The output is allocated first, so a size that cannot be held fails
    # before any intermediate is filled.
    channels, height, width = a.shape
    out = np.empty((channels, height * s, width * s), a.dtype)
    np.copyto(out.reshape(channels, height, s, width * s), np.repeat(a, s, axis=2)[:, :, None])
    return out


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
    LinearOperator._check_raw(x_raw, (y.channels, s * y.height, s * y.width))
    return ImageTensor(_pd_combine_arr(y.data, x_raw.data, s))


def _pd_combine_arr(y: np.ndarray, x_raw: np.ndarray, s: int) -> np.ndarray:
    # Computes (x_raw - replicate(block_mean(x_raw))) + replicate(y), stripe by
    # stripe, each block-mean row and y row widened once to the image width.
    # Addition commutes exactly, so this is bit-identical to the generic combine.
    if s == 1:
        return (x_raw - x_raw) + y
    channels, height, width = x_raw.shape
    rows = x_raw.reshape(channels, height // s, s, width)
    out = np.empty_like(x_raw)
    out_rows = out.reshape(rows.shape)
    for ch, band in _stripes(x_raw, s):
        means = np.repeat(_band_mean(rows[ch, band], s), s, axis=-1)
        o = out_rows[ch, band]
        np.subtract(rows[ch, band], means[:, None], out=o)
        o += np.repeat(y[ch, band], s, axis=-1)[:, None]
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
