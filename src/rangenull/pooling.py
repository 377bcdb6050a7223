"""Block-mean downsampling, replication upsampling, ``PoolingOp``, the
operator built from them, and ``IdentityOperator``, pooling at scale 1.

The two maps form an exact pseudo-inverse pair: downsampling a replicated
image returns the original bit-for-bit (block means are computed relative
to the block's first sample, so a constant block averages to exactly that
constant).  ``PoolingOp`` is a ``linop.BlockOperator`` with one
measurement per block: it gives two band kernels, which take the block
means (``_forward_band``) and widen them into one row of their blocks
(``_expand``), which broadcasts down the block, and inherits the rest:
the measurer, the ``A+`` source (``resample``'s ``nearest`` prediction
too), the combine of ``linop.reconstruct``'s one walk, ``forward``,
``pinv`` (which ``pool_up`` calls), ``combine`` and ``verify``.
At scale 1 both kernels are copies that keep signed zeros, and the
combine is ``(x_raw - x_raw) + y``, the generic combine's bits, so the
identity ``A = I`` runs on these walks as ``IdentityOperator``.
``extract_highfreq`` and ``verify_consistency`` are the scale-argument
spellings of ``null_project`` and ``PoolingOp.verify``.

The kernels work on one stripe of whole block rows, about 1 MiB
(``tensor._pooling_rows``), so every numpy step runs over full image
rows.  Each walk makes their scratch once, in the input's dtype: one
array of three planes (one at scale 1, or for ``_expand`` alone) of a
stripe's block rows' width, into whose first the anchors, the means and
``y`` are widened by strided copies, and whose last keeps the means
where no ``out`` is given.  A block's mean is built from elementwise
operations only, in a fixed order, so it does not depend on how the
image is striped: ``pool_down`` and ``pd_combine`` agree bit for bit.
Both keep the input dtype.

``linop``'s walks run these kernels over an array or any stripe source,
such as a ``RawReader`` or a predictor, and hold the low-resolution
arrays, one stripe and the scratch, never the high-resolution image.
The measurer checks finiteness through the block means, as every
``BlockOperator``'s does: a block's anchored mean is NaN or infinite
wherever a sample of the block is (``inf - inf`` is NaN, and NaN
propagates; scale 1 copies), and so is the combine of the block.
"""

from __future__ import annotations

import numpy as np

from .linop import BlockOperator, null_project
from .metrics import ConsistencyReport
from .tensor import ImageTensor


def _require_divisible(h: int, w: int, s: int) -> None:
    if s < 1:
        raise ValueError(f"scale must be a positive integer, got {s}")
    if h % s or w % s:
        raise ValueError(f"image size {h}x{w} is not divisible by scale {s}")


def _widen(a: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Write each sample of ``a`` ``s`` times along the last axis into
    ``out``, one strided copy per column of a block, and return ``out``."""
    for j in range(s):
        out[..., j::s] = a
    return out


def _band_mean(rows: np.ndarray, s: int, scratch: np.ndarray, out: np.ndarray) -> None:
    """Write the means of the s x s blocks of ``rows``, k block rows shaped
    (k, s, width), into ``out``, shaped (k, width // s), using the first k
    rows of the (3, rows, width) ``scratch``; ``out`` may be in its last
    plane, which is free once the row loop ends.

    Anchoring on each block's first sample makes constant blocks average
    exactly, which is what keeps down(up(y)) bit-identical to y.  The
    residuals are summed one block row at a time, then across the s
    columns of each block.
    """
    k = len(rows)
    anchor, acc, resid = scratch[:, :k]
    first = rows[:, 0, ::s]
    _widen(first, s, anchor)
    np.subtract(rows[:, 0], anchor, out=acc)
    for r in range(1, s):
        acc += np.subtract(rows[:, r], anchor, out=resid)
    columns = acc.reshape(k, -1, s)
    np.add(columns[..., 0], columns[..., 1], out=out)
    for j in range(2, s):
        out += columns[..., j]
    out /= s * s
    out += first


def pool_down(x: ImageTensor, s: int) -> ImageTensor:
    """Average each s x s block into one pixel (hard error if not divisible)."""
    return PoolingOp(s, *x.shape).forward(x)


def pool_up(y: ImageTensor, s: int) -> ImageTensor:
    """Replicate each pixel into an s x s block; pool_down undoes it exactly."""
    return PoolingOp.for_measurement(y, s).pinv(y)


def extract_highfreq(x_raw: ImageTensor, s: int) -> ImageTensor:
    """Remove every block's mean, leaving the part pooling cannot see."""
    return null_project(PoolingOp(s, *x_raw.shape), x_raw)


def pd_combine(y: ImageTensor, x_raw: ImageTensor, s: int) -> ImageTensor:
    """Replicated reference plus the prediction's high-frequency part.

    The output's block means equal ``y`` by construction, so pooling it
    back down reproduces ``y`` to float rounding regardless of ``x_raw``.
    """
    return PoolingOp.for_measurement(y, s).combine(y, x_raw)


def verify_consistency(y: ImageTensor, x_hat, s: int, quantized: bool = False) -> ConsistencyReport:
    """Compare ``y`` against the pooled-down reconstruction ``x_hat``, an
    ``ImageTensor``, an array or a stripe source (see
    ``LinearOperator.verify``).  A scale below 1 is refused first, then a
    shape, before any sample of ``x_hat`` is read."""
    return PoolingOp.for_measurement(y, s).verify(y, x_hat, quantized)


class PoolingOp(BlockOperator):
    """Block-mean downsampler bound to a fixed geometry: a block operator
    whose one measurement per block is the block's mean."""

    q = 1

    def __init__(self, scale: int, channels: int, height: int, width: int):
        _require_divisible(height, width, scale)
        self.scale = self.block = scale
        self.in_shape = (channels, height, width)
        self.out_shape = self._measured_shape(self.in_shape)

    @staticmethod
    def for_measurement(y: ImageTensor, scale: int) -> "PoolingOp":
        """The operator that maps ``scale``-times larger images onto ``y``'s shape."""
        return PoolingOp(scale, y.channels, scale * y.height, scale * y.width)

    def _scratch(self, rows: int, width: int, dtype: np.dtype, forward: bool = True):
        """``_band_mean``'s (3, rows, width) planes, the first of which
        ``_expand`` widens into: only that one for ``_expand`` alone, or at
        scale 1, which copies."""
        return np.empty((3 if forward and self.scale > 1 else 1, rows, width), dtype)

    def _forward_band(self, rows: np.ndarray, scratch, out: np.ndarray | None = None) -> np.ndarray:
        """The (1, k, width // s) block means of ``rows``, in ``out`` if
        given, else in the last scratch plane, at scale 1 the one that
        ``_expand`` copies onto itself.  Scale 1 copies: the anchored mean
        of -0.0 would be +0.0."""
        if out is None:  # contiguous: a strided view made the combine 5-8% slower
            out = scratch[-1].reshape(-1)[: rows.size // self.scale**2].reshape(1, len(rows), -1)
        if self.scale == 1:
            out[0] = rows[:, 0]
        else:
            _band_mean(rows, self.scale, scratch, out[0])
        return out

    def _expand(self, m: np.ndarray, scratch) -> np.ndarray:
        """Each row of ``m`` widened into the first scratch plane, as (k, 1,
        width // s, s) tiles: one row of each block."""
        k = m.shape[1]
        return _widen(m[0], self.scale, scratch[0, :k]).reshape(k, 1, -1, self.scale)


class IdentityOperator(PoolingOp):
    """The identity ``A = I`` on images of ``shape``: pooling at scale 1."""

    def __init__(self, shape: tuple[int, int, int]):
        super().__init__(1, *shape)
