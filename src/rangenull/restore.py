"""Extension operators: per-pixel channel mean (gray observation of a
color image) and block compressed sensing with orthonormal sampling rows.

Each gives ``linop``'s two kernels and inherits the rest: ``forward``
(which ``color_to_gray`` and ``cs_measure`` call) is ``linop.measure``,
``pinv`` (which ``gray_to_color`` and ``cs_pinv`` call) is ``linop.lift``,
and ``combine`` is the one walk of ``linop.reconstruct``.  ``BlockSenseOp``
is a ``linop.BlockOperator`` whose two band kernels measure
(``_forward_band``) and back-project (``_expand``) a whole channel with
one BLAS product and one reordering copy each; its ``A+`` can overflow,
so ``linop``'s lift walk checks each channel it makes.  Reruns at one
BLAS thread count give the same bytes (see ``cs_measure``).  The channel
mean's measurer, ``_ChannelMean``, holds the sum and channel 0, never
the image, and finishes each band's mean as its last channel arrives,
refusing it there if it is not finite; its ``A+`` hands a measurement's
rows to every channel.  So its combine walks the prediction twice: first
for its mean, which is NaN or infinite wherever a sample is, then to
subtract that mean from each channel and add ``y``.  ``generic_pd`` spells ``op.combine``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .linop import BlockOperator, LinearOperator, svd
from .rng import Stream
from .tensor import ImageTensor, _adopt, _check_finite, _read_payload, _write_atomic

SENSE_MAGIC = b"PDM1"
_SENSE_HEADER = struct.Struct("<4sIIQ")


class _ChannelMean:
    """``ColorMeanOp``'s measurer: the channel mean of an image of ``shape``
    whose stripes of whole rows it is given in planar order.

    Anchored on channel 0, so that equal channels average to themselves
    exactly: the residuals are summed from zero one channel at a time, the
    order and result of ``first + (a - first).sum(axis=0) / channels``,
    holding channel 0 and the sum, never the image: ``first``, the plane of
    an image held whole, read in place, if given, else a copy ``add``
    makes.  A residual is taken into the stripe's spare buffer, or, if it
    has none, into one the measurer makes.  A band's sum becomes its mean,
    in place, once its last channel arrives, and is refused there if it
    is not finite.
    """

    def __init__(self, shape: tuple[int, int, int], first: np.ndarray | None = None):
        channels, height, width = shape
        self._channels = channels
        self._copied = first is None
        self._first = np.empty((height, width)) if first is None else first
        self._total = np.zeros((1, height, width))
        self._spare = None

    def add(self, rows: np.ndarray, ch: int, band: slice, spare: np.ndarray | None) -> None:
        """Take the (k, width) rows ``band`` of channel ``ch``; ``spare``, if
        given, is a buffer of their shape that the call may overwrite,
        ``rows`` itself included."""
        if ch:
            if spare is None:
                if self._spare is None:
                    self._spare = np.empty_like(rows)  # a channel's first stripe is its largest
                spare = self._spare[: len(rows)]
            self._total[0, band] += np.subtract(rows, self._first[band], out=spare)
        elif self._copied:
            self._first[band] = rows
        if ch == self._channels - 1:
            mean = self._total[0, band]
            np.add(np.divide(mean, self._channels, out=mean), self._first[band], out=mean)
            if not np.isfinite(mean).all():
                _check_finite(mean)  # raises

    def result(self) -> np.ndarray:
        """The (1, height, width) mean, in the array that held the sum; the
        measurer lets go of channel 0."""
        del self._first, self._spare
        return self._total


def color_to_gray(x: ImageTensor) -> ImageTensor:
    """Per-pixel mean of the three channels."""
    return ColorMeanOp(x.height, x.width).forward(x)


def gray_to_color(g: ImageTensor, adjoint: bool = False) -> ImageTensor:
    """Replicate a gray image into all three channels.

    Replication is the true pseudo-inverse of the channel mean, so
    ``color_to_gray(gray_to_color(g))`` returns ``g`` exactly.  With
    ``adjoint=True`` the channels carry g/3 instead (the transpose of the
    forward map); that variant is provided only for comparison and is not
    a pseudo-inverse, so it does not preserve the round trip.
    """
    return ColorMeanOp.for_measurement(g).pinv(_adopt(g.data / 3.0) if adjoint else g)


class ColorMeanOp(LinearOperator):
    """Channel-mean observation of a fixed-size color image."""

    def __init__(self, height: int, width: int):
        self.in_shape = (3, height, width)
        self.out_shape = (1, height, width)

    @classmethod
    def for_measurement(cls, y: ImageTensor) -> "ColorMeanOp":
        """The operator onto the gray image ``y``, refused unless 1-channel."""
        if y.channels != 1:
            raise ValueError(f"expected a 1-channel image, got {y.channels}")
        return cls(y.height, y.width)

    def _measurer(self, src, scratch) -> _ChannelMean:
        return _ChannelMean(src.shape, src[0] if isinstance(src, np.ndarray) else None)

    def _lift_source(self, m: np.ndarray) -> np.ndarray:
        """``m`` handed to every channel: seen, not copied, as three."""
        self._check(m, self.out_shape, "measurement")
        return np.broadcast_to(m, self.in_shape)

    def _check_input(self, x) -> None:
        """Refuse an input of other than three channels, then one of another size."""
        if x.shape[0] != 3:
            raise ValueError(f"expected a 3-channel image, got {x.shape[0]}")
        super()._check_input(x)


def measurement_count(block: int, ratio: float) -> int:
    """Measurements per block: ceil(ratio * block^2)."""
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"sampling ratio must lie in (0, 1], got {ratio}")
    return int(math.ceil(ratio * block * block))


class BlockSenseOp(BlockOperator):
    """Blockwise sensing with orthonormal rows.

    Each B x B block, flattened row-major, is measured by ``q``
    orthonormal functionals; because the rows are orthonormal their
    transpose is the exact pseudo-inverse.  Measurements are stacked in
    the channel axis as channel_index = image_channel * q + row_index.
    The operator applies to any image whose sides divide by B, so shapes
    stay unbound unless ``bind_shape`` is called.

    The kernels take whole channels, so that each channel is measured and
    back-projected in one BLAS product whatever the image's shape and the
    stripe size: a product's last bit can follow how many blocks it spans
    (OpenBLAS picks its kernel and splits the work among its threads by
    the product's size).
    """

    whole_channels = True
    _lift_may_overflow = True  # unlike a mean, a product of finite samples can overflow

    def __init__(self, block: int, q: int, seed: int, ratio: float, rows: np.ndarray):
        rows = np.array(rows, dtype=np.float64)
        if rows.shape != (q, block * block):
            raise ValueError(f"rows must be {(q, block * block)}, got {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("rows must be finite (no NaN or infinity)")
        rows.setflags(write=False)
        self.block = block
        self.n = block * block
        self.q = q
        self.seed = seed
        self.ratio = ratio
        self.rows = rows

    def bind_shape(self, channels: int, height: int, width: int) -> "BlockSenseOp":
        """Copy with shapes fixed so shape-dependent diagnostics can run."""
        _require_blocks(height, width, self.block)
        bound = BlockSenseOp(self.block, self.q, self.seed, self.ratio, self.rows)
        bound.in_shape = (channels, height, width)
        bound.out_shape = bound._measured_shape(bound.in_shape)
        return bound

    def _check_input(self, x) -> None:
        """Refuse an input of another shape than a bound one, then one whose
        sides the block does not divide."""
        super()._check_input(x)
        _require_blocks(*x.shape[1:], self.block)

    def _per_block(self, rows: np.ndarray) -> np.ndarray:
        """The (blocks, q) measurements of ``rows``: one reordering copy lays
        the blocks out one per row, and one BLAS product applies the
        transposed rows."""
        k, b, w = rows.shape
        return np.matmul(rows.reshape(k, b, w // b, b).transpose(0, 2, 1, 3).reshape(-1, b * b), self.rows.T)

    def _forward_band(self, rows: np.ndarray, scratch, out: np.ndarray | None = None) -> np.ndarray:
        """The (q, k, nw) measurements of the blocks of ``rows``, by one
        strided copy into ``out``, or else into a fresh C-contiguous array,
        the layout of a measurement's slice ``y``, so that ``_expand`` runs
        the same product on both; the product is freed on return."""
        per_block = self._per_block(rows)
        if out is None:
            return np.ascontiguousarray(per_block.T).reshape(self.q, len(rows), -1)
        np.copyto(out, per_block.reshape(len(rows), -1, self.q).transpose(2, 0, 1))
        return out

    def _expand(self, m: np.ndarray, scratch) -> np.ndarray:
        """``A+ m`` for the C-contiguous measurements ``m`` of k block rows,
        shaped (q, k, nw): one BLAS product of ``m``, viewed one block per
        row, by the rows, returned as a (k, block, nw, block) view of image
        rows."""
        q, k, nw = m.shape
        b = self.block
        return np.matmul(m.reshape(q, k * nw).T, self.rows).reshape(k, nw, b, b).transpose(0, 2, 1, 3)


def cs_build(block: int, ratio: float, seed: int = 0) -> BlockSenseOp:
    """Construct a block sensing operator from a seeded Gaussian matrix.

    The rows are the first q rows of U @ V.T (the orthogonal polar factor)
    from the SVD of a B^2 x B^2 standard-normal matrix drawn from the
    portable SplitMix64 stream (row-major fill).  A given (block, ratio,
    seed) rebuilds the same rows on one machine, but LAPACK, BLAS and
    numpy's vectorized ``log``/``sin``/``cos`` may differ in the last bits
    between machines (and, from block 24, between BLAS thread counts); the
    saved PDM1 file, not the seed, is the portable identity of an operator.
    The operator keeps the seed modulo 2**64, as its file does.
    """
    seed &= 0xFFFFFFFFFFFFFFFF  # as the stream and the PDM1 file hold it
    q = measurement_count(block, ratio)
    n = block * block
    gauss = Stream(seed).gaussian((n, n))
    factors = svd(gauss)
    basis = factors.u @ factors.v.T
    return BlockSenseOp(block=block, q=q, seed=seed, ratio=float(ratio), rows=basis[:q])


def cs_measure(op: BlockSenseOp, x: ImageTensor) -> ImageTensor:
    """Measure every block of every channel with the sampling rows, one
    BLAS product per channel (``BlockSenseOp._forward_band``).

    The block axis is the product's rows because the other orientation
    made the last bit follow the BLAS thread count at several block sizes
    from 4 to 16.  With the rows held fixed, this one gave the same bytes
    at 1 and 2 OpenBLAS threads at blocks 1 to 16, 24 and 32 on 3 x 240²
    to 3 x 1440² images, but not at block 20, so the thread count is not
    promised; reruns at one count are.
    """
    return op.forward(x)


def cs_pinv(op: BlockSenseOp, m: ImageTensor) -> ImageTensor:
    """Back-project measurements through the transposed rows into a fresh
    ``(c, h, w)`` array: ``op.pinv``, one BLAS product per channel
    (``BlockSenseOp._expand``), checked as it is made, whose rows are
    blocks, as in ``cs_measure``; that gave the same bytes at 1 and 2
    OpenBLAS threads at every block size tried, 1 to 32.
    """
    return op.pinv(m)


def _require_blocks(h: int, w: int, b: int) -> None:
    """Raise unless the block b divides both sides of an h x w image."""
    if h % b or w % b:
        raise ValueError(f"image size {h}x{w} is not divisible by block {b}")


def save_sense_op(op: BlockSenseOp, path: str | Path) -> None:
    """Write the "PDM1" container: magic, u32 block, u32 q, u64 seed, then
    q*B^2 little-endian f64 row weights."""
    header = _SENSE_HEADER.pack(SENSE_MAGIC, op.block, op.q, op.seed & 0xFFFFFFFFFFFFFFFF)
    with _write_atomic(path) as (f,):
        f.write(header)
        f.write(op.rows.astype("<f8", copy=False))


def load_sense_op(path: str | Path) -> BlockSenseOp:
    """Read a PDM1 file; the header must declare ``block >= 1`` and
    ``1 <= q <= block^2``, and the payload must hold exactly those rows,
    all finite."""
    with open(path, "rb") as f:
        head = f.read(_SENSE_HEADER.size)
        if len(head) < _SENSE_HEADER.size or head[:4] != SENSE_MAGIC:
            raise ValueError(f"{path}: not a PDM1 operator file (bad magic)")
        _, block, q, seed = _SENSE_HEADER.unpack(head)
        n = block * block
        if block < 1 or not 1 <= q <= n:
            raise ValueError(f"{path}: invalid PDM1 header: block={block}, q={q}")
        rows = _read_payload(f, path, (q, n), f"q={q} rows of block {block}")
    if not np.isfinite(rows).all():
        raise ValueError(f"{path}: PDM1 row weights must be finite (no NaN or infinity)")
    return BlockSenseOp(block=block, q=q, seed=seed, ratio=q / n, rows=rows)


def generic_pd(op: LinearOperator, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
    """Consistent combine for any operator: ``op.combine(y, x_raw)``."""
    return op.combine(y, x_raw)
