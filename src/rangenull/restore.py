"""Extension operators: per-pixel channel mean (gray observation of a
color image) and block compressed sensing with orthonormal sampling rows.

Both are walk operators (``linop._WalkOperator``): ``forward`` (which
``color_to_gray`` and ``cs_measure`` call) is ``linop.measure``, ``pinv``
(``gray_to_color``, ``cs_pinv``) is ``linop.lift``, ``combine`` runs the
walk they give ``linop.reconstruct``, with the generic combine's bytes,
errors and check order, and ``verify`` is ``LinearOperator``'s.
``BlockSenseOp`` is a ``linop.BlockOperator`` whose two band kernels
measure (``_forward_band``) and back-project (``_expand``) a whole
channel with one BLAS product and one reordering copy each, and which
derives its combine and ``A+ y`` from them; reruns at one BLAS thread
count give the same bytes (see ``cs_measure``).  The channel mean walks
stripes of rows: ``_channel_mean`` sums the mean holding the sum and
channel 0 (read in place from an array), ``A+ y`` hands ``y``'s rows to
every channel, and ``ColorMeanOp._stream_walk`` subtracts the mean from
each channel and adds that.  Each walk checks finiteness through what it
computes (see ``linop.BlockOperator``): the channel mean through the
mean, the second walk each combined stripe, block sensing's ``A+ y``
each channel.  ``generic_pd`` is the function spelling of ``op.combine``.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .linop import BlockOperator, LinearOperator, _WalkOperator, lift, svd
from .rng import Stream
from .tensor import (
    ImageTensor,
    _check_finite,
    _read_payload,
    _read_through,
    _writable_stripes,
    _write_atomic,
)

SENSE_MAGIC = b"PDM1"
_SENSE_HEADER = struct.Struct("<4sIIQ")


class _ChannelMean:
    """The channel mean of an image of ``shape`` whose stripes of whole rows
    are given to ``add`` in planar order.

    Anchored on channel 0, so that equal channels average to themselves
    exactly: the residuals are summed from zero one channel at a time, the
    order and result of ``first + (a - first).sum(axis=0) / channels``,
    holding channel 0 and the sum, never the image: ``first``, the plane of
    an image held whole, read in place, if given, else a copy ``add`` makes.
    """

    def __init__(self, shape: tuple[int, int, int], first: np.ndarray | None = None):
        channels, height, width = shape
        self._channels = channels
        self._copied = first is None
        self._first = np.empty((height, width)) if first is None else first
        self._total = np.zeros((1, height, width))

    def add(self, rows: np.ndarray, ch: int, band: slice, spare: np.ndarray) -> None:
        """Take the (k, width) rows ``band`` of channel ``ch``; ``spare`` is a
        buffer of their shape that the call may overwrite, ``rows`` itself
        included."""
        if ch:
            self._total[0, band] += np.subtract(rows, self._first[band], out=spare)
        elif self._copied:
            self._first[band] = rows

    def mean(self) -> np.ndarray:
        """The (1, height, width) mean, in the array that held the sum; the
        accumulator lets go of both planes."""
        total, first = self._total, self._first
        del self._total, self._first
        total /= self._channels
        total += first
        return total


def _channel_mean(src) -> np.ndarray:
    """The (1, height, width) per-pixel mean of the channels of ``src``, an
    array or a stripe source (see ``tensor._stripes``), walked once."""
    mean = _ChannelMean(src.shape, src[0] if isinstance(src, np.ndarray) else None)
    for rows, spare, ch, band in _writable_stripes(src, 1):
        mean.add(rows[:, 0], ch, band, spare[:, 0])
    return mean.mean()


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
    data = lift(ColorMeanOp.for_measurement(g), g)
    if adjoint:
        data /= 3.0
    return ImageTensor(data)


class ColorMeanOp(_WalkOperator):
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

    def _lift_source(self, y: ImageTensor) -> np.ndarray:
        """``y`` handed to every channel: seen, not copied, as three."""
        self._check(y, self.out_shape, "measurement")
        return np.broadcast_to(y.data, self.in_shape)

    def _check_input(self, x) -> None:
        """Refuse an input of other than three channels, then one of another size."""
        if x.shape[0] != 3:
            raise ValueError(f"expected a 3-channel image, got {x.shape[0]}")
        super()._check_input(x)

    def _forward_walk(self, src) -> np.ndarray:
        """``measure``'s walk: ``_channel_mean``, checked finite, as the samples are."""
        mean = _channel_mean(src)
        _check_finite(mean)
        return mean

    def _read_first(self, y, x_raw) -> np.ndarray | None:
        """The first of ``reconstruct``'s two walks: read ``x_raw`` through
        and, if it fits, return its (height, width) channel mean.  The mean
        is NaN or infinite wherever a sample is; where it is not finite, the
        source is read through again, checked, so that a bad sample is
        refused here and an overflow is left to the second walk."""
        mean = _channel_mean(x_raw)[0] if x_raw.shape == self.in_shape else None
        if mean is None or not np.isfinite(mean).all():
            _read_through(x_raw)
        return mean

    def _stream_walk(self, y: np.ndarray, x_raw, writers: list, mean: np.ndarray, out=None) -> list[np.ndarray]:
        """The second walk: combine each stripe as ``(x - mean) + y`` in place,
        or into ``out`` (``tensor._writable_stripes``), check it finite, hand
        it to each writer in turn, which may quantize it in place, and
        return the checked channel mean of what each file holds.  With no
        writers nothing is checked: ``out`` is made an ``ImageTensor``.

        The last file's mean takes the stripe itself as its spare buffer;
        only with several files is a spare stripe made for the others.  The
        walk holds ``y``, ``mean``, each file's two record planes, a PNG's
        8-bit image and one stripe, or two beside an array.
        """
        forwards = [_ChannelMean(self.in_shape) for _ in writers]
        spare = None
        for rows, held, ch, band in _writable_stripes(x_raw, 1, out=out):
            combined = np.subtract(rows[:, 0], mean[band], out=held[:, 0])
            combined += y[0, band]
            if writers:
                _check_finite(combined)
            if spare is None and len(writers) > 1:
                spare = np.empty_like(combined)  # a channel's first stripe is its largest
            for writer, forward in zip(writers, forwards):
                written = writer.write(combined, combined)
                forward.add(written, ch, band, written if forward is forwards[-1] else spare[: len(written)])
        forwards = [forward.mean() for forward in forwards]
        for forward in forwards:
            _check_finite(forward)
        return forwards


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

    def __init__(self, block: int, q: int, seed: int, ratio: float, rows: np.ndarray):
        rows = np.array(rows, dtype=np.float64)
        if rows.shape != (q, block * block):
            raise ValueError(f"rows must be {(q, block * block)}, got {rows.shape}")
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
        bound.out_shape = (channels * self.q, height // self.block, width // self.block)
        return bound

    def _check_input(self, x) -> None:
        """Refuse an input of another shape than a bound one, then one whose
        sides the block does not divide."""
        super()._check_input(x)
        _require_blocks(*x.shape[1:], self.block)

    def _read_first(self, y, x_raw) -> None:
        """Read ``x_raw`` through unless it fits ``y``, which needs
        ``y``'s channels to be a multiple of ``q``."""
        if y.shape[0] % self.q or x_raw.shape != self._image_shape(y.shape):
            _read_through(x_raw)

    def _combine_checks(self, y: ImageTensor, x_raw) -> None:
        """The generic combine's checks, in its order, of ``y`` and anything
        with the ``shape`` of a raw prediction."""
        shape = self._lift_source(y).shape  # the checks of ``pinv``
        if x_raw.shape != shape:
            cs_pinv(self, y)  # the generic combine reports an overflowing A+ y first
            self._check_raw(x_raw, shape)

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

    def _lift_band(self, y: np.ndarray, out: np.ndarray, scratch) -> None:
        """``A+ y`` of a whole channel with one product (``_expand``), checked
        finite: unlike a mean, it can overflow."""
        super()._lift_band(y, out, scratch)
        _check_finite(out)


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
    ``(c, h, w)`` array: ``linop.lift``, one BLAS product per channel
    (``BlockSenseOp._lift_band``) whose rows are blocks, as in
    ``cs_measure``; that gave the same bytes at 1 and 2 OpenBLAS threads
    at every block size tried, 1 to 32.
    """
    return ImageTensor(lift(op, m))


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
    ``1 <= q <= block^2``, and the payload must hold exactly those rows."""
    with open(path, "rb") as f:
        head = f.read(_SENSE_HEADER.size)
        if len(head) < _SENSE_HEADER.size or head[:4] != SENSE_MAGIC:
            raise ValueError(f"{path}: not a PDM1 operator file (bad magic)")
        _, block, q, seed = _SENSE_HEADER.unpack(head)
        n = block * block
        if block < 1 or not 1 <= q <= n:
            raise ValueError(f"{path}: invalid PDM1 header: block={block}, q={q}")
        rows = _read_payload(f, path, (q, n), f"q={q} rows of block {block}")
    return BlockSenseOp(block=block, q=q, seed=seed, ratio=q / n, rows=rows)


def generic_pd(op: LinearOperator, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
    """Consistent combine for any operator: ``op.combine(y, x_raw)``."""
    return op.combine(y, x_raw)
