"""Extension operators: per-pixel channel mean (gray observation of a
color image) and block compressed sensing with orthonormal sampling rows.

Both take ``verify`` unchanged from ``LinearOperator`` and override
``combine`` with a kernel that gives the generic combine's bytes, errors
and check order in one output buffer: the channel mean replicates by
broadcasting, and block sensing works in block layout with the same
BLAS products on the same operand layouts as ``cs_measure`` and
``cs_pinv``.  ``generic_pd`` is the function spelling of ``op.combine``.

Block sensing costs one reordering copy and one BLAS matrix product per
image channel in each direction, so ``cs_measure`` and ``cs_pinv`` run
at a small multiple of a memory copy.  Reruns at one BLAS thread count
give the same bytes; other thread counts usually do too, but that is not
promised (see ``cs_measure``).

``cs_stream_measure``, ``cs_stream_pinv`` and ``cs_stream_pd`` give the
bytes, records and errors of ``cs_measure``, ``cs_pinv`` and
``combine`` followed by ``save_tensor`` and ``verify``, without the
image array: an input image is read one stripe of whole block rows at a
time (``tensor._stripes``, from an array or a ``RawReader``) straight
into block layout, and an output image is unblocked one stripe at a
time into the writer ``tensor._open_writers`` gives its file, so the
block buffer is the only image-sized array besides the temporaries of
the products.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .linop import LinearOperator, svd
from .metrics import ConsistencyReport, compare
from .rng import Stream
from .tensor import (
    ImageTensor,
    _band_rows,
    _check_finite,
    _open_writers,
    _read_payload,
    _read_through,
    _stripes,
    _write_atomic,
    check_destination,
    save_tensor,
)

SENSE_MAGIC = b"PDM1"
_SENSE_HEADER = struct.Struct("<4sIIQ")


def _channel_mean(a: np.ndarray) -> np.ndarray:
    # Anchored on channel 0 so equal channels average to themselves exactly.
    # The residuals are summed from zero one channel at a time, the order
    # and result of ``(a - first).sum(axis=0)``, without its all-channel
    # temporary.
    first = a[:1]
    total = np.zeros_like(first)
    residual = np.empty_like(first)
    for k in range(1, a.shape[0]):
        total += np.subtract(a[k : k + 1], first, out=residual)
    total /= a.shape[0]
    total += first
    return total


def color_to_gray(x: ImageTensor) -> ImageTensor:
    """Per-pixel mean of the three channels."""
    if x.channels != 3:
        raise ValueError(f"expected a 3-channel image, got {x.channels}")
    return ImageTensor(_channel_mean(x.data))


def gray_to_color(g: ImageTensor, adjoint: bool = False) -> ImageTensor:
    """Replicate a gray image into all three channels.

    Replication is the true pseudo-inverse of the channel mean, so
    ``color_to_gray(gray_to_color(g))`` returns ``g`` exactly.  With
    ``adjoint=True`` the channels carry g/3 instead (the transpose of the
    forward map); that variant is provided only for comparison and is not
    a pseudo-inverse, so it does not preserve the round trip.
    """
    if g.channels != 1:
        raise ValueError(f"expected a 1-channel image, got {g.channels}")
    data = np.repeat(g.data, 3, axis=0)
    if adjoint:
        data = data / 3.0
    return ImageTensor(data)


class ColorMeanOp(LinearOperator):
    """Channel-mean observation of a fixed-size color image."""

    def __init__(self, height: int, width: int):
        self.in_shape = (3, height, width)
        self.out_shape = (1, height, width)

    def forward(self, x: ImageTensor) -> ImageTensor:
        self._check(x, self.in_shape, "input")
        return color_to_gray(x)

    def pinv(self, y: ImageTensor) -> ImageTensor:
        self._check(y, self.out_shape, "measurement")
        return gray_to_color(y)

    def combine(self, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
        """The generic combine's bytes: ``x_raw`` minus its channel mean, then
        ``y`` added in place, both broadcast over the channels, which
        replicates them exactly as ``pinv`` does."""
        self._check(y, self.out_shape, "measurement")
        self._check_raw(x_raw, (3, *y.shape[1:]))
        out = np.subtract(x_raw.data, _channel_mean(x_raw.data))
        out += y.data
        return ImageTensor(out)


def measurement_count(block: int, ratio: float) -> int:
    """Measurements per block: ceil(ratio * block^2)."""
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"sampling ratio must lie in (0, 1], got {ratio}")
    return int(math.ceil(ratio * block * block))


class BlockSenseOp(LinearOperator):
    """Blockwise sensing with orthonormal rows.

    Each B x B block, flattened row-major, is measured by ``q``
    orthonormal functionals; because the rows are orthonormal their
    transpose is the exact pseudo-inverse.  Measurements are stacked in
    the channel axis as channel_index = image_channel * q + row_index.
    The operator applies to any image whose sides divide by B, so shapes
    stay unbound unless ``bind_shape`` is called.
    """

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

    def forward(self, x: ImageTensor) -> ImageTensor:
        self._check(x, self.in_shape, "input")
        return cs_measure(self, x)

    def pinv(self, y: ImageTensor) -> ImageTensor:
        self._check(y, self.out_shape, "measurement")
        return cs_pinv(self, y)

    def combine(self, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
        """The generic combine's bytes, computed in block layout.

        One reordering copy of ``x_raw``, ``_combine_blocks`` in place, one
        reordering copy back.
        """
        _, nh, nw = self._combine_checks(y, x_raw)
        blocks = _read_blocks(x_raw.data, self.block)
        _combine_blocks(self.rows, y.data, blocks, nh, nw)
        return ImageTensor(_from_blocks(blocks, nh, nw, self.block))

    def _combine_checks(self, y: ImageTensor, x_raw) -> tuple[int, int, int]:
        """The generic combine's checks, in its order, of ``y`` and anything
        with the ``shape`` of a raw prediction; return ``y``'s image blocks."""
        self._check(y, self.out_shape, "measurement")
        c, nh, nw = _image_blocks(self, y.shape)
        b = self.block
        if x_raw.shape != (c, nh * b, nw * b):
            cs_pinv(self, y)  # the generic combine reports an overflowing A+ y first
            self._check_raw(x_raw, (c, nh * b, nw * b))
        return c, nh, nw


def cs_build(block: int, ratio: float, seed: int = 0) -> BlockSenseOp:
    """Construct a block sensing operator from a seeded Gaussian matrix.

    The rows are the first q rows of U @ V.T (the orthogonal polar factor)
    from the SVD of a B^2 x B^2 standard-normal matrix drawn from the
    portable SplitMix64 stream (row-major fill).  A given (block, ratio,
    seed) rebuilds the same rows on one machine, but LAPACK, BLAS and
    numpy's vectorized ``log``/``sin``/``cos`` may differ in the last bits
    between machines (and, from block 24, between BLAS thread counts); the
    saved PDM1 file, not the seed, is the portable identity of an operator.
    """
    q = measurement_count(block, ratio)
    n = block * block
    gauss = Stream(seed).gaussian((n, n))
    factors = svd(gauss)
    basis = factors.u @ factors.v.T
    return BlockSenseOp(block=block, q=q, seed=seed, ratio=float(ratio), rows=basis[:q])


def cs_measure(op: BlockSenseOp, x: ImageTensor) -> ImageTensor:
    """Measure every block of every channel with the sampling rows.

    One reordering copy lays each channel out one block per row, and one
    BLAS product per channel (a stacked ``matmul``) applies the transposed
    rows; a strided copy then moves the ``(blocks, q)`` result into the
    ``channel * q + row`` layout of a fresh output array.

    The block axis is the product's rows because the other orientation
    made the last bit follow the BLAS thread count at several block sizes
    from 4 to 16.  This one gave the same bytes at 1 and 2 OpenBLAS
    threads at blocks 4 to 16, 24 and 32 on 3 x 240² to 3 x 1440² images,
    but not at block 20, so the thread count is not promised; reruns at
    one count are.
    """
    nh, nw = _require_blocks(x.height, x.width, op.block)
    return ImageTensor(_measure_blocks(op.rows, _read_blocks(x.data, op.block), nh, nw))


def cs_pinv(op: BlockSenseOp, m: ImageTensor) -> ImageTensor:
    """Back-project measurements through the transposed rows.

    One BLAS product per channel maps the measurements, viewed one block
    per row, through the rows; as in ``cs_measure`` the block axis stays
    the product's rows (the same bytes at 1 and 2 OpenBLAS threads at every
    block size tried, 4 to 32).  One strided assignment writes the blocks
    into a fresh ``(c, h, w)`` array.
    """
    _, nh, nw = _image_blocks(op, m.shape)
    return ImageTensor(_from_blocks(_back_project(op.rows, m.data), nh, nw, op.block))


def cs_stream_measure(op: BlockSenseOp, x, path: str | Path) -> None:
    """Write ``cs_measure`` of the image source ``x`` to ``path``, in the
    format its name picks (see ``tensor.save_tensor``).

    ``x`` is an array or a ``RawReader`` (see ``tensor.open_stripes``); its
    stripes are copied straight into block layout, with no image array.  A
    source whose sides do not divide by the block is read through before
    it is refused, so its own faults come first, as when it is loaded whole.
    """
    _, h, w = x.shape
    if h % op.block or w % op.block:
        _read_through(x)
    nh, nw = _require_blocks(h, w, op.block)
    # The product of ``_measure_blocks``, spelled out so that the block
    # buffer is freed before the measurement layout is allocated.
    per_block = np.matmul(_read_blocks(x, op.block), op.rows.T)
    save_tensor(ImageTensor(_stack_measurements(per_block, nh, nw)), path)


def cs_stream_pinv(op: BlockSenseOp, m: ImageTensor, path: str | Path) -> None:
    """Write ``cs_pinv(op, m)`` to ``path``, in the format its name picks,
    unblocking the back-projected blocks one stripe at a time into the
    file's writer, with no image array."""
    c, nh, nw = _image_blocks(op, m.shape)
    b = op.block
    blocks = _back_project(op.rows, m.data)
    _check_finite(blocks)
    with _open_writers((c, nh * b, nw * b), path) as (writer,):
        _write_blocks(blocks, nh, nw, b, writer)


def cs_stream_pd(op: BlockSenseOp, y: ImageTensor, x_raw, path: str | Path) -> ConsistencyReport:
    """Write ``op.combine(y, x_raw)`` to ``path``, in the format its name
    picks, and return ``op.verify`` of what the file holds.

    The raw prediction source ``x_raw`` (an array or a ``RawReader``, see
    ``tensor.open_stripes``) is read first, straight into block layout; one
    that does not fit ``y`` is read through instead, so its own faults come
    first.  Then the destination is checked and the combine makes its
    checks, in the order of the in-memory path.  The combine runs in place
    in the block buffer, which is unblocked one stripe at a time into the
    file's writer; a PNG's quantized stripes are put back, and the record
    is measured from the buffer, so the output gets no second reordering
    copy.  An error at any point, a non-finite record included, leaves the
    old file as it was.
    """
    cq, nh, nw = y.shape
    b = op.block
    fits = cq % op.q == 0 and x_raw.shape == (cq // op.q, nh * b, nw * b)
    blocks = _read_blocks(x_raw, b) if fits else _read_through(x_raw)
    check_destination(path)
    op._combine_checks(y, x_raw)  # raises if the prediction did not fit
    _combine_blocks(op.rows, y.data, blocks, nh, nw)
    _check_finite(blocks)
    with _open_writers(x_raw.shape, path) as (writer,):
        _write_blocks(blocks, nh, nw, b, writer)
        forward = ImageTensor(_measure_blocks(op.rows, blocks, nh, nw))
    return compare(y, forward)


# Array kernels shared by ``cs_measure``, ``cs_pinv``, ``BlockSenseOp.combine``
# and the streamed actions, so all of them make the same BLAS calls on the
# same operand layouts.  Blocks are laid out (channels, blocks, B^2), one
# row-major block per row; measurements (channels * q, nh, nw).


def _require_blocks(h: int, w: int, b: int) -> tuple[int, int]:
    """Block rows and columns of an h x w image; raise unless b divides both."""
    if h % b or w % b:
        raise ValueError(f"image size {h}x{w} is not divisible by block {b}")
    return h // b, w // b


def _image_blocks(op: BlockSenseOp, measured: tuple[int, int, int]) -> tuple[int, int, int]:
    """(image channels, block rows, block columns) of a measurement shape."""
    cq, nh, nw = measured
    if cq % op.q:
        raise ValueError(f"measurement channels {cq} are not a multiple of q={op.q}")
    return cq // op.q, nh, nw


def _from_blocks(blocks: np.ndarray, nh: int, nw: int, b: int) -> np.ndarray:
    c = blocks.shape[0]
    out = np.empty((c, nh * b, nw * b))
    np.copyto(out.reshape(c, nh, b, nw, b), blocks.reshape(c, nh, nw, b, b).transpose(0, 1, 3, 2, 4))
    return out


def _read_blocks(src, b: int) -> np.ndarray:
    """The blocks of the array or stripe source ``src`` (see ``tensor._stripes``),
    whose sides divide by ``b``: each stripe of whole block rows is copied
    straight into its blocks."""
    c, h, w = src.shape
    nh, nw = h // b, w // b
    blocks = np.empty((c, nh, nw, b, b))
    for rows, ch, band in _stripes(src, b):
        np.copyto(blocks[ch, band], rows.reshape(-1, b, nw, b).transpose(0, 2, 1, 3))
    return blocks.reshape(c, nh * nw, b * b)


def _write_blocks(blocks: np.ndarray, nh: int, nw: int, b: int, writer) -> None:
    """Hand the image of ``blocks`` to ``writer`` (see
    ``tensor._open_writers``) one stripe of whole block rows at a time, in
    planar order, and put back into ``blocks`` what the file holds where it
    differs: a PNG's quantized stripe."""
    c = blocks.shape[0]
    tiles = blocks.reshape(c, nh, nw, b, b).transpose(0, 1, 3, 2, 4)  # (c, nh, b, nw, b)
    step = _band_rows(nw * b, 8, b)
    buf = np.empty((min(step, nh), b, nw, b))
    for ch in range(c):
        for r0 in range(0, nh, step):
            band = tiles[ch, r0 : r0 + step]
            np.copyto(buf[: len(band)], band)
            rows = buf[: len(band)].reshape(len(band), b, nw * b)
            held = writer.write(rows)
            if held is not rows:
                np.copyto(band, held.reshape(band.shape))


def _combine_blocks(rows: np.ndarray, y: np.ndarray, blocks: np.ndarray, nh: int, nw: int) -> None:
    """The combine in block layout, in place: subtract the range part of
    ``blocks``, then add ``A+ y``."""
    blocks -= _back_project(rows, _measure_blocks(rows, blocks, nh, nw))
    blocks += _back_project(rows, y)


def _measure_blocks(rows: np.ndarray, blocks: np.ndarray, nh: int, nw: int) -> np.ndarray:
    return _stack_measurements(np.matmul(blocks, rows.T), nh, nw)


def _stack_measurements(per_block: np.ndarray, nh: int, nw: int) -> np.ndarray:
    # The (c, blocks, q) products in the channel * q + row layout of a fresh array.
    c, _, q = per_block.shape
    out = np.empty((c * q, nh, nw))
    np.copyto(out.reshape(c, q, nh * nw), per_block.transpose(0, 2, 1))
    return out


def _back_project(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    cq, nh, nw = m.shape
    q = rows.shape[0]
    return np.matmul(m.reshape(cq // q, q, nh * nw).transpose(0, 2, 1), rows)


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
