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
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .linop import LinearOperator, svd
from .rng import Stream
from .tensor import ImageTensor, _read_payload, _write_atomic

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
        if height % self.block or width % self.block:
            raise ValueError(f"image size {height}x{width} is not divisible by block {self.block}")
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

        One reordering copy of ``x_raw``; the range part is subtracted and
        ``A+ y`` added in place, each from the BLAS product ``cs_pinv``
        takes on the operand layout ``cs_measure`` writes; one reordering
        copy back.
        """
        self._check(y, self.out_shape, "measurement")
        c, nh, nw = _image_blocks(self, y.shape)
        b = self.block
        if x_raw.shape != (c, nh * b, nw * b):
            cs_pinv(self, y)  # the generic combine reports an overflowing A+ y first
            self._check_raw(x_raw, (c, nh * b, nw * b))
        blocks = _to_blocks(x_raw.data, b)
        blocks -= _back_project(self.rows, _measure_blocks(self.rows, blocks, nh, nw))
        blocks += _back_project(self.rows, y.data)
        return ImageTensor(_from_blocks(blocks, nh, nw, b))


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
    _, h, w = x.shape
    b = op.block
    if h % b or w % b:
        raise ValueError(f"image size {h}x{w} is not divisible by block {b}")
    return ImageTensor(_measure_blocks(op.rows, _to_blocks(x.data, b), h // b, w // b))


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


# Array kernels shared by ``cs_measure``, ``cs_pinv`` and
# ``BlockSenseOp.combine``, so the three make the same BLAS calls on the
# same operand layouts.  Blocks are laid out (channels, blocks, B^2), one
# row-major block per row; measurements (channels * q, nh, nw).


def _image_blocks(op: BlockSenseOp, measured: tuple[int, int, int]) -> tuple[int, int, int]:
    """(image channels, block rows, block columns) of a measurement shape."""
    cq, nh, nw = measured
    if cq % op.q:
        raise ValueError(f"measurement channels {cq} are not a multiple of q={op.q}")
    return cq // op.q, nh, nw


def _to_blocks(x: np.ndarray, b: int) -> np.ndarray:
    c, h, w = x.shape
    nh, nw = h // b, w // b
    blocks = np.empty((c, nh, nw, b, b))
    np.copyto(blocks, x.reshape(c, nh, b, nw, b).transpose(0, 1, 3, 2, 4))
    return blocks.reshape(c, nh * nw, b * b)


def _from_blocks(blocks: np.ndarray, nh: int, nw: int, b: int) -> np.ndarray:
    c = blocks.shape[0]
    out = np.empty((c, nh * b, nw * b))
    np.copyto(out.reshape(c, nh, b, nw, b), blocks.reshape(c, nh, nw, b, b).transpose(0, 1, 3, 2, 4))
    return out


def _measure_blocks(rows: np.ndarray, blocks: np.ndarray, nh: int, nw: int) -> np.ndarray:
    c, q = blocks.shape[0], rows.shape[0]
    per_block = np.matmul(blocks, rows.T)
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
    _write_atomic(path, header, op.rows.astype("<f8", copy=False))


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
