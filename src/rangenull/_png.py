"""Minimal PNG codec for grayscale and RGB images.

Decoding accepts non-interlaced PNGs with bit depth 8 or 16 and color type
0 (grayscale) or 2 (RGB).  Anything else, including alpha and palette
images, is rejected so a caller error is never hidden by silent channel
dropping.  Encoding always emits 8-bit output, filter type 0 on
every scanline, and a fixed zlib level, so the bytes written for a given
image are identical from run to run.

The pixel data is inflated chunk by chunk, never past one byte more than
the header's dimensions call for, so a small file that would inflate to
gigabytes is rejected after allocating only what it declares.  The five
scanline filters are undone along anti-diagonals of the image: every
pixel on one diagonal depends only on pixels of the two before it, so the
decode is height + width - 1 numpy steps whatever filter each row uses,
with cost and memory linear in the pixel count.
"""

from __future__ import annotations

import functools
import struct
import sys
import zlib

import numpy as np
from numpy.lib.stride_tricks import as_strided

SIGNATURE = b"\x89PNG\r\n\x1a\n"

_ZLIB_LEVEL = 6


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode(samples: np.ndarray) -> bytes:
    """Encode an (height, width, channels) uint8 array as PNG bytes."""
    if samples.dtype != np.uint8 or samples.ndim != 3:
        raise ValueError("encode expects an (h, w, c) uint8 array")
    height, width, channels = samples.shape
    if channels == 1:
        color_type = 0
    elif channels == 3:
        color_type = 2
    else:
        raise ValueError(f"PNG output supports 1 or 3 channels, got {channels}")
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    raw = np.zeros((height, 1 + width * channels), dtype=np.uint8)  # column 0: filter None
    raw[:, 1:] = samples.reshape(height, -1)
    idat = zlib.compress(raw, _ZLIB_LEVEL)
    return b"".join(
        [SIGNATURE, _chunk(b"IHDR", ihdr), _chunk(b"IDAT", idat), _chunk(b"IEND", b"")]
    )


def decode(data: bytes) -> tuple[np.ndarray, int]:
    """Decode PNG bytes into an (height, width, channels) array plus bit depth."""
    if data[:8] != SIGNATURE:
        raise ValueError("not a PNG file (bad signature)")
    pos = 8
    header = None
    idat = []
    seen_end = False
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if len(payload) != length or pos + 12 + length > len(data):
            raise ValueError("truncated PNG chunk")
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if crc != zlib.crc32(tag + payload) & 0xFFFFFFFF:
            raise ValueError(f"PNG chunk {tag!r} fails its CRC check")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ValueError(f"PNG IHDR chunk is {length} bytes, expected 13")
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            seen_end = True
            break
    if header is None or not seen_end:
        raise ValueError("PNG is missing IHDR or IEND")
    width, height, depth, color_type, compression, filter_method, interlace = header
    if color_type in (4, 6):
        raise ValueError("PNG alpha channels are not supported")
    if color_type == 3:
        raise ValueError("palette PNGs are not supported")
    if color_type not in (0, 2):
        raise ValueError(f"unsupported PNG color type {color_type}")
    if depth not in (8, 16):
        raise ValueError(f"unsupported PNG bit depth {depth}")
    if compression != 0 or filter_method != 0:
        raise ValueError("unsupported PNG compression or filter method")
    if interlace != 0:
        raise ValueError("interlaced PNGs are not supported")
    if width < 1 or height < 1:
        raise ValueError("empty PNG image")
    channels = 1 if color_type == 0 else 3
    bpp = channels * (depth // 8)
    raw = _inflate(idat, height * (width * bpp + 1))
    samples = _unfilter(raw, height, width, bpp)
    if depth == 16:
        samples = samples.view(">u2")
    return samples.reshape(height, width, channels), depth


def _inflate(chunks: list[bytes], expected: int) -> np.ndarray:
    """Inflate the IDAT stream into exactly ``expected`` bytes.

    Each chunk may add at most one byte more than is still missing, so a
    stream that inflates far beyond its declared size is stopped after
    ``expected + 1`` bytes, and memory follows the bytes actually present.
    """
    inflater = zlib.decompressobj()
    parts = []
    missing = expected
    try:
        for chunk in chunks:
            part = inflater.decompress(chunk, min(missing + 1, sys.maxsize))
            missing -= len(part)
            if missing < 0:
                break
            parts.append(part)
    except zlib.error as exc:
        raise ValueError(f"PNG pixel data is not valid zlib data ({exc})") from exc
    if missing != 0:
        raise ValueError("PNG pixel data has the wrong length")
    if not inflater.eof:
        raise ValueError("PNG pixel data is not valid zlib data (truncated stream)")
    return np.frombuffer(b"".join(parts), dtype=np.uint8)


def _unfilter(raw: np.ndarray, height: int, width: int, bpp: int) -> np.ndarray:
    """Undo the scanline filters: ``height`` rows of one filter byte plus
    ``width * bpp`` filtered bytes in, the (height, width, bpp) uint8 samples out.

    Byte lane k of pixel (r, j) depends only on lane k of pixels (r, j-1),
    (r-1, j) and (r-1, j-1), so every pixel on one anti-diagonal r + j = d
    is decoded in one numpy step over all its lanes, each row through its
    own filter type.  The buffers are stored skewed, ``[d, s]`` with s the
    index along the shorter image side, so a diagonal and its three
    neighbours are contiguous slices and the buffers hold
    (height + width) * min(height, width) * bpp samples.
    """
    rows = raw.reshape(height, 1 + width * bpp)
    ftype = rows[:, 0]
    if ftype.max() > 4:
        raise ValueError(f"unknown PNG filter type {ftype[np.argmax(ftype > 4)]}")
    filtered = rows[:, 1:].reshape(height, width, bpp)
    # In (s, l) coordinates s runs along the short side and l along the long one.
    wide = height <= width
    short, long = min(height, width), max(height, width)
    if wide:
        src, types = filtered, np.broadcast_to(ftype[:, None, None], (short, long, 1))
    else:
        src, types = filtered.transpose(1, 0, 2), np.broadcast_to(ftype[None, :, None], (short, long, 1))
    diagonals = height + width - 1
    filt = np.empty((diagonals, short, bpp), np.int16)
    _skew(filt)[...] = src
    kind = np.empty((diagonals, short, 1), np.uint8)
    _skew(kind)[...] = types
    # The rows crossing diagonal d are one contiguous range, so prefix counts
    # give the filter types each step has to evaluate.
    d = np.arange(diagonals)
    lo, hi = np.maximum(d - long + 1, 0), np.minimum(d + 1, short)
    first, stop = (lo, hi) if wide else (d - hi + 1, d - lo + 1)
    counts = np.zeros((height + 1, 5), np.int64)
    np.cumsum(ftype[:, None] == np.arange(5), axis=0, out=counts[1:])
    present = counts[stop] > counts[first]
    # Two leading diagonals and one leading lane of zeros are the image border.
    out = np.zeros((diagonals + 2, short + 1, bpp), np.int16)
    for d in range(diagonals):
        lo, hi = max(0, d - long + 1), min(short, d + 1)
        kinds = np.flatnonzero(present[d])
        same, prev = out[d + 1, lo + 1 : hi + 1], out[d + 1, lo:hi]
        left, up = (same, prev) if wide else (prev, same)
        upleft = out[d, lo:hi]
        if len(kinds) == 1:
            pred = _predict(kinds[0], left, up, upleft)
        else:
            t = kind[d, lo:hi]
            pred = np.zeros_like(left)
            for k in kinds:
                np.copyto(pred, _predict(k, left, up, upleft), where=t == k)
        np.bitwise_and(filt[d, lo:hi] + pred, 0xFF, out=out[d + 2, lo + 1 : hi + 1])
    samples = np.empty((height, width, bpp), np.uint8)
    (samples if wide else samples.transpose(1, 0, 2))[...] = _skew(out[2:, 1:])
    return samples


def _predict(ftype: int, left: np.ndarray, up: np.ndarray, upleft: np.ndarray) -> np.ndarray | int:
    """The prediction of one filter type (None, Sub, Up, Average, Paeth) from the decoded neighbours."""
    if ftype == 1:
        return left
    if ftype == 2:
        return up
    if ftype == 3:
        return (left + up) >> 1
    if ftype == 4:
        key = np.multiply(left - upleft, 511, dtype=np.int32)
        key += up - upleft
        return _paeth_offsets().take(key) + upleft
    return 0


@functools.cache
def _paeth_offsets() -> np.ndarray:
    """Paeth prediction minus upleft, looked up by ``511 x + y``.

    With x = left - upleft and y = up - upleft, the Paeth distances are
    |y| to left, |x| to up and |x + y| to upleft, so the choice depends on
    (x, y) alone: the prediction is upleft plus x, y or 0.  Both lie in
    [-255, 255], so every key in [-130560, 130560] is one (x, y) pair, and
    a negative key indexes the table from its end.
    """
    key = np.arange(511 * 511)
    key[key > 130560] -= 511 * 511
    x = (key + 255) // 511
    y = key - 511 * x
    to_left, to_up, to_upleft = np.abs(y), np.abs(x), np.abs(x + y)
    offset = np.where((to_left <= to_up) & (to_left <= to_upleft), x, np.where(to_up <= to_upleft, y, 0))
    offset = offset.astype(np.int16)
    offset.setflags(write=False)  # shared by every caller through the cache
    return offset


def _skew(buf: np.ndarray) -> np.ndarray:
    """View a (diagonals, short, ...) buffer as (short, long, ...): ``view[s, l] is buf[s + l, s]``."""
    diagonals, short = buf.shape[:2]
    step, lane = buf.strides[:2]
    return as_strided(
        buf,
        shape=(short, diagonals - short + 1) + buf.shape[2:],
        strides=(step + lane, step) + buf.strides[2:],
    )
