"""Minimal PNG codec for grayscale and RGB images.

Decoding accepts non-interlaced PNGs with bit depth 8 or 16 and color type
0 (grayscale) or 2 (RGB).  Anything else, including alpha and palette
images, is rejected so a caller error is never hidden by silent channel
dropping.  Encoding always emits 8-bit output, filter type None on the
first scanline and Up on every later one, compressed with fixed zlib
settings (level 6, strategy ``Z_RLE``), so the bytes written for a given
image are identical from run to run.  On smooth images the Up residuals
are small values, which run-length matching compresses two to three
times faster than the default strategy does unfiltered rows, into
smaller files; on noise the file size is unchanged.  The rows are
filtered and compressed one band at a time, so encoding holds the
compressed stream and one band, not the whole filtered image.

Chunks are read and CRC-checked in place, without copying their
payloads.  The pixel data is inflated chunk by chunk, never past one byte
more than the header's dimensions call for, so a small file that would
inflate to gigabytes is rejected after allocating only what it declares.
The five scanline filters are undone along anti-diagonals of the image:
every pixel on one diagonal depends only on pixels of the two before it,
so the decode is height + width - 1 numpy steps, with cost and memory
linear in the pixel count.  Each step decodes one diagonal in place:
it runs the predictor of the image's most common filter type over the
whole diagonal, overwrites the lanes of each other type's rows with
that type's predictor, run over the same diagonal, and adds.  So each
filter type present on a diagonal costs one predictor pass over it.
The first row, whose neighbours above are the zero border, counts as
the common type when it predicts the same (None as Up, Sub as Paeth).
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
# Filtered bytes per ``compressobj.compress`` call; deflate's output does
# not depend on how its input is split.
_BAND_BYTES = 1 << 17

# The filter type that predicts the same as each type on the first row,
# whose up and upleft neighbours are zero: None and Up, Sub and Paeth.
_FIRST_ROW_TWIN = (2, 4, 0, 3, 1)


def _chunk(tag: bytes, *payload: bytes) -> list[bytes]:
    """One chunk as the parts of its bytes, its payload parts left unjoined."""
    crc = zlib.crc32(tag)
    for part in payload:
        crc = zlib.crc32(part, crc)
    return [struct.pack(">I", sum(map(len, payload))) + tag, *payload, struct.pack(">I", crc)]


def encode(samples: np.ndarray) -> list[bytes]:
    """Encode an (height, width, channels) uint8 array as the parts of a PNG
    file, in order; they are not joined, so the compressed pixels are not
    copied.

    ``tensor._PngWriter`` has already checked that there are 1 or 3 channels.
    """
    height, width, channels = samples.shape
    color_type = 0 if channels == 1 else 2
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    rows = samples.reshape(height, -1)
    band = max(1, _BAND_BYTES // (1 + rows.shape[1]))
    filtered = np.empty((min(band, height), 1 + rows.shape[1]), dtype=np.uint8)
    deflate = zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    compressed = []
    for r0 in range(0, height, band):
        raw = filtered[: min(band, height - r0)]
        r1, first = r0 + len(raw), max(r0, 1)
        raw[:, 0] = 2  # filter Up: the byte minus the one above, modulo 256
        np.subtract(rows[first:r1], rows[first - 1 : r1 - 1], out=raw[first - r0 :, 1:])
        if r0 == 0:
            raw[0, 0], raw[0, 1:] = 0, rows[0]  # filter None
        compressed.append(deflate.compress(raw))
    compressed.append(deflate.flush())
    return [SIGNATURE, *_chunk(b"IHDR", ihdr), *_chunk(b"IDAT", *compressed), *_chunk(b"IEND")]


def decode(data: bytes) -> tuple[np.ndarray, int]:
    """Decode PNG bytes into an (height, width, channels) array plus bit depth."""
    if data[:8] != SIGNATURE:
        raise ValueError("not a PNG file (bad signature)")
    pos = 8
    header = None
    idat = []
    seen_end = False
    view = memoryview(data)  # payloads are read in place, never copied
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = view[pos + 8 : pos + 8 + length]
        if len(payload) != length or pos + 12 + length > len(data):
            raise ValueError("truncated PNG chunk")
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if crc != zlib.crc32(payload, zlib.crc32(tag)):
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
    is decoded in one numpy step over all its lanes.  The filtered bytes
    are stored skewed, ``[d, s]`` with s the index along the shorter image
    side, so a diagonal and its two predecessors are contiguous slices,
    and each diagonal is decoded in place: the prediction of the image's
    most common filter type over the whole diagonal, overwritten on the
    lanes of each other type's rows that cross it, is added modulo 256.
    The first row takes the common type where the two predict the same
    there.  The buffer holds (height + width + 1) *
    (min(height, width) + 1) * bpp int32 samples, so the predictors and
    sums run without casts.
    """
    rows = raw.reshape(height, 1 + width * bpp)
    ftype = rows[:, 0].copy()
    if ftype.max() > 4:
        raise ValueError(f"unknown PNG filter type {ftype[np.argmax(ftype > 4)]}")
    common = int(np.bincount(ftype).argmax())
    if _FIRST_ROW_TWIN[ftype[0]] == common:
        ftype[0] = common
    # In (s, l) coordinates s runs along the short side and l along the long one.
    wide = height <= width
    short, long = min(height, width), max(height, width)
    diagonals = height + width - 1
    # Two leading diagonals, one leading lane and every lane off the image
    # stay zero: they are the image border.
    buf = np.zeros((diagonals + 2, short + 1, bpp), np.int32)
    filtered = rows[:, 1:].reshape(height, width, bpp)
    _skew(buf[2:, 1:])[...] = filtered if wide else filtered.transpose(1, 0, 2)
    # Lanes [lo, hi) of diagonal d lie on the image.  Lane s holds row s of a
    # wide image and row d - s of a tall one, so the rows of its lanes are
    # the slice [at, at + hi - lo) of the row types in lane order.
    d = np.arange(diagonals)
    lo, hi = np.maximum(d - long + 1, 0), np.minimum(d + 1, short)
    at = lo if wide else lo + height - 1 - d
    in_lane_order = ftype if wide else ftype[::-1]
    others = []
    for kind in range(5):
        mask = in_lane_order == kind
        if kind != common and mask.any():
            count = np.concatenate(([0], np.cumsum(mask)))
            others.append((kind, mask, (count[at + hi - lo] > count[at]).tolist()))
    scratch = np.empty((2, short, bpp), np.int32)
    for d, (lo, hi, at) in enumerate(zip(lo.tolist(), hi.tolist(), at.tolist())):
        same, before, upleft = buf[d + 1, lo + 1 : hi + 1], buf[d + 1, lo:hi], buf[d, lo:hi]
        left, up = (same, before) if wide else (before, same)
        row, spare = scratch[:, : hi - lo]
        pred = _predict(common, left, up, upleft, row)
        for kind, mask, crosses in others:
            if crosses[d]:
                if pred is not row:  # Sub and Up predict views of the buffer, None 0
                    np.copyto(row, pred)
                    pred = row
                np.copyto(pred, _predict(kind, left, up, upleft, spare), where=mask[at : at + hi - lo, None])
        cur = buf[d + 2, lo + 1 : hi + 1]
        cur += pred
        cur &= 0xFF
    samples = np.empty((height, width, bpp), np.uint8)
    (samples if wide else samples.transpose(1, 0, 2))[...] = _skew(buf[2:, 1:])
    return samples


def _predict(
    ftype: int, left: np.ndarray, up: np.ndarray, upleft: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray | int:
    """The prediction of one filter type (None, Sub, Up, Average, Paeth) from
    the decoded neighbours; Average and Paeth compute it in int32, in
    ``out`` if it is given."""
    if ftype == 1:
        return left
    if ftype == 2:
        return up
    if ftype == 3:
        total = np.add(left, up, out=out, dtype=np.int32)
        return np.right_shift(total, 1, out=total)
    if ftype == 4:
        key = np.subtract(left, upleft, out=out, dtype=np.int32)
        key *= 511
        key += up
        key -= upleft
        return np.add(_paeth_offsets().take(key), upleft, out=key)
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
    offset = offset.astype(np.int32)
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
