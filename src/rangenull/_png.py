"""Minimal PNG codec for grayscale and RGB images.

Decoding accepts non-interlaced PNGs with bit depth 8 or 16 and color type
0 (grayscale) or 2 (RGB).  Anything else, including alpha and palette
images, is rejected so a caller error is never hidden by silent channel
dropping.  Encoding always emits 8-bit output, filter type 0 on
every scanline, and a fixed zlib level, so the bytes written for a given
image are identical from run to run.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

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
    raw = bytearray()
    for row in samples:
        raw.append(0)  # filter: None
        raw += row.tobytes()
    idat = zlib.compress(bytes(raw), _ZLIB_LEVEL)
    return b"".join(
        [SIGNATURE, _chunk(b"IHDR", ihdr), _chunk(b"IDAT", idat), _chunk(b"IEND", b"")]
    )


def decode(data: bytes) -> tuple[np.ndarray, int]:
    """Decode PNG bytes into an (height, width, channels) array plus bit depth."""
    if data[:8] != SIGNATURE:
        raise ValueError("not a PNG file (bad signature)")
    pos = 8
    header = None
    idat = bytearray()
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
            idat += payload
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
    stride = width * bpp
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise ValueError(f"PNG pixel data is not valid zlib data ({exc})") from exc
    if len(raw) != height * (stride + 1):
        raise ValueError("PNG pixel data has the wrong length")
    flat = _unfilter(raw, height, stride, bpp)
    if depth == 8:
        arr = np.frombuffer(flat, dtype=np.uint8)
    else:
        arr = np.frombuffer(flat, dtype=">u2")
    return arr.reshape(height, width, channels), depth


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> bytes:
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r in range(height):
        ftype = raw[r * (stride + 1)]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=r * (stride + 1) + 1)
        if ftype == 0:
            cur = line.copy()
        elif ftype == 1:  # Sub: per-lane cumulative sum mod 256
            lanes = line.reshape(-1, bpp).astype(np.int64)
            cur = (np.cumsum(lanes, axis=0) % 256).astype(np.uint8).reshape(-1)
        elif ftype == 2:  # Up
            cur = line + prev
        elif ftype == 3:  # Average
            cur = _unfilter_average(line, prev, bpp)
        elif ftype == 4:  # Paeth
            cur = _unfilter_paeth(line, prev, bpp)
        else:
            raise ValueError(f"unknown PNG filter type {ftype}")
        out[r] = cur
        prev = out[r]
    return out.tobytes()


def _unfilter_average(line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    cur = np.zeros_like(line)
    for i in range(line.shape[0]):
        left = int(cur[i - bpp]) if i >= bpp else 0
        cur[i] = (int(line[i]) + (left + int(prev[i])) // 2) % 256
    return cur


def _unfilter_paeth(line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    cur = np.zeros_like(line)
    for i in range(line.shape[0]):
        left = int(cur[i - bpp]) if i >= bpp else 0
        up = int(prev[i])
        upleft = int(prev[i - bpp]) if i >= bpp else 0
        p = left + up - upleft
        pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
        if pa <= pb and pa <= pc:
            pred = left
        elif pb <= pc:
            pred = up
        else:
            pred = upleft
        cur[i] = (int(line[i]) + pred) % 256
    return cur
