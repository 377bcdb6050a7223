"""Seeded inputs and the benchmark's own file codecs.

Everything here is independent of the package under test: the PNG
encoder, the PNG decoder and the PDT1/PDM1 readers and writers are
written from the format descriptions, so a fault in the program's codecs
shows up as a failed check instead of being reproduced by the fixtures.

The PNG encoder chooses a filter per row by the minimum sum of absolute
residuals (read as signed bytes), the heuristic libpng uses.  On smooth
content that picks Paeth for most rows, so the program's decoder is fed
the per-byte Paeth and Average paths that real images reach.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
PDT1 = struct.Struct("<4sIII")
PDM1 = struct.Struct("<4sIIQ")
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")


# ---------------------------------------------------------------- content


def smooth_rgb(rng: np.random.Generator, height: int, width: int, noise: float) -> np.ndarray:
    """(3, h, w) image in [0, 1]: gradients plus a few low-frequency waves.

    Frequencies are in cycles per image, so every size shows the same
    scene; ``noise`` adds Gaussian texture of that standard deviation.
    """
    yy = np.linspace(0.0, 1.0, height)[:, None]
    xx = np.linspace(0.0, 1.0, width)[None, :]
    out = np.empty((3, height, width))
    for ch in range(3):
        gy, gx = rng.uniform(-0.3, 0.3, 2)
        acc = gy * yy + gx * xx
        for _ in range(4):
            fy, fx = rng.uniform(0.5, 4.0, 2)
            py, px = rng.uniform(0.0, 2.0 * np.pi, 2)
            amp = rng.uniform(0.05, 0.2)
            acc = acc + amp * np.cos(2.0 * np.pi * fy * yy + py) * np.cos(2.0 * np.pi * fx * xx + px)
        out[ch] = acc
    out -= out.min()
    out *= 0.9 / out.max()
    out += 0.05
    if noise:
        out += rng.normal(0.0, noise, out.shape)
    return np.clip(out, 0.0, 1.0, out=out)


def to_levels(img: np.ndarray) -> np.ndarray:
    """(3, h, w) floats to (h, w, 3) uint8 levels, rounded half up."""
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0).copy()


def block_mean(a: np.ndarray, s: int) -> np.ndarray:
    c, h, w = a.shape
    return a.reshape(c, h // s, s, w // s, s).mean(axis=(2, 4))


def sense(rows: np.ndarray, block: int, a: np.ndarray) -> np.ndarray:
    """Block measurements ``rows @ block`` stacked as channel*q + row."""
    c, h, w = a.shape
    nh, nw = h // block, w // block
    blocks = a.reshape(c, nh, block, nw, block).transpose(0, 1, 3, 2, 4).reshape(c, nh * nw, -1)
    meas = blocks @ rows.T  # (c, nh*nw, q)
    return meas.transpose(0, 2, 1).reshape(c * rows.shape[0], nh, nw)


def cubic_down_matrix(n_in: int, s: int) -> np.ndarray:
    """Antialiased Catmull-Rom (a = -0.5) decimation by ``s`` as a dense matrix.

    Output ``i`` is centred on source position ``(i + 0.5) s - 0.5``,
    the kernel is stretched by ``s``, borders clamp to the edge sample
    and each row is normalised to sum to 1.
    """
    n_out = n_in // s
    centre = (np.arange(n_out) + 0.5) * s - 0.5
    support = 2.0 * s
    lo = np.floor(centre - support).astype(np.int64)
    taps = lo[:, None] + np.arange(int(np.ceil(2 * support)) + 2)[None, :]
    t = np.abs((taps - centre[:, None]) / s)
    weights = np.where(
        t <= 1.0,
        (1.5 * t - 2.5) * t * t + 1.0,
        np.where(t < 2.0, ((-0.5 * t + 2.5) * t - 4.0) * t + 2.0, 0.0),
    )
    out = np.zeros((n_out, n_in))
    rows = np.broadcast_to(np.arange(n_out)[:, None], taps.shape)
    np.add.at(out, (rows, np.clip(taps, 0, n_in - 1)), weights)
    return out / out.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- PNG


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def encode_png(levels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode (h, w, 3) uint8 levels with per-row adaptive filters.

    Returns the PNG bytes and the filter type chosen for each row.
    """
    height, width, channels = levels.shape
    cur = levels.reshape(height, width * channels).astype(np.int16)
    up = np.vstack([np.zeros((1, cur.shape[1]), np.int16), cur[:-1]])
    pad = np.zeros((height, channels), np.int16)
    left = np.hstack([pad, cur[:, :-channels]])
    upleft = np.hstack([pad, up[:, :-channels]])
    preds = [0, left, up, (left + up) // 2, _paeth(left, up, upleft)]
    filtered = np.stack([(cur - p) & 0xFF for p in preds]).astype(np.uint8)
    signed = filtered.astype(np.int16)
    cost = np.minimum(signed, 256 - signed).sum(axis=2)  # (5, h)
    choice = np.argmin(cost, axis=0).astype(np.uint8)
    rows = filtered[choice, np.arange(height)]
    raw = np.hstack([choice[:, None], rows]).tobytes()
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2 if channels == 3 else 0, 0, 0, 0)
    png = b"".join(
        [PNG_SIGNATURE, _chunk(b"IHDR", ihdr), _chunk(b"IDAT", zlib.compress(raw, 6)), _chunk(b"IEND", b"")]
    )
    return png, choice


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit grayscale or RGB PNG into (h, w, c) uint8 levels.

    Rows are reconstructed along anti-diagonals: sample (r, x) needs only
    (r, x-1), (r-1, x) and (r-1, x-1), so every step is one numpy
    operation over all rows at once, whatever filter each row uses.
    """
    if data[:8] != PNG_SIGNATURE:
        raise ValueError("not a PNG file")
    pos, header, idat = 8, None, []
    while pos + 12 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag, payload = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if crc != zlib.crc32(tag + payload) & 0xFFFFFFFF:
            raise ValueError(f"PNG chunk {tag!r} fails its CRC")
        pos += 12 + length
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if header is None:
        raise ValueError("PNG has no IHDR")
    width, height, depth, color_type, _, _, interlace = header
    if depth != 8 or color_type not in (0, 2) or interlace:
        raise ValueError(f"unsupported PNG: depth {depth}, color type {color_type}")
    channels = 3 if color_type == 2 else 1
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    if raw.size != height * (width * channels + 1):
        raise ValueError("PNG pixel data has the wrong length")
    raw = raw.reshape(height, width * channels + 1)
    ftype = raw[:, 0].astype(np.int16)
    if ftype.max() > 4:
        raise ValueError("unknown PNG filter type")
    filt = raw[:, 1:].reshape(height, width, channels).astype(np.int16)
    out = np.zeros((height + 1, width + 1, channels), np.int16)  # row 0 and column 0 are padding
    for d in range(height + width - 1):
        r = np.arange(max(0, d - width + 1), min(height, d + 1))
        x = d - r
        a, b, c = out[r + 1, x], out[r, x + 1], out[r, x]
        t = ftype[r][:, None]
        pred = np.select(
            [t == 1, t == 2, t == 3, t == 4], [a, b, (a + b) // 2, _paeth(a, b, c)], default=0
        )
        out[r + 1, x + 1] = (filt[r, x] + pred) & 0xFF
    return out[1:, 1:].astype(np.uint8)


# ---------------------------------------------------------------- PDT1 / PDM1


def write_pdt1(path: Path, a: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(PDT1.pack(b"PDT1", *a.shape))
        f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def parse_pdt1(blob: bytes) -> np.ndarray:
    if len(blob) < PDT1.size:
        raise ValueError("PDT1 file is truncated")
    magic, c, h, w = PDT1.unpack_from(blob)
    if magic != b"PDT1" or len(blob) != PDT1.size + 8 * c * h * w:
        raise ValueError("PDT1 header does not match its payload")
    return np.frombuffer(blob, "<f8", offset=PDT1.size).reshape(c, h, w)


def read_pdt1(path: Path) -> np.ndarray:
    return parse_pdt1(Path(path).read_bytes())


def read_pdm1(path: Path) -> np.ndarray:
    """Sampling rows (q, block**2) of a PDM1 operator file."""
    blob = Path(path).read_bytes()
    magic, block, q, _ = PDM1.unpack_from(blob)
    if magic != b"PDM1" or len(blob) != PDM1.size + 8 * q * block * block:
        raise ValueError("PDM1 header does not match its payload")
    return np.frombuffer(blob, "<f8", offset=PDM1.size).reshape(q, block * block)
