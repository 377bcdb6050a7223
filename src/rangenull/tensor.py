"""Planar floating-point image tensors and their on-disk formats.

Samples are double precision and deliberately unclamped: intermediate
results of linear reconstructions routinely leave [0, 1], and keeping them
exact is what makes the decomposition identities testable.  ``quantize``
models the lossy clamp-and-round applied when writing a standard 8-bit
image, which is the one step that can break exactness.  The "PDT1" raw
container round-trips samples bit for bit.

PDT1 layout: bytes 0-3 magic ASCII "PDT1"; bytes 4-7, 8-11, 12-15
little-endian u32 channels, height, width; then channels*height*width
little-endian f64 samples, planar row-major.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _png

RAW_MAGIC = b"PDT1"
_RAW_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True, eq=False)
class ImageTensor:
    """Immutable channel-major image: ``data[c, y, x]``, float64, finite.

    Values are nominally in [0, 1] but any finite value is allowed; only
    the PNG path clamps.  Channel count is unrestricted so the same
    container can carry stacked per-block measurements.

    The constructor adopts a float64 C-contiguous array that owns its
    buffer, marking it read-only for everyone holding a reference; views
    and other dtypes are copied first.  Pass ``arr.copy()`` if you need
    to keep writing to the source array.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64, order="C")
        if arr.base is not None:
            arr = np.array(arr, order="C")
        if arr.ndim != 3:
            raise ValueError(f"tensor data must be (channels, height, width), got ndim={arr.ndim}")
        c, h, w = arr.shape
        if c < 1 or h < 1 or w < 1:
            raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor samples must be finite (no NaN or infinity)")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImageTensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))


def quantize(t: ImageTensor) -> ImageTensor:
    """Clamp to [0, 1] and snap every sample to the nearest 8-bit level.

    Rounding is half-away-from-zero, so 0.5 maps to 128/255.  Idempotent;
    this is exactly the value loss incurred by ``save_png``.
    """
    levels = np.floor(np.clip(t.data, 0.0, 1.0) * 255.0 + 0.5)
    return ImageTensor(levels / 255.0)


def save_png(t: ImageTensor, path: str | Path) -> None:
    """Write an 8-bit PNG; samples are clamped and rounded as in ``quantize``."""
    if t.channels not in (1, 3):
        raise ValueError(f"PNG output needs 1 or 3 channels, got {t.channels}")
    levels = np.floor(np.clip(t.data, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    samples = np.ascontiguousarray(levels.transpose(1, 2, 0))
    Path(path).write_bytes(_png.encode(samples))


def load_png(path: str | Path) -> ImageTensor:
    """Read an 8- or 16-bit grayscale or RGB PNG, scaled to [0, 1]."""
    samples, depth = _png.decode(Path(path).read_bytes())
    peak = 255.0 if depth == 8 else 65535.0
    height, width, channels = samples.shape
    planar = np.empty((channels, height, width))
    return ImageTensor(np.divide(samples.transpose(2, 0, 1), peak, out=planar))


def write_raw(t: ImageTensor, path: str | Path) -> None:
    """Write the lossless PDT1 container (bit-exact round trip)."""
    header = _RAW_HEADER.pack(RAW_MAGIC, t.channels, t.height, t.width)
    Path(path).write_bytes(header + t.data.astype("<f8").tobytes())


def read_raw(path: str | Path) -> ImageTensor:
    blob = Path(path).read_bytes()
    if len(blob) < _RAW_HEADER.size or blob[:4] != RAW_MAGIC:
        raise ValueError(f"{path}: not a PDT1 tensor file (bad magic)")
    _, c, h, w = _RAW_HEADER.unpack_from(blob)
    if c < 1 or h < 1 or w < 1:
        raise ValueError(f"{path}: invalid tensor dimensions {(c, h, w)}")
    expected = c * h * w * 8
    if len(blob) - _RAW_HEADER.size != expected:
        raise ValueError(
            f"{path}: payload is {len(blob) - _RAW_HEADER.size} bytes, "
            f"header dimensions need {expected}"
        )
    arr = np.frombuffer(blob, dtype="<f8", offset=_RAW_HEADER.size).reshape(c, h, w)
    return ImageTensor(arr)


def load_tensor(path: str | Path) -> ImageTensor:
    """Load a tensor from PNG or PDT1, detected by file signature."""
    with open(path, "rb") as f:
        head = f.read(8)
    if head[:8] == _png.SIGNATURE:
        return load_png(path)
    if head[:4] == RAW_MAGIC:
        return read_raw(path)
    raise ValueError(f"{path}: unrecognized format (expected PNG or PDT1)")
