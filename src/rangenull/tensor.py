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

Memory and threads: ``ImageTensor`` checks that samples are finite on
every construction, in slices through one small reused mask, so the check
allocates no full-size temporary.  A PDT1 or PDM1 payload is read straight
into its final array with ``os.preadv``; from 16 MiB on, its two halves
are read concurrently (one helper thread, joined before the read
returns).  The bytes do not depend on the split.
"""

from __future__ import annotations

import errno
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _png

RAW_MAGIC = b"PDT1"
_RAW_HEADER = struct.Struct("<4sIII")
# Samples checked for finiteness per slice: 128 KiB of mask, reused.
_FINITE_SLICE = 1 << 17
# Payloads from this size on are read in two concurrent halves; below it,
# starting and joining the helper thread (~0.1-0.2 ms) costs more than
# the second core saves.
_SPLIT_BYTES = 1 << 24


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
        if not _all_finite(arr.reshape(-1)):
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


def _all_finite(flat: np.ndarray) -> bool:
    # ``np.isfinite(flat).all()`` without its full-size mask: the results of
    # linear maps on finite inputs can still overflow, so every
    # construction is checked.
    mask = np.empty(min(flat.size, _FINITE_SLICE), dtype=bool)
    for start in range(0, flat.size, _FINITE_SLICE):
        part = flat[start : start + _FINITE_SLICE]
        seen = mask[: part.size]
        np.isfinite(part, out=seen)
        if not seen.all():
            return False
    return True


def quantize(t: ImageTensor) -> ImageTensor:
    """Clamp to [0, 1] and snap every sample to the nearest 8-bit level.

    Rounding is half-away-from-zero, so 0.5 maps to 128/255.  Idempotent;
    this is exactly the value loss incurred by ``save_png``.
    """
    levels = _levels(t)
    levels /= 255.0
    return ImageTensor(levels)


def _levels(t: ImageTensor) -> np.ndarray:
    # The 8-bit rule shared by ``quantize`` and ``save_png``, computed in one
    # buffer; clip(x * 255, 0, 255) equals clip(x, 0, 1) * 255 for finite x.
    levels = np.multiply(t.data, 255.0)
    np.clip(levels, 0.0, 255.0, out=levels)
    levels += 0.5
    return np.floor(levels, out=levels)


def check_destination(path: str | Path) -> None:
    """Raise, naming ``path``, if no file can be written there:
    ``IsADirectoryError`` if it names a directory (an existing one, or one
    that ends in a separator, ``.`` or ``..``), ``FileNotFoundError`` if the
    directory it would go in does not exist.
    """
    given = os.fspath(path)
    if os.path.basename(given) in ("", ".", "..") or os.path.isdir(given):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), given)
    if not os.path.isdir(os.path.dirname(given) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), given)


def check_png_channels(channels: int) -> None:
    """Raise ``ValueError`` unless a PNG can hold ``channels`` channels."""
    if channels not in (1, 3):
        raise ValueError(f"PNG output needs 1 or 3 channels, got {channels}")


def _write_atomic(path: str | Path, *payload) -> None:
    """Write the byte buffers of ``payload`` to ``path`` so that readers see
    either the old file or the complete new one.

    They go to a uniquely named temporary file in the same directory, opened
    with ``"xb"`` so the umask sets its mode, which ``os.replace`` then
    moves onto ``path``; on any error the temporary file is removed.  A
    ``path`` that ``check_destination`` refuses raises before anything is
    created.
    """
    check_destination(path)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            for part in payload:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_png(t: ImageTensor, path: str | Path) -> ImageTensor:
    """Write an 8-bit PNG; samples are clamped and rounded as in ``quantize``.

    Returns the image the file holds, equal to ``quantize(t)`` and to what
    ``load_png`` reads back, so callers need not quantize a second time.
    """
    check_png_channels(t.channels)
    samples = np.empty((t.height, t.width, t.channels), np.uint8)
    np.copyto(samples, _levels(t).transpose(1, 2, 0), casting="unsafe")
    _write_atomic(path, _png.encode(samples))
    return _planar(samples, 255.0)


def load_png(path: str | Path) -> ImageTensor:
    """Read an 8- or 16-bit grayscale or RGB PNG, scaled to [0, 1]."""
    samples, depth = _png.decode(Path(path).read_bytes())
    return _planar(samples, 255.0 if depth == 8 else 65535.0)


def _planar(samples: np.ndarray, peak: float) -> ImageTensor:
    # Interleaved (height, width, channels) integer samples to planar [0, 1].
    height, width, channels = samples.shape
    planar = np.empty((channels, height, width))
    return ImageTensor(np.divide(samples.transpose(2, 0, 1), peak, out=planar))


def write_raw(t: ImageTensor, path: str | Path) -> None:
    """Write the lossless PDT1 container (bit-exact round trip)."""
    header = _RAW_HEADER.pack(RAW_MAGIC, t.channels, t.height, t.width)
    _write_atomic(path, header, t.data.astype("<f8", copy=False))


def read_raw(path: str | Path) -> ImageTensor:
    """Read a PDT1 file; the payload must hold exactly the header's samples."""
    with open(path, "rb") as f:
        head = f.read(_RAW_HEADER.size)
        if len(head) < _RAW_HEADER.size or head[:4] != RAW_MAGIC:
            raise ValueError(f"{path}: not a PDT1 tensor file (bad magic)")
        _, c, h, w = _RAW_HEADER.unpack(head)
        if c < 1 or h < 1 or w < 1:
            raise ValueError(f"{path}: invalid tensor dimensions {(c, h, w)}")
        return ImageTensor(_read_payload(f, path, (c, h, w), "header dimensions"))


def _read_payload(f, path, shape: tuple[int, ...], declared_by: str) -> np.ndarray:
    """Read the rest of ``f`` into a fresh little-endian f64 array of ``shape``,
    checking the size against the file's before allocating anything.

    Positioned reads fill the array without moving ``f``; from
    ``_SPLIT_BYTES`` on, the two halves are filled concurrently, one on a
    helper thread.  A file that shrinks or grows while it is read raises
    ``ValueError``.
    """
    # Imported here, not at the top: ``concurrent.futures`` loads ``logging``,
    # which would add several ms to ``import rangenull``.
    from concurrent.futures import ThreadPoolExecutor

    fd, start = f.fileno(), f.tell()
    need = 8 * math.prod(shape)
    have = os.fstat(fd).st_size - start
    if have != need:
        raise ValueError(f"{path}: payload is {have} bytes, {declared_by} need {need}")
    arr = np.empty(shape, dtype="<f8")
    buf = memoryview(arr).cast("B")
    if need < _SPLIT_BYTES:
        complete = _pread_into(fd, buf, start)
    else:
        half = need // 2
        with ThreadPoolExecutor(max_workers=1) as helper:
            tail = helper.submit(_pread_into, fd, buf[half:], start + half)
            complete = _pread_into(fd, buf[:half], start)
            complete = tail.result() and complete
    if not complete:
        raise ValueError(f"{path}: payload shrank while it was read")
    if os.pread(fd, 1, start + need):
        raise ValueError(f"{path}: payload grew while it was read")
    return arr


def _pread_into(fd: int, view: memoryview, offset: int) -> bool:
    """Fill ``view`` from ``fd`` at ``offset``, looping over short reads (one
    read returns at most about 2 GiB on Linux); False if the file ends first."""
    while view:
        n = os.preadv(fd, [view], offset)
        if n == 0:
            return False
        view, offset = view[n:], offset + n
    return True


def load_tensor(path: str | Path) -> ImageTensor:
    """Load a tensor from PNG or PDT1, detected by file signature."""
    with open(path, "rb") as f:
        head = f.read(8)
    if head[:8] == _png.SIGNATURE:
        return load_png(path)
    if head[:4] == RAW_MAGIC:
        return read_raw(path)
    raise ValueError(f"{path}: unrecognized format (expected PNG or PDT1)")
