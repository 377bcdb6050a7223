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

Finiteness and memory: a walk checks each stripe it computes (see
``linop``) and ``_adopt`` wraps its result; ``ImageTensor`` checks data
from outside in slices through one small reused mask.  A PDT1 or PDM1
payload is read straight into its final array with ``os.preadv``, on the
calling thread.

Stripes of whole rows are the unit of the streamed passes.  One walk,
``_stripes``, yields the stripes of an array, as views, or of a stripe
source that makes them in one reused buffer, the caller's to overwrite
until the next: a ``RawReader`` reading a PDT1 payload (``open_stripes``
opens a PDT1 that way and decodes a PNG whole), a prediction
(``resample.open_prediction``), an operator's ``A+ y`` or a ``_Blank``
buffer; ``_writable_stripes`` pairs each with a buffer to rewrite it in,
and ``_gather`` copies them into one array, unless the source makes that
itself (a block operator's ``A+ y``).  No source checks its samples
finite: an operator's measurer checks what it computes from them (see
``linop``), and ``_read_through`` the samples of a source its caller
refuses.  ``_open_writers`` gives each output file the writer of
its format: a PDT1 writes whole rows as they come, a PNG quantizes them
into the 8-bit image it encodes at the end.  ``linop.measure``,
``linop.reconstruct`` and ``linop.lift``, the streamed protocols of
every operator, are the only callers of ``_open_writers`` outside this
module.  Every file is written through ``_write_atomic``, which renames
a call's files into place, one by one, once all are complete.
"""

from __future__ import annotations

import contextlib
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
# Bytes of samples per stripe of a streamed pass (see ``_band_rows``).
_STRIPE_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class ImageTensor:
    """Immutable channel-major image: ``data[c, y, x]``, float64, finite.

    Values are nominally in [0, 1] but any finite value is allowed; only
    the PNG path clamps.  Channel count is unrestricted so the same
    container can carry stacked per-block measurements.

    The constructor adopts a float64 C-contiguous array that owns its
    buffer, marking it read-only for everyone holding a reference; views
    and other dtypes are copied first (pass ``arr.copy()`` to keep writing
    to the source).  It checks data from outside finite; a walk wraps the
    result it has checked with ``_adopt``.
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
        _check_finite(arr)
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


def _adopt(arr: np.ndarray) -> ImageTensor:
    """``ImageTensor(arr)`` unchecked, for a fresh, owned, C-contiguous
    float64 (c, h, w) ``arr`` that a walk has made and checked finite."""
    assert arr.base is None and arr.dtype == np.float64 and arr.flags.c_contiguous and arr.ndim == 3
    arr.setflags(write=False)
    t = object.__new__(ImageTensor)
    object.__setattr__(t, "data", arr)
    return t


def _check_finite(arr: np.ndarray) -> None:
    """Raise ``ImageTensor``'s ``ValueError`` unless every sample of the
    C-contiguous ``arr`` is finite."""
    # ``np.isfinite(arr).all()`` without its full-size mask: linear maps of finite inputs can overflow.
    flat = arr.reshape(-1)
    mask = np.empty(min(flat.size, _FINITE_SLICE), dtype=bool)
    for start in range(0, flat.size, _FINITE_SLICE):
        part = flat[start : start + _FINITE_SLICE]
        seen = mask[: part.size]
        np.isfinite(part, out=seen)
        if not seen.all():
            raise ValueError("tensor samples must be finite (no NaN or infinity)")


def quantize(t: ImageTensor) -> ImageTensor:
    """Clamp to [0, 1] and snap every sample to the nearest 8-bit level.

    Rounding is half-away-from-zero, so 0.5 maps to 128/255.  Idempotent;
    this is exactly the value loss incurred by ``save_png``.
    """
    levels = _levels(t.data)
    levels /= 255.0
    return ImageTensor(levels)


def _levels(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The 8-bit rule shared by ``quantize`` and ``save_png``, computed in one
    # buffer; clip(x * 255, 0, 255) equals clip(x, 0, 1) * 255 for finite x.
    levels = np.multiply(a, 255.0, out=out)
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


@contextlib.contextmanager
def _write_atomic(*paths: str | Path):
    """Yield one open binary file per path, in order, for the caller to write
    into; once the block ends, move each onto its path, so that readers see
    either the old file or the complete new one.

    Every path is checked with ``check_destination`` before anything is
    created.  Each file is a uniquely named temporary one in its path's
    directory, opened with ``"xb"`` so the umask sets its mode, which
    ``os.replace`` moves onto the path, one path after another.  On any
    error, the caller's own included, every temporary file not yet moved
    is removed.  So an error before the moves leaves every old file in
    place, but a move that fails leaves the paths before it already
    holding their new files, and it and the paths after it their old ones.
    """
    for path in paths:
        check_destination(path)
    moves = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in map(Path, paths):
                tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
                files.append(stack.enter_context(open(tmp, "xb")))
                moves.append((tmp, path))
            yield files
        for tmp, path in moves:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)
        raise


def _is_png_path(path: str | Path) -> bool:
    return os.fspath(path).lower().endswith(".png")


def save_tensor(t: ImageTensor, path: str | Path) -> ImageTensor:
    """Write ``t`` through the writer ``_open_writers`` picks for ``path``, an
    8-bit PNG if it ends in ``.png`` (any case), else a PDT1, and return
    the image the file holds: the 8-bit image, or ``t`` itself."""
    with _open_writers(t.shape, path) as (writer,):
        held = writer.write(t.data)
    return t if held is t.data else ImageTensor(held)


class _RawWriter:
    """Writes a PDT1 file of ``shape``: the header at once, then the planar
    samples, in order, whole rows of one channel or more per ``write``.

    A file larger than the free space ``os.statvfs`` reports at its
    directory is refused before its first byte, with ``ENOSPC`` naming
    ``path``.
    """

    def __init__(self, f, path: str | Path, shape: tuple[int, int, int]):
        if max(shape) > 0xFFFFFFFF:
            raise ValueError(f"tensor shape {shape} does not fit the PDT1 header's 32-bit fields")
        vfs = os.statvfs(os.path.dirname(os.fspath(path)) or ".")
        if _RAW_HEADER.size + 8 * math.prod(shape) > vfs.f_bavail * vfs.f_frsize:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.fspath(path))
        f.write(_RAW_HEADER.pack(RAW_MAGIC, *shape))
        self._file = f

    def write(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Append ``rows``; return them, as the file holds them.  ``out`` is
        taken as the PNG writer takes it; a PDT1 holds the rows themselves."""
        self._file.write(rows.astype("<f8", copy=False))
        return rows

    def finish(self) -> None:
        pass


class _PngWriter:
    """Writes the 8-bit PNG of an image of ``shape``: each ``write`` quantizes
    the next whole rows, in planar order, into the (height, width,
    channels) image that PNG rows interleave, and ``finish`` encodes it."""

    def __init__(self, f, path: str | Path, shape: tuple[int, int, int]):
        if shape[0] not in (1, 3):
            raise ValueError(f"PNG output needs 1 or 3 channels, got {shape[0]}")
        self._file = f
        self._samples = np.empty(shape[1:] + shape[:1], np.uint8)
        self._row = 0  # rows written, counted across the channels

    def write(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantize ``rows``, of one channel or more, as ``quantize`` does, into
        ``out`` if given, and return them as the file holds them."""
        height, width, _ = self._samples.shape
        levels = _levels(rows, out)
        flat = levels.reshape(-1, width)
        while len(flat):
            ch, r0 = divmod(self._row, height)
            part, flat = flat[: height - r0], flat[height - r0 :]
            np.copyto(self._samples[r0 : r0 + len(part), :, ch], part, casting="unsafe")
            self._row += len(part)
        levels /= 255.0
        return levels

    def finish(self) -> None:
        self._file.writelines(_png.encode(self._samples))


@contextlib.contextmanager
def _open_writers(shape: tuple[int, int, int], *paths: str | Path):
    """Yield one writer per path, in order, for an image of ``shape``, of the
    format the path's name picks: a PNG for a name that ends in ``.png``
    (any case), else a PDT1; feed each the image's stripes in planar
    order.  Once the block ends, every writer finishes its file and
    ``_write_atomic`` renames them into place, one by one; an error before
    the renames leaves every old file as it was.
    """
    with _write_atomic(*paths) as files:
        writers = [(_PngWriter if _is_png_path(p) else _RawWriter)(f, p, shape) for f, p in zip(files, paths)]
        yield writers
        for writer in writers:
            writer.finish()


def save_png(t: ImageTensor, path: str | Path) -> ImageTensor:
    """Write an 8-bit PNG; samples are clamped and rounded as in ``quantize``.

    Returns the image the file holds, equal to ``quantize(t)`` and to what
    ``load_png`` reads back, so callers need not quantize a second time.
    """
    held = np.empty(t.shape)
    with _write_atomic(path) as (f,):
        png = _PngWriter(f, path, t.shape)
        png.write(t.data, held)
        png.finish()
    return ImageTensor(held)


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
    with _write_atomic(path) as (f,):
        _RawWriter(f, path, t.shape).write(t.data)


def read_raw(path: str | Path) -> ImageTensor:
    """Read a PDT1 file; the payload must hold exactly the header's samples."""
    with open(path, "rb") as f:
        shape = _raw_shape(f, path)
        return ImageTensor(_read_payload(f, path, shape, "header dimensions"))


def is_raw(path: str | Path) -> bool:
    """Whether ``path`` starts with the PDT1 magic, the test by which
    ``open_stripes`` opens a ``RawReader`` (``load_tensor`` reads the magic itself)."""
    with open(path, "rb") as f:
        return f.read(len(RAW_MAGIC)) == RAW_MAGIC


class RawReader:
    """A PDT1 file held open to be read one stripe of whole rows at a time.

    Opening checks the header and the payload size as ``read_raw`` does,
    with the same messages, before anything is read.  ``stripes`` then
    reads the samples, once or more; use the reader as a context manager,
    which closes the file.
    """

    dtype = np.dtype("<f8")  # as in the array of ``read_raw``

    def __init__(self, path: str | Path):
        self.path = path
        self._file = open(path, "rb")
        try:
            self.shape = _raw_shape(self._file, path)
            self._start = _payload_start(self._file, path, self.shape, "header dimensions")
            self._stamp = _stamp(self._file.fileno())
        except BaseException:
            self._file.close()
            raise
        self._walked = False

    def __enter__(self) -> "RawReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def stripes(self, rows: int):
        """Yield the samples in file order, each channel as (k, width) arrays
        of ``rows`` rows (the last one of a channel may be shorter).

        Every stripe is read with ``os.preadv`` into one reused buffer, so
        it is valid until the next one is read, and not checked finite.  A
        file that shrinks or grows while it is read raises ``ValueError``
        as in ``read_raw``; growth is seen once the last stripe has been
        read.  Every walk then raises
        ``ValueError``, naming the path, if the file's size or modification
        time is not what it was when the reader opened it, and a walk after
        the first checks that at its start too, so that no walk mixes two
        versions of the file and every walk reads the same samples.
        """
        channels, height, width = self.shape
        fd, offset = self._file.fileno(), self._start
        if self._walked:
            self._check_unchanged()
        self._walked = True
        buf = np.empty((min(rows, height), width), self.dtype)
        for _ in range(channels):
            for r0 in range(0, height, rows):
                stripe = buf[: min(rows, height - r0)]
                _pread_exact(fd, stripe, offset, self.path)
                offset += stripe.nbytes
                yield stripe
        _check_ended(fd, offset, self.path)
        self._check_unchanged()

    def _check_unchanged(self) -> None:
        if _stamp(self._file.fileno()) != self._stamp:
            raise ValueError(f"{self.path}: file changed between two reads")


def _stamp(fd: int) -> tuple[int, int]:
    """The size and modification time of the open file ``fd``."""
    st = os.fstat(fd)
    return st.st_size, st.st_mtime_ns


@contextlib.contextmanager
def open_stripes(path: str | Path):
    """Yield the samples of a PNG or PDT1 file as a stripe source for
    ``_stripes``: a PDT1 as an open ``RawReader``, which reads it one stripe
    at a time, a PNG as its decoded array.  Opening makes the checks and
    gives the messages of ``load_tensor``.
    """
    if is_raw(path):
        with RawReader(path) as reader:
            yield reader
    else:
        yield load_tensor(path).data


def _band_rows(width: int, itemsize: int, s: int) -> int:
    """Block rows per stripe: about ``_STRIPE_BYTES`` of samples, at least one."""
    return max(1, _STRIPE_BYTES // (s * width * itemsize))


def _pooling_rows(width: int, itemsize: int, s: int) -> int:
    """Block rows per stripe of a pooling walk: about twice
    ``_STRIPE_BYTES`` of samples, at least one.  Such a walk combines in
    the stripe of a source that makes its own (see ``_writable_stripes``)
    and so holds one stripe buffer, which pays for the larger stripe; at
    twice this size the streamed ``pd`` and ``verify`` of a 3 x 1024²
    image at scale 4 no longer stay under a quarter of it."""
    return max(1, 2 * _STRIPE_BYTES // (s * width * itemsize))


def _stripes(src, s: int, step: int | None = None):
    """Yield (rows, channel, block-row slice) for each stripe of ``src``, in
    memory order: ``step`` block rows of one channel (fewer at its end),
    ``_band_rows`` by default, shaped (k, s, width).  An array's stripes
    are views.  Any other source has a ``shape``, a ``dtype`` and a
    ``stripes(rows)`` method that, for any ``rows`` of at least 1, yields
    each channel's rows as (k, width) arrays of exactly ``rows`` rows, but
    the last of a channel, which may be shorter.  Its stripes may share
    one buffer, valid until the next, which the caller may overwrite
    meanwhile."""
    channels, height, width = src.shape
    step = step or _band_rows(width, src.dtype.itemsize, s)
    if isinstance(src, np.ndarray):
        pieces = (plane[r0 : r0 + s * step] for plane in src for r0 in range(0, height, s * step))
    else:
        pieces = src.stripes(s * step)
    bands = ((ch, slice(r0, r0 + step)) for ch in range(channels) for r0 in range(0, height // s, step))
    # The pieces come first, so zip resumes them once more after the last
    # stripe and a reader's end-of-file check runs.
    for piece, (ch, band) in zip(pieces, bands):
        yield piece.reshape(-1, s, width), ch, band


@dataclass(frozen=True)
class _Blank:
    """A stripe source of ``shape`` and ``dtype`` whose stripes are one
    reused buffer of unset samples, for a walk that fills each stripe
    itself."""

    shape: tuple[int, int, int]
    dtype: np.dtype = np.dtype("<f8")

    def stripes(self, rows: int):
        channels, height, width = self.shape
        buf = np.empty((min(rows, height), width), self.dtype)
        for _ in range(channels):
            yield from (buf[: height - r0] for r0 in range(0, height, rows))


def _writable_stripes(src, s: int, step: int | None = None, out: np.ndarray | None = None):
    """Yield (rows, spare, channel, block-row slice) for each stripe of
    ``src``, as ``_stripes(src, s, step)`` does, with a buffer of
    the stripe's shape and dtype that the caller may overwrite: the stripe
    of ``out``, an array like ``src``, if given; else the stripe itself for
    a source that makes its stripes in its own buffer, such as a
    ``RawReader``, whose next stripe overwrites it anyway, and one reused
    ``_Blank`` buffer for an array."""
    stripes = _stripes(src, s, step)
    if out is None and not isinstance(src, np.ndarray):
        for rows, ch, band in stripes:
            yield rows, rows, ch, band
    else:
        spares = _stripes(_Blank(src.shape, src.dtype) if out is None else out, s, step)
        for (rows, ch, band), (spare, _, _) in zip(stripes, spares):
            yield rows, spare, ch, band


def _gather(src) -> np.ndarray:
    """The samples of the array or stripe source ``src`` in one fresh array,
    which a source with a ``gathered`` method makes itself."""
    if hasattr(src, "gathered"):
        return src.gathered()
    out = np.empty(src.shape, src.dtype)
    for rows, spare, _, _ in _writable_stripes(src, 1, out=out):
        np.copyto(spare, rows)
    return out


def _read_through(src) -> None:
    """Read the stripe source ``src`` to its end, checking each stripe
    finite, so that its own faults are met before a caller refuses it."""
    for rows, _, _ in _stripes(src, 1):
        _check_finite(rows)


def _raw_shape(f, path) -> tuple[int, int, int]:
    """Read and check the PDT1 header at the start of ``f``; return its shape."""
    head = f.read(_RAW_HEADER.size)
    if len(head) < _RAW_HEADER.size or head[:4] != RAW_MAGIC:
        raise ValueError(f"{path}: not a PDT1 tensor file (bad magic)")
    _, c, h, w = _RAW_HEADER.unpack(head)
    if c < 1 or h < 1 or w < 1:
        raise ValueError(f"{path}: invalid tensor dimensions {(c, h, w)}")
    return c, h, w


def _payload_start(f, path, shape: tuple[int, ...], declared_by: str) -> int:
    """The position of ``f``, after checking that the rest of the file holds
    exactly the f64 samples of ``shape``."""
    start = f.tell()
    need = 8 * math.prod(shape)
    have = os.fstat(f.fileno()).st_size - start
    if have != need:
        raise ValueError(f"{path}: payload is {have} bytes, {declared_by} need {need}")
    return start


def _read_payload(f, path, shape: tuple[int, ...], declared_by: str) -> np.ndarray:
    """Read the rest of ``f`` into a fresh little-endian f64 array of ``shape``,
    checking the size against the file's before allocating anything.

    Positioned reads fill the array without moving ``f``.  A file that
    shrinks or grows while it is read raises ``ValueError``.
    """
    start = _payload_start(f, path, shape, declared_by)
    arr = np.empty(shape, dtype="<f8")
    _pread_exact(f.fileno(), arr, start, path)
    _check_ended(f.fileno(), start + arr.nbytes, path)
    return arr


def _pread_exact(fd: int, arr: np.ndarray, offset: int, path) -> None:
    """Fill the C-contiguous ``arr`` from ``fd`` at ``offset``, looping over
    short reads (one read returns at most about 2 GiB on Linux); raise if
    the file ends first."""
    view = memoryview(arr).cast("B")
    while view:
        n = os.preadv(fd, [view], offset)
        if n == 0:
            raise ValueError(f"{path}: payload shrank while it was read")
        view, offset = view[n:], offset + n


def _check_ended(fd: int, offset: int, path) -> None:
    """Raise if ``fd`` holds anything at or past ``offset``, the payload's end."""
    if os.pread(fd, 1, offset):
        raise ValueError(f"{path}: payload grew while it was read")


def load_tensor(path: str | Path) -> ImageTensor:
    """Load a tensor from PNG or PDT1, detected by file signature."""
    with open(path, "rb") as f:
        head = f.read(8)
    if head[:8] == _png.SIGNATURE:
        return load_png(path)
    if head[:4] == RAW_MAGIC:
        return read_raw(path)
    raise ValueError(f"{path}: unrecognized format (expected PNG or PDT1)")
