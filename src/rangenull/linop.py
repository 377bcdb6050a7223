"""Linear degradation operators with exact pseudo-inverses.

An operator pairs a forward map with a pseudo-inverse satisfying the
Moore-Penrose identity ``A A+ A = A``.  ``A+ A`` then projects onto the
subspace the observation can see, ``I - A+ A`` onto the subspace it
cannot, and the two parts of any input always add back to the input.

Every operator gives two kernels, a measurer fed an image's stripes in
planar order and the source of ``A+`` of a measurement, and three
protocols run them one stripe at a time, into files through
``tensor._open_writers`` or into a fresh array: ``measure`` (the
forward), ``lift`` (``A+ y``) and ``reconstruct``, the consistent combine
(keep ``A+ y``, take the null part of a raw prediction).  ``forward``,
``pinv`` and ``combine`` wrap their arrays.  No protocol reads a sample
of an input it refuses: each checks shapes and opens its files, which
checks every destination, before its first walk, then meets the
samples' faults in its walks.  ``BlockOperator`` (pooling, the
identity, block sensing) derives both kernels from two band kernels on
one stripe of whole block rows, which ``reconstruct`` also runs to
combine each stripe in place, so it alone spells the combine for every
operator; the combine of any other operator (channel mean,
``DenseOperator``) first takes ``measure`` of the whole raw prediction.
``DenseOperator`` materializes an arbitrary matrix and derives its
pseudo-inverse from its SVD, taken from LAPACK through
``numpy.linalg.svd``.

Each array is checked finite once, by the walk that makes it, which
refuses the stripe or band it meets not finite there: see ``_Banded``,
``restore._ChannelMean``, ``reconstruct`` and ``_Lifted``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .metrics import ConsistencyReport, _compare_fresh
from .rng import Stream
from .tensor import (
    ImageTensor,
    _adopt,
    _Blank,
    _check_finite,
    _gather,
    _open_writers,
    _pooling_rows,
    _RawWriter,
    _stripes,
    _writable_stripes,
    quantize,
    read_raw,
    write_raw,
)


class LinearOperator(abc.ABC):
    """Forward map plus exact pseudo-inverse over ImageTensor values.

    ``in_shape``/``out_shape`` are (channels, height, width) tuples, or
    None for operators that accept any compatible geometry.  ``forward``
    is ``measure``, ``pinv`` is ``lift`` and ``combine`` is ``reconstruct``,
    each wrapped unchecked, on the kernels ``_measurer`` and
    ``_lift_source``, which gather the stripes and call ``forward``, and
    take ``pinv``'s array: a subclass overrides ``forward`` and ``pinv``
    (``DenseOperator``) or the kernels, or is not instantiated.
    """

    in_shape: tuple[int, int, int] | None = None
    out_shape: tuple[int, int, int] | None = None
    _lift_may_overflow = False  # if set, ``A+`` of a finite measurement can overflow: ``_Lifted`` checks it

    def __new__(cls, *args, **kwargs):
        missing = [pair for pair in (("forward", "_measurer"), ("pinv", "_lift_source"))
                   if all(getattr(cls, name) is getattr(LinearOperator, name) for name in pair)]
        if missing:
            raise TypeError("{} overrides neither {} nor {}".format(cls.__name__, *missing[0]))
        return super().__new__(cls)

    def forward(self, x: ImageTensor) -> ImageTensor:
        """Apply the degradation."""
        return _adopt(measure(self, x))

    def pinv(self, y: ImageTensor) -> ImageTensor:
        """Apply the pseudo-inverse: ``lift``'s array, finite by ``_lift_source``'s contract."""
        return _adopt(lift(self, y))

    def combine(self, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
        """Consistent combine: ``pinv(y) + (x_raw - pinv(forward(x_raw)))``,
        ``pinv(y)`` added in place into the difference (addition commutes
        exactly, so that is the sum's bits), which is ``reconstruct``'s
        array with no paths: ``forward(x_raw)`` is a first walk of
        ``measure``, or, for a ``BlockOperator``, each stripe's measurement
        within the one walk.  Pushing the result back through ``forward``
        reproduces ``y`` up to float rounding whenever ``forward(pinv(.))``
        is the identity.  ``y`` is checked first, then ``x_raw``'s shape,
        then its samples.
        """
        return _adopt(reconstruct(self, y, x_raw))

    def verify(self, y: ImageTensor, x_hat, quantized: bool = False) -> ConsistencyReport:
        """Compare ``y`` against the forward of ``x_hat``, an ``ImageTensor``,
        an array or a stripe source, taken by ``measure`` into the array
        that then holds the difference.

        With ``quantized=True`` the reconstruction, then an ``ImageTensor``
        only, is first snapped to 8-bit levels, measuring what survives
        image-format conversion; the library reports that loss but never
        alters the reconstruction to hide it.
        """
        return _compare_fresh(y.data, measure(self, quantize(x_hat) if quantized else x_hat))

    def _check_input(self, x) -> None:
        """Raise the operator's own ``ValueError`` unless it measures an input
        of the ``shape`` of ``x``, an array or a stripe source."""
        self._check(x, self.in_shape, "input")

    def _walk(self, src, stripes=_stripes):
        """``stripes`` of ``src`` (``tensor._stripes`` or ``_writable_stripes``)
        as the kernels take them, here (k, width) rows, and their scratch."""
        return ((*(a[:, 0] for a in arrays), ch, band) for *arrays, ch, band in stripes(src, 1)), None

    def _measurer(self, src, scratch) -> "_Gathered":
        """A measurer of the array or stripe source ``src``, which it may read
        in place: ``add(rows, ch, band, spare)`` takes each stripe ``_walk``
        makes, with a buffer of its shape that the call may overwrite (or
        None), refusing through ``tensor._check_finite`` the stripe or band
        whose measurement is not finite, and ``result()`` returns the
        measurement."""
        return _Gathered(self, src)

    def _measured_shape(self, shape: tuple[int, int, int]) -> tuple[int, int, int]:
        """The shape of the measurement of an input of ``shape``, for its
        files: ``out_shape``, which an operator that leaves it None lacks."""
        if self.out_shape is None:
            raise ValueError(f"{type(self).__name__} leaves out_shape None, so its measurement has no files")
        return self.out_shape

    def _lift_source(self, m: np.ndarray):
        """The source of ``A+ m`` for the measurement ``m``, made after its
        checks, here ``pinv``'s array: finite samples in ``m``'s dtype for a
        finite ``m``, unless a ``BlockOperator`` sets ``_lift_may_overflow``,
        and then ``_Lifted._made`` checks each stripe it makes."""
        return self.pinv(ImageTensor(m)).data

    def _check(self, t: ImageTensor, shape: tuple[int, int, int] | None, role: str) -> None:
        if shape is not None and t.shape != shape:
            raise ValueError(f"{role} shape {t.shape} does not match operator shape {shape}")


class _Gathered:
    """``LinearOperator``'s measurer: the stripes gathered into one array of
    the source's shape and dtype, whose ``forward``, checked finite as the
    samples are, is the measurement."""

    def __init__(self, op: LinearOperator, src):
        self._op, self._x = op, np.empty(src.shape, src.dtype)

    def add(self, rows: np.ndarray, ch: int, band: slice, spare) -> None:
        self._x[ch, band] = rows

    def result(self) -> np.ndarray:
        return self._op.forward(ImageTensor(self._x)).data.copy()


class BlockOperator(LinearOperator):
    """An operator that maps each ``block`` x ``block`` tile of each image
    channel to ``q`` measurements, stacked as channel ``c * q + row``.

    A subclass gives two band kernels over one stripe of whole block rows
    ``rows``, shaped (k, block, width) as ``tensor._stripes`` yields it,
    and the matching (q, k, width // block) slice of a measurement:
    ``_forward_band`` returns the stripe's measurements, and ``_expand``
    ``A+`` of a measurement as tiles that broadcast against the stripe's.
    Both may use the ``scratch`` that ``_scratch`` makes once per walk.
    From them this class derives, in the input's dtype, the measurer
    (``_Banded``) and ``A+ y`` (``_Lifted``); the band combine ``(rows -
    A+ A rows) + A+ y`` of each stripe in place is ``reconstruct``'s.  A
    stripe holds about twice ``tensor._STRIPE_BYTES``
    (``tensor._pooling_rows``), or a whole channel with ``whole_channels``.

    The measurements are NaN or infinite wherever a sample of their block
    is, by elementwise arithmetic for pooling, and for block sensing because
    IEEE gives ``0 * NaN = 0 * inf = NaN`` in its BLAS product, as they are
    where they overflow.  So the measurer refuses a stripe, where it takes
    it, by its measurements alone.
    """

    block: int
    q: int
    whole_channels = False

    @abc.abstractmethod
    def _forward_band(self, rows: np.ndarray, scratch, out: np.ndarray | None = None) -> np.ndarray:
        """Return the measurements of ``rows``, written into ``out`` if given."""

    @abc.abstractmethod
    def _expand(self, m: np.ndarray, scratch) -> np.ndarray:
        """Return ``A+ m`` of the measurements ``m`` of k block rows as (k,
        block or 1, width // block, block) tiles of image rows."""

    def _scratch(self, rows: int, width: int, dtype: np.dtype, forward: bool = True):
        """Scratch for the kernels on stripes of at most ``rows`` block rows
        of ``width`` samples of ``dtype``, for ``_expand`` alone unless
        ``forward``; none unless a subclass needs it."""
        return None

    def _band(self, a: np.ndarray, ch: int, band: slice) -> np.ndarray:
        """The measurements of image channel ``ch``'s block rows ``band`` in ``a``."""
        return a[ch * self.q : (ch + 1) * self.q, band]

    def _walk(self, src, stripes=_stripes):
        _, h, w = src.shape
        b = self.block
        step = h // b if self.whole_channels else _pooling_rows(w, src.dtype.itemsize, b)
        return stripes(src, b, step), self._scratch(min(step, h // b), w, src.dtype)

    def _measurer(self, src, scratch) -> "_Banded":
        return _Banded(self, src, scratch)

    def _measured_shape(self, shape: tuple[int, int, int]) -> tuple[int, int, int]:
        c, h, w = shape
        return c * self.q, h // self.block, w // self.block

    def _lift_source(self, m: np.ndarray) -> "_Lifted":
        self._check(m, self.out_shape, "measurement")
        return _Lifted(self, m, self._image_shape(m.shape))

    def _image_shape(self, measured: tuple[int, int, int]) -> tuple[int, int, int]:
        """The shape of the images whose measurements have the shape ``measured``."""
        cq, nh, nw = measured
        if cq % self.q:
            raise ValueError(f"measurement channels {cq} are not a multiple of q={self.q}")
        return cq // self.q, nh * self.block, nw * self.block


class _Banded:
    """``BlockOperator``'s measurer: each stripe's measurements taken into
    their band by ``_forward_band``, and refused there if not finite."""

    def __init__(self, op: BlockOperator, src, scratch):
        self._op, self._scratch = op, scratch
        self._m = np.empty(op._measured_shape(src.shape), src.dtype)

    def add(self, rows: np.ndarray, ch: int, band: slice, spare) -> None:
        out = self._op._forward_band(rows, self._scratch, self._op._band(self._m, ch, band))
        if not np.isfinite(out).all():
            _check_finite(out)  # raises

    def result(self) -> np.ndarray:
        return self._m


class _Lifted:
    """``A+ y`` of the block operator ``op``, a stripe source of ``shape``,
    made and checked by ``_made`` in stripes of whole block rows (whole
    channels with ``whole_channels``): in one reused buffer, yielded
    ``rows`` rows at a time, or, for ``gathered``, in one fresh array.  So
    block sensing takes one product per channel whatever ``rows`` is."""

    def __init__(self, op: BlockOperator, y: np.ndarray, shape: tuple[int, int, int]):
        self._op, self._y, self.shape, self.dtype = op, y, shape, y.dtype

    def stripes(self, rows: int):
        op, width = self._op, self.shape[2]
        for out in self._made(_Blank(self.shape, self.dtype), math.lcm(rows, op.block) // op.block):
            plane = out.reshape(-1, width)
            yield from (plane[r0 : r0 + rows] for r0 in range(0, len(plane), rows))

    def gathered(self) -> np.ndarray:
        out = np.empty(self.shape, self.dtype)
        for _ in self._made(out, _pooling_rows(self.shape[2], self.dtype.itemsize, self._op.block)):
            pass
        return out

    def _made(self, target, step: int):
        """Copy ``op._expand`` of ``y`` down each block of each stripe of
        ``step`` block rows (a whole channel with ``whole_channels``) of
        ``target``, with ``_expand``'s scratch alone, checked if ``A+`` can overflow."""
        op, (_, height, width) = self._op, self.shape
        step = height // op.block if op.whole_channels else step
        scratch = op._scratch(min(step, height // op.block), width, self.dtype, forward=False)
        for out, ch, band in _stripes(target, op.block, step):
            np.copyto(out.reshape(len(out), op.block, -1, op.block), op._expand(op._band(self._y, ch, band), scratch))
            if op._lift_may_overflow:
                _check_finite(out)
            yield out


class DenseOperator(LinearOperator):
    """Arbitrary dense matrix acting on flattened tensors.

    The pseudo-inverse is computed once at construction from the LAPACK
    SVD (``svd`` below).  Default shapes are flat rows (1, 1, n); pass
    explicit shapes to act on images.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        in_shape: tuple[int, int, int] | None = None,
        out_shape: tuple[int, int, int] | None = None,
        tol: float = 1e-12,
    ):
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError("operator matrix must be 2-D")
        d, cap_d = m.shape
        self.matrix = m
        self.pinv_matrix = pinv_from_svd(svd(m), tol)
        self.in_shape = tuple(in_shape) if in_shape is not None else (1, 1, cap_d)
        self.out_shape = tuple(out_shape) if out_shape is not None else (1, 1, d)
        if int(np.prod(self.in_shape)) != cap_d or int(np.prod(self.out_shape)) != d:
            raise ValueError("declared shapes do not match the matrix dimensions")

    def forward(self, x: ImageTensor) -> ImageTensor:
        self._check(x, self.in_shape, "input")
        return ImageTensor((self.matrix @ x.data.ravel()).reshape(self.out_shape))

    def pinv(self, y: ImageTensor) -> ImageTensor:
        self._check(y, self.out_shape, "measurement")
        return ImageTensor((self.pinv_matrix @ y.data.ravel()).reshape(self.in_shape))


@dataclass(frozen=True)
class SvdFactors:
    """Factorization ``matrix = u @ diag(sigma) @ v.T`` with square
    orthogonal ``u`` (d x d) and ``v`` (D x D); ``sigma`` holds the
    min(d, D) singular values in descending order."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(matrix: np.ndarray) -> SvdFactors:
    """Full SVD from LAPACK (``numpy.linalg.svd``).

    Deterministic for a given input on one machine; ``LinAlgError`` (a
    ``ValueError``) is raised if LAPACK does not converge.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("svd expects a non-empty 2-D matrix")
    if not np.isfinite(m).all():
        raise ValueError("svd requires finite matrix entries")
    u, sigma, vt = np.linalg.svd(m)
    return SvdFactors(u=u, sigma=sigma, v=vt.T)


def pinv_from_svd(factors: SvdFactors, tol: float = 1e-12) -> np.ndarray:
    """Pseudo-inverse matrix from SVD factors.

    Singular values above ``tol`` relative to the largest are inverted,
    the rest are zeroed, which keeps rank-deficient inputs well defined
    (the all-zero matrix maps to the all-zero pseudo-inverse).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    sigma = factors.sigma
    k = sigma.shape[0]
    smax = float(sigma[0]) if k else 0.0
    inv = np.zeros(k)
    if smax > 0.0:
        mask = sigma > tol * smax
        np.divide(1.0, sigma, out=inv, where=mask)
    return (factors.v[:, :k] * inv) @ factors.u[:, :k].T


def range_project(op: LinearOperator, x: ImageTensor) -> ImageTensor:
    """Part of ``x`` the observation determines: ``pinv(forward(x))``."""
    return op.pinv(op.forward(x))


def null_project(op: LinearOperator, x: ImageTensor) -> ImageTensor:
    """Part of ``x`` invisible to the observation: ``x - range_project(x)``."""
    return ImageTensor(x.data - range_project(op, x).data)


def reconstruct(op: LinearOperator, y, x_raw, *paths) -> list[ConsistencyReport] | np.ndarray:
    """Write ``op.combine(y, x_raw)`` to each of ``paths``, in order, and
    return ``op.verify`` of what each file holds, or, with no paths, return
    the combine as a fresh array in ``x_raw``'s dtype; ``combine`` is that
    array.  ``y`` is an ``ImageTensor`` or a finite array, and the raw
    prediction, taken one stripe at a time, an ``ImageTensor``, an array or
    a stripe source.

    A block operator's stripe is measured in place (``_forward_band``) and
    expanded (``_expand``) here; any other operator needs all of ``A
    x_raw``, its ``measure``, as a first walk.
    The one walk then makes each stripe ``(rows - A+ (A x_raw)) + A+ y``
    in a buffer from ``tensor._writable_stripes`` (with no paths, the
    stripe of the fresh array) and hands it to each writer in turn, which
    may quantize it in place, then to that file's measurer: the last may
    overwrite it, the others share one spare stripe.  A path's name picks
    its format (``tensor._open_writers``).

    The checks come in one order for every operator and source: every
    destination's, as the files are opened for the prediction's shape,
    then ``y``'s (by ``op._lift_source``, which makes the source of ``A+
    y``), then the prediction's shape, then its samples as the walks meet
    them, each combined stripe before its first write unless a block
    operator's PDT1 measurer checks it after.  The files are renamed into
    place one by one after the last stripe, so an error before leaves
    every old file as it was.
    """
    x_raw = x_raw.data if isinstance(x_raw, ImageTensor) else x_raw
    y = y.data if isinstance(y, ImageTensor) else y
    banded = isinstance(op, BlockOperator)
    # A non-finite sample is carried into the walks to be refused where it
    # is met, where inf - inf would warn besides.
    with _open_writers(x_raw.shape, *paths) as writers, np.errstate(invalid="ignore"):
        lifted = op._lift_source(y)
        if x_raw.shape != lifted.shape:
            raise ValueError(f"raw prediction shape {x_raw.shape} does not match operator input {lifted.shape}")
        raw_lifted = None if banded else op._lift_source(measure(op, x_raw))
        out = None if paths else np.empty(x_raw.shape, x_raw.dtype)
        stripes, scratch = op._walk(x_raw, partial(_writable_stripes, out=out))
        measurers = [op._measurer(_Blank(x_raw.shape, x_raw.dtype), scratch) for _ in writers]
        spare = None
        for rows, held, ch, band in stripes:
            if banded:  # ``held`` may be ``rows``: ``A rows`` is expanded before it is written, then freed
                tiles = held.reshape(len(held), op.block, -1, op.block)
                np.subtract(rows.reshape(tiles.shape), op._expand(op._forward_band(rows, scratch), scratch), out=tiles)
                tiles += op._expand(op._band(y, ch, band), scratch)
            else:
                np.subtract(rows, raw_lifted[ch, band], out=held)
                held += lifted[ch, band]
            if not (writers and banded and isinstance(writers[0], _RawWriter)):
                _check_finite(held)
            if spare is None and len(writers) > 1 and not banded:
                spare = np.empty_like(held)  # a channel's first stripe is its largest
            others = None if spare is None else spare[: len(held)]
            for writer, measurer in zip(writers, measurers):
                held = writer.write(held, held)
                measurer.add(held, ch, band, held if measurer is measurers[-1] else others)
        forwards = [measurer.result() for measurer in measurers]  # frees their buffers before a PNG encodes
    return [_compare_fresh(y, forward) for forward in forwards] if paths else out


def measure(op: LinearOperator, x, *paths) -> np.ndarray | None:
    """Write ``op.forward`` of the ``ImageTensor``, array or stripe source
    ``x``, taken by ``op``'s measurer, to each of ``paths`` through
    ``tensor._open_writers``, in one call to each writer, or, with no
    paths, return it as a fresh array; with no paths it is also the first
    walk of every combine but a block operator's.  Each file gets the
    forward, a PNG its quantization, which the last file makes in place.
    A source that ``op._check_input`` refuses is refused before any of its
    samples is read; the files are opened next, for the shape
    ``op._measured_shape`` gives, with every destination's checks, then
    the walk meets the samples' faults, each stripe's where it is
    measured, all before a file is renamed into place.  A stripe source's
    own stripe is the measurer's spare buffer.
    """
    x = x.data if isinstance(x, ImageTensor) else x
    op._check_input(x)
    # A non-finite sample is carried into the walk to be refused there, where
    # inf - inf would warn besides.  With no paths, ``out_shape`` may be None.
    shape = op._measured_shape(x.shape) if paths else None
    with _open_writers(shape, *paths) as writers, np.errstate(invalid="ignore"):
        stripes, scratch = op._walk(x)
        measurer = op._measurer(x, scratch)
        for rows, ch, band in stripes:
            measurer.add(rows, ch, band, None if isinstance(x, np.ndarray) else rows)
        forward = measurer.result()
        for writer in writers:
            writer.write(forward, forward if writer is writers[-1] else None)
    return None if paths else forward


def lift(op: LinearOperator, y: ImageTensor, *paths) -> np.ndarray | None:
    """Write ``op.pinv(y)``, taken one stripe at a time from the source
    ``op._lift_source`` makes, in ``tensor._stripes``'s default stripes, to
    each of ``paths`` as ``measure`` writes, the last file's PNG quantizing
    into the stripe's spare buffer, or, with no paths, return it as a fresh
    array (``tensor._gather``).  The measurement's checks come first, then
    every destination's, then the walk's (block sensing checks each channel)."""
    src = op._lift_source(y.data)
    if not paths:
        return _gather(src)
    with _open_writers(src.shape, *paths) as writers:
        for rows, spare, _, _ in _writable_stripes(src, 1):
            for writer in writers:
                writer.write(rows, spare if writer is writers[-1] else None)


@dataclass(frozen=True)
class MoorePenroseResiduals:
    """Max-abs Monte-Carlo residuals of the four pseudo-inverse conditions:
    r1: A A+ A = A, r2: A+ A A+ = A+, r3: A A+ symmetric, r4: A+ A symmetric."""

    r1: float
    r2: float
    r3: float
    r4: float


def mp_residuals(op: LinearOperator, trials: int = 8, seed: int = 0) -> MoorePenroseResiduals:
    """Probe the Moore-Penrose conditions with seeded unit-norm vectors.

    The identity conditions are checked by direct application; the two
    symmetry conditions via the bilinear form <u, Mv> - <Mu, v>, which
    only needs forward/pinv evaluations.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if op.in_shape is None or op.out_shape is None:
        raise ValueError("mp_residuals needs an operator with bound shapes")
    stream = Stream(seed)

    def unit(shape: tuple[int, int, int]) -> ImageTensor:
        vec = stream.gaussian(shape)
        return ImageTensor(vec / np.linalg.norm(vec))

    r1 = r2 = r3 = r4 = 0.0
    for _ in range(trials):
        x = unit(op.in_shape)
        ax = op.forward(x)
        r1 = max(r1, float(np.max(np.abs(op.forward(op.pinv(ax)).data - ax.data))))
        y = unit(op.out_shape)
        ay = op.pinv(y)
        r2 = max(r2, float(np.max(np.abs(op.pinv(op.forward(ay)).data - ay.data))))
        u, v = unit(op.out_shape), unit(op.out_shape)
        lhs = float(np.vdot(u.data, op.forward(op.pinv(v)).data))
        rhs = float(np.vdot(op.forward(op.pinv(u)).data, v.data))
        r3 = max(r3, abs(lhs - rhs))
        p, q = unit(op.in_shape), unit(op.in_shape)
        lhs = float(np.vdot(p.data, op.pinv(op.forward(q)).data))
        rhs = float(np.vdot(op.pinv(op.forward(p)).data, q.data))
        r4 = max(r4, abs(lhs - rhs))
    return MoorePenroseResiduals(r1=r1, r2=r2, r3=r3, r4=r4)


def save_matrix(matrix: np.ndarray, path) -> None:
    """Store a dense d x D matrix as a PDT1 tensor with channels=1."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    write_raw(ImageTensor(m[np.newaxis]), path)


def load_matrix(path) -> np.ndarray:
    t = read_raw(path)
    if t.channels != 1:
        raise ValueError(f"{path}: matrix tensors must have channels=1, got {t.channels}")
    return t.data[0].copy()
