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
(keep ``A+ y``, take the null part of a raw prediction), whose one walk
also makes ``combine``.  ``BlockOperator`` (pooling, the identity,
block sensing) derives both kernels from two band kernels on one stripe
of whole block rows and measures each stripe of the combine in place;
the combine of any other operator (channel mean, ``DenseOperator``)
measures the whole raw prediction first.  ``DenseOperator`` materializes
an arbitrary matrix and derives its pseudo-inverse from its SVD, taken
from LAPACK through ``numpy.linalg.svd``.
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
    _read_through,
    _stripes,
    _writable_stripes,
    check_destination,
    quantize,
    read_raw,
    write_raw,
)


class LinearOperator(abc.ABC):
    """Forward map plus exact pseudo-inverse over ImageTensor values.

    ``in_shape``/``out_shape`` are (channels, height, width) tuples, or
    None for operators that accept any compatible geometry.  ``forward``
    is ``measure`` and ``pinv`` is ``lift``, on the kernels ``_measurer``
    and ``_lift_source``, which gather the stripes and call ``forward``,
    and take ``pinv``'s array: a subclass overrides ``forward`` and
    ``pinv`` (``DenseOperator``) or the kernels, or is not instantiated.
    """

    in_shape: tuple[int, int, int] | None = None
    out_shape: tuple[int, int, int] | None = None
    _lift_may_overflow = False  # if set, a misfit prediction is refused after ``A+ y`` is read through

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
        """Apply the pseudo-inverse."""
        return ImageTensor(lift(self, y))

    def combine(self, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
        """Consistent combine: ``pinv(y) + (x_raw - pinv(forward(x_raw)))``,
        ``pinv(y)`` added in place into the difference (addition commutes
        exactly, so that is the sum's bits).  Pushing the result back through
        ``forward`` reproduces ``y`` up to float rounding whenever
        ``forward(pinv(.))`` is the identity.  ``y`` is checked first, then
        an overflowing ``pinv(y)`` where ``x_raw`` does not fit.
        """
        return _adopt(_combined(self, y.data, x_raw.data))

    def verify(self, y: ImageTensor, x_hat, quantized: bool = False) -> ConsistencyReport:
        """Compare ``y`` against the forward of ``x_hat``, an ``ImageTensor``,
        an array or a stripe source, taken by ``measure`` into the array
        that then holds the difference.

        With ``quantized=True`` the reconstruction, then an ``ImageTensor``
        only, is first snapped to 8-bit levels, measuring what survives
        image-format conversion; the library reports that loss but never
        alters the reconstruction to hide it.
        """
        return _compare_fresh(y, measure(self, quantize(x_hat) if quantized else x_hat))

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
        None), and ``result()`` returns the measurement and whether it is
        known to be finite."""
        return _Gathered(self, src)

    def _lift_source(self, m: np.ndarray):
        """The source of ``A+ m`` for the measurement ``m``, made after its
        checks: ``pinv``'s array."""
        return self.pinv(ImageTensor(m)).data

    def _raw_shape(self, y: ImageTensor) -> tuple[int, int, int] | None:
        """The shape of a raw prediction that fits ``y``; ``reconstruct``
        reads any other through first, so that its own faults come first."""
        return self.in_shape

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

    def result(self) -> tuple[np.ndarray, bool]:
        return self._op.forward(ImageTensor(self._x)).data.copy(), True


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
    (``_Banded``), the combine ``(rows - A+ A rows) + A+ y`` of each stripe
    in place (``_combine_band``) and ``A+ y`` (``_lift_band``,
    ``_Lifted``).  A stripe holds about twice ``tensor._STRIPE_BYTES``
    (``tensor._pooling_rows``), or a whole channel with ``whole_channels``.

    The measurements are NaN or infinite wherever a sample of their block
    is, by elementwise arithmetic for pooling, and for block sensing because
    IEEE gives ``0 * NaN = 0 * inf = NaN`` in its BLAS product.  So the
    measurer checks a stripe sample by sample only where its measurement
    is not finite, and a measurement whole only if it overflowed.
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

    def _combine_band(self, rows: np.ndarray, y: np.ndarray, out: np.ndarray, scratch) -> None:
        """Write ``(rows - A+ A rows) + A+ y`` into ``out``, which may be
        ``rows``: the measurement is taken and expanded first.  Addition
        commutes exactly, so these are the generic combine's bytes."""
        tiles = out.reshape(len(out), self.block, -1, self.block)
        np.subtract(rows.reshape(tiles.shape), self._expand(self._forward_band(rows, scratch), scratch), out=tiles)
        tiles += self._expand(y, scratch)

    def _lift_band(self, y: np.ndarray, out: np.ndarray, scratch) -> None:
        """Write ``A+ y`` of the measurements ``y`` into ``out``."""
        np.copyto(out.reshape(len(out), self.block, -1, self.block), self._expand(y, scratch))

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
    their band by ``_forward_band``, the stripe checked sample by sample
    where they are not finite."""

    def __init__(self, op: BlockOperator, src, scratch):
        c, h, w = src.shape
        self._op, self._scratch, self._finite = op, scratch, True
        self._m = np.empty((c * op.q, h // op.block, w // op.block), src.dtype)

    def add(self, rows: np.ndarray, ch: int, band: slice, spare) -> None:
        out = self._op._forward_band(rows, self._scratch, self._op._band(self._m, ch, band))
        if not np.isfinite(out).all():
            _check_finite(rows)
            self._finite = False

    def result(self) -> tuple[np.ndarray, bool]:
        return self._m, self._finite


class _Lifted:
    """``A+ y`` of the block operator ``op``, a stripe source of ``shape``,
    made by ``op._lift_band`` in stripes of whole block rows (whole
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
        """Make ``A+ y`` in each stripe of ``step`` block rows (a whole channel
        with ``whole_channels``) of ``target``, with the scratch of
        ``_expand`` alone, and yield it."""
        op, (_, height, width) = self._op, self.shape
        step = height // op.block if op.whole_channels else step
        scratch = op._scratch(min(step, height // op.block), width, self.dtype, forward=False)
        for out, ch, band in _stripes(target, op.block, step):
            op._lift_band(op._band(self._y, ch, band), out, scratch)
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


def reconstruct(op: LinearOperator, y: ImageTensor, x_raw, *paths) -> list[ConsistencyReport]:
    """Write ``op.combine(y, x_raw)`` to each of ``paths``, in order, and
    return ``op.verify`` of what each file holds, taking the raw prediction
    one stripe at a time from the array or stripe source ``x_raw``.

    A path's name picks its format (``tensor._open_writers``); a PNG
    quantizes each stripe in place, and every later file receives that.  A
    source that fits ``y`` (``op._raw_shape``) is measured first where the
    combine needs all of ``A x_raw`` (``_raw_measured``); any other is read
    through first, so that its own faults come first, and measured only
    once it has passed the checks: every destination's, then the
    combine's (``_combine_checks``).  ``_reconstruct`` then combines,
    writes and measures; the files are renamed into place one by one after
    the last stripe, so an error before leaves every old file as it was.
    """
    if not paths:
        raise ValueError("reconstruct needs at least one output path")
    fits = x_raw.shape == op._raw_shape(y)
    if not fits:
        _read_through(x_raw)
    raw = _raw_measured(op, x_raw) if fits else None
    for path in paths:
        check_destination(path)
    lifted = _combine_checks(op, y.data, x_raw)
    if not fits:
        raw = _raw_measured(op, x_raw)
    # A non-finite sample is carried into the combine to be checked there,
    # where inf - inf would warn besides.
    with _open_writers(x_raw.shape, *paths) as writers, np.errstate(invalid="ignore"):
        forwards = _reconstruct(op, y.data, lifted, x_raw, raw, writers)
    return [_compare_fresh(y, forward) for forward in forwards]


def _combined(op: LinearOperator, y: np.ndarray, x_raw: np.ndarray) -> np.ndarray:
    """The combine of the arrays ``y`` and ``x_raw``, in ``x_raw``'s dtype,
    checked: ``_reconstruct`` with no writers into a fresh array, made once
    the first walk has let go of what it held."""
    lifted = _combine_checks(op, y, x_raw)
    raw = _raw_measured(op, x_raw)
    out = np.empty_like(x_raw)
    _reconstruct(op, y, lifted, x_raw, raw, [], out)
    return out


def _combine_checks(op: LinearOperator, y: np.ndarray, x_raw):
    """The combine's checks, in its order, of the measurement ``y`` and
    anything with the ``shape`` of a raw prediction ``x_raw``: ``y``'s, by
    ``op._lift_source``, whose ``A+ y`` it returns, then, where ``x_raw``
    does not fit, ``A+ y``'s read-through if it can overflow, and the fit."""
    lifted = op._lift_source(y)
    if x_raw.shape != lifted.shape:
        if op._lift_may_overflow:
            _read_through(lifted)
        raise ValueError(f"raw prediction shape {x_raw.shape} does not match operator input {lifted.shape}")
    return lifted


def _raw_measured(op: LinearOperator, x_raw):
    """The first walk, for an operator whose combine needs all of ``A
    x_raw``: ``x_raw``'s measurement, read through again, checked, if it is
    not finite, so that a bad sample is refused here and an overflow that
    the measurer leaves (the channel mean's) is left to the combine.  None
    for a block operator, which measures each stripe in place."""
    if isinstance(op, BlockOperator):
        return None
    with np.errstate(invalid="ignore"):
        raw, finite = _measured(op, x_raw).result()
    if not (finite or np.isfinite(raw).all()):
        _read_through(x_raw)
    return raw


def _reconstruct(op: LinearOperator, y: np.ndarray, lifted, x_raw, raw, writers: list, out=None) -> list[np.ndarray]:
    """The one walk of the combine: make each stripe of the source ``x_raw``
    ``(rows - A+ (A x_raw)) + A+ y`` in a buffer from
    ``tensor._writable_stripes``, hand it to each writer in turn, which may
    quantize it in place, and after each write to that file's measurer,
    the last of which may overwrite it, the others one shared spare stripe;
    return, checked, what each measures.  A block operator measures each
    stripe in place (``_combine_band``); any other takes ``A+`` of the first
    walk's measurement ``raw`` and ``A+ y``, ``lifted``, as arrays.  Each
    stripe is checked once it is combined, so before its first write,
    unless that is a PDT1's and a block operator's measurer checks it after.
    """
    banded = isinstance(op, BlockOperator)
    stripes, scratch = op._walk(x_raw, partial(_writable_stripes, out=out))
    measurers = [op._measurer(_Blank(x_raw.shape, x_raw.dtype), scratch) for _ in writers]
    raw_lifted = None if banded else op._lift_source(raw)
    spare = None
    for rows, held, ch, band in stripes:
        if banded:
            op._combine_band(rows, op._band(y, ch, band), held, scratch)
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
    return [_checked(measurer) for measurer in measurers]


def _measured(op: LinearOperator, src):
    """A measurer of ``op`` fed every stripe of the array or stripe source
    ``src``, a stripe source's own stripe as its spare buffer."""
    stripes, scratch = op._walk(src)
    measurer = op._measurer(src, scratch)
    for rows, ch, band in stripes:
        measurer.add(rows, ch, band, None if isinstance(src, np.ndarray) else rows)
    return measurer


def _checked(measurer) -> np.ndarray:
    """The measurement ``measurer`` has taken, checked finite unless it
    knows it is."""
    m, finite = measurer.result()
    if not finite:
        _check_finite(m)
    return m


def measure(op: LinearOperator, x, *paths) -> np.ndarray | None:
    """Write ``op.forward`` of the ``ImageTensor``, array or stripe source
    ``x``, taken by ``op``'s measurer and checked finite, to each of
    ``paths`` through ``tensor._open_writers``, in one call to each writer,
    or, with no paths, return it as a fresh array.  Each file gets the
    forward, a PNG its quantization, which the last file makes in place.
    A source that ``op._check_input`` refuses is read through, so its own
    faults come first, then refused; the walk's faults come next, then
    every destination's, before the first byte is written.
    """
    if isinstance(x, ImageTensor):
        x = x.data
    try:
        op._check_input(x)
    except ValueError:
        _read_through(x)
        raise
    # A non-finite sample is carried into the walk to be checked there,
    # where inf - inf would warn besides.
    with np.errstate(invalid="ignore"):
        forward = _checked(_measured(op, x))
    if not paths:
        return forward
    with _open_writers(forward.shape, *paths) as writers:
        for writer in writers:
            writer.write(forward, forward if writer is writers[-1] else None)


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
