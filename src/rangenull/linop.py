"""Linear degradation operators with exact pseudo-inverses.

An operator pairs a forward map with a pseudo-inverse satisfying the
Moore-Penrose identity ``A A+ A = A``.  ``A+ A`` then projects onto the
subspace the observation can see, ``I - A+ A`` onto the subspace it
cannot, and the two parts of any input always add back to the input.

The base class defines the consistent combine ``combine`` (keep
``A+ y``, take the null part of a raw prediction), the reference every
walk's combine must equal, and its check ``verify``.  Three protocols run
an operator one stripe at a time: ``measure`` (the forward),
``reconstruct`` (the combine) and ``lift`` (``A+ y``), each into files
through ``tensor._open_writers`` or, but ``reconstruct``, into a fresh
array.  ``_WalkOperator`` (pooling, the identity as pooling at scale 1,
block sensing, channel mean) gives them walks of its own and runs its
``forward``, ``pinv`` and ``combine`` on them; any other operator
(``DenseOperator``, a user's subclass) is gathered and taken whole.
``BlockOperator`` is the walk base of the operators that measure each
block x block tile of each channel on its own, through two kernels on
one stripe of whole block rows (for block sensing, a whole channel), the
forward and ``A+``, from which it derives the combine and ``A+ y`` once
for all of them; ``reconstruct`` measures each file after its write.
``DenseOperator`` materializes an arbitrary matrix and derives its
pseudo-inverse from its SVD, taken from LAPACK through
``numpy.linalg.svd``.
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
    None for operators that accept any compatible geometry.
    """

    in_shape: tuple[int, int, int] | None = None
    out_shape: tuple[int, int, int] | None = None

    @abc.abstractmethod
    def forward(self, x: ImageTensor) -> ImageTensor:
        """Apply the degradation."""

    @abc.abstractmethod
    def pinv(self, y: ImageTensor) -> ImageTensor:
        """Apply the pseudo-inverse."""

    def combine(self, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
        """Consistent combine: ``pinv(y) + (x_raw - pinv(forward(x_raw)))``.

        Pushing the result back through ``forward`` reproduces ``y`` up to
        float rounding whenever ``forward(pinv(.))`` is the identity.
        ``pinv(y)`` is added in place into the difference; addition commutes
        exactly, so that is the same bits as the sum.  An override must give
        the same bytes, errors and check order as this method.
        """
        restored = self.pinv(y)
        self._check_raw(x_raw, restored.shape)
        out = x_raw.data - range_project(self, x_raw).data
        out += restored.data
        return ImageTensor(out)

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

    def _forward_walk(self, src) -> np.ndarray:
        """``measure``'s walk for an operator without one of its own: gather
        the array or stripe source ``src`` into one array and return its
        ``forward`` as a fresh array, checked finite."""
        return self.forward(ImageTensor(_gather(src))).data.copy()

    def _lift_source(self, y: ImageTensor):
        """``lift``'s stripe source of ``A+ y``, made after the measurement's
        checks: for an operator without a walk of its own, ``pinv``'s array."""
        return self.pinv(y).data

    def _read_first(self, y, x_raw):
        """Read the stripe source ``x_raw`` through unless it fits, so that its
        own faults come first, as when it is loaded whole; return what
        ``_stream_walk`` takes as ``first``, here nothing."""
        if x_raw.shape != self.in_shape:
            _read_through(x_raw)

    def _stream_walk(self, y: np.ndarray, x_raw, writers: list, first) -> list[np.ndarray]:
        """``reconstruct``'s walk for an operator without one of its own:
        gather the source ``x_raw`` into one array, ``combine`` it whole,
        hand it to each writer in turn and return, as fresh arrays, the
        ``forward`` of what each file holds."""
        x_hat = self.combine(ImageTensor(y), ImageTensor(_gather(x_raw))).data
        held = [x_hat := writer.write(x_hat) for writer in writers]
        return [self.forward(ImageTensor(file)).data.copy() for file in held]

    def _combine_checks(self, y: ImageTensor, x_raw) -> None:
        """The combine's checks, in its order, of ``y`` and anything with the
        ``shape`` of a raw prediction."""
        self._check(y, self.out_shape, "measurement")
        self._check_raw(x_raw, self.in_shape)

    def _check(self, t: ImageTensor, shape: tuple[int, int, int] | None, role: str) -> None:
        if shape is not None and t.shape != shape:
            raise ValueError(f"{role} shape {t.shape} does not match operator shape {shape}")

    @staticmethod
    def _check_raw(x_raw: ImageTensor, shape: tuple[int, int, int]) -> None:
        if x_raw.shape != shape:
            raise ValueError(f"raw prediction shape {x_raw.shape} does not match operator input {shape}")


class _WalkOperator(LinearOperator):
    """An operator with walks of its own: ``_forward_walk``, ``_lift_source``
    and a ``_stream_walk`` that, beside its writers, takes ``out``, an array
    like the source that receives the combine (``tensor._writable_stripes``).
    Its ``forward`` is ``measure``, its ``pinv`` is ``lift`` and its
    ``combine`` that walk with no writers, with the generic combine's bytes,
    errors and check order."""

    def forward(self, x: ImageTensor) -> ImageTensor:
        return ImageTensor(measure(self, x))

    def pinv(self, y: ImageTensor) -> ImageTensor:
        return ImageTensor(lift(self, y))

    def combine(self, y: ImageTensor, x_raw: ImageTensor) -> ImageTensor:
        self._combine_checks(y, x_raw)
        return ImageTensor(self._combine_walk(y.data, x_raw.data))

    def _combine_walk(self, y: np.ndarray, x_raw: np.ndarray) -> np.ndarray:
        """The combine of the arrays ``y`` and ``x_raw``: ``_read_first``, then
        ``_stream_walk`` with no writers into a fresh array made after it,
        so that what the first walk held is gone by then."""
        first = self._read_first(y, x_raw)
        out = np.empty_like(x_raw)
        self._stream_walk(y, x_raw, [], first, out)
        return out


class BlockOperator(_WalkOperator):
    """An operator that maps each ``block`` x ``block`` tile of each image
    channel to ``q`` measurements, stacked as channel ``c * q + row``.

    A subclass gives two kernels over one stripe of whole block rows
    ``rows``, shaped (k, block, width) as ``tensor._stripes`` yields it,
    and the matching slice of a measurement, shaped (q, k, width //
    block): ``_forward_band`` returns the stripe's measurements, and
    ``_expand`` returns ``A+`` of a measurement as tiles that broadcast
    against the stripe's.  Both may use the ``scratch`` that ``_scratch``
    makes, once per walk, in the input's dtype.  From them this class
    derives the one combine, ``(rows - A+ A rows) + A+ y``
    (``_combine_band``), and ``A+ y`` (``_lift_band``).  The walks below
    run them and keep the input's dtype.  A stripe holds about twice
    ``tensor._STRIPE_BYTES`` (``tensor._pooling_rows``), or a whole
    channel where ``whole_channels`` is set.  ``reconstruct``'s walk
    measures each file's stripe after its write, whatever its format.

    The walks check finiteness through the measurements they take
    (``_forward_checked``), which are NaN or infinite wherever a sample of
    their block is: by elementwise arithmetic for pooling, and for block
    sensing because IEEE gives ``0 * NaN = 0 * inf = NaN`` in its BLAS
    product.  So a stripe is checked sample by sample only where its
    measurement is not finite, and a measurement whole only if it overflowed.
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

    def _scratch(self, rows: int, width: int, dtype: np.dtype):
        """Scratch for the kernels on stripes of at most ``rows`` block rows
        of ``width`` samples of ``dtype``; none unless a subclass needs it."""
        return None

    def _band(self, a: np.ndarray, ch: int, band: slice) -> np.ndarray:
        """The measurements of image channel ``ch``'s block rows ``band`` in ``a``."""
        return a[ch * self.q : (ch + 1) * self.q, band]

    def _walk(self, src, stripes=_stripes):
        """``stripes`` of ``src`` (``tensor._stripes`` or
        ``tensor._writable_stripes``) in the stripes the kernels take, and
        the kernels' scratch for them."""
        _, h, w = src.shape
        b = self.block
        step = h // b if self.whole_channels else _pooling_rows(w, src.dtype.itemsize, b)
        return stripes(src, b, step), self._scratch(min(step, h // b), w, src.dtype)

    def _lift_source(self, y: ImageTensor) -> "_Lifted":
        self._check(y, self.out_shape, "measurement")
        return _Lifted(self, y.data, self._image_shape(y.shape))

    def _image_shape(self, measured: tuple[int, int, int]) -> tuple[int, int, int]:
        """The shape of the images whose measurements have the shape ``measured``."""
        cq, nh, nw = measured
        if cq % self.q:
            raise ValueError(f"measurement channels {cq} are not a multiple of q={self.q}")
        return cq // self.q, nh * self.block, nw * self.block

    def _forward_walk(self, src) -> np.ndarray:
        """The measurement of an array or a stripe source, checked finite
        through each stripe's measurement (``_forward_checked``)."""
        c, h, w = src.shape
        b = self.block
        out = np.empty((c * self.q, h // b, w // b), src.dtype)
        stripes, scratch = self._walk(src)
        finite = True  # whether every band was finite
        for rows, ch, band in stripes:
            finite &= self._forward_checked(rows, self._band(out, ch, band), scratch)
        if not finite:
            _check_finite(out)
        return out

    def _forward_checked(self, rows: np.ndarray, out: np.ndarray, scratch) -> bool:
        """``_forward_band``, then, if the measurement is not finite,
        ``ImageTensor``'s finiteness check of ``rows``, which passes when
        the measurement only overflowed.  Return whether it is finite."""
        self._forward_band(rows, scratch, out)
        if np.isfinite(out).all():
            return True
        _check_finite(rows)
        return False

    def _stream_walk(self, y: np.ndarray, x_raw, writers: list, first, out=None) -> list[np.ndarray]:
        """``reconstruct``'s walk: combine each stripe of the source ``x_raw``
        in place, in the buffer of a source that makes its own stripes or
        one reused buffer beside an array, or into ``out``
        (``tensor._writable_stripes``), hand it to each writer in turn,
        which may quantize it in place, and after each write measure what
        that file holds, checked as in ``_forward_walk``.  Only a first
        PNG, which would quantize it, has the stripe checked sample by
        sample first.  ``first`` is unused.  With no writers nothing is
        checked: ``out`` is made an ``ImageTensor``.
        """
        forwards = [np.empty_like(y) for _ in writers]
        finite = True  # whether every band of every measurement was finite
        stripes, scratch = self._walk(x_raw, partial(_writable_stripes, out=out))
        for rows, held, ch, band in stripes:
            self._combine_band(rows, self._band(y, ch, band), held, scratch)
            if writers and not isinstance(writers[0], _RawWriter):
                _check_finite(held)
            for writer, forward in zip(writers, forwards):
                held = writer.write(held, held)
                finite &= self._forward_checked(held, self._band(forward, ch, band), scratch)
        if not finite:
            for forward in forwards:
                _check_finite(forward)
        return forwards


class _Lifted:
    """``A+ y`` of the block operator ``op``, a stripe source of ``shape``:
    ``op._lift_band`` makes each whole channel, or with ``whole_channels``
    unset each stripe of whole block rows and whole stripes of ``rows``, in
    one reused buffer, which is yielded ``rows`` rows at a time.  So block
    sensing takes one product per channel whatever ``rows`` its caller
    asks for.  The kernels' scratch is made once per walk."""

    def __init__(self, op: BlockOperator, y: np.ndarray, shape: tuple[int, int, int]):
        self._op, self._y, self.shape, self.dtype = op, y, shape, y.dtype

    def stripes(self, rows: int):
        op, (_, height, width) = self._op, self.shape
        step = (height if op.whole_channels else math.lcm(rows, op.block)) // op.block
        scratch = op._scratch(min(step, height // op.block), width, self.dtype)
        for out, ch, band in _stripes(_Blank(self.shape, self.dtype), op.block, step):
            op._lift_band(op._band(self._y, ch, band), out, scratch)
            plane = out.reshape(-1, width)
            yield from (plane[r0 : r0 + rows] for r0 in range(0, len(plane), rows))


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
    source that does not fit is read through first (``_read_first``), so
    its own faults come first; then every destination is checked, then the
    combine makes its checks in its own order.  ``op._stream_walk``
    combines, writes and measures; the files are renamed into place, one
    by one, after the last stripe, so an error before the renames leaves
    every old file as it was (see ``tensor._write_atomic``).
    """
    if not paths:
        raise ValueError("reconstruct needs at least one output path")
    first = op._read_first(y, x_raw)
    for path in paths:
        check_destination(path)
    op._combine_checks(y, x_raw)
    # A non-finite sample is carried into the combine to be checked there,
    # where inf - inf would warn besides.
    with _open_writers(x_raw.shape, *paths) as writers, np.errstate(invalid="ignore"):
        forwards = op._stream_walk(y.data, x_raw, writers, first)
    return [_compare_fresh(y, forward) for forward in forwards]


def measure(op: LinearOperator, x, *paths) -> np.ndarray | None:
    """Write ``op.forward`` of the ``ImageTensor``, array or stripe source
    ``x``, taken on ``op._forward_walk``, which checks it finite, to each
    of ``paths`` through ``tensor._open_writers``, in one call to each
    writer, or, with no paths, return it as a fresh array.  Each file gets
    the forward itself, a PNG its quantization, which the last file makes
    in place.  A source that ``op._check_input`` refuses is read through
    first, so its own faults come first, then refused; faults met in the
    walk come next, then every destination is checked before the first byte
    is written.  The files are renamed into place one by one after the last
    is complete (``tensor._write_atomic``).
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
        forward = op._forward_walk(x)
    if not paths:
        return forward
    with _open_writers(forward.shape, *paths) as writers:
        for writer in writers:
            writer.write(forward, forward if writer is writers[-1] else None)


def lift(op: LinearOperator, y: ImageTensor, *paths) -> np.ndarray | None:
    """Write ``op.pinv(y)``, taken one stripe at a time from the array or
    stripe source ``op._lift_source`` makes, in ``tensor._stripes``'s
    default stripes whatever the operator, to each of ``paths`` as
    ``measure`` writes, the last file's PNG quantizing into the stripe's
    spare buffer (``tensor._writable_stripes``), or, with no paths, return
    it as a fresh array.  The measurement's checks come first, then every
    destination, then the walk's own (block sensing checks each channel
    finite)."""
    src = op._lift_source(y)
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
