"""Linear degradation operators with exact pseudo-inverses.

An operator pairs a forward map with a pseudo-inverse satisfying the
Moore-Penrose identity ``A A+ A = A``.  ``A+ A`` then projects onto the
subspace the observation can see, ``I - A+ A`` onto the subspace it
cannot, and the two parts of any input always add back to the input.

Every operator gets the consistent combine ``combine`` (keep ``A+ y``,
take the null part of a raw prediction) and its check ``verify`` from
the base class.  Structured operators (pooling, channel mean, block
sensing) implement their maps directly; ``DenseOperator`` materializes
an arbitrary matrix and derives its pseudo-inverse through the SVD
engine below, which is a one-sided Jacobi iteration chosen for
determinism on small and medium dense matrices.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .metrics import ConsistencyReport, compare
from .rng import Stream
from .tensor import ImageTensor, quantize, read_raw, write_raw

_MAX_SWEEPS = 60
_SWEEP_TOL = 1e-14  # relative off-diagonal threshold for a rotation
_SWEEP_TOL_SQ = _SWEEP_TOL * _SWEEP_TOL


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
        """
        restored = self.pinv(y)
        if restored.shape != x_raw.shape:
            raise ValueError(
                f"raw prediction shape {x_raw.shape} does not match operator input {restored.shape}"
            )
        return ImageTensor(restored.data + (x_raw.data - range_project(self, x_raw).data))

    def verify(self, y: ImageTensor, x_hat: ImageTensor, quantized: bool = False) -> ConsistencyReport:
        """Compare ``y`` against ``forward(x_hat)``.

        With ``quantized=True`` the reconstruction is first snapped to 8-bit
        levels, measuring what survives image-format conversion; the library
        reports that loss but never alters the reconstruction to hide it.
        """
        return compare(y, self.forward(quantize(x_hat) if quantized else x_hat))

    def _check(self, t: ImageTensor, shape: tuple[int, int, int] | None, role: str) -> None:
        if shape is not None and t.shape != shape:
            raise ValueError(f"{role} shape {t.shape} does not match operator shape {shape}")


class IdentityOperator(LinearOperator):
    def __init__(self, shape: tuple[int, int, int]):
        self.in_shape = tuple(shape)
        self.out_shape = tuple(shape)

    def forward(self, x: ImageTensor) -> ImageTensor:
        self._check(x, self.in_shape, "input")
        return x

    def pinv(self, y: ImageTensor) -> ImageTensor:
        self._check(y, self.out_shape, "measurement")
        return y


class DenseOperator(LinearOperator):
    """Arbitrary dense matrix acting on flattened tensors.

    The pseudo-inverse is computed once at construction via the Jacobi
    SVD.  Default shapes are flat rows (1, 1, n); pass explicit shapes to
    act on images.
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
    """One-sided Jacobi SVD with a fixed cyclic sweep order.

    Sweeps rotate column pairs until every off-diagonal coupling falls
    below 1e-14 relative, capped at 60 sweeps; the fixed order makes the
    factors deterministic for a given input.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("svd expects a non-empty 2-D matrix")
    if not np.isfinite(m).all():
        raise ValueError("svd requires finite matrix entries")
    d, cap_d = m.shape
    if d >= cap_d:
        u, sigma, v = _jacobi(m)
    else:
        v, sigma, u = _jacobi(m.T)
    return SvdFactors(u=u, sigma=sigma, v=v)


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor a tall matrix (rows >= cols) by orthogonalizing its columns."""
    rows, cols = a.shape
    w = a.copy()
    v = np.eye(cols)
    for _ in range(_MAX_SWEEPS):
        g = w.T @ w  # fresh Gram matrix each sweep bounds incremental drift
        rotated = False
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                gpq = g[p, q]
                gpp = g[p, p]
                gqq = g[q, q]
                if gpq * gpq <= _SWEEP_TOL_SQ * gpp * gqq:
                    continue
                rotated = True
                tau = (gqq - gpp) / (2.0 * gpq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
                gp = g[p, :].copy()
                gq = g[q, :].copy()
                new_p = c * gp - s * gq
                new_q = s * gp + c * gq
                g[p, :] = new_p
                g[:, p] = new_p
                g[q, :] = new_q
                g[:, q] = new_q
                g[p, p] = c * c * gpp - 2.0 * c * s * gpq + s * s * gqq
                g[q, q] = s * s * gpp + 2.0 * c * s * gpq + c * c * gqq
                g[p, q] = 0.0
                g[q, p] = 0.0
        if not rotated:
            break
    norms = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    u = np.zeros((rows, rows))
    missing = []
    for k in range(cols):
        j = int(order[k])
        if norms[j] > 0.0:
            u[:, k] = w[:, j] / norms[j]
        else:
            missing.append(k)
    missing.extend(range(cols, rows))
    if missing:
        known = [u[:, k] for k in range(cols) if norms[int(order[k])] > 0.0]
        for slot, col in zip(missing, _complete_basis(known, rows, len(missing))):
            u[:, slot] = col
    return u, sigma, v[:, order]


def _complete_basis(existing: list[np.ndarray], dim: int, count: int) -> list[np.ndarray]:
    """Deterministically extend orthonormal columns to ``count`` more.

    Greedy choice: at each step take the canonical basis vector with the
    largest residual outside the current span, orthogonalize it twice,
    and normalize.
    """
    if not existing:
        eye = np.eye(dim)
        return [eye[:, k] for k in range(count)]
    basis = list(existing)
    added = []
    for _ in range(count):
        bm = np.column_stack(basis)
        residual_sq = 1.0 - np.sum(bm * bm, axis=1)
        k = int(np.argmax(residual_sq))
        vec = np.zeros(dim)
        vec[k] = 1.0
        for _ in range(2):
            vec = vec - bm @ (bm.T @ vec)
        vec /= np.linalg.norm(vec)
        basis.append(vec)
        added.append(vec)
    return added


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
