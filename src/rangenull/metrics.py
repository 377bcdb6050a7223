"""Quantitative comparison of tensors and amplified error-map rendering."""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .tensor import ImageTensor, _adopt

PSNR_CAP = 300.0


@dataclass(frozen=True)
class ConsistencyReport:
    """Error statistics between two same-shape tensors.

    ``psnr`` is measured against peak 1.0 and capped at 300 dB; ``l1``,
    ``mse`` and ``max_abs`` saturate at the largest finite float, which
    keeps ``psnr`` at or above -3082.6 dB.  Reports thus stay finite and
    JSON-safe.  ``pixel_count`` is the number of samples compared
    (channels * height * width).
    """

    psnr: float
    l1: float
    mse: float
    max_abs: float
    pixel_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def compare(a: ImageTensor, b: ImageTensor) -> ConsistencyReport:
    """Symmetric PSNR / L1 / MSE / max-abs report for two tensors.

    All statistics come from one full-size buffer: the difference, made
    absolute in place for L1 and max-abs, then squared in place for the
    MSE.  The figures are those of ``d = abs(a - b)``, ``mean(d)``,
    ``max(d)`` and ``mean(d * d)``, bit for bit, saturated at the largest float.
    Only where the sum of ``d`` overflows is ``mean(d)`` taken as
    ``max(d) * mean(d / max(d))``.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _report(np.subtract(a.data, b.data))


def _compare_fresh(a: np.ndarray, b: np.ndarray) -> ConsistencyReport:
    """``compare(ImageTensor(a), ImageTensor(b))`` for a finite array ``a``,
    such as an ``ImageTensor``'s data, and a fresh finite float64 array
    ``b`` that the caller gives up, such as the measurement a stripe walk
    returns: the difference is computed into ``b`` itself, so no other
    array of its size is allocated."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _report(np.subtract(a, b, out=b))


def _report(diff: np.ndarray) -> ConsistencyReport:
    """The report of ``compare`` from the difference ``diff``, which it overwrites."""
    np.abs(diff, out=diff)
    top = sys.float_info.max
    l1 = float(np.mean(diff))
    max_abs = min(float(np.max(diff)), top)
    if l1 == math.inf:
        # The sum overflowed, not necessarily the mean.  The squares of
        # differences this large overflow whatever the count.
        l1 = min(max_abs * float(np.mean(np.divide(diff, max_abs, out=diff))), top)
        mse = top
    else:
        np.square(diff, out=diff)
        mse = min(float(np.mean(diff)), top)
    psnr = PSNR_CAP if mse == 0.0 else min(PSNR_CAP, 10.0 * math.log10(1.0 / mse))
    return ConsistencyReport(psnr=psnr, l1=l1, mse=mse, max_abs=max_abs, pixel_count=int(diff.size))


def error_map(gt: ImageTensor, sr: ImageTensor, gain: float = 5.0) -> ImageTensor:
    """Render per-pixel error as a heat image.

    Each channel's absolute difference is amplified by ``gain`` and clipped
    to 1, the channels are averaged into a scalar magnitude, and the
    magnitude drives a monotone black-red-yellow-white ramp with
    breakpoints at 0, 1/3, 2/3 and 1:

        red   = clip(3m,     0, 1)
        green = clip(3m - 1, 0, 1)
        blue  = clip(3m - 2, 0, 1)
    """
    if gt.shape != sr.shape:
        raise ValueError(f"shape mismatch: {gt.shape} vs {sr.shape}")
    if not gain > 0.0:
        raise ValueError(f"gain must be positive, got {gain}")
    if gain == math.inf:
        # 0 * inf would make NaN samples wherever the inputs agree.
        raise ValueError(f"gain must be a positive finite number, got {gain}")
    amplified = np.minimum(gain * np.abs(gt.data - sr.data), 1.0)
    magnitude = amplified.mean(axis=0)
    red = np.clip(3.0 * magnitude, 0.0, 1.0)
    green = np.clip(3.0 * magnitude - 1.0, 0.0, 1.0)
    blue = np.clip(3.0 * magnitude - 2.0, 0.0, 1.0)
    return _adopt(np.stack([red, green, blue]))  # clipped: finite even where a difference overflows
