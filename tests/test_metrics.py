"""Comparison reports and error-map rendering."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangenull import ImageTensor, compare, error_map, pd_combine, pool_down
from rangenull.metrics import PSNR_CAP

# Finite samples with signed zeros and exact ties drawn often.
_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


def _compare_oracle(a, b):
    # The three-temporary expression ``compare`` computed before it worked
    # in one buffer.
    diff = np.abs(a.data - b.data)
    mse = float(np.mean(diff * diff))
    psnr = PSNR_CAP if mse == 0.0 else min(PSNR_CAP, 10.0 * math.log10(1.0 / mse))
    return psnr, float(np.mean(diff)), mse, float(np.max(diff)), int(diff.size)


def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestCompare:
    def test_identical_inputs_hit_cap(self, stream):
        a = ImageTensor(stream.uniform((3, 4, 4)))
        report = compare(a, a)
        assert report.mse == 0.0
        assert report.psnr == 300.0
        assert report.l1 == 0.0
        assert report.max_abs == 0.0
        assert report.pixel_count == 48

    def test_uniform_offset(self, stream):
        a = ImageTensor(stream.uniform((1, 8, 8)))
        b = ImageTensor(a.data + 0.01)
        report = compare(a, b)
        assert abs(report.mse - 1e-4) < 1e-12
        assert abs(report.psnr - 40.0) < 1e-9
        assert abs(report.l1 - 0.01) < 1e-12
        assert abs(report.max_abs - 0.01) < 1e-15

    def test_single_pixel_error(self):
        a = ImageTensor(np.zeros((1, 1, 10)))
        data = np.zeros((1, 1, 10))
        data[0, 0, 3] = 0.1
        report = compare(a, ImageTensor(data))
        assert abs(report.l1 - 0.01) < 1e-15
        assert abs(report.mse - 1e-3) < 1e-15
        assert abs(report.max_abs - 0.1) < 1e-15

    @given(
        arrays(np.float64, (2, 3, 3), elements=st.floats(-5, 5, allow_nan=False, width=64)),
        arrays(np.float64, (2, 3, 3), elements=st.floats(-5, 5, allow_nan=False, width=64)),
    )
    def test_symmetric(self, a, b):
        ta, tb = ImageTensor(a), ImageTensor(b)
        assert compare(ta, tb) == compare(tb, ta)

    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, shape, elements=_SAMPLES),
                arrays(np.float64, shape, elements=_SAMPLES),
                st.booleans(),
            )
        )
    )
    def test_matches_three_temporary_oracle_bit_for_bit(self, case):
        a, b, equal = case
        ta, tb = ImageTensor(a), ImageTensor(a.copy() if equal else b)
        report = compare(ta, tb)
        fields = (report.psnr, report.l1, report.mse, report.max_abs, report.pixel_count)
        assert _bits(fields) == _bits(_compare_oracle(ta, tb))
        if equal:
            assert report.psnr == PSNR_CAP

    def test_invariants(self, stream):
        a = ImageTensor(stream.gaussian((3, 5, 5)))
        b = ImageTensor(stream.gaussian((3, 5, 5)))
        report = compare(a, b)
        assert 0.0 <= report.l1 <= report.max_abs
        assert report.mse <= report.max_abs**2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare(ImageTensor(np.zeros((1, 2, 2))), ImageTensor(np.zeros((1, 2, 3))))

    def test_json_is_flat_numbers(self, stream):
        a = ImageTensor(stream.uniform((1, 2, 2)))
        payload = json.loads(json.dumps(compare(a, a).to_dict()))
        assert sorted(payload) == ["l1", "max_abs", "mse", "pixel_count", "psnr"]
        assert all(isinstance(v, (int, float)) for v in payload.values())

    def test_wiring_with_pooling(self, stream):
        y = ImageTensor(stream.uniform((3, 4, 4)))
        r = ImageTensor(stream.gaussian((3, 12, 12)) * 7)
        report = compare(y, pool_down(pd_combine(y, r, 3), 3))
        assert report.max_abs <= 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestSaturation:
    """Finite inputs whose differences or squared differences overflow give
    figures saturated at the largest float, and a finite PSNR."""

    def test_squared_error_overflow(self):
        report = compare(ImageTensor(np.full((1, 2, 2), 1e200)), ImageTensor(np.zeros((1, 2, 2))))
        assert (report.l1, report.max_abs) == (1e200, 1e200)
        assert report.mse == sys.float_info.max
        assert report.psnr == 10.0 * math.log10(1.0 / sys.float_info.max)
        assert report.psnr >= -3082.6
        json.loads(json.dumps(report.to_dict()))

    def test_difference_overflow(self):
        report = compare(ImageTensor(np.full((1, 1, 3), 1e308)), ImageTensor(np.full((1, 1, 3), -1e308)))
        assert report.l1 == report.max_abs == report.mse == sys.float_info.max
        assert math.isfinite(report.psnr)

    def test_sum_overflow_keeps_the_mean(self):
        report = compare(ImageTensor(np.full((1, 2, 2), 1e308)), ImageTensor(np.zeros((1, 2, 2))))
        assert report.l1 == 1e308 <= report.max_abs
        assert report.mse == sys.float_info.max


class TestErrorMap:
    def test_zero_difference_is_black(self, stream):
        a = ImageTensor(stream.uniform((3, 4, 4)))
        assert np.all(error_map(a, a).data == 0.0)

    def test_saturated_difference_is_white(self):
        a = ImageTensor(np.zeros((1, 2, 2)))
        b = ImageTensor(np.full((1, 2, 2), 0.2))
        out = error_map(a, b, gain=5.0)  # 5 * 0.2 = 1 saturates the ramp
        assert np.all(out.data == 1.0)

    def test_midpoint_color(self):
        a = ImageTensor(np.zeros((1, 1, 1)))
        b = ImageTensor(np.full((1, 1, 1), 0.1))
        out = error_map(a, b, gain=5.0)  # magnitude 0.5
        assert out.data.ravel().tolist() == [1.0, 0.5, 0.0]

    def test_channel_mean_before_ramp(self):
        gt = ImageTensor(np.zeros((3, 1, 1)))
        sr = ImageTensor(np.array([0.3, 0.0, 0.0]).reshape(3, 1, 1))
        out = error_map(gt, sr, gain=1.0)  # channel magnitudes (0.3, 0, 0) -> mean 0.1
        assert abs(out.data[0, 0, 0] - 0.3) < 1e-12

    def test_monotone_in_difference(self, stream):
        base = ImageTensor(np.zeros((3, 6, 6)))
        small = ImageTensor(stream.uniform((3, 6, 6)) * 0.1)
        larger = ImageTensor(small.data * 1.7)
        lo = error_map(base, small).data
        hi = error_map(base, larger).data
        assert np.all(hi >= lo - 1e-15)

    def test_gain_monotonicity(self, stream):
        gt = ImageTensor(stream.uniform((1, 4, 4)))
        sr = ImageTensor(stream.uniform((1, 4, 4)))
        lo = error_map(gt, sr, gain=5.0).data
        hi = error_map(gt, sr, gain=10.0).data
        assert np.all(hi >= lo - 1e-15)

    def test_gain_validation(self, stream):
        a = ImageTensor(stream.uniform((1, 2, 2)))
        with pytest.raises(ValueError):
            error_map(a, a, gain=0.0)

    def test_infinite_gain_is_refused(self, stream):
        a = ImageTensor(stream.uniform((1, 2, 2)))
        for b in (a, ImageTensor(a.data + 0.5)):
            with pytest.raises(ValueError, match="^gain must be a positive finite number, got inf$"):
                error_map(a, b, gain=float("inf"))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_map(ImageTensor(np.zeros((1, 2, 2))), ImageTensor(np.zeros((3, 2, 2))))
