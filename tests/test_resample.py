"""Resampling kernels, alignment, and raw predictors."""

import hashlib
import importlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangenull import (
    IdentityOperator,
    ImageTensor,
    PoolingOp,
    ResampleSpec,
    measure,
    open_prediction,
    pd_combine,
    pool_down,
    pool_up,
    predict_raw,
    resample,
    verify_consistency,
    write_raw,
)
from rangenull.resample import _Enlarged, _intermediate

# The module, which the package's ``resample`` function shadows as an attribute.
resample_module = importlib.import_module("rangenull.resample")


def _reference_axis_weights(n_in, n_out, scale, direction, kernel, radius, stretch):
    """Straightforward per-pixel loop oracle for the weight rows."""
    rows = np.zeros((n_out, n_in))
    for i in range(n_out):
        center = (i + 0.5) * scale - 0.5 if direction == "down" else (i + 0.5) / scale - 0.5
        for j in range(math.floor(center - radius * stretch), math.ceil(center + radius * stretch) + 1):
            w = kernel((j - center) / stretch)
            rows[i, min(max(j, 0), n_in - 1)] += w
        rows[i] /= rows[i].sum()
    return rows


def _tri(t):
    return max(0.0, 1.0 - abs(t))


def _cubic(t):
    t = abs(t)
    if t <= 1.0:
        return (1.5 * t - 2.5) * t * t + 1.0
    if t < 2.0:
        return ((-0.5 * t + 2.5) * t - 4.0) * t + 2.0
    return 0.0


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResampleSpec(filter="lanczos", antialias=True, scale=2, direction="down")
        with pytest.raises(ValueError):
            ResampleSpec(filter="box", antialias=True, scale=0, direction="down")
        with pytest.raises(ValueError):
            ResampleSpec(filter="box", antialias=True, scale=2, direction="sideways")


class TestBoxEqualsPooling:
    @pytest.mark.parametrize("antialias", [True, False])
    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_matches_pool_down(self, antialias, s, stream):
        x = ImageTensor(stream.uniform((3, 8, 8)))
        spec = ResampleSpec(filter="box", antialias=antialias, scale=s, direction="down")
        assert np.max(np.abs(resample(x, spec).data - pool_down(x, s).data)) <= 1e-12

    def test_box_up_is_replication(self, stream):
        y = ImageTensor(stream.uniform((1, 3, 4)))
        spec = ResampleSpec(filter="box", antialias=False, scale=3, direction="up")
        assert np.array_equal(resample(y, spec).data, pool_up(y, 3).data)

    def test_integer_patch(self):
        x = ImageTensor(np.array([[[1.0, 2.0], [3.0, 6.0]]]))
        spec = ResampleSpec(filter="box", antialias=True, scale=2, direction="down")
        assert abs(resample(x, spec).data[0, 0, 0] - 3.0) < 1e-14


class TestBoxIsPooling:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("antialias", [True, False])
    @pytest.mark.parametrize("s", range(1, 9))
    def test_bit_identical_to_pooling(self, s, antialias, channels, stream):
        x = ImageTensor(stream.uniform((channels, 3 * s, 5 * s)))
        down = ResampleSpec(filter="box", antialias=antialias, scale=s, direction="down")
        up = ResampleSpec(filter="box", antialias=antialias, scale=s, direction="up")
        assert np.array_equal(resample(x, down).data, pool_down(x, s).data)
        assert np.array_equal(resample(x, up).data, pool_up(x, s).data)


class TestKernels:
    @pytest.mark.parametrize("filt", ["box", "bilinear", "bicubic"])
    @pytest.mark.parametrize("antialias", [True, False])
    @pytest.mark.parametrize("direction,scale", [("down", 3), ("down", 1), ("up", 2), ("up", 1)])
    def test_constant_preserved(self, filt, antialias, direction, scale):
        x = ImageTensor(np.full((1, 6, 6), 0.7))
        out = resample(x, ResampleSpec(filter=filt, antialias=antialias, scale=scale, direction=direction))
        assert np.max(np.abs(out.data - 0.7)) <= 1e-12

    @pytest.mark.parametrize("filt", ["box", "bilinear", "bicubic"])
    def test_scale_one_identity(self, filt, stream):
        x = ImageTensor(stream.uniform((3, 5, 7)))
        for direction in ("down", "up"):
            out = resample(x, ResampleSpec(filter=filt, antialias=True, scale=1, direction=direction))
            assert np.max(np.abs(out.data - x.data)) <= 1e-12

    def test_bilinear_antialias_down_matches_loop_oracle(self, stream):
        x = ImageTensor(stream.uniform((1, 4, 4)))
        spec = ResampleSpec(filter="bilinear", antialias=True, scale=2, direction="down")
        ref = _reference_axis_weights(4, 2, 2, "down", _tri, 1.0, 2.0)
        expected = ref @ (x.data[0] @ ref.T)
        assert np.max(np.abs(resample(x, spec).data[0] - expected)) < 1e-14
        # First output row weights fold the clamped edge tap: (0.5, 0.375, 0.125, 0).
        assert np.allclose(ref[0], [0.5, 0.375, 0.125, 0.0])

    def test_bicubic_up_matches_loop_oracle(self, stream):
        x = ImageTensor(stream.uniform((1, 3, 3)))
        spec = ResampleSpec(filter="bicubic", antialias=False, scale=2, direction="up")
        ref = _reference_axis_weights(3, 6, 2, "up", _cubic, 2.0, 1.0)
        expected = ref @ (x.data[0] @ ref.T)
        assert np.max(np.abs(resample(x, spec).data[0] - expected)) < 1e-14

    def test_alias_and_antialias_differ_on_checkerboard(self):
        idx = np.arange(24)
        board = ((idx[:, None] // 3 + idx[None, :] // 3) % 2).astype(float)[None]
        x = ImageTensor(board)
        alias = resample(x, ResampleSpec(filter="bicubic", antialias=False, scale=8, direction="down"))
        smooth = resample(x, ResampleSpec(filter="bicubic", antialias=True, scale=8, direction="down"))
        assert np.max(np.abs(alias.data - smooth.data)) > 0.01

    def test_non_divisible_down_errors(self):
        x = ImageTensor(np.zeros((1, 5, 5)))
        with pytest.raises(ValueError):
            resample(x, ResampleSpec(filter="bicubic", antialias=True, scale=2, direction="down"))


class TestPredictRaw:
    def test_nearest_equals_pool_up(self, stream):
        y = ImageTensor(stream.uniform((3, 3, 3)))
        assert predict_raw(y, "nearest", 4) == pool_up(y, 4)

    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    def test_interpolators_shape_and_consistency(self, method, stream):
        y = ImageTensor(stream.uniform((3, 4, 4)))
        raw = predict_raw(y, method, 4)
        assert raw.shape == (3, 16, 16)
        report = verify_consistency(y, pd_combine(y, raw, 4), 4)
        assert report.max_abs <= 1e-12

    def test_external_roundtrip(self, tmp_path, stream):
        y = ImageTensor(stream.uniform((1, 2, 2)))
        pred = ImageTensor(stream.uniform((1, 4, 4)))
        path = tmp_path / "pred.pdt1"
        write_raw(pred, path)
        assert predict_raw(y, "external", 2, path) == pred

    def test_external_consistent_prediction_passes_through(self, tmp_path, stream):
        pred = ImageTensor(stream.uniform((1, 4, 4)))
        y = pool_down(pred, 2)
        path = tmp_path / "pred.pdt1"
        write_raw(pred, path)
        x_hat = pd_combine(y, predict_raw(y, "external", 2, path), 2)
        assert np.max(np.abs(x_hat.data - pred.data)) <= 1e-12

    def test_external_shape_mismatch(self, tmp_path, stream):
        y = ImageTensor(stream.uniform((1, 2, 2)))
        path = tmp_path / "pred.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 6, 6))), path)
        with pytest.raises(ValueError):
            predict_raw(y, "external", 2, path)

    def test_external_misfit_is_named_before_its_samples_are_read(self, tmp_path, stream):
        # As ``pd`` reports it: the header's shape first, so a non-finite
        # sample of a misfit is never reached.
        y = ImageTensor(stream.uniform((1, 2, 2)))
        bad = stream.uniform((1, 6, 6))
        bad[0, -1, -1] = np.nan
        path = tmp_path / "pred.pdt1"
        path.write_bytes(struct.pack("<4sIII", b"PDT1", *bad.shape) + bad.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=r"^external prediction shape \(1, 6, 6\), expected \(1, 4, 4\)$"):
            predict_raw(y, "external", 2, path)

    def test_unknown_method(self, stream):
        y = ImageTensor(stream.uniform((1, 2, 2)))
        with pytest.raises(ValueError):
            predict_raw(y, "lanczos", 2)


class TestEnlargedStripes:
    @pytest.mark.parametrize("side, s", [(128, 8), (256, 4), (512, 2)])
    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    def test_power_of_two_rows_give_the_whole_plane_bytes(self, side, s, method):
        # Enlarged to 1024 samples, 8 KiB, a row; the horizontal pass writes
        # into rows padded off that stride, and the bytes must not move.
        y = ImageTensor(np.random.default_rng(side).uniform(size=(1, side, side)))
        whole = predict_raw(y, method, s).data.tobytes()
        spec = ResampleSpec(filter=method, antialias=False, scale=s, direction="up")
        assert resample(y, spec).data.tobytes() == whole
        for rows in (1, s - 1, s, s + 1, 3 * s + 1, 96 * s):
            # ``tobytes`` copies each stripe before the next overwrites the buffer.
            assert b"".join(stripe.tobytes() for stripe in _Enlarged(y, method, s).stripes(rows)) == whole

    @pytest.mark.parametrize("method", ["bilinear", "bicubic"])
    @pytest.mark.parametrize("scale", [1, 5], ids=["identity", "pooling_5"])
    def test_any_operator_measures_the_source(self, method, scale):
        # The walks ask for stripes of whole blocks of their own scale, 187
        # and 185 rows here, which the enlargement's scale 2 does not divide.
        y = ImageTensor(np.random.default_rng(7).uniform(size=(1, 300, 350)))
        op = IdentityOperator((1, 600, 700)) if scale == 1 else PoolingOp(scale, 1, 600, 700)
        with open_prediction(y, method, 2) as source:
            got = measure(op, source)
        assert got.tobytes() == op.forward(predict_raw(y, method, 2)).data.tobytes()

    # sha256 of the reductions of 2 x 4s x width uniform samples, seeded by the width.
    @pytest.mark.parametrize("width, s, method, digest", [
        (1024, 2, "bilinear", "c9e71fdea76c674f52710a2ee75336bcd3fe99067ccc6b04f164c6bbe82325e5"),
        (1024, 2, "bicubic", "505db5e79db40cdadd36ac6f7bf5ad1c5fc678d96530aca72fc1f1453d7a1e8f"),
        (2048, 4, "bilinear", "fe18cb673e90a835545488b3a98fb627f00ce97c7da67c3c722ea8211e69b733"),
        (2048, 4, "bicubic", "1ea7b0f0743f0ebcaf44ac9e9f19d96fa176100abf701c470787424f55e6ff17"),
    ])
    def test_power_of_two_reductions_write_padded_rows(self, monkeypatch, width, s, method, digest):
        # Reduced to 512 samples, 4 KiB, a row; the horizontal pass writes
        # into rows padded off that stride, and the bytes must not move.
        x = ImageTensor(np.random.default_rng(width).uniform(size=(2, 4 * s, width)))
        strides, real = [], resample_module._apply_phases

        def record(windows, weights, axis, out):
            strides.append((axis, out.strides[0]))
            real(windows, weights, axis, out)

        monkeypatch.setattr(resample_module, "_apply_phases", record)
        got = resample(x, ResampleSpec(filter=method, antialias=True, scale=s, direction="down"))
        assert hashlib.sha256(got.data.tobytes()).hexdigest() == digest
        assert [axis for axis, _ in strides] == [0, 1, 0, 1]
        assert all(stride % 128 == 64 for axis, stride in strides if axis == 1)

    def test_intermediate_rows_are_never_4_kib_apart(self):
        for width in range(1, 4097):
            plane = _intermediate(2, width)
            stride = plane.strides[0]
            assert plane.shape == (2, width) and plane.dtype == np.float64
            assert stride % 4096 and stride % 128 == 64 and stride < 8 * width + 128


def _box(t):
    return 1.0 if -0.5 <= t < 0.5 else 0.0


_ORACLE_KERNELS = {"box": (_box, 0.5), "bilinear": (_tri, 1.0), "bicubic": (_cubic, 2.0)}


@st.composite
def resample_cases(draw):
    """(spec, x): every filter, antialias flag, direction and scale 1-8, sides 1-40."""
    spec = ResampleSpec(
        filter=draw(st.sampled_from(sorted(_ORACLE_KERNELS))),
        antialias=draw(st.booleans()),
        scale=draw(st.integers(1, 8)),
        direction=draw(st.sampled_from(["down", "up"])),
    )
    step = spec.scale if spec.direction == "down" else 1
    height, width = (step * draw(st.integers(1, 40 // step)) for _ in range(2))
    channels = draw(st.sampled_from([1, 3]))
    x = draw(arrays(np.float64, (channels, height, width), elements=st.floats(0.0, 1.0)))
    return spec, ImageTensor(x)


class TestAgainstLoopOracle:
    @given(resample_cases())
    def test_matches_dense_loop_oracle(self, case):
        # The oracle rounds each output's source position at its own
        # magnitude (up to 40 here), the polyphase weights at magnitude < 1;
        # on inputs in [0, 1] that moves no value by more than 7e-15.
        spec, x = case
        s = spec.scale
        kernel, radius = _ORACLE_KERNELS[spec.filter]
        stretch = s if spec.direction == "down" and (spec.antialias or spec.filter == "box") else 1.0
        size = (lambda n: n // s) if spec.direction == "down" else (lambda n: n * s)
        wv = _reference_axis_weights(x.height, size(x.height), s, spec.direction, kernel, radius, stretch)
        wh = _reference_axis_weights(x.width, size(x.width), s, spec.direction, kernel, radius, stretch)
        got = resample(x, spec)
        assert got.shape == (x.channels, size(x.height), size(x.width))
        assert np.max(np.abs(got.data - wv @ x.data @ wh.T)) <= 1e-14
