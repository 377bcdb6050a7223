"""Channel-mean and block compressed-sensing operators plus the generic combine."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangenull import (
    BlockSenseOp,
    ColorMeanOp,
    DenseOperator,
    IdentityOperator,
    ImageTensor,
    PoolingOp,
    color_to_gray,
    cs_build,
    cs_measure,
    cs_pinv,
    generic_pd,
    gray_to_color,
    lift,
    load_sense_op,
    measurement_count,
    load_tensor,
    measure,
    open_stripes,
    pd_combine,
    reconstruct,
    save_png,
    save_sense_op,
    save_tensor,
    write_raw,
)
from rangenull import tensor
from rangenull.linop import LinearOperator, range_project
from rangenull.restore import _ChannelMean
from rangenull.rng import Stream


class TestColor:
    def test_mean_of_three_values(self):
        x = ImageTensor(np.array([0.3, 0.6, 0.9]).reshape(3, 1, 1))
        assert abs(color_to_gray(x).data[0, 0, 0] - 0.6) < 1e-15

    def test_replicated_gray_comes_back(self, stream):
        g = ImageTensor(stream.uniform((1, 4, 4)))
        assert color_to_gray(gray_to_color(g)) == g

    def test_symmetric_cancellation(self):
        x = ImageTensor(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1))
        assert color_to_gray(x).data[0, 0, 0] == 0.0

    def test_gray_to_color_replicates(self):
        c = gray_to_color(ImageTensor(np.array([[[0.6]]])))
        assert c.data.ravel().tolist() == [0.6, 0.6, 0.6]
        assert gray_to_color(ImageTensor(np.zeros((1, 1, 1)))).data.ravel().tolist() == [0.0] * 3

    def test_channel_count_validation(self):
        with pytest.raises(ValueError):
            color_to_gray(ImageTensor(np.zeros((1, 2, 2))))
        with pytest.raises(ValueError):
            gray_to_color(ImageTensor(np.zeros((3, 2, 2))))

    def test_adjoint_variant_is_not_a_pseudo_inverse(self):
        # Forward-adjoint-forward shrinks by 1/3 instead of reproducing the map.
        ones = ImageTensor(np.ones((3, 2, 2)))
        ax = color_to_gray(ones)
        back = color_to_gray(gray_to_color(ax, adjoint=True))
        residual = np.max(np.abs(back.data - ax.data))
        assert residual >= 0.5

    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4)).flatmap(
            lambda shape: arrays(
                np.float64,
                shape,
                elements=st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-1e6, 1e6, allow_nan=False, width=64),
                ),
            )
        )
    )
    @example(Stream(11).gaussian((5, 8, 8)) * 1e3)  # dense values, where summation order shows
    def test_channel_mean_matches_summed_residual_oracle(self, a):
        # The measurer reading channel 0 in place, as from an array, and
        # copying it, as from a stripe source or a written file.
        first = a[:1]
        oracle = first + (a - first).sum(axis=0, keepdims=True) / a.shape[0]
        for in_place in (True, False):
            mean = _ChannelMean(a.shape, a[0] if in_place else None)
            for rows, ch, band in tensor._stripes(a, 1):
                mean.add(rows[:, 0], ch, band, None)
            assert mean.result()[0].tobytes() == oracle.tobytes()

    def test_operator_wrapper(self, stream):
        op = ColorMeanOp(3, 3)
        x = ImageTensor(stream.gaussian((3, 3, 3)))
        assert op.forward(x) == color_to_gray(x)
        g = color_to_gray(x)
        assert op.pinv(g) == gray_to_color(g)
        with pytest.raises(ValueError):
            op.forward(ImageTensor(np.zeros((3, 4, 4))))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_forward_names_the_channel_count_as_measure_does(self, channels):
        x = np.zeros((channels, 2, 2))
        for call in (lambda: ColorMeanOp(2, 2).forward(ImageTensor(x)), lambda: color_to_gray(ImageTensor(x)),
                     lambda: measure(ColorMeanOp(2, 2), x)):
            with pytest.raises(ValueError, match=rf"^expected a 3-channel image, got {channels}$"):
                call()


class TestMeasurementCount:
    def test_32_block_quarter_ratio(self):
        assert measurement_count(32, 0.25) == 256

    def test_full_ratio(self):
        assert measurement_count(8, 1.0) == 64

    def test_ceil_rounds_up(self):
        assert measurement_count(3, 0.5) == 5  # ceil(4.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            measurement_count(4, 0.0)
        with pytest.raises(ValueError):
            measurement_count(4, 1.5)
        with pytest.raises(ValueError):
            measurement_count(0, 0.5)


class TestBlockSense:
    def test_rows_orthonormal(self):
        op = cs_build(4, 0.5, seed=5)
        assert op.q == 8
        assert np.max(np.abs(op.rows @ op.rows.T - np.eye(op.q))) <= 1e-8

    def test_deterministic_bit_for_bit(self):
        a = cs_build(4, 0.25, seed=9)
        b = cs_build(4, 0.25, seed=9)
        assert np.array_equal(a.rows, b.rows)

    def test_full_ratio_square_orthogonal(self, stream):
        op = cs_build(4, 1.0, seed=2)
        assert op.q == 16
        x = ImageTensor(stream.uniform((3, 8, 8)))
        rec = cs_pinv(op, cs_measure(op, x))
        assert np.max(np.abs(rec.data - x.data)) <= 1e-10

    def test_measure_matches_dense_oracle(self, stream):
        op = cs_build(4, 0.25, seed=3)
        x = ImageTensor(stream.gaussian((1, 8, 8)))
        meas = cs_measure(op, x)
        assert meas.shape == (op.q, 2, 2)
        for bi in range(2):
            for bj in range(2):
                block = x.data[0, bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4].ravel()
                assert np.max(np.abs(meas.data[:, bi, bj] - op.rows @ block)) <= 1e-12

    def test_zero_image_zero_measurements(self):
        op = cs_build(4, 0.5, seed=1)
        z = ImageTensor(np.zeros((1, 4, 4)))
        assert np.all(cs_measure(op, z).data == 0.0)
        assert np.all(cs_pinv(op, cs_measure(op, z)).data == 0.0)

    def test_measure_pinv_measure_identity(self, stream):
        op = cs_build(4, 0.25, seed=7)
        m = cs_measure(op, ImageTensor(stream.gaussian((3, 12, 12))))
        again = cs_measure(op, cs_pinv(op, m))
        assert np.max(np.abs(again.data - m.data)) <= 1e-10

    def test_divisibility_and_channel_checks(self, stream):
        op = cs_build(4, 0.5, seed=1)
        with pytest.raises(ValueError):
            cs_measure(op, ImageTensor(np.zeros((1, 6, 8))))
        with pytest.raises(ValueError):
            cs_pinv(op, ImageTensor(np.zeros((op.q + 1, 2, 2))))

    def test_bound_shapes(self, stream):
        op = cs_build(4, 0.5, seed=1).bind_shape(3, 8, 8)
        assert op.in_shape == (3, 8, 8)
        assert op.out_shape == (3 * op.q, 2, 2)
        x = ImageTensor(stream.uniform((3, 8, 8)))
        assert op.forward(x) == cs_measure(op, x)
        with pytest.raises(ValueError):
            op.bind_shape(1, 6, 6)

    def test_bound_refuses_a_divisible_misfit_as_forward_does(self, tmp_path, stream):
        op = cs_build(2, 0.5, seed=1).bind_shape(3, 8, 10)
        x = stream.uniform((3, 8, 12))
        write_raw(ImageTensor(x), tmp_path / "x.pdt1")
        message = r"^input shape \(3, 8, 12\) does not match operator shape \(3, 8, 10\)$"
        with open_stripes(tmp_path / "x.pdt1") as reader:
            for call in (lambda: op.forward(ImageTensor(x)), lambda: cs_measure(op, ImageTensor(x)),
                         lambda: measure(op, x), lambda: measure(op, reader, tmp_path / "m.pdt1")):
                with pytest.raises(ValueError, match=message):
                    call()
        assert not (tmp_path / "m.pdt1").exists()


class TestCsRows:
    """The rows pinned by what they are, not by how they are computed."""

    @pytest.mark.parametrize("block", [4, 16])
    def test_full_ratio_rows_are_polar_factor_of_seeded_gaussian(self, block):
        # U V^T from the SVD G = U S V^T is the orthogonal polar factor of G,
        # the unique orthogonal R with R^T G = V S V^T symmetric positive
        # definite (G is nonsingular with probability one).
        n = block * block
        rows = cs_build(block, 1.0, seed=5).rows
        gauss = Stream(5).gaussian((n, n))
        assert np.max(np.abs(rows @ rows.T - np.eye(n))) < 1e-12
        sym = rows.T @ gauss
        scale = np.max(np.abs(sym))
        assert np.max(np.abs(sym - sym.T)) < 1e-12 * scale
        assert np.min(np.linalg.eigvalsh((sym + sym.T) / 2.0)) > 0.0

    def test_partial_ratio_takes_leading_rows(self):
        assert np.array_equal(cs_build(4, 0.25, seed=5).rows, cs_build(4, 1.0, seed=5).rows[:4])


class TestSenseOpIO:
    def test_roundtrip(self, tmp_path):
        op = cs_build(4, 0.5, seed=11)
        path = tmp_path / "op.pdm1"
        save_sense_op(op, path)
        loaded = load_sense_op(path)
        assert loaded.block == op.block
        assert loaded.q == op.q
        assert loaded.seed == op.seed
        assert np.array_equal(loaded.rows, op.rows)
        assert path.stat().st_size == 20 + op.q * op.n * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pdm1"
        path.write_bytes(b"WHAT" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_sense_op(path)

    def test_truncated_payload(self, tmp_path):
        op = cs_build(4, 0.25, seed=1)
        path = tmp_path / "trunc.pdm1"
        save_sense_op(op, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_sense_op(path)


class TestGenericPd:
    def test_specializes_to_pooling_combine(self, stream):
        op = PoolingOp(2, 3, 8, 8)
        y = ImageTensor(stream.uniform((3, 4, 4)))
        x_raw = ImageTensor(stream.gaussian((3, 8, 8)) * 2)
        a = generic_pd(op, y, x_raw)
        b = pd_combine(y, x_raw, 2)
        assert np.max(np.abs(a.data - b.data)) <= 1e-14

    def test_color_consistency(self, stream):
        op = ColorMeanOp(5, 5)
        y = ImageTensor(stream.uniform((1, 5, 5)))
        x_raw = ImageTensor(stream.gaussian((3, 5, 5)) * 3)
        result = generic_pd(op, y, x_raw)
        assert np.max(np.abs(color_to_gray(result).data - y.data)) <= 1e-12

    def test_color_hand_check_single_pixel(self):
        # y = 0.5, raw channels (0, 1, 2): mean 1, so result = raw - 1 + 0.5.
        op = ColorMeanOp(1, 1)
        y = ImageTensor(np.array([[[0.5]]]))
        x_raw = ImageTensor(np.array([0.0, 1.0, 2.0]).reshape(3, 1, 1))
        result = generic_pd(op, y, x_raw)
        assert np.allclose(result.data.ravel(), [-0.5, 0.5, 1.5], atol=1e-15)

    def test_cs_consistency(self, stream):
        op = cs_build(4, 0.25, seed=13)
        x_raw = ImageTensor(stream.gaussian((3, 8, 8)))
        y = cs_measure(op, ImageTensor(stream.uniform((3, 8, 8))))
        result = generic_pd(op, y, x_raw)
        assert np.max(np.abs(cs_measure(op, result).data - y.data)) <= 1e-10

    def test_reconstruction_identity_per_operator(self, stream):
        cases = [
            (PoolingOp(2, 1, 6, 6), ImageTensor(stream.gaussian((1, 6, 6)) * 20)),
            (ColorMeanOp(4, 4), ImageTensor(stream.gaussian((3, 4, 4)) * 20)),
            (cs_build(4, 0.5, seed=4), ImageTensor(stream.gaussian((1, 8, 8)) * 20)),
        ]
        for op, x in cases:
            range_part = op.pinv(op.forward(x))
            null_part = x.data - range_part.data
            assert np.max(np.abs(range_part.data + null_part - x.data)) <= 1e-12

    def test_shape_mismatch(self, stream):
        op = ColorMeanOp(2, 2)
        y = ImageTensor(stream.uniform((1, 2, 2)))
        with pytest.raises(ValueError):
            generic_pd(op, y, ImageTensor(np.zeros((3, 3, 3))))


@functools.lru_cache(maxsize=None)
def _orthonormal_rows(block):
    return cs_build(block, 1.0, seed=block).rows


def _measure_oracle(rows, x, b):
    q = rows.shape[0]
    c, h, w = x.shape
    out = np.empty((c * q, h // b, w // b))
    for k in range(c):
        for i in range(h // b):
            for j in range(w // b):
                out[k * q : (k + 1) * q, i, j] = rows @ x[k, i * b : (i + 1) * b, j * b : (j + 1) * b].ravel()
    return out


def _pinv_oracle(rows, m, b):
    q = rows.shape[0]
    cq, nh, nw = m.shape
    out = np.empty((cq // q, nh * b, nw * b))
    for k in range(cq // q):
        for i in range(nh):
            for j in range(nw):
                block = rows.T @ m[k * q : (k + 1) * q, i, j]
                out[k, i * b : (i + 1) * b, j * b : (j + 1) * b] = block.reshape(b, b)
    return out


@st.composite
def _sense_cases(draw):
    block = draw(st.integers(1, 16))
    n = block * block
    q = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    op = BlockSenseOp(block, q, seed=block, ratio=q / n, rows=_orthonormal_rows(block)[:q])
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return op, shape, draw(st.integers(0, 2**32 - 1))


class TestCsKernels:
    """``cs_measure`` and ``cs_pinv`` against a loop over single blocks."""

    @given(_sense_cases())
    def test_measure_and_pinv_match_per_block_products(self, case):
        op, (c, nh, nw), seed = case
        b = op.block
        x = ImageTensor(Stream(seed).uniform((c, nh * b, nw * b)))
        m = cs_measure(op, x)
        assert m.shape == (c * op.q, nh, nw)
        assert np.max(np.abs(m.data - _measure_oracle(op.rows, x.data, b))) <= 1e-13
        back = cs_pinv(op, m)
        assert back.shape == x.shape
        assert np.max(np.abs(back.data - _pinv_oracle(op.rows, m.data, b))) <= 1e-13

    @given(_sense_cases())
    def test_repeated_calls_are_byte_identical(self, case):
        op, (c, nh, nw), seed = case
        x = ImageTensor(Stream(seed).gaussian((c, nh * op.block, nw * op.block)))
        m = cs_measure(op, x)
        assert cs_measure(op, x).data.tobytes() == m.data.tobytes()
        assert cs_pinv(op, m).data.tobytes() == cs_pinv(op, m).data.tobytes()

    @given(_sense_cases())
    def test_zero_input_gives_exact_zeros(self, case):
        op, (c, nh, nw), _ = case
        b = op.block
        assert np.all(cs_measure(op, ImageTensor(np.zeros((c, nh * b, nw * b)))).data == 0.0)
        assert np.all(cs_pinv(op, ImageTensor(np.zeros((c * op.q, nh, nw)))).data == 0.0)


@st.composite
def _streamed_cases(draw):
    """An operator of block 1, 2, 3, 8 or 12, an image of 1 or 3 channels,
    the input and output formats and the stripe size."""
    block = draw(st.sampled_from([1, 2, 3, 8, 12]))
    n = block * block
    q = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    op = BlockSenseOp(block, q, seed=block, ratio=q / n, rows=_orthonormal_rows(block)[:q])
    shape = (draw(st.sampled_from([1, 3])), block * draw(st.integers(1, 3)), block * draw(st.integers(1, 3)))
    formats = (draw(st.sampled_from(["pdt1", "png"])), draw(st.sampled_from(["pdt1", "png"])))
    stripe_bytes = draw(st.sampled_from([1, tensor._STRIPE_BYTES]))
    return op, shape, formats, stripe_bytes, draw(st.integers(0, 2**32 - 1))


def _outcome(call, path):
    """What ``call`` gave and the bytes it left at ``path``, or what it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = call()
    except ValueError as exc:
        return "raised", type(exc), str(exc), path.exists()
    return "returned", result, path.read_bytes()


class TestCsStreamed:
    """``measure``, ``lift`` and ``reconstruct`` against
    the in-memory path they replace in the CLI: the same bytes, records and
    errors for any block, channel count, input and output format and
    stripe size."""

    @given(_streamed_cases())
    def test_match_the_in_memory_path(self, case):
        op, shape, (in_format, out_format), stripe_bytes, seed = case
        stream = Stream(seed)
        x = ImageTensor(stream.uniform(shape) * 1.5 - 0.25)
        y = cs_measure(op, ImageTensor(stream.uniform(shape)))
        raw = ImageTensor(stream.gaussian(shape) * 0.5 + 0.5)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            d = Path(tmp)
            x_path, raw_path = d / f"x.{in_format}", d / f"raw.{in_format}"
            (save_png if in_format == "png" else write_raw)(x, x_path)
            (save_png if in_format == "png" else write_raw)(raw, raw_path)
            streamed, whole = d / f"s.{out_format}", d / f"w.{out_format}"

            def measure_streamed():
                with open_stripes(x_path) as src:
                    measure(op, src, streamed)

            def measure_whole():
                save_tensor(cs_measure(op, load_tensor(x_path)), whole)

            def pinv_streamed():
                lift(op, y, streamed)

            def pinv_whole():
                save_tensor(cs_pinv(op, y), whole)

            def pd_streamed():
                with open_stripes(raw_path) as src:
                    return reconstruct(op, y, src, streamed)[0].to_dict()

            def pd_whole():
                return op.verify(y, save_tensor(op.combine(y, load_tensor(raw_path)), whole)).to_dict()

            for streamed_call, whole_call in [
                (measure_streamed, measure_whole), (pinv_streamed, pinv_whole), (pd_streamed, pd_whole)
            ]:
                assert _outcome(streamed_call, streamed) == _outcome(whole_call, whole)
                streamed.unlink(missing_ok=True)
                whole.unlink(missing_ok=True)


def _color_case(h, w, scale, seed, signed_zeros):
    stream = Stream(seed)
    y, x_raw = stream.gaussian((1, h, w)) * scale, stream.gaussian((3, h, w)) * scale
    if signed_zeros:
        for a in (y, x_raw):
            hit = stream.uniform(a.shape) < 0.5
            a[hit] = np.copysign(0.0, a[hit])
    return ColorMeanOp(h, w), ImageTensor(y), ImageTensor(x_raw)


class TestColorStreamed:
    """``reconstruct`` with a ``ColorMeanOp`` against the in-memory path it
    replaces in the CLI, ``ColorMeanOp.combine``, ``save_tensor`` and
    ``verify``: the same bytes, records and errors for any size,
    prediction source and shape, output format and stripe size."""

    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from([1.0, 1e3, 1e307]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["array", "pdt1", "png"]),
        # Shapes (y channels, raw channels, raw rows, raw columns) beside the fitting one.
        st.sampled_from([(1, 3, 0, 0), (1, 3, 0, 1), (1, 3, 1, 0), (1, 1, 0, 0), (3, 3, 0, 0)]),
        st.sampled_from(["pdt1", "png"]),
        st.sampled_from([1, 64, tensor._STRIPE_BYTES]),
    )
    def test_matches_the_in_memory_path(self, h, w, scale, seed, signed_zeros, source, shapes, out_format,
                                        stripe_bytes):
        op, y, x_raw = _color_case(h, w, scale, seed, signed_zeros)
        yc, c, dh, dw = shapes
        y = ImageTensor(np.resize(y.data, (yc, h, w)))
        x_raw = ImageTensor(np.resize(x_raw.data, (c, h + dh, w + dw)))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            d = Path(tmp)
            raw_path, streamed, whole = d / f"raw.{source}", d / f"s.{out_format}", d / f"w.{out_format}"
            with np.errstate(over="ignore"):
                (save_png if source == "png" else write_raw)(x_raw, raw_path)

            def streamed_call():
                if source == "array":
                    return reconstruct(op, y, x_raw.data, streamed)[0].to_dict()
                with open_stripes(raw_path) as src:
                    return reconstruct(op, y, src, streamed)[0].to_dict()

            def whole_call():
                x = x_raw if source == "array" else load_tensor(raw_path)
                return op.verify(y, save_tensor(op.combine(y, x), whole)).to_dict()

            assert _outcome(streamed_call, streamed) == _outcome(whole_call, whole)


class TestReconstructSeveralOutputs:
    """``reconstruct`` into two files, for every operator, at any stripe size,
    gives the files and records of ``op.combine`` followed, file by file, by
    ``save_tensor`` and ``op.verify``, each file receiving what the one
    before it holds, whose record is also ``op.verify`` of the file loaded
    back."""

    @pytest.mark.parametrize("stripe_bytes", [1, 64, tensor._STRIPE_BYTES])
    @pytest.mark.parametrize("names", [("a.pdt1", "b.png"), ("a.png", "b.pdt1"), ("a.pdt1", "b.pdt1"),
                                       ("a.png", "b.png")], ids="+".join)
    @pytest.mark.parametrize("source", ["array", "pdt1"])
    @pytest.mark.parametrize("operator", ["pooling", "identity", "cs", "color", "dense"])
    def test_match_the_in_memory_path(self, tmp_path, stream, operator, source, names, stripe_bytes):
        # Ten rows of two samples: the channel mean's 64-byte stripes hold
        # four rows, so each channel ends on a shorter one.
        x = ImageTensor(stream.uniform((3, 10, 2)) * 1.5 - 0.25)
        if operator == "pooling":
            op = PoolingOp(2, 3, 10, 2)
        elif operator == "identity":
            op = IdentityOperator((3, 10, 2))
        elif operator == "cs":
            op = cs_build(2, 0.5, seed=4)
        elif operator == "color":
            op = ColorMeanOp(10, 2)
        else:
            op = DenseOperator(stream.gaussian((12, 60)), in_shape=(3, 10, 2), out_shape=(1, 6, 2))
        y = op.forward(ImageTensor(stream.uniform(x.shape)))
        write_raw(x, tmp_path / "raw.pdt1")
        with mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes), open_stripes(tmp_path / "raw.pdt1") as src:
            records = reconstruct(op, y, x.data if source == "array" else src, *(tmp_path / n for n in names))
        x_hat = op.combine(y, x)
        for name, record in zip(names, records, strict=True):
            x_hat = save_tensor(x_hat, tmp_path / f"ref-{name}")
            assert (tmp_path / name).read_bytes() == (tmp_path / f"ref-{name}").read_bytes()
            assert record.to_dict() == op.verify(y, x_hat).to_dict()
            assert record.to_dict() == op.verify(y, load_tensor(tmp_path / name)).to_dict()


class TestReconstructUnboundOperator:
    """``reconstruct`` with an operator that gives only ``forward`` and
    ``pinv`` and leaves ``in_shape`` None, so that no prediction fits its
    ``_raw_shape``: the file and record of ``op.combine``."""

    class Half(LinearOperator):
        def forward(self, x):
            return ImageTensor(x.data * 0.5)

        def pinv(self, y):
            return ImageTensor(y.data * 2.0)

    @pytest.mark.parametrize("source", ["array", "pdt1"])
    def test_matches_the_in_memory_path(self, tmp_path, stream, source):
        op = self.Half()
        x, y = ImageTensor(stream.uniform((2, 5, 3))), ImageTensor(stream.uniform((2, 5, 3)))
        write_raw(x, tmp_path / "raw.pdt1")
        with open_stripes(tmp_path / "raw.pdt1") as src:
            (record,) = reconstruct(op, y, x.data if source == "array" else src, tmp_path / "out.pdt1")
        x_hat = save_tensor(op.combine(y, x), tmp_path / "ref.pdt1")
        assert (tmp_path / "out.pdt1").read_bytes() == (tmp_path / "ref.pdt1").read_bytes()
        assert record.to_dict() == op.verify(y, x_hat).to_dict()


class TestReconstructChannelMeanFiles:
    def test_each_further_file_holds_only_its_record_planes(self, tmp_path, stream):
        # The channel mean of each file holds two planes, its sum and
        # channel 0; the files but the last share one spare stripe, here a
        # whole plane, so a third file costs two planes, not three.
        h, w = 128, 512
        op, x = ColorMeanOp(h, w), ImageTensor(stream.uniform((3, h, w)))
        y = op.forward(ImageTensor(stream.uniform((3, h, w))))
        write_raw(x, tmp_path / "raw.pdt1")
        peaks = []
        for n in (2, 3):
            with open_stripes(tmp_path / "raw.pdt1") as src:
                tracemalloc.start()
                try:
                    reconstruct(op, y, src, *(tmp_path / f"out{i}.pdt1" for i in range(n)))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2.5 * h * w * 8


class _Unread:
    """A stripe source of ``shape`` that fails if it is read."""

    dtype = np.dtype("<f8")

    def __init__(self, shape):
        self.shape = shape

    def stripes(self, rows):
        raise AssertionError("the source was read")


class TestReconstructNeedsAPath:
    @pytest.mark.parametrize("operator", ["pooling", "cs", "color", "dense"])
    def test_no_paths_is_refused_before_anything_is_read(self, stream, operator):
        if operator == "pooling":
            op = PoolingOp(2, 3, 4, 2)
        elif operator == "cs":
            op = cs_build(2, 0.5, seed=4)
        elif operator == "color":
            op = ColorMeanOp(4, 2)
        else:
            op = DenseOperator(stream.gaussian((6, 24)), in_shape=(3, 4, 2), out_shape=(1, 3, 2))
        y = op.forward(ImageTensor(stream.uniform((3, 4, 2))))
        with pytest.raises(ValueError, match="at least one output path"):
            reconstruct(op, y, _Unread((3, 4, 2)))


class TestReconstructFirstWalk:
    """The channel mean and a dense matrix combine with all of ``A x_raw``,
    so ``reconstruct`` measures a fitting prediction first: a bad sample in
    it is named before a bad destination, as when it is loaded whole."""

    @pytest.mark.parametrize("operator", ["color", "dense"])
    def test_a_bad_sample_comes_before_the_destination(self, tmp_path, stream, operator):
        if operator == "color":
            op = ColorMeanOp(4, 2)
        else:
            op = DenseOperator(stream.gaussian((6, 24)), in_shape=(3, 4, 2), out_shape=(1, 3, 2))
        y = op.forward(ImageTensor(stream.uniform((3, 4, 2))))
        x_raw = stream.uniform((3, 4, 2))
        x_raw[2, 3, 1] = np.nan
        (tmp_path / "d").mkdir()
        with pytest.raises(ValueError, match="must be finite"), np.errstate(invalid="ignore"):
            reconstruct(op, y, x_raw, tmp_path / "d")


def _raised(call):
    with pytest.raises(Exception) as info, np.errstate(over="ignore", invalid="ignore"):
        call()
    return type(info.value), str(info.value)


def _peak_over_image_bytes(op, y, x_raw):
    tracemalloc.start()
    try:
        op.combine(y, x_raw)
        return tracemalloc.get_traced_memory()[1] / x_raw.data.nbytes
    finally:
        tracemalloc.stop()


def _combine_error_cases():
    big = 1.7e308
    color = ColorMeanOp(5, 5)
    gray = ImageTensor(np.full((1, 5, 5), 0.5))
    sense = cs_build(4, 0.5, seed=1)
    m = ImageTensor(np.zeros((2 * sense.q, 2, 3)))
    # Signs that line up with a column or a row of the rows, so that sum of
    # magnitudes overflows: in A+ y, which the generic combine checks before
    # the raw shape, and in the measurement of x_raw.
    rows = cs_build(2, 1.0, seed=3).rows
    full = BlockSenseOp(2, 4, seed=3, ratio=1.0, rows=rows)
    pool = PoolingOp(2, 3, 16, 16)
    pooled = ImageTensor(np.zeros((3, 8, 8)))
    # Two stripes per channel and an overflow in the bottom rows only: in
    # one block of the last channel (the walk's last stripe) for pooling, in
    # one pixel's mean for the channel mean.  Each anchor is -1e308.
    tall = np.zeros((3, 128, 2048))
    tall[2, 126, 0], tall[2, 127, 1] = -1e308, 1e308
    wide = np.zeros((3, 64, 2048))
    wide[:2, 63, 5] = -1e308, 1e308
    return {
        "pool-raw-size": (pool, pooled, ImageTensor(np.zeros((3, 16, 18)))),
        "pool-raw-channels": (pool, pooled, ImageTensor(np.zeros((1, 16, 16)))),
        "pool-measurement-shape": (
            pool, ImageTensor(np.zeros((3, 4, 4))), ImageTensor(np.zeros((3, 16, 16)))
        ),
        "color-raw-size": (color, gray, ImageTensor(np.zeros((3, 5, 6)))),
        "color-raw-channels": (color, gray, ImageTensor(np.zeros((1, 5, 5)))),
        "color-bound-shape": (color, ImageTensor(np.zeros((1, 4, 4))), ImageTensor(np.zeros((3, 4, 4)))),
        "color-overflow": (color, gray, ImageTensor(np.full((3, 5, 5), [[[-big]], [[big]], [[0.0]]]))),
        "cs-raw-size": (sense, m, ImageTensor(np.zeros((2, 8, 8)))),
        "cs-channels-not-multiple-of-q": (
            sense, ImageTensor(np.zeros((sense.q + 1, 2, 3))), ImageTensor(np.zeros((1, 8, 12)))
        ),
        "cs-sides-not-divisible": (sense, m, ImageTensor(np.zeros((2, 6, 12)))),
        "cs-bound-shape": (sense.bind_shape(2, 8, 8), m, ImageTensor(np.zeros((2, 8, 12)))),
        "cs-overflow-pinv-y-before-raw-size": (
            full, ImageTensor(big * np.sign(rows[:, :1, None])), ImageTensor(np.zeros((1, 4, 4)))
        ),
        "cs-overflow-measure": (
            full, ImageTensor(np.zeros((4, 1, 1))), ImageTensor(big * np.sign(rows[0]).reshape(1, 2, 2))
        ),
        "pool-overflow-last-stripe": (
            PoolingOp(2, *tall.shape), ImageTensor(np.zeros((3, 64, 1024))), ImageTensor(tall)
        ),
        "color-overflow-last-stripe": (
            ColorMeanOp(64, 2048), ImageTensor(np.zeros((1, 64, 2048))), ImageTensor(wide)
        ),
    }


_COMBINE_ERRORS = _combine_error_cases()


def _generic_combine(op, y, x_raw):
    """The combine by its formula on whole images, in its order:
    ``pinv(y)``, the raw prediction's shape, then ``x_raw - pinv(forward(
    x_raw))``, into which ``pinv(y)`` is added."""
    restored = op.pinv(y)
    if x_raw.shape != restored.shape:
        raise ValueError(f"raw prediction shape {x_raw.shape} does not match operator input {restored.shape}")
    out = x_raw.data - range_project(op, x_raw).data
    out += restored.data
    return ImageTensor(out)


class TestFusedCombines:
    """``ColorMeanOp.combine`` and ``BlockSenseOp.combine``, the one walk,
    against the combine by its formula on whole images: the same bytes, the
    same errors (``PoolingOp.combine`` too, whose bytes ``test_linop``
    compares)."""

    @given(
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from([1.0, 1e3]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_color_matches_generic_bytes(self, h, w, scale, seed, signed_zeros):
        op, y, x_raw = _color_case(h, w, scale, seed, signed_zeros)
        fused = op.combine(y, x_raw).data.tobytes()
        assert fused == _generic_combine(op, y, x_raw).data.tobytes()

    @given(_sense_cases(), st.booleans())
    def test_sense_matches_generic_bytes(self, case, bound):
        op, (c, nh, nw), seed = case
        b = op.block
        if bound:
            op = op.bind_shape(c, nh * b, nw * b)
        stream = Stream(seed)
        y = cs_measure(op, ImageTensor(stream.uniform((c, nh * b, nw * b))))
        x_raw = ImageTensor(stream.gaussian((c, nh * b, nw * b)))
        fused = op.combine(y, x_raw).data.tobytes()
        assert fused == _generic_combine(op, y, x_raw).data.tobytes()

    @pytest.mark.parametrize("name", sorted(_COMBINE_ERRORS))
    def test_errors_match_generic(self, name):
        op, y, x_raw = _COMBINE_ERRORS[name]
        raised = _raised(lambda: op.combine(y, x_raw))
        assert raised == _raised(lambda: _generic_combine(op, y, x_raw))
        assert raised[0] is ValueError
        if "overflow" in name:
            assert "finite" in raised[1]

    @pytest.mark.parametrize("name", ["pool-overflow-last-stripe", "color-overflow-last-stripe"])
    def test_overflow_in_the_last_stripe_only(self, name):
        op, y, x_raw = _COMBINE_ERRORS[name]
        _, h, w = x_raw.shape
        rows = tensor._pooling_rows(w, 8, 2) * 2 if name.startswith("pool") else tensor._band_rows(w, 8, 1)
        assert rows == h // 2  # the overflow is in the second of two stripes
        message = "tensor samples must be finite (no NaN or infinity)"
        assert _raised(lambda: op.combine(y, x_raw)) == (ValueError, message)

    def test_color_peak_memory(self):
        op, y, x_raw = _color_case(504, 504, 1.0, 5, False)
        assert _peak_over_image_bytes(op, y, x_raw) <= 1.5

    def test_sense_peak_memory(self):
        op = cs_build(8, 0.25, seed=5)
        stream = Stream(5)
        y = cs_measure(op, ImageTensor(stream.uniform((3, 504, 504))))
        x_raw = ImageTensor(stream.gaussian((3, 504, 504)))
        assert _peak_over_image_bytes(op, y, x_raw) <= 2.5

    def test_sense_peak_memory_of_the_stripe_walk(self):
        # The output beside one channel's block copy or back-projection and
        # its measurement: no image-sized temporary.
        op = cs_build(8, 0.25, seed=5)
        stream = Stream(5)
        y = cs_measure(op, ImageTensor(stream.uniform((3, 504, 504))))
        x_raw = ImageTensor(stream.gaussian((3, 504, 504)))
        assert _peak_over_image_bytes(op, y, x_raw) <= 1.5


def _sha256(data):
    return hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest()


def _pdm1_digest(block, directory):
    path = Path(directory) / f"op{block}.pdm1"
    save_sense_op(cs_build(block, 0.25, seed=2026), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _kernel_digests(block):
    op = cs_build(block, 0.25, seed=2026)
    x = ImageTensor(Stream(2026).uniform((3, 2 * block, 3 * block)))
    m = cs_measure(op, x)
    return _sha256(m.data), _sha256(cs_pinv(op, m).data)


def _sense_combine_digest(block):
    op = cs_build(block, 0.25, seed=2026)
    stream = Stream(2026)
    y = cs_measure(op, ImageTensor(stream.uniform((3, 2 * block, 3 * block))))
    x_raw = ImageTensor(stream.gaussian((3, 2 * block, 3 * block)))
    return _sha256(op.combine(y, x_raw).data)


def _color_combine_digest():
    stream = Stream(2026)
    y = ImageTensor(stream.uniform((1, 24, 40)))
    x_raw = ImageTensor(stream.gaussian((3, 24, 40)))
    return _sha256(ColorMeanOp(24, 40).combine(y, x_raw).data)


def _all_digests(directory):
    """Every golden digest, keyed as in ``TestGoldenHashes.expected``."""
    digests = {f"pdm1-{b}": _pdm1_digest(b, directory) for b in TestGoldenHashes.PDM1}
    digests.update({f"kernels-{b}": list(_kernel_digests(b)) for b in TestGoldenHashes.KERNELS})
    digests.update({f"combine-{b}": _sense_combine_digest(b) for b in TestGoldenHashes.SENSE_COMBINE})
    digests["combine-color"] = _color_combine_digest()
    return digests


class TestGoldenHashes:
    """Digests recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64, Haswell
    kernels); each holds under OPENBLAS_NUM_THREADS=1 and =2, which
    ``test_digests_hold_at_one_and_two_blas_threads`` checks.  They catch
    drift on this platform.  Another BLAS or CPU may change the last bits
    of the Gaussian, the SVD and the products, and with them every digest;
    the PDM1 file, not the seed, is what carries an operator exactly.  The
    combine digests were recorded through the generic
    ``LinearOperator.combine``, before the fused overrides existed."""

    PDM1 = {
        4: "abb3fc583d65404a212e1d72fdaa301a2b46b39886b9528b0fbddb8578e00dc5",
        8: "141de50593fd65b0d5349dbe834cf533937a3e85d1034fbbf33f7f3236ff7e01",
    }
    KERNELS = {
        4: (
            "c058e69ec8ab4be566d2219716ddfc622053935f166386fed62ce37c7afba461",
            "b704855c2ce76093c68a418e5684dbbbc4b321d0c114c9111b3ab6bc4bb0518b",
        ),
        8: (
            "6549253dda6a68228897adb1df7f8d885d84955fb67aa452ae33e2c04ba9e296",
            "a06a07ed0f98ee9a6146c2b55fc4436abc4d8b3a99eee8bd6ca01b01211de859",
        ),
    }
    SENSE_COMBINE = {
        4: "59146cdd924f0a758c0b206204b9eaaab0a4a307129c2529eb307b396c665673",
        8: "248e9e86aecab28579dfe772a74b1d58adbda22a30b90d28915df5c6da476245",
    }
    COLOR_COMBINE = "d3addd9818be8edc20440ffd7b30db74d9b649a7a877e842f8d914da1d1dfaa0"

    @classmethod
    def expected(cls):
        digests = {f"pdm1-{b}": d for b, d in cls.PDM1.items()}
        digests.update({f"kernels-{b}": list(d) for b, d in cls.KERNELS.items()})
        digests.update({f"combine-{b}": d for b, d in cls.SENSE_COMBINE.items()})
        digests["combine-color"] = cls.COLOR_COMBINE
        return digests

    @pytest.mark.parametrize("block", sorted(PDM1))
    def test_cs_build_pdm1_bytes(self, tmp_path, block):
        assert _pdm1_digest(block, tmp_path) == self.PDM1[block]

    @pytest.mark.parametrize("block", sorted(KERNELS))
    def test_cs_measure_and_pinv_outputs(self, block):
        assert _kernel_digests(block) == self.KERNELS[block]

    @pytest.mark.parametrize("block", sorted(SENSE_COMBINE))
    def test_sense_combine_output(self, block):
        assert _sense_combine_digest(block) == self.SENSE_COMBINE[block]

    def test_color_combine_output(self):
        assert _color_combine_digest() == self.COLOR_COMBINE

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_digests_hold_at_one_and_two_blas_threads(self, tmp_path, threads):
        tests_dir = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": str(tests_dir.parent / "src"), "OPENBLAS_NUM_THREADS": threads}
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_restore import _all_digests; print(json.dumps(_all_digests(sys.argv[2])))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tests_dir), str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == self.expected()
