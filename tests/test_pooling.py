"""Block-mean pooling, replication, and the consistent combine."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangenull import (
    PREDICTORS,
    ImageTensor,
    PoolingOp,
    RawReader,
    extract_highfreq,
    measure,
    open_prediction,
    pd_combine,
    pool_down,
    pool_up,
    predict_raw,
    quantize,
    reconstruct,
    save_png,
    verify_consistency,
    write_raw,
)
from rangenull import tensor


def _replicate(a, s):
    """Each sample of ``a`` repeated into an s x s block, in ``a``'s dtype."""
    return a.repeat(s, axis=1).repeat(s, axis=2)


def lr_and_raw(max_s=4, lo=-100.0, hi=100.0, signed_zeros=False):
    """Strategy: scale s plus matching LR tensor and raw HR prediction."""

    def build(args):
        s, c, h, w = args
        vals = st.floats(lo, hi, allow_nan=False, width=64)
        if signed_zeros:
            vals = st.sampled_from([0.0, -0.0]) | vals
        return st.tuples(
            st.just(s),
            arrays(np.float64, (c, h, w), elements=vals).map(ImageTensor),
            arrays(np.float64, (c, h * s, w * s), elements=vals).map(ImageTensor),
        )

    dims = st.tuples(
        st.integers(1, max_s), st.sampled_from([1, 3]), st.integers(1, 5), st.integers(1, 5)
    )
    return dims.flatmap(build)


class TestPoolDown:
    def test_scale_one_is_identity(self, stream):
        x = ImageTensor(stream.uniform((3, 4, 5)))
        assert pool_down(x, 1) == x

    def test_patch_average(self):
        x = ImageTensor(np.array([[[1.0, 2.0], [3.0, 6.0]]]))
        assert pool_down(x, 2).data[0, 0, 0] == 3.0

    def test_constant_image(self):
        x = ImageTensor(np.full((3, 6, 6), 0.7))
        down = pool_down(x, 2)
        assert down.shape == (3, 3, 3)
        assert np.all(down.data == 0.7)

    def test_non_divisible_is_hard_error(self):
        x = ImageTensor(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            pool_down(x, 3)

    def test_dense_matrix_oracle_4x4(self, stream):
        # Explicit 4x16 averaging matrix and 16x4 replication matrix at s=2.
        a = np.zeros((4, 16))
        ap = np.zeros((16, 4))
        for bi in range(2):
            for bj in range(2):
                out = bi * 2 + bj
                for di in range(2):
                    for dj in range(2):
                        src = (bi * 2 + di) * 4 + (bj * 2 + dj)
                        a[out, src] = 0.25
                        ap[src, out] = 1.0
        for _ in range(100):
            img = ImageTensor(stream.gaussian((1, 4, 4)) * 5)
            down = pool_down(img, 2).data.ravel()
            assert np.max(np.abs(down - a @ img.data.ravel())) < 1e-13
            lr = ImageTensor(stream.gaussian((1, 2, 2)) * 5)
            up = pool_up(lr, 2).data.ravel()
            assert np.max(np.abs(up - ap @ lr.data.ravel())) == 0.0


class TestPoolUp:
    def test_scale_one_is_identity(self, stream):
        y = ImageTensor(stream.uniform((1, 2, 3)))
        assert pool_up(y, 1) == y

    def test_single_pixel_replicates(self):
        up = pool_up(ImageTensor(np.array([[[4.0]]])), 2)
        assert np.array_equal(up.data, np.full((1, 2, 2), 4.0))

    def test_two_pixels_scale_three(self):
        up = pool_up(ImageTensor(np.array([[[1.5, -2.0]]])), 3)
        assert up.shape == (1, 3, 6)
        assert np.all(up.data[0, :, :3] == 1.5)
        assert np.all(up.data[0, :, 3:] == -2.0)

    @given(lr_and_raw())
    def test_down_undoes_up_bit_exactly(self, case):
        s, y, _ = case
        assert pool_down(pool_up(y, s), s) == y

    @pytest.mark.parametrize("s", [2, 4, 8])
    def test_holds_one_scratch_plane_beside_its_output(self, s):
        # Each block row's means are widened into one plane of a stripe's
        # block rows, here a channel's, and broadcast into the output itself:
        # no stripe buffer and none of ``_band_mean``'s other two planes.  The
        # last 128 KiB allow for numpy's buffered broadcast copy.  Holding
        # all three planes and a stripe buffer took 1.26, 0.88 and 0.70 MiB.
        y = ImageTensor(np.random.default_rng(5).uniform(size=(3, 256 // s, 256 // s)))
        tracemalloc.start()
        try:
            out = pool_up(y, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes <= out.data.nbytes // (3 * s) + (1 << 17)


class TestExtractHighfreq:
    def test_constant_image_has_no_highfreq(self):
        x = ImageTensor(np.full((1, 4, 4), 2.5))
        assert np.all(extract_highfreq(x, 2).data == 0.0)

    def test_patch_minus_mean(self):
        x = ImageTensor(np.array([[[1.0, 2.0], [3.0, 6.0]]]))
        assert np.array_equal(extract_highfreq(x, 2).data, np.array([[[-2.0, -1.0], [0.0, 3.0]]]))

    def test_idempotent(self, stream):
        x = ImageTensor(stream.gaussian((3, 6, 6)) * 10)
        d1 = extract_highfreq(x, 3)
        d2 = extract_highfreq(d1, 3)
        assert np.max(np.abs(d2.data - d1.data)) < 1e-14

    def test_pools_to_zero(self, stream):
        x = ImageTensor(stream.gaussian((3, 8, 8)) * 100)
        assert np.max(np.abs(pool_down(extract_highfreq(x, 4), 4).data)) < 1e-12


class TestPdCombine:
    def test_pixel_pair_example(self):
        # Reference 0, raw prediction rows of (0, 1): each row becomes (-0.5, 0.5).
        y = ImageTensor(np.zeros((1, 1, 1)))
        x_raw = ImageTensor(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
        x_hat = pd_combine(y, x_raw, 2)
        assert x_hat.data.ravel().tolist() == [-0.5, 0.5, -0.5, 0.5]
        assert quantize(x_hat).data.ravel().tolist() == [0.0, 128 / 255, 0.0, 128 / 255]

    def test_integer_patch(self):
        y = ImageTensor(np.array([[[4.0]]]))
        x_raw = ImageTensor(np.array([[[1.0, 2.0], [3.0, 6.0]]]))
        x_hat = pd_combine(y, x_raw, 2)
        assert np.array_equal(x_hat.data, np.array([[[2.0, 3.0], [4.0, 7.0]]]))
        assert pool_down(x_hat, 2).data[0, 0, 0] == 4.0

    def test_consistent_prediction_unchanged(self, stream):
        x_raw = ImageTensor(stream.uniform((3, 8, 8)))
        y = pool_down(x_raw, 2)
        x_hat = pd_combine(y, x_raw, 2)
        assert np.max(np.abs(x_hat.data - x_raw.data)) < 1e-12

    def test_equals_up_plus_highfreq_bitwise(self, stream):
        y = ImageTensor(stream.uniform((3, 3, 3)))
        x_raw = ImageTensor(stream.gaussian((3, 9, 9)) * 30)
        via_parts = pool_up(y, 3).data + extract_highfreq(x_raw, 3).data
        assert np.array_equal(pd_combine(y, x_raw, 3).data, via_parts)

    def test_shape_mismatch(self):
        y = ImageTensor(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            pd_combine(y, ImageTensor(np.zeros((1, 4, 5))), 2)
        with pytest.raises(ValueError):
            pd_combine(y, ImageTensor(np.zeros((3, 4, 4))), 2)
        for s in (0, -1):
            with pytest.raises(ValueError, match=f"^scale must be a positive integer, got {s}$"):
                pd_combine(y, ImageTensor(np.zeros((1, 4, 4))), s)

    @given(lr_and_raw())
    def test_consistency_theorem(self, case):
        s, y, x_raw = case
        x_hat = pd_combine(y, x_raw, s)
        assert np.max(np.abs(pool_down(x_hat, s).data - y.data)) <= 1e-12

    @given(lr_and_raw())
    def test_decomposition_identity(self, case):
        s, _, x = case
        rebuilt = pool_up(pool_down(x, s), s).data + extract_highfreq(x, s).data
        assert np.max(np.abs(rebuilt - x.data)) <= 1e-12


class TestVerifyConsistency:
    def test_combined_output_is_consistent(self, stream):
        y = ImageTensor(stream.uniform((3, 4, 4)))
        x_raw = ImageTensor(stream.gaussian((3, 16, 16)) * 4)
        report = verify_consistency(y, pd_combine(y, x_raw, 4), 4)
        assert report.max_abs <= 1e-12
        assert report.psnr >= 240.0

    def test_replicated_input_hits_cap(self, stream):
        y = ImageTensor(stream.uniform((1, 5, 5)))
        report = verify_consistency(y, pool_up(y, 3), 3)
        assert report.mse == 0.0
        assert report.psnr == 300.0

    def test_uniform_offset_scale_one(self, stream):
        y = ImageTensor(stream.uniform((1, 10, 10)))
        shifted = ImageTensor(y.data + 0.01)
        report = verify_consistency(y, shifted, 1)
        assert abs(report.mse - 1e-4) < 1e-12
        assert abs(report.psnr - 40.0) < 1e-9

    def test_quantization_gap_reported_not_repaired(self):
        y = ImageTensor(np.zeros((1, 1, 1)))
        x_raw = ImageTensor(np.array([[[0.0, 1.0], [0.0, 1.0]]]))
        x_hat = pd_combine(y, x_raw, 2)
        exact = verify_consistency(y, x_hat, 2)
        lossy = verify_consistency(y, x_hat, 2, quantized=True)
        assert exact.max_abs == 0.0
        assert lossy.max_abs == 64 / 255

    def test_shape_mismatch(self):
        y = ImageTensor(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            verify_consistency(y, ImageTensor(np.zeros((1, 4, 6))), 2)

    def test_in_memory_verify_peaks_below_one_and_a_half_measurements(self):
        # The forward is measured into one fresh array, which then holds the
        # difference: no second measurement-sized array beside the walk's
        # scratch.
        rng = np.random.default_rng(3)
        op = PoolingOp(2, 3, 1024, 1024)
        x_hat = ImageTensor(rng.uniform(size=op.in_shape))
        y = ImageTensor(rng.uniform(size=op.out_shape))
        op.verify(y, x_hat)
        tracemalloc.start()
        try:
            op.verify(y, x_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * y.data.nbytes


class TestPoolingOp:
    def test_forward_pinv_match_functions(self, stream):
        op = PoolingOp(2, 3, 6, 6)
        x = ImageTensor(stream.uniform((3, 6, 6)))
        assert op.forward(x) == pool_down(x, 2)
        y = pool_down(x, 2)
        assert op.pinv(y) == pool_up(y, 2)

    def test_rejects_non_divisible_geometry(self):
        with pytest.raises(ValueError):
            PoolingOp(4, 1, 6, 8)

    def test_shape_checks(self):
        op = PoolingOp(2, 1, 4, 4)
        with pytest.raises(ValueError):
            op.forward(ImageTensor(np.zeros((1, 4, 6))))


# The stripe sizes the kernels are run at: one block row per stripe, a few
# block rows per stripe, and the default, under which these small images
# are a single stripe.
STRIPES = pytest.mark.parametrize("stripe_bytes", [1, 600, tensor._STRIPE_BYTES], ids=["row", "rows", "default"])


@st.composite
def blocked_arrays(draw):
    """(s, a): scale 1-8 and a float64 or float32 array of whole s x s blocks."""
    s = draw(st.integers(1, 8))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    shape = (draw(st.sampled_from([1, 3])), s * draw(st.integers(1, 5)), s * draw(st.integers(1, 5)))
    return s, draw(arrays(dtype, shape, elements=st.floats(-100, 100, width=np.finfo(dtype).bits)))


class TestStripedKernels:
    @STRIPES
    @given(blocked_arrays())
    def test_block_mean_matches_reshape_mean(self, stripe_bytes, case):
        s, a = case
        c, h, w = a.shape
        expected = a.astype(np.float64).reshape(c, h // s, s, w // s, s).mean(axis=(2, 4))
        with mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            got = measure(PoolingOp(s, *a.shape), a)
        assert got.dtype == a.dtype and got.shape == expected.shape
        # Each of the s*s additions rounds a partial sum of at most s*s * 200
        # by half an ulp: at most s*s * eps * 100 once divided by s*s.
        assert np.max(np.abs(got - expected), initial=0.0) <= 2 * s * s * np.finfo(a.dtype).eps * 100

    @STRIPES
    @given(lr_and_raw(max_s=8))
    def test_down_undoes_up_bit_exactly_to_scale_8(self, stripe_bytes, case):
        s, y, _ = case
        with mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            assert pool_down(pool_up(y, s), s) == y

    @STRIPES
    @given(lr_and_raw(max_s=8))
    def test_combine_is_up_plus_highfreq_bitwise(self, stripe_bytes, case):
        s, y, x_raw = case
        with mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            via_parts = pool_up(y, s).data + extract_highfreq(x_raw, s).data
            assert pd_combine(y, x_raw, s).data.tobytes() == via_parts.tobytes()
            y32, x32 = y.data.astype(np.float32), x_raw.data.astype(np.float32)
            op = PoolingOp(s, *x32.shape)
            via_parts32 = _replicate(y32, s) + (x32 - _replicate(measure(op, x32), s))
            combined32 = reconstruct(op, y32, x32)
            assert combined32.dtype == np.float32
            assert combined32.tobytes() == via_parts32.tobytes()


class TestOneOperatorTwoDtypes:
    def test_float32_then_float64_walks_give_the_bytes_of_the_parts(self):
        # Scratch is made per walk in the input's dtype.  At 600 stripe
        # bytes a width of 8 takes 18 float32 or 9 float64 block rows per
        # stripe at scale 2, so 20 block rows end in a short stripe.
        rng = np.random.default_rng(3)
        s, shape = 2, (3, 40, 8)
        op = PoolingOp(s, *shape)
        y = ImageTensor(rng.uniform(-1.0, 2.0, (3, 20, 4)))
        x_raw = ImageTensor(rng.uniform(-1.0, 2.0, shape))
        y32, x32 = y.data.astype(np.float32), x_raw.data.astype(np.float32)
        with mock.patch.object(tensor, "_STRIPE_BYTES", 600):
            assert [tensor._pooling_rows(8, a.itemsize, s) for a in (x32, x_raw.data)] == [18, 9]
            combined32 = reconstruct(op, y32, x32)
            via_parts32 = _replicate(y32, s) + (x32 - _replicate(measure(op, x32), s))
            combined = reconstruct(op, y.data, x_raw.data)
            via_parts = pool_up(y, s).data + extract_highfreq(x_raw, s).data
        assert combined32.dtype == np.float32 and combined32.tobytes() == via_parts32.tobytes()
        assert combined.dtype == np.float64 and combined.tobytes() == via_parts.tobytes()


@st.composite
def walk_cases(draw):
    """(predictor, raw format, output names, s, y, x): every predictor, a
    PDT1 or PNG prediction, every order of PDT1 and PNG outputs, odd sides."""
    s = draw(st.sampled_from([1, 2, 3, 4, 8]))
    c, h, w = draw(st.sampled_from([1, 3])), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vals = st.sampled_from([0.0, -0.0]) | st.floats(-0.5, 1.5, width=64)
    names = draw(st.sampled_from([["o.pdt1"], ["o.png"], ["o.pdt1", "o.png"], ["o.png", "o2.pdt1"],
                                  ["o.pdt1", "o2.pdt1"]]))
    return (
        draw(st.sampled_from(PREDICTORS)),
        draw(st.sampled_from(["pdt1", "png"])),
        names,
        s,
        ImageTensor(draw(arrays(np.float64, (c, h, w), elements=vals))),
        ImageTensor(draw(arrays(np.float64, (c, h * s, w * s), elements=vals))),
    )


class TestStreamedKernels:
    """``reconstruct`` and ``verify_consistency`` read a PDT1 file one stripe
    at a time and must give the in-memory path's bytes and records."""

    @STRIPES
    @given(lr_and_raw(max_s=8, signed_zeros=True))
    def test_stream_equals_in_memory(self, stripe_bytes, case):
        s, y, x_raw = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            raw, out, ref = Path(tmp, "raw.pdt1"), Path(tmp, "out.pdt1"), Path(tmp, "ref.pdt1")
            write_raw(x_raw, raw)
            with RawReader(raw) as reader:
                (record,) = reconstruct(PoolingOp.for_measurement(y, s), y, reader, out)
            x_hat = pd_combine(y, x_raw, s)
            write_raw(x_hat, ref)
            assert out.read_bytes() == ref.read_bytes()
            assert record.to_dict() == PoolingOp.for_measurement(y, s).verify(y, x_hat).to_dict()
            with RawReader(out) as reader:
                assert verify_consistency(y, reader, s).to_dict() == verify_consistency(y, x_hat, s).to_dict()

    @pytest.mark.parametrize("stripe_bytes", [1, tensor._STRIPE_BYTES], ids=["row", "default"])
    @given(walk_cases())
    def test_walk_equals_the_in_memory_composition(self, stripe_bytes, case):
        # The files and records of the one walk against predict_raw, then
        # PoolingOp.combine, then write_raw or save_png and op.verify of each
        # file in turn, a PNG handing its 8-bit image to the next.
        predictor, raw_format, names, s, y, x = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            raw = Path(tmp, f"raw.{raw_format}")
            (save_png if raw_format == "png" else write_raw)(x, raw)
            raw = raw if predictor == "external" else None
            with open_prediction(y, predictor, s, raw) as source:
                records = reconstruct(PoolingOp.for_measurement(y, s), y, source, *(Path(tmp, name) for name in names))
            op = PoolingOp.for_measurement(y, s)
            x_hat = op.combine(y, predict_raw(y, predictor, s, raw))
            for name, record in zip(names, records):
                ref = Path(tmp, "ref" + name)
                if name.endswith(".png"):
                    x_hat = save_png(x_hat, ref)
                else:
                    write_raw(x_hat, ref)
                assert Path(tmp, name).read_bytes() == ref.read_bytes()
                assert record.to_dict() == op.verify(y, x_hat).to_dict()

    @STRIPES
    @pytest.mark.parametrize("s", [1, 2, 8])
    def test_an_array_source_is_left_as_it_was(self, tmp_path, stripe_bytes, s):
        # The walk combines a stripe source's stripes in place, but an
        # array's only in a buffer of its own, even a writable array.
        rng = np.random.default_rng(5)
        y = ImageTensor(rng.uniform(size=(3, 3, 4)))
        x_raw = rng.uniform(size=(3, 3 * s, 4 * s))
        before = x_raw.tobytes()
        with mock.patch.object(tensor, "_STRIPE_BYTES", stripe_bytes):
            (record,) = reconstruct(PoolingOp.for_measurement(y, s), y, x_raw, tmp_path / "o.pdt1")
        assert x_raw.flags.writeable and x_raw.tobytes() == before
        x_hat = pd_combine(y, ImageTensor(x_raw.copy()), s)
        with RawReader(tmp_path / "o.pdt1") as reader:
            assert b"".join(stripe.tobytes() for stripe in reader.stripes(1)) == x_hat.data.tobytes()
        assert record.to_dict() == verify_consistency(y, x_hat, s).to_dict()

    def test_scale_one_keeps_signed_zeros(self, tmp_path):
        # (x - x) + y, not x minus its anchored mean: the mean of -0.0 is +0.0.
        y = ImageTensor(np.array([[[-0.0, 0.0, -0.0]]]))
        raw, out = tmp_path / "raw.pdt1", tmp_path / "out.pdt1"
        write_raw(ImageTensor(np.array([[[-0.0, -0.0, 0.0]]])), raw)
        with RawReader(raw) as reader:
            reconstruct(PoolingOp.for_measurement(y, 1), y, reader, out)
        with RawReader(out) as reader:
            (stripe,) = reader.stripes(1)
            assert np.signbit(stripe).tolist() == [[False, False, False]]
