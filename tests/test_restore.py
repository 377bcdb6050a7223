"""Channel-mean and block compressed-sensing operators plus the generic combine."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangenull import (
    BlockSenseOp,
    ColorMeanOp,
    ImageTensor,
    PoolingOp,
    color_to_gray,
    cs_build,
    cs_measure,
    cs_pinv,
    generic_pd,
    gray_to_color,
    load_sense_op,
    measurement_count,
    pd_combine,
    save_sense_op,
)
from rangenull.restore import _channel_mean
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
        first = a[:1]
        oracle = first + (a - first).sum(axis=0, keepdims=True) / a.shape[0]
        assert _channel_mean(a).tobytes() == oracle.tobytes()

    def test_operator_wrapper(self, stream):
        op = ColorMeanOp(3, 3)
        x = ImageTensor(stream.gaussian((3, 3, 3)))
        assert op.forward(x) == color_to_gray(x)
        g = color_to_gray(x)
        assert op.pinv(g) == gray_to_color(g)
        with pytest.raises(ValueError):
            op.forward(ImageTensor(np.zeros((3, 4, 4))))


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


def _sha256(data):
    return hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest()


class TestGoldenHashes:
    """Digests recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64, Haswell
    kernels); each holds under OPENBLAS_NUM_THREADS=1 and =2.  They catch
    drift on this platform.  Another BLAS or CPU may change the last bits
    of the Gaussian, the SVD and the products, and with them every digest;
    the PDM1 file, not the seed, is what carries an operator exactly."""

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

    @pytest.mark.parametrize("block", sorted(PDM1))
    def test_cs_build_pdm1_bytes(self, tmp_path, block):
        path = tmp_path / "op.pdm1"
        save_sense_op(cs_build(block, 0.25, seed=2026), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PDM1[block]

    @pytest.mark.parametrize("block", sorted(KERNELS))
    def test_cs_measure_and_pinv_outputs(self, block):
        op = cs_build(block, 0.25, seed=2026)
        x = ImageTensor(Stream(2026).uniform((3, 2 * block, 3 * block)))
        m = cs_measure(op, x)
        assert (_sha256(m.data), _sha256(cs_pinv(op, m).data)) == self.KERNELS[block]
