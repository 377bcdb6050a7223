"""Channel-mean and block compressed-sensing operators plus the generic combine."""

import numpy as np
import pytest

from rangenull import (
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
