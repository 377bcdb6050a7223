"""SVD engine, pseudo-inverse construction, projections, diagnostics."""

import numpy as np
import pytest

from rangenull import (
    ColorMeanOp,
    DenseOperator,
    IdentityOperator,
    ImageTensor,
    LinearOperator,
    PoolingOp,
    compare,
    cs_build,
    load_matrix,
    mp_residuals,
    null_project,
    pinv_from_svd,
    quantize,
    range_project,
    save_matrix,
    svd,
)


def reconstruct(f):
    d, cap_d = f.u.shape[0], f.v.shape[0]
    sig = np.zeros((d, cap_d))
    k = len(f.sigma)
    sig[np.arange(k), np.arange(k)] = f.sigma
    return f.u @ sig @ f.v.T


class TestSvd:
    def test_identity_has_unit_singular_values(self):
        f = svd(np.eye(3))
        assert f.sigma.tolist() == [1.0, 1.0, 1.0]

    def test_flat_averaging_row(self):
        # 1x9 row of 1/9: the only singular value is sqrt(9 * (1/9)^2) = 1/3.
        f = svd(np.full((1, 9), 1.0 / 9.0))
        assert f.sigma.shape == (1,)
        assert abs(f.sigma[0] - 1.0 / 3.0) < 1e-15

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (5, 5), (1, 7), (7, 1), (8, 12)])
    def test_factor_invariants(self, shape, stream):
        m = stream.gaussian(shape)
        f = svd(m)
        d, cap_d = shape
        assert np.max(np.abs(f.u.T @ f.u - np.eye(d))) < 1e-9
        assert np.max(np.abs(f.v.T @ f.v - np.eye(cap_d))) < 1e-9
        assert np.max(np.abs(reconstruct(f) - m)) < 1e-9
        assert np.all(f.sigma >= 0.0)
        assert np.all(np.diff(f.sigma) <= 0.0)

    # Inputs whose left basis the SVD must complete on its own: a tall
    # rank-1 matrix and the all-zero matrix have fewer nonzero singular
    # values than rows.
    @pytest.mark.parametrize("kind", ["tall_rank1", "zero_tall", "zero_wide"])
    def test_factor_invariants_degenerate(self, kind, stream):
        m = {
            "tall_rank1": lambda: np.outer(stream.gaussian(9), stream.gaussian(4)),
            "zero_tall": lambda: np.zeros((6, 3)),
            "zero_wide": lambda: np.zeros((3, 6)),
        }[kind]()
        f = svd(m)
        d, cap_d = m.shape
        assert np.max(np.abs(f.u.T @ f.u - np.eye(d))) < 1e-9
        assert np.max(np.abs(f.v.T @ f.v - np.eye(cap_d))) < 1e-9
        assert np.max(np.abs(reconstruct(f) - m)) < 1e-9
        assert np.all(f.sigma >= 0.0)
        assert np.all(np.diff(f.sigma) <= 0.0)
        assert np.sum(f.sigma > 1e-10) == (1 if kind == "tall_rank1" else 0)

    def test_rank_deficient_input(self, stream):
        m = np.outer(stream.gaussian(6), stream.gaussian(9))
        f = svd(m)
        assert np.max(np.abs(reconstruct(f) - m)) < 1e-9
        assert np.max(np.abs(f.u.T @ f.u - np.eye(6))) < 1e-9
        assert np.sum(f.sigma > 1e-10) == 1

    def test_deterministic(self, stream):
        m = stream.gaussian((7, 5))
        a, b = svd(m), svd(m)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.v, b.v)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan]]))


class TestPinvFromSvd:
    def test_identity(self):
        assert np.max(np.abs(pinv_from_svd(svd(np.eye(4))) - np.eye(4))) < 1e-12

    def test_channel_mean_row(self):
        # Closed form A^T (A A^T)^-1 for the full-row-rank 1x3 mean: (1,1,1)^T.
        pin = pinv_from_svd(svd(np.full((1, 3), 1.0 / 3.0)))
        assert np.max(np.abs(pin - np.ones((3, 1)))) < 1e-12

    def test_zero_matrix(self):
        assert np.array_equal(pinv_from_svd(svd(np.zeros((2, 2)))), np.zeros((2, 2)))

    def test_tol_validation(self):
        f = svd(np.eye(2))
        for bad in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(ValueError):
                pinv_from_svd(f, tol=bad)

    @pytest.mark.parametrize("shape", [(3, 8), (5, 9), (2, 4)])
    def test_matches_closed_form_on_wide_matrices(self, shape, stream):
        m = stream.gaussian(shape)
        closed = m.T @ np.linalg.solve(m @ m.T, np.eye(shape[0]))
        assert np.max(np.abs(pinv_from_svd(svd(m)) - closed)) < 1e-7

    def test_moore_penrose_conditions_dense(self, stream):
        m = stream.gaussian((8, 12))
        pin = pinv_from_svd(svd(m))
        assert np.max(np.abs(m @ pin @ m - m)) < 1e-8
        assert np.max(np.abs(pin @ m @ pin - pin)) < 1e-8
        assert np.max(np.abs((m @ pin).T - m @ pin)) < 1e-8
        assert np.max(np.abs((pin @ m).T - pin @ m)) < 1e-8


# Explicit 4x4 projector oracles for 2x2 block averaging of a 2x2 patch.
_POOL_A = np.full((1, 4), 0.25)
_POOL_AP = np.ones((4, 1))


class TestProjections:
    def test_range_projection_of_patch(self):
        op = DenseOperator(_POOL_A)
        x = ImageTensor(np.array([1.0, 2.0, 3.0, 6.0]).reshape(1, 1, 4))
        got = range_project(op, x)
        oracle = (_POOL_AP @ _POOL_A) @ np.array([1.0, 2.0, 3.0, 6.0])
        assert np.max(np.abs(got.data.ravel() - oracle)) < 1e-12
        assert np.max(np.abs(got.data.ravel() - 3.0)) < 1e-12

    def test_null_projection_of_patch(self):
        op = DenseOperator(_POOL_A)
        x = ImageTensor(np.array([1.0, 2.0, 3.0, 6.0]).reshape(1, 1, 4))
        got = null_project(op, x)
        oracle = (np.eye(4) - _POOL_AP @ _POOL_A) @ np.array([1.0, 2.0, 3.0, 6.0])
        assert np.max(np.abs(got.data.ravel() - oracle)) < 1e-12
        assert np.max(np.abs(got.data.ravel() - [-2.0, -1.0, 0.0, 3.0])) < 1e-12

    def test_zero_mean_vector_is_pure_null_space(self):
        op = DenseOperator(np.full((1, 3), 1.0 / 3.0))
        x = ImageTensor(np.array([1.0, 0.0, -1.0]).reshape(1, 1, 3))
        assert np.max(np.abs(null_project(op, x).data - x.data)) < 1e-12

    def test_range_fixed_point(self, stream):
        op = DenseOperator(stream.gaussian((3, 7)))
        y = ImageTensor(stream.gaussian((1, 1, 3)))
        x = op.pinv(y)
        assert np.max(np.abs(range_project(op, x).data - x.data)) < 1e-10

    def test_identity_operator_projections(self, stream):
        op = IdentityOperator((2, 3, 3))
        x = ImageTensor(stream.gaussian((2, 3, 3)))
        assert range_project(op, x) == x
        assert np.max(np.abs(null_project(op, x).data)) == 0.0

    def test_idempotent_and_complementary(self, stream):
        for shape in [(2, 5), (4, 9), (6, 6)]:
            op = DenseOperator(stream.gaussian(shape))
            x = ImageTensor(stream.gaussian((1, 1, shape[1])) * 40)
            r = range_project(op, x)
            n = null_project(op, x)
            assert np.max(np.abs(r.data + n.data - x.data)) < 1e-12
            assert np.max(np.abs(range_project(op, r).data - r.data)) < 1e-9
            assert np.max(np.abs(op.forward(n).data)) < 1e-10

    def test_shape_mismatch(self):
        op = DenseOperator(_POOL_A)
        with pytest.raises(ValueError):
            op.forward(ImageTensor(np.zeros((1, 1, 3))))
        with pytest.raises(ValueError):
            op.pinv(ImageTensor(np.zeros((1, 1, 4))))

    def test_linearity(self, stream):
        op = DenseOperator(stream.gaussian((4, 10)))
        for _ in range(20):
            u = ImageTensor(stream.gaussian((1, 1, 10)))
            v = ImageTensor(stream.gaussian((1, 1, 10)))
            a, b = stream.uniform(2) * 8 - 4
            lhs = op.forward(ImageTensor(a * u.data + b * v.data)).data
            rhs = a * op.forward(u).data + b * op.forward(v).data
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestMpResiduals:
    def test_identity_operator_is_exact(self):
        res = mp_residuals(IdentityOperator((1, 2, 2)), trials=4, seed=1)
        assert res.r1 == res.r2 == res.r3 == res.r4 == 0.0

    def test_pooling_pair_is_exact(self):
        from rangenull import PoolingOp

        res = mp_residuals(PoolingOp(2, 1, 4, 4), trials=8, seed=2)
        assert max(res.r1, res.r2, res.r3, res.r4) <= 1e-12

    def test_svd_derived_dense_operator(self, stream):
        m = stream.gaussian((8, 12))
        op = DenseOperator(m)
        res = mp_residuals(op, trials=8, seed=3)
        assert max(res.r1, res.r2, res.r3, res.r4) <= 1e-8
        # Brute-force matrix-product cross-check of the same conditions.
        pin = op.pinv_matrix
        assert np.max(np.abs(m @ pin @ m - m)) <= 1e-8

    def test_deterministic(self):
        op = IdentityOperator((1, 3, 3))
        assert mp_residuals(op, trials=3, seed=7) == mp_residuals(op, trials=3, seed=7)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            mp_residuals(IdentityOperator((1, 1, 1)), trials=0)


class TestMatrixIO:
    def test_roundtrip(self, tmp_path, stream):
        m = stream.gaussian((3, 5))
        path = tmp_path / "m.pdt1"
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path), m)

    def test_rejects_multichannel(self, tmp_path):
        from rangenull import write_raw

        path = tmp_path / "bad.pdt1"
        write_raw(ImageTensor(np.zeros((2, 2, 2))), path)
        with pytest.raises(ValueError):
            load_matrix(path)


# (operator factory taking the test stream, consistency tolerance)
_OPERATORS = [
    pytest.param(lambda stream: PoolingOp(2, 3, 8, 8), 1e-12, id="pooling"),
    pytest.param(lambda stream: ColorMeanOp(5, 5), 1e-12, id="color"),
    pytest.param(lambda stream: cs_build(4, 0.25, seed=13).bind_shape(3, 8, 8), 1e-10, id="cs"),
    pytest.param(lambda stream: DenseOperator(stream.gaussian((6, 10))), 1e-10, id="dense"),
    pytest.param(lambda stream: IdentityOperator((2, 3, 3)), 1e-12, id="identity"),
]


class TestCombineVerify:
    @pytest.mark.parametrize("make_op, tol", _OPERATORS)
    def test_combine_then_verify_is_consistent(self, make_op, tol, stream):
        op = make_op(stream)
        y = op.forward(ImageTensor(stream.uniform(op.in_shape)))
        x_raw = ImageTensor(stream.gaussian(op.in_shape) * 3)
        x_hat = op.combine(y, x_raw)
        assert x_hat.shape == op.in_shape
        assert op.verify(y, x_hat).max_abs <= tol

    def test_verify_quantized_measures_the_quantized_reconstruction(self, stream):
        op = DenseOperator(stream.gaussian((6, 10)))
        y = op.forward(ImageTensor(stream.uniform(op.in_shape)))
        x_hat = ImageTensor(stream.gaussian(op.in_shape))
        assert op.verify(y, x_hat, quantized=True) == compare(y, op.forward(quantize(x_hat)))

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 8])
    def test_pooling_override_matches_generic_formula_bitwise(self, s, stream):
        op = PoolingOp(s, 3, 24, 24)
        y = ImageTensor(stream.uniform(op.out_shape))
        x_raw = ImageTensor(stream.gaussian(op.in_shape) * 5)
        formula = op.pinv(y).data + null_project(op, x_raw).data
        assert np.array_equal(op.combine(y, x_raw).data, formula)
        assert np.array_equal(LinearOperator.combine(op, y, x_raw).data, formula)

    def test_pooling_for_measurement_geometry(self):
        op = PoolingOp.for_measurement(ImageTensor(np.zeros((3, 4, 5))), 3)
        assert (op.scale, op.in_shape, op.out_shape) == (3, (3, 12, 15), (3, 4, 5))

    def test_pooling_combine_checks_measurement_shape(self):
        op = PoolingOp(2, 1, 4, 4)
        with pytest.raises(ValueError, match="measurement shape"):
            op.combine(ImageTensor(np.zeros((1, 3, 3))), ImageTensor(np.zeros((1, 4, 4))))
