"""SVD engine, pseudo-inverse construction, projections, diagnostics."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from rangenull import (
    ColorMeanOp,
    DenseOperator,
    IdentityOperator,
    ImageTensor,
    LinearOperator,
    PoolingOp,
    RawReader,
    compare,
    cs_build,
    lift,
    load_matrix,
    measure,
    mp_residuals,
    null_project,
    pinv_from_svd,
    quantize,
    range_project,
    save_matrix,
    save_tensor,
    svd,
    write_raw,
)
from rangenull import linop, restore, tensor
from rangenull.rng import Stream


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


class TestIdentityKeepsBits:
    """``IdentityOperator`` gives back its input's bytes on every path, the
    signed zeros, subnormals and near-overflow samples of ``_samples``
    included; its combine ``(x_raw - x_raw) + y`` is ``y``'s bytes but that
    ``+0.0 + -0.0`` is ``+0.0``."""

    SAMPLES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.7e308, -1.7e308, 0.25, -3.0, 1.0, -0.0]

    def _samples(self):
        a = np.array(self.SAMPLES * 2).reshape(2, 3, 4)
        return a, a[:, ::-1, ::-1].copy()

    def test_forward_and_pinv(self):
        y, _ = self._samples()
        op = IdentityOperator(y.shape)
        assert op.forward(ImageTensor(y.copy())).data.tobytes() == y.tobytes()
        assert op.pinv(ImageTensor(y.copy())).data.tobytes() == y.tobytes()

    def test_combine_and_reconstruct(self, tmp_path):
        from rangenull import reconstruct as reconstruct_into

        y, x_raw = self._samples()
        op = IdentityOperator(y.shape)
        expected = y + 0.0  # (x_raw - x_raw) is +0.0 for every finite sample
        assert np.signbit(expected).sum() == np.signbit(y).sum() - 4
        assert op.combine(ImageTensor(y.copy()), ImageTensor(x_raw.copy())).data.tobytes() == expected.tobytes()
        (report,) = reconstruct_into(op, ImageTensor(y.copy()), x_raw, tmp_path / "o.pdt1")
        assert report.max_abs == 0.0
        assert (tmp_path / "o.pdt1").read_bytes()[16:] == expected.astype("<f8").tobytes()

    def test_measure_of_a_raw_reader(self, tmp_path):
        y, _ = self._samples()
        op = IdentityOperator(y.shape)
        write_raw(ImageTensor(y.copy()), tmp_path / "x.pdt1")
        with RawReader(tmp_path / "x.pdt1") as reader:
            assert measure(op, reader).tobytes() == y.tobytes()
            measure(op, reader, tmp_path / "y.pdt1")
        assert (tmp_path / "y.pdt1").read_bytes() == (tmp_path / "x.pdt1").read_bytes()

    def test_mp_residuals_stay_zero(self):
        res = mp_residuals(IdentityOperator((3, 4, 5)), trials=4, seed=3)
        assert res.r1 == res.r2 == res.r3 == res.r4 == 0.0

    def test_for_measurement_at_scale_1(self):
        # The identity's inherited ``for_measurement`` builds pooling at
        # scale 1, whose combine has the identity's bytes.
        y, x_raw = self._samples()
        op = IdentityOperator.for_measurement(ImageTensor(y.copy()), 1)
        assert op.in_shape == op.out_shape == y.shape
        expected = IdentityOperator(y.shape).combine(ImageTensor(y.copy()), ImageTensor(x_raw.copy())).data
        assert op.combine(ImageTensor(y.copy()), ImageTensor(x_raw.copy())).data.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("make_op, tol", _OPERATORS)
    def test_verify_takes_an_array_or_a_stripe_source(self, make_op, tol, stream, tmp_path):
        # The report of ``compare`` with the forward, for an ``ImageTensor``,
        # its array and a ``RawReader`` on its PDT1 alike.
        op = make_op(stream)
        y = ImageTensor(stream.uniform(op.out_shape))
        x_hat = ImageTensor(stream.gaussian(op.in_shape))
        expected = compare(y, op.forward(x_hat))
        assert op.verify(y, x_hat) == expected
        assert op.verify(y, x_hat.data.copy()) == expected
        write_raw(x_hat, tmp_path / "x.pdt1")
        with RawReader(tmp_path / "x.pdt1") as reader:
            assert op.verify(y, reader) == expected

    @pytest.mark.parametrize("make_op, tol", _OPERATORS)
    def test_verify_refuses_a_misfit_measurement(self, make_op, tol, stream):
        op = make_op(stream)
        c, h, w = op.out_shape
        y = ImageTensor(stream.uniform((c, h, w + 1)))
        with pytest.raises(ValueError, match=f"^{re.escape(f'shape mismatch: {y.shape} vs {op.out_shape}')}$"):
            op.verify(y, ImageTensor(stream.uniform(op.in_shape)))

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


class TestMeasure:
    """``measure`` with the base class's measurer (``DenseOperator``) or a
    block operator's: the bits of ``forward``, and with a path the bytes
    ``save_tensor`` writes."""

    MAKERS = {
        "identity": lambda stream: IdentityOperator((3, 3, 4)),
        "dense": lambda stream: DenseOperator(stream.gaussian((6, 36)), in_shape=(3, 3, 4), out_shape=(1, 2, 3)),
    }

    @pytest.mark.parametrize("name", list(MAKERS))
    def test_equals_forward_bit_for_bit(self, tmp_path, stream, name):
        op = self.MAKERS[name](stream)
        x = stream.gaussian(op.in_shape)
        expected = op.forward(ImageTensor(x.copy())).data
        got = measure(op, x)
        assert (got.shape, got.tobytes()) == (expected.shape, expected.tobytes())
        assert got.flags.writeable and x.flags.writeable  # fresh, and the caller's array is left writable
        write_raw(ImageTensor(x), tmp_path / "x.pdt1")
        with RawReader(tmp_path / "x.pdt1") as reader:
            assert measure(op, reader).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", list(MAKERS))
    @pytest.mark.parametrize("suffix", ["pdt1", "png"])
    def test_writes_the_save_tensor_bytes(self, tmp_path, stream, name, suffix):
        op = self.MAKERS[name](stream)
        x = stream.uniform(op.in_shape)
        assert measure(op, x, tmp_path / f"m.{suffix}") is None
        save_tensor(op.forward(ImageTensor(x.copy())), tmp_path / f"ref.{suffix}")
        assert (tmp_path / f"m.{suffix}").read_bytes() == (tmp_path / f"ref.{suffix}").read_bytes()

    def test_refuses_a_misfit_with_the_operator_message(self):
        with pytest.raises(ValueError, match=r"^input shape \(3, 3, 5\) does not match operator shape \(3, 3, 4\)$"):
            measure(IdentityOperator((3, 3, 4)), np.zeros((3, 3, 5)))

    def test_identity_checks_the_gathered_source(self, tmp_path):
        x = np.zeros((1, 2, 2))
        x[0, 1, 0] = np.inf
        (tmp_path / "x.pdt1").write_bytes(struct.pack("<4sIII", b"PDT1", *x.shape) + x.tobytes())
        with RawReader(tmp_path / "x.pdt1") as reader, pytest.raises(ValueError, match="must be finite"):
            measure(IdentityOperator((1, 2, 2)), reader)

    def test_identity_verify_holds_one_measurement(self):
        # The gathered source is the forward, which then holds the difference.
        rng = np.random.default_rng(5)
        op = IdentityOperator((3, 1024, 1024))
        y, x_hat = (ImageTensor(rng.uniform(size=op.in_shape)) for _ in range(2))
        tracemalloc.start()
        try:
            op.verify(y, x_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * y.data.nbytes

    @pytest.mark.parametrize("scale, bound", [(1, 1.07), (2, 1.285)])
    def test_pooling_verify_makes_no_block_means_beside_the_measurement(self, scale, bound):
        # The forward walk takes each stripe's block means into the measurement
        # itself, so its scratch is ``_band_mean``'s planes alone (one at scale
        # 1, the ``IdentityOperator``): no separate array of means is made.
        rng = np.random.default_rng(5)
        op = PoolingOp(scale, 3, 1024, 1024)
        x_hat = ImageTensor(rng.uniform(size=op.in_shape))
        y = ImageTensor(rng.uniform(size=op.out_shape))
        tracemalloc.start()
        try:
            op.verify(y, x_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * y.data.nbytes

    @pytest.mark.parametrize("call", ["forward", "verify"])
    def test_channel_mean_of_an_array_holds_one_measurement(self, call):
        # Channel 0 is read in place, beside the sum and one spare stripe.
        rng = np.random.default_rng(5)
        op = ColorMeanOp(1024, 1024)
        x = ImageTensor(rng.uniform(size=op.in_shape))
        y = op.forward(x)
        tracemalloc.start()
        try:
            op.forward(x) if call == "forward" else op.verify(y, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * y.data.nbytes


class TestMeasureWritesEveryFileAtOnce:
    """``measure`` into several paths writes them through one set of writers:
    every file gets the float forward, and a bad destination anywhere
    leaves every path as it was."""

    MAKERS = {
        "identity": lambda: IdentityOperator((3, 4, 6)),
        "pooling": lambda: PoolingOp(2, 3, 4, 6),
        "color": lambda: ColorMeanOp(4, 6),
        "cs": lambda: cs_build(2, 0.25, seed=1),
        "dense": lambda: DenseOperator(Stream(1).gaussian((12, 72)), in_shape=(3, 4, 6), out_shape=(1, 2, 6)),
    }

    @pytest.mark.parametrize("name", list(MAKERS))
    @pytest.mark.parametrize("names", [("a.png", "b.pdt1"), ("a.pdt1", "b.png"), ("a.png", "b.png")])
    def test_each_file_holds_the_forward(self, tmp_path, stream, name, names):
        op = self.MAKERS[name]()
        x = stream.uniform((3, 4, 6))
        measure(op, x, *(tmp_path / n for n in names))
        forward = op.forward(ImageTensor(x.copy()))
        for n in names:
            save_tensor(forward, tmp_path / f"ref_{n}")
            assert (tmp_path / n).read_bytes() == (tmp_path / f"ref_{n}").read_bytes()

    @pytest.mark.parametrize("name", list(MAKERS))
    def test_each_writer_takes_the_forward_in_one_call(self, tmp_path, stream, monkeypatch, name):
        calls = []
        for writer in (tensor._RawWriter, tensor._PngWriter):

            def counted(w, rows, out=None, write=writer.write):
                calls.append(type(w).__name__)
                return write(w, rows, out)

            monkeypatch.setattr(writer, "write", counted)
        measure(self.MAKERS[name](), stream.uniform((3, 4, 6)), tmp_path / "a.png", tmp_path / "b.pdt1")
        assert calls == ["_PngWriter", "_RawWriter"]

    @pytest.mark.parametrize("name", list(MAKERS))
    @pytest.mark.parametrize("old", [None, b"old"])
    def test_a_directory_among_the_paths_writes_nothing(self, tmp_path, stream, name, old):
        op = self.MAKERS[name]()
        target = tmp_path / "a.pdt1"
        if old is not None:
            target.write_bytes(old)
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            measure(op, stream.uniform((3, 4, 6)), target, tmp_path / "d")
        assert (target.read_bytes() if target.exists() else None) == old
        assert not list(tmp_path.rglob("*.tmp"))


class TestLift:
    """``lift`` writes ``pinv`` of a measurement into every file, each as
    ``save_tensor`` writes it, or returns it; a bad destination anywhere
    leaves every path as it was."""

    MAKERS = {
        "identity": lambda stream: IdentityOperator((3, 4, 6)),
        "pooling": lambda stream: PoolingOp(2, 3, 4, 6),
        "color": lambda stream: ColorMeanOp(4, 6),
        "cs": lambda stream: cs_build(2, 0.5, seed=1),
        "dense": lambda stream: DenseOperator(stream.gaussian((12, 72)), in_shape=(3, 4, 6), out_shape=(1, 2, 6)),
    }

    def _case(self, stream, name):
        op = self.MAKERS[name](stream)
        return op, op.forward(ImageTensor(stream.uniform((3, 4, 6)) * 1.5 - 0.25))

    @pytest.mark.parametrize("name", list(MAKERS))
    def test_returns_pinv_in_a_fresh_array(self, stream, name):
        op, y = self._case(stream, name)
        got = lift(op, y)
        assert got.flags.writeable and not np.shares_memory(got, y.data)
        assert got.tobytes() == op.pinv(y).data.tobytes()

    @pytest.mark.parametrize("name", list(MAKERS))
    @pytest.mark.parametrize("names", [("a.pdt1",), ("a.png",), ("a.png", "b.pdt1"), ("a.pdt1", "b.png"),
                                       ("a.png", "b.png")])
    def test_each_file_holds_pinv(self, tmp_path, stream, name, names):
        op, y = self._case(stream, name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor, "_STRIPE_BYTES", 64)
            assert lift(op, y, *(tmp_path / n for n in names)) is None
        for n in names:
            save_tensor(op.pinv(y), tmp_path / f"ref_{n}")
            assert (tmp_path / n).read_bytes() == (tmp_path / f"ref_{n}").read_bytes()

    @pytest.mark.parametrize("name", list(MAKERS))
    def test_measurement_checks_come_before_the_destination(self, tmp_path, stream, name):
        op, y = self._case(stream, name)
        bad = ImageTensor(np.zeros((y.channels + 1, y.height, y.width)))
        (tmp_path / "d").mkdir()
        with pytest.raises(ValueError) as lifted:
            lift(op, bad, tmp_path / "d")
        with pytest.raises(ValueError) as inverted:
            op.pinv(bad)
        assert str(lifted.value) == str(inverted.value)

    @pytest.mark.parametrize("name", list(MAKERS))
    def test_a_directory_among_the_paths_writes_nothing(self, tmp_path, stream, name):
        op, y = self._case(stream, name)
        (tmp_path / "a.pdt1").write_bytes(b"old")
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            lift(op, y, tmp_path / "a.pdt1", tmp_path / "d")
        assert (tmp_path / "a.pdt1").read_bytes() == b"old"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("s, rows", [(2, 1), (3, 2), (3, 4), (4, 6), (8, 3)])
    def test_pooling_source_makes_any_stripe_height(self, stream, s, rows):
        y = ImageTensor(stream.uniform((2, 5, 3)))
        src = PoolingOp.for_measurement(y, s)._lift_source(y.data)
        whole = np.repeat(np.repeat(y.data, s, axis=1), s, axis=2)
        lengths, pieces = [], []
        for stripe in src.stripes(rows):
            lengths.append(len(stripe))
            pieces.append(stripe.tobytes())
        assert lengths == [min(rows, 5 * s - r0) for r0 in range(0, 5 * s, rows)] * 2
        assert b"".join(pieces) == whole.tobytes()


class TestKernelsOrOverrides:
    """``LinearOperator`` runs ``forward`` on its measurer and the measurer on
    ``forward`` (``pinv`` and the ``A+`` source likewise), so a class that
    overrides neither of a pair is refused by name when it is instantiated,
    not left to recurse."""

    def test_a_subclass_without_pinv_is_refused_by_name(self):
        class Half(LinearOperator):
            in_shape, out_shape = (1, 1, 2), (1, 1, 1)

            def forward(self, x):
                return ImageTensor(x.data[:, :, :1].copy())

        class Whole(Half):
            def pinv(self, y):
                return ImageTensor(np.repeat(y.data, 2, axis=2))

        with pytest.raises(TypeError, match="^Half overrides neither pinv nor _lift_source$"):
            Half()
        with pytest.raises(TypeError, match="^LinearOperator overrides neither forward nor _measurer$"):
            LinearOperator()
        assert Whole().pinv(ImageTensor(np.ones((1, 1, 1)))).data.tolist() == [[[1.0, 1.0]]]
        assert measure(Whole(), np.ones((1, 1, 2))).tolist() == [[[1.0]]]


class TestMisfitPredictionRefusal:
    """A raw prediction that does not fit is refused after ``A+ y`` is read
    through only where ``A+`` of a finite measurement can overflow: block
    sensing's, not pooling's, the channel mean's or a dense matrix's."""

    @pytest.mark.parametrize("operator", ["pooling", "color", "dense", "cs"])
    def test_reads_a_plus_y_through_only_where_it_can_overflow(self, monkeypatch, operator):
        if operator == "pooling":
            op = PoolingOp(2, 3, 4, 4)
        elif operator == "color":
            op = ColorMeanOp(4, 4)
        elif operator == "dense":
            op = DenseOperator(np.eye(6, 12), in_shape=(3, 2, 2), out_shape=(1, 2, 3))
        else:
            op = cs_build(2, 0.5, seed=1)
        y = ImageTensor(np.ones((op.q * 3, 2, 2)) if operator == "cs" else np.ones(op.out_shape))
        read = []
        monkeypatch.setattr(linop, "_read_through", read.append)
        with pytest.raises(ValueError, match="^raw prediction shape"):
            op.combine(y, ImageTensor(np.zeros((3, 4, 6))))
        assert len(read) == (operator == "cs")


def _finite_checks(monkeypatch):
    """The arrays passed to ``_check_finite`` from now on, in order."""
    checked = []

    def record(arr, real=tensor._check_finite):
        checked.append(arr)
        real(arr)

    for module in (tensor, linop, restore):
        monkeypatch.setattr(module, "_check_finite", record)
    return checked


class TestOneCheckPerComputedArray:
    """The combine's walk checks each stripe it combines, while it is in
    cache, and ``combine`` and ``forward`` wrap what their walks return
    without reading it again."""

    @staticmethod
    def _case(name, stream, monkeypatch):
        """The operator, its input shape and the samples of its largest stripe."""
        if name.startswith("pooling"):
            s = int(name[-1])
            shape = (3, 640, 512)  # stripes of 256, 256 and 128 rows per channel
            return PoolingOp(s, *shape), shape, tensor._pooling_rows(512, 8, s) * s * 512
        if name == "cs":
            return cs_build(8, 0.25, seed=1), (3, 128, 96), 128 * 96  # a whole channel
        if name == "color":
            return ColorMeanOp(640, 512), (3, 640, 512), tensor._band_rows(512, 8, 1) * 512
        monkeypatch.setattr(tensor, "_STRIPE_BYTES", 64)  # two rows of 4 samples per stripe
        shape = (3, 8, 4)
        return DenseOperator(stream.gaussian((6, 96)), in_shape=shape, out_shape=(1, 2, 3)), shape, 2 * 4

    @pytest.mark.parametrize("name", ["pooling-2", "pooling-8", "cs", "color", "dense"])
    def test_combine_checks_every_output_sample_once_in_its_stripe(self, monkeypatch, stream, name):
        op, shape, stripe = self._case(name, stream, monkeypatch)
        y = op.forward(ImageTensor(stream.uniform(shape)))
        x_raw = ImageTensor(stream.gaussian(shape))
        checked = _finite_checks(monkeypatch)
        out = op.combine(y, x_raw).data
        counts = np.zeros(out.size, np.int64)
        mine = [arr for arr in checked if np.shares_memory(arr, out)]
        for arr in mine:
            start = (arr.__array_interface__["data"][0] - out.__array_interface__["data"][0]) // out.itemsize
            counts[start : start + arr.size] += 1
        assert (counts == 1).all()
        assert max(arr.size for arr in mine) <= stripe < out.size
        assert len(mine) == -(-shape[1] * shape[2] // stripe) * shape[0]
        if name != "dense":
            # A dense matrix's own ``forward`` and ``pinv`` return
            # ``ImageTensor``s, which check the arrays they wrap.
            assert len(mine) == len(checked)

    @pytest.mark.parametrize("name", ["pooling-2", "pooling-8", "cs", "color"])
    def test_forward_checks_its_measurement_at_most_once(self, monkeypatch, stream, name):
        # Pooling and block sensing check through their measurements, stripe
        # by stripe; the channel mean checks its whole mean once its walk
        # has ended, as the record of ``colorize --mode pd`` is checked.
        op, shape, _ = self._case(name, stream, monkeypatch)
        x = ImageTensor(stream.uniform(shape))
        checked = _finite_checks(monkeypatch)
        m = op.forward(x).data
        whole = [arr for arr in checked if arr.size >= m.size]
        assert len(whole) == (name == "color")
        assert all(arr is m for arr in whole)
