"""PDT1 tensor and PDM1 operator files: exact bytes, bounded memory, and
clean failures on truncated, mutated or forged input."""

import io
import os
import struct
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangenull import ImageTensor, cs_build, load_sense_op, load_tensor, read_raw, save_sense_op, write_raw
from rangenull.cli import main
from rangenull import save_png
from rangenull.tensor import _open_writers, _write_atomic

_PDT1 = struct.Struct("<4sIII")
_PDM1 = struct.Struct("<4sIIQ")


def _run(argv):
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


class TestBytes:
    def test_pdt1_is_header_then_samples(self, tmp_path, stream):
        t = ImageTensor(stream.gaussian((3, 5, 7)))
        write_raw(t, tmp_path / "t.pdt1")
        assert (tmp_path / "t.pdt1").read_bytes() == _PDT1.pack(b"PDT1", 3, 5, 7) + t.data.astype("<f8").tobytes()

    def test_pdm1_is_header_then_rows(self, tmp_path):
        op = cs_build(4, 0.5, seed=2**64 - 3)
        save_sense_op(op, tmp_path / "op.pdm1")
        expected = _PDM1.pack(b"PDM1", 4, 8, 2**64 - 3) + op.rows.astype("<f8").tobytes()
        assert (tmp_path / "op.pdm1").read_bytes() == expected


class TestMemory:
    # 3 x 256 x 256 samples: 1.5 MiB of payload.
    SHAPE = (3, 256, 256)

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_makes_no_copy(self, tmp_path, stream):
        t = ImageTensor(stream.uniform(self.SHAPE))
        assert self._peak(lambda: write_raw(t, tmp_path / "t.pdt1")) < t.data.nbytes // 8

    def test_read_allocates_the_array_once(self, tmp_path, stream):
        t = ImageTensor(stream.uniform(self.SHAPE))
        write_raw(t, tmp_path / "t.pdt1")
        assert self._peak(lambda: read_raw(tmp_path / "t.pdt1")) < 1.25 * t.data.nbytes

    def test_read_peak_is_the_array_alone(self, tmp_path, stream):
        # No full-size temporary: neither a second payload copy nor the
        # finite check's mask (one eighth of the array).
        t = ImageTensor(stream.uniform((3, 512, 512)))
        write_raw(t, tmp_path / "t.pdt1")
        assert self._peak(lambda: read_raw(tmp_path / "t.pdt1")) < 1.05 * t.data.nbytes

    @pytest.mark.parametrize(
        "load, header",
        [
            (read_raw, _PDT1.pack(b"PDT1", 2**32 - 1, 2**32 - 1, 2**32 - 1)),
            (load_sense_op, _PDM1.pack(b"PDM1", 2**16 - 1, 2**31, 0)),
        ],
        ids=["pdt1", "pdm1"],
    )
    def test_forged_dimensions_fail_before_allocating(self, tmp_path, load, header):
        path = tmp_path / "huge"
        path.write_bytes(header + bytes(64))

        def attempt():
            with pytest.raises(ValueError, match="payload"):
                load(path)

        assert self._peak(attempt) < 1 << 20


class TestSenseHeader:
    @pytest.mark.parametrize(
        "block, q, payload_rows",
        [(0, 0, 0), (0, 5, 0), (2, 0, 0), (2, 5, 5), (1, 2, 2)],
    )
    def test_rejects_impossible_block_and_count(self, tmp_path, block, q, payload_rows):
        path = tmp_path / "op.pdm1"
        path.write_bytes(_PDM1.pack(b"PDM1", block, q, 0) + bytes(8 * payload_rows * block * block))
        with pytest.raises(ValueError, match="invalid PDM1 header"):
            load_sense_op(path)

    def test_zero_block_exits_3_without_traceback(self, tmp_path, stream):
        op = tmp_path / "op.pdm1"
        op.write_bytes(_PDM1.pack(b"PDM1", 0, 0, 0))
        img = tmp_path / "x.pdt1"
        write_raw(ImageTensor(stream.uniform((1, 4, 4))), img)
        out = tmp_path / "m.pdt1"
        code, err = _run(["cs", "--action", "measure", "--op", str(op), "--input", str(img), "--output", str(out)])
        assert code == 3 and err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


@pytest.fixture(scope="module")
def valid_files():
    """Well-formed PDT1 and PDM1 files, as (kind, bytes)."""
    rng = np.random.default_rng(11)
    files = []
    for shape in [(1, 2, 3), (3, 4, 4)]:
        t = ImageTensor(rng.uniform(size=shape))
        files.append(("pdt1", _PDT1.pack(b"PDT1", *shape) + t.data.astype("<f8").tobytes()))
    for block, ratio in [(2, 0.5), (4, 0.25)]:
        op = cs_build(block, ratio, seed=3)
        files.append(("pdm1", _PDM1.pack(b"PDM1", op.block, op.q, op.seed) + op.rows.astype("<f8").tobytes()))
    return files


@st.composite
def damaged_files(draw, files):
    kind, blob = draw(st.sampled_from(files))
    blob = bytearray(blob)
    header = _PDT1 if kind == "pdt1" else _PDM1
    how = draw(st.sampled_from(["truncate", "flip", "forge", "forge_sized"]))
    if how == "truncate":
        return kind, bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if how == "flip":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        return kind, bytes(blob)
    # A header with arbitrary small or extreme fields, followed by either the
    # old payload or exactly as many bytes as the new header declares.
    small = st.sampled_from([0, 1, 2, 3, 4, 5, 2**16 - 1, 2**31, 2**32 - 1])
    a, b = draw(small), draw(small)
    if kind == "pdt1":
        fields = (a, b, draw(small))
        declared = 8 * a * b * fields[2]
    else:
        fields = (a, b, draw(st.integers(0, 2**64 - 1)))
        declared = 8 * b * a * a
    payload = blob[header.size :]
    if how == "forge_sized" and declared <= 4096:
        payload = draw(st.binary(min_size=declared, max_size=declared))
    return kind, header.pack(blob[:4], *fields) + bytes(payload)


class TestFuzz:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_damaged_file_fails_cleanly(self, valid_files, tmp_path_factory, data):
        kind, blob = data.draw(damaged_files(valid_files))
        work = tmp_path_factory.mktemp("case")
        bad = work / f"bad.{kind}"
        bad.write_bytes(blob)
        load = load_tensor if kind == "pdt1" else load_sense_op
        try:
            load(bad)
            loaded = True
        except (ValueError, OSError):
            loaded = False
        out = work / "out.pdt1"
        if kind == "pdt1":
            argv = ["pd", "--lr", str(bad), "--output", str(out), "--scale", "2"]
        else:
            img = work / "x.pdt1"
            write_raw(ImageTensor(np.full((1, 12, 12), 0.5)), img)
            argv = ["cs", "--action", "measure", "--op", str(bad), "--input", str(img), "--output", str(out)]
        code, err = _run(argv)
        assert "Traceback" not in err
        if not loaded:
            assert code == 3
        # A file that loads may still describe an operator or image the
        # command cannot use (a block that does not divide the input,
        # samples that overflow); that too is exit 3 with nothing written.
        assert code in (0, 3)
        if code == 3:
            assert err.startswith("error: ")
            assert not out.exists()


class TestAtomicWrite:
    @pytest.mark.parametrize("existing", [True, False], ids=["replace", "create"])
    def test_write_that_raises_mid_payload_leaves_no_trace(self, tmp_path, existing):
        path = tmp_path / "out.pdt1"
        if existing:
            path.write_bytes(b"old")
        with pytest.raises(TypeError), _write_atomic(path) as (f,):
            f.write(b"PDT1 header")
            f.write(object())  # not a buffer
        assert sorted(tmp_path.iterdir()) == ([path] if existing else [])
        assert not existing or path.read_bytes() == b"old"

    def test_failed_rename_removes_the_temporary(self, tmp_path, stream):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write_raw(ImageTensor(stream.uniform((1, 2, 2))), target)
        assert list(tmp_path.iterdir()) == [target] and not any(target.iterdir())

    def test_a_later_failed_rename_leaves_the_earlier_files_replaced(self, tmp_path, monkeypatch):
        # The renames run one by one: when the second fails, the first path
        # already holds its new file, the second keeps its old one, and no
        # temporary file is left.
        a, b = tmp_path / "a.pdt1", tmp_path / "b.pdt1"
        a.write_bytes(b"old-a")
        b.write_bytes(b"old-b")
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"), _open_writers((1, 2, 2), a, b) as writers:
            for writer in writers:
                writer.write(np.ones((2, 2)))
        assert a.read_bytes() == _PDT1.pack(b"PDT1", 1, 2, 2) + np.ones(4, "<f8").tobytes()
        assert b.read_bytes() == b"old-b"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pdt1", "b.pdt1"]

    def test_outputs_follow_the_umask(self, tmp_path, stream):
        old = os.umask(0o027)
        try:
            t = ImageTensor(stream.uniform((3, 4, 4)))
            write_raw(t, tmp_path / "t.pdt1")
            save_png(t, tmp_path / "t.png")
            save_sense_op(cs_build(2, 0.5, seed=1), tmp_path / "op.pdm1")
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.pdm1", "t.pdt1", "t.png"]
        assert {p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {0o640}
