import io
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import _chunk
from rangenull import ImageTensor, load_png, save_png
from rangenull import _png as codec
from rangenull._png import SIGNATURE, _predict, _unfilter, decode, encode
from rangenull.cli import main
from rangenull.tensor import _levels
from test_tensor import _make_png
from test_tensor import finite_tensors


def _unfilter_scalar(raw, height, stride, bpp):
    """Byte-at-a-time reference for the five PNG scanline filters."""
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r in range(height):
        ftype = raw[r * (stride + 1)]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=r * (stride + 1) + 1)
        if ftype == 0:
            cur = line.copy()
        elif ftype == 1:  # Sub: per-lane cumulative sum mod 256
            lanes = line.reshape(-1, bpp).astype(np.int64)
            cur = (np.cumsum(lanes, axis=0) % 256).astype(np.uint8).reshape(-1)
        elif ftype == 2:  # Up
            cur = line + prev
        elif ftype == 3:  # Average
            cur = _unfilter_average(line, prev, bpp)
        elif ftype == 4:  # Paeth
            cur = _unfilter_paeth(line, prev, bpp)
        else:
            raise ValueError(f"unknown PNG filter type {ftype}")
        out[r] = cur
        prev = out[r]
    return out


def _unfilter_average(line, prev, bpp):
    cur = np.zeros_like(line)
    for i in range(line.shape[0]):
        left = int(cur[i - bpp]) if i >= bpp else 0
        cur[i] = (int(line[i]) + (left + int(prev[i])) // 2) % 256
    return cur


def _unfilter_paeth(line, prev, bpp):
    cur = np.zeros_like(line)
    for i in range(line.shape[0]):
        left = int(cur[i - bpp]) if i >= bpp else 0
        upleft = int(prev[i - bpp]) if i >= bpp else 0
        cur[i] = (int(line[i]) + _paeth_scalar(left, int(prev[i]), upleft)) % 256
    return cur


def _paeth_scalar(left, up, upleft):
    p = left + up - upleft
    pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
    if pa <= pb and pa <= pc:
        return left
    if pb <= pc:
        return up
    return upleft


@st.composite
def filtered_scanlines(draw):
    """(raw, height, width, bpp): random filtered rows, each with its own filter type."""
    bpp = draw(st.sampled_from([1, 2, 3, 6]))  # 8/16-bit gray, 8/16-bit RGB
    long_side = draw(st.integers(1, 24))
    short_side = draw(st.integers(1, long_side))
    height, width = draw(st.sampled_from([(short_side, long_side), (long_side, short_side)]))
    filters = draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
    pixels = draw(st.binary(min_size=height * width * bpp, max_size=height * width * bpp))
    rows = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width * bpp)
    raw = np.hstack([np.array(filters, dtype=np.uint8)[:, None], rows])
    return raw.tobytes(), height, width, bpp


def _scanlines(filters, width, bpp, fill):
    rows = np.full((len(filters), 1 + width * bpp), fill, dtype=np.uint8)
    rows[:, 0] = filters
    return rows.tobytes(), len(filters), width, bpp


class TestUnfilter:
    @given(filtered_scanlines())
    @example(_scanlines([4], 1, 3, 200))  # 1x1
    @example(_scanlines([1], 17, 6, 255))  # 1xN
    @example(_scanlines([4, 3, 2, 1, 0, 4, 4], 1, 2, 129))  # Nx1
    @example(_scanlines([4, 3, 4, 2, 4, 1, 4, 0, 4], 3, 3, 251))  # tall
    @example(_scanlines([3, 4, 4], 11, 1, 7))  # wide
    def test_matches_scalar_oracle(self, case):
        raw, height, width, bpp = case
        expected = _unfilter_scalar(raw, height, width * bpp, bpp)
        got = _unfilter(np.frombuffer(raw, dtype=np.uint8), height, width, bpp)
        assert got.shape == (height, width, bpp) and got.dtype == np.uint8
        assert np.array_equal(got.reshape(height, width * bpp), expected)

    def test_paeth_ties(self):
        # Every (left, up, upleft) over a range dense in ties, e.g. (11, 8, 10).
        levels = list(range(24)) + [127, 128, 200, 253, 254, 255]
        left, up, upleft = (g.astype(np.int16).ravel() for g in np.meshgrid(levels, levels, levels))
        expected = [_paeth_scalar(a, b, c) for a, b, c in zip(left.tolist(), up.tolist(), upleft.tolist())]
        assert _predict(4, left, up, upleft).tolist() == expected

    def test_unknown_filter_type_in_any_row(self):
        raw, height, width, bpp = _scanlines([4, 0, 1, 5], 3, 3, 0)
        with pytest.raises(ValueError, match="^unknown PNG filter type 5$"):
            _unfilter(np.frombuffer(raw, dtype=np.uint8), height, width, bpp)


def _png(width, height, idat_chunks, depth=8, color_type=0):
    ihdr = struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, 0)
    chunks = [_chunk(b"IHDR", ihdr)] + [_chunk(b"IDAT", c) for c in idat_chunks]
    return SIGNATURE + b"".join(chunks) + _chunk(b"IEND", b"")


class TestInflate:
    def test_zip_bomb_stops_early(self):
        packer = zlib.compressobj(9)
        zeros = bytes(1 << 20)
        stream = b"".join(packer.compress(zeros) for _ in range(64)) + packer.flush()
        bomb = _png(1, 1, [stream])  # declares 2 bytes of pixel data, inflates to 64 MiB
        assert len(bomb) < 70_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="wrong length"):
                decode(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_huge_declared_size_is_a_shortfall(self):
        # width * height * 6 overflows a C ssize_t; the inflate budget must be clamped.
        huge = _png(2**31 - 1, 2**31 - 1, [zlib.compress(b"\x00" * 100)], depth=16, color_type=2)
        assert 2**31 * (2**31 * 6) > sys.maxsize
        with pytest.raises(ValueError, match="wrong length"):
            decode(huge)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_length(self, extra):
        raw = b"\x00\x07\x00\x08" + b"\x00" * max(extra, 0)
        with pytest.raises(ValueError, match="wrong length"):
            decode(_png(1, 2, [zlib.compress(raw[: 4 + extra])]))

    def test_missing_stream_end(self):
        stream = zlib.compress(b"\x00\x07\x00\x08")[:-4]  # drop the Adler-32 trailer
        with pytest.raises(ValueError, match="zlib"):
            decode(_png(1, 2, [stream]))

    def test_stream_split_over_idat_chunks(self):
        raw = b"\x00\x07\x02\x01\x04\x05"
        stream = zlib.compress(raw)
        pieces = [b"", stream[:1], stream[1:3], b"", stream[3:]]
        samples, depth = decode(_png(1, 3, pieces))
        assert depth == 8
        assert samples.ravel().tolist() == [7, 8, 13]  # None, Up, Paeth


@pytest.fixture(scope="module")
def valid_pngs(tmp_path_factory):
    """A few valid PNGs: the package's own encoder plus hand-filtered 8- and 16-bit files."""
    rng = np.random.default_rng(7)
    path = tmp_path_factory.mktemp("fuzz") / "seed.png"
    save_png(ImageTensor(rng.uniform(size=(3, 5, 4))), path)
    pngs = [path.read_bytes()]
    for width, height, depth, color_type in [(4, 3, 8, 0), (3, 2, 16, 2)]:
        bpp = (1 if color_type == 0 else 3) * depth // 8
        pixels = rng.integers(0, 256, width * height * bpp, dtype=np.uint8).tobytes()
        pngs.append(_make_png(width, height, depth, color_type, pixels, filters=[4, 3, 1][:height]))
    return pngs


@st.composite
def damaged_pngs(draw, pngs):
    png = bytearray(draw(st.sampled_from(pngs)))
    how = draw(st.sampled_from(["flip", "truncate", "rechunk"]))
    if how == "truncate":
        return bytes(png[: draw(st.integers(0, len(png) - 1))])
    if how == "flip":
        for _ in range(draw(st.integers(1, 4))):
            png[draw(st.integers(0, len(png) - 1))] ^= draw(st.integers(1, 255))
        return bytes(png)
    # Damage the IHDR or IDAT payload and recompute its CRC, so the decoder
    # gets past the framing checks.
    pos, chunks = 8, []
    while pos < len(png):
        (length,) = struct.unpack_from(">I", png, pos)
        chunks.append([bytes(png[pos + 4 : pos + 8]), bytearray(png[pos + 8 : pos + 8 + length])])
        pos += 12 + length
    tag, payload = chunks[draw(st.integers(0, 1))]
    if tag == b"IDAT" and draw(st.booleans()):
        payload[:] = bytearray(zlib.decompress(payload))
        _damage(draw, payload)
        payload[:] = zlib.compress(bytes(payload))
    else:
        _damage(draw, payload)
    return SIGNATURE + b"".join(_chunk(t, bytes(p)) for t, p in chunks)


def _damage(draw, payload):
    action = draw(st.sampled_from(["set", "cut", "grow"]))
    if action == "grow" or not payload:
        payload += draw(st.binary(min_size=1, max_size=8))
    elif action == "cut":
        del payload[draw(st.integers(0, len(payload) - 1)) :]
    else:
        payload[draw(st.integers(0, len(payload) - 1))] = draw(st.integers(0, 255))


class TestFuzz:
    @given(data=st.data())
    def test_damaged_png_fails_cleanly(self, valid_pngs, tmp_path_factory, data):
        blob = data.draw(damaged_pngs(valid_pngs))
        work = tmp_path_factory.mktemp("case")
        bad = work / "bad.png"
        bad.write_bytes(blob)
        try:
            t = load_png(bad)
        except (ValueError, OSError):
            t = None
        else:
            assert t.channels in (1, 3) and np.all((t.data >= 0) & (t.data <= 1))
        out = work / "sr.pdt1"
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["pd", "--lr", str(bad), "--output", str(out), "--scale", "2"])
        err = err.getvalue()
        assert "Traceback" not in err
        if t is None:
            assert code == 3 and err.startswith("error: ")
            assert not out.exists()
        else:
            assert code == 0

    def test_cli_process_reports_error_without_traceback(self, valid_pngs, tmp_path):
        bad = tmp_path / "bad.png"
        bad.write_bytes(valid_pngs[0][:-20])
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "rangenull", "pd", "--lr", str(bad), "--output", str(tmp_path / "sr.pdt1"),
             "--scale", "2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert not (tmp_path / "sr.pdt1").exists()


class TestEncoder:
    @given(finite_tensors(max_side=24))
    def test_rows_after_the_first_are_up_filtered(self, tmp_path_factory, t):
        path = tmp_path_factory.mktemp("enc") / "t.png"
        save_png(t, path)
        data, pos, idat = path.read_bytes(), len(SIGNATURE), b""
        while pos < len(data):
            (length,) = struct.unpack_from(">I", data, pos)
            if data[pos + 4 : pos + 8] == b"IDAT":
                idat += data[pos + 8 : pos + 8 + length]
            pos += 12 + length
        raw = zlib.decompress(idat)
        stride = t.width * t.channels
        assert [raw[r * (stride + 1)] for r in range(t.height)] == [0] + [2] * (t.height - 1)
        samples = _unfilter_scalar(raw, t.height, stride, t.channels)
        expected = _levels(t.data).astype(np.uint8).transpose(1, 2, 0).reshape(t.height, stride)
        assert np.array_equal(samples, expected)

    @given(
        st.integers(1, 40).flatmap(
            lambda h: st.integers(1, 40).flatmap(
                lambda w: st.sampled_from([1, 3]).flatmap(
                    lambda c: st.binary(min_size=h * w * c, max_size=h * w * c).map(
                        lambda b: np.frombuffer(b, np.uint8).reshape(h, w, c)
                    )
                )
            )
        ),
        st.integers(1, 200),
    )
    def test_bands_give_the_bytes_of_one_call(self, samples, band_bytes):
        # Filtered and compressed a band of rows at a time, the image is the
        # same file as when it was filtered whole and compressed in one call.
        height, width, channels = samples.shape
        rows = samples.reshape(height, -1)
        filtered = np.empty((height, 1 + rows.shape[1]), np.uint8)
        filtered[:, 0] = [0] + [2] * (height - 1)
        filtered[0, 1:] = rows[0]
        np.subtract(rows[1:], rows[:-1], out=filtered[1:, 1:])
        deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        idat = deflate.compress(filtered) + deflate.flush()
        ihdr = struct.pack(">IIBBBBB", width, height, 8, 0 if channels == 1 else 2, 0, 0, 0)
        whole = SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_BAND_BYTES", band_bytes)
            assert b"".join(encode(samples)) == whole

    def test_peak_memory_is_about_the_compressed_size(self):
        # A smooth 3 x 1024^2 image, bilinear between the nodes of a 65^2
        # noise grid.  Filtering the whole image before compressing it in
        # one call peaked at 8.6 MiB above the 1.7 MiB file.
        nodes = np.random.default_rng(3).uniform(size=(65, 65, 3))
        t = np.linspace(0, 64, 1024, endpoint=False)
        i, f = t.astype(int), (t - t.astype(int))[:, None, None]
        rows = nodes[i] * (1 - f) + nodes[i + 1] * f
        f = f.transpose(1, 0, 2)
        samples = np.empty((1024, 1024, 3), np.uint8)  # laid out as ``tensor._PngWriter`` holds it
        samples[...] = (rows[:, i] * (1 - f) + rows[:, i + 1] * f) * 255 + 0.5
        tracemalloc.start()
        try:
            parts = encode(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(map(len, parts)) + (1 << 20)
