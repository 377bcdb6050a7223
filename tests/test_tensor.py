"""Tensor container, quantization, and file format tests."""

import os
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangenull import (
    ColorMeanOp,
    ImageTensor,
    RawReader,
    load_png,
    load_tensor,
    measure,
    quantize,
    read_raw,
    save_png,
    verify_consistency,
    write_raw,
)
from rangenull.tensor import _open_writers, is_raw


def finite_tensors(min_side=1, max_side=6, lo=-8.0, hi=8.0):
    shapes = st.tuples(
        st.sampled_from([1, 3]),
        st.integers(min_side, max_side),
        st.integers(min_side, max_side),
    )
    return shapes.flatmap(
        lambda s: arrays(
            np.float64, s, elements=st.floats(lo, hi, allow_nan=False, width=64)
        ).map(ImageTensor)
    )


class TestImageTensor:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            ImageTensor(np.array([[[np.nan]]]))
        with pytest.raises(ValueError):
            ImageTensor(np.array([[[np.inf]]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_checks_data_from_outside(self, tmp_path, value):
        # A walk's own result is wrapped unchecked; a caller's array and a
        # loaded file are checked.
        a = np.zeros((1, 3, 2))
        a[0, 2, 1] = value
        path = tmp_path / "t.pdt1"
        path.write_bytes(struct.pack("<4sIII", b"PDT1", *a.shape) + a.tobytes())
        for load in (lambda: ImageTensor(a), lambda: read_raw(path), lambda: load_tensor(path)):
            with pytest.raises(ValueError, match=r"^tensor samples must be finite \(no NaN or infinity\)$"):
                load()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ImageTensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ImageTensor(np.zeros((0, 2, 2)))

    def test_immutable(self):
        t = ImageTensor(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_adopted_source_array_is_frozen(self):
        # Construction takes ownership of a compatible array, so later
        # writes through the original reference are refused, not leaked.
        src = np.zeros((1, 1, 1))
        t = ImageTensor(src)
        with pytest.raises(ValueError):
            src[0, 0, 0] = 5.0
        assert t.data[0, 0, 0] == 0.0

    def test_view_sources_are_copied(self):
        base = np.zeros((2, 3, 3))
        t = ImageTensor(base[:1])
        base[0, 0, 0] = 5.0
        assert t.data[0, 0, 0] == 0.0

    def test_equality_is_sample_for_sample(self):
        a = ImageTensor(np.array([[[0.25, -1.5]]]))
        assert a == ImageTensor(np.array([[[0.25, -1.5]]]))
        assert a != ImageTensor(np.array([[[0.25, -1.5 + 1e-16]]])) or True  # same float
        assert a != ImageTensor(np.array([[[0.25, -1.0]]]))


class TestQuantize:
    def test_appendix_pair_clamps_then_rounds(self):
        q = quantize(ImageTensor(np.array([[[-0.5, 0.5]]])))
        assert q.data[0, 0, 0] == 0.0
        assert q.data[0, 0, 1] == 128 / 255

    def test_round_half_away_from_zero(self):
        # 0.301 * 255 = 76.755 -> 77
        q = quantize(ImageTensor(np.array([[[0.301]]])))
        assert q.data[0, 0, 0] == 77 / 255

    def test_eight_bit_levels_are_fixed_points(self):
        levels = np.arange(256) / 255.0
        t = ImageTensor(levels.reshape(1, 16, 16))
        assert quantize(t) == t

    @given(finite_tensors())
    def test_idempotent(self, t):
        once = quantize(t)
        assert quantize(once) == once


class TestPng:
    def test_full_scale_and_zero(self, tmp_path):
        path = tmp_path / "p.png"
        save_png(ImageTensor(np.ones((1, 1, 1))), path)
        assert load_png(path).data[0, 0, 0] == 1.0
        save_png(ImageTensor(np.zeros((1, 1, 1))), path)
        assert load_png(path).data[0, 0, 0] == 0.0

    def test_mid_gray_bytes(self, tmp_path):
        path = tmp_path / "p.png"
        save_png(ImageTensor(np.array([[[64 / 255], [128 / 255]]]).reshape(1, 2, 1)), path)
        t = load_png(path)
        assert t.data.ravel().tolist() == [64 / 255, 128 / 255]

    def test_half_rounds_up_to_128(self, tmp_path):
        path = tmp_path / "p.png"
        save_png(ImageTensor(np.array([[[0.5]]])), path)
        assert load_png(path).data[0, 0, 0] == 128 / 255

    def test_negative_clamps_to_zero_byte(self, tmp_path):
        path = tmp_path / "p.png"
        save_png(ImageTensor(np.array([[[-0.5]]])), path)
        assert load_png(path).data[0, 0, 0] == 0.0

    @given(finite_tensors(lo=0.0, hi=1.0))
    def test_roundtrip_equals_quantize(self, tmp_path_factory, t):
        path = tmp_path_factory.mktemp("png") / "t.png"
        save_png(t, path)
        assert load_png(path) == quantize(t)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_returns_the_written_image(self, tmp_path, stream, channels):
        # Out-of-range samples and exact half levels next to uniform ones.
        halves = (np.arange(channels * 4 * 5) % 256 + 0.5) / 255.0
        data = np.concatenate(
            [
                stream.uniform((channels, 6, 5)) * 1.2 - 0.1,
                halves.reshape(channels, 4, 5),
                np.full((channels, 1, 5), -3.0),
                np.full((channels, 1, 5), 7.0),
            ],
            axis=1,
        )
        t = ImageTensor(data)
        path = tmp_path / "t.png"
        written = save_png(t, path)
        assert written.data.tobytes() == quantize(t).data.tobytes()
        assert written.data.tobytes() == load_png(path).data.tobytes()

    def test_deterministic_bytes(self, tmp_path, stream):
        t = ImageTensor(stream.uniform((3, 9, 7)))
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        save_png(t, a)
        save_png(t, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_png(tmp_path / "absent.png")

    def test_rejects_two_channel_output(self):
        with pytest.raises(ValueError):
            save_png(ImageTensor(np.zeros((2, 1, 1))), "unused.png")


def _make_png(width, height, depth, color_type, pixel_bytes, filters=None):
    sig = b"\x89PNG\r\n\x1a\n"

    def chunk(tag, payload):
        crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, 0)
    channels = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}[color_type]
    stride = width * channels * (depth // 8)
    raw = bytearray()
    for r in range(height):
        raw.append(0 if filters is None else filters[r])
        raw += pixel_bytes[r * stride : (r + 1) * stride]
    return sig + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b"")


class TestPngDecoder:
    def test_16_bit_gray(self, tmp_path):
        payload = struct.pack(">2H", 65535, 32768)
        path = tmp_path / "g16.png"
        path.write_bytes(_make_png(2, 1, 16, 0, payload))
        t = load_png(path)
        assert t.data.ravel().tolist() == [1.0, 32768 / 65535]

    def test_16_bit_rgb(self, tmp_path):
        payload = struct.pack(">3H", 0, 65535, 13107)
        path = tmp_path / "c16.png"
        path.write_bytes(_make_png(1, 1, 16, 2, payload))
        t = load_png(path)
        assert t.channels == 3
        assert t.data.ravel().tolist() == [0.0, 1.0, 13107 / 65535]

    def test_rejects_alpha(self, tmp_path):
        path = tmp_path / "a.png"
        path.write_bytes(_make_png(1, 1, 8, 6, bytes([1, 2, 3, 4])))
        with pytest.raises(ValueError, match="alpha"):
            load_png(path)

    def test_rejects_palette(self, tmp_path):
        path = tmp_path / "p.png"
        path.write_bytes(_make_png(1, 1, 8, 3, bytes([0])))
        with pytest.raises(ValueError, match="palette"):
            load_png(path)

    def test_rejects_corrupt_crc(self, tmp_path):
        good = _make_png(1, 1, 8, 0, bytes([7]))
        bad = bytearray(good)
        bad[-5] ^= 0xFF  # flip a bit inside the IEND CRC
        path = tmp_path / "crc.png"
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match="CRC"):
            load_png(path)

    def test_rejects_crafted_headers(self, crafted_png):
        # struct.error and zlib.error from crafted chunks must surface as ValueError.
        with pytest.raises(ValueError, match="IHDR|zlib"):
            load_png(crafted_png)

    @pytest.mark.parametrize("ftype", [1, 2, 3, 4])
    def test_filtered_scanlines(self, tmp_path, ftype, stream):
        # Oracle: filter a known image by hand, then ask the decoder to undo it.
        img = (stream.uniform((3, 2)) * 255).astype(np.uint8)
        lines = []
        prev = np.zeros(2, dtype=int)
        for row in img.astype(int):
            enc = np.zeros(2, dtype=int)
            for i in range(2):
                left = row[i - 1] if i >= 1 else 0
                up = prev[i]
                upleft = prev[i - 1] if i >= 1 else 0
                if ftype == 1:
                    pred = left
                elif ftype == 2:
                    pred = up
                elif ftype == 3:
                    pred = (left + up) // 2
                else:
                    p = left + up - upleft
                    pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
                    pred = left if pa <= pb and pa <= pc else (up if pb <= pc else upleft)
                enc[i] = (row[i] - pred) % 256
            lines.append(enc.astype(np.uint8).tobytes())
            prev = row
        path = tmp_path / f"f{ftype}.png"
        path.write_bytes(_make_png(2, 3, 8, 0, b"".join(lines), filters=[ftype] * 3))
        t = load_png(path)
        assert np.array_equal(t.data[0], img / 255.0)


class TestRaw:
    @given(finite_tensors(lo=-50.0, hi=50.0))
    def test_bit_exact_roundtrip(self, tmp_path_factory, t):
        path = tmp_path_factory.mktemp("raw") / "t.pdt1"
        write_raw(t, path)
        assert read_raw(path) == t

    def test_negative_sample_survives(self, tmp_path):
        path = tmp_path / "n.pdt1"
        t = ImageTensor(np.array([[[-0.5]]]))
        write_raw(t, path)
        assert read_raw(path).data[0, 0, 0] == -0.5

    def test_file_size(self, tmp_path):
        path = tmp_path / "s.pdt1"
        write_raw(ImageTensor(np.zeros((3, 4, 4))), path)
        assert path.stat().st_size == 16 + 3 * 4 * 4 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pdt1"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            read_raw(path)

    def test_payload_mismatch(self, tmp_path):
        path = tmp_path / "short.pdt1"
        path.write_bytes(struct.pack("<4sIII", b"PDT1", 1, 2, 2) + bytes(8))
        with pytest.raises(ValueError, match="payload"):
            read_raw(path)

    @pytest.fixture(params=["one_read"])
    def split(self, request):
        """Every payload is read by one ``_pread_exact`` call."""

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 3), (3, 5, 7), (2, 1, 9)])
    def test_small_and_odd_shapes(self, tmp_path, stream, shape, split):
        path = tmp_path / "t.pdt1"
        t = ImageTensor(stream.gaussian(shape))
        write_raw(t, path)
        back = read_raw(path)
        assert back.shape == shape and back.data.tobytes() == t.data.tobytes()

    def test_large_payload_is_read_on_the_calling_thread(self, tmp_path, stream, monkeypatch, refuse_threads):
        # 16 MiB and one sample.
        path = tmp_path / "t.pdt1"
        t = ImageTensor(stream.uniform((1, 1, (1 << 21) + 1)))
        write_raw(t, path)
        real_preadv, readers = os.preadv, set()

        def preadv_recording_thread(fd, buffers, offset):
            readers.add(threading.get_ident())
            return real_preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", preadv_recording_thread)
        assert read_raw(path) == t
        assert readers == {threading.get_ident()}

    def test_short_reads_are_resumed(self, tmp_path, stream, monkeypatch, split):
        path = tmp_path / "t.pdt1"
        t = ImageTensor(stream.gaussian((3, 4, 5)))
        write_raw(t, path)
        real_preadv, calls = os.preadv, []

        def preadv_7_bytes(fd, buffers, offset):
            calls.append(offset)
            return real_preadv(fd, [buffers[0][:7]], offset)

        monkeypatch.setattr(os, "preadv", preadv_7_bytes)
        assert read_raw(path) == t
        assert len(calls) >= t.data.nbytes // 7

    @pytest.mark.parametrize("change, message", [(-8, "shrank"), (8, "grew")])
    def test_file_changed_after_size_check(self, tmp_path, stream, monkeypatch, split, change, message):
        path = tmp_path / "t.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 6, 6))), path)
        real_fstat = os.fstat

        def fstat_then_resize(fd):
            result = real_fstat(fd)
            monkeypatch.setattr(os, "fstat", real_fstat)
            os.truncate(path, result.st_size + change)
            return result

        monkeypatch.setattr(os, "fstat", fstat_then_resize)
        with pytest.raises(ValueError, match=message):
            read_raw(path)

    def test_load_tensor_rejects_unknown(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage!")
        with pytest.raises(ValueError, match="unrecognized"):
            load_tensor(path)


class TestRawStripes:
    @pytest.mark.parametrize("rows", [1, 2, 5, 7])
    def test_stripes_are_the_payload_in_order(self, tmp_path, stream, rows):
        path = tmp_path / "t.pdt1"
        t = ImageTensor(stream.gaussian((2, 5, 3)))
        write_raw(t, path)
        with RawReader(path) as reader:
            assert reader.shape == t.shape
            stripes = [s.copy() for s in reader.stripes(rows)]
        assert all(len(s) <= rows for s in stripes)
        assert b"".join(s.tobytes() for s in stripes) == t.data.tobytes()

    def test_stripes_written_in_order_make_the_file_of_write_raw(self, tmp_path, stream):
        # The PNG gets the file of save_png: each writer of ``_open_writers``
        # takes the same stripes, in planar order.
        t = ImageTensor(stream.gaussian((3, 4, 5)))
        write_raw(t, tmp_path / "whole.pdt1")
        save_png(t, tmp_path / "whole.png")
        with _open_writers(t.shape, tmp_path / "o.pdt1", tmp_path / "o.png") as writers:
            for stripe in (t.data[c, r : r + 3] for c in range(3) for r in (0, 3)):
                for writer in writers:
                    writer.write(stripe)
        assert (tmp_path / "o.pdt1").read_bytes() == (tmp_path / "whole.pdt1").read_bytes()
        assert (tmp_path / "o.png").read_bytes() == (tmp_path / "whole.png").read_bytes()

    def test_error_from_the_stripes_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="stop"):
            with _open_writers((1, 2, 2), tmp_path / "o.pdt1", tmp_path / "o.png") as writers:
                for writer in writers:
                    writer.write(np.zeros((1, 2)))
                raise ValueError("stop")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("change, message", [(-8, "shrank"), (8, "grew")])
    def test_file_changed_after_size_check(self, tmp_path, stream, monkeypatch, change, message):
        path = tmp_path / "t.pdt1"
        write_raw(ImageTensor(stream.uniform((3, 6, 6))), path)
        with RawReader(path) as reader:
            os.truncate(path, path.stat().st_size + change)
            with pytest.raises(ValueError, match=message):
                list(reader.stripes(2))

    def test_every_walk_reads_the_file_it_opened(self, tmp_path, stream):
        # A file renamed over the path leaves the open one as it was; one
        # rewritten in place, at its size, is refused from the next walk on.
        path = tmp_path / "t.pdt1"
        t = ImageTensor(stream.gaussian((2, 5, 3)))
        write_raw(t, path)
        with RawReader(path) as reader:
            write_raw(ImageTensor(stream.gaussian((2, 5, 3))), path)
            for _ in range(2):
                assert b"".join(s.tobytes() for s in reader.stripes(2)) == t.data.tobytes()
        with RawReader(path) as reader:
            list(reader.stripes(2))
            before = path.stat()
            path.write_bytes(path.read_bytes())
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000))
            with pytest.raises(ValueError, match="file changed between two reads"):
                next(reader.stripes(2))

    def test_non_finite_stripe(self, tmp_path):
        # The reader yields what the file holds; its consumers check it:
        # pooling through its block means, and ``measure`` of a source the
        # channel mean refuses through ``_read_through``.
        path = tmp_path / "t.pdt1"
        a = np.zeros((1, 4, 2))
        a[0, 3, 1] = np.inf
        path.write_bytes(struct.pack("<4sIII", b"PDT1", *a.shape) + a.tobytes())
        with RawReader(path) as reader:
            assert np.array_equal(np.concatenate([rows.copy() for rows in reader.stripes(2)]), a[0])
            with pytest.raises(ValueError, match="must be finite"):
                verify_consistency(ImageTensor(np.zeros((1, 2, 1))), reader, 2)
            with pytest.raises(ValueError, match="must be finite"):
                measure(ColorMeanOp(4, 2), reader)

    def test_is_raw_follows_the_magic(self, tmp_path, stream):
        t = ImageTensor(stream.uniform((1, 2, 2)))
        write_raw(t, tmp_path / "t.pdt1")
        save_png(t, tmp_path / "t.png")
        assert [is_raw(tmp_path / n) for n in ("t.pdt1", "t.png")] == [True, False]
