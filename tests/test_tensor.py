"""Tensor container, quantization, and file format tests."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rangenull import ImageTensor, load_png, load_tensor, quantize, read_raw, save_png, write_raw


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

    def test_load_tensor_rejects_unknown(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage!")
        with pytest.raises(ValueError, match="unrecognized"):
            load_tensor(path)
