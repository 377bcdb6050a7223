import struct
import threading
import zlib

import hypothesis
import pytest

from rangenull import ImageTensor
from rangenull.rng import Stream

hypothesis.settings.register_profile("suite", max_examples=60, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def stream():
    return Stream(20260808)


@pytest.fixture
def refuse_threads(monkeypatch):
    """Make starting any Python thread raise, as on a host that cannot."""

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def random_tensor(stream, shape, lo=0.0, hi=1.0):
    return ImageTensor(lo + (hi - lo) * stream.uniform(shape))


def _chunk(tag, payload):
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


# Well-formed chunk framing with valid CRCs around payloads the decoder
# must reject: a 4-byte IHDR, and an IDAT that is not zlib data.
_CRAFTED_PNGS = {
    "short_ihdr": (struct.pack(">I", 1), zlib.compress(b"\x00\x07")),
    "non_zlib_idat": (struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0), b"not zlib"),
}


@pytest.fixture(params=sorted(_CRAFTED_PNGS))
def crafted_png(request, tmp_path):
    ihdr, idat = _CRAFTED_PNGS[request.param]
    path = tmp_path / f"{request.param}.png"
    chunks = _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + chunks)
    return path
