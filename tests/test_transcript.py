"""Byte-identity transcript of the CLI calls that write a pseudo-inverse:
``cs --action pinv``, ``colorize --mode color`` and ``pd --predictor
nearest``, with their outputs, their output orders and their refusals.

Each call runs in process, in a fresh directory of its own.  Its record is
the exit code, stdout, stderr with the temporary directory masked, and the
sha256 of every file left in the directory, so a stray temporary file
changes it too.  A subcommand's digest is the sha256 of its calls'
records; ``transcript_digests.json`` keeps it beside a short digest of each
call, so that a failure names the first call that differs.  Running this
file as a script prints the digests of the code it imports.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from rangenull import ImageTensor, cs_build, cs_measure, save_png, save_sense_op
from rangenull.cli import main
from rangenull.rng import Stream

DIGESTS = Path(__file__).with_name("transcript_digests.json")
BIG = 1.7e308


def _pdt1(path, a):
    """``a`` as PDT1 bytes, written directly, so that a NaN can be stored."""
    a = np.asarray(a, dtype="<f8")
    path.write_bytes(b"PDT1" + np.array(a.shape, "<u4").tobytes() + a.tobytes())


def _inputs(d):
    """Write the inputs of every call into ``d``: seeded images from
    ``Stream(31)`` with samples outside [0, 1], two block-sensing operators
    (blocks 8 and 12, ratio 0.25) and their measurements of 1- and
    3-channel 48² images, and the faulty files."""
    rng = Stream(31)
    gray = rng.uniform((1, 40, 56)) * 1.4 - 0.2
    _pdt1(d / "gray.pdt1", gray)
    save_png(ImageTensor(rng.uniform((1, 40, 56))), d / "gray.png")
    _pdt1(d / "color.pdt1", rng.uniform((3, 40, 56)))
    lr = rng.uniform((3, 16, 16)) * 1.4 - 0.2
    _pdt1(d / "lr.pdt1", lr)
    save_png(ImageTensor(rng.uniform((3, 16, 16))), d / "lr.png")
    for b in (8, 12):
        op = cs_build(b, 0.25, seed=5)
        save_sense_op(op, d / f"op{b}.pdm1")
        for c in (1, 3):
            m = cs_measure(op, ImageTensor(rng.uniform((c, 48, 48)) * 1.4 - 0.2)).data
            _pdt1(d / f"m{b}c{c}.pdt1", m)
        # One block whose back-projection overflows in its first sample.
        assert np.abs(op.rows[:, 0]).sum() > 1.1
        _pdt1(d / f"m{b}overflow.pdt1", (BIG * np.sign(op.rows[:, :1, None])) * np.ones((1, 2, 3)))
        _pdt1(d / f"m{b}notq.pdt1", m[: op.q + 1])
        m = m.copy()
        m[-1, -1, -1] = np.nan
        _pdt1(d / f"m{b}nan.pdt1", m)
    gray[0, -1, -1] = np.nan
    _pdt1(d / "graynan.pdt1", gray)
    lr[1, 3, 5] = np.nan
    _pdt1(d / "lrnan.pdt1", lr)
    whole = (d / "lr.pdt1").read_bytes()
    (d / "truncated.pdt1").write_bytes(whole[:-8])
    (d / "badmagic.pdt1").write_bytes(b"PDX1" + whole[4:])
    (d / "badmagic.pdm1").write_bytes(b"PDX1" + (d / "op8.pdm1").read_bytes()[4:])


# The faults every subcommand meets in its input file.
_COMMON_FAULTS = ("missing.pdt1", "truncated.pdt1", "badmagic.pdt1")


def _calls():
    """(subcommand, label, argv) of every call, in order, with ``{in}/`` for
    the inputs' directory and ``{out}/`` for the call's own; an output name
    ending in ``/`` is made a directory first and given without the ``/``."""
    calls = []
    for b in (8, 12):
        cs = ["cs", "--action", "pinv", "--op", f"{{in}}/op{b}.pdm1"]
        cases = [(f"m{b}c{c}.pdt1", out) for c in (1, 3) for out in ("o.pdt1", "o.png")]
        cases += [(f"m{b}overflow.pdt1", "o.pdt1"), (f"m{b}overflow.pdt1", "o.png"), (f"m{b}notq.pdt1", "o.pdt1"),
                  (f"m{b}nan.pdt1", "o.pdt1"), (f"m{b}c3.pdt1", "o.pdt1/"), *((f, "o.pdt1") for f in _COMMON_FAULTS)]
        for src, out in cases:
            calls.append(("cs", f"b{b}-{src}-{out}", cs + ["--input", "{in}/" + src, "--output", "{out}/" + out]))
    argv = ["cs", "--action", "pinv", "--op", "{in}/badmagic.pdm1", "--input", "{in}/m8c3.pdt1",
            "--output", "{out}/o.pdt1"]
    calls.append(("cs", "badmagic.pdm1", argv))
    cases = [(src, out) for src in ("gray.pdt1", "gray.png") for out in ("o.pdt1", "o.png")]
    cases += [("color.pdt1", "o.pdt1"), ("color.pdt1", "o.png"), ("graynan.pdt1", "o.pdt1"), ("graynan.pdt1", "o.png"),
              ("gray.pdt1", "o.pdt1/"), ("gray.png", "o.png/"), *((f, "o.pdt1") for f in _COMMON_FAULTS)]
    for src, out in cases:
        argv = ["colorize", "--mode", "color", "--input", "{in}/" + src, "--output", "{out}/" + out]
        calls.append(("colorize", f"{src}-{out}", argv))
    orders = [("o.pdt1",), ("o.png",), ("o.pdt1", "o.png"), ("o.png", "o.pdt1"), ("o.pdt1", "o2.pdt1"),
              ("o.png", "o2.png")]
    cases = [(s, lr, outs) for s in (1, 2, 3, 4) for lr in ("lr.pdt1", "lr.png") for outs in orders]
    cases += [(2, "lrnan.pdt1", ("o.pdt1",)), (2, "lrnan.pdt1", ("o.png", "o.pdt1")), (2, "lr.pdt1", ("o.pdt1/",)),
              (2, "lr.pdt1", ("o.pdt1", "o.png/")), *((2, f, ("o.pdt1",)) for f in _COMMON_FAULTS)]
    for s, lr, outs in cases:
        argv = ["pd", "--predictor", "nearest", "--scale", str(s), "--lr", "{in}/" + lr, "--output", "{out}/" + outs[0]]
        argv += ["--png", "{out}/" + outs[1]] if len(outs) > 1 else []
        calls.append(("pd", f"s{s}-{lr}-{'+'.join(outs)}", argv))
    return calls


def _record(tmp, argv, cwd):
    """The record of one call of ``main(argv)`` whose outputs go to ``cwd``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = sorted(
        (str(p.relative_to(cwd)), hashlib.sha256(p.read_bytes()).hexdigest()) for p in cwd.rglob("*") if p.is_file()
    )
    return json.dumps([code, out.getvalue(), err.getvalue().replace(str(tmp), "<tmp>"), files])


def transcript():
    """{subcommand: [(label, argv, record)]} of every call, run in a fresh
    temporary directory."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in").mkdir()
        _inputs(tmp / "in")
        for i, (command, label, argv) in enumerate(_calls()):
            cwd = tmp / f"call{i}"
            cwd.mkdir()
            argv = [a.replace("{in}", str(tmp / "in")).replace("{out}", str(cwd)) for a in argv]
            for a in argv:
                if a.endswith("/"):
                    Path(a).mkdir()
            argv = [a.rstrip("/") for a in argv]
            runs.setdefault(command, []).append((label, argv, _record(tmp, argv, cwd)))
    return runs


def _digests(runs):
    """{subcommand: {"digest": sha256 of the records, "calls": {label: short sha256 of its record}}}."""
    digests = {}
    for command, calls in runs.items():
        whole = hashlib.sha256()
        short = {}
        for label, _, record in calls:
            whole.update(record.encode() + b"\n")
            short[label] = hashlib.sha256(record.encode()).hexdigest()[:16]
        digests[command] = {"digest": whole.hexdigest(), "calls": short}
    return digests


def test_transcript_is_unchanged():
    runs = transcript()
    got, want = _digests(runs), json.loads(DIGESTS.read_text())
    assert sorted(got) == sorted(want)
    for command, calls in runs.items():
        if got[command]["digest"] == want[command]["digest"]:
            continue
        for label, argv, record in calls:
            expected = want[command]["calls"].get(label)
            if got[command]["calls"][label] != expected:
                raise AssertionError(f"first differing {command} call {label}: {argv}\ngot {record}")
        raise AssertionError(f"{command}: the calls match one by one but not as a whole")


if __name__ == "__main__":
    sys.stdout.write(json.dumps(_digests(transcript()), indent=1) + "\n")
