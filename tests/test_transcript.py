"""Byte-identity transcript of the CLI calls that write a pseudo-inverse:
``cs --action pinv``, ``colorize --mode color`` and ``pd --predictor
nearest``, with their outputs, their output orders and their refusals,
then every other subcommand (``_other_calls``), the ``+inf``, ``-inf``
and overflowing inputs of ``pd``, ``verify``, ``cs`` and ``colorize``
(``_fault_calls``), and their PDT1 inputs that shrink or grow while they
are read (``_resize_calls``).

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
import os
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
    _other_inputs(d)
    _fault_inputs(d)


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
    calls += _other_calls()
    calls += _fault_calls()
    calls += _resize_calls()
    return calls


def _other_inputs(d):
    """Write the inputs of the calls of ``_other_calls`` into ``d``, beside
    those of ``_inputs``: seeded images from ``Stream(32)``, so that the
    inputs above keep their bytes, and their faulty copies."""
    rng = Stream(32)
    for c in (1, 3):
        _pdt1(d / f"x48c{c}.pdt1", rng.uniform((c, 48, 48)) * 1.4 - 0.2)
    save_png(ImageTensor(rng.uniform((3, 48, 48))), d / "x48c3.png")
    save_png(ImageTensor(rng.uniform((3, 40, 56))), d / "color.png")
    _pdt1(d / "color2.pdt1", rng.uniform((3, 40, 56)) * 1.4 - 0.2)
    lr = np.fromfile(d / "lr.pdt1", "<f8", offset=16).reshape(3, 16, 16)
    for s in (1, 2, 4):
        up = np.repeat(np.repeat(lr, s, axis=1), s, axis=2)
        _pdt1(d / f"sr{s}.pdt1", up + 1e-3 * (rng.uniform(up.shape) - 0.5))
        save_png(ImageTensor(rng.uniform(up.shape)), d / f"sr{s}.png")
        _pdt1(d / f"raw{s}.pdt1", rng.uniform(up.shape) * 1.4 - 0.2)
    save_png(ImageTensor(rng.uniform((3, 32, 32))), d / "raw2.png")
    for name in ("x48c3", "color", "sr2", "raw2"):
        path = d / f"{name}.pdt1"
        a = np.fromfile(path, "<f8", offset=16).reshape(np.fromfile(path, "<u4", 3, offset=4))
        a[-1, 0, -1] = np.nan
        _pdt1(d / f"{name}nan.pdt1", a)


def _other_calls():
    """(subcommand key, label, argv) of the calls of every other subcommand
    and action, as ``_calls`` gives them: ``pd`` with the resampling and
    external predictors, ``verify``, ``cs`` building, measuring and
    combining, ``colorize`` to gray and its combine, ``degrade``,
    ``errmap``, and the refusals of ``bench`` and ``table1``, whose records
    would otherwise hold timings.  Each key has a digest of its own, so
    that the three above keep theirs."""
    calls = []
    for predictor in ("bilinear", "bicubic"):
        cases = [(s, lr, outs) for s in (1, 2, 4) for lr in ("lr.pdt1", "lr.png") for outs in (("o.pdt1",),
                                                                                               ("o.png", "o.pdt1"))]
        cases += [(2, "lrnan.pdt1", ("o.pdt1",)), (3, "lr.pdt1", ("o.pdt1",)), (0, "lr.pdt1", ("o.pdt1",)),
                  (2, "lr.pdt1", ("o.pdt1/",)), *((2, f, ("o.pdt1",)) for f in _COMMON_FAULTS)]
        for s, lr, outs in cases:
            argv = ["pd", "--predictor", predictor, "--scale", str(s), "--lr", "{in}/" + lr,
                    "--output", "{out}/" + outs[0]]
            argv += ["--png", "{out}/" + outs[1]] if len(outs) > 1 else []
            calls.append(("pd-resampled", f"{predictor}-s{s}-{lr}-{'+'.join(outs)}", argv))
    cases = [(s, lr, f"raw{s}.pdt1", outs) for s in (1, 2, 4) for lr in ("lr.pdt1", "lr.png")
             for outs in (("o.pdt1",), ("o.png", "o.pdt1"))]
    cases += [(2, "lr.pdt1", "raw2.png", ("o.pdt1",)), (2, "lr.pdt1", "raw2.png", ("o.pdt1", "o.png")),
              (4, "lr.pdt1", "raw2.pdt1", ("o.pdt1",)), (2, "lr.pdt1", "raw4.pdt1", ("o.pdt1",)),
              (2, "lr.pdt1", "raw2nan.pdt1", ("o.pdt1",)), (2, "lr.pdt1", "raw2nan.pdt1", ("o.png", "o.pdt1")),
              (2, "lrnan.pdt1", "raw2.pdt1", ("o.pdt1",)), (2, "lr.pdt1", None, ("o.pdt1",)),
              (2, "lr.pdt1", "raw2.pdt1", ("o.pdt1/",)), *((2, f, "raw2.pdt1", ("o.pdt1",)) for f in _COMMON_FAULTS),
              *((2, "lr.pdt1", f, ("o.pdt1",)) for f in _COMMON_FAULTS)]
    for s, lr, raw, outs in cases:
        argv = ["pd", "--predictor", "external", "--scale", str(s), "--lr", "{in}/" + lr,
                "--output", "{out}/" + outs[0]]
        argv += ["--png", "{out}/" + outs[1]] if len(outs) > 1 else []
        argv += ["--raw", "{in}/" + raw] if raw else []
        calls.append(("pd-external", f"s{s}-{lr}-{raw}-{'+'.join(outs)}", argv))
    argv = ["pd", "--predictor", "bicubic", "--scale", "2", "--lr", "{in}/lr.pdt1", "--raw", "{in}/raw2.pdt1",
            "--output", "{out}/o.pdt1"]
    calls.append(("pd-external", "raw-without-external", argv))
    cases = [(lr, f"sr{s}.{ext}", s) for s in (1, 2, 4) for ext in ("pdt1", "png") for lr in ("lr.pdt1", "lr.png")]
    cases += [("lr.pdt1", "sr2.pdt1", 4), ("lr.pdt1", "sr4.pdt1", 2), ("lr.pdt1", "sr2nan.pdt1", 2),
              ("lrnan.pdt1", "sr2.pdt1", 2), ("lr.pdt1", "sr2.pdt1", 0), ("lr.pdt1", "sr2nan.pdt1", 0),
              ("lr.pdt1", "sr2.pdt1", 3), *(("lr.pdt1", f, 2) for f in _COMMON_FAULTS),
              *((f, "sr2.pdt1", 2) for f in _COMMON_FAULTS)]
    for lr, sr, s in cases:
        argv = ["verify", "--lr", "{in}/" + lr, "--sr", "{in}/" + sr, "--scale", str(s)]
        calls.append(("verify", f"{lr}-{sr}-s{s}", argv))
    for b in (8, 12):
        cases = [(ratio, seed, "o.pdm1") for ratio in ("0.25", "0.5", "1") for seed in ("0", "3")]
        cases += [("0", "0", "o.pdm1"), ("1.5", "0", "o.pdm1"), ("0.25", "0", "o.pdm1/")]
        for ratio, seed, out in cases:
            argv = ["cs", "--action", "build", "--block", str(b), "--ratio", ratio, "--seed", seed, "--output",
                    "{out}/" + out]
            calls.append(("cs-build", f"b{b}-r{ratio}-seed{seed}-{out}", argv))
        op = ["--op", f"{{in}}/op{b}.pdm1"]
        cases = [(src, out) for src in ("x48c1.pdt1", "x48c3.pdt1", "x48c3.png") for out in ("o.pdt1", "o.png")]
        cases += [("gray.pdt1", "o.pdt1"), ("graynan.pdt1", "o.pdt1"), ("x48c3nan.pdt1", "o.pdt1"),
                  ("x48c3.pdt1", "o.pdt1/"), *((f, "o.pdt1") for f in _COMMON_FAULTS)]
        for src, out in cases:
            argv = ["cs", "--action", "measure", *op, "--input", "{in}/" + src, "--output", "{out}/" + out]
            calls.append(("cs-measure", f"b{b}-{src}-{out}", argv))
        cases = [(f"m{b}c{c}.pdt1", f"x48c{c}.pdt1", out) for c in (1, 3) for out in ("o.pdt1", "o.png")]
        cases += [(f"m{b}c3.pdt1", "x48c3.png", "o.pdt1"), (f"m{b}c1.pdt1", "x48c3.pdt1", "o.pdt1"),
                  (f"m{b}c3.pdt1", "color.pdt1", "o.pdt1"), (f"m{b}c3.pdt1", "x48c3nan.pdt1", "o.pdt1"),
                  (f"m{b}nan.pdt1", "x48c3.pdt1", "o.pdt1"), (f"m{b}notq.pdt1", "x48c3.pdt1", "o.pdt1"),
                  (f"m{b}c3.pdt1", "x48c3.pdt1", "o.pdt1/"), *((f, "x48c3.pdt1", "o.pdt1") for f in _COMMON_FAULTS),
                  *((f"m{b}c3.pdt1", f, "o.pdt1") for f in _COMMON_FAULTS)]
        for lr, raw, out in cases:
            argv = ["cs", "--action", "pd", *op, "--lr", "{in}/" + lr, "--raw", "{in}/" + raw, "--output",
                    "{out}/" + out]
            calls.append(("cs-pd", f"b{b}-{lr}-{raw}-{out}", argv))
    calls.append(("cs-measure", "no-input", ["cs", "--action", "measure", "--op", "{in}/op8.pdm1", "--output",
                                             "{out}/o.pdt1"]))
    calls.append(("cs-measure", "badmagic.pdm1", ["cs", "--action", "measure", "--op", "{in}/badmagic.pdm1",
                                                  "--input", "{in}/x48c3.pdt1", "--output", "{out}/o.pdt1"]))
    calls.append(("cs-pd", "no-raw", ["cs", "--action", "pd", "--op", "{in}/op8.pdm1", "--lr", "{in}/m8c3.pdt1",
                                      "--output", "{out}/o.pdt1"]))
    cases = [(src, out) for src in ("color.pdt1", "color.png") for out in ("o.pdt1", "o.png")]
    cases += [("gray.pdt1", "o.pdt1"), ("colornan.pdt1", "o.pdt1"), ("colornan.pdt1", "o.png"),
              ("color.pdt1", "o.pdt1/"), *((f, "o.pdt1") for f in _COMMON_FAULTS)]
    for src, out in cases:
        argv = ["colorize", "--mode", "gray", "--input", "{in}/" + src, "--output", "{out}/" + out]
        calls.append(("colorize-gray", f"{src}-{out}", argv))
    argv = ["colorize", "--mode", "gray", "--input", "{in}/color.pdt1", "--raw", "{in}/color.pdt1", "--output",
            "{out}/o.pdt1"]
    calls.append(("colorize-gray", "raw-without-pd", argv))
    cases = [(src, raw, out) for src in ("gray.pdt1", "gray.png") for raw in ("color.pdt1", "color.png")
             for out in ("o.pdt1", "o.png")]
    cases += [("gray.pdt1", "x48c3.pdt1", "o.pdt1"), ("gray.pdt1", "colornan.pdt1", "o.pdt1"),
              ("gray.pdt1", "colornan.pdt1", "o.png"), ("graynan.pdt1", "color.pdt1", "o.pdt1"),
              ("color.pdt1", "color.pdt1", "o.pdt1"), ("gray.pdt1", None, "o.pdt1"),
              ("gray.pdt1", "color.pdt1", "o.pdt1/"), *((f, "color.pdt1", "o.pdt1") for f in _COMMON_FAULTS),
              *(("gray.pdt1", f, "o.pdt1") for f in _COMMON_FAULTS)]
    for src, raw, out in cases:
        argv = ["colorize", "--mode", "pd", "--input", "{in}/" + src, "--output", "{out}/" + out]
        argv += ["--raw", "{in}/" + raw] if raw else []
        calls.append(("colorize-pd", f"{src}-{raw}-{out}", argv))
    cases = [(src, f, aa, s, out) for f in ("box", "bilinear", "bicubic") for aa in ("--antialias", "--no-antialias")
             for src, s, out in (("color.pdt1", 2, "o.pdt1"), ("color.pdt1", 4, "o.png"), ("color.png", 2, "o.png"))]
    cases += [("color.pdt1", "box", "--antialias", 3, "o.pdt1"),
              ("colornan.pdt1", "bicubic", "--antialias", 2, "o.pdt1"),
              ("color.pdt1", "box", "--antialias", 0, "o.pdt1"), ("color.pdt1", "box", "--antialias", 2, "o.pdt1/"),
              *((f, "box", "--antialias", 2, "o.pdt1") for f in _COMMON_FAULTS)]
    for src, f, aa, s, out in cases:
        argv = ["degrade", "--input", "{in}/" + src, "--filter", f, aa, "--scale", str(s), "--output", "{out}/" + out]
        calls.append(("degrade", f"{src}-{f}{aa}-s{s}-{out}", argv))
    cases = [(gt, sr, gain, out) for gt, sr in (("color.pdt1", "color2.pdt1"), ("color.png", "color.pdt1"))
             for gain in ("5", "2.5") for out in ("o.pdt1", "o.png")]
    cases += [("color.pdt1", "gray.pdt1", "5", "o.pdt1"), ("color.pdt1", "colornan.pdt1", "5", "o.pdt1"),
              ("color.pdt1", "color2.pdt1", "0", "o.pdt1"), ("color.pdt1", "color2.pdt1", "inf", "o.pdt1"),
              ("color.pdt1", "color2.pdt1", "5", "o.pdt1/"),
              *((f, "color2.pdt1", "5", "o.pdt1") for f in _COMMON_FAULTS),
              *(("color.pdt1", f, "5", "o.pdt1") for f in _COMMON_FAULTS)]
    for gt, sr, gain, out in cases:
        argv = ["errmap", "--gt", "{in}/" + gt, "--sr", "{in}/" + sr, "--gain", gain, "--output", "{out}/" + out]
        calls.append(("errmap", f"{gt}-{sr}-g{gain}-{out}", argv))
    for flags in (["--iterations", "0"], ["--size", "0"], ["--size", "10", "--scale", "3"], ["--scale", "0"]):
        calls.append(("bench", "".join(flags), ["bench", *flags]))
    for flags in (["--count", "0"], ["--size", "0"], ["--size", "10", "--scale", "3"], ["--scale", "0"]):
        calls.append(("table1", "".join(flags), ["table1", *flags]))
    return calls


def _fault_inputs(d):
    """Write the inputs of the calls of ``_fault_calls`` into ``d``: copies of
    the inputs above with a ``+inf`` and a ``-inf`` sample (``inf``), and
    with finite samples of magnitude ``BIG`` placed so that a block mean, a
    block-sensing product, a channel mean or a combine overflows
    (``big``)."""

    def read(name):
        path = d / name
        return np.fromfile(path, "<f8", offset=16).reshape(np.fromfile(path, "<u4", 3, offset=4))

    def faulty(name, *places):
        """Write ``name`` with each (index, value) of ``places`` set."""
        a = read(name + ".pdt1")
        for index, value in places:
            a[index] = value
        return a

    infs = ((np.s_[0, 2, 3], np.inf), (np.s_[-1, 5, -2], -np.inf))
    for name in ("lr", "raw2", "raw4", "sr2", "x48c3", "color", "gray"):
        _pdt1(d / f"{name}inf.pdt1", faulty(name, *infs))
    # LR: a +BIG and a -BIG side by side, so that resampling between them
    # and the combine of a block with them meet both signs.
    _pdt1(d / "lrbig.pdt1", faulty("lr", (np.s_[0, 4, 4], BIG), (np.s_[0, 4, 5], -BIG), (np.s_[1, 9, 9], BIG)))
    # Raw and SR at scale 2: a block whose anchored mean overflows (anchor
    # -BIG, residuals 2 BIG), and one whose mean is -BIG / 4, finite, and
    # whose combine BIG - mean overflows.
    for name in ("raw2", "sr2"):
        _pdt1(d / f"{name}mean.pdt1", faulty(name, (np.s_[0, 0:2, 0:2], BIG), (np.s_[0, 0, 0], -BIG)))
        _pdt1(d / f"{name}sum.pdt1", faulty(name, (np.s_[1, 2:4, 2:4], -BIG), (np.s_[1, 2, 2], 0.0),
                                            (np.s_[1, 2, 3], BIG)))
    for b in (8, 12):
        op = cs_build(b, 0.25, seed=5)
        # A block signed as the first row, whose first measurement
        # overflows, and a block of BIG alone.
        x = read("x48c3.pdt1")
        x[0, :b, :b] = BIG * np.sign(op.rows[0]).reshape(b, b)
        _pdt1(d / f"x{b}prod.pdt1", x)
        x = read("x48c3.pdt1")
        x[1, :b, :b] = BIG
        _pdt1(d / f"x{b}flat.pdt1", x)
        m = read(f"m{b}c3.pdt1")
        m[0, 0, 0], m[op.q + 1, 1, 2] = np.inf, -np.inf
        _pdt1(d / f"m{b}inf.pdt1", m)
        m[0, 0, 0], m[op.q + 1, 1, 2] = BIG, -BIG
        _pdt1(d / f"m{b}big.pdt1", m)
    # Color: a pixel whose channel mean overflows (anchor -BIG, residuals
    # 2 BIG), and one whose mean is 0 and whose combine with a gray BIG
    # overflows.
    _pdt1(d / "colormean.pdt1", faulty("color", (np.s_[:, 0, 0], BIG), (np.s_[0, 0, 0], -BIG)))
    _pdt1(d / "colorsum.pdt1", faulty("color", (np.s_[0, 1, 1], 0.0), (np.s_[1, 1, 1], BIG), (np.s_[2, 1, 1], -BIG)))
    _pdt1(d / "graybig.pdt1", faulty("gray", (np.s_[0, 1, 1], BIG), (np.s_[0, 2, 2], -BIG)))


def _fault_calls():
    """(subcommand key, label, argv) of the calls that take ``+inf``,
    ``-inf`` and overflowing inputs (``_fault_inputs``) through ``pd``,
    ``verify``, ``cs`` and ``colorize``, each subcommand under a key of its
    own, so that the keys above keep their digests."""
    calls = []
    orders = (("o.pdt1",), ("o.png",), ("o.pdt1", "o.png"), ("o.png", "o.pdt1"))
    cases = [("nearest", lr, None, outs) for lr in ("lrinf.pdt1", "lrbig.pdt1") for outs in orders]
    cases += [("bicubic", lr, None, ("o.pdt1",)) for lr in ("lrinf.pdt1", "lrbig.pdt1")]
    cases += [("external", lr, "raw2.pdt1", outs) for lr in ("lrinf.pdt1", "lrbig.pdt1") for outs in orders]
    cases += [("external", "lr.pdt1", raw, outs) for raw in ("raw2inf.pdt1", "raw2mean.pdt1", "raw2sum.pdt1")
              for outs in orders]
    for predictor, lr, raw, outs in cases:
        argv = ["pd", "--predictor", predictor, "--scale", "2", "--lr", "{in}/" + lr, "--output", "{out}/" + outs[0]]
        argv += ["--png", "{out}/" + outs[1]] if len(outs) > 1 else []
        argv += ["--raw", "{in}/" + raw] if raw else []
        calls.append(("pd-faults", f"{predictor}-{lr}-{raw}-{'+'.join(outs)}", argv))
    argv = ["pd", "--predictor", "external", "--scale", "4", "--lr", "{in}/lr.pdt1", "--raw", "{in}/raw4inf.pdt1",
            "--output", "{out}/o.png", "--png", "{out}/o.pdt1"]
    calls.append(("pd-faults", "external-s4-raw4inf.pdt1-o.png+o.pdt1", argv))
    cases = [("lr.pdt1", sr, 2) for sr in ("sr2inf.pdt1", "sr2mean.pdt1", "sr2sum.pdt1")]
    cases += [(lr, "sr2.pdt1", 2) for lr in ("lrinf.pdt1", "lrbig.pdt1")]
    for lr, sr, s in cases:
        argv = ["verify", "--lr", "{in}/" + lr, "--sr", "{in}/" + sr, "--scale", str(s)]
        calls.append(("verify-faults", f"{lr}-{sr}-s{s}", argv))
    for b in (8, 12):
        op = ["--op", f"{{in}}/op{b}.pdm1"]
        for src in ("x48c3inf.pdt1", f"x{b}prod.pdt1", f"x{b}flat.pdt1"):
            for out in ("o.pdt1", "o.png"):
                argv = ["cs", "--action", "measure", *op, "--input", "{in}/" + src, "--output", "{out}/" + out]
                calls.append(("cs-faults", f"measure-b{b}-{src}-{out}", argv))
        for src in (f"m{b}inf.pdt1", f"m{b}big.pdt1"):
            for out in ("o.pdt1", "o.png"):
                argv = ["cs", "--action", "pinv", *op, "--input", "{in}/" + src, "--output", "{out}/" + out]
                calls.append(("cs-faults", f"pinv-b{b}-{src}-{out}", argv))
        cases = [(f"m{b}c3.pdt1", raw) for raw in ("x48c3inf.pdt1", f"x{b}prod.pdt1", f"x{b}flat.pdt1")]
        cases += [(lr, "x48c3.pdt1") for lr in (f"m{b}inf.pdt1", f"m{b}big.pdt1")]
        for lr, raw in cases:
            for out in ("o.pdt1", "o.png"):
                argv = ["cs", "--action", "pd", *op, "--lr", "{in}/" + lr, "--raw", "{in}/" + raw, "--output",
                        "{out}/" + out]
                calls.append(("cs-faults", f"pd-b{b}-{lr}-{raw}-{out}", argv))
    for src in ("colorinf.pdt1", "colormean.pdt1", "colorsum.pdt1"):
        for out in ("o.pdt1", "o.png"):
            argv = ["colorize", "--mode", "gray", "--input", "{in}/" + src, "--output", "{out}/" + out]
            calls.append(("colorize-faults", f"gray-{src}-{out}", argv))
    cases = [(src, raw) for src in ("gray.pdt1", "graybig.pdt1") for raw in ("colorinf.pdt1", "colormean.pdt1",
                                                                             "colorsum.pdt1")]
    cases += [(src, "color.pdt1") for src in ("grayinf.pdt1", "graybig.pdt1")]
    for src, raw in cases:
        for out in ("o.pdt1", "o.png"):
            argv = ["colorize", "--mode", "pd", "--input", "{in}/" + src, "--raw", "{in}/" + raw, "--output",
                    "{out}/" + out]
            calls.append(("colorize-faults", f"pd-{src}-{raw}-{out}", argv))
    return calls


def _resize_calls():
    """(subcommand key, label, argv) of the calls of ``pd --raw``, ``verify
    --sr``, ``cs --action measure|pd`` and ``colorize --mode gray|pd`` whose
    PDT1 input named ``*.shrinks`` or ``*.grows`` loses or gains 8 bytes
    while it is read (``_resized``), each subcommand under a key of its
    own, so that the keys above keep their digests."""
    calls = []
    for change in ("shrinks", "grows"):
        for lr, raw in ((f"lr.pdt1.{change}", "raw2.pdt1"), ("lr.pdt1", f"raw2.pdt1.{change}")):
            for out in ("o.pdt1", "o.png"):
                argv = ["pd", "--predictor", "external", "--scale", "2", "--lr", "{in}/" + lr, "--raw", "{in}/" + raw,
                        "--output", "{out}/" + out]
                calls.append(("pd-resized", f"{lr}-{raw}-{out}", argv))
        for lr, sr in ((f"lr.pdt1.{change}", "sr2.pdt1"), ("lr.pdt1", f"sr2.pdt1.{change}")):
            argv = ["verify", "--lr", "{in}/" + lr, "--sr", "{in}/" + sr, "--scale", "2"]
            calls.append(("verify-resized", f"{lr}-{sr}", argv))
        op = ["--op", "{in}/op8.pdm1"]
        for out in ("o.pdt1", "o.png"):
            argv = ["cs", "--action", "measure", *op, "--input", f"{{in}}/x48c3.pdt1.{change}", "--output",
                    "{out}/" + out]
            calls.append(("cs-resized", f"measure-x48c3.pdt1.{change}-{out}", argv))
            for lr, raw in ((f"m8c3.pdt1.{change}", "x48c3.pdt1"), ("m8c3.pdt1", f"x48c3.pdt1.{change}")):
                argv = ["cs", "--action", "pd", *op, "--lr", "{in}/" + lr, "--raw", "{in}/" + raw, "--output",
                        "{out}/" + out]
                calls.append(("cs-resized", f"pd-{lr}-{raw}-{out}", argv))
            argv = ["colorize", "--mode", "gray", "--input", f"{{in}}/color.pdt1.{change}", "--output", "{out}/" + out]
            calls.append(("colorize-resized", f"gray-color.pdt1.{change}-{out}", argv))
            for src, raw in ((f"gray.pdt1.{change}", "color.pdt1"), ("gray.pdt1", f"color.pdt1.{change}")):
                argv = ["colorize", "--mode", "pd", "--input", "{in}/" + src, "--raw", "{in}/" + raw, "--output",
                        "{out}/" + out]
                calls.append(("colorize-resized", f"pd-{src}-{raw}-{out}", argv))
    return calls


@contextlib.contextmanager
def _resized(argv):
    """Run the block with the input of ``argv`` named ``<name>.shrinks`` or
    ``<name>.grows``, if any, a copy of ``<name>`` that loses or gains 8
    bytes at the first ``os.preadv`` on it; remove the copy afterwards."""
    changes = {".shrinks": -8, ".grows": 8}
    paths = [Path(a) for a in argv if Path(a).suffix in changes]
    if not paths:
        yield
        return
    (path,) = paths
    data = path.with_suffix("").read_bytes()
    path.write_bytes(data)
    real_preadv, inode = os.preadv, path.stat().st_ino

    def preadv(fd, buffers, offset):
        if os.fstat(fd).st_ino == inode:
            os.preadv = real_preadv
            os.truncate(path, len(data) + changes[path.suffix])
        return real_preadv(fd, buffers, offset)

    os.preadv = preadv
    try:
        yield
    finally:
        os.preadv = real_preadv
        path.unlink()


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
            with _resized(argv):
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
