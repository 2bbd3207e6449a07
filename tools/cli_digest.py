"""Digest of the ``difint`` command line over a fixed list of calls.

Run as ``PYTHONPATH=<tree>/src python tools/cli_digest.py``.  Each call runs
in this process through ``difint.cli.main`` and prints one line,

    <exit code> <sha256 of stdout> <sha256 of stderr> <arguments>

so two trees give the same output exactly when every call gives the same
exit code and byte-identical text.  A few calls are also run with
``--output FILE``; their lines read

    <exit code> <sha256 of stdout> <sha256 of stderr> <sha256 of FILE> <arguments>

with ``absent`` for a file the call did not create and ``FILE`` standing for
its temporary path in the arguments.  An exception that escapes ``main``
counts as exit 1 with its type and message as stderr, and each warning
adds a ``Category: message`` line to stderr: tracebacks and the default
warning format name source paths and line numbers, which differ between
trees.  The list opens with the ``difint`` lines of README.md's ``sh``
blocks, read from the README itself, and covers every command for
methods 1..7 at orders 0.3 and 0.7 (methods 3/4 with ``--eps-special``
and with an in-range ``--eps``), tables 1..5, wide bands
on which few high-multiplicity sections overflow or underflow the gain,
``design``, ``bode`` and ``check`` for methods 1..7 on 10-decade bands
placed at 1e-200, 1e-170 and 1e160, a ``check`` of method 5 on a
one-decade band at 3e-217 whose operand product leaves the float range,
offsets on either side of the admissible interval, then methods 3/4 with
the offset omitted where ``check`` and ``simulate`` allow it, infinite
horizons and horizons too long to allocate, a band whose ratio overflows,
and ``pfe`` for methods 1..4 at n = 40 and 60 and k = 3 and 4, where
repeated-pole expansions used to overflow, and ``check`` and ``design`` on
the subnormal band 1e-320..1e-310, tables 4 and 5 on bands at 1e200 and 1e-250 whose
time-domain errors square past the float range, and method 4 designed and
checked at the tiny orders 1e-300 and 1e-20, and simulated and tabled at
1e-20, whose complement order rounds to 1.0, and ``bode`` and ``check``
at n = k = 1 on the bands 1e-100..1e100 and 1e-150..1e150, and tables 1
and 2 on the first, on which one factor's corners lie up to 1e300 apart,
and tables 4 and 5 at n = 60 and k = 3, whose cascades run up to 181
sections, and table 1 and ``check`` of methods 2 and 4 on a band below
1e308 whose law operands leave the float range, and ``design`` of methods
2 and 4 at n = 1 and k = 103, whose matched gain's reciprocal overflows,
and ``check`` and ``simulate`` of methods 2 and 4 at order 0.5, n = 1 and
k = 2 on the band 1e-154..1e154, whose law products' gains leave the
float range, and ``bode``, ``check`` and tables 1 and 2 on bands up to
the float maximum, and tables 1 and 2 given an empty order sweep, and
``bode`` and table 2 on a grid of 1e17 points, too long to allocate, and
four calls with two faults each, which pin the fault reported; every
call runs at ``--precision 9`` and 17.  The ``--output``
calls are a 10k-point ``bode``, a many-block ``simulate --experiment all``
and one call per error exit code (2, 3, 4).

``cli_digest.txt`` next to this script is the expected output;
``tests/test_cli_digest.py`` holds the tree to it, and in the same pass
requires that no call warns, and that every call that exits 0 writes
nothing to stderr and no number written as ``nan`` or ``inf``.  A change
that moves output on purpose regenerates it with

    PYTHONPATH=src python tools/cli_digest.py > tools/cli_digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import tempfile
import traceback
import warnings
from collections.abc import Iterator
from pathlib import Path

from difint.cli import main
from difint.design import METHODS, OFFSET_METHODS

README = Path(__file__).resolve().parents[1] / "README.md"

# In-range offsets (dB) of methods 3 and 4 at orders 0.3 and 0.7 on the
# default band and n = 10, by multiplicity.
IN_RANGE_EPS = {(3, 2): "1.5", (4, 2): "1.6", (3, 1): "1.25", (4, 1): "1.3"}

OUTPUT_CALLS = [
    "bode -m 1 -a 0.4 --points 10000",
    "simulate -m 2 -a 0.4 --experiment all",
    "design -m 1 -a 1.2",
    "design -m 3 -a 0.3 --eps 5",
    "circuit -m 1 -a 0.3 --k 2",
]

WIDE_BANDS = [("1e-154", "1e154"), ("1e-300", "1e7")]

# Ordinary 10-decade bands placed where the product of the band edges, or
# the squares of frequencies and corners, leave the float range.
SHIFTED_BANDS = [("1e-200", "1e-190"), ("1e-170", "1e-160"), ("1e160", "1e170")]

# Calls on a band whose lower edge is subnormal, which is rejected.
SUBNORMAL_BAND_CALLS = ["check -m 5 -a 0.3", "design -m 1 -a 0.3"]

# Time-domain errors of ~1e198..1e239 whose squares overflow although their
# 2-norms do not, orders so small that only an exact fold keeps them, and
# an order whose complement 1 - alpha rounds to 1.0, so that only law ii,
# which reads no complement, is run.
FLOAT_EDGE_CALLS = [
    "table --which 4 --wl 1e200 --wh 1e210 --T 0.05",
    "table --which 5 --wl 1e-250 --wh 1e-240 --T 0.05",
    "design -m 4 -a 1e-300 --n 1 --k 2 --eps 3.86",
    "check -m 4 -a 1e-20",
    "check -m 4 -a 1e-20 --condition ii",
    "simulate -m 4 -a 1e-20 --T 0.05",
    "table --which 1 --alphas 1e-20",
    "table --which 4 --alpha 1e-20 --T 0.05",
]


# Bands inside the range where log_response squares frequencies and
# corners, on which one single-section factor's corners lie up to 1e300
# apart, so that its quotient of two sums of squares leaves the float range.
FAR_CORNER_BANDS = [("1e-100", "1e100"), ("1e-150", "1e150")]

# A band near the top of the float range on which the law operands at
# order 0.7, n = 1 and k = 4 reach magnitudes of ~6900 dB, whose complex
# values overflow.
HUGE_OPERAND_BAND = "--wl 1.168150908264658e+195 --wh 1e+308 --n 1 --k 4"
HUGE_OPERAND_CALLS = [
    f"table --which 1 {HUGE_OPERAND_BAND} --alphas 0.7,0.9999519354742552",
    f"check -m 2 -a 0.7 {HUGE_OPERAND_BAND}",
    f"check -m 4 -a 0.7 {HUGE_OPERAND_BAND} --eps-special",
]

# At order 0.3, n = 1 and k = 103 on the default band the integrator's
# matched gain is so small that its reciprocal, the differentiator's gain,
# overflows.
TINY_GAIN_CALLS = ["design -m 2 -a 0.3 --n 1 --k 103",
                   "design -m 4 -a 0.3 --n 1 --k 103 --eps-special"]

# At order 0.5, n = 1 and k = 2 on the band 1e-154..1e154 the gain of two
# law products underflows to 0 or overflows: ``check`` rejects them, and
# ``simulate`` runs those laws as the cascade of their operands.
PRODUCT_GAIN_ARGS = "-a 0.5 --wl 1e-154 --wh 1e154 --n 1 --k 2"
PRODUCT_GAIN_CALLS = [f"{command} -m {method} {PRODUCT_GAIN_ARGS}{special}"
                      for method, special in ((2, ""), (4, " --eps-special"))
                      for command in ("check", "simulate")]

# Bands up to the float maximum, on which two hypot terms of a frequency
# and a corner would overflow unless log_response scales them down.
TOP_OF_RANGE_CALLS = [
    "bode -m 1 -a 0.3 --wl 1e306 --wh 1.7e308 --points 3",
    "bode -m 2 -a 0.9 --wl 1e300 --wh 1.5e308 --n 3 --k 2 --kind diff --points 3",
    "check -m 1 -a 0.5 --wl 1e297 --wh 1.5e308 --n 17 --k 1 --condition ii",
    "table --which 1 --wl 1e265 --wh 1.5e308 --n 2 --k 1",
    "table --which 2 --wl 1e300 --wh 1.7e308 --points 5",
]

# An explicit empty order sweep, which is rejected, not read as the default.
EMPTY_SWEEP_CALLS = ["table --which 1 --alphas ''", "table --which 2 --alphas ''"]

# A frequency grid that numpy refuses outright (about 711 PiB), which is rejected.
HUGE_GRID_CALLS = ["bode -m 1 -a 0.3 --points 100000000000000000",
                   "table --which 2 --points 100000000000000000"]

# Calls with two faults, which pin the one reported: an inadmissible offset
# comes before the horizon of ``simulate`` and before a complement order
# that rounds to 1.0, and a bad field of the spec before the offset.
PRECEDENCE_CALLS = ["simulate -m 3 -a 0.3 --eps 100 --T inf",
                    "simulate -m 3 -a 0.3 --eps 100 --h 0",
                    "check -m 4 -a 1e-20 --eps 100",
                    "design -m 3 -a 0.3 --eps 100 --n 0"]


def _offsets(method: int, k: int) -> list[str]:
    if method not in OFFSET_METHODS:
        return [""]
    return ["--eps-special", f"--eps {IN_RANGE_EPS[method, k]}"]


def _readme_calls() -> list[str]:
    """The arguments of each ``difint ...`` line of the README's ``sh``
    blocks, in order."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line[len("difint "):] for block in blocks for line in block.splitlines()
            if line.startswith("difint ")]


def _calls() -> list[str]:
    calls = _readme_calls()
    for method in METHODS:
        for alpha in ("0.3", "0.7"):
            design = f"-m {method} -a {alpha}"
            for offset in _offsets(method, 2):
                args = f"{design} {offset}".strip()
                for kind in ("int", "diff"):
                    calls += [f"design {args} --kind {kind} --format text",
                              f"design {args} --kind {kind} --format json",
                              f"bode {args} --kind {kind}",
                              f"pfe {args} --kind {kind}"]
                calls += [f"check {args} --condition all",
                          f"simulate {args} --experiment all"]
            for offset in _offsets(method, 1):
                args = f"{design} --k 1 {offset}".strip()
                calls += [f"circuit {args} --format spice", f"circuit {args} --format json"]
            special = " --eps-special" if method in OFFSET_METHODS else ""
            calls.append(f"check {design} --n 60 --k 3{special} --condition all")
    calls += [f"table --which {which}" for which in range(1, 6)]
    calls += [f"table --which {which} --n 60 --k 3" for which in range(1, 4)]
    for method in (2, 4):
        special = " --eps-special" if method == 4 else ""
        for alpha in ("0.3", "0.7"):
            for k in (1, 4, 8):
                for wl, wh in WIDE_BANDS:
                    args = f"-m {method} -a {alpha} --wl {wl} --wh {wh} --n 1 --k {k}{special}"
                    calls += [f"design {args}", f"bode {args}", f"pfe {args}",
                              f"circuit {args}", f"check {args}"]
    calls += [f"table --which 1 --wl {wl} --wh {wh} --n 1 --k 8" for wl, wh in WIDE_BANDS]
    for wl, wh in SHIFTED_BANDS:
        for method in METHODS:
            special = " --eps-special" if method in OFFSET_METHODS else ""
            for alpha in ("0.3", "0.7"):
                args = f"-m {method} -a {alpha} --wl {wl} --wh {wh}{special}"
                calls += [f"design {args}", f"bode {args}", f"check {args}"]
    calls.append("check -m 5 -a 0.496 --wl 3.13e-217 --wh 3.13e-216 --n 14 --k 4 --condition all")
    offset_check = "check -m 3 -a 0.3037617739110518 --n 38 --k 4 --eps 0.4370141475644993"
    calls += [
        f"{offset_check} --condition ii",
        f"{offset_check} --condition i",
        "design -m 3 -a 0.3037617739110518 --n 38 --k 4 --eps 0.4370141475644993",
        "design -m 3 -a 0.3 --eps 5",
        "design -m 4 -a 0.7 --eps 1.5",
        "design -m 3 -a 0.3",
        "design -m 1 -a 0.3 --eps 1",
        "design -m 1 -a 1.2",
    ]
    for method in OFFSET_METHODS:
        for alpha in ("0.3", "0.7"):
            calls += [f"check -m {method} -a {alpha} --condition all",
                      f"simulate -m {method} -a {alpha} --experiment all"]
    calls += [
        "simulate -m 1 -a 0.3 --T inf",
        "table --which 4 --T inf",
        "simulate -m 1 -a 0.3 --T 1e14",
        "table --which 4 --T 1e14",
        "table --which 2 --wl 1e-300 --wh 1e300",
    ]
    for method in range(1, 5):
        special = " --eps-special" if method in OFFSET_METHODS else ""
        for alpha in ("0.3", "0.7"):
            for n in (40, 60):
                calls += [f"pfe -m {method} -a {alpha} --n {n} --k {k}{special}" for k in (3, 4)]
    calls += [f"{command} --wl 1e-320 --wh 1e-310" for command in SUBNORMAL_BAND_CALLS]
    calls += FLOAT_EDGE_CALLS
    for wl, wh in FAR_CORNER_BANDS:
        for command in ("bode", "check"):
            args = f"-a 0.3 --n 1 --k 1 --wl {wl} --wh {wh}"
            calls += [f"{command} -m 2 {args}", f"{command} -m 4 {args} --eps-special"]
    calls += ["bode -m 5 -a 0.3 --n 1 --k 1 --wl 1e-150 --wh 1e150",
              "check -m 7 -a 0.3 --n 1 --k 1 --wl 1e-150 --wh 1e150"]
    calls += [f"table --which {which} --n 1 --k 1 --wl 1e-100 --wh 1e100" for which in (1, 2)]
    calls += [f"table --which {which} --n 60 --k 3 --T 2" for which in (4, 5)]
    calls += HUGE_OPERAND_CALLS
    calls += TINY_GAIN_CALLS
    calls += PRODUCT_GAIN_CALLS
    calls += TOP_OF_RANGE_CALLS
    calls += EMPTY_SWEEP_CALLS
    calls += HUGE_GRID_CALLS
    calls += PRECEDENCE_CALLS
    return calls


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - an escaped exception is a result here
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
            code = 1
    for warning in caught:
        err.write(f"{warning.category.__name__}: {warning.message}\n")
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_to_file(argv: list[str], directory: str) -> tuple[int, str, str, bytes | None]:
    path = os.path.join(directory, "output")
    code, out, err = _run(["--output", path, *argv])
    if not os.path.exists(path):
        return code, out, err, None
    with open(path, "rb") as handle:
        written = handle.read()
    os.remove(path)
    return code, out, err, written


def outcomes() -> Iterator[tuple[str, int, str, str]]:
    """Per call and precision: the digest line, the exit code, stderr and
    the text the call wrote, which is the file for an ``--output`` call
    that created one and stdout otherwise."""
    for call in _calls():
        for precision in ("9", "17"):
            argv = ["--precision", precision, *shlex.split(call)]
            code, out, err = _run(argv)
            yield f"{code} {_sha(out)} {_sha(err)} {shlex.join(argv)}", code, err, out
    with tempfile.TemporaryDirectory() as directory:
        for call in OUTPUT_CALLS:
            for precision in ("9", "17"):
                argv = ["--precision", precision, *shlex.split(call)]
                code, out, err, written = _run_to_file(argv, directory)
                digest = "absent" if written is None else hashlib.sha256(written).hexdigest()
                text = out if written is None else written.decode("utf-8", "replace")
                yield (f"{code} {_sha(out)} {_sha(err)} {digest} "
                       f"{shlex.join(['--output', 'FILE', *argv])}", code, err, text)


def run() -> None:
    for line, *_ in outcomes():
        print(line, flush=True)


if __name__ == "__main__":
    run()
