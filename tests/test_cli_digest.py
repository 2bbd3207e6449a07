"""Byte-identity of the command line: ``tools/cli_digest.py`` run in this
process must reproduce ``tools/cli_digest.txt`` line for line, no call in
it may warn, and every call in it that exits 0 must give a clean, finite
answer."""

import difflib
import importlib.util
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# A number written as a non-finite float: one of these words with neither
# a word character nor a dot on either side, so that header names such as
# ``mag_inf_db`` do not match.  Each word's lookbehind follows its first
# letter, which lets the scan skip to that letter: put in front of the
# word, it makes the scan of the digest's ~130 MB of output take 4 s
# instead of 0.8 s on a 2-vCPU Xeon.
NONFINITE = re.compile("|".join(rf"{word[0]}(?<![\w.]{word[0]}){word[1:]}(?![\w.])"
                                for word in ("nan", "inf", "NaN", "Infinity")))

# A number as the command line writes it, the non-finite words included,
# with neither a word character nor a dot on either side, so that names
# such as ``R1`` and ``mag_inf_db`` do not match.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|nan|inf|NaN|Infinity)(?![\w.])")

# A warning as the digest writes it to stderr: ``Category: message``.
WARNING = re.compile(r"^\w*Warning: ", re.M)


def load_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOLS / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digest():
    """Each call's digest line, and what is wrong with it if it warned, or
    exited 0 with stderr or with a non-finite number in its output (""
    if nothing); one pass over the calls serves both tests."""
    results = []
    for line, code, err, text in load_digest().outcomes():
        faults = []
        if WARNING.search(err):
            faults.append("warning")
        if code == 0 and err:
            faults.append("stderr")
        if code == 0 and NONFINITE.search(text):
            faults.append("non-finite number")
        results.append((line, " and ".join(faults)))
    return results


def test_cli_output_matches_the_recorded_digest(digest):
    expected = (TOOLS / "cli_digest.txt").read_text().splitlines()
    got = [line for line, _ in digest]
    differing = list(difflib.unified_diff(expected, got, "cli_digest.txt", "this tree",
                                          n=0, lineterm=""))
    assert not differing, "\n".join(
        ["CLI output moved; if on purpose, regenerate with", "    PYTHONPATH=src python "
         "tools/cli_digest.py > tools/cli_digest.txt", *differing])


def test_calls_warn_never_and_exit_0_with_no_stderr_and_only_finite_numbers(digest):
    broken = [f"{fault}: {line}" for line, fault in digest if fault]
    assert not broken, "\n".join(["calls with a fault:", *broken])
