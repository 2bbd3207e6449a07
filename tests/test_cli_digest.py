"""Byte-identity of the command line: ``tools/cli_digest.py`` run in this
process must reproduce ``tools/cli_digest.txt`` line for line."""

import difflib
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_digest():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOLS / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_output_matches_the_recorded_digest():
    expected = (TOOLS / "cli_digest.txt").read_text().splitlines()
    got = list(load_digest().lines())
    differing = list(difflib.unified_diff(expected, got, "cli_digest.txt", "this tree",
                                          n=0, lineterm=""))
    assert not differing, "\n".join(
        ["CLI output moved; if on purpose, regenerate with", "    PYTHONPATH=src python "
         "tools/cli_digest.py > tools/cli_digest.txt", *differing])
