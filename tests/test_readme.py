"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    # The composition collapses to a pure integrator with no factors left,
    # and the ladder netlist follows.
    assert "s_exponent=-1" in out and "factors=()" in out
    assert re.search(r"^R1 1 2 ", out, re.M)
