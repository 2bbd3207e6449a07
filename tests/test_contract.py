"""The command line over its whole admitted domain.

Argument vectors are drawn over all seven commands and tables 1..5, with
methods 1..7, orders from 1e-300 up to 1 - 1e-16 (and a few outside (0, 1)),
band edges from below ``sys.float_info.min`` up to the float maximum,
offsets in and out of range and sample periods from 1e-6 to 1e300.  Each
runs through ``main`` in this process, which must exit 0, 2, 3 or 4, never
warn, write nothing to stderr when it exits 0, and print only numbers
that read back finite.  Grid sizes, n and horizons stay small so that a
call takes milliseconds; a horizon is either short or so long that numpy
refuses its allocation outright, never one the machine could actually
allocate.
"""

import contextlib
import io
import json
import math
import sys
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from difint.cli import main
from test_cli_digest import NUMBER

# log10 of the float maximum, rounded down so that 10.0 ** x stays finite.
TOP_DECADE = 308.2547


def one_in(draw, count):
    """Whether a draw falls on the rare side, about once in ``count``."""
    return draw(st.integers(1, count)) == 1


@st.composite
def orders(draw):
    """Orders in (0, 1), one in four near an end of the interval and one in
    eight outside it."""
    if one_in(draw, 8):
        return repr(draw(st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan])))
    if one_in(draw, 4):
        return repr(draw(st.one_of(
            st.floats(-300.0, -2.0).map(lambda x: 10.0 ** x),
            st.floats(-16.0, -2.0).map(lambda x: 1.0 - 10.0 ** x))))
    return repr(draw(st.floats(0.01, 0.99)))


@st.composite
def bands(draw):
    """``--wl`` and ``--wh``, mostly under 40 decades wide, some wider than
    the float range or upside down, some at the ends of the float range."""
    low = draw(st.floats(-308.5, TOP_DECADE))
    if one_in(draw, 8):
        high = draw(st.floats(-308.5, TOP_DECADE))
    else:
        high = min(low + draw(st.floats(0.01, 40.0)), TOP_DECADE)
    edges = [10.0 ** low, 10.0 ** high]
    if one_in(draw, 6):
        edges[0] = sys.float_info.min
    if one_in(draw, 6):
        edges[1] = sys.float_info.max
    return ["--wl", repr(edges[0]), "--wh", repr(edges[1])]


@st.composite
def sampling(draw):
    """``--h`` and ``--T``: at most 10k samples, or one in six at least
    1e16, which numpy cannot allocate, or an empty or infinite horizon."""
    h = 10.0 ** draw(st.floats(-6.0, 300.0))
    if one_in(draw, 6):
        horizon = draw(st.one_of(st.floats(16.0, 30.0).map(lambda x: repr(h * 10.0 ** x)),
                                 st.sampled_from(["0", "inf"])))
    else:
        horizon = repr(draw(st.floats(1e-4, 0.01)))
    return ["--h", repr(h), "--T", horizon]


@st.composite
def design_arguments(draw):
    """A method, order, band, n, k and offset: methods 3 and 4 mostly with
    an offset, in range or out of it, and the others mostly without one."""
    method = draw(st.integers(1, 7))
    argv = ["-m", str(method), "-a", draw(orders()), *draw(bands()),
            "--n", str(draw(st.integers(1, 40))), "--k", str(draw(st.integers(1, 8)))]
    if one_in(draw, 6) == (method in (3, 4)):
        return argv
    if draw(st.booleans()):
        return argv + ["--eps-special"]
    eps = draw(st.one_of(st.floats(-1.0, 10.0), st.sampled_from([math.nan, math.inf])))
    return argv + [f"--eps={eps!r}"]  # a bare -1e-05 would read as an option


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["design", "bode", "check", "simulate", "pfe", "circuit", "table"]))
    argv = ["--precision", str(draw(st.integers(0, 17))), command]
    kind = ["--kind", draw(st.sampled_from(["int", "diff"]))]
    points = ["--points", str(draw(st.integers(0, 40)))]
    if command == "table":
        which = draw(st.integers(1, 5))
        argv += ["--which", str(which), *draw(bands()), "--n", str(draw(st.integers(1, 8))),
                 "--k", str(draw(st.integers(1, 8)))]
        if which <= 3:
            sweep = draw(st.one_of(st.none(), st.lists(orders(), max_size=3)))
            argv += points + ([] if sweep is None else ["--alphas", ",".join(sweep)])
        else:
            argv += draw(sampling()) + (["--alpha", draw(orders())] if draw(st.booleans()) else [])
        return argv
    argv += draw(design_arguments())
    if command == "design":
        argv += kind + ["--format", draw(st.sampled_from(["text", "json"]))]
    elif command == "bode":
        argv += kind + points
    elif command == "check":
        argv += ["--condition", draw(st.sampled_from(["i", "ii", "iii", "all"]))]
    elif command == "simulate":
        argv += draw(sampling()) + ["--experiment", draw(st.sampled_from(["x", "y", "z", "all"]))]
    elif command == "pfe":
        argv += kind
    else:
        argv += kind + ["--format", draw(st.sampled_from(["spice", "json"]))]
    return argv


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def is_json(argv):
    return argv[2] in ("check", "pfe") or argv[-2:] == ["--format", "json"]


def assert_clean_call(argv):
    """Run ``argv`` and assert the contract; returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
        if is_json(argv):
            json.loads(out.getvalue(), parse_constant=_reject)
        assert all(math.isfinite(float(number)) for number in NUMBER.findall(out.getvalue()))
    return code


@settings(max_examples=2000, deadline=None, database=None, derandomize=True)
@given(argv=argvs())
def test_every_drawn_call_exits_cleanly(argv):
    assert_clean_call(argv)
