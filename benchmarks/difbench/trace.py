"""Span tracer installed around difint's public functions from outside.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces
every public function of the traced modules with a span wrapper, at every
name a difint module binds it to (``difint.identities.frequency_response``
is the same function object as ``difint.factored.frequency_response``, so
both names are patched), and :meth:`Tracer.uninstall` puts the originals
back.

Each span records its name, start, end, parent span and op.  Spans stay in
memory until the run writes them out.  Self time is a span's duration minus
the durations of its direct child spans.  Work counts are taken at the same
boundaries by the counters in ``_COUNTERS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

# Prefix of the report line a traced CLI child writes last on stderr.
CHILD_MARKER = "difbench-trace "
MODULES = ("design", "factored", "frequency", "identities", "discrete", "realization")
LAYERS = ("cli",) + MODULES


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(values) -> int:
    shape = getattr(values, "shape", None)
    if shape is not None:
        return int(math.prod(shape))
    try:
        return len(values)
    except TypeError:
        return 1


def _count_design_pair(tracer, args, kwargs, result):
    key = (_arg(args, kwargs, 0, "spec"), kwargs.get("literal_case7_gain", False))
    tracer.note_repeat("design.design_pair", key)


def _count_make_grid(tracer, args, kwargs, result):
    tracer.note_repeat("frequency.make_grid", (tuple(args), tuple(sorted(kwargs.items()))))


def _count_frequency_response(tracer, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    points = _size(_arg(args, kwargs, 1, "omegas"))
    tracer.counts["factored.frequency_response.factor_points"] += len(model.factors) * points


def _count_multiply(tracer, args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    offered = len(a.factors) + len(b.factors)
    tracer.counts["factored.multiply_and_simplify.offered"] += offered
    if result is not None:
        # Every cancellation removes one zero and one pole, so the surviving
        # pairs are the offered ones minus the matches.
        tracer.counts["factored.multiply_and_simplify.cancelled"] += offered - len(result.factors)


def _count_simulate(tracer, args, kwargs, result):
    filt = _arg(args, kwargs, 0, "filt")
    samples = _size(_arg(args, kwargs, 1, "samples"))
    tracer.counts["discrete.simulate_filter.section_samples"] += len(filt.sections) * samples


def _count_partial_fractions(tracer, args, kwargs, result):
    if result is None:
        return
    values = [result.direct, result.origin_residue]
    residues = [r for term in result.terms for r in term.residues]
    tracer.counts["realization.to_partial_fractions.residues"] += len(residues)
    if not all(math.isfinite(v) for v in values + residues):
        tracer.counts["realization.to_partial_fractions.nonfinite"] += 1


_COUNTERS = {
    "design.design_pair": _count_design_pair,
    "frequency.make_grid": _count_make_grid,
    "factored.frequency_response": _count_frequency_response,
    "factored.multiply_and_simplify": _count_multiply,
    "discrete.simulate_filter": _count_simulate,
    "realization.to_partial_fractions": _count_partial_fractions,
}


class Tracer:
    """Spans and counts of one traced pass.

    ``spans`` holds ``(name, start, end, parent, op, self_s, error)`` tuples,
    where ``parent`` indexes ``spans`` (-1 for a root) and ``error`` says
    whether an exception left the span.
    """

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._seen: dict[str, set] = defaultdict(set)
        self._patched: list[tuple] = []

    def begin_op(self, op: int) -> None:
        """Start a new op: repeat detection only looks within one op."""
        self.op = op
        self._seen = defaultdict(set)

    def note_repeat(self, name: str, key) -> None:
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)
        self.counts[name + ".keyed"] += 1

    def wrap(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name)
        module = name.split(".")[0]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, name, 0.0]
            tracer._stack.append(frame)
            result = None
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                self_s = duration - frame[2]
                tracer.spans[index] = (name, start, end, -1 if parent is None else parent[0],
                                       tracer.op, self_s, error)
                tracer.calls[name] += 1
                tracer.self_s[name] += self_s
                if parent is not None:
                    parent[2] += duration
                # An exception counts once per module it leaves.
                if error and (parent is None or parent[1].split(".")[0] != module):
                    tracer.errors[module] += 1
                if counter is not None:
                    counter(tracer, args, kwargs, result)

        return span

    def install(self) -> None:
        """Wrap the public functions of every traced module at every name
        a difint module binds them to."""
        import difint

        namespaces = [difint] + [importlib.import_module(f"difint.{m}") for m in LAYERS]
        for short in MODULES:
            module = importlib.import_module(f"difint.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._patch(namespaces, fn, self.wrap(f"{short}.{attr}", fn))
        cli = importlib.import_module("difint.cli")
        self._patch([cli], cli.main, self.wrap("cli.command", cli.main))

    def _patch(self, namespaces, fn, wrapper) -> None:
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, key, wrapper)
                    self._patched.append((namespace, key, fn))

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patched):
            setattr(namespace, key, fn)
        self._patched.clear()

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }

    def merge(self, other: dict, op: int) -> None:
        """Fold in the trace of a child process that ran op ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _, self_s, error in other["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                               op, self_s, error))
        for key, value in other["calls"].items():
            self.calls[key] += value
        for key, value in other["self_s"].items():
            self.self_s[key] += value
        for key, value in other["errors"].items():
            self.errors[key] += value
        for key, value in other["counts"].items():
            self.counts[key] += value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# (metric name, unit, better) in report order; BENCHMARK.json lists the same.
LAYER_METRICS = (
    ("cli.startup_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("design.design_pair.calls", "count", "lower"),
    ("design.design_pair.self_s", "s", "lower"),
    ("design.design_pair.repeat_ratio", "ratio", "lower"),
    ("factored.frequency_response.calls", "count", "lower"),
    ("factored.frequency_response.self_s", "s", "lower"),
    ("factored.frequency_response.factor_points", "count", "lower"),
    ("factored.multiply_and_simplify.calls", "count", "lower"),
    ("factored.multiply_and_simplify.self_s", "s", "lower"),
    ("factored.multiply_and_simplify.cancel_ratio", "ratio", "higher"),
    ("frequency.sweep_table.self_s", "s", "lower"),
    ("frequency.error_series.self_s", "s", "lower"),
    ("frequency.make_grid.repeat_ratio", "ratio", "lower"),
    ("identities.check_identity.calls", "count", "lower"),
    ("identities.check_identity.self_s", "s", "lower"),
    ("identities.associativity_table.self_s", "s", "lower"),
    ("discrete.discretize.calls", "count", "lower"),
    ("discrete.discretize.self_s", "s", "lower"),
    ("discrete.simulate_filter.calls", "count", "lower"),
    ("discrete.simulate_filter.self_s", "s", "lower"),
    ("discrete.simulate_filter.section_samples", "count", "lower"),
    ("discrete.identity_experiment.self_s", "s", "lower"),
    ("realization.to_partial_fractions.calls", "count", "lower"),
    ("realization.to_partial_fractions.self_s", "s", "lower"),
    ("realization.to_partial_fractions.residues", "count", "higher"),
    ("realization.to_partial_fractions.nonfinite_ratio", "ratio", "lower"),
    ("realization.synthesize_rc.self_s", "s", "lower"),
    ("realization.export_netlist.self_s", "s", "lower"),
) + tuple((f"{layer}.errors", "count", "lower") for layer in LAYERS) + (
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of a finished pass (``trace.overhead_ratio``
    and the ``cli.*`` process numbers are added by the caller)."""
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".calls"):
            values[name] = tracer.calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = tracer.self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".errors"):
            values[name] = tracer.errors.get(name[: -len(".errors")], 0)
        elif name.endswith(".repeat_ratio"):
            base = name[: -len(".repeat_ratio")]
            values[name] = _ratio(counts[base + ".repeats"], counts[base + ".keyed"])
        else:
            values[name] = counts.get(name, 0)
    values["factored.multiply_and_simplify.cancel_ratio"] = _ratio(
        counts["factored.multiply_and_simplify.cancelled"],
        counts["factored.multiply_and_simplify.offered"],
    )
    values["realization.to_partial_fractions.nonfinite_ratio"] = _ratio(
        counts["realization.to_partial_fractions.nonfinite"],
        tracer.calls.get("realization.to_partial_fractions", 0),
    )
    return values
