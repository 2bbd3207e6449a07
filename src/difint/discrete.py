"""Bilinear discretization and time-domain identity experiments.

Each first-order factor maps through the trapezoidal substitution
s <- (2/h)(q - 1)/(q + 1) to a strictly stable digital section.  A net 1/s
is the factor 1/(s + p) at p = 0, so it maps the same way, to the trapezoid
accumulator section (h/2, h/2, -1) that leads the cascade.  A net s becomes
a central difference taken before the cascade, which needs one sample of
analytic input lookahead, so it is an offline device by construction.

The cascade runs through scipy's compiled second-order-section loop, with
one row per first-order section, in passes of at most eight rows that each
filter the whole signal in place; no sections is the identity.  Within a
sample the loop chains its sections serially, so short passes keep that
chain short.  Only the loop's extension, ``scipy.signal._sosfilt``, is
loaded, and only when :func:`simulate_filter` first runs: design, analysis
and realization never load scipy, and simulation skips ``scipy.signal``'s
package import, which pulls in ``scipy.stats``, ``interpolate`` and
``optimize`` and costs about a second of every ``simulate`` call.

An identity experiment arranges the stages of its three laws as a forest:
laws whose cascades open with the same stage share it as a head, filtered
over the input once, and each law's remaining stages follow it.  The
stages are planned across two lanes, the calling thread and one helper
thread, from their row counts alone, so the plan is the same on every run:
each stage runs as one slice, or as two cut at a pass boundary.  A slice
puts its output signal into the input slot of every slice that reads it,
on either lane, and sets its event once done; a reader waits for that
event and empties its slot as it starts, so a signal is freed once its
last reader has run.  The compiled loop and numpy's array operations
release the GIL, so the two threads filter in parallel.  Every section
still sees the same input in the same order, so results are bit-identical
to running the laws one after another.

The time base of an experiment, its sample times t, the input sin(t) and
the targets cos(t) and 1 - cos(t), depends only on the sample period and
the horizon, so it is computed once per (h, T), before the helper thread
starts, and shared by every call and result at that (h, T).  Its arrays are
read-only, and the last horizon's four stay in memory until a call with
another one.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .design import DesignSpec
from .errors import DomainError, ShapeError
from .factored import FactoredModel, multiply_and_simplify
from .identities import CONDITIONS, law_operands

__all__ = [
    "DiscreteFilter",
    "FilterSection",
    "SimulationResult",
    "discretize",
    "identity_experiment",
    "simulate_filter",
]

# The identity experiments, named after the signals of laws "i", "ii" and
# "iii" in that order.
EXPERIMENTS = ("x", "y", "z")

# Sample period and horizon (s) of an identity experiment unless given.
SAMPLE_PERIOD = 0.001
DURATION = 10.0


@dataclass(frozen=True)
class FilterSection:
    """First-order recurrence y[t] = b0*u[t] + b1*u[t-1] - a1*y[t-1]."""

    b0: float
    b1: float
    a1: float


@dataclass(frozen=True)
class DiscreteFilter:
    sections: tuple[FilterSection, ...]
    central_difference: bool
    sample_period: float


def discretize(model: FactoredModel, sample_period: float) -> DiscreteFilter:
    """Tustin-map a factored model at sample period ``sample_period``.

    Every real pole p > 0 lands strictly inside the unit circle
    (|a1| < 1), so all factor sections are stable; only the accumulator
    section of a net 1/s (pole p = 0) is marginally stable, by design.
    The gain folds into the first factor section, or becomes a section of
    its own when there is none.  Raises :class:`DomainError` for a sample
    period that is not finite and > 0, or that gives a section coefficient
    that is not finite: below about 1.1e-308 ``2/h`` overflows, and near
    the top of the float range so can ``2/h + p``.
    """
    if not 0.0 < sample_period < math.inf:
        raise DomainError(f"sample period must be finite and > 0, got {sample_period!r}")
    h = float(sample_period)
    c = 2.0 / sample_period
    sections: list[FilterSection] = []
    for z, p in model.factors:
        section = FilterSection((c + z) / (c + p), (z - c) / (c + p), (p - c) / (c + p))
        sections.extend([section] * model.multiplicity)
    if sections:
        first = sections[0]
        sections[0] = FilterSection(first.b0 * model.gain, first.b1 * model.gain, first.a1)
    elif model.gain != 1.0:
        sections.append(FilterSection(model.gain, 0.0, 0.0))
    if model.s_exponent == -1:
        sections.insert(0, FilterSection(h / 2.0, h / 2.0, -1.0))
    if not all(math.isfinite(x) for s in sections for x in (s.b0, s.b1, s.a1)):
        raise DomainError(f"sample period {h!r} gives a section coefficient that is not finite")
    return DiscreteFilter(tuple(sections), model.s_exponent == 1, h)


def simulate_filter(filt: DiscreteFilter, samples, lookahead: tuple[float, float] | None = None):
    """Run a filter over an input sequence from zero initial conditions.

    ``lookahead`` is the pair of analytic input samples one step before and
    after the sequence; it must be supplied exactly when the filter takes a
    central difference.
    """
    u = np.asarray(samples, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"samples must be a 1-D sequence, got shape {u.shape}")
    if filt.central_difference:
        if lookahead is None:
            raise ValueError("central difference needs (pre, post) lookahead samples")
        pre, post = lookahead
        extended = np.concatenate(([pre], u, [post]))
        u = (extended[2:] - extended[:-2]) / (2.0 * filt.sample_period)
    elif lookahead is not None:
        raise ValueError("lookahead is only meaningful with a central difference")
    if not filt.sections:
        return u.copy()
    rows = np.array([[s.b0, s.b1, 0.0, 1.0, s.a1, 0.0] for s in filt.sections])
    # With a zero second-order tail each row computes exactly the
    # first-order recurrence; pairing sections into biquads would
    # reassociate it and change results in the last digits.  The kernel
    # filters y in place from zero state, as scipy.signal.sosfilt calls it
    # for 1-D float64 input, without importing scipy.signal.  Each pass
    # feeds its sections the whole output of the pass before, so every
    # section sees the same input stream in the same order as in one call,
    # and results are bit-identical to scipy.signal.sosfilt.
    kernel = _sosfilt_kernel()
    y = u[np.newaxis].copy()
    for rows_of_pass in np.array_split(rows, -(-len(rows) // _PASS_SECTIONS)):
        kernel(rows_of_pass, y, np.zeros((1, len(rows_of_pass), 2)))
    return y[0]


# Sections per kernel pass, at most.  Within a sample the kernel runs one
# serial multiply-add chain through all the sections of its call, so a long
# call waits on that chain; a short pass leaves the CPU independent samples
# to overlap.  Measured on 50k samples (2-vCPU Xeon, best of 9): one call
# takes 2.2-3.2 ns a section-sample at 24-241 sections, passes of at most
# 8 take 1.6-2.4 ns (241 sections: 38.2 -> 19.1 ms).  The rows are split
# into passes of near-equal size, since a trailing pass of one row loses
# time (9 sections: 0.91 ms in slices of 8, 0.76 ms in passes of 5 and 4).
_PASS_SECTIONS = 8


_SOSFILT = "scipy.signal._sosfilt"
# Two threads loading the extension at once can leave one of them with a
# module that has no ``_sosfilt`` yet, so the load is serialised.
_SOSFILT_LOCK = threading.Lock()


def _sosfilt_kernel():
    """Return scipy's compiled ``_sosfilt(sos, x, zi)`` loop.

    The extension is loaded on first use straight from ``scipy/signal``,
    without running ``scipy/signal/__init__.py``, and registered under its
    own name, so a later ``import scipy.signal`` reuses it (and a
    ``scipy.signal`` imported earlier lends its copy here).
    """
    with _SOSFILT_LOCK:
        module = sys.modules.get(_SOSFILT)
        if module is None:
            scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
            if scipy is None:
                raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
            finder = FileFinder(os.path.join(scipy.submodule_search_locations[0], "signal"),
                                (ExtensionFileLoader, EXTENSION_SUFFIXES))
            spec = finder.find_spec(_SOSFILT)
            if spec is None:
                raise ModuleNotFoundError(f"No module named {_SOSFILT!r}", name=_SOSFILT)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_SOSFILT] = module
    return module._sosfilt


@dataclass(frozen=True)
class SimulationResult:
    """One identity experiment: sampled signals and unweighted error norms.

    ``time``, ``input_signal`` and ``exact`` are the experiment's time base,
    computed once per sample period and horizon and shared, read-only, by
    every result at that (h, T); the last horizon's arrays stay in memory
    until an experiment with another one runs.
    """

    time: np.ndarray
    input_signal: np.ndarray
    exact: np.ndarray
    approx: np.ndarray
    error: np.ndarray
    inf_norm: float
    two_norm: float

    @classmethod
    def from_signals(cls, time, input_signal, exact, approx) -> "SimulationResult":
        """Raises :class:`DomainError` when the filter output is not finite,
        or when the error's 2-norm exceeds the float range."""
        approx = np.asarray(approx)
        if not np.all(np.isfinite(approx)):
            raise DomainError("the simulated output is not finite")
        error = np.asarray(exact) - approx
        inf_norm = float(np.max(np.abs(error)))
        # Far from the simulated frequencies the squares, or their sum,
        # overflow although the norm itself is finite; only then is the
        # error scaled by its largest magnitude first.
        with np.errstate(over="ignore"):
            square_sum = np.sum(error * error)
        if math.isfinite(square_sum):
            two_norm = math.sqrt(square_sum)
        else:
            scaled = error / inf_norm
            two_norm = inf_norm * math.sqrt(np.sum(scaled * scaled))
        if not math.isfinite(two_norm):
            raise DomainError(
                f"the time-domain error 2-norm exceeds the float range "
                f"(largest error {inf_norm!r})"
            )
        return cls(
            time=np.asarray(time),
            input_signal=np.asarray(input_signal),
            exact=np.asarray(exact),
            approx=approx,
            error=error,
            inf_norm=inf_norm,
            two_norm=two_norm,
        )


def _cascade(first, second, force_cascade) -> tuple[FactoredModel, ...]:
    """The stages, in run order, that apply the operator product first*second.

    The product is simplified into one stage whenever its net s power is
    representable (this is what recovers the exact cancellations);
    otherwise, or on request, the operands are discretized separately and
    cascaded, which is the same map because the bilinear substitution is a
    homomorphism on rational functions.  A cascaded operand carrying a bare
    s factor runs first so its lookahead refers to the analytic input.
    """
    if not force_cascade:
        try:
            return (multiply_and_simplify(first, second),)
        except ShapeError:
            pass
    return tuple(sorted([second, first], key=lambda m: -m.s_exponent))


def _stage_tree(operands, force_cascade, sample_period):
    """The discretized stages of the laws' cascades, as a forest.

    Laws whose cascades open with the same stage share that stage as a
    head; each law's remaining stages follow it as a chain of their own.
    Returns the filters, each one's parent (-1 for a head) and each law's
    last stage, as indices into the filters.  Stages are discretized in
    law order, so a failure to discretize is the earliest law's.
    """
    filters, parents, ends, heads = [], [], [], {}
    for first, second in operands:
        head, *rest = _cascade(first, second, force_cascade)
        node = heads.get(head)
        if node is None:
            node = heads[head] = len(filters)
            filters.append(discretize(head, sample_period))
            parents.append(-1)
        for stage in rest:
            filters.append(discretize(stage, sample_period))
            parents.append(node)
            node = len(filters) - 1
        ends.append(node)
    return filters, parents, ends


# Handing a signal from one lane to the other costs about this many rows of
# filtering: the reading thread waits for the writing one and pulls the
# signal over from the other core's cache.  Measured over the time-domain
# benchmark pool (2-vCPU Xeon), against whole laws on each thread: planned
# in single passes, the busier thread filters 20 % fewer rows but needs ~9
# handoffs an op, and the pool ran 6 % slower; planned as here, at 3 or 5
# rows a handoff, it ran 14 % faster.
_HANDOFF_ROWS = 3


def _lane_plan(rows: tuple[int, ...],
               parents: tuple[int, ...]) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Split the filter passes of a forest of stages between two lanes.

    Stage i has ``rows[i]`` sections and reads the output of stage
    ``parents[i]`` (-1 for a head, which reads the input); a parent comes
    before its children.  The plan is drawn twice, once with every stage
    whole and once with every stage of two or more passes in two halves
    cut at a pass boundary, and the one whose makespan plus
    ``_HANDOFF_ROWS`` per handoff is smaller wins, whole stages on a tie.

    Returns each lane's slices ``(stage, first row, end row)`` in run
    order.  Every wait of a slice is on a slice scheduled before it, so two
    lanes that run their slices in this order cannot deadlock.
    """
    whole, halved = (_list_schedule(rows, parents, halves) for halves in (False, True))
    return min(whole, halved, key=lambda schedule: schedule[0])[1]


def _list_schedule(rows, parents, halves):
    """A greedy list schedule of the stages' units on two lanes, and its cost.

    A unit is a whole stage, or with ``halves`` the first or the second
    half of the passes :func:`simulate_filter` runs it in (near-equal ones
    of at most ``_PASS_SECTIONS`` rows); a stage without sections is one
    empty unit.  A unit follows the stage's unit before it, and a stage's
    first unit its parent's last.  Weighting each unit by its rows, the
    lane that comes free first takes the ready unit with the longest path
    of rows still below it; a lane with no unit ready idles until one is.
    When both lanes are free at once, the one that has run fewer units
    goes first, and the helper (lane 1) on a tie: any fixed rule keeps the
    plan deterministic, and this is the one the plans' timings were
    measured with.  Consecutive units of one stage on one lane merge into
    one slice.

    Returns the makespan plus ``_HANDOFF_ROWS`` per unit whose predecessor
    runs on the other lane, and the plan.
    """
    units, weights, follows, last = [], [], [], []
    for stage, (count, parent) in enumerate(zip(rows, parents)):
        before = last[parent] if parent >= 0 else -1
        passes = -(-count // _PASS_SECTIONS) or 1
        size, extra = divmod(count, passes)
        cuts = (0, -(-passes // 2), passes) if halves and passes > 1 else (0, passes)
        edges = [cut * size + min(cut, extra) for cut in cuts]
        for lo, hi in zip(edges, edges[1:]):
            units.append((stage, lo, hi))
            weights.append(hi - lo)
            follows.append(before)
            before = len(units) - 1
        last.append(before)
    path = weights[:]  # rows from the start of each unit to the end of its longest chain
    for u in reversed(range(len(units))):
        q = follows[u]
        if q >= 0:
            path[q] = max(path[q], weights[q] + path[u])
    finish = [None] * len(units)
    lane_of = [0] * len(units)
    free = [0, 0]
    lanes = ([], [])
    while None in finish:
        lane = min((1, 0), key=lambda i: (free[i], len(lanes[i])))
        now = free[lane]
        ready = [u for u, q in enumerate(follows) if finish[u] is None
                 and (q < 0 or finish[q] is not None and finish[q] <= now)]
        if ready:
            u = max(ready, key=lambda u: (path[u], -u))
            free[lane] = finish[u] = now + weights[u]
            lane_of[u] = lane
            lanes[lane].append(u)
        else:
            free[lane] = min(f for f in finish if f is not None and f > now)
    handoffs = sum(q >= 0 and lane_of[q] != lane_of[u] for u, q in enumerate(follows))
    plan = []
    for lane in lanes:
        slices = []
        for stage, lo, hi in (units[u] for u in lane):
            if slices and slices[-1][0] == stage and slices[-1][2] == lo:
                lo = slices.pop()[1]
            slices.append((stage, lo, hi))
        plan.append(tuple(slices))
    return max(free) + _HANDOFF_ROWS * handoffs, tuple(plan)


def _filter_slice(filt: DiscreteFilter, lo: int, hi: int, samples, lookahead):
    """Run sections ``lo:hi`` of ``filt`` over ``samples``; only the slice
    from the first section takes the filter's central difference."""
    central = filt.central_difference and lo == 0
    part = DiscreteFilter(filt.sections[lo:hi], central, filt.sample_period)
    return simulate_filter(part, samples, lookahead if central else None)


@functools.lru_cache(maxsize=1)
def _time_base(sample_period: float, duration: float):
    """The sample times ``t`` of an identity experiment, its input
    ``u = sin(t)``, ``cos(t)``, ``1 - cos(t)`` and the lookahead pair of
    ``u``, kept for the last ``(sample_period, duration)`` asked for.

    The arrays are shared by every call at that horizon and by the results
    they are part of, so they are read-only.  Raises :class:`DomainError`
    when the horizon has more samples than can be allocated.
    """
    count = int(round(duration / sample_period)) + 1
    # numpy raises MemoryError for arrays it cannot get and ValueError for
    # sizes past its own limit.
    try:
        t = np.arange(count, dtype=float) * sample_period
        u = np.sin(t)
        c = np.cos(t)
        one_minus_c = 1.0 - c
    except (MemoryError, ValueError) as exc:
        raise DomainError(f"a horizon of {count} samples is too long to allocate") from exc
    for array in (t, u, c, one_minus_c):
        array.flags.writeable = False
    return t, u, c, one_minus_c, (math.sin(-sample_period), math.sin(t[-1] + sample_period))


def identity_experiment(
    kappa: int,
    alpha: float,
    omega_l: float = DesignSpec.omega_l,
    omega_h: float = DesignSpec.omega_h,
    n: int = DesignSpec.n,
    k: int = DesignSpec.k,
    epsilon: float | None = None,
    sample_period: float = SAMPLE_PERIOD,
    duration: float = DURATION,
    cascade: bool = False,
) -> dict[str, SimulationResult]:
    """Simulate the three composition laws on u(t) = sin(t).

    Returns results keyed by the ``EXPERIMENTS`` "x", "y" and "z", for laws
    "i", "ii" and "iii" of :func:`difint.identities.law_operands`:

        x = I(alpha) I(1-alpha)[u] -> 1 - cos(t)
        y = D(alpha) I(alpha)[u]   -> sin(t)
        z = D(alpha) D(1-alpha)[u] -> cos(t)

    ``cascade=True`` forces separate discretization of the two operators
    (study mode); the default simplifies the continuous product first.
    """
    if not (sample_period > 0.0 and duration > 0.0):
        raise DomainError("sample period and duration must be > 0")
    # An infinite horizon, or one of too many periods, has no sample count.
    if not (math.isfinite(sample_period) and math.isfinite(duration / sample_period)):
        raise DomainError(
            f"sample period and duration must be finite and span a finite number "
            f"of samples, got {sample_period!r} and {duration!r}"
        )
    spec = DesignSpec(kappa, alpha, omega_l, omega_h, n, k, epsilon)
    filters, parents, ends = _stage_tree(law_operands(spec, CONDITIONS), cascade, sample_period)
    rows = tuple(len(filt.sections) for filt in filters)
    plan = _lane_plan(rows, tuple(parents))
    pieces = [piece for lane in plan for piece in lane]
    lanes = (range(len(plan[0])), range(len(plan[0]), len(pieces)))

    # Each slice reads the output of the stage's slice before it, else of
    # the parent's last slice, else (source -1) the input.
    ending = {(stage, hi): index for index, (stage, _, hi) in enumerate(pieces)}
    sources, readers, laws = [], [[] for _ in pieces], [[] for _ in pieces]
    for index, (stage, lo, _) in enumerate(pieces):
        parent = parents[stage]
        source = ending[stage, lo] if lo else ending[parent, rows[parent]] if parent >= 0 else -1
        sources.append(source)
        if source >= 0:
            readers[source].append(index)
    for law, stage in enumerate(ends):
        laws[ending[stage, rows[stage]]].append(law)
    # A failing slice is charged to the earliest law whose path holds it.
    charged = [-1] * len(filters)
    for law, stage in enumerate(ends):
        while stage >= 0 and charged[stage] < 0:
            charged[stage], stage = law, parents[stage]

    t, u, c, one_minus_c, lookahead = _time_base(sample_period, duration)
    exact = (one_minus_c, u, c)
    outcomes = [None] * len(ends)
    # Every slice has an input slot, which its source fills and it empties
    # as it starts, and an event, set once it is done.  A signal lives as
    # long as a slot, or a step still running, holds it.
    inputs = [u if source < 0 else None for source in sources]
    done = [threading.Event() for _ in pieces]

    def step(index):
        stage, lo, hi = pieces[index]
        if sources[index] >= 0:
            done[sources[index]].wait()
        signal, inputs[index] = inputs[index], None
        if signal is None:  # its source failed, or never ran
            return
        try:
            output = _filter_slice(filters[stage], lo, hi, signal, lookahead)
        except Exception as exc:
            outcomes[charged[stage]] = exc
            return
        del signal  # before the law checks, which allocate signals of their own
        for reader in readers[index]:
            inputs[reader] = output
        for law in laws[index]:
            try:
                outcomes[law] = SimulationResult.from_signals(t, u, exact[law], output)
            except Exception as exc:
                outcomes[law] = exc

    def run_lane(lane):
        try:
            for index in lane:
                step(index)
                done[index].set()
        finally:
            # Whatever stops a lane, the other one must not wait for it forever.
            for index in lane:
                done[index].set()

    helper = threading.Thread(target=run_lane, args=(lanes[1],))
    helper.start()
    try:
        run_lane(lanes[0])
    finally:
        # An interrupt reaches only the calling thread, even before its lane
        # runs, and propagates as soon as the helper is joined.
        for index in lanes[0]:
            done[index].set()
        helper.join()
    # The earliest failing law in x, y, z order raises, whichever lane ran it.
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return dict(zip(EXPERIMENTS, outcomes))
