"""The four workloads: seeded input generation, the timed op, its check.

Inputs are plain JSON-able dicts made from the seed before timing.  Each
workload generates rounds of ops; a round holds one op of each kind (its
strata) in a fixed order, and only the parameters inside an op come from the
seed, so every run sees the same mix and the figures stay comparable across
seeds.  A run's pool is ``pool_rounds`` rounds, whatever the program's
speed, so the ops attempted and failed are the same for a seed on every run.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from . import checks
from .trace import CHILD_MARKER

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH = ROOT / "benchmarks"
BAND = (1e-3, 1e3)
CLI_TIMEOUT_S = 120


def _order(rng: random.Random) -> float:
    """An order in (0, 1) on a 0.01 step, avoiding the singular 0.5."""
    while True:
        alpha = round(rng.uniform(0.02, 0.98), 2)
        if alpha != 0.5:
            return alpha


def _orders(rng: random.Random, count: int) -> list[float]:
    chosen: set[float] = set()
    while len(chosen) < count:
        chosen.add(_order(rng))
    return sorted(chosen)


def _stratified(rng: random.Random, low: int, high: int, bins: int, which: int) -> int:
    """A draw from the ``which``-th of ``bins`` equal parts of [low, high]."""
    width = (high - low + 1) / bins
    return rng.randint(low + math.ceil(width * which), low + math.ceil(width * (which + 1)) - 1)


def _difint(name: str):
    return importlib.import_module(f"difint.{name}")


def _import_difint() -> None:
    """Import the whole package, as a user does, and make sure it is the
    checkout's own source tree."""
    import difint

    if not os.path.realpath(difint.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"difint imported from {difint.__file__}, not from {SRC}")


def _spec(kappa: int, alpha: float, n: int, k: int):
    """Reference-band spec; methods 3/4 take the offset collapsing them onto
    methods 1/2, as the CLI's --eps-special does."""
    design = _difint("design")
    spec = design.DesignSpec(kappa, alpha, BAND[0], BAND[1], n, k)
    if kappa in (3, 4):
        spec = design.DesignSpec(kappa, alpha, BAND[0], BAND[1], n, k,
                                 design.special_epsilon(spec))
    return spec


class Workload:
    name = ""
    # Rounds in a run's pool, and the fewest timed passes over it: every op
    # is timed more than once, at different moments of the host's speed.
    pool_rounds = 1
    min_passes = 3

    def make_round(self, seed: int, index: int) -> list[dict]:
        raise NotImplementedError

    def make_ops(self, seed: int) -> list[dict]:
        return [op for index in range(self.pool_rounds) for op in self.make_round(seed, index)]

    def setup(self) -> None:
        """Imports the timed ops need."""
        _import_difint()

    def run(self, op: dict, tracer=None):
        raise NotImplementedError

    def check(self, op: dict, output) -> tuple[str, str]:
        raise NotImplementedError

    def _rng(self, seed: int, *labels) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.name, seed) + labels))


class OrderSweep(Workload):
    """Table 1 (``associativity_table``) and 7-method ``sweep_table`` sets.

    Reference spec: n=10, k=2, 10k-point grid; table 1 over 6..10 seeded
    orders, sweeps over 9 seeded orders as the CLI's tables 2 and 3 use.
    Stress spec: n=60, k=3 over a seeded 32-order sweep; one stress op takes
    the next 4 orders of it, so an op stays under a second; a pool of 3
    rounds takes 12 of the 32.  Only table 1's sweep length varies with the
    seed: the sweeps hold the median op, whose cost must not depend on the
    seed.
    """

    name = "order-sweep"
    pool_rounds = 3
    SWEEP_ORDERS = 9
    STRESS_SLICE = 4
    STRESS_ORDERS = 32

    def make_round(self, seed, index):
        rng = self._rng(seed, index)
        slices = self.STRESS_ORDERS // self.STRESS_SLICE
        block = self._rng(seed, "stress", index // slices)
        stress = _orders(block, self.STRESS_ORDERS)
        block.shuffle(stress)
        part = index % slices
        chunk = sorted(stress[part * self.STRESS_SLICE:(part + 1) * self.STRESS_SLICE])
        band = {"wl": BAND[0], "wh": BAND[1]}
        return [
            {"op": "table1", "n": 10, "k": 2, "alphas": _orders(rng, rng.randint(6, 10)), **band},
            {"op": "sweep", "kind": "integrator", "n": 10, "k": 2, "count": 10000,
             "alphas": _orders(rng, self.SWEEP_ORDERS), **band},
            {"op": "sweep", "kind": "differentiator", "n": 10, "k": 2, "count": 10000,
             "alphas": _orders(rng, self.SWEEP_ORDERS), **band},
            {"op": "table1", "n": 60, "k": 3, "alphas": chunk, **band},
            {"op": "sweep", "kind": ("integrator", "differentiator")[index % 2], "n": 60,
             "k": 3, "count": 10000, "alphas": chunk, **band},
        ]

    def run(self, op, tracer=None):
        if op["op"] == "table1":
            return _difint("identities").associativity_table(
                op["alphas"], op["wl"], op["wh"], op["n"], op["k"])
        frequency = _difint("frequency")
        return [frequency.sweep_table(kappa, op["kind"], op["alphas"], op["wl"], op["wh"],
                                      op["n"], op["k"], op["count"])
                for kappa in range(1, 8)]

    def check(self, op, output):
        if op["op"] == "table1":
            return checks.check_table1(op, output)
        design = _difint("design")

        def model_of(kappa, alpha):
            pair = design.design_pair(_spec(kappa, alpha, op["n"], op["k"]))
            return pair.integrator if op["kind"] == "integrator" else pair.differentiator

        return checks.check_sweep(op, output, model_of, _difint("factored").frequency_response)


class TimeDomain(Workload):
    """``identity_experiment`` for every method in the default (simplified)
    mode and in cascade mode, with seeded order, n and k, on a 50 s horizon
    at h = 1 ms, so filtering 50k samples dominates each op.

    An op filters through 2·n·k sections, so n and k are stratified to keep
    the pool's cost from depending on the seed: over the pool's 4 rounds each
    (method, mode) pair draws n once from each quarter of 5..30, and k
    follows the round and the method."""

    name = "time-domain"
    pool_rounds = 4
    SAMPLE_PERIOD = 1e-3
    DURATION = 50.0

    def make_round(self, seed, index):
        rng = self._rng(seed, index)
        ops = []
        for kappa in range(1, 8):
            for cascade in (False, True):
                which = (index + kappa + cascade) % self.pool_rounds
                ops.append({"op": "experiment", "kappa": kappa, "cascade": cascade,
                            "alpha": _order(rng),
                            "n": _stratified(rng, 5, 30, self.pool_rounds, which),
                            "k": 1 + (index + kappa) % 3})
        return ops

    def setup(self):
        super().setup()
        self._exact = checks.exact_signals(self.SAMPLE_PERIOD, self.DURATION)

    def run(self, op, tracer=None):
        return _difint("discrete").identity_experiment(
            op["kappa"], op["alpha"], BAND[0], BAND[1], op["n"], op["k"],
            sample_period=self.SAMPLE_PERIOD, duration=self.DURATION, cascade=op["cascade"])

    def check(self, op, output):
        return checks.check_experiment(op, output, self._exact)


class Realize(Workload):
    """Design, ``to_partial_fractions`` and, for k = 1 designs,
    ``synthesize_rc`` plus SPICE and JSON ``export_netlist``; every method
    and k = 1..4 in each round, n in 5..60 from the seed.  No spec is
    pruned: expansions that come out non-finite count as failed ops."""

    name = "realize"
    pool_rounds = 8

    def make_round(self, seed, index):
        # Stratified n: over the pool's 8 rounds each (method, k) pair
        # draws once from each eighth of the n range, so the share of specs
        # past the overflow threshold hardly depends on the seed.
        rng = self._rng(seed, index)
        ops = []
        for kappa in range(1, 8):
            for k in range(1, 5):
                which = (index + kappa + 2 * k) % self.pool_rounds
                ops.append({"op": "realize", "kappa": kappa, "k": k, "alpha": _order(rng),
                            "n": _stratified(rng, 5, 60, self.pool_rounds, which),
                            "wl": BAND[0], "wh": BAND[1]})
        return ops

    def run(self, op, tracer=None):
        realization = _difint("realization")
        model = _difint("design").design_pair(
            _spec(op["kappa"], op["alpha"], op["n"], op["k"])).integrator
        pf = realization.to_partial_fractions(model)
        if model.multiplicity != 1:
            return model, pf, None
        network = realization.synthesize_rc(pf)
        meta = {"method": op["kappa"], "alpha": op["alpha"], "n": op["n"]}
        return model, pf, (network, realization.export_netlist(network, "spice", meta),
                           realization.export_netlist(network, "json", meta))

    def check(self, op, output):
        return checks.check_realization(op, output, _difint("factored").frequency_response,
                                        _difint("realization").network_impedance)


class CliOneShot(Workload):
    """One fresh ``python -m difint.cli`` process per op.

    A round covers all seven commands, ``table --which 1..5``, a 10k-point
    ``bode``, ``simulate --experiment all``, one ``pfe`` in the range where
    the expansion overflows today (method 1..4, n 40..60, k = 4) and one
    invalid call per documented error exit code (2, 3, 4).  The pool is one
    round; a call takes seconds, so one pass is a run.
    """

    name = "cli-oneshot"
    pool_rounds = 1
    min_passes = 1

    def make_round(self, seed, index):
        rng = self._rng(seed, index)

        def design_args(methods=range(1, 8)):
            kappa = rng.choice(list(methods))
            args = ["-m", str(kappa), "-a", repr(_order(rng))]
            return args + (["--eps-special"] if kappa in (3, 4) else [])

        def kind():
            return ["--kind", rng.choice(("int", "diff"))]

        def op(args, output=None, rows=None, expect=0):
            return {"op": "cli", "args": args, "expect": expect, "output": output, "rows": rows}

        def sweep(count):
            return ",".join(repr(a) for a in _orders(rng, count))

        fmt = rng.choice(("text", "json"))
        circuit_fmt = rng.choice(("spice", "json"))
        invalid_2 = rng.choice((
            ["design", "-m", "1", "-a", repr(round(rng.uniform(1.05, 2.0), 2))],
            ["bode", "-m", "9", "-a", repr(_order(rng))],
            ["design", "-m", str(rng.choice((3, 4))), "-a", repr(_order(rng))],
        ))
        return [
            op(["design", *design_args(), "--n", str(rng.randint(5, 30)),
                "--k", str(rng.randint(1, 3)), *kind(), "--format", fmt], fmt),
            op(["bode", *design_args(), *kind(), "--points", "10000"], "csv", 10000),
            op(["table", "--which", "1", "--alphas", sweep(8)], "matrix"),
            op(["pfe", *design_args(range(1, 5)), "--n", str(rng.randint(40, 60)), "--k", "4"],
               "json"),
            op(["simulate", *design_args(), "--experiment", "all"], "csv", 3 * 10001),
            op(invalid_2, expect=2),
            op(["check", *design_args(), "--condition", rng.choice(("i", "ii", "iii", "all"))],
               "json"),
            op(["pfe", *design_args(), "--n", str(rng.randint(5, 20)),
                "--k", str(rng.randint(1, 2)), "--kind", "int"], "json"),
            op(["circuit", *design_args((1, 2, 3, 4, 5, 7)), "--k", "1",
                "--n", str(rng.randint(5, 30)), "--format", circuit_fmt], circuit_fmt),
            op(["design", "-m", str(rng.choice((3, 4))), "-a", repr(_order(rng)),
                "--eps", repr(round(rng.uniform(20.0, 90.0), 1))], expect=3),
            op(["table", "--which", "2", "--alphas", sweep(9)], "csv", 7),
            op(["circuit", *design_args(range(1, 5)), "--k", str(rng.randint(2, 4))], expect=4),
            op(["table", "--which", "3", "--alphas", sweep(9)], "csv", 7),
            op(["table", "--which", "4", "--alpha", repr(_order(rng))], "csv", 7),
            op(["table", "--which", "5"], "csv", 7),
        ]

    @staticmethod
    def _env(*paths) -> dict:
        env = dict(os.environ)
        parts = [str(path) for path in paths]
        if env.get("PYTHONPATH"):
            parts.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(parts)
        return env

    def setup(self):
        self._plain_env = self._env(SRC)
        self._traced_env = self._env(SRC, BENCH)

    def run(self, op, tracer=None):
        if tracer is None:
            argv = [sys.executable, "-m", "difint.cli", *op["args"]]
            env = self._plain_env
        else:
            argv = [sys.executable, "-X", "importtime", "-m", "difbench.cli_child", *op["args"]]
            env = self._traced_env
        spawned = time.time()
        done = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S, check=False)
        if tracer is not None:
            _merge_child(tracer, done.stderr, spawned, len(done.stdout))
        return done.returncode, done.stdout

    def check(self, op, output):
        return checks.check_cli(op, *output)


def _merge_child(tracer, stderr: bytes, spawned: float, output_bytes: int) -> None:
    """Fold a traced child's report (its last marked stderr line) and its
    ``-X importtime`` lines into ``tracer``."""
    report = None
    scipy_us = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith(CHILD_MARKER):
            report = json.loads(line[len(CHILD_MARKER):])
        elif line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if name.strip().split(".")[0] == "scipy":
                scipy_us += int(self_us)
    if report is None:
        raise RuntimeError("traced CLI child sent no report")
    tracer.merge(report["trace"], tracer.op)
    tracer.counts["cli.startup_s"] += report["ready"] - spawned
    tracer.counts["cli.import_scipy_s"] += scipy_us / 1e6
    tracer.counts["cli.output_bytes"] += output_bytes


WORKLOADS = {w.name: w for w in (CliOneShot(), OrderSweep(), TimeDomain(), Realize())}
