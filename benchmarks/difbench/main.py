"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates a pool of ops from the seed, of a size that does not
depend on the speed of the program.  ``--trace 0`` times whole passes over
the pool for about S seconds in one closed loop (one op in flight; a CLI op
is one child process) with tracing off, and reports the end-to-end metrics.
``--trace 1`` makes one pass untraced and one traced, and reports the
per-layer metrics and the tracing overhead.  Checks run after each op,
outside the timed region.  The last stdout line is the JSON result; the
line before it and a record under ``.bench_out/`` hold the machine, the
inputs' digest and the details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

from .trace import LAYER_METRICS, Tracer, layer_values
from .workloads import ROOT, SRC, WORKLOADS

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10
OUT_DIR = ROOT / ".bench_out"

def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the ready time and exit")
    return parser.parse_args(argv)


@dataclass
class Pass:
    """Latencies and check outcomes of passes over a workload's pool."""

    pool: int
    latencies: list[float] = field(default_factory=list)
    check_s: float = 0.0
    outcomes: dict[str, int] = field(default_factory=lambda: {"ok": 0, "malformed": 0,
                                                               "wrong": 0})
    failed_ops: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        """Distinct inputs run; a replay of an input is not a new attempt."""
        return self.pool

    @property
    def failed(self) -> int:
        """Distinct inputs that failed in any of their runs."""
        return len(self.failed_ops)


def run_pass(workload, ops, seconds=None, tracer=None) -> Pass:
    """Run the pool ``ops`` in order, one op at a time, and check each
    output right after it, untimed.  Without ``seconds``, make one pass.
    With it, make whole passes until the pass boundary nearest ``seconds``
    of op time, and at least ``workload.min_passes`` of them."""
    result = Pass(pool=len(ops))
    timed = 0.0
    while True:
        pass_start = timed
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(index)
                tracer.active = True
            error = None
            start = time.perf_counter()
            try:
                output = workload.run(op, tracer)
            except Exception as exc:  # every exception is a measured failure
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            timed += elapsed
            result.latencies.append(elapsed)
            if error is None:
                checked = time.perf_counter()
                try:
                    status, reason = workload.check(op, output)
                except Exception as exc:  # output the checker cannot even parse
                    status, reason = "malformed", f"check raised {type(exc).__name__}: {exc}"
                result.check_s += time.perf_counter() - checked
                del output
            else:
                status, reason = "malformed", f"raised {type(error).__name__}: {error}"
            result.outcomes[status] += 1
            if status != "ok":
                if index not in result.failed_ops and len(result.reasons) < 20:
                    result.reasons.append(f"op {index} {json.dumps(op)}: {reason}")
                result.failed_ops.add(index)
        result.passes += 1
        if seconds is None:
            return result
        if result.passes >= workload.min_passes and timed + (timed - pass_start) / 2 >= seconds:
            return result


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ``TAIL_BEYOND``
    samples beyond it."""
    ordered = sorted(latencies)
    position = len(ordered) - TAIL_BEYOND - 1
    return ordered[position], 100.0 * (position + 1) / len(ordered)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "git_commit": _git_commit(),
    }


def prepare(args):
    """Set-up as ``setup_s`` counts it: imports, inputs, one warm-up op."""
    workload = WORKLOADS[args.workload]
    workload.setup()
    ops = workload.make_ops(args.seed)
    if len(ops) <= TAIL_BEYOND:
        raise RuntimeError(f"a pool of {len(ops)} ops has no tail percentile")
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
    warm = run_pass(workload, ops[:1])
    # The generated inputs live for the whole run; keep the collector from
    # walking them, which a user's process would not have to do.
    gc.collect()
    gc.freeze()
    return workload, ops, digest, warm


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh interpreter until it is ready to time,
    once per probe."""
    argv = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode()[-500:]}")
        times.append(float(done.stdout.decode().split()[-1]) - spawned)
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "difint" / "__init__.py").is_file():
        print(f"error: no difint sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        prepare(args)
        print(repr(time.time()))
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    workload, ops, digest, warm = prepare(args)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": digest, "pool_ops": len(ops),
              "machine": machine(), "setup_probe_s": setup_times,
              "warmup_outcome": warm.outcomes}

    if args.trace:
        plain = run_pass(workload, ops)
        tracer = Tracer()
        tracer.install()
        try:
            measured = run_pass(workload, ops, tracer=tracer)
        finally:
            tracer.uninstall()
        values = layer_values(tracer)
        values["trace.overhead_ratio"] = sum(measured.latencies) / sum(plain.latencies) - 1.0
        metrics = {name: _metric(values[name], unit) for name, unit, _ in LAYER_METRICS}
        record["untraced_pass_s"] = sum(plain.latencies)
        record["traced_pass_s"] = sum(measured.latencies)
        record["spans"] = tracer.spans
    else:
        measured = run_pass(workload, ops, seconds=args.seconds)
        value, percentile = tail(measured.latencies)
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "ops_per_s": _metric(len(measured.latencies) / sum(measured.latencies), "1/s"),
            "latency_p50_s": _metric(statistics.median(measured.latencies), "s"),
            "latency_tail_s": _metric(value, "s"),
            "ok_ratio": _metric(1.0 - measured.failed / measured.attempted, "ratio"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        }
        record["latency_tail"] = {"percentile": percentile, "samples_beyond": TAIL_BEYOND,
                                  "samples": len(measured.latencies)}
        record["timed_s"] = sum(measured.latencies)
        record["latencies_s"] = measured.latencies

    record.update(outcomes=measured.outcomes, failures=measured.reasons,
                  passes=measured.passes, check_s=measured.check_s,
                  wall_s=time.perf_counter() - started, metrics=metrics)
    result = {"correct": measured.outcomes["wrong"] == 0, "attempted": measured.attempted,
              "failed": measured.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    summary = {key: record[key] for key in ("workload", "seed", "inputs_sha256", "machine",
                                            "outcomes", "passes")}
    summary.update({key: record[key] for key in ("latency_tail", "setup_probe_s")
                    if key in record})
    summary["failures"] = measured.reasons[:3]
    summary["record"] = str(path.relative_to(ROOT))
    print("# " + json.dumps(summary))
    print(json.dumps(result))
    return 0
