"""Tests of the benchmark itself.

Work counts of a traced pass repeat exactly for one seed and change with the
seed; timed passes replay the pool and count each op once; the checks flag
outputs corrupted on their way into the checker; a directory without the
difint sources makes the benchmark fail.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from difbench.main import run_pass, tail  # noqa: E402
from difbench.trace import LAYER_METRICS, Tracer, layer_values  # noqa: E402
from difbench.workloads import WORKLOADS  # noqa: E402

# Ops of the first round each test traces, and the count that must move
# with the seed.
TRACED = {
    "order-sweep": (2, "factored.frequency_response.factor_points"),
    "time-domain": (4, "discrete.simulate_filter.section_samples"),
    "realize": (28, "realization.to_partial_fractions.residues"),
    "cli-oneshot": (1, "cli.output_bytes"),
}
WORK_COUNTS = [name for name, unit, _ in LAYER_METRICS
               if unit in ("count", "bytes", "ratio") and name != "trace.overhead_ratio"]


def _work_counts(name, seed):
    workload = WORKLOADS[name]
    workload.setup()
    ops = workload.make_round(seed, 0)[: TRACED[name][0]]
    tracer = Tracer()
    tracer.install()
    try:
        run_pass(workload, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    values = layer_values(tracer)
    return {metric: values[metric] for metric in WORK_COUNTS}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_work_counts_repeat_per_seed_and_move_with_it(name):
    first = _work_counts(name, 1)
    assert _work_counts(name, 1) == first
    other = _work_counts(name, 2)
    counted = TRACED[name][1]
    assert first[counted] > 0
    assert other[counted] != first[counted]


def test_install_wraps_every_binding_and_uninstall_restores_it():
    import difint
    from difint import factored, identities

    original = factored.frequency_response
    tracer = Tracer()
    tracer.install()
    try:
        wrapper = factored.frequency_response
        assert wrapper.__wrapped__ is original
        assert identities.frequency_response is wrapper and difint.frequency_response is wrapper
    finally:
        tracer.uninstall()
    assert identities.frequency_response is original and difint.frequency_response is original


def _first_output(name, index=0, seed=1):
    workload = WORKLOADS[name]
    workload.setup()
    op = workload.make_round(seed, 0)[index]
    output = workload.run(op)
    assert workload.check(op, output) == ("ok", "")
    return workload, op, output


def test_checks_flag_corrupted_table_and_sweep():
    workload, op, matrix = _first_output("order-sweep", 0)
    matrix[4, 0] = True
    assert workload.check(op, matrix)[0] == "wrong"

    workload, op, rows = _first_output("order-sweep", 1)
    zeroed = [dataclasses.replace(rows[0], mag_norm_inf=0.0)] + rows[1:]
    assert workload.check(op, zeroed)[0] == "wrong"
    nan = [dataclasses.replace(rows[0], phase_norm_two=float("nan"))] + rows[1:]
    assert workload.check(op, nan)[0] == "malformed"


def test_checks_flag_corrupted_signals():
    workload, op, results = _first_output("time-domain", 0)
    assert op["kappa"] == 1 and not op["cascade"]
    results["z"].approx[1000] += 1e-4
    assert workload.check(op, results)[0] == "wrong"
    results["y"].approx[5] = np.inf
    assert workload.check(op, results)[0] == "malformed"


def test_checks_flag_corrupted_expansion_and_netlist():
    workload, op, (model, pf, netlists) = _first_output("realize", 0)
    assert netlists is not None
    term = pf.terms[0]
    scaled = dataclasses.replace(term, residues=(term.residues[0] * 1.001,))
    bad_pf = dataclasses.replace(pf, terms=(scaled,) + pf.terms[1:])
    assert workload.check(op, (model, bad_pf, netlists))[0] == "wrong"
    nan = dataclasses.replace(term, residues=(float("nan"),))
    assert workload.check(op, (model, dataclasses.replace(pf, terms=(nan,) + pf.terms[1:]),
                               netlists))[0] == "malformed"
    network, spice, document = netlists
    parsed = json.loads(document)
    parsed["elements"][-1]["R"] *= 2.0
    assert workload.check(op, (model, pf, (network, spice, json.dumps(parsed))))[0] == "wrong"


def test_checks_flag_corrupted_cli_output():
    workload, op, (code, stdout) = _first_output("cli-oneshot", 2)
    assert op["args"][:3] == ["table", "--which", "1"]
    flipped = stdout.decode().replace("×", "✓", 1).encode()
    assert workload.check(op, (code, flipped))[0] == "wrong"
    assert workload.check(op, (1, stdout))[0] == "malformed"
    csv_op = {"expect": 0, "output": "csv", "rows": 1}
    assert workload.check(csv_op, (0, b"omega,mag\n1,2\n")) == ("ok", "")
    assert workload.check(csv_op, (0, b"omega,mag\n1,nan\n"))[0] == "malformed"
    json_op = {"expect": 0, "output": "json", "rows": None}
    assert workload.check(json_op, (0, b'{"direct": NaN}'))[0] == "malformed"


class _Countdown:
    """A stand-in workload: op ``i`` sleeps ``i`` ms and fails when odd."""

    min_passes = 3

    def run(self, op, tracer=None):
        time.sleep(op / 1000)
        return op

    def check(self, op, output):
        return ("malformed", "odd") if output % 2 else ("ok", "")


def test_passes_replay_the_pool_and_count_each_op_once():
    once = run_pass(_Countdown(), [1, 2, 3, 4])
    assert (once.passes, once.attempted, once.failed) == (1, 4, 2)
    timed = run_pass(_Countdown(), [1, 2, 3, 4], seconds=1e-6)
    assert (timed.passes, timed.attempted, timed.failed) == (3, 4, 2)
    assert len(timed.latencies) == 12 and timed.outcomes["malformed"] == 6


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(list(range(11, 0, -1))) == (1, 100.0 / 11)
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "realize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
