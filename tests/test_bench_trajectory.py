"""``tools/bench_trajectory.py`` chains the change/parent median ratios of
the committed ``BENCH_*.json`` files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_trajectory.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workloads():
    return [entry["name"] for entry in
            json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_chained_ops_per_s_through_pr_25():
    tool = load_tool()
    paths = [path for path in ROOT.glob("BENCH_*.json") if tool.pr_number(path) <= 25]
    chained = {workload: round(products["ops_per_s"], 2)
               for workload, pr, _, products in tool.trajectory(paths, workloads()) if pr == 25}
    assert chained == {"cli-oneshot": 5.66, "order-sweep": 1.94, "time-domain": 4.90,
                       "realize": 7.74}


def test_every_committed_file_is_read_and_missing_prs_are_gaps():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    tool = load_tool()
    committed = {tool.pr_number(path) for path in ROOT.glob("BENCH_*.json")}
    _, *rows = proc.stdout.splitlines()
    for workload in workloads():
        lines = {int(line.split()[1]): line.split()[2:] for line in rows
                 if line.split()[0] == workload}
        assert sorted(lines) == list(range(min(committed), max(committed) + 1))
        for pr, cells in lines.items():
            assert (pr not in committed) == (cells == ["-"] * 6), (workload, pr)


def test_a_file_without_medians_is_an_error(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCH_2.json").write_text((ROOT / "BENCH_2.json").read_text())
    (tmp_path / "BENCH_3.json").write_text(json.dumps({"e2e": {"realize": {}}}))
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: BENCH_3.json: cannot read")
