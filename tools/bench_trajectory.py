"""Performance trajectory across the committed ``BENCH_<pr>.json`` files.

Run as ``python tools/bench_trajectory.py [DIRECTORY]``; the directory
defaults to the repository root next to this script.  Each file holds the
parent and change medians of one PR's alternating benchmark runs, either as
``e2e.<workload>.<metric>`` (PRs 2-6) or as ``e2e.<workload>.metrics.<metric>``
(since PR 8).  A change/parent ratio taken within one file does not depend on
how fast the host ran that day, so the running product of the ratios is the
trajectory.  For each workload of ``BENCHMARK.json`` and each PR from the
first file's to the last's, one line prints the ratio of the ``ops_per_s``,
``latency_p50_s`` and ``peak_rss_mb`` medians, each followed by its running
product.  A PR without a file prints ``-`` in every column and leaves the
products as they were.  A file that lacks one of these medians is an error
(exit 1).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("ops_per_s", "latency_p50_s", "peak_rss_mb")


def pr_number(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1])


def read_ratios(path: Path, workloads) -> dict[str, dict[str, float]]:
    """The change/parent median ratio of each metric of each workload in ``path``."""
    try:
        e2e = json.loads(path.read_text(encoding="utf-8"))["e2e"]
        ratios = {}
        for workload in workloads:
            entry = e2e[workload]
            metrics = entry["metrics"] if "metrics" in entry else entry
            ratios[workload] = {name: metrics[name]["change"]["median"]
                                / metrics[name]["parent"]["median"] for name in METRICS}
        return ratios
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path.name}: cannot read {exc!r}") from exc


def trajectory(paths, workloads):
    """``(workload, pr, ratios, products)`` for each workload and each PR
    from the first of ``paths`` to the last; ``ratios`` is None for a PR
    without a file."""
    read = {pr_number(path): read_ratios(path, workloads) for path in paths}
    rows = []
    for workload in workloads:
        products = dict.fromkeys(METRICS, 1.0)
        for pr in range(min(read), max(read) + 1):
            ratios = read[pr][workload] if pr in read else None
            if ratios is not None:
                products = {name: products[name] * ratios[name] for name in METRICS}
            rows.append((workload, pr, ratios, products))
    return rows


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT
    workloads = [entry["name"] for entry in
                 json.loads((directory / "BENCHMARK.json").read_text())["workloads"]]
    try:
        rows = trajectory(sorted(directory.glob("BENCH_*.json"), key=pr_number), workloads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'workload':<12} {'pr':>3}" + "".join(f" {name:>13} {'product':>8}"
                                               for name in METRICS))
    for workload, pr, ratios, products in rows:
        cells = "".join(f" {'-':>13} {'-':>8}" if ratios is None
                        else f" {ratios[name]:>13.3f} {products[name]:>8.3f}"
                        for name in METRICS)
        print(f"{workload:<12} {pr:>3}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
