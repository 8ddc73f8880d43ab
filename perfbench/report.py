"""Render benchmark results files as a workload x layer table.

Usage (from the repository root)::

    python3 perfbench/report.py                      # perfbench/results/*.jsonl
    python3 perfbench/report.py path/to/results.jsonl ...

Each cell is the median over the runs of that workload in the files.
Rows are grouped by layer: the end-to-end metrics of untraced runs first,
then the per-layer metrics of traced runs, then the tracing overhead —
the traced run's median query latency minus the untraced one's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> list[dict]:
    """Every run record in ``paths`` (one JSON object per line)."""
    records = []
    for path in paths:
        with path.open() as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def medians(records: list[dict]) -> dict[str, dict[str, tuple[float, str, int]]]:
    """``{workload: {metric: (median, unit, runs)}}`` over every record."""
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for record in records:
        workload = record["stamp"]["workload"]
        for name, entry in record["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    return {
        workload: {
            name: (statistics.median(samples), units[name], len(samples))
            for name, samples in metrics.items()
        }
        for workload, metrics in values.items()
    }


def layer_of(metric: str) -> str:
    """The row group of a metric: its layer, or ``end-to-end``."""
    head = metric.split(".", 1)[0]
    if "_" in head:
        return "end-to-end"
    return {"lp": "geometry", "query": "core", "celltree": "core", "bounds": "core"}.get(head, head)


def table(records: list[dict]) -> str:
    """The rendered table (plain text, one row per metric)."""
    data = medians(records)
    workloads = sorted(data)
    metrics: list[str] = []
    for record in records:
        for name in record["metrics"]:
            if name not in metrics:
                metrics.append(name)
    for workload in workloads:
        p50 = data[workload].get("query_s.p50")
        traced = data[workload].get("trace.query_s.p50")
        if p50 and traced:
            data[workload]["trace.overhead_s"] = (traced[0] - p50[0], "s", min(p50[2], traced[2]))
    if any("trace.overhead_s" in data[workload] for workload in workloads):
        metrics.append("trace.overhead_s")

    width = max(len(name) for name in metrics) + 2
    header = "metric".ljust(width) + "unit".ljust(7) + "".join(w.rjust(14) for w in workloads)
    lines = [header, "-" * len(header)]
    group = None
    for name in sorted(metrics, key=lambda metric: (layer_of(metric) != "end-to-end",)):
        if layer_of(name) != group:
            group = layer_of(name)
            lines.append(f"[{group}]")
        unit = next((data[w][name][1] for w in workloads if name in data[w]), "")
        cells = "".join(
            (f"{data[w][name][0]:.4g}" if name in data[w] else "-").rjust(14) for w in workloads
        )
        lines.append(name.ljust(width) + unit.ljust(7) + cells)
    runs = {w: max(entry[2] for entry in data[w].values()) for w in workloads}
    lines.append("")
    lines.append("runs: " + ", ".join(f"{w}={runs[w]}" for w in workloads))
    stamps = {(r["stamp"]["git_sha"], json.dumps(r["stamp"]["host"], sort_keys=True)) for r in records}
    for sha, host in sorted(stamps):
        lines.append(f"stamp: git {sha[:12]} host {host}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path)
    arguments = parser.parse_args(argv)
    paths = arguments.files or sorted((ROOT / "perfbench" / "results").glob("*.jsonl"))
    if not paths:
        print("no results files; run perfbench/run.py first", file=sys.stderr)
        return 1
    print(table(load(paths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
