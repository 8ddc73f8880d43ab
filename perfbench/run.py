"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 24 --trace 0

A run is a few sessions (``sessions`` of the workload), each with its own
seeded inputs and its own timed set-up (``setup_s`` is their median).
``--trace 0`` measures each session's closed loop for its share of
``--seconds`` and prints every
end-to-end metric.  ``--trace 1`` runs a fixed amount of work per session
with every layer boundary wrapped (see ``instrument.py``) and prints every
per-layer metric; the fixed amount makes its counts repeat exactly for one
seed.  Both modes check every answer, outside the timed windows,
and exit 1 when a check fails.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run
is also appended, with its run stamp, to ``perfbench/results/<workload>.jsonl``;
``perfbench/report.py`` renders those files as a workload x layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str:
    # The ceiling keeps git from answering for a repository above ROOT.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def run_stamp(kind, sizes, seed: int, trace: int) -> dict:
    """Who ran what where: git SHA, host fingerprint, seed and sizes."""
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "workload": kind.name,
        "seed": seed,
        "sessions": kind.sessions,
        "trace": trace,
        "params": kind.params(sizes),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def untraced(kind, seed: int, sizes, seconds: float):
    """Measure every session for its share of ``seconds``; check each."""
    from perfbench.metrics import end_to_end, peak_rss_mb
    from perfbench.workloads import Sample

    setup_seconds, sample, failures, digests = [], Sample(), [], []
    for session in range(kind.sessions):
        workload = kind(seed, session, sizes)
        started = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - started)
        try:
            sample.add(workload.measure(seconds=seconds / kind.sessions))
            failures += workload.check()
            digests.append(getattr(workload, "digest", lambda: None)())
        finally:
            workload.teardown()
    return end_to_end(setup_seconds, sample, peak_rss_mb()), sample, failures, digests


def traced(kind, seed: int, sizes, spans_path: Path):
    """Run every session's fixed work with the layer wrappers installed.

    Wrappers are installed around set-up and work only: the checks and the
    teardown run with the originals back in place.
    """
    from perfbench.instrument import Instrumentation, Recorder, default_targets
    from perfbench.metrics import per_layer, session_counters
    from perfbench.workloads import Sample

    recorder, sample, failures, digests = Recorder(), Sample(), [], []
    counters: dict[str, float] = {}
    for session in range(kind.sessions):
        workload = kind(seed, session, sizes)
        try:
            with Instrumentation(default_targets(), recorder):
                workload.setup()
                sample.add(workload.measure(limit=workload.fixed_work()))
            for name, value in session_counters(workload.engines(), workload.registry()).items():
                counters[name] = counters.get(name, 0.0) + value
            failures += workload.check()
            digests.append(getattr(workload, "digest", lambda: None)())
        finally:
            if workload.state is not None:
                workload.teardown()
    spans = recorder.tree()
    write_spans(spans, spans_path)
    return per_layer(spans, recorder.results(), counters, sample), sample, failures, digests


def write_spans(spans, target: Path) -> None:
    """Write the traced run's spans, one JSON object a line, replacing the last run's."""
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for span in spans:
            handle.write(json.dumps({
                "id": span.span_id, "parent": span.parent_id, "name": span.name,
                "thread": span.thread, "start": span.start, "end": span.end,
                "self": span.self_time, "items": span.items,
            }) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes (the benchmark's own tests)")
    parser.add_argument("--results", type=Path, default=None,
                        help="results file to append to (default perfbench/results/<workload>.jsonl)")
    arguments = parser.parse_args(argv)

    # The benchmark measures the program in this checkout, never an
    # installed copy: without its sources there is nothing to run.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.metrics import END_TO_END, PER_LAYER, percentile
        from perfbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload {arguments.workload!r}; choose from {sorted(WORKLOADS)}")

    kind = WORKLOADS[arguments.workload]
    sizes = kind.Sizes().tiny() if arguments.tiny else kind.Sizes()
    target = arguments.results or ROOT / "perfbench" / "results" / f"{kind.name}.jsonl"
    if arguments.trace:
        spans_path = target.with_suffix(".spans.jsonl")
        metrics, sample, failures, digests = traced(kind, arguments.seed, sizes, spans_path)
        units = PER_LAYER
    else:
        metrics, sample, failures, digests = untraced(kind, arguments.seed, sizes, arguments.seconds)
        units = END_TO_END
    extra = {
        "query_s.p99": percentile(sample.query_seconds, 0.99),
        "queries": len(sample.query_seconds),
        "update_batches": len(sample.update_seconds),
        "deltas": len(sample.delta_seconds),
        "elapsed_s": sample.elapsed,
        "errors": sample.errors[:10],
    }
    if any(digests):
        extra["digest"] = digests

    record = {
        "stamp": run_stamp(kind, sizes, arguments.seed, arguments.trace),
        "correct": not failures,
        "failures": failures,
        "attempted": sample.attempted,
        "failed": sample.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "extra": extra,
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as handle:
        handle.write(json.dumps(record) + "\n")

    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for name, value in extra.items():
        print(f"# {name} = {value}")
    for name, entry in record["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
