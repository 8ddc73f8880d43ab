"""Amortized serving benchmark: ``repro.engine.Engine`` vs naive repeated ``kspr()``.

A 50-query, Zipf-skewed, mixed-``k`` workload over one dataset is answered
twice:

* **naive** — every query is a fresh :func:`repro.kspr` call (rebuilds the
  focal partition, the competitor R-tree and every hyperplane each time);
* **engine** — one :class:`repro.engine.Engine` serves the whole workload
  (k-skyband pruning, per-focal prepared state, LRU result cache).

The acceptance bar for the engine subsystem is a **>= 2x** end-to-end
speedup on this workload; the script asserts it and emits JSON timings under
``benchmarks/results/engine_amortized.json``.

Run directly (``PYTHONPATH=src python benchmarks/bench_engine_amortized.py``)
or through pytest (``python -m pytest benchmarks/bench_engine_amortized.py``);
``--tiny`` runs a seconds-long smoke configuration that reports the speedup
without enforcing the bar (used by the tracer-overhead smoke in CI).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import kspr
from repro.data import independent_dataset
from repro.engine import Engine, generate_workload, replay

RESULTS_DIR = Path(__file__).parent / "results"

#: Workload shape: 50 queries, skewed towards a handful of hot focal records
#: with shortlist sizes mixed per query — the paper's heavy-traffic scenario.
WORKLOAD_SIZE = 50
FOCAL_POOL = 8
ZIPF_S = 1.4
K_CHOICES = (2, 3, 4, 5)
CARDINALITY = 250
DIMENSIONALITY = 3
SEED = 1701

#: The acceptance bar for the serving subsystem.
REQUIRED_SPEEDUP = 2.0


def run_comparison(
    *,
    size: int = WORKLOAD_SIZE,
    cardinality: int = CARDINALITY,
    seed: int = SEED,
) -> dict:
    """Run the naive-vs-engine comparison once and return the JSON payload."""
    dataset = independent_dataset(cardinality, DIMENSIONALITY, seed=seed)
    workload = generate_workload(
        dataset,
        size,
        zipf_s=ZIPF_S,
        focal_pool=FOCAL_POOL,
        k_choices=K_CHOICES,
        perturb=0.05,
        seed=seed,
    )

    naive_start = time.perf_counter()
    naive_regions = 0
    for query in workload:
        naive_regions += len(kspr(dataset, query.focal, query.k))
    naive_seconds = time.perf_counter() - naive_start

    engine = Engine(dataset, k_max=max(K_CHOICES))
    engine_start = time.perf_counter()
    report = replay(engine, workload)
    engine_seconds = time.perf_counter() - engine_start
    assert not report.errors, [outcome.error for outcome in report.errors]

    speedup = naive_seconds / engine_seconds if engine_seconds > 0 else float("inf")
    return {
        "benchmark": "engine_amortized",
        "workload": workload.metadata,
        "queries": size,
        "unique_queries": workload.unique_queries,
        "unique_focals": workload.unique_focals,
        "naive_seconds": naive_seconds,
        "engine_seconds": engine_seconds,
        "speedup": speedup,
        "naive_regions": naive_regions,
        "engine_batch": report.summary(),
        "engine_stats": engine.stats.as_dict(),
        # Result-cache and prepared-state counters, one name per number.
        "engine_metrics": engine.metrics(),
    }


def _tiny_kwargs() -> dict:
    """A seconds-long smoke configuration (correctness, not the speedup bar)."""
    return {"size": 16, "cardinality": 120}


def emit(payload: dict) -> Path:
    """Archive the timings JSON next to the other benchmark artefacts."""
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "engine_amortized.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def test_engine_amortized_speedup() -> None:
    """The engine must serve the 50-query workload >= 2x faster than naive kspr()."""
    payload = run_comparison()
    emit(payload)
    assert payload["speedup"] >= REQUIRED_SPEEDUP, (
        f"engine speedup {payload['speedup']:.2f}x is below the required "
        f"{REQUIRED_SPEEDUP:.1f}x (naive {payload['naive_seconds']:.3f}s, "
        f"engine {payload['engine_seconds']:.3f}s)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="seconds-long smoke run")
    arguments = parser.parse_args(argv)

    payload = run_comparison(**(_tiny_kwargs() if arguments.tiny else {}))
    target = emit(payload)
    print(json.dumps(payload, indent=2))
    print(
        f"\nnaive {payload['naive_seconds']:.3f}s -> engine "
        f"{payload['engine_seconds']:.3f}s ({payload['speedup']:.2f}x, "
        f"{payload['engine_batch']['cache_hits']:.0f} cache hits); "
        f"JSON written to {target}"
    )
    if arguments.tiny:
        print("tiny smoke mode: speedup bar not enforced")
        return 0
    if payload["speedup"] < REQUIRED_SPEEDUP:
        print(f"FAIL: speedup below {REQUIRED_SPEEDUP:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
