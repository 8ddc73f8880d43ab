"""Snapshot persistence benchmark: warm restore vs cold recompute.

One dataset, one batch of distinct-focal queries.  A first engine answers
the batch cold (every query computed), commits dataset + caches to a
:class:`repro.snapshot.SnapshotStore`, and is discarded — simulating a
process exit.  A second engine is restored with
:meth:`repro.engine.Engine.from_snapshot` and answers the *same* batch;
every answer must be a cache hit and structurally identical to the cold
one.  The measured quantities:

* **cold seconds** — answering the batch from scratch,
* **warm seconds** — answering it from the restored cache,
* **commit / restore seconds** and the store's on-disk footprint.

The acceptance bar is a **>= 3x** warm-over-cold speedup
at the full configuration: serving from a restored cache must be
decisively cheaper than recomputing, or persistence is not paying for the
disk it uses.

Run directly (``PYTHONPATH=src python benchmarks/bench_snapshot_persistence.py``),
with ``--tiny`` for a seconds-long smoke configuration (used by CI), or
through pytest (``python -m pytest benchmarks/bench_snapshot_persistence.py``).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.data import independent_dataset
from repro.engine import Engine
from repro.parallel import assert_results_identical
from repro.snapshot import SnapshotStore

RESULTS_DIR = Path(__file__).parent / "results"

CARDINALITY = 10_000
DIMENSIONALITY = 4
QUERIES = 12
K = 3
SEED = 501

#: Warm restored-cache serving must beat cold recomputation by this factor.
REQUIRED_SPEEDUP = 3.0


def _focals(dataset, count: int):
    """Distinct near-skyline focals (hot spots with non-trivial answers)."""
    order = dataset.values.sum(axis=1).argsort()[::-1]
    return [dataset.values[int(row)] * 0.98 for row in order[:count]]


def run_comparison(
    *,
    cardinality: int = CARDINALITY,
    dimensionality: int = DIMENSIONALITY,
    queries: int = QUERIES,
    k: int = K,
    seed: int = SEED,
) -> dict:
    """Run the cold-commit-restore-warm cycle once and return the payload."""
    dataset = independent_dataset(cardinality, dimensionality, seed=seed)
    focals = _focals(dataset, queries)

    with tempfile.TemporaryDirectory(prefix="bench-snapshot-") as tmp:
        store = SnapshotStore(Path(tmp) / "store")

        cold_engine = Engine(dataset, k_max=k)
        cold_start = time.perf_counter()
        cold_results = [cold_engine.query(focal, k) for focal in focals]
        cold_seconds = time.perf_counter() - cold_start

        commit_start = time.perf_counter()
        sid = cold_engine.commit(store)
        commit_seconds = time.perf_counter() - commit_start
        store_bytes = store.size_bytes()
        del cold_engine  # the "process exit"

        restore_start = time.perf_counter()
        warm_engine = Engine.from_snapshot(store, sid, k_max=k)
        restore_seconds = time.perf_counter() - restore_start

        warm_start = time.perf_counter()
        warm_results = [warm_engine.query(focal, k) for focal in focals]
        warm_seconds = time.perf_counter() - warm_start

        hits = warm_engine.metrics()["engine.result_cache.hits"]
        for cold, warm in zip(cold_results, warm_results):
            assert_results_identical(warm, cold)
        assert hits == len(focals), f"expected {len(focals)} warm hits, got {hits}"

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    return {
        "benchmark": "snapshot_persistence",
        "cardinality": cardinality,
        "dimensionality": dimensionality,
        "queries": queries,
        "k": k,
        "identical_results": True,  # the assertions above would have raised
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": speedup,
        "commit_seconds": commit_seconds,
        "restore_seconds": restore_seconds,
        "store_bytes": store_bytes,
        "warm_hits": queries,
    }


def emit(payload: dict) -> Path:
    """Archive the timings JSON next to the other benchmark artefacts."""
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "snapshot_persistence.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def _tiny_kwargs() -> dict:
    """A seconds-long smoke configuration (correctness, not speed)."""
    return {"cardinality": 600, "dimensionality": 3, "queries": 4}


def test_snapshot_persistence_speedup() -> None:
    """Restored-cache serving must beat cold recomputation >= 3x."""
    payload = run_comparison()
    emit(payload)
    assert payload["warm_speedup"] >= REQUIRED_SPEEDUP, (
        f"warm speedup {payload['warm_speedup']:.2f}x is below the required "
        f"{REQUIRED_SPEEDUP:.1f}x (cold {payload['cold_seconds']:.3f}s, "
        f"warm {payload['warm_seconds']:.3f}s)"
    )


def test_snapshot_roundtrip_tiny() -> None:
    """Smoke: the restored engine serves identical answers as cache hits."""
    payload = run_comparison(**_tiny_kwargs())
    assert payload["identical_results"]
    assert payload["warm_hits"] == payload["queries"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="seconds-long smoke run")
    arguments = parser.parse_args(argv)

    payload = run_comparison(**(_tiny_kwargs() if arguments.tiny else {}))
    target = emit(payload)
    print(json.dumps(payload, indent=2))
    print(
        f"\ncold {payload['cold_seconds']:.3f}s -> warm {payload['warm_seconds']:.3f}s "
        f"({payload['warm_speedup']:.2f}x); commit {payload['commit_seconds']:.3f}s, "
        f"restore {payload['restore_seconds']:.3f}s, "
        f"store {payload['store_bytes'] / 1024:.1f} KiB; JSON written to {target}"
    )
    if arguments.tiny:
        print("tiny smoke mode: speedup bar not enforced")
        return 0
    if payload["warm_speedup"] < REQUIRED_SPEEDUP:
        print(f"FAIL: warm speedup below {REQUIRED_SPEEDUP:.1f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
