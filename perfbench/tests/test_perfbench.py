"""Tests of the benchmark itself: inputs, tracing tools, metric names, runs.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import BatchShape, UpdateStream  # noqa: E402
from perfbench.instrument import Instrumentation, Recorder, SpanRecord, Target, nest  # noqa: E402
from perfbench.metrics import END_TO_END, NAME_PATTERN, PER_LAYER  # noqa: E402
from perfbench.report import load, table  # noqa: E402
from perfbench.workloads import WORKLOADS, ExactCold, ServeLive  # noqa: E402

#: Names fixed when the benchmark was defined; later changes cite them.
FIXED_END_TO_END = {
    "setup_s", "peak_rss_mb", "query_s.p50", "queries_per_s",
    "update_s.p50", "updates_per_s", "delta_s.p50",
}
FIXED_PER_LAYER = {
    "index.dominance.seconds", "index.rtree.seconds", "index.skyline.seconds",
    "index.skyline.calls", "index.update.seconds", "engine.prepare.seconds",
    "engine.prepared.builds", "engine.prepared.reuses", "engine.result_cache.hits",
    "engine.result_cache.misses", "engine.result_cache.hit_ratio",
    "engine.result_cache.invalidated", "lp.feasibility.seconds", "query.lp.feasibility_calls",
    "lp.bounds.seconds", "query.lp.optimize_calls", "lp.seconds_per_call",
    "geometry.hyperplanes.seconds", "geometry.hyperplanes.count", "query.finalize.seconds",
    "celltree.insert.self_seconds", "query.celltree.nodes", "bounds.evaluate.self_seconds",
    "bounds.evaluate.calls", "query.celltree.pruned_by_bounds", "bounds.prune_ratio",
    "approx.classify.seconds", "approx.samples", "live.classify.seconds",
    "live.repair.seconds", "live.repairs.total", "live.carried_forward.total",
    "live.carry_ratio", "serve.admission.seconds", "serve.frame.seconds",
    "serve.handler.seconds", "serve.wait.seconds", "serve.rejected.total",
}
#: Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = (
    "query.lp.feasibility_calls", "query.lp.optimize_calls", "engine.result_cache.hits",
    "engine.result_cache.misses", "live.repairs.total", "live.carried_forward.total",
    "query.celltree.nodes", "approx.samples",
)


# --------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------- #
def test_query_lists_are_deterministic_per_seed():
    sizes = ExactCold.Sizes().tiny()
    first, again, other = ExactCold(5, 0, sizes), ExactCold(5, 0, sizes), ExactCold(6, 0, sizes)
    assert len(first.queries) == len(again.queries) > 0
    for (i, focal, k), (j, focal_again, k_again) in zip(first.queries, again.queries):
        assert (i, k) == (j, k_again) and np.array_equal(focal, focal_again)
    assert any(not np.array_equal(a[1], b[1]) for a, b in zip(first.queries, other.queries))

    trace = ServeLive(5, 1, ServeLive.Sizes().tiny()).trace
    trace_again = ServeLive(5, 1, ServeLive.Sizes().tiny()).trace
    assert all(k == k2 and np.array_equal(f, f2) for (f, k), (f2, k2) in zip(trace, trace_again))


def _stream(seed: int) -> UpdateStream:
    values = np.random.default_rng(0).random((50, 3))
    return UpdateStream(
        rng=np.random.default_rng(seed), hot_focals=values[:2] + 1.0,
        pattern=[BatchShape(hot=1, cold=2, deletes=2), BatchShape(warm=2, deletes=1)],
        warm_pool=values[:10], cold_pool=values[10:], cold_ids=list(range(49, 9, -1)),
    )


def _drain(stream: UpdateStream, batches: int) -> list[tuple]:
    """Ops of ``batches`` batches, with ids assigned as an engine would."""
    next_id, seen = 1000, []
    for _ in range(batches):
        ops = stream.next_batch()
        assigned = []
        for op in ops:
            if op.op == "insert":
                assigned.append(next_id)
                next_id += 1
            seen.append((op.op, op.record_id, None if op.values is None else op.values.tobytes()))
        stream.applied(assigned)
    return seen


def test_update_streams_are_deterministic_and_delete_only_live_ids():
    ops = _drain(_stream(3), 12)
    assert ops == _drain(_stream(3), 12)
    assert ops != _drain(_stream(4), 12)
    # Every delete names a record that is live at that point.
    live = set(range(50))
    next_id = 1000
    for op, record_id, _values in ops:
        if op == "delete":
            assert record_id in live
            live.discard(record_id)
        else:
            live.add(next_id)
            next_id += 1


def test_hot_inserts_are_incomparable_with_their_focal():
    stream = _stream(9)
    for _ in range(20):
        values = stream._hot_values()
        focal = stream.hot_focals[(stream._hot_made - 1) % 2]
        assert np.any(values > focal) and np.any(values < focal)


# --------------------------------------------------------------------- #
# tracing tools
# --------------------------------------------------------------------- #
def _module():
    module = types.ModuleType("fake_layer")

    def work(x):
        return x + 1

    def boom():
        raise RuntimeError("wrapped call failed")

    module.work, module.boom = work, boom
    return module


def test_wrappers_restore_originals_when_a_wrapped_call_raises():
    module = _module()
    originals = (module.work, module.boom)
    targets = [Target(module, "work", "layer.work"), Target(module, "boom", "layer.boom")]
    with pytest.raises(RuntimeError):
        with Instrumentation(targets) as recorder:
            assert module.work is not originals[0]
            assert module.work(1) == 2
            module.boom()
    assert (module.work, module.boom) == originals
    names = sorted(span.name for span in recorder.spans())
    assert names == ["layer.boom", "layer.work"]


def test_installation_is_all_or_nothing():
    module = _module()
    original = module.work
    targets = [Target(module, "work", "layer.work"), Target(module, "missing", "layer.missing")]
    with pytest.raises(KeyError):
        with Instrumentation(targets):
            pass
    assert module.work is original


def test_class_methods_are_patched_on_the_class_and_restored():
    class Layer:
        def step(self):
            return "done"

    original = Layer.__dict__["step"]
    with Instrumentation([Target(Layer, "step", "layer.step")]) as recorder:
        assert Layer().step() == "done"
    assert Layer.__dict__["step"] is original
    assert [span.name for span in recorder.spans()] == ["layer.step"]


def test_spans_keep_per_thread_parents_under_concurrency():
    module = _module()
    outer_module = types.ModuleType("outer_layer")
    outer_module.outer = lambda: [module.work(i) for i in range(50)]
    targets = [Target(module, "work", "inner"), Target(outer_module, "outer", "outer")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Instrumentation(targets) as recorder:
            threads = [threading.Thread(target=outer_module.outer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    spans = recorder.spans()
    outers = {span.span_id: span for span in spans if span.name == "outer"}
    inners = [span for span in spans if span.name == "inner"]
    assert len(outers) == 4 and len(inners) == 200
    for span in inners:
        assert outers[span.parent_id].thread == span.thread


def test_nest_places_program_spans_and_computes_self_time():
    spans = [
        SpanRecord(1, None, "api.query", 1, 0.0, 10.0),
        SpanRecord(2, None, "engine.execute", 1, 1.0, 9.0),  # a program span
        SpanRecord(3, 1, "lp.feasibility", 1, 2.0, 5.0),
        SpanRecord(4, None, "live.repair", 1, 9.0, 9.0),  # zero-length, stamped after
        SpanRecord(5, None, "lp.feasibility", 2, 2.0, 3.0),  # another thread
    ]
    by_id = {span.span_id: span for span in nest(spans)}
    assert by_id[3].parent_id == 2 and by_id[2].parent_id == 1
    assert by_id[4].parent_id in (1, 2)
    assert by_id[5].parent_id is None
    assert by_id[1].self_time == pytest.approx(2.0)
    assert by_id[2].self_time == pytest.approx(5.0)


def test_recorder_keeps_each_result_once():
    recorder = Recorder()
    answer = object()
    recorder.keep(answer)
    recorder.keep(answer)
    assert recorder.results() == [answer]


# --------------------------------------------------------------------- #
# metric names
# --------------------------------------------------------------------- #
def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in [*END_TO_END, *PER_LAYER]:
        assert NAME_PATTERN.fullmatch(name), name
    assert {entry["name"] for entry in spec["end_to_end"]} == set(END_TO_END) == FIXED_END_TO_END
    assert {entry["name"] for entry in spec["per_layer"]} == set(PER_LAYER)
    assert FIXED_PER_LAYER <= set(PER_LAYER)
    assert {entry["name"] for entry in spec["workloads"]} == set(WORKLOADS)
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**END_TO_END, **PER_LAYER}


# --------------------------------------------------------------------- #
# tiny runs end to end
# --------------------------------------------------------------------- #
def _run(workload: str, trace: int, results: Path) -> dict:
    # Six seconds give every tiny session at least one update batch.
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "6", "--trace", str(trace), "--tiny", "--results", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_runs_pass_their_checks_and_counts_repeat(workload, tmp_path):
    results = tmp_path / "results.jsonl"
    untraced = _run(workload, 0, results)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == set(END_TO_END)
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())

    first, second = _run(workload, 1, results), _run(workload, 1, results)
    assert set(first["metrics"]) == set(PER_LAYER)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    traced_records = [record for record in load([results]) if record["stamp"]["trace"]]
    assert traced_records[0]["extra"].get("digest") == traced_records[1]["extra"].get("digest")
    spans = results.with_suffix(".spans.jsonl").read_text().splitlines()
    assert len(spans) == first["metrics"]["trace.spans"]["value"]

    rendered = table(load([results]))
    assert workload in rendered and "trace.overhead_s" in rendered


def test_traced_run_leaves_no_patched_function_behind(tmp_path):
    from repro.engine import Engine

    import perfbench.run as run

    original = Engine.__dict__["query"]
    metrics, _sample, failures, _digests = run.traced(
        ExactCold, 2, ExactCold.Sizes().tiny(), tmp_path / "spans.jsonl"
    )
    assert Engine.__dict__["query"] is original
    assert not failures and metrics["trace.spans"] > 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
