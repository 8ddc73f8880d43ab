"""Unit tests for the observability layer (:mod:`repro.obs`).

Covers the tracer/span model (nesting, payload channels, the no-op default),
the unified metrics registry (canonical names, exact histogram merges), and
the three exporters with their schema-validating parsers.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs import (
    DEFAULT_LP_BUCKETS,
    LP_CONSTRAINTS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Tracer,
    active_registry,
    current_tracer,
    parse_prometheus,
    parse_trace_jsonl,
    registry_to_prometheus,
    stats_to_registry,
    trace_to_chrome,
    trace_to_jsonl,
    traced,
    use_registry,
    use_tracer,
)
from repro.obs.trace import _NULL_SPAN


# --------------------------------------------------------------------------- #
# tracer / spans
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_nesting_follows_context(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grand:
                    pass
            with tracer.span("sibling") as sib:
                pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        assert sib.parent_id == root.span_id

    def test_span_ids_sequential_in_creation_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [span.span_id for span in tracer.spans] == [0, 1]

    def test_attributes_vs_volatile_vs_events(self):
        tracer = Tracer()
        with tracer.span("work", k=3) as span:
            span.set(records=10)
            span.note(seconds=0.25)
            span.event("progress", done=5)
        assert span.attributes == {"k": 3, "records": 10}
        assert span.volatile == {"seconds": 0.25}
        assert [event.name for event in span.events] == ["progress"]
        assert span.events[0].fields == {"done": 5}
        assert span.events[0].elapsed >= 0.0

    def test_structure_renders_attributes_only(self):
        tracer = Tracer()
        with tracer.span("root", k=3) as root:
            root.note(seconds=1.23)
            with tracer.span("child", records=7):
                pass
        text = tracer.structure()
        assert text == "root [k=3]\n  child [records=7]"
        assert "seconds" not in text

    def test_structure_skips_detail_spans_and_descendants(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("shard", detail=True):
                with tracer.span("inner"):
                    pass
            with tracer.span("kept"):
                pass
        assert tracer.structure() == "root\n  kept"

    def test_tracer_event_attaches_to_active_span(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            tracer.event("mark", n=1)
        assert [event.name for event in root.events] == ["mark"]
        tracer.event("orphan")  # no active span: silently dropped
        assert all(
            event.name != "orphan" for span in tracer.spans for event in span.events
        )

    def test_finish_is_idempotent_and_duration_monotonic(self):
        tracer = Tracer()
        span = tracer.span("solo")
        assert span.duration >= 0.0
        span.finish()
        first_end = span.end
        span.finish()
        assert span.end == first_end

    def test_clear_resets_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans == []
        with tracer.span("b") as span:
            pass
        assert span.span_id == 0

    def test_thread_safety_of_span_allocation(self):
        tracer = Tracer()

        def work():
            for _ in range(50):
                with tracer.span("w"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = [span.span_id for span in tracer.spans]
        assert sorted(ids) == list(range(200))

    def test_current_tracer_defaults_to_null(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_use_tracer_scopes_installation(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_null_tracer_hands_out_shared_noop_span(self):
        null = NullTracer()
        span = null.span("anything", k=5)
        assert span is _NULL_SPAN
        with span as inner:
            inner.set(a=1).note(b=2)
            inner.event("x")
        assert span.duration == 0.0
        assert null.spans == []
        null.event("dropped")

    def test_traced_decorator_uses_call_time_tracer(self):
        @traced("helper", kind="test")
        def helper(x):
            return x + 1

        assert helper(1) == 2  # under NULL_TRACER: no spans recorded
        tracer = Tracer()
        with use_tracer(tracer):
            assert helper(2) == 3
        assert [span.name for span in tracer.spans] == ["helper"]
        assert tracer.spans[0].attributes == {"kind": "test"}


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_merge_last_writer_wins(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        other = Gauge("g")
        other.set(7.0)
        gauge.merge(other)
        assert gauge.value == 7.0

    def test_histogram_buckets_and_merge_exactness(self):
        first = Histogram("h")
        second = Histogram("h")
        values = [1, 2, 3, 100, 5000]
        for value in values[:3]:
            first.observe(value)
        for value in values[3:]:
            second.observe(value)
        merged = Histogram("h")
        merged.merge(first)
        merged.merge(second)
        serial = Histogram("h")
        for value in values:
            serial.observe(value)
        assert merged.counts == serial.counts
        assert merged.total == serial.total == len(values)
        assert merged.sum == serial.sum == sum(values)

    def test_histogram_merge_counts_matches_merge(self):
        local = Histogram("h")
        for value in (3, 9, 200):
            local.observe(value)
        driver = Histogram("h")
        driver.merge_counts(list(local.counts), local.total, local.sum)
        assert driver.counts == local.counts
        assert driver.total == local.total

    def test_histogram_rejects_bad_bounds_and_mismatched_merge(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1, 2, 3))  # missing +inf
        with pytest.raises(ValueError):
            Histogram("h", bounds=(4, 2, math.inf))  # unsorted
        small = Histogram("h", bounds=(1, math.inf))
        with pytest.raises(ValueError):
            Histogram("h").merge(small)
        with pytest.raises(ValueError):
            Histogram("h").merge_counts([1], 1, 1.0)

    def test_default_lp_buckets_end_with_inf(self):
        assert DEFAULT_LP_BUCKETS[-1] == math.inf
        assert list(DEFAULT_LP_BUCKETS) == sorted(DEFAULT_LP_BUCKETS)

    def test_registry_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_registry_merge_is_exact(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        b.histogram(LP_CONSTRAINTS).observe(7)
        # A histogram new to ``a`` keeps its own (non-default) bounds.
        b.histogram("h", bounds=(1, 2, math.inf)).observe(2)
        a.merge(b)
        snap = a.snapshot()
        assert snap["n"] == 5
        assert snap[f"{LP_CONSTRAINTS}.count"] == 1
        assert (snap["h.bucket.1"], snap["h.bucket.2"], snap["h.count"]) == (0, 1, 1)

    def test_snapshot_expands_histograms_cumulatively(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1, 2, math.inf))
        hist.observe(1)
        hist.observe(2)
        hist.observe(99)
        snap = registry.snapshot()
        assert snap["h.bucket.1"] == 1
        assert snap["h.bucket.2"] == 2
        assert snap["h.bucket.inf"] == 3
        assert snap["h.count"] == 3
        assert snap["h.sum"] == 102

    def test_active_registry_contextvar(self):
        assert active_registry() is None
        registry = MetricsRegistry()
        with use_registry(registry):
            assert active_registry() is registry
        assert active_registry() is None

    def test_stats_to_registry_lifts_query_stats(self, small_ind_dataset):
        from repro import kspr

        result = kspr(small_ind_dataset, focal=small_ind_dataset.values[0], k=3)
        registry = stats_to_registry(result.stats, regions=len(result))
        snap = registry.snapshot()
        assert snap["query.regions"] == len(result)
        assert snap["query.processed_records"] == result.stats.processed_records
        assert snap["query.seconds.response"] == result.stats.response_seconds
        assert snap["query.seconds.cpu"] == result.stats.cpu_seconds


# --------------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------------- #
def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("root", k=3) as root:
        root.note(seconds=0.5)
        root.event("mark", n=1)
        with tracer.span("child", detail=True):
            pass
    return tracer


class TestExporters:
    def test_jsonl_round_trip(self):
        tracer = _sample_tracer()
        text = trace_to_jsonl(tracer)
        records = parse_trace_jsonl(text)
        assert [record["name"] for record in records] == ["root", "child"]
        assert records[0]["attributes"] == {"k": 3}
        assert records[0]["volatile"] == {"seconds": 0.5}
        assert records[1]["detail"] is True
        assert records[1]["parent_id"] == records[0]["span_id"]
        # Round-trip is lossless: re-serialising the parsed records gives
        # byte-identical JSON lines.
        again = "\n".join(json.dumps(r, sort_keys=True) for r in records)
        assert again == text

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"span_id": 0}',  # missing keys
            json.dumps(
                {
                    "span_id": "zero", "parent_id": None, "name": "x",
                    "detail": False, "start": 0.0, "end": None,
                    "attributes": {}, "volatile": {}, "events": [],
                }
            ),  # wrong type
            json.dumps(
                {
                    "span_id": 1, "parent_id": 99, "name": "x",
                    "detail": False, "start": 0.0, "end": None,
                    "attributes": {}, "volatile": {}, "events": [],
                }
            ),  # dangling parent
        ],
    )
    def test_jsonl_parser_rejects_malformed(self, line):
        with pytest.raises(ValueError):
            parse_trace_jsonl(line)

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("engine.queries", help="Total queries").inc(11)
        registry.gauge("engine.result_cache.entries").set(4)
        hist = registry.histogram(LP_CONSTRAINTS)
        hist.observe(3)
        hist.observe(700)
        text = registry_to_prometheus(registry)
        samples = parse_prometheus(text)
        assert samples["repro_engine_queries"] == 11
        assert samples["repro_engine_result_cache_entries"] == 4
        assert samples['repro_query_lp_constraints_bucket{le="+Inf"}'] == 2
        assert samples["repro_query_lp_constraints_count"] == 2
        assert samples["repro_query_lp_constraints_sum"] == 703
        # Buckets are cumulative: every bucket ≤ the +Inf bucket.
        buckets = [
            value for key, value in samples.items()
            if key.startswith("repro_query_lp_constraints_bucket")
        ]
        assert max(buckets) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "repro_x{ 1",  # malformed sample
            "# TYPE repro_x summary\nrepro_x 1",  # unknown type
            "# TYPE repro_x counter\nrepro_x one",  # bad value
            "# TYPE repro_x counter\nrepro_x 1\nrepro_x 2",  # duplicate
            "repro_x 1",  # no TYPE comments at all
        ],
    )
    def test_prometheus_parser_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_chrome_trace_format(self):
        tracer = _sample_tracer()
        doc = trace_to_chrome(tracer, pid=7)
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in complete] == ["root", "child"]
        assert [e["name"] for e in instants] == ["mark"]
        assert all(e["pid"] == 7 for e in doc["traceEvents"])
        assert complete[0]["dur"] >= 0
        json.dumps(doc)  # the whole document is JSON-serialisable
