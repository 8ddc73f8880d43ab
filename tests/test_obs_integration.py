"""Integration tests: tracing/metrics threaded through the whole stack.

Asserts the cross-cutting observability contracts:

- :meth:`Engine.profile` span structure is byte-identical across repeated
  runs and across ``workers=1`` vs ``workers=4``;
- the LP constraint-count histogram merged from parallel shards equals the
  serial run's (fixed buckets make the merge exact);
- :meth:`Engine.metrics` is the canonical view over the engine's counters
  (the legacy ``stats`` fields and the caches' own counters);
- engine stats deltas under cache hits, prepared reuse and stream resume;
- ``cpu_seconds`` is genuinely measured (not a copy of the wall clock).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Engine, Tracer, explain, use_tracer
from repro.data import independent_dataset
from repro.experiments import MeasuredRun
from repro.obs import LP_CONSTRAINTS, MetricsRegistry, use_registry


@pytest.fixture
def engine_dataset():
    return independent_dataset(400, 3, seed=31)


@pytest.fixture
def engine(engine_dataset):
    return Engine(engine_dataset, method="cta", k_max=8)


#: A focal that is competitive (few dominators) so queries do real work.
FOCAL = np.array([0.85, 0.8, 0.9])


# --------------------------------------------------------------------------- #
# profile determinism
# --------------------------------------------------------------------------- #
class TestProfileDeterminism:
    def test_structure_identical_across_repeated_runs(self, engine):
        first = engine.profile(FOCAL, 5, method="cta")
        second = engine.profile(FOCAL, 5, method="cta")
        assert first.structure() == second.structure()
        assert first.structure()  # non-empty

    def test_structure_identical_across_worker_counts(self, engine):
        serial = engine.profile(FOCAL, 5, method="cta", workers=1)
        sharded = engine.profile(FOCAL, 5, method="cta", workers=4)
        assert serial.structure() == sharded.structure()

    def test_deterministic_counters_identical_across_worker_counts(self, engine):
        serial = engine.profile(FOCAL, 5, method="cta", workers=1)
        sharded = engine.profile(FOCAL, 5, method="cta", workers=4)

        def execute_attrs(profile):
            spans = [s for s in profile.tracer.spans if s.name == "engine.execute"]
            assert len(spans) == 1
            return spans[0].attributes

        assert execute_attrs(serial) == execute_attrs(sharded)
        assert len(serial.result) == len(sharded.result)

    def test_profile_bypasses_result_cache(self, engine):
        engine.query(FOCAL, 5, method="cta")  # warm the cache
        hits_before = engine.metrics()["engine.result_cache.hits"]
        profile = engine.profile(FOCAL, 5, method="cta")
        assert engine.metrics()["engine.result_cache.hits"] == hits_before
        lookups = [s for s in profile.tracer.spans if s.name == "engine.cache.lookup"]
        assert lookups[0].attributes == {"bypassed": True, "outcome": "miss"}

    def test_profile_spans_nest_core_under_engine(self, engine):
        profile = engine.profile(FOCAL, 5, method="cta")
        by_name = {span.name: span for span in profile.tracer.spans}
        root = by_name["engine.query"]
        assert root.parent_id is None
        assert by_name["engine.prepare"].parent_id == root.span_id
        execute = by_name["engine.execute"]
        assert execute.parent_id == root.span_id
        assert by_name["query.prepare"].parent_id == execute.span_id
        assert by_name["query.finalize"].parent_id == execute.span_id

    def test_parallel_run_records_detail_shard_spans(self, engine):
        profile = engine.profile(FOCAL, 5, method="cta", workers=4)
        shards = [s for s in profile.tracer.spans if s.name == "parallel.shard"]
        assert shards, "sharded execution must record per-shard detail spans"
        assert all(span.detail for span in shards)
        assert "parallel.shard" not in profile.structure()
        # Shard spans surface in deterministic (commit) order.
        order = [span.attributes["shard"] for span in shards]
        assert order == sorted(order)

    def test_lp_histogram_populated_and_render_sections(self, engine):
        profile = engine.profile(FOCAL, 5, method="lpcta")
        histogram = profile.registry.histogram(LP_CONSTRAINTS)
        assert histogram.total == profile.result.stats.lp.total_calls
        text = profile.render()
        assert "SPAN TREE" in text
        assert "LP CONSTRAINT HISTOGRAM" in text
        assert "COUNTERS" in text

    def test_profile_as_dict_is_complete(self, engine):
        profile = engine.profile(FOCAL, 5, method="cta")
        payload = profile.as_dict()
        assert payload["structure"] == profile.structure()
        assert payload["regions"] == len(profile.result)
        assert payload["metrics"]["query.regions"] == len(profile.result)
        assert len(payload["spans"]) == len(profile.tracer.spans)

    def test_approx_profile_records_sampler_trajectory(self):
        dataset = independent_dataset(2000, 3, seed=5)
        engine = Engine(dataset, method="cta")
        spec = {"epsilon": 0.05, "delta": 0.05, "seed": 9, "adaptive": True}
        profile = engine.profile(FOCAL, 5, approx=spec)
        sample_spans = [s for s in profile.tracer.spans if s.name == "approx.sample"]
        assert len(sample_spans) == 1
        attrs = sample_spans[0].attributes
        assert attrs["adaptive"] is True
        assert attrs["looks"] >= 1
        looks = profile._sampler_trajectory()
        assert len(looks) == attrs["looks"]
        assert all(fields["lower"] <= fields["upper"] for fields in looks)
        assert "SAMPLER CI TRAJECTORY" in profile.render()
        # Chunk substreams make the sampled counters worker-count-invariant.
        again = engine.profile(FOCAL, 5, approx=spec, workers=4)
        assert again.structure() == profile.structure()

    def test_explain_works_without_a_tracer(self, engine):
        result = engine.query(FOCAL, 5, method="cta")
        report = explain(result)
        assert report.structure() == ""
        assert "QUERY PROFILE" in report.render()
        assert report.as_dict()["metrics"]["query.regions"] == len(result)


# --------------------------------------------------------------------------- #
# the LP histogram parallel merge
# --------------------------------------------------------------------------- #
def test_shard_merged_histogram_uses_fixed_buckets(engine_dataset):
    """Parallel shard histograms merge exactly (same fixed bucket bounds)."""
    engine = Engine(engine_dataset, method="cta", k_max=8)
    registry = MetricsRegistry()
    with use_registry(registry):
        engine.query(FOCAL, 5, method="cta", workers=4, use_cache=False)
    histogram = registry.histogram(LP_CONSTRAINTS)
    # Probes ran inside worker subprocesses or in-process shards; either way
    # every observation lands exactly once in the driver's registry.
    assert histogram.total > 0
    assert sum(histogram.counts) == histogram.total


# --------------------------------------------------------------------------- #
# canonical engine metrics
# --------------------------------------------------------------------------- #
class TestEngineMetrics:
    def test_metrics_mirror_legacy_accessors(self, engine):
        engine.query(FOCAL, 5, method="cta")
        engine.query(FOCAL, 5, method="cta")  # cache hit
        metrics = engine.metrics()
        stats = engine.stats
        assert metrics["engine.queries"] == stats.queries
        assert metrics["engine.queries.cold"] == stats.cold_queries
        assert metrics["engine.result_cache.hits"] == stats.cache_hits == 1
        assert metrics["engine.result_cache.misses"] == 1
        assert metrics["engine.result_cache.entries"] == 1
        assert metrics["engine.prepared.builds"] == stats.prepared_builds == 1
        assert metrics["engine.prepared.reuses"] == stats.prepared_reuses == 0
        assert metrics["engine.prepared.entries"] == 1
        assert metrics["engine.partial_store.entries"] == 0
        assert metrics["engine.partial_store.saved"] == stats.partials_saved == 0
        assert metrics["engine.seconds.cold"] == stats.cold_seconds

    def test_each_number_has_one_canonical_name(self, engine):
        engine.query(FOCAL, 5, method="cta")
        names = set(engine.metrics())
        # No legacy flat spellings leak into the canonical snapshot.
        assert not names & {"queries", "cache_hits", "hits", "size", "saves"}
        assert all("." in name for name in names)

    def test_metrics_registry_exports_to_prometheus(self, engine):
        from repro.obs import parse_prometheus, registry_to_prometheus

        engine.query(FOCAL, 5, method="cta")
        text = registry_to_prometheus(engine.metrics_registry())
        samples = parse_prometheus(text)
        assert samples["repro_engine_queries"] == engine.stats.queries


# --------------------------------------------------------------------------- #
# stats-delta semantics
# --------------------------------------------------------------------------- #
class TestStatsDeltas:
    def test_cache_hit_deltas(self, engine):
        before = engine.metrics()
        engine.query(FOCAL, 5, method="cta")
        engine.query(FOCAL, 5, method="cta")
        after = engine.metrics()
        assert after["engine.queries"] - before["engine.queries"] == 2
        assert after["engine.queries.cold"] - before["engine.queries.cold"] == 1
        assert (
            after["engine.result_cache.hits"] - before["engine.result_cache.hits"] == 1
        )

    def test_prepared_focal_reused_twice(self, engine):
        """Three queries on one (focal, k): one build, two reuses."""
        before = engine.metrics()
        engine.query(FOCAL, 5, method="cta")
        engine.query(FOCAL, 5, method="pcta")  # different method: same prepared state
        engine.query(FOCAL, 5, method="lpcta")
        after = engine.metrics()
        assert after["engine.prepared.builds"] - before["engine.prepared.builds"] == 1
        assert after["engine.prepared.reuses"] - before["engine.prepared.reuses"] == 2
        assert after["engine.queries.cold"] - before["engine.queries.cold"] == 3

    def test_stream_pause_resume_deltas(self, engine):
        before = engine.metrics()
        # deadline=0 exhausts the budget before the first tick: the stream
        # pauses immediately and checkpoints its (not-yet-started) state.
        truncated = list(engine.query_stream(FOCAL, 5, deadline=0.0))
        assert not truncated or not truncated[-1].done
        mid = engine.metrics()
        assert mid["engine.stream.queries"] - before["engine.stream.queries"] == 1
        assert mid["engine.partial_store.saved"] - before["engine.partial_store.saved"] == 1
        assert mid["engine.stream.resumes"] == before["engine.stream.resumes"]

        finished = list(engine.query_stream(FOCAL, 5))
        assert finished[-1].done
        after = engine.metrics()
        assert after["engine.stream.resumes"] - mid["engine.stream.resumes"] == 1
        assert after["engine.partial_store.resumes"] - mid["engine.partial_store.resumes"] == 1
        assert after["engine.queries.cold"] - mid["engine.queries.cold"] == 1

    def test_stream_trace_marks_pause_and_resume(self, engine):
        tracer = Tracer()
        with use_tracer(tracer):
            list(engine.query_stream(FOCAL, 5, deadline=0.0))
            list(engine.query_stream(FOCAL, 5))
        checkouts = [s for s in tracer.spans if s.name == "engine.stream.checkout"]
        assert [s.attributes["outcome"] for s in checkouts] == ["cold", "resume"]
        advances = [s for s in tracer.spans if s.name == "stream.advance"]
        assert [s.attributes["resumed"] for s in advances] == [False, True]
        assert any(e.name == "stream.pause" for e in advances[0].events)
        assert any(e.name == "stream.resume" for e in advances[1].events)
        assert any(s.name == "engine.stream.checkpoint" for s in tracer.spans)


# --------------------------------------------------------------------------- #
# cpu_seconds and the MeasuredRun view
# --------------------------------------------------------------------------- #
class TestCpuSeconds:
    def test_cpu_seconds_measured_not_copied(self, engine):
        result = engine.query(FOCAL, 5, method="cta")
        stats = result.stats
        assert stats.cpu_seconds > 0.0
        assert stats.cpu_seconds != stats.response_seconds

    def test_measured_run_reads_real_cpu_seconds(self, engine):
        result = engine.query(FOCAL, 6, method="cta")
        run = MeasuredRun.from_result("cta", result)
        assert run.metrics["cpu_seconds"] == result.stats.cpu_seconds
        assert run.metrics["response_seconds"] == result.stats.response_seconds

    def test_measured_run_is_view_over_registry(self, engine):
        result = engine.query(FOCAL, 6, method="lpcta")
        run = MeasuredRun.from_result("lpcta", result)
        snapshot = run.as_registry().snapshot()
        assert snapshot["query.seconds.response"] == run.metrics["response_seconds"]
        assert snapshot["query.seconds.cpu"] == run.metrics["cpu_seconds"]
        assert snapshot["query.processed_records"] == run.metrics["processed_records"]
        # Derived quantities without a canonical alias pass through unchanged.
        assert snapshot["space_mb"] == run.metrics["space_mb"]

    def test_approx_result_reports_cpu_seconds(self):
        dataset = independent_dataset(1500, 3, seed=77)
        engine = Engine(dataset, method="cta")
        result = engine.query(FOCAL, 5, approx={"epsilon": 0.05, "seed": 3})
        assert result.stats.cpu_seconds > 0.0


# --------------------------------------------------------------------------- #
# disabled-by-default guarantees
# --------------------------------------------------------------------------- #
class TestDisabledDefaults:
    def test_queries_record_nothing_without_tracer(self, engine):
        engine.query(FOCAL, 5, method="cta")
        from repro.obs import NULL_TRACER

        assert NULL_TRACER.spans == []

    def test_query_results_identical_with_and_without_tracing(
        self, engine_dataset, results_identical
    ):
        plain_engine = Engine(engine_dataset, method="cta", k_max=8)
        traced_engine = Engine(engine_dataset, method="cta", k_max=8)
        plain = plain_engine.query(FOCAL, 5, method="cta")
        profile = traced_engine.profile(FOCAL, 5, method="cta")
        results_identical(plain, profile.result)
