"""Metric names, units, and how each is computed from one run.

End-to-end metrics come from an untraced run's closed loop; per-layer
metrics from a traced run's spans, the engines' own counters
(:meth:`repro.engine.Engine.metrics`), the live tier's registry and the
serving tier's registry.  Names the program's observability catalogue
already has (``engine.result_cache.hits``, ``live.repairs.total``,
``query.lp.feasibility_calls`` ...) are used unchanged; new timed names
follow ``<layer>.<what>.seconds``.
"""

from __future__ import annotations

import re
import resource
import statistics
import threading

from .instrument import SpanRecord

__all__ = ["END_TO_END", "PER_LAYER", "NAME_PATTERN", "end_to_end", "session_counters", "per_layer"]

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_s.p50": "s",
    "queries_per_s": "1/s",
    "update_s.p50": "s",
    "updates_per_s": "1/s",
    "delta_s.p50": "s",
}

PER_LAYER = {
    # index
    "index.dominance.seconds": "s",
    "index.rtree.seconds": "s",
    "index.skyline.seconds": "s",
    "index.skyline.calls": "count",
    "index.update.seconds": "s",
    # engine
    "engine.prepare.seconds": "s",
    "engine.prepared.builds": "count",
    "engine.prepared.reuses": "count",
    "engine.result_cache.hits": "count",
    "engine.result_cache.misses": "count",
    "engine.result_cache.hit_ratio": "ratio",
    "engine.result_cache.invalidated": "count",
    # geometry
    "lp.feasibility.seconds": "s",
    "query.lp.feasibility_calls": "count",
    "lp.bounds.seconds": "s",
    "query.lp.optimize_calls": "count",
    "lp.seconds_per_call": "s",
    "geometry.hyperplanes.seconds": "s",
    "geometry.hyperplanes.count": "count",
    "query.finalize.seconds": "s",
    # core
    "celltree.insert.self_seconds": "s",
    "query.celltree.nodes": "count",
    "bounds.evaluate.self_seconds": "s",
    "bounds.evaluate.calls": "count",
    "query.celltree.pruned_by_bounds": "count",
    "bounds.prune_ratio": "ratio",
    # approx
    "approx.classify.seconds": "s",
    "approx.samples": "count",
    # live
    "live.classify.seconds": "s",
    "live.repair.seconds": "s",
    "live.repairs.total": "count",
    "live.carried_forward.total": "count",
    "live.carry_ratio": "ratio",
    # serve
    "serve.admission.seconds": "s",
    "serve.frame.seconds": "s",
    "serve.handler.seconds": "s",
    "serve.wait.seconds": "s",
    "serve.rejected.total": "count",
    # the traced run itself
    "trace.query_s.p50": "s",
    "trace.attributed_share": "ratio",
    "trace.spans": "count",
}

#: Spans that only contain other layers: time left in them is unattributed.
OPAQUE_SPANS = ("api.query", "engine.query", "engine.execute")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_seconds: list[float], sample, peak_mb: float) -> dict[str, float]:
    """The user-visible numbers of one untraced run."""
    elapsed = sample.elapsed
    return {
        "setup_s": _median(setup_seconds),
        "peak_rss_mb": peak_mb,
        "query_s.p50": _median(sample.query_seconds),
        "queries_per_s": len(sample.query_seconds) / elapsed,
        "update_s.p50": _median(sample.update_seconds),
        "updates_per_s": sample.update_ops / elapsed,
        "delta_s.p50": _median(sample.delta_seconds),
    }


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1))."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))] if ordered else 0.0


def session_counters(engines, serve_registry) -> dict[str, float]:
    """The program's own counters for one session, read before teardown."""
    totals: dict[str, float] = {}
    snapshots = [engine.metrics() for engine in engines]
    # ``engine.live`` creates the session on first use; every workload
    # registers standing queries, so this only reads an existing one.
    snapshots += [engine.live.registry.snapshot() for engine in engines]
    if serve_registry is not None:
        snapshots.append(serve_registry.snapshot())
    for snapshot in snapshots:
        for name, value in snapshot.items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def per_layer(spans: list[SpanRecord], results, counters: dict[str, float], sample) -> dict[str, float]:
    """The per-layer numbers of one traced run.

    ``spans`` are nested (:func:`~perfbench.instrument.nest`), ``results``
    are the distinct answers the engine returned, ``counters`` the summed
    :func:`session_counters`.
    """
    seconds: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    for span in spans:
        seconds[span.name] = seconds.get(span.name, 0.0) + span.duration
        self_seconds[span.name] = self_seconds.get(span.name, 0.0) + span.self_time
        calls[span.name] = calls.get(span.name, 0) + 1
        items[span.name] = items.get(span.name, 0) + span.items

    lp_feasibility = lp_optimize = nodes = pruned = samples = 0
    for result in results:
        stats = result.stats
        lp_feasibility += stats.lp.feasibility_calls
        lp_optimize += stats.lp.optimize_calls
        nodes += stats.celltree_nodes
        pruned += stats.cells_pruned_by_bounds
        samples += getattr(result, "samples", 0)

    hits = counters.get("engine.result_cache.hits", 0.0)
    misses = counters.get("engine.result_cache.misses", 0.0)
    repairs = counters.get("live.repairs.total", 0.0)
    carried = counters.get("live.carried_forward.total", 0.0)
    lp_calls = calls.get("lp.feasibility", 0) + calls.get("lp.bounds", 0)
    lp_seconds = seconds.get("lp.feasibility", 0.0) + seconds.get("lp.bounds", 0.0)
    evaluations = calls.get("bounds.evaluate", 0)

    # serve.wait: handler busy time not spent inside the engine query it
    # awaited.  Those queries are the engine roots on the worker pool.
    main = threading.main_thread().ident
    pool_queries = sum(
        span.duration for span in spans
        if span.name == "api.query" and span.parent_id is None and span.thread != main
    )
    handler = seconds.get("serve.handler", 0.0)

    roots = [span for span in spans if span.name == "api.query" and span.parent_id is None]
    root_seconds = sum(span.duration for span in roots)
    opaque = sum(_opaque_self(span) for span in roots)

    rejected = sum(value for name, value in counters.items() if name.startswith("serve.rejected."))

    return {
        "index.dominance.seconds": seconds.get("index.dominance", 0.0),
        "index.rtree.seconds": seconds.get("index.rtree", 0.0),
        "index.skyline.seconds": seconds.get("index.skyline", 0.0),
        "index.skyline.calls": calls.get("index.skyline", 0),
        "index.update.seconds": seconds.get("index.update", 0.0),
        "engine.prepare.seconds": seconds.get("engine.prepare", 0.0),
        "engine.prepared.builds": counters.get("engine.prepared.builds", 0.0),
        "engine.prepared.reuses": counters.get("engine.prepared.reuses", 0.0),
        "engine.result_cache.hits": hits,
        "engine.result_cache.misses": misses,
        "engine.result_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.result_cache.invalidated": counters.get("engine.result_cache.invalidated", 0.0),
        "lp.feasibility.seconds": seconds.get("lp.feasibility", 0.0),
        "query.lp.feasibility_calls": lp_feasibility,
        "lp.bounds.seconds": seconds.get("lp.bounds", 0.0),
        "query.lp.optimize_calls": lp_optimize,
        "lp.seconds_per_call": lp_seconds / lp_calls if lp_calls else 0.0,
        "geometry.hyperplanes.seconds": seconds.get("geometry.hyperplanes", 0.0),
        "geometry.hyperplanes.count": items.get("geometry.hyperplanes", 0),
        "query.finalize.seconds": seconds.get("query.finalize", 0.0),
        "celltree.insert.self_seconds": self_seconds.get("celltree.insert", 0.0),
        "query.celltree.nodes": nodes,
        "bounds.evaluate.self_seconds": self_seconds.get("bounds.evaluate", 0.0),
        "bounds.evaluate.calls": evaluations,
        "query.celltree.pruned_by_bounds": pruned,
        "bounds.prune_ratio": pruned / evaluations if evaluations else 0.0,
        "approx.classify.seconds": seconds.get("approx.classify", 0.0),
        "approx.samples": samples,
        "live.classify.seconds": seconds.get("live.classify", 0.0),
        # live.repair spans are stamped after the repair with its duration.
        "live.repair.seconds": sum(
            span.fields.get("seconds", 0.0) for span in spans
            if span.name == "live.repair" and span.fields.get("kind") == "repair"
        ),
        "live.repairs.total": repairs,
        "live.carried_forward.total": carried,
        "live.carry_ratio": carried / (repairs + carried) if repairs + carried else 0.0,
        "serve.admission.seconds": seconds.get("serve.admission", 0.0),
        "serve.frame.seconds": seconds.get("serve.frame", 0.0),
        "serve.handler.seconds": handler,
        "serve.wait.seconds": max(handler - pool_queries, 0.0),
        "serve.rejected.total": rejected,
        "trace.query_s.p50": _median(sample.query_seconds),
        "trace.attributed_share": 1.0 - opaque / root_seconds if root_seconds else 0.0,
        "trace.spans": len(spans),
    }


def _opaque_self(span: SpanRecord) -> float:
    """Self time of the container spans in ``span``'s subtree."""
    total = span.self_time if span.name in OPAQUE_SPANS else 0.0
    return total + sum(_opaque_self(child) for child in span.children)
