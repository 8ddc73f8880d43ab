"""Uniform metric records for the experiment harness.

Every algorithm run is summarised into a :class:`MeasuredRun`: a flat mapping
of the quantities the paper plots (response time, processed records, CellTree
nodes, LP calls, result size, space, simulated I/O).  Keeping the record flat
makes the report layer trivial and lets figures mix metrics freely.

Since the unified metrics registry (:mod:`repro.obs`) exists, a
``MeasuredRun`` is a *view* over canonical metrics rather than a fourth
naming scheme: :meth:`MeasuredRun.from_result` lifts the result's statistics
through :func:`~repro.obs.stats_to_registry` and reads the canonical
``query.*`` names back out.  The flat metric keys themselves are kept stable
(they are the column names of every committed benchmark JSON and figure
script).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.result import KSPRResult
from ..obs.metrics import stats_to_registry

__all__ = ["MeasuredRun"]

#: Seconds charged per simulated random page read (the paper's SSD figure).
SECONDS_PER_PAGE = 0.0002


@dataclass
class MeasuredRun:
    """Metrics of one (algorithm, configuration) execution."""

    method: str
    config: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_result(
        cls, method: str, result: KSPRResult, config: dict[str, Any] | None = None
    ) -> "MeasuredRun":
        """Build a record from a :class:`KSPRResult` and its statistics.

        The statistics pass through the canonical registry
        (:func:`~repro.obs.stats_to_registry`), so every value here is
        byte-equal to what the observability layer reports for the same run;
        only the derived quantities (simulated I/O seconds, megabytes) are
        computed locally.  ``cpu_seconds`` is the genuinely measured process
        CPU time, not a copy of the wall clock.
        """
        stats = result.stats
        snapshot = stats_to_registry(stats, regions=len(result)).snapshot()
        io_seconds = stats.io_seconds(SECONDS_PER_PAGE)
        metrics = {
            "response_seconds": snapshot["query.seconds.response"],
            "cpu_seconds": snapshot["query.seconds.cpu"],
            "io_seconds": io_seconds,
            "total_seconds_with_io": snapshot["query.seconds.response"] + io_seconds,
            "result_regions": float(snapshot["query.regions"]),
            "processed_records": float(snapshot["query.processed_records"]),
            "competitor_records": float(snapshot["query.competitor_records"]),
            "celltree_nodes": float(snapshot["query.celltree.nodes"]),
            "lp_calls": float(stats.lp.total_calls),
            "lp_constraints": float(snapshot["query.lp.total_constraints"]),
            "index_node_accesses": float(snapshot["query.index.node_accesses"]),
            "space_mb": snapshot["query.space_bytes"] / (1024.0 * 1024.0),
            "cells_reported_early": float(snapshot["query.celltree.reported_early"]),
            "cells_pruned_by_bounds": float(snapshot["query.celltree.pruned_by_bounds"]),
            "batches": float(snapshot["query.batches"]),
            "index_build_seconds": snapshot["query.seconds.index_build"],
        }
        return cls(method=method, config=dict(config or {}), metrics=metrics)

    def row(self, columns: list[str]) -> list[Any]:
        """Values for the requested columns (config keys first, then metrics)."""
        values: list[Any] = []
        for column in columns:
            if column == "method":
                values.append(self.method)
            elif column in self.config:
                values.append(self.config[column])
            else:
                values.append(self.metrics.get(column, float("nan")))
        return values
