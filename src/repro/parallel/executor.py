"""Process-pool execution of multi-query kSPR workloads (per-focal shards).

:class:`ShardedExecutor` spreads a batch of independent queries over worker
processes.  Each worker runs the engine's own cold-query steps: the options
go through :func:`~repro.core.query.canonical_options` (so two spellings of
one query are answered once), and the prepared state comes from
:func:`~repro.core.base.prepare_query` with the k-skyband ids taken from
precomputed dominator counts.  Every answer is therefore identical to what
:class:`repro.engine.Engine` (or a plain :func:`repro.kspr` call, with
pruning disabled) would produce for the same query.

The expensive O(n²) dominator-count pass is performed **once** in the parent
and shipped to the workers, instead of being recomputed per process.  Shards
are planned per focal record (see
:func:`~repro.parallel.shards.plan_focal_shards`) so prepared state is never
duplicated across workers.

Approximate specs (``method="sample"``, see :mod:`repro.approx`) are served
through the same path: the worker reuses the pruned focal partition (no
R-tree is built — the sampler never reads one) and the seeded chunk
substreams make the estimate identical to the serial run for every worker
count and shard plan.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

import numpy as np

from ..core.base import PreparedQuery, prepare_query
from ..core.query import canonical_options, query_space, resolve_method, validate_query
from ..engine.batch import BatchReport, QuerySpec, coerce_spec
from ..engine.cache import options_key
from ..index.dominance import dominated_counts
from ..records import Dataset, FocalPartition
from ..robust import Tolerance, resolve_tolerance
from .shards import plan_focal_shards, resolve_workers

__all__ = ["ShardedExecutor"]

#: Module-level state installed in every worker process by the initializer.
_WORKER_STATE: dict = {}


def _init_worker(
    values: np.ndarray,
    ids: np.ndarray,
    name: str,
    counts_by_id: dict[int, int] | None,
    settings: dict,
) -> None:
    """Install the shared dataset and settings in a worker process."""
    _WORKER_STATE["dataset"] = Dataset(values, ids=ids, name=name)
    _WORKER_STATE["counts_by_id"] = counts_by_id
    _WORKER_STATE["settings"] = settings


def _portable_error(error: Exception | None) -> Exception | None:
    """The original exception when it survives pickling, else a RuntimeError.

    Keeps error handling type-stable across worker counts: a query that
    raises :class:`~repro.exceptions.InvalidQueryError` surfaces that same
    exception type whether it ran in-process or in a worker.
    """
    if error is None:
        return None
    try:
        pickle.dumps(error)
        return error
    except Exception:  # noqa: BLE001 - unpicklable exotic exception
        return RuntimeError(repr(error))


def _serve_task(
    payload: tuple[list[tuple[int, list[float], int, str | None, tuple]], float | None],
) -> tuple[list[tuple[int, object, Exception | None, float, bool]], int, int]:
    """Worker entry point: answer a shard of queries against the shared state.

    The deadline travels as an absolute wall-clock epoch (``time.time()``,
    comparable across processes) anchored at ``run()`` start, so pool
    startup and state transfer are charged to the caller's budget instead of
    granting every worker a fresh allowance.
    """
    tasks, deadline_epoch = payload
    budget_seconds = None if deadline_epoch is None else max(0.0, deadline_epoch - time.time())
    dataset = _WORKER_STATE["dataset"]
    counts_by_id = _WORKER_STATE["counts_by_id"]
    settings = _WORKER_STATE["settings"]
    outcomes, hits, cold = _serve(dataset, counts_by_id, settings, tasks, budget_seconds)
    safe = []
    for index, result, error, seconds, skipped in outcomes:
        safe.append((index, result, _portable_error(error), seconds, skipped))
    return safe, hits, cold


def _serve(
    dataset: Dataset,
    counts_by_id: dict[int, int] | None,
    settings: dict,
    tasks: Iterable[tuple[int, Sequence[float], int, str | None, tuple]],
    budget_seconds: float | None = None,
) -> tuple[list[tuple[int, object, Exception | None, float, bool]], int, int]:
    """Answer queries sequentially, reusing per-focal prepared state.

    Calls the engine's cold-query steps rather than copying them:
    :func:`~repro.core.query.canonical_options` keys the per-worker result
    deduplication, and :func:`~repro.core.base.prepare_query` builds the
    prepared state, with the k-skyband ids derived from ``counts_by_id``
    (``None`` disables pruning).  Answers are hence identical to
    :meth:`repro.engine.Engine.query`.

    ``budget_seconds`` makes the serve loop deadline-aware: the budget is
    checked *between* queries (cooperative, per-query granularity — an
    in-flight query always completes), and queries past the deadline are
    returned as *skipped* rather than failed, preserving submission order so
    the served prefix of every shard is deterministic.
    """
    prepared_cache: dict[tuple, PreparedQuery] = {}
    #: (focal, band) -> pruned FocalPartition, shared between the exact and
    #: sampling prepared entries of one focal so the O(n d) partition pass
    #: and the k-skyband filter run once per focal even in mixed batches.
    partition_cache: dict[tuple, FocalPartition] = {}
    hyperplane_caches: dict[tuple, dict] = {}
    result_cache: dict[tuple, object] = {}
    outcomes: list[tuple[int, object, Exception | None, float, bool]] = []
    hits = 0
    cold = 0
    serve_start = time.perf_counter()
    for index, focal, k, method, option_items in tasks:
        if (
            budget_seconds is not None
            and time.perf_counter() - serve_start >= budget_seconds
        ):
            outcomes.append((index, None, None, 0.0, True))
            continue
        start = time.perf_counter()
        try:
            method_name, method_func = resolve_method(method or settings["method"])
            focal_array = validate_query(dataset, np.asarray(focal, dtype=float), int(k))
            options = canonical_options(dict(option_items), method_name, settings["tolerance"])
            qkey = (focal_array.tobytes(), int(k), method_name, options_key(options))
            cached = result_cache.get(qkey)
            if cached is not None:
                hits += 1
                outcomes.append((index, cached, None, time.perf_counter() - start, False))
                continue

            pruned = (
                counts_by_id is not None
                and settings["prune"]
                and int(k) <= settings["k_max"]
            )
            band = int(k) if pruned else 0
            space = query_space(method_name, options)
            # The sampling mode only consumes the focal partition — keying
            # its prepared state separately skips the R-tree build entirely
            # (and keeps exact queries from ever seeing a tree-less entry).
            sampling = method_name == "sample_kspr"
            pkey = (focal_array.tobytes(), band, space, sampling)
            prepared = prepared_cache.get(pkey)
            if prepared is None:
                partition_key = (focal_array.tobytes(), band)
                partition = partition_cache.get(partition_key)
                band_ids = None
                if pruned and partition is None:
                    band_ids = {rid for rid, count in counts_by_id.items() if count < band}
                hyperplanes = None if sampling else hyperplane_caches.setdefault(
                    (focal_array.tobytes(), space), {}
                )
                prepared = prepare_query(
                    dataset, focal_array, band_ids,
                    build_tree=not sampling, fanout=settings["fanout"],
                    hyperplane_cache=hyperplanes, partition=partition,
                )
                partition_cache[partition_key] = prepared.partition
                prepared_cache[pkey] = prepared

            cold += 1
            if sampling:
                # validate_query above already warned where warranted; the
                # estimator must not warn a second time (canonical_options
                # keeps ``warn`` out of qkey — it never changes the answer).
                options["warn"] = False
            result = method_func(dataset, focal_array, int(k), prepared=prepared, **options)
            result_cache[qkey] = result
            outcomes.append((index, result, None, time.perf_counter() - start, False))
        except Exception as error:  # noqa: BLE001 - reported per query
            outcomes.append((index, None, error, time.perf_counter() - start, False))
    return outcomes, hits, cold


class ShardedExecutor:
    """Answer batches of kSPR queries across worker processes.

    Parameters
    ----------
    dataset:
        The records to query (a :class:`~repro.records.Dataset` or raw array).
    workers:
        Number of worker processes; ``None`` uses every available core, and
        ``1`` runs sequentially in-process (the timing baseline).
    method / k_max / fanout / prune_skyband:
        Same semantics as :class:`repro.engine.Engine`; answers for a given
        query are identical to the engine's.
    dominator_counts:
        Optional precomputed per-record dominator counts (aligned with the
        dataset rows) to skip the O(n²) pass, e.g. from a live
        :class:`~repro.index.skyline.SkybandIndex`.
    tolerance:
        Default numerical policy applied to every query of the batch (see
        :mod:`repro.robust`); a per-spec ``tolerance`` option overrides it.
        Shipped to the workers with the rest of the settings so sharded
        answers match what the engine computes in-process.
    """

    def __init__(
        self,
        dataset: Dataset | np.ndarray,
        *,
        workers: int | None = None,
        method: str = "lpcta",
        k_max: int = 16,
        fanout: int = 32,
        prune_skyband: bool = True,
        dominator_counts: np.ndarray | None = None,
        tolerance: Tolerance | float | None = None,
    ) -> None:
        if not isinstance(dataset, Dataset):
            dataset = Dataset(np.asarray(dataset, dtype=float))
        self.dataset = dataset
        self.workers = resolve_workers(workers)
        self.settings = {
            "method": resolve_method(method)[0],
            "k_max": int(k_max),
            "fanout": int(fanout),
            "prune": bool(prune_skyband),
            "tolerance": None if tolerance is None else resolve_tolerance(tolerance),
        }
        if prune_skyband:
            counts = (
                np.asarray(dominator_counts, dtype=int)
                if dominator_counts is not None
                else dominated_counts(dataset)
            )
            self.counts_by_id = {
                int(record_id): int(count) for record_id, count in zip(dataset.ids, counts)
            }
        else:
            self.counts_by_id = None

    def run(
        self, specs: Iterable[QuerySpec | tuple], deadline: float | None = None
    ) -> BatchReport:
        """Execute every query and return a :class:`BatchReport` in submission order.

        ``deadline`` (seconds) makes the run anytime: every worker serves its
        shard in submission order until the budget elapses; queries past it
        are returned with ``skipped=True`` (neither answered nor failed), so
        the caller gets a well-defined completed prefix per shard instead of
        an all-or-nothing timeout.  Granularity is one query — an in-flight
        query always completes.
        """
        normalized = [coerce_spec(index, spec) for index, spec in enumerate(specs)]
        tasks = [
            (
                outcome.index,
                outcome.spec.focal.tolist(),
                outcome.spec.k,
                outcome.spec.method,
                outcome.spec.options,
            )
            for outcome in normalized
        ]
        start = time.perf_counter()
        # One budget anchor for the whole call: pool startup and state
        # transfer spend the caller's deadline, not extra time on top of it.
        deadline_epoch = None if deadline is None else time.time() + float(deadline)
        if self.workers == 1 or len(tasks) <= 1:
            remaining = (
                None if deadline_epoch is None else max(0.0, deadline_epoch - time.time())
            )
            raw, hits, cold = _serve(
                self.dataset, self.counts_by_id, self.settings, tasks, remaining
            )
            errors = {index: error for index, _, error, _, _ in raw}
        else:
            plan = plan_focal_shards(
                [np.asarray(task[1], dtype=float).tobytes() for task in tasks],
                self.workers,
            )
            chunks = [[tasks[index] for index in shard] for shard in plan]
            raw = []
            hits = 0
            cold = 0
            errors = {}
            with ProcessPoolExecutor(
                max_workers=len(chunks),
                initializer=_init_worker,
                initargs=(
                    self.dataset.values,
                    self.dataset.ids,
                    self.dataset.name,
                    self.counts_by_id,
                    self.settings,
                ),
            ) as pool:
                payloads = [(chunk, deadline_epoch) for chunk in chunks]
                for shard_raw, shard_hits, shard_cold in pool.map(_serve_task, payloads):
                    hits += shard_hits
                    cold += shard_cold
                    for index, result, error, seconds, skipped in shard_raw:
                        raw.append((index, result, None, seconds, skipped))
                        errors[index] = error
        wall = time.perf_counter() - start

        by_index = {
            index: (result, seconds, skipped) for index, result, _, seconds, skipped in raw
        }
        for outcome in normalized:
            result, seconds, skipped = by_index[outcome.index]
            outcome.result = result
            outcome.error = errors.get(outcome.index)
            outcome.seconds = seconds
            outcome.skipped = skipped
        return BatchReport(
            outcomes=normalized,
            wall_seconds=wall,
            cache_hits=hits,
            cold_queries=cold,
        )
