"""The three benchmark workloads, each a closed loop from one caller.

Every workload reads (queries) beside writes (update batches) and watches
standing queries for their ``delta`` events, so that every end-to-end
metric has a measured value on every workload; the mix is what tells them
apart:

* ``exact-cold`` — an analyst: cold ``lpcta`` queries (``use_cache=False``)
  over several catalogues; a light write stream repairs one sampled
  standing query.  The LP layers do nearly all the work.
* ``serve-live`` — a service client over loopback HTTP: Zipf ``/v1/query``
  reads answered by the sampler beside ``/v1/update`` writes, with a fleet
  of sampled standing queries, one of them watched over ``/v1/subscribe``.
  No LP runs.
* ``live-exact`` — exact standing ``lpcta`` queries kept current under an
  update stream; the reader re-reads the maintained answers.  The LP and
  index layers are used for repair instead of cold queries.

A run is several *sessions*: each draws its own inputs from ``(seed,
session)``, is set up (timed), measured, checked and torn down.  Averaging
over sessions is what keeps one run's figures close to another's when the
inputs change with the seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import math
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import Engine, kspr
from repro.approx.estimator import ApproxSpec
from repro.core.verify import rank_under_weights, verify_result
from repro.engine.workload import generate_workload
from repro.parallel import results_identical
from repro.records import Dataset

from .inputs import (
    BatchShape,
    UpdateStream,
    catalogue,
    dominated_by_all,
    ranked_rows,
    region_producing_rows,
)

__all__ = ["Sample", "ExactCold", "ServeLive", "LiveExact", "WORKLOADS"]


@dataclass
class Sample:
    """What one measured closed loop produced."""

    query_seconds: list[float] = field(default_factory=list)
    update_seconds: list[float] = field(default_factory=list)
    delta_seconds: list[float] = field(default_factory=list)
    update_ops: int = 0
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, error: Exception) -> None:
        """Count a failed operation and keep what went wrong."""
        self.failed += 1
        self.errors.append(f"{type(error).__name__}: {error}")

    def add(self, other: "Sample") -> None:
        """Pool ``other`` (a later session) into this sample."""
        self.query_seconds += other.query_seconds
        self.update_seconds += other.update_seconds
        self.delta_seconds += other.delta_seconds
        self.update_ops += other.update_ops
        self.elapsed += other.elapsed
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


class DeltaLog:
    """Listener for standing-query events, stamped on arrival."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.arrivals: list[float] = []

    def __call__(self, event) -> None:
        with self._lock:
            self.arrivals.append(time.perf_counter())

    def since(self, started: float) -> list[float]:
        """Seconds from ``started`` to each event that arrived after it."""
        with self._lock:
            return [arrived - started for arrived in self.arrivals if arrived >= started]


def _stop(deadline: float | None, done: int, limit: int | None, cycle: int) -> bool:
    """A loop runs ``limit`` operations (fixed work) or until ``deadline``.

    It stops only after whole cycles of ``cycle`` operations (the reads and
    writes of one repeat of the mix), so rates never depend on where the
    deadline cut a cycle.
    """
    if done % cycle:
        return False
    if limit is not None:
        return done >= limit
    return time.perf_counter() >= deadline


def _apply_batch(engine: Engine, stream: UpdateStream, log: DeltaLog, sample: Sample) -> None:
    """Apply the stream's next batch in-process; time it and its deltas."""
    ops = stream.next_batch()
    sample.attempted += 1
    t0 = time.perf_counter()
    try:
        applied = engine.apply_updates(ops)
    except Exception as error:  # a failed batch counts against attempts
        sample.fail(error)
        return
    sample.update_seconds.append(time.perf_counter() - t0)
    sample.update_ops += len(ops)
    stream.applied([op.record_id for op in applied.ops if op.op == "insert"])
    sample.delta_seconds.extend(log.since(t0))


def _sub_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def _cold_sample(dataset, focal: np.ndarray, k: int):
    """A sampled answer computed from scratch: plain ``kspr``, no engine state.

    The sampler's k-skyband pruning is sound for the top-k test, so the
    seeded draw classifies every weight identically with or without it.
    """
    return kspr(dataset, focal, k, method="sample")


def _approx_equal(actual, expected) -> bool:
    """Sampled answers match when the seeded draw and its hits match."""
    fields = ("samples", "hits", "seed", "epsilon", "delta", "mode", "k")
    return all(getattr(actual, name) == getattr(expected, name) for name in fields)


def _answer_digest(result) -> str:
    """Regions, ranks, bounding record ids, impact and LP counts of an answer."""
    parts = [str(result.k), str(len(result)), repr(float(result.impact_probability()))]
    for region in result.regions:
        parts.append(str(region.rank))
        parts.extend(f"{half.record_id}{half.sign}" for half in region.halfspaces)
    parts.append(f"lp{result.stats.lp.feasibility_calls}/{result.stats.lp.optimize_calls}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _cold_values(values: np.ndarray, focals: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Cold pool rows and their ids, weakest first (the order cold deletes use)."""
    cold = dominated_by_all(values, focals)
    return values[cold], [int(row) for row in cold[np.argsort(values[cold].sum(axis=1))]]


# --------------------------------------------------------------------- #
# exact-cold
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Slice:
    """Catalogues of one size and the query mix asked of each."""

    cardinality: int
    dimensionality: int
    catalogues: int
    per_k: tuple[tuple[int, int], ...]
    #: Accepted skyline sizes (see :func:`~perfbench.inputs.catalogue`).
    skyline: tuple[int, int] | None = None


@dataclass(frozen=True)
class ExactColdSizes:
    # A session's pass holds more queries than its share of the run has
    # time for, so the measured queries are a random prefix of the pass,
    # never a repeat of part of it.
    slices: tuple[Slice, ...] = (
        Slice(1000, 3, 5, ((1, 5), (2, 1)), skyline=(28, 32)),
        Slice(500, 4, 2, ((1, 3),), skyline=(55, 63)),
    )
    update_every: int = 4
    standing_k: int = 2
    #: Queries per traced session (two thirds of its list).
    traced_queries: int = 24
    verify_samples: int = 400

    def tiny(self) -> "ExactColdSizes":
        return replace(
            self,
            slices=(Slice(120, 3, 1, ((1, 2), (2, 1))), Slice(80, 4, 1, ((1, 1),))),
            traced_queries=4, verify_samples=200,
        )


class ExactCold:
    """Cold exact queries over several catalogues, plus a light write stream."""

    name = "exact-cold"
    sessions = 3
    Sizes = ExactColdSizes

    def __init__(self, seed: int, session: int, sizes: ExactColdSizes) -> None:
        self.seed, self.session, self.sizes = int(seed), int(session), sizes
        self.catalogues = []
        classes: dict[tuple[int, int], list[tuple[int, np.ndarray, int]]] = {}
        for slice_index, part in enumerate(sizes.slices):
            for copy in range(part.catalogues):
                rng = _sub_rng(seed, session, 1, slice_index, copy)
                values = catalogue(part.cardinality, part.dimensionality, rng, part.skyline)
                index = len(self.catalogues)
                self.catalogues.append(values)
                # The strongest region-producing records: every catalogue
                # contributes the same number of queries of each k.
                ranked = ranked_rows(values)
                used: set[int] = set()
                for k, count in part.per_k:
                    rows = [row for row in region_producing_rows(values, k, ranked, rng)
                            if row not in used][:count]
                    used.update(rows)
                    classes.setdefault((slice_index, k), []).extend(
                        (index, values[row].copy(), k) for row in rows
                    )
        # Each class of (slice, k) is shuffled and spread evenly over the
        # list, so the prefix a session has time for always holds the same
        # mix; a plain shuffle let that mix, and the rates, vary by seed.
        rng = _sub_rng(seed, session, 2)
        keyed = []
        for members in classes.values():
            offset = rng.random()
            for place, position in enumerate(rng.permutation(len(members))):
                keyed.append(((place + offset) / len(members), members[int(position)]))
        keyed.sort(key=lambda item: item[0])
        self.queries: list[tuple[int, np.ndarray, int]] = [query for _, query in keyed]
        self.standing_focal = next(query for query in self.queries if query[0] == 0)[1]
        values = self.catalogues[0]
        cold_pool, cold_ids = _cold_values(values, self.standing_focal)
        self._stream_args = dict(
            hot_focals=self.standing_focal[None, :], pattern=[BatchShape(hot=1, deletes=1)],
            warm_pool=values[:1], cold_pool=cold_pool, cold_ids=cold_ids,
        )
        self.state = None

    @staticmethod
    def params(sizes: ExactColdSizes) -> dict:
        """The size parameters recorded in the run stamp."""
        return {
            "slices": [
                {"n": part.cardinality, "d": part.dimensionality,
                 "catalogues": part.catalogues, "per_k": dict(part.per_k)}
                for part in sizes.slices
            ],
            "update_every": sizes.update_every,
            "standing": {"method": "sample", "k": sizes.standing_k},
        }

    def fixed_work(self) -> int:
        return self.sizes.traced_queries

    def setup(self) -> None:
        engines = [Engine(values) for values in self.catalogues]
        standing = engines[0].subscribe(self.standing_focal, self.sizes.standing_k, "sample")
        log = DeltaLog()
        standing.attach(log)
        self.state = {
            "engines": engines, "standing": standing, "log": log,
            "stream": UpdateStream(rng=_sub_rng(self.seed, self.session, 3), **self._stream_args),
            "answers": {}, "repeats_differ": 0, "position": 0,
        }

    def teardown(self) -> None:
        self.state = None

    def engines(self) -> list[Engine]:
        return self.state["engines"]

    def registry(self):
        return None

    def measure(self, seconds: float | None = None, limit: int | None = None) -> Sample:
        """Closed loop for ``seconds``, or over ``limit`` queries."""
        state = self.state
        engines, stream, log = state["engines"], state["stream"], state["log"]
        sample = Sample()
        started = time.perf_counter()
        deadline = None if seconds is None else started + seconds
        done = 0
        while not _stop(deadline, done, limit, self.sizes.update_every):
            position = state["position"] % len(self.queries)
            index, focal, k = self.queries[position]
            state["position"] += 1
            sample.attempted += 1
            done += 1
            engine = engines[index]
            dataset = engine.dataset
            t0 = time.perf_counter()
            try:
                result = engine.query(focal, k, use_cache=False)
            except Exception as error:  # a failed query counts against attempts
                sample.fail(error)
                continue
            sample.query_seconds.append(time.perf_counter() - t0)
            key = (position, dataset.fingerprint())
            digest = _answer_digest(result)
            if key in state["answers"]:
                state["repeats_differ"] += state["answers"][key][3] != digest
            else:
                state["answers"][key] = (dataset, focal, k, digest, result)
            if done % self.sizes.update_every == 0:
                _apply_batch(engines[0], stream, log, sample)
        sample.elapsed = time.perf_counter() - started
        return sample

    def digest(self) -> str:
        """One hash over every distinct answer, in the order first asked."""
        joined = "".join(entry[3] for entry in self.state["answers"].values())
        return hashlib.sha256(joined.encode()).hexdigest()

    def check(self) -> list[str]:
        failures = []
        for (position, _), (dataset, focal, k, _digest, result) in self.state["answers"].items():
            report = verify_result(
                result, dataset, focal, k,
                samples=self.sizes.verify_samples, rng=self.seed + position,
            )
            if not report.is_consistent:
                failures.append(f"query {position}: {report.mismatches} verification mismatches")
        if self.state["repeats_differ"]:
            failures.append(f"{self.state['repeats_differ']} repeated answers changed digest")
        final = self.state["engines"][0].dataset
        cold = _cold_sample(final, self.standing_focal, self.sizes.standing_k)
        if not _approx_equal(self.state["standing"].result(), cold):
            failures.append("standing sampled answer differs from a cold recompute")
        return failures


# --------------------------------------------------------------------- #
# serve-live
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeLiveSizes:
    cardinality: int = 5000
    dimensionality: int = 4
    standing_ranks: tuple[int, ...] = (0, 3, 10, 30)
    standing_k: int = 5
    trace: int = 3000
    zipf_s: float = 1.1
    focal_pool: int = 400
    k_choices: tuple[int, ...] = (5, 10)
    update_every: int = 25
    batch: BatchShape = BatchShape(hot=1, warm=5, deletes=2)
    epsilon: float = 0.02
    delta: float = 0.05
    worker_threads: int = 2
    #: Queries per traced session.
    traced_queries: int = 350
    checked_answers: int = 6
    brute_force_weights: int = 4000

    def tiny(self) -> "ServeLiveSizes":
        return replace(self, cardinality=400, trace=120, focal_pool=60, update_every=10,
                       traced_queries=30, checked_answers=3, brute_force_weights=1000)


#: Failure probability allowed to each side of the brute-force comparison.
CHECK_DELTA = 1e-6


class ServeLive:
    """Loopback HTTP reads beside writes on a sampled standing fleet."""

    name = "serve-live"
    sessions = 3
    Sizes = ServeLiveSizes

    def __init__(self, seed: int, session: int, sizes: ServeLiveSizes) -> None:
        from repro.serve import ServeConfig

        self.seed, self.session, self.sizes = int(seed), int(session), sizes
        self.values = catalogue(sizes.cardinality, sizes.dimensionality, _sub_rng(seed, session, 1))
        values = self.values
        ranked = ranked_rows(values)
        self.standing_focals = values[ranked[list(sizes.standing_ranks)]].copy()
        workload = generate_workload(
            Dataset(values), sizes.trace, zipf_s=sizes.zipf_s, focal_pool=sizes.focal_pool,
            k_choices=sizes.k_choices, rng=_sub_rng(seed, session, 2),
        )
        self.trace = [(np.asarray(query.focal), int(query.k)) for query in workload]
        self.checked_positions = set(
            np.linspace(0, min(len(self.trace), 600) - 1, sizes.checked_answers).astype(int).tolist()
        )
        cold_pool, cold_ids = _cold_values(values, self.standing_focals)
        self._stream_args = dict(
            hot_focals=self.standing_focals[:1], pattern=[sizes.batch],
            warm_pool=values[ranked[: sizes.focal_pool]], cold_pool=cold_pool, cold_ids=cold_ids,
            # Near the top of a d = 4 catalogue a point no record dominates
            # is a competitor of nearly every cached answer; a deeper drop
            # lets other strong records dominate it, so it damages the
            # watched answer without flushing the whole cache each batch.
            hot_drop=0.03,
        )
        approx = ApproxSpec(epsilon=sizes.epsilon, delta=sizes.delta, seed=(seed + session) % 2**31)
        # One closed-loop client can never exceed the service's capacity, so
        # its tenant budget is set above any rate it can reach: a rejection
        # here would be a fault, not load shedding.
        self.config = ServeConfig(
            approx=approx, worker_threads=sizes.worker_threads,
            tenant_burst=1e6, tenant_rate=1e6,
        )
        self.state = None

    @staticmethod
    def params(sizes: ServeLiveSizes) -> dict:
        """The size parameters recorded in the run stamp."""
        return {
            "n": sizes.cardinality, "d": sizes.dimensionality,
            "standing": {"method": "sample", "k": sizes.standing_k,
                         "ranks": list(sizes.standing_ranks)},
            "zipf_s": sizes.zipf_s, "focal_pool": sizes.focal_pool,
            "k_choices": list(sizes.k_choices), "update_every": sizes.update_every,
            "batch": sizes.batch.size, "epsilon": sizes.epsilon, "delta": sizes.delta,
            "worker_threads": sizes.worker_threads,
        }

    def fixed_work(self) -> int:
        return self.sizes.traced_queries

    def setup(self) -> None:
        loop = asyncio.new_event_loop()
        try:
            self.state = loop.run_until_complete(self._setup())
        except BaseException:
            loop.close()
            raise
        self.state["loop"] = loop

    async def _setup(self) -> dict:
        from repro.serve import KSPRService, ServeClient, ServeServer

        sizes = self.sizes
        engine = Engine(self.values)
        standing = [engine.subscribe(focal, sizes.standing_k, "sample")
                    for focal in self.standing_focals]
        server = await ServeServer(KSPRService(engine, self.config)).start()
        client = ServeClient(*server.address)
        arrivals: list[tuple[float, int]] = []
        arrived = asyncio.Event()

        async def watch() -> None:
            # The default contract and method="sample": the service joins
            # the standing query registered above instead of a new one.
            request = {"focal": self.standing_focals[0].tolist(), "k": sizes.standing_k,
                       "method": "sample"}
            async for _name, payload in client.subscribe_events(request):
                arrivals.append((time.perf_counter(), int(payload["version"])))
                arrived.set()

        state = {
            "engine": engine, "standing": standing, "server": server, "client": client,
            "watcher": asyncio.ensure_future(watch()), "arrivals": arrivals, "arrived": arrived,
            "stream": UpdateStream(rng=_sub_rng(self.seed, self.session, 3), **self._stream_args),
            "position": 0, "checked": [],
        }
        await asyncio.wait_for(self._arrival(state, standing[0].version), 30)
        focal, k = self.trace[0]
        await client.query({"focal": focal.tolist(), "k": k})
        return state

    @staticmethod
    async def _arrival(state: dict, version: int) -> float:
        """When the watched subscription's event of ``version`` arrived."""
        while True:
            for arrived, seen in state["arrivals"]:
                if seen >= version:
                    return arrived
            state["arrived"].clear()
            await state["arrived"].wait()

    def teardown(self) -> None:
        state, self.state = self.state, None
        loop = state["loop"]
        try:
            loop.run_until_complete(self._teardown(state))
        finally:
            # As asyncio.run does: finish every connection task before closing.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    @staticmethod
    async def _teardown(state: dict) -> None:
        state["watcher"].cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await state["watcher"]  # cancelled just above: the subscriber hangs up
        await state["server"].stop()

    def engines(self) -> list[Engine]:
        return [self.state["engine"]]

    def registry(self):
        return self.state["server"].service.registry

    def measure(self, seconds: float | None = None, limit: int | None = None) -> Sample:
        """Closed loop for ``seconds``, or over ``limit`` queries."""
        return self.state["loop"].run_until_complete(self._measure(seconds, limit))

    async def _measure(self, seconds: float | None, limit: int | None) -> Sample:
        state = self.state
        client, engine = state["client"], state["engine"]
        sample = Sample()
        started = time.perf_counter()
        deadline = None if seconds is None else started + seconds
        done = 0
        while not _stop(deadline, done, limit, self.sizes.update_every):
            position = state["position"] % len(self.trace)
            state["position"] += 1
            focal, k = self.trace[position]
            sample.attempted += 1
            done += 1
            t0 = time.perf_counter()
            try:
                answer = await client.query({"focal": focal.tolist(), "k": k})
            except Exception as error:  # errors and rejections count against attempts
                sample.fail(error)
                continue
            sample.query_seconds.append(time.perf_counter() - t0)
            if position in self.checked_positions and len(state["checked"]) < len(self.checked_positions):
                state["checked"].append((engine.dataset, focal, k, answer))
            if done % self.sizes.update_every == 0:
                await self._update(state, sample)
        sample.elapsed = time.perf_counter() - started
        return sample

    async def _update(self, state: dict, sample: Sample) -> None:
        stream, watched = state["stream"], state["standing"][0]
        ops = stream.next_batch()
        body = {
            "inserts": [op.values.tolist() for op in ops if op.op == "insert"],
            "deletes": [op.record_id for op in ops if op.op == "delete"],
        }
        before = watched.version
        sample.attempted += 1
        t0 = time.perf_counter()
        try:
            applied = await state["client"].update(body)
        except Exception as error:  # a failed batch counts against attempts
            sample.fail(error)
            return
        sample.update_seconds.append(time.perf_counter() - t0)
        sample.update_ops += len(ops)
        stream.applied(applied["assigned_ids"])
        if watched.version > before:
            arrived = await asyncio.wait_for(self._arrival(state, watched.version), 30)
            sample.delta_seconds.append(arrived - t0)

    def check(self) -> list[str]:
        failures = []
        final = self.state["engine"].dataset
        for focal, standing in zip(self.standing_focals, self.state["standing"]):
            if not _approx_equal(standing.result(), _cold_sample(final, focal, self.sizes.standing_k)):
                failures.append(f"standing query at {focal.tolist()} differs from a cold recompute")
        # The estimate may miss by epsilon with probability delta; widening
        # both sides to CHECK_DELTA makes a false alarm a one-in-a-million event.
        slack = self.sizes.epsilon * math.sqrt(
            math.log(2 / CHECK_DELTA) / math.log(2 / self.sizes.delta)
        ) + math.sqrt(math.log(2 / CHECK_DELTA) / (2 * self.sizes.brute_force_weights))
        for index, (dataset, focal, k, answer) in enumerate(self.state["checked"]):
            rng = _sub_rng(self.seed, self.session, 4, index)
            weights = rng.dirichlet(np.ones(dataset.dimensionality), self.sizes.brute_force_weights)
            truth = sum(rank_under_weights(dataset, focal, w) <= k for w in weights) / len(weights)
            if abs(answer["estimate"] - truth) > slack:
                failures.append(
                    f"estimate {answer['estimate']:.4f} vs brute force {truth:.4f} "
                    f"(allowed {slack:.4f}) for k={k}"
                )
        if not self.state["checked"]:
            failures.append("no served answer was checked against brute force")
        return failures


# --------------------------------------------------------------------- #
# live-exact
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LiveExactSizes:
    cardinality: int = 1000
    dimensionality: int = 3
    #: Standing focals: the strongest records that reach the top-k somewhere.
    standing: int = 3
    k: int = 1
    #: Accepted skyline sizes (see :func:`~perfbench.inputs.catalogue`).
    skyline: tuple[int, int] | None = (28, 32)
    pattern: tuple[BatchShape, ...] = (
        BatchShape(hot=1, cold=3, deletes=2),
        BatchShape(cold=4, deletes=2),
        BatchShape(cold=4, deletes=2),
    )
    #: Update batches per traced session.
    traced_batches: int = 6

    def tiny(self) -> "LiveExactSizes":
        return replace(self, cardinality=150, standing=3, traced_batches=4, skyline=None)


class LiveExact:
    """Exact standing queries repaired under a seeded update stream."""

    name = "live-exact"
    # Repair cost follows each catalogue and focal; many small sessions
    # average over more catalogues than a few larger ones would.
    sessions = 8
    Sizes = LiveExactSizes

    def __init__(self, seed: int, session: int, sizes: LiveExactSizes) -> None:
        self.seed, self.session, self.sizes = int(seed), int(session), sizes
        rng = _sub_rng(seed, session, 1)
        self.values = catalogue(sizes.cardinality, sizes.dimensionality, rng, sizes.skyline)
        values = self.values
        rows = region_producing_rows(values, sizes.k, ranked_rows(values), rng)[: sizes.standing]
        self.focals = values[rows].copy()
        cold_pool, cold_ids = _cold_values(values, self.focals)
        self._stream_args = dict(
            hot_focals=self.focals[_sub_rng(seed, session, 2).permutation(len(self.focals))],
            pattern=list(sizes.pattern), warm_pool=values[:1],
            cold_pool=cold_pool, cold_ids=cold_ids,
        )
        self.state = None

    @staticmethod
    def params(sizes: LiveExactSizes) -> dict:
        """The size parameters recorded in the run stamp."""
        return {
            "n": sizes.cardinality, "d": sizes.dimensionality, "k": sizes.k,
            "standing": {"method": "lpcta", "queries": sizes.standing},
            "batches": [shape.size for shape in sizes.pattern],
        }

    def fixed_work(self) -> int:
        return self.sizes.traced_batches

    def setup(self) -> None:
        engine = Engine(self.values)
        standing = [engine.subscribe(focal, self.sizes.k, "lpcta") for focal in self.focals]
        log = DeltaLog()
        for query in standing:
            query.attach(log)
        self.state = {
            "engine": engine, "standing": standing, "log": log,
            "stream": UpdateStream(rng=_sub_rng(self.seed, self.session, 3), **self._stream_args),
            "stale_reads": 0,
        }

    def teardown(self) -> None:
        self.state = None

    def engines(self) -> list[Engine]:
        return [self.state["engine"]]

    def registry(self):
        return None

    def measure(self, seconds: float | None = None, limit: int | None = None) -> Sample:
        """Closed loop for ``seconds``, or over ``limit`` update batches."""
        state = self.state
        engine, stream, log = state["engine"], state["stream"], state["log"]
        sample = Sample()
        started = time.perf_counter()
        deadline = None if seconds is None else started + seconds
        done = 0
        while not _stop(deadline, done, limit, len(self.sizes.pattern)):
            _apply_batch(engine, stream, log, sample)
            done += 1
            for focal, standing in zip(self.focals, state["standing"]):
                sample.attempted += 1
                t0 = time.perf_counter()
                try:
                    read = engine.query(focal, self.sizes.k, method="lpcta")
                except Exception as error:  # a failed read counts against attempts
                    sample.fail(error)
                    continue
                sample.query_seconds.append(time.perf_counter() - t0)
                current = standing.result()
                if read is not current and not results_identical(read, current):
                    state["stale_reads"] += 1
        sample.elapsed = time.perf_counter() - started
        return sample

    def check(self) -> list[str]:
        failures = []
        cold_engine = Engine(self.state["engine"].dataset)
        for focal, standing in zip(self.focals, self.state["standing"]):
            cold = cold_engine.query(focal, self.sizes.k, method="lpcta", use_cache=False)
            if not results_identical(standing.result(), cold):
                failures.append(f"standing query at {focal.tolist()} differs from a cold recompute")
        if self.state["stale_reads"]:
            failures.append(f"{self.state['stale_reads']} reads differed from the maintained answer")
        return failures


WORKLOADS = {workload.name: workload for workload in (ExactCold, ServeLive, LiveExact)}
