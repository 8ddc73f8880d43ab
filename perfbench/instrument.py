"""Outside-in layer timing for the traced benchmark run.

The program imports its collaborators by name (``from ..geometry.linprog
import solve_feasibility``), so a layer's public function is timed by
replacing the attribute *where its caller looks it up*: ``solve_feasibility``
on :mod:`repro.core.celltree`, not on :mod:`repro.geometry.linprog`.  Class
methods are replaced on the class.  :class:`Instrumentation` installs every
wrapper in one step and restores every original in one step, also when the
run raises, so no patched function outlives it.

Spans are kept per thread with parent links taken from a thread-local stack
at entry.  The program's own spans (``engine.prepare``, ``engine.execute``,
``query.finalize``, ``live.repair`` ...) are read through
:func:`repro.obs.use_tracer`: the outermost engine call of each thread runs
under a fresh tracer, and its spans are merged into that thread's span list
when the call returns.  All spans stay in memory until :meth:`Recorder.tree`
is asked for them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["SpanRecord", "Recorder", "Target", "Instrumentation", "default_targets", "nest"]


@dataclass
class SpanRecord:
    """One timed interval: a wrapped call or a span the program emitted."""

    span_id: int
    parent_id: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    #: Items the call produced, where the target counts them (hyperplanes built).
    items: int = 0
    #: ``False`` for coroutine spans: interleaved on the event loop, they
    #: cannot nest by interval, so they are never parents or children.
    nested: bool = True
    #: Volatile payload copied from program spans (``live.repair`` seconds).
    fields: dict[str, Any] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time its child spans cover."""
        return self.duration - sum(child.duration for child in self.children)


class Recorder:
    """Thread-safe in-memory span sink."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[SpanRecord] = []
        self._results: dict[int, Any] = {}

    def keep(self, result: Any) -> None:
        """Hold a returned answer (once, however often a cache returns it)."""
        with self._lock:
            self._results.setdefault(id(result), result)

    def results(self) -> list[Any]:
        with self._lock:
            return list(self._results.values())

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def begin(self, name: str, nested: bool = True) -> SpanRecord:
        """Open a span; a nested span's parent is the innermost open one."""
        stack = self._stack()
        parent = stack[-1].span_id if (nested and stack) else None
        record = SpanRecord(
            self._new_id(), parent, name, threading.get_ident(), time.perf_counter(),
            nested=nested,
        )
        if nested:
            stack.append(record)
        return record

    def end(self, record: SpanRecord) -> None:
        """Close ``record`` and keep it."""
        record.end = time.perf_counter()
        if record.nested:
            stack = self._stack()
            if stack and stack[-1] is record:
                stack.pop()
        with self._lock:
            self._spans.append(record)

    def adopt(self, program_spans) -> None:
        """Keep spans a :class:`repro.obs.Tracer` recorded on this thread."""
        thread = threading.get_ident()
        adopted = []
        for span in program_spans:
            if span.end is None:
                continue
            adopted.append(SpanRecord(
                self._new_id(), None, span.name, thread, span.start, span.end,
                fields={**span.attributes, **span.volatile},
            ))
        with self._lock:
            self._spans.extend(adopted)

    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def tree(self) -> list[SpanRecord]:
        """Every span, with ``children`` linked; see :func:`nest`."""
        return nest(self.spans())


def nest(spans: list[SpanRecord]) -> list[SpanRecord]:
    """Link each nested span to the innermost span of its thread containing it.

    Wrapped calls and program spans on one thread open and close in stack
    order, so interval containment is exactly their call nesting.  Parent
    links recorded at entry only know the wrapped calls; this pass also
    places the program's spans between them.
    """
    by_thread: dict[int, list[SpanRecord]] = {}
    for span in spans:
        span.children = []
        if span.nested:
            by_thread.setdefault(span.thread, []).append(span)
        else:
            span.parent_id = None
    for members in by_thread.values():
        members.sort(key=lambda span: (span.start, -span.end, span.span_id))
        open_spans: list[SpanRecord] = []
        for span in members:
            # Sorted by start, so the open span contains this one iff it
            # ends no earlier.
            while open_spans and open_spans[-1].end < span.end:
                open_spans.pop()
            parent = open_spans[-1] if open_spans else None
            span.parent_id = parent.span_id if parent else None
            if parent is not None:
                parent.children.append(span)
            open_spans.append(span)
    return spans


@dataclass(frozen=True)
class Target:
    """One attribute to time: ``owner.attribute`` becomes span ``name``.

    ``entry`` marks the program's entry points (``Engine.query`` ...): the
    outermost one on a thread runs under a fresh program tracer whose spans
    are merged into the record.  ``count`` maps the call's result to
    :attr:`SpanRecord.items`; ``keep`` holds every returned answer so its
    per-query statistics can be summed.
    """

    owner: Any
    attribute: str
    name: str
    entry: bool = False
    count: Callable[[Any], int] | None = None
    keep: bool = False


def _wrap(original: Callable, target: Target, recorder: Recorder) -> Callable:
    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def timed_coroutine(*args, **kwargs):
            record = recorder.begin(target.name, nested=False)
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.end(record)

        return timed_coroutine

    if target.entry:
        from repro.obs import Tracer, current_tracer, use_tracer

        @functools.wraps(original)
        def timed_entry(*args, **kwargs):
            outermost = not current_tracer().enabled
            tracer = Tracer() if outermost else current_tracer()
            record = recorder.begin(target.name)
            try:
                with use_tracer(tracer):
                    result = original(*args, **kwargs)
                if target.keep:
                    recorder.keep(result)
                return result
            finally:
                recorder.end(record)
                if outermost:
                    recorder.adopt(tracer.spans)

        return timed_entry

    @functools.wraps(original)
    def timed(*args, **kwargs):
        record = recorder.begin(target.name)
        try:
            result = original(*args, **kwargs)
            if target.count is not None:
                record.items = target.count(result)
            return result
        finally:
            recorder.end(record)

    return timed


class Instrumentation:
    """Install timing wrappers for ``targets``; restore them all on exit.

    Installation is all-or-nothing: if any attribute is missing, the ones
    already replaced are put back before the error propagates.
    """

    def __init__(self, targets: list[Target], recorder: Recorder | None = None) -> None:
        self.targets = list(targets)
        self.recorder = recorder or Recorder()
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> Recorder:
        try:
            for target in self.targets:
                # Read the raw attribute so a restore puts back exactly what
                # was there (a function, not a bound method).
                original = target.owner.__dict__[target.attribute]
                setattr(target.owner, target.attribute, _wrap(original, target, self.recorder))
                self._saved.append((target.owner, target.attribute, original))
        except BaseException:
            self.restore()
            raise
        return self.recorder

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()


def default_targets() -> list[Target]:
    """Every layer boundary the benchmark times, keyed by lookup site."""
    # import_module, not ``import a.b as m``: a package attribute may be a
    # function of the same name (``repro.index.skyline`` is one).
    (estimator, base, bounds, celltree, progressive, result, skyline_module, http, protocol,
     service) = (
        importlib.import_module(f"repro.{name}") for name in (
            "approx.estimator", "core.base", "core.bounds", "core.celltree",
            "core.progressive", "core.result", "index.skyline", "serve.http",
            "serve.protocol", "serve.service",
        )
    )
    from repro.core.bounds import TransformedBoundEvaluator
    from repro.core.celltree import CellTree
    from repro.engine import Engine
    from repro.index.rtree import AggregateRTree
    from repro.index.skyline import SkybandIndex
    from repro.serve.admission import AdmissionController
    from repro.serve.service import KSPRService

    return [
        Target(Engine, "__init__", "api.init", entry=True),
        Target(Engine, "query", "api.query", entry=True, keep=True),
        Target(Engine, "apply_updates", "api.apply_updates", entry=True),
        Target(Engine, "subscribe", "api.subscribe", entry=True),
        Target(skyline_module, "dominated_counts", "index.dominance"),
        Target(AggregateRTree, "__init__", "index.rtree"),
        Target(progressive, "skyline", "index.skyline"),
        Target(SkybandIndex, "insert", "index.update"),
        Target(SkybandIndex, "delete", "index.update"),
        Target(celltree, "solve_feasibility", "lp.feasibility"),
        Target(bounds, "minimize_linear", "lp.bounds"),
        Target(bounds, "maximize_linear", "lp.bounds"),
        Target(base, "build_hyperplanes", "geometry.hyperplanes", count=len),
        Target(result, "intersect_halfspaces", "geometry.polytope"),
        Target(CellTree, "insert", "celltree.insert"),
        Target(TransformedBoundEvaluator, "evaluate", "bounds.evaluate"),
        Target(estimator, "classify_hits", "approx.classify"),
        Target(Engine, "update_affects", "live.classify"),
        Target(AdmissionController, "admit", "serve.admission"),
        Target(http, "parse_request", "serve.frame"),
        Target(protocol, "approx_payload", "serve.frame"),
        Target(service, "applied_payload", "serve.frame"),
        Target(service, "delta_payload", "serve.frame"),
        Target(KSPRService, "answer", "serve.handler"),
    ]
