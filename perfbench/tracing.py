"""Outside-in tracing: spans around the public entry point of each layer.

The traced run patches each entry point listed in :data:`ENTRY_POINTS`
from here, records one span per call (name, layer, start, end, parent,
action id) in memory, and restores the originals when the run ends.
Nothing inside ``src/`` is edited and the program's own tracer
(``REPRO_TRACE``) stays off, because turning it on forces streaming sends
to materialise and would change what is measured.

Entry points are resolved by dotted name. One that no longer exists (a
later change deleted or renamed it) is reported as an absent layer, not
an error, so the benchmark keeps running while the program is reshaped.

A span's self time is its duration minus the union of its children's
intervals. Every traced action is one root span, so the self times of
the spans under it sum exactly to the action's time; what is not inside
any wrapped layer is the action's own self time, reported as ``other``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

#: (dotted path, kind). Kinds decide the layer a span's self time lands in.
ENTRY_POINTS: tuple[tuple[str, str], ...] = (
    ("repro.core.plan.compiler.compile_plan_for", "compile"),
    ("repro.core.connectors.base.DatabaseConnector.send", "connector"),
    ("repro.core.connectors.base.DatabaseConnector.persist", "connector"),
    ("repro.core.connectors.base.DatabaseConnector.send_stream", "stream"),
    ("repro.core.frame.PolyFrame.iter_batches", "stream"),
    ("repro.core.connectors.base.DatabaseConnector.postprocess", "convert"),
    ("repro.eager.io.frame_from_records", "convert"),
    ("repro.sqlengine.engine.SQLDatabase.execute", "engine"),
    ("repro.docstore.database.MongoDatabase.aggregate", "engine"),
    ("repro.graphdb.engine.Neo4jDatabase.execute", "engine"),
    ("repro.sqlengine.parser.parse", "parse"),
    ("repro.graphdb.cypher_parser.parse", "parse"),
    ("repro.sqlengine.planner.plan_query", "plan"),
    ("repro.sqlengine.optimizer.Optimizer.rewrite", "plan"),
    ("repro.sqlengine.optimizer.Optimizer.to_physical", "plan"),
    ("repro.storage.catalog.Catalog.insert_rows", "write"),
    ("repro.docstore.collection.Collection.insert_many", "write"),
    ("repro.graphdb.engine.Neo4jDatabase.load", "write"),
    ("repro.cluster.greenplum.GreenplumCluster.execute", "cluster"),
    ("repro.cluster.asterixdb_cluster.AsterixDBCluster.execute", "cluster"),
    ("repro.cluster.mongo_cluster.MongoDBCluster.aggregate", "cluster"),
    ("repro.cluster.base.scatter_gather", "gather"),
    ("repro.cluster.base.scatter_gather_replicated", "gather"),
    ("repro.cluster.merge.merge_records", "merge"),
    ("repro.cluster.merge.merge_record_stream", "merge"),
)

#: The simulated per-gather coordinator cost (added to reported time, never slept).
COORDINATOR_OVERHEAD = "repro.cluster.base.DEFAULT_COORDINATOR_OVERHEAD"

#: Engine names, by the class that serves the call.
ENGINES = ("postgres", "asterixdb", "mongodb", "neo4j")

#: Layers whose self time is reported; anything else folds into ``other``.
TIME_LAYERS = (
    ["plan.compile", "connector", "convert", "write", "stream", "cluster.shard", "cluster.merge", "py.gc_full"]
    + [f"{engine}.exec" for engine in ENGINES]
    + [f"{engine}.parse" for engine in ENGINES if engine != "mongodb"]
    + ["postgres.plan", "asterixdb.plan"]
    + [f"{engine}.prep_sleep" for engine in ENGINES]
)

#: Reported metric name for each time layer.
LAYER_METRIC = {
    "plan.compile": "plan.compile_ms",
    "connector": "connector.self_ms",
    "convert": "convert.ms",
    "write": "write.load_ms",
    "stream": "stream.drain_ms",
    "cluster.shard": "cluster.shard_ms",
    "cluster.merge": "cluster.merge_ms",
    "py.gc_full": "py.gc_full_ms",
    **{layer: layer + "_ms" for layer in TIME_LAYERS if "." in layer and layer.split(".")[0] in ENGINES},
}


class Span:
    """One wrapped call. ``end`` is ``None`` while the call runs."""

    __slots__ = ("name", "layer", "start", "end", "parent", "action", "engine", "cluster", "owner")

    def __init__(self, name, layer, start, parent, action, engine, cluster, owner):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.action = action
        self.engine = engine
        self.cluster = cluster
        self.owner = owner


class SpanRecorder:
    """Spans kept in memory, parented by a stack (one thread, serial dispatch)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.action = -1

    def open(self, name: str, layer: str, engine: str = "", owner: int = 0) -> int:
        parent = self.stack[-1] if self.stack else -1
        cluster = name in ("cluster", "gather") or (parent >= 0 and self.spans[parent].cluster)
        # Allocating the span may trigger a garbage collection, whose own
        # span must land before this one starts, so read the clock last.
        span = Span(name, layer, 0.0, parent, self.action, engine, cluster, owner)
        self.spans.append(span)
        index = len(self.spans) - 1
        self.stack.append(index)
        span.start = self.clock()
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def current(self) -> Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def engine_ancestor(self) -> Span | None:
        for index in reversed(self.stack):
            if self.spans[index].engine:
                return self.spans[index]
        return None


def union_length(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of *intervals*, clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - union_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def resolve(path: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, object)`` for a dotted path, or ``None`` if it is gone."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        obj = owner
        try:
            for part in parts[split:]:
                owner, obj = obj, getattr(obj, part)
        except AttributeError:
            return None
        return owner, parts[-1], obj
    return None


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _engine_name(db: Any) -> str:
    module = type(db).__module__
    if module.startswith("repro.docstore"):
        return "mongodb"
    if module.startswith("repro.graphdb"):
        return "neo4j"
    return "asterixdb" if getattr(db, "dialect", "") == "sqlpp" else "postgres"


class Tracer:
    """Patches the entry points, records spans and counters, restores on exit."""

    def __init__(self, connectors: list[Any] = ()) -> None:
        self.rec = SpanRecorder()
        self.connectors = list(connectors)
        self.absent: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []
        self._pending: list[tuple[str, Any]] = []
        self._action_spans: list[int] = []
        self._gc_span: int | None = None
        self._log_marks: list[tuple[int, int]] = []
        self.streams_requested = 0
        self.streams_served = 0

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for path, kind in ENTRY_POINTS:
            found = resolve(path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr, original = found
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    if attr in vars(cls):
                        self._patch(cls, attr, self._wrap(vars(cls)[attr], kind))
            else:
                wrapper = self._wrap(original, kind)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != "repro":
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        self._patch(time, "sleep", self._wrap_sleep(time.sleep))
        gc.callbacks.append(self._on_gc)
        self._log_marks = [(len(c.send_log), len(c.compile_log)) for c in self.connectors]

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, kind: str) -> Callable:
        rec = self.rec

        if kind == "engine":

            @functools.wraps(fn)
            def engine(db, *args, **kwargs):
                name = _engine_name(db)
                outer = rec.engine_ancestor()
                nested = outer is not None and outer.owner == id(db)
                index = rec.open("engine", f"{name}.exec", name, id(db))
                try:
                    result = fn(db, *args, **kwargs)
                finally:
                    rec.close(index)
                if not nested:
                    self._after_engine(rec.spans[index], name, result)
                return result

            return engine

        layer = {
            "compile": "plan.compile",
            "connector": "connector",
            "stream": "stream",
            "convert": "convert",
            "write": "write",
            "cluster": "cluster.shard",
            "gather": "cluster.shard",
            "merge": "cluster.merge",
        }.get(kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_layer = layer or self._engine_layer(kind)
            index = rec.open(kind, span_layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(index)
            if kind == "write" and isinstance(result, int):
                self.counts["write.rows_written"] += result
            elif kind == "connector" and kwargs.get("stream"):
                self.streams_requested += 1
                self.streams_served += bool(getattr(result, "streaming", False))
            elif kind == "cluster":
                self._after_cluster(result)
            elif kind in ("stream", "merge") and isinstance(result, Iterator):
                on_item = self._count_batch if fn.__name__ == "send_stream" else None
                return self.iter_spans(result, kind, span_layer, on_item=on_item)
            return result

        return wrapper

    def _engine_layer(self, kind: str) -> str:
        engine = self.rec.engine_ancestor()
        if engine is not None:
            return f"{engine.engine}.{kind}"
        current = self.rec.current()
        return "cluster.shard" if current is not None and current.cluster else "other"

    def _wrap_sleep(self, sleep: Callable[[float], None]) -> Callable[[float], None]:
        rec = self.rec

        @functools.wraps(sleep)
        def traced_sleep(seconds):
            engine = rec.engine_ancestor()
            index = rec.open("sleep", f"{engine.engine}.prep_sleep" if engine else "other")
            try:
                sleep(seconds)
            finally:
                rec.close(index)

        return traced_sleep

    def iter_spans(
        self,
        source: Iterable[Any],
        name: str,
        layer: str,
        engine: str = "",
        on_item: Callable[[Any], None] | None = None,
    ) -> Iterator[Any]:
        """Yield from *source*, one span per pull; closes *source* when abandoned."""
        rec = self.rec
        iterator = iter(source)
        try:
            while True:
                index = rec.open(name, layer, engine)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    rec.close(index)
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _count_batch(self, batch: Any) -> None:
        self.counts["stream.batches"] += 1

    def _after_engine(self, span: Span, engine: str, result: Any) -> None:
        stats = getattr(result, "stats", None)
        if stats is not None:
            self._pending.append((engine, stats))
        shipped = "cluster.rows_shipped" if span.cluster else None
        if span.cluster:
            self.counts["cluster.shard_sends"] += 1
        if getattr(result, "streaming", False) and hasattr(result, "wrap_source"):

            def count(item, engine=engine, shipped=shipped):
                self.counts[f"{engine}.returned"] += 1
                if shipped:
                    self.counts[shipped] += 1

            result.wrap_source(
                lambda source: self.iter_spans(source, "pull", f"{engine}.exec", engine, count)
            )
            return
        rows = len(getattr(result, "records", ()) or ())
        self.counts[f"{engine}.returned"] += rows
        if shipped:
            self.counts[shipped] += rows

    def _after_cluster(self, result: Any) -> None:
        if getattr(result, "streaming", False) and hasattr(result, "wrap_source"):

            def count(item):
                self.counts["cluster.returned"] += 1

            result.wrap_source(
                lambda source: self.iter_spans(source, "pull", "cluster.shard", "", count)
            )
            return
        self.counts["cluster.returned"] += len(getattr(result, "records", ()) or ())

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_span = self.rec.open("gc", "py.gc_full")
        elif self._gc_span is not None:
            self.rec.close(self._gc_span)
            self._gc_span = None
            self.counts["py.gc_full_count"] += 1

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def begin_action(self) -> int:
        self.rec.action = len(self._action_spans)
        index = self.rec.open("action", "other")
        self._action_spans.append(index)
        return index

    def end_action(self, index: int) -> None:
        self.rec.close(index)
        self.rec.action = -1
        # Streamed results only carry final counters once drained, which
        # the action has done by now.
        for engine, stats in self._pending:
            examined = getattr(stats, "heap_fetches", 0) + getattr(stats, "index_entries", 0)
            self.counts[f"{engine}.rows_examined"] += examined
        self._pending.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_metrics(self, coordinator_overhead_ms: float | None = None) -> dict[str, float]:
        """Per-action means of every layer's self time and counter."""
        actions = len(self._action_spans)
        if actions == 0:
            raise ValueError("no traced actions")
        spans = self.rec.spans
        selfs = self_times(spans)
        by_layer: dict[str, float] = defaultdict(float)
        for span, own in zip(spans, selfs):
            if span.action >= 0:
                layer = span.layer if span.layer in TIME_LAYERS else "other"
                by_layer[layer] += own
        metrics: dict[str, float] = {}
        for layer in TIME_LAYERS:
            metrics[LAYER_METRIC[layer]] = by_layer[layer] * 1000.0 / actions
        metrics["other.ms"] = by_layer["other"] * 1000.0 / actions
        traced = sum(spans[i].end - spans[i].start for i in self._action_spans)
        metrics["trace.action_ms"] = traced * 1000.0 / actions
        for engine in ENGINES:
            examined = self.counts[f"{engine}.rows_examined"]
            returned = self.counts[f"{engine}.returned"]
            metrics[f"{engine}.rows_examined"] = examined / actions
            metrics[f"{engine}.examined_per_returned"] = examined / returned if returned else 0.0
        for name in ("write.rows_written", "stream.batches", "cluster.shard_sends",
                     "cluster.rows_shipped", "py.gc_full_count"):
            metrics[name] = self.counts[name] / actions
        returned = self.counts["cluster.returned"]
        shipped = self.counts["cluster.rows_shipped"]
        metrics["cluster.shipped_per_returned"] = shipped / returned if returned else 0.0
        gathers = sum(1 for span in spans if span.name == "gather" and span.action >= 0)
        per_gather = coordinator_overhead_ms or 0.0
        metrics["cluster.coordinator_sleep_ms"] = gathers * per_gather / actions
        sends = hits = compiles = 0
        for connector, (send_mark, compile_mark) in zip(self.connectors, self._log_marks):
            sends += len(connector.send_log) - send_mark
            records = connector.compile_log[compile_mark:]
            compiles += len(records)
            hits += sum(1 for record in records if getattr(record, "cache_hit", False))
        metrics["connector.sends"] = sends / actions
        metrics["plan.compile_hit_ratio"] = hits / compiles if compiles else 0.0
        return metrics

    def residual_error(self) -> float:
        """Largest gap (s) between an action's time and the sum of its spans' self times."""
        spans = self.rec.spans
        selfs = self_times(spans)
        per_action: dict[int, float] = defaultdict(float)
        for span, own in zip(spans, selfs):
            if span.action >= 0:
                per_action[span.action] += own
        worst = 0.0
        for action, index in enumerate(self._action_spans):
            span = spans[index]
            worst = max(worst, abs((span.end - span.start) - per_action[action]))
        return worst

    def write(self, path: str) -> None:
        """Write every span as one JSON line (written once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.rec.spans:
                handle.write(json.dumps(
                    [span.name, span.layer, span.start, span.end, span.parent, span.action]
                ) + "\n")


def coordinator_overhead_ms() -> float | None:
    """The configured per-gather coordinator cost in ms, if the constant still exists."""
    found = resolve(COORDINATOR_OVERHEAD)
    return None if found is None else float(found[2]) * 1000.0
