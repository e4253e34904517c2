"""Query results and execution statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class QueryStats:
    """Work counters recorded while executing a physical plan.

    The test suite uses these to assert plan shape rather than timing:
    an index-only plan has ``heap_fetches == 0``; a plan that avoided a full
    scan has ``full_scans == 0``.
    """

    heap_fetches: int = 0
    index_entries: int = 0
    full_scans: int = 0
    string_store_reads: int = 0  # used by the graph engine's record layout
    retries: int = 0  # extra execution attempts spent recovering shards/queries
    failed_shards: int = 0  # shards dropped from a degraded scatter-gather
    failovers: int = 0  # shard reads moved to another replica mid-query
    hedges: int = 0  # hedged (raced) replica requests launched
    hedge_wins: int = 0  # hedged requests that beat the original attempt
    quorum_reads: int = 0  # shards answered under quorum checksum checking
    compile_cache_hits: int = 0  # compiled-query cache hits behind this result
    compile_cache_misses: int = 0  # plans that had to be compiled from scratch
    result_cache_hits: int = 0  # answers (whole or per-shard) served from cache
    result_cache_misses: int = 0  # cache probes that had to execute instead
    singleflight_waits: int = 0  # sends that blocked on an identical in-flight query
    batches: int = 0  # column batches scanned by the vector engine
    peak_mem_bytes: int = 0  # peak accounted operator memory (max when merging)
    spill_bytes: int = 0  # bytes written to disk spill runs
    spill_runs: int = 0  # spill runs written under memory pressure
    exec_engine: str = ""  # 'row' | 'vector'; 'mixed' after merging both
    dispatch_mode: str = ""  # 'serial' | 'threads'; 'mixed' after merging both
    parallelism: int = 0  # max shard queries in flight at once (0 = single node)
    queue_wait_ms: float = 0.0  # time spent waiting in admission queues
    deadline_budget_ms: float = 0.0  # deadline budget left at completion (0 = none)
    cancelled: int = 0  # work units cooperatively cancelled below this result

    def merge(self, other: "QueryStats") -> None:
        self.heap_fetches += other.heap_fetches
        self.index_entries += other.index_entries
        self.full_scans += other.full_scans
        self.string_store_reads += other.string_store_reads
        self.retries += other.retries
        self.failed_shards += other.failed_shards
        self.failovers += other.failovers
        self.hedges += other.hedges
        self.hedge_wins += other.hedge_wins
        self.quorum_reads += other.quorum_reads
        self.compile_cache_hits += other.compile_cache_hits
        self.compile_cache_misses += other.compile_cache_misses
        self.result_cache_hits += other.result_cache_hits
        self.result_cache_misses += other.result_cache_misses
        self.singleflight_waits += other.singleflight_waits
        self.batches += other.batches
        # Shards execute concurrently at worst, so the cluster-wide peak
        # is the largest single-shard peak; spill volume is additive.
        self.peak_mem_bytes = max(self.peak_mem_bytes, other.peak_mem_bytes)
        self.spill_bytes += other.spill_bytes
        self.spill_runs += other.spill_runs
        if other.exec_engine:
            if not self.exec_engine:
                self.exec_engine = other.exec_engine
            elif self.exec_engine != other.exec_engine:
                self.exec_engine = "mixed"
        if other.dispatch_mode:
            if not self.dispatch_mode:
                self.dispatch_mode = other.dispatch_mode
            elif self.dispatch_mode != other.dispatch_mode:
                self.dispatch_mode = "mixed"
        self.parallelism = max(self.parallelism, other.parallelism)
        self.queue_wait_ms += other.queue_wait_ms
        self.cancelled += other.cancelled
        # The merged result is only as close to its deadline as its
        # tightest contributor; zero means "no deadline", so it never wins.
        if other.deadline_budget_ms:
            if not self.deadline_budget_ms:
                self.deadline_budget_ms = other.deadline_budget_ms
            else:
                self.deadline_budget_ms = min(
                    self.deadline_budget_ms, other.deadline_budget_ms
                )


@dataclass
class ResultSet:
    """Materialized output of one query execution.

    ``partial`` marks a degraded scatter-gather answer: one or more shards
    were irrecoverably down and the records cover only the surviving
    shards (opt-in via ``allow_partial=True``).  ``shard_attempts`` holds
    the per-shard execution attempt counts for cluster queries, in shard
    order (empty for single-node results).

    ``op_profile`` is the per-operator execution profile
    (:class:`repro.obs.OpProfile`) when the query ran in analyze mode or
    under tracing; ``None`` otherwise.

    ``served_by`` maps each shard (by position) to the cluster node that
    actually answered it — under failover or hedging that may not be the
    primary.  Empty for single-node results and the legacy
    non-replicated path.
    """

    records: list[Any] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    plan_text: str = ""
    elapsed_seconds: float = 0.0
    partial: bool = False
    shard_attempts: tuple[int, ...] = ()
    op_profile: Any = None
    served_by: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def iter_records(self):
        """Iterate the records; streaming subclasses drain lazily."""
        return iter(self.records)

    @property
    def streaming(self) -> bool:
        """True while an underlying record stream is still draining.

        Always False for materialized results, so callers can ask for
        ``stream=True``, get a documented materialize fallback (tracing,
        retry policies, blocking merges), and not special-case it.
        """
        return False

    def close(self) -> None:
        """Release any underlying stream; a no-op when materialized."""

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result.

        Accepts either a bare value (SQL++ ``SELECT VALUE``) or a one-entry
        record (``SELECT COUNT(*) ...``).
        """
        if len(self.records) != 1:
            raise ValueError(f"expected exactly one row, got {len(self.records)}")
        record = self.records[0]
        if isinstance(record, dict):
            if len(record) != 1:
                raise ValueError(f"expected a single column, got {sorted(record)}")
            return next(iter(record.values()))
        return record

    def to_records(self) -> list[dict[str, Any]]:
        """Records as dicts; bare values become ``{'value': v}`` rows."""
        out: list[dict[str, Any]] = []
        for record in self.records:
            if isinstance(record, dict):
                out.append(record)
            else:
                out.append({"value": record})
        return out


class StreamingResultSet(ResultSet):
    """A lazily-draining result over a pull-based record stream.

    Until something touches :attr:`records`, nothing is buffered:
    :meth:`iter_records` (and plain iteration) pulls straight from the
    underlying operator pipeline one record at a time, so a streaming
    client never holds the full result.  Touching :attr:`records`
    (``len()``, ``scalar()``, ``to_records()``) *materializes* the
    remaining stream into memory — the documented fallback that keeps
    every consumer of the eager API working unchanged.

    Draining is one-shot: records already yielded by :meth:`iter_records`
    are gone, and a second iteration sees only what the first left
    behind.  ``stats`` (including ``peak_mem_bytes``/``spill_bytes``) is
    only final once the stream is exhausted, because operators account
    memory as records are pulled through them.
    """

    def __init__(self, record_source=None, **kwargs):
        self._source = iter(record_source) if record_source is not None else None
        self._on_drain: list = []
        kwargs.setdefault("records", [])
        super().__init__(**kwargs)

    def on_drain(self, callback) -> None:
        """Run *callback* once the source stream is exhausted or closed.

        By then the pipeline's cleanup has run, so ``stats`` carries the
        final drain-dependent numbers (``peak_mem_bytes``, spill
        counters).  If the stream is already drained the callback runs
        immediately.
        """
        if self._source is None:
            callback()
        else:
            self._on_drain.append(callback)

    def _finish(self) -> None:
        callbacks, self._on_drain = self._on_drain, []
        for callback in callbacks:
            callback()

    def wrap_source(self, wrapper) -> None:
        """Replace the record source with ``wrapper(source)``.

        The hook the result cache uses to tee records into an admission
        buffer as they stream past.  The wrapper owns closing the inner
        source; must be called before anything starts draining.
        """
        if self._source is not None:
            self._source = wrapper(self._source)

    @property
    def records(self) -> list[Any]:
        self._materialize()
        return self._records

    @records.setter
    def records(self, value) -> None:
        self._records = list(value)

    @property
    def streaming(self) -> bool:
        """True while the source stream has not been fully drained."""
        return self._source is not None

    def _materialize(self) -> None:
        if self._source is not None:
            source, self._source = self._source, None
            self._records.extend(source)
            self._finish()

    def iter_records(self):
        """Stream records one at a time without buffering them (one-shot)."""
        # Already-materialized records are walked by index (popping the
        # list head per record is quadratic); the consumed prefix is
        # dropped when the walk ends or is abandoned.
        buffered = self._records
        taken = 0
        try:
            while taken < len(buffered):
                taken += 1
                yield buffered[taken - 1]
        finally:
            del buffered[:taken]
        source = self._source
        if source is not None:
            try:
                for record in source:
                    yield record
            finally:
                # Propagate an early close (LIMIT satisfied downstream,
                # or an abandoned iterator) into the pipeline so
                # operators release their budget reservations and stats
                # get stamped deterministically.  ``close()`` may have
                # beaten us to it — only finalize if we still own the
                # source.
                if self._source is source:
                    self._source = None
                    close = getattr(source, "close", None)
                    if close is not None:
                        close()
                    self._finish()

    def close(self) -> None:
        """Abandon the remaining stream, closing the record source.

        The pipeline's cleanup (budget release, stats stamping) runs
        immediately instead of waiting for garbage collection.
        """
        if self._source is not None:
            source, self._source = self._source, None
            close = getattr(source, "close", None)
            if close is not None:
                close()
            self._finish()

    def __iter__(self):
        return self.iter_records()
