"""Physical operators: pull-based iterators over storage.

Every operator implements ``execute(ctx)`` returning a lazy iterator, so a
``LIMIT`` on top of a pipeline stops upstream work as soon as enough rows
are produced — the run-time property that makes PolyFrame's expressions 2
and 10 cheap on every backend.

Operators also record work counters in :class:`~repro.sqlengine.result.QueryStats`
(heap fetches, index entries read, rows scanned), which the tests use to
assert *plan* behaviour — e.g. that an index-only plan touches the heap
zero times, the paper's explanation for PostgreSQL's expression 6/7/13
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError, PlanningError
from repro.exec.kernels import Descending, finalize_avg, finalize_std
from repro.exec.memory import (
    MemoryBudget,
    SpillableGroups,
    SpillSorter,
    estimate_record_bytes,
)
from repro.sqlengine.ast_nodes import (
    Expression,
    FuncCall,
    OrderItem,
    SelectItem,
    Star,
)
from repro.sqlengine.expressions import Evaluator
from repro.sqlengine.result import QueryStats
from repro.storage.catalog import Catalog
from repro.storage.keys import SENTINEL_MISSING, index_key


@dataclass
class ExecutionContext:
    """Everything an operator needs at run time.

    ``memory`` is the per-query budget the blocking operators account
    their buffered state against (and spill under); an unlimited default
    keeps peak tracking on without ever triggering a spill.
    """

    catalog: Catalog
    evaluator: Evaluator
    stats: QueryStats
    memory: MemoryBudget = field(default_factory=MemoryBudget)


class PhysicalPlan:
    """Base class for physical operators."""

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        raise NotImplementedError

    def children(self) -> tuple["PhysicalPlan", ...]:
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def tree_string(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        lines.extend(child.tree_string(indent + 1) for child in self.children())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


class SeqScan(PhysicalPlan):
    """Full heap scan; binds each record under the alias."""

    def __init__(self, table: str, alias: str) -> None:
        self.table = table
        self.alias = alias

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        ctx.stats.full_scans += 1
        heap = ctx.catalog.table(self.table).heap
        for record in heap.scan_records():
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}

    def describe(self) -> str:
        return f"SeqScan {self.table} AS {self.alias}"


class IndexScan(PhysicalPlan):
    """Range scan over a secondary/primary index, fetching heap records.

    ``reverse=True`` walks the index backwards (PostgreSQL's backward index
    scan); ``limit`` stops after that many heap rows, so an ordered LIMIT
    reads only a handful of index entries.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        index_name: str,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        reverse: bool = False,
        limit: int | None = None,
        skip_absent: bool = False,
    ) -> None:
        self.table = table
        self.alias = alias
        self.index_name = index_name
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.reverse = reverse
        self.limit = limit
        self.skip_absent = skip_absent

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        table = ctx.catalog.table(self.table)
        index = table.indexes[self.index_name]
        low = index_key(self.low) if self.low is not None else None
        high = index_key(self.high) if self.high is not None else None
        if self.skip_absent and low is None:
            # Keys below rank 2 are MISSING/NULL; (2,) lower-bounds all
            # concrete values, so this skips absent entries in one seek.
            low = (2,)
        produced = 0
        for _key, rid in index.tree.scan(
            low,
            high,
            low_inclusive=self.low_inclusive,
            high_inclusive=self.high_inclusive,
            reverse=self.reverse,
        ):
            ctx.stats.index_entries += 1
            record = table.heap.fetch(rid)
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}
            produced += 1
            if self.limit is not None and produced >= self.limit:
                return

    def describe(self) -> str:
        bounds = []
        if self.low is not None:
            bounds.append(f"{'>=' if self.low_inclusive else '>'} {self.low!r}")
        if self.high is not None:
            bounds.append(f"{'<=' if self.high_inclusive else '<'} {self.high!r}")
        direction = " backward" if self.reverse else ""
        limit = f" limit {self.limit}" if self.limit is not None else ""
        cond = f" [{' and '.join(bounds)}]" if bounds else ""
        return f"IndexScan{direction} {self.table}.{self.index_name}{cond}{limit}"


class IndexEqualityScan(PhysicalPlan):
    """Point lookup: all rows whose indexed column equals a constant."""

    def __init__(self, table: str, alias: str, index_name: str, value: Any) -> None:
        self.table = table
        self.alias = alias
        self.index_name = index_name
        self.value = value

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        table = ctx.catalog.table(self.table)
        index = table.indexes[self.index_name]
        for rid in index.tree.search(index_key(self.value)):
            ctx.stats.index_entries += 1
            record = table.heap.fetch(rid)
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}

    def describe(self) -> str:
        return f"IndexEqualityScan {self.table}.{self.index_name} = {self.value!r}"


class IndexAbsentScan(PhysicalPlan):
    """Fetch rows whose indexed column is NULL or MISSING.

    Only valid on indexes that record absent values (PostgreSQL-style); the
    paper's expression-13 finding is that PostgreSQL alone can serve
    ``isna()`` from an index.
    """

    def __init__(self, table: str, alias: str, index_name: str) -> None:
        self.table = table
        self.alias = alias
        self.index_name = index_name

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        table = ctx.catalog.table(self.table)
        index = table.indexes[self.index_name]
        if not index.include_absent:
            raise ExecutionError(
                f"index {self.index_name!r} does not record absent values"
            )
        # Absent keys occupy ranks 0 (MISSING) and 1 (NULL); (2,) bounds them.
        for _key, rid in index.tree.scan(None, (2,), high_inclusive=False):
            ctx.stats.index_entries += 1
            record = table.heap.fetch(rid)
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}

    def describe(self) -> str:
        return f"IndexAbsentScan {self.table}.{self.index_name} IS NULL"


class IndexAbsentCount(PhysicalPlan):
    """Index-only count of NULL/MISSING entries (no heap access)."""

    def __init__(self, table: str, index_name: str, item: SelectItem, select_value: bool) -> None:
        self.table = table
        self.index_name = index_name
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        index = ctx.catalog.table(self.table).indexes[self.index_name]
        count = 0
        for _key, _rid in index.tree.scan(None, (2,), high_inclusive=False):
            ctx.stats.index_entries += 1
            count += 1
        yield _shape_scalar(count, self.item, self.select_value)

    def describe(self) -> str:
        return f"IndexAbsentCount {self.table}.{self.index_name}"


class IndexCount(PhysicalPlan):
    """COUNT(*) by walking an index's leaves — no record fetches.

    This models AsterixDB counting through its primary-key index
    (expression 1), which the paper contrasts with MongoDB/PostgreSQL table
    scans.
    """

    def __init__(self, table: str, index_name: str, item: SelectItem, select_value: bool) -> None:
        self.table = table
        self.index_name = index_name
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        index = ctx.catalog.table(self.table).indexes[self.index_name]
        count = index.tree.count_entries()
        ctx.stats.index_entries += count
        yield _shape_scalar(count, self.item, self.select_value)

    def describe(self) -> str:
        return f"IndexCount {self.table}.{self.index_name}"


class IndexMinMax(PhysicalPlan):
    """Index-only MIN/MAX: one or two B+tree seeks, zero heap fetches.

    Absent keys sort below every concrete value, so MAX is the last key and
    MIN is the first key at or above rank 2.
    """

    def __init__(
        self,
        table: str,
        index_name: str,
        which: str,
        item: SelectItem,
        select_value: bool,
    ) -> None:
        if which not in ("min", "max"):
            raise PlanningError(f"IndexMinMax expects 'min' or 'max', got {which!r}")
        self.table = table
        self.index_name = index_name
        self.which = which
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        index = ctx.catalog.table(self.table).indexes[self.index_name]
        result = None
        if self.which == "max":
            for key, _rid in index.tree.scan(reverse=True):
                ctx.stats.index_entries += 1
                if key[0] >= 2:  # first non-absent from the top
                    result = key[1]
                break
        else:
            for key, _rid in index.tree.scan(low=(2,)):
                ctx.stats.index_entries += 1
                result = key[1]
                break
        yield _shape_scalar(result, self.item, self.select_value)

    def describe(self) -> str:
        return f"IndexMinMax[{self.which}] {self.table}.{self.index_name} (index-only)"


class IndexOnlyJoinCount(PhysicalPlan):
    """Count equi-join matches by merging two indexes — zero heap fetches.

    Models AsterixDB's index-only join plan for expression 12.
    """

    def __init__(
        self,
        left_table: str,
        left_index: str,
        right_table: str,
        right_index: str,
        item: SelectItem,
        select_value: bool,
    ) -> None:
        self.left_table = left_table
        self.left_index = left_index
        self.right_table = right_table
        self.right_index = right_index
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        left = ctx.catalog.table(self.left_table).indexes[self.left_index].tree
        right = ctx.catalog.table(self.right_table).indexes[self.right_index].tree
        count = 0
        left_iter = left.scan(low=(2,))
        right_iter = right.scan(low=(2,))
        left_entry = next(left_iter, None)
        right_entry = next(right_iter, None)
        while left_entry is not None and right_entry is not None:
            ctx.stats.index_entries += 1
            if left_entry[0] < right_entry[0]:
                left_entry = next(left_iter, None)
            elif left_entry[0] > right_entry[0]:
                right_entry = next(right_iter, None)
            else:
                key = left_entry[0]
                left_run = 0
                while left_entry is not None and left_entry[0] == key:
                    left_run += 1
                    left_entry = next(left_iter, None)
                right_run = 0
                while right_entry is not None and right_entry[0] == key:
                    right_run += 1
                    right_entry = next(right_iter, None)
                count += left_run * right_run
        yield _shape_scalar(count, self.item, self.select_value)

    def describe(self) -> str:
        return (
            f"IndexOnlyJoinCount {self.left_table}.{self.left_index} = "
            f"{self.right_table}.{self.right_index}"
        )


# ----------------------------------------------------------------------
# Row-at-a-time operators
# ----------------------------------------------------------------------


class FilterOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        predicate = ctx.evaluator.compile(self.predicate)
        for row in self.child.execute(ctx):
            # WHERE semantics: only TRUE passes (NULL/MISSING filter out).
            if predicate(row) is True:
                yield row

    def describe(self) -> str:
        return f"Filter {self.predicate}"


class RebindOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, old: str, new: str) -> None:
        self.child = child
        self.old = old
        self.new = new

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        old, new = self.old, self.new
        for row in self.child.execute(ctx):
            out = dict(row)
            out[new] = out.pop(old)
            yield out

    def describe(self) -> str:
        return f"Rebind {self.old} -> {self.new}"


class ColumnRestrictOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, alias: str, columns: tuple[str, ...]) -> None:
        self.child = child
        self.alias = alias
        self.columns = columns

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        for row in self.child.execute(ctx):
            record = row[self.alias]
            out = dict(row)
            out[self.alias] = {
                name: record[name] for name in self.columns if name in record
            }
            yield out

    def describe(self) -> str:
        return f"ColumnRestrict {self.alias}({', '.join(self.columns)})"


class DerivedBindOp(PhysicalPlan):
    """Record stream → environment stream under a fresh alias."""

    def __init__(self, child: PhysicalPlan, alias: str) -> None:
        self.child = child
        self.alias = alias

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        alias = self.alias
        for record in self.child.execute(ctx):
            yield {alias: record}

    def describe(self) -> str:
        return f"DerivedBind AS {self.alias}"


class ProjectOp(PhysicalPlan):
    def __init__(
        self,
        child: PhysicalPlan,
        items: tuple[SelectItem, ...],
        select_value: bool,
        distinct: bool = False,
    ) -> None:
        self.child = child
        self.items = items
        self.select_value = select_value
        self.distinct = distinct

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        project = compile_projection(ctx.evaluator, self.items, self.select_value)
        seen: set | None = set() if self.distinct else None
        for row in self.child.execute(ctx):
            record = project(row)
            if seen is not None:
                key = _dedup_key(record)
                if key in seen:
                    continue
                seen.add(key)
            yield record

    def describe(self) -> str:
        head = "ProjectValue" if self.select_value else "Project"
        return f"{head} {', '.join(str(item.expr) for item in self.items)}"


class SortOp(PhysicalPlan):
    """Blocking sort on the environment stream; spills runs under budget.

    The in-memory path is a stable decorate-sort-undecorate; the spill
    path writes sorted runs and merges them back on the same decorated
    keys with a sequence tiebreak, so both emit identical row order.
    """

    def __init__(self, child: PhysicalPlan, keys: tuple[OrderItem, ...]) -> None:
        self.child = child
        self.keys = keys

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        key_of = compile_sort_key(ctx.evaluator, self.keys)
        sorter = SpillSorter(ctx.memory)
        try:
            for row in self.child.execute(ctx):
                sorter.add(key_of(row), row)
            yield from sorter.sorted_records()
        finally:
            sorter.close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"Sort {keys}"


class TopKOp(PhysicalPlan):
    """Bounded sort: keep only the first *k* rows of the requested order."""

    def __init__(self, child: PhysicalPlan, keys: tuple[OrderItem, ...], k: int) -> None:
        self.child = child
        self.keys = keys
        self.k = k

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        import heapq

        sort_key = compile_sort_key(ctx.evaluator, self.keys)
        decorated = ((sort_key(row), index, row) for index, row in enumerate(self.child.execute(ctx)))
        kept = heapq.nsmallest(self.k, decorated, key=lambda t: (t[0], t[1]))
        # The bounded heap holds at most k rows; account them so the peak
        # reflects the operator's real (already budget-friendly) state.
        held = sum(estimate_record_bytes(row) for _key, _index, row in kept)
        ctx.memory.reserve(held)
        try:
            for _key, _index, row in kept:
                yield row
        finally:
            ctx.memory.release(held)

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"TopK[{self.k}] {keys}"


class RecordSortOp(PhysicalPlan):
    """Sort a record stream by expressions over its output columns."""

    def __init__(self, child: PhysicalPlan, keys: tuple[OrderItem, ...]) -> None:
        self.child = child
        self.keys = keys

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        env_key = compile_sort_key(ctx.evaluator, self.keys)

        def key_of(record: Any) -> tuple:
            return env_key({"t": record if isinstance(record, dict) else {"value": record}})

        sorter = SpillSorter(ctx.memory)
        try:
            for record in self.child.execute(ctx):
                sorter.add(key_of(record), record)
            yield from sorter.sorted_records()
        finally:
            sorter.close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"RecordSort {keys}"


class LimitOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, count: int, offset: int = 0) -> None:
        self.child = child
        self.count = count
        self.offset = offset

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        if self.count == 0:
            return
        produced = 0
        skipped = 0
        for record in self.child.execute(ctx):
            if skipped < self.offset:
                skipped += 1
                continue
            yield record
            produced += 1
            if self.count >= 0 and produced >= self.count:
                return

    def describe(self) -> str:
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"Limit {self.count}{suffix}"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


class HashJoin(PhysicalPlan):
    """Build on the right input, probe with the left (equi-join only)."""

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        left_key: Expression,
        right_key: Expression,
    ) -> None:
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        left_key = ctx.evaluator.compile(self.left_key)
        right_key = ctx.evaluator.compile(self.right_key)
        table: dict[Any, list[Any]] = {}
        # The build side is accounted but never spilled: a partitioned
        # (Grace) hash join is out of scope, so under a tiny budget the
        # build simply materializes — the documented fallback.
        build_bytes = 0
        for row in self.right.execute(ctx):
            key = right_key(row)
            if key is None or key is SENTINEL_MISSING:
                continue
            table.setdefault(index_key(key), []).append(row)
            nbytes = estimate_record_bytes(row)
            build_bytes += nbytes
            ctx.memory.reserve(nbytes)
        try:
            for left_row in self.left.execute(ctx):
                key = left_key(left_row)
                if key is None or key is SENTINEL_MISSING:
                    continue
                for right_row in table.get(index_key(key), ()):
                    merged = dict(left_row)
                    merged.update(right_row)
                    yield merged
        finally:
            ctx.memory.release(build_bytes)

    def describe(self) -> str:
        return f"HashJoin {self.left_key} = {self.right_key}"


class IndexNestedLoopJoin(PhysicalPlan):
    """For each outer row, probe the inner table's index and fetch the heap.

    The plan the paper observes for expression 12 on PostgreSQL, Neo4j, and
    MongoDB ("index nested loop joins followed by data scans").
    """

    def __init__(
        self,
        outer: PhysicalPlan,
        inner_table: str,
        inner_alias: str,
        inner_index: str,
        outer_key: Expression,
    ) -> None:
        self.outer = outer
        self.inner_table = inner_table
        self.inner_alias = inner_alias
        self.inner_index = inner_index
        self.outer_key = outer_key

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.outer,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        table = ctx.catalog.table(self.inner_table)
        index = table.indexes[self.inner_index]
        outer_key = ctx.evaluator.compile(self.outer_key)
        for outer_row in self.outer.execute(ctx):
            key = outer_key(outer_row)
            if key is None or key is SENTINEL_MISSING:
                continue
            for rid in index.tree.search(index_key(key)):
                ctx.stats.index_entries += 1
                record = table.heap.fetch(rid)
                ctx.stats.heap_fetches += 1
                merged = dict(outer_row)
                merged[self.inner_alias] = record
                yield merged

    def describe(self) -> str:
        return (
            f"IndexNestedLoopJoin probe {self.inner_table}.{self.inner_index} "
            f"with {self.outer_key}"
        )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


class _Accumulator:
    """One aggregate function's running state."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_row(self) -> None:
        """COUNT(*) hook: called once per row regardless of values."""

    def add_rows(self, count: int) -> None:
        """Batch COUNT(*) hook: *count* rows at once (vector engine)."""
        for _ in range(count):
            self.add_row()

    def add_many(self, values: list[Any]) -> None:
        """Batch value hook; subclasses override with vectorized forms."""
        for value in values:
            self.add(value)

    def merge(self, other: "_Accumulator") -> None:
        """Fold another accumulator's state into this one (spill merge)."""
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _CountStar(_Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:  # pragma: no cover - not used for *
        pass

    def add_row(self) -> None:
        self.count += 1

    def add_rows(self, count: int) -> None:
        self.count += count

    def merge(self, other: "_CountStar") -> None:
        self.count += other.count

    def result(self) -> int:
        return self.count


class _CountValue(_Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None and value is not SENTINEL_MISSING:
            self.count += 1

    def add_many(self, values: list[Any]) -> None:
        self.count += sum(
            1 for value in values
            if value is not None and value is not SENTINEL_MISSING
        )

    def merge(self, other: "_CountValue") -> None:
        self.count += other.count

    def result(self) -> int:
        return self.count


class _MinMax(_Accumulator):
    def __init__(self, is_min: bool) -> None:
        self.is_min = is_min
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None or value is SENTINEL_MISSING:
            return
        if self.best is None:
            self.best = value
        elif self.is_min and value < self.best:
            self.best = value
        elif not self.is_min and value > self.best:
            self.best = value

    def add_many(self, values: list[Any]) -> None:
        present = [
            value for value in values
            if value is not None and value is not SENTINEL_MISSING
        ]
        if not present:
            return
        best = min(present) if self.is_min else max(present)
        self.add(best)

    def merge(self, other: "_MinMax") -> None:
        if other.best is not None:
            self.add(other.best)

    def result(self) -> Any:
        return self.best


class _Sum(_Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None or value is SENTINEL_MISSING:
            return
        self.total = value if self.total is None else self.total + value

    def add_many(self, values: list[Any]) -> None:
        present = [
            value for value in values
            if value is not None and value is not SENTINEL_MISSING
        ]
        if not present:
            return
        subtotal = sum(present[1:], present[0])
        self.total = subtotal if self.total is None else self.total + subtotal

    def merge(self, other: "_Sum") -> None:
        if other.total is not None:
            self.total = other.total if self.total is None else self.total + other.total

    def result(self) -> Any:
        return self.total


class _Avg(_Accumulator):
    """Mean from exact (sum, count) partial state.

    The sum starts at integer ``0`` so integer inputs accumulate exactly;
    the final division happens once, in the shared finalizer — the same
    state and finalizer the cluster coordinator combines per-shard
    partials through, which is what makes the distributed AVG
    bit-identical on integer columns.
    """

    def __init__(self) -> None:
        self.total: Any = 0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None or value is SENTINEL_MISSING:
            return
        self.total += value
        self.count += 1

    def add_many(self, values: list[Any]) -> None:
        present = [
            value for value in values
            if value is not None and value is not SENTINEL_MISSING
        ]
        self.total += sum(present)
        self.count += len(present)

    def merge(self, other: "_Avg") -> None:
        self.total += other.total
        self.count += other.count

    def result(self) -> float | None:
        return finalize_avg(self.total, self.count)


class _Std(_Accumulator):
    """Population standard deviation from (count, sum, sum-of-squares).

    Decomposable partial state instead of Welford's recurrence: exact in
    integer arithmetic until the finalizer's single division, and the
    identical state the cluster coordinator combines across shards.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total: Any = 0
        self.total_sq: Any = 0

    def add(self, value: Any) -> None:
        if value is None or value is SENTINEL_MISSING:
            return
        self.count += 1
        self.total += value
        self.total_sq += value * value

    def add_many(self, values: list[Any]) -> None:
        present = [
            value for value in values
            if value is not None and value is not SENTINEL_MISSING
        ]
        self.count += len(present)
        self.total += sum(present)
        self.total_sq += sum(value * value for value in present)

    def merge(self, other: "_Std") -> None:
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq

    def result(self) -> float | None:
        return finalize_std(self.count, self.total, self.total_sq)


def aggregate_argument(evaluator: Evaluator, call: FuncCall) -> Callable[[Any], Any] | None:
    """The compiled argument of one aggregate call; None for ``COUNT(*)``."""
    if call.star:
        return None
    if not call.args:

        def no_argument(row: Any) -> Any:
            raise IndexError(f"{call.name} has no argument")

        return no_argument
    return evaluator.compile(call.args[0])


def make_accumulator(call: FuncCall) -> _Accumulator:
    """Build the accumulator for one aggregate call."""
    name = call.name.upper()
    if name == "COUNT":
        return _CountStar() if call.star else _CountValue()
    if name == "MIN":
        return _MinMax(is_min=True)
    if name == "MAX":
        return _MinMax(is_min=False)
    if name == "SUM":
        return _Sum()
    if name == "AVG":
        return _Avg()
    if name in ("STDDEV", "STDDEV_POP"):
        return _Std()
    raise PlanningError(f"unknown aggregate function {name}")


def merge_group_state(
    prior: tuple[list[_Accumulator], Any], later: tuple[list[_Accumulator], Any]
) -> tuple[list[_Accumulator], Any]:
    """Fold a later spill run's group state into the earlier one.

    Accumulators combine positionally; the representative row stays the
    earliest one seen, which is what the unspilled dict would have kept.
    """
    prior_accumulators, representative = prior
    later_accumulators, _later_representative = later
    for accumulator, other in zip(prior_accumulators, later_accumulators):
        accumulator.merge(other)
    return (prior_accumulators, representative)


class HashAggregate(PhysicalPlan):
    """Grouped (or scalar, when ``group_by`` is empty) aggregation."""

    def __init__(
        self,
        child: PhysicalPlan,
        group_by: tuple[Expression, ...],
        items: tuple[SelectItem, ...],
        select_value: bool,
    ) -> None:
        self.child = child
        self.group_by = group_by
        self.items = items
        self.select_value = select_value
        self._agg_calls = _collect_aggregates(items)

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        evaluator = ctx.evaluator
        key_of = _compile_group_key(evaluator, self.group_by)
        arguments = [aggregate_argument(evaluator, call) for call in self._agg_calls]
        shape = compile_group_output(evaluator, self.items, self.select_value)
        groups = SpillableGroups(ctx.memory)
        scalar = not self.group_by
        try:
            for row in self.child.execute(ctx):
                key = key_of(row)
                entry = groups.get(key)
                if entry is None:
                    entry = ([make_accumulator(call) for call in self._agg_calls], row)
                    groups.insert(key, entry, estimate_record_bytes(row))
                for argument, accumulator in zip(arguments, entry[0]):
                    accumulator.add_row()
                    if argument is not None:
                        accumulator.add(argument(row))
            if scalar and not len(groups) and not groups.spilled:
                # SQL: aggregates over an empty input still produce one row.
                accumulators = [make_accumulator(call) for call in self._agg_calls]
                groups.insert((), (accumulators, {}), 0)
            for accumulators, representative in groups.finalized(merge_group_state):
                results = {
                    id(call): accumulator.result()
                    for call, accumulator in zip(self._agg_calls, accumulators)
                }
                yield shape(representative, results)
        finally:
            groups.close()

    def describe(self) -> str:
        keys = ", ".join(str(expr) for expr in self.group_by) or "<scalar>"
        return f"HashAggregate[{keys}]"


def _collect_aggregates(items: tuple[SelectItem, ...]) -> list[FuncCall]:
    from repro.sqlengine.ast_nodes import AGGREGATE_FUNCTIONS, BinaryOp, IsAbsent, UnaryOp

    calls: list[FuncCall] = []

    def walk(expr: Expression) -> None:
        if isinstance(expr, FuncCall):
            if expr.name.upper() in AGGREGATE_FUNCTIONS:
                calls.append(expr)
                return
            for arg in expr.args:
                walk(arg)
        elif isinstance(expr, BinaryOp):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, UnaryOp):
            walk(expr.operand)
        elif isinstance(expr, IsAbsent):
            walk(expr.operand)

    for item in items:
        walk(item.expr)
    return calls


def _compile_group_key(
    evaluator: Evaluator, group_by: tuple[Expression, ...]
) -> Callable[[Any], tuple]:
    """A row's grouping key: NULL and MISSING group together."""
    fns = [evaluator.compile(expr) for expr in group_by]
    if not fns:
        return lambda row: ()
    if len(fns) == 1:
        (fn,) = fns
        return lambda row: (index_key(_absent_to_none(fn(row))),)
    return lambda row: tuple(index_key(_absent_to_none(fn(row))) for fn in fns)


def compile_group_output(
    evaluator: Evaluator, items: tuple[SelectItem, ...], select_value: bool
) -> Callable[[Any, dict[int, Any]], Any]:
    """Compile a grouped SELECT list: ``(representative row, results) -> output``.

    *results* maps each aggregate call's ``id`` to its value for the group;
    aggregates at the top of an item or under binary operators read it,
    and everything else evaluates against the representative row.
    """
    results: dict[int, Any] = {}
    outputs = [(item.output_name(), evaluator.compile(item.expr, results)) for item in items]

    def shape(row: Any, agg_results: dict[int, Any]) -> Any:
        results.update(agg_results)
        if select_value:
            value: Any = None
            for _name, fn in outputs:
                value = fn(row)
            return value
        return {name: fn(row) for name, fn in outputs}

    return shape


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def compile_projection(
    evaluator: Evaluator, items: tuple[SelectItem, ...], select_value: bool
) -> Callable[[Any], Any]:
    """Compile a SELECT list into an ``environment -> record`` function."""
    if select_value:
        value_of = evaluator.compile(items[0].expr)
        return lambda row: _absent_to_none(value_of(row))
    steps: list[tuple[str | None, Any]] = []
    for item in items:
        if isinstance(item.expr, Star):
            steps.append((None, item.expr.qualifier))
        else:
            steps.append((item.output_name(), evaluator.compile(item.expr)))

    def project(row: Any) -> dict[str, Any]:
        record: dict[str, Any] = {}
        for name, step in steps:
            if name is None:
                if step is not None:
                    source = row.get(step)
                    if isinstance(source, dict):
                        record.update(source)
                else:
                    for binding in row.values():
                        if isinstance(binding, dict):
                            record.update(binding)
                continue
            value = step(row)
            if value is SENTINEL_MISSING:
                continue  # SQL++: MISSING fields vanish from constructed records
            record[name] = value
        return record

    return project


def compile_sort_key(
    evaluator: Evaluator, keys: tuple[OrderItem, ...]
) -> Callable[[Any], tuple]:
    """Compile ORDER BY keys into one decorated sort key per row."""
    parts = [(evaluator.compile(order.expr), order.descending) for order in keys]

    def sort_key(row: Any) -> tuple:
        key = []
        for value_of, descending in parts:
            part = index_key(_absent_to_none(value_of(row)))
            key.append(Descending(part) if descending else part)
        return tuple(key)

    return sort_key


def _absent_to_none(value: Any) -> Any:
    return None if value is SENTINEL_MISSING else value


def _shape_scalar(value: Any, item: SelectItem, select_value: bool) -> Any:
    """Shape a precomputed scalar the way the SELECT list would have."""
    if select_value:
        return value
    return {item.output_name(): value}


def _dedup_key(record: Any) -> Any:
    if isinstance(record, dict):
        return tuple(sorted((k, _dedup_key(v)) for k, v in record.items()))
    if isinstance(record, list):
        return tuple(_dedup_key(v) for v in record)
    return record
