"""Aggregation pipeline execution with a pipeline-scoped optimizer.

The optimizer reproduces MongoDB's documented pipeline behaviour:

- leading no-op ``{"$match": {}}`` stages (which PolyFrame always emits as
  the dataset anchor) are elided;
- a leading ``$match`` with an equality/range predicate on an indexed field
  becomes an index scan with the remainder as residual filter;
- a leading ``$sort`` on an indexed field becomes an index-ordered scan —
  descending uses a backward scan — and a downstream ``$limit`` bounds it
  (expression 9's fast path);
- everything deeper in the pipeline executes stage by stage, which is why
  the metadata fast-count cannot help expression 1 here.

``$lookup`` in its ``let``/``pipeline`` form is executed as an index
nested-loop join when the sub-pipeline is a single ``$expr`` equality on an
indexed field, matching the paper's expression-12 observation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro.errors import ExecutionError, UnsupportedOperationError
from repro.docstore.collection import Collection
from repro.docstore.exprs import (
    NOT_CONSTANT,
    FieldRef,
    compile_expr,
    compile_field,
    constant_value,
)
from repro.exec.kernels import Descending, finalize_avg, finalize_std
from repro.exec.memory import (
    MemoryBudget,
    SpillableGroups,
    SpillSorter,
    estimate_record_bytes,
)
from repro.obs.profile import OpProfile, profiled_rows
from repro.sqlengine.result import QueryStats
from repro.storage.keys import SENTINEL_MISSING, index_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.docstore.database import MongoDatabase

_SOURCE_TRANSPARENT_STAGES = ("$project", "$addFields")


class PipelineExecutor:
    """Runs one aggregation pipeline against a collection."""

    def __init__(self, database: "MongoDatabase") -> None:
        self._db = database
        #: Per-stage profile of the last ``profile=True`` execution.
        self.last_profile: OpProfile | None = None
        #: Per-query budget the blocking stages account/spill against.
        self.memory = MemoryBudget()

    def execute(
        self,
        collection: Collection,
        stages: list[dict[str, Any]],
        stats: QueryStats,
        *,
        profile: bool = False,
        memory: MemoryBudget | None = None,
        stream: bool = False,
    ) -> list[Any] | Iterator[Any]:
        """Run the pipeline; a list by default, an iterator when streaming.

        ``memory`` is the per-query budget the blocking stages ($sort,
        $group) spill under; ``stream=True`` returns the stage chain's
        lazy iterator instead of materializing it (profiling wins over
        streaming — the documented fallback).
        """
        self.last_profile = None
        self.memory = memory if memory is not None else MemoryBudget()
        stages = [dict(stage) for stage in stages]
        source, remaining, source_desc = self._choose_source(collection, stages, stats)
        docs: Iterable[Any] = source
        if not profile:
            for stage in remaining:
                docs = self._apply_stage(collection, docs, stage, stats)
            if stream:
                return iter(docs)
            return list(docs)

        # Analyze mode: the pipeline is a linear operator chain — wrap the
        # chosen source and every remaining stage's iterator so each link
        # records its own wall time and row count.
        node = OpProfile(source_desc)
        docs = profiled_rows(node, docs)
        for stage in remaining:
            stage_op = next(iter(stage))
            parent = OpProfile(stage_op, children=[node])
            docs = profiled_rows(
                parent, self._apply_stage(collection, docs, stage, stats)
            )
            node = parent
        records = list(docs)
        self.last_profile = node
        return records

    # ------------------------------------------------------------------
    # Source selection (the index-capable pipeline prefix)
    # ------------------------------------------------------------------
    def _choose_source(
        self,
        collection: Collection,
        stages: list[dict[str, Any]],
        stats: QueryStats,
    ) -> tuple[Iterator[dict[str, Any]], list[dict[str, Any]], str]:
        index = 0
        while index < len(stages) and stages[index] == {"$match": {}}:
            index += 1
        stages = stages[index:]

        if stages and "$match" in stages[0]:
            chosen = self._try_index_match(collection, stages[0]["$match"], stats)
            if chosen is not None:
                source, fully_consumed, field = chosen
                # A partially indexable $match (e.g. $and of equalities)
                # keeps the whole stage as a residual re-check.
                remaining = stages[1:] if fully_consumed else stages
                return source, remaining, f"IndexScan({collection.name}.{field})"

        if stages and "$sort" in stages[0]:
            chosen = self._try_index_sort(collection, stages, stats)
            if chosen is not None:
                source, remaining, field = chosen
                return source, remaining, f"IndexOrderedScan({collection.name}.{field})"

        return (
            self._full_scan(collection, stats),
            stages,
            f"CollectionScan({collection.name})",
        )

    def _full_scan(self, collection: Collection, stats: QueryStats) -> Iterator[dict[str, Any]]:
        stats.full_scans += 1
        for doc in collection.scan():
            stats.heap_fetches += 1
            yield doc

    def _try_index_match(
        self, collection: Collection, match: dict[str, Any], stats: QueryStats
    ) -> tuple[Iterator[dict[str, Any]], bool, str] | None:
        """Serve an equality or range $match from an index when possible.

        Returns ``(document iterator, fully_consumed, field)``;
        ``fully_consumed`` is False when the probe covers only part of the
        predicate (an ``$and`` of equalities — expression 3's shape — or
        any range) and the stage must be re-applied as a residual filter.
        """
        equalities, exhaustive = self._extract_equalities(match)
        for field, value in equalities:
            if not collection.has_index(field):
                continue

            def probe(field: str = field, value: Any = value) -> Iterator[dict[str, Any]]:
                for rid in collection.index(field).search(index_key(value)):
                    stats.index_entries += 1
                    stats.heap_fetches += 1
                    yield collection.fetch(rid)

            fully_consumed = exhaustive and len(equalities) == 1
            return probe(), fully_consumed, field
        for field, bounds in _expr_ranges(match).items():
            # Missing and null fields are not indexed, so only a range with
            # a concrete lower bound (which excludes them) may use the index.
            if "low" not in bounds or not collection.has_index(field):
                continue

            def range_scan(field: str = field, bounds: dict = bounds) -> Iterator[dict[str, Any]]:
                low, low_inclusive = bounds["low"]
                high, high_inclusive = bounds.get("high", (None, True))
                for _key, rid in collection.index(field).scan(
                    index_key(low),
                    None if high is None else index_key(high),
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                ):
                    stats.index_entries += 1
                    stats.heap_fetches += 1
                    yield collection.fetch(rid)

            return range_scan(), False, field
        return None

    def _extract_equalities(
        self, match: dict[str, Any]
    ) -> tuple[list[tuple[str, Any]], bool]:
        """Field-equals-constant conjuncts of a $match, plus exhaustiveness."""
        if len(match) != 1:
            return [], False
        key, condition = next(iter(match.items()))
        if key == "$expr":
            return self._expr_equalities(condition)
        if not key.startswith("$") and not isinstance(condition, dict):
            return [(key, condition)], True
        return [], False

    def _expr_equalities(self, expr: Any) -> tuple[list[tuple[str, Any]], bool]:
        if not isinstance(expr, dict) or len(expr) != 1:
            return [], False
        op, operand = next(iter(expr.items()))
        if op == "$eq":
            left, right = operand
            if (
                isinstance(left, str)
                and left.startswith("$")
                and not left.startswith("$$")
                and not (isinstance(right, (str, dict)) and str(right).startswith("$"))
            ):
                return [(left[1:], right)], True
            return [], False
        if op == "$and":
            found: list[tuple[str, Any]] = []
            for member in operand:
                member_eqs, _ = self._expr_equalities(member)
                found.extend(member_eqs)
            # $and is never exhaustive here: other conjuncts must re-check.
            return found, False
        return [], False

    def _try_index_sort(
        self,
        collection: Collection,
        stages: list[dict[str, Any]],
        stats: QueryStats,
    ) -> tuple[Iterator[dict[str, Any]], list[dict[str, Any]], str] | None:
        """Serve a leading $sort (with downstream $limit) by index order."""
        sort_spec = stages[0]["$sort"]
        if len(sort_spec) != 1:
            return None
        field, direction = next(iter(sort_spec.items()))
        if not collection.has_index(field):
            return None
        limit: int | None = None
        for stage in stages[1:]:
            if "$limit" in stage:
                limit = int(stage["$limit"])
                break
            if not any(name in stage for name in _SOURCE_TRANSPARENT_STAGES):
                break

        def ordered() -> Iterator[dict[str, Any]]:
            produced = 0
            for _key, rid in collection.index(field).scan(reverse=direction < 0):
                stats.index_entries += 1
                stats.heap_fetches += 1
                yield collection.fetch(rid)
                produced += 1
                if limit is not None and produced >= limit:
                    return

        return ordered(), stages[1:], field

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def _apply_stage(
        self,
        collection: Collection,
        docs: Iterable[dict[str, Any]],
        stage: dict[str, Any],
        stats: QueryStats,
    ) -> Iterable[Any]:
        if len(stage) != 1:
            raise ExecutionError(f"pipeline stage must have one operator: {stage}")
        op, spec = next(iter(stage.items()))
        if op == "$match":
            return self._stage_match(docs, spec)
        if op == "$project":
            return self._stage_project(docs, spec)
        if op == "$addFields":
            return self._stage_add_fields(docs, spec)
        if op == "$group":
            return self._stage_group(docs, spec)
        if op == "$sort":
            return self._stage_sort(docs, spec)
        if op == "$limit":
            return self._stage_limit(docs, int(spec))
        if op == "$skip":
            return self._stage_skip(docs, int(spec))
        if op == "$count":
            return self._stage_count(docs, str(spec))
        if op == "$unwind":
            return self._stage_unwind(docs, spec)
        if op == "$lookup":
            return self._stage_lookup(docs, spec, stats)
        if op == "$out":
            return self._stage_out(docs, spec)
        raise ExecutionError(f"unsupported pipeline stage {op!r}")

    def _stage_match(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        matches = compile_match(spec)
        return (doc for doc in docs if matches(doc))

    def _stage_project(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        if all(value in (0, False) for value in spec.values()):
            excluded = set(spec)
            for doc in docs:
                yield {key: value for key, value in doc.items() if key not in excluded}
            return
        keep_id = spec.get("_id", 1) not in (0, False)
        # One step per non-_id key, in spec order: include a field, drop
        # one already copied, or compute one.
        steps: list[tuple[str, str, Any]] = []
        for key, value in spec.items():
            if key == "_id":
                continue
            if value in (1, True):
                steps.append(("include", key, compile_field(key)))
            elif value in (0, False):
                steps.append(("exclude", key, None))
            else:
                steps.append(("compute", key, compile_expr(value)))
        if all(kind == "include" and "." not in key for kind, key, _fn in steps):
            # The common inclusion projection: a precomputed field list.
            fields = [key for _kind, key, _fn in steps]
            for doc in docs:
                out: dict[str, Any] = {}
                if keep_id and "_id" in doc:
                    out["_id"] = doc["_id"]
                for key in fields:
                    value = doc.get(key, SENTINEL_MISSING)
                    if value is not SENTINEL_MISSING:
                        out[key] = value
                yield out
            return
        for doc in docs:
            out = {}
            if keep_id and "_id" in doc:
                out["_id"] = doc["_id"]
            for kind, key, fn in steps:
                if kind == "exclude":
                    out.pop(key, None)
                    continue
                value = fn(doc)
                if value is not SENTINEL_MISSING:
                    out[key] = value
            yield out

    def _stage_add_fields(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        fields = [(key, compile_expr(value)) for key, value in spec.items()]
        for doc in docs:
            out = dict(doc)
            for key, fn in fields:
                computed = fn(doc)
                if computed is not SENTINEL_MISSING:
                    out[key] = computed
            yield out

    def _stage_group(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        id_spec = spec.get("_id", None)
        # A constant _id (``{}`` for a whole-collection aggregate) is one
        # group: its value and hash key are computed once, not per document.
        fixed_id = constant_value(id_spec)
        group_of = compile_expr(id_spec) if fixed_id is NOT_CONSTANT else None
        fixed_key = _hashable(fixed_id) if group_of is None else None
        accumulators = [
            (name, agg_spec, _compile_accumulator_argument(agg_spec))
            for name, agg_spec in spec.items()
            if name != "_id"
        ]
        groups = SpillableGroups(self.memory)
        try:
            for doc in docs:
                if group_of is None:
                    group_id, key = fixed_id, fixed_key
                else:
                    group_id = group_of(doc)
                    key = _hashable(group_id)
                entry = groups.get(key)
                if entry is None:
                    entry = (
                        [_make_accumulator(agg_spec) for _name, agg_spec, _fn in accumulators],
                        group_id,
                    )
                    groups.insert(key, entry, estimate_record_bytes(group_id))
                for acc, (_name, _spec, argument) in zip(entry[0], accumulators):
                    acc.add(argument(doc))
            for accs, group_id in groups.finalized(_merge_doc_groups):
                out = {"_id": group_id}
                for acc, (name, _spec, _fn) in zip(accs, accumulators):
                    out[name] = acc.result()
                yield out
        finally:
            groups.close()

    def _stage_sort(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        # One stable composite-key sort with per-key direction — equivalent
        # to the reversed sequence of stable single-key sorts MongoDB
        # specifies — so the spill path can merge runs on the same keys.
        fields: list[tuple[Any, bool]] | None = None
        sorter = SpillSorter(self.memory)
        try:
            for doc in docs:
                if fields is None:
                    # Compiled at the first document: a malformed direction
                    # fails only when there is something to sort.
                    fields = [(compile_field(f), d < 0) for f, d in spec.items()]
                key = []
                for getter, descending in fields:
                    part = index_key(_missing_to_none(getter(doc)))
                    key.append(Descending(part) if descending else part)
                sorter.add(tuple(key), doc)
            yield from sorter.sorted_records()
        finally:
            sorter.close()

    def _stage_limit(self, docs: Iterable[dict], limit: int) -> Iterator[dict]:
        produced = 0
        for doc in docs:
            if produced >= limit:
                return
            yield doc
            produced += 1

    def _stage_skip(self, docs: Iterable[dict], count: int) -> Iterator[dict]:
        skipped = 0
        for doc in docs:
            if skipped < count:
                skipped += 1
                continue
            yield doc

    def _stage_count(self, docs: Iterable[dict], name: str) -> Iterator[dict]:
        total = sum(1 for _doc in docs)
        yield {name: total}

    def _stage_unwind(self, docs: Iterable[dict], spec: Any) -> Iterator[dict]:
        if isinstance(spec, str):
            spec = {"path": spec}
        path = spec["path"]
        if not path.startswith("$"):
            raise ExecutionError("$unwind path must start with '$'")
        field = path[1:]
        value_of = compile_field(field)
        preserve = bool(spec.get("preserveNullAndEmptyArrays", False))
        for doc in docs:
            value = value_of(doc)
            if isinstance(value, list):
                if not value and preserve:
                    yield doc
                for item in value:
                    out = dict(doc)
                    out[field] = item
                    yield out
            elif value is SENTINEL_MISSING or value is None:
                if preserve:
                    yield doc
            else:
                yield doc

    def _stage_lookup(
        self, docs: Iterable[dict], spec: dict, stats: QueryStats
    ) -> Iterator[dict]:
        foreign = self._db.collection(spec["from"])
        if getattr(foreign, "sharded", False):
            raise UnsupportedOperationError(
                "$lookup requires the foreign collection to be unsharded"
            )
        as_field = spec["as"]
        if "pipeline" in spec:
            yield from self._lookup_pipeline(docs, foreign, spec, as_field, stats)
            return
        local_field = spec["localField"]
        foreign_field = spec["foreignField"]
        use_index = foreign.has_index(foreign_field)
        local_value, foreign_value = compile_field(local_field), compile_field(foreign_field)
        for doc in docs:
            value = local_value(doc)
            matches: list[dict]
            if value is SENTINEL_MISSING or value is None:
                matches = []
            elif use_index:
                matches = []
                for match in foreign.index_lookup(foreign_field, value):
                    stats.index_entries += 1
                    stats.heap_fetches += 1
                    matches.append(match)
            else:
                matches = [
                    other for other in foreign.scan()
                    if foreign_value(other) == value
                ]
                stats.heap_fetches += len(foreign)
            out = dict(doc)
            out[as_field] = matches
            yield out

    def _lookup_pipeline(
        self,
        docs: Iterable[dict],
        foreign: Collection,
        spec: dict,
        as_field: str,
        stats: QueryStats,
    ) -> Iterator[dict]:
        let_spec = spec.get("let", {})
        sub_pipeline = spec["pipeline"]
        probe_field = _index_probe_field(sub_pipeline, let_spec, foreign)
        bindings = [(name, compile_expr(expr)) for name, expr in let_spec.items()]
        # Without an index probe, the sub-pipeline's $match stages compile
        # once against a scope the loop rebinds to each outer document's
        # `let` variables.
        scope: dict[str, Any] = {}
        sub_matches = [
            compile_match(stage["$match"], scope)
            for stage in sub_pipeline
            if "$match" in stage and probe_field is None
        ]
        for doc in docs:
            variables = {name: fn(doc) for name, fn in bindings}
            if probe_field is not None:
                var_name = probe_field[1]
                value = variables.get(var_name, SENTINEL_MISSING)
                matches = []
                if value is not SENTINEL_MISSING and value is not None:
                    for match in foreign.index_lookup(probe_field[0], value):
                        stats.index_entries += 1
                        stats.heap_fetches += 1
                        matches.append(match)
            else:
                scope.clear()
                scope.update(variables)
                matches = [
                    other for other in foreign.scan()
                    if all(sub_match(other) for sub_match in sub_matches)
                ]
                stats.heap_fetches += len(foreign)
            out = dict(doc)
            out[as_field] = matches
            yield out

    def _stage_out(self, docs: Iterable[dict], target: Any) -> Iterator[dict]:
        name = target if isinstance(target, str) else target["coll"]
        materialized = list(docs)
        self._db.replace_collection(name, materialized)
        return iter(())


# ----------------------------------------------------------------------
# Matching and accumulators
# ----------------------------------------------------------------------


def compile_match(spec: dict, scope: dict[str, Any] | None = None) -> Callable[[Any], Any]:
    """Compile a $match specification into a truthy-valued predicate."""
    tests: list[Callable[[Any], Any]] = []
    for key, condition in spec.items():
        if key == "$expr":
            tests.append(compile_expr(condition, scope))
        elif isinstance(condition, dict) and any(k.startswith("$") for k in condition):
            # Field form ``{field: {$op: operand}}``: the operator applied
            # to the field's value and the operand.
            tests.extend(
                compile_expr({op: [FieldRef(key), operand]}, scope)
                for op, operand in condition.items()
            )
        else:
            tests.append(_field_equals(key, condition))
    if len(tests) == 1:
        return tests[0]

    def conjunction(doc: Any) -> bool:
        for test in tests:
            if not test(doc):
                return False
        return True

    return conjunction


def _field_equals(key: str, value: Any) -> Callable[[Any], bool]:
    getter = compile_field(key)
    return lambda doc: not getter(doc) != value


_RANGE_OPS = {"$gt": ("low", False), "$gte": ("low", True), "$lt": ("high", False), "$lte": ("high", True)}


def _expr_ranges(match: dict[str, Any]) -> dict[str, dict[str, tuple[Any, bool]]]:
    """Constant range bounds per field in a ``$match`` ``$expr`` conjunction.

    ``{"$gte": ["$f", 38]}`` gives ``{"f": {"low": (38, True)}}``; conjuncts
    under (nested) ``$and`` combine, the first bound of each side winning.
    Only non-null scalar constants count.
    """
    if list(match) != ["$expr"]:
        return {}
    ranges: dict[str, dict[str, tuple[Any, bool]]] = {}
    pending = [match["$expr"]]
    while pending:
        expr = pending.pop(0)
        if not isinstance(expr, dict) or len(expr) != 1:
            continue
        op, operand = next(iter(expr.items()))
        if op == "$and" and isinstance(operand, list):
            pending.extend(operand)
            continue
        if op not in _RANGE_OPS or not isinstance(operand, list) or len(operand) != 2:
            continue
        field, value = operand
        if (
            isinstance(field, str)
            and field.startswith("$")
            and not field.startswith("$$")
            and isinstance(value, (int, float, str))
            and not (isinstance(value, str) and value.startswith("$"))
            and value == value  # NaN has no place in the index order
        ):
            side, inclusive = _RANGE_OPS[op]
            ranges.setdefault(field[1:], {}).setdefault(side, (value, inclusive))
    return ranges


def _index_probe_field(
    sub_pipeline: list[dict], let_spec: dict, foreign: Collection
) -> tuple[str, str] | None:
    """Detect ``[{$match:{}}..., {$match:{$expr:{$eq:["$f","$$v"]}}}]``.

    Returns ``(foreign_field, variable_name)`` when the sub-pipeline is an
    index-probeable correlated equality — MongoDB's index nested-loop join.
    """
    effective = [stage for stage in sub_pipeline if stage != {"$match": {}}]
    if len(effective) != 1 or "$match" not in effective[0]:
        return None
    match = effective[0]["$match"]
    if list(match) != ["$expr"]:
        return None
    expr = match["$expr"]
    if not (isinstance(expr, dict) and list(expr) == ["$eq"]):
        return None
    left, right = expr["$eq"]
    if (
        isinstance(left, str)
        and left.startswith("$")
        and not left.startswith("$$")
        and isinstance(right, str)
        and right.startswith("$$")
    ):
        field, var = left[1:], right[2:]
        if var in let_spec and foreign.has_index(field):
            return field, var
    return None


class _Accumulator:
    def add(self, value: Any) -> None:
        raise NotImplementedError

    def merge(self, other: "_Accumulator") -> None:
        """Fold another accumulator's state into this one (spill merge)."""
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _SumAcc(_Accumulator):
    def __init__(self) -> None:
        self.total = 0

    def add(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value

    def merge(self, other: "_SumAcc") -> None:
        self.total += other.total

    def result(self) -> Any:
        return self.total


class _MinMaxAcc(_Accumulator):
    """$min/$max in BSON order; the best value's key is kept beside it."""

    def __init__(self, is_min: bool) -> None:
        self.is_min = is_min
        self.best: Any = None
        self.best_key: Any = None

    def add(self, value: Any) -> None:
        if value is SENTINEL_MISSING or value is None:
            return
        key = index_key(value)
        if self.best is None or (key < self.best_key if self.is_min else key > self.best_key):
            self.best = value
            self.best_key = key

    def merge(self, other: "_MinMaxAcc") -> None:
        if other.best is not None:
            self.add(other.best)

    def result(self) -> Any:
        return self.best


class _AvgAcc(_Accumulator):
    """Mean from exact (sum, count) partial state.

    Integer sums stay integers until the shared finalizer's single
    division — the same state and finalizer the cluster coordinator
    combines per-shard partials through, making the distributed $avg
    bit-identical on integer fields.
    """

    def __init__(self) -> None:
        self.total: Any = 0
        self.count = 0

    def add(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value
            self.count += 1

    def merge(self, other: "_AvgAcc") -> None:
        self.total += other.total
        self.count += other.count

    def result(self) -> Any:
        return finalize_avg(self.total, self.count)


class _StdAcc(_Accumulator):
    """$stdDevPop from (count, sum, sum-of-squares) partial state.

    Decomposable form instead of Welford's recurrence: exact in integer
    arithmetic until the finalizer, and identical to what the cluster
    coordinator combines across shards.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total: Any = 0
        self.total_sq: Any = 0

    def add(self, value: Any) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        self.count += 1
        self.total += value
        self.total_sq += value * value

    def merge(self, other: "_StdAcc") -> None:
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq

    def result(self) -> Any:
        return finalize_std(self.count, self.total, self.total_sq)


def _merge_doc_groups(
    prior: tuple[list[_Accumulator], Any], later: tuple[list[_Accumulator], Any]
) -> tuple[list[_Accumulator], Any]:
    """Fold a later spill run's group state into the earlier one."""
    prior_accs, group_id = prior
    later_accs, _later_id = later
    for acc, other in zip(prior_accs, later_accs):
        acc.merge(other)
    return (prior_accs, group_id)


def _compile_accumulator_argument(spec: Any) -> Callable[[Any], Any]:
    """The accumulator's argument expression, compiled.

    A malformed accumulator compiles to a no-op: :func:`_make_accumulator`
    raises for it before any argument is evaluated.
    """
    if isinstance(spec, dict) and len(spec) == 1:
        return compile_expr(next(iter(spec.values())))
    return lambda doc: None


def _make_accumulator(spec: dict) -> _Accumulator:
    if len(spec) != 1:
        raise ExecutionError(f"accumulator must have one operator: {spec}")
    op = next(iter(spec))
    if op == "$sum":
        return _SumAcc()
    if op == "$max":
        return _MinMaxAcc(is_min=False)
    if op == "$min":
        return _MinMaxAcc(is_min=True)
    if op == "$avg":
        return _AvgAcc()
    if op == "$stdDevPop":
        return _StdAcc()
    raise ExecutionError(f"unsupported accumulator {op!r}")


def _hashable(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if value is SENTINEL_MISSING:
        return ("__missing__",)
    return value


def _missing_to_none(value: Any) -> Any:
    return None if value is SENTINEL_MISSING else value
