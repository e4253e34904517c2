"""Cypher execution over the graph store.

The executor reproduces the Neo4j behaviours the paper's results depend on:

- ``MATCH (t:L) RETURN COUNT(*)`` answers from the count store (O(1));
- a ``WITH t WHERE ...`` immediately after a MATCH is merged into the MATCH
  (Neo4j's planner does the same), so indexed predicates become index seeks;
- ``WITH t ORDER BY t.p DESC ... RETURN t LIMIT k`` over an indexed property
  becomes a bounded, backward index scan;
- a second MATCH pattern joined by a property-equality WHERE becomes an
  index nested-loop join (expression 12);
- property reads go through the store's record layout, so numeric
  predicates never touch the string store (auditable via
  ``stats.string_store_reads``).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError
from repro.exec.memory import MemoryBudget, estimate_record_bytes
from repro.obs.profile import OpProfile, profiled_rows
from repro.graphdb.cypher_ast import (
    AGGREGATES,
    Bin,
    CypherExpr,
    CypherQuery,
    Func,
    IsNull,
    Lit,
    MapLiteral,
    MapProjection,
    MatchClause,
    OrderKey,
    Pattern,
    Prop,
    Un,
    Var,
    WithClause,
    WithItem,
)
from repro.graphdb.store import GraphStore
from repro.sqlengine.result import QueryStats
from repro.storage.keys import SAME_RANK_TYPES, SENTINEL_MISSING, index_key


class NodeHandle:
    """A lazily read node: property access goes through the record layout."""

    __slots__ = ("store", "node_id")

    def __init__(self, store: GraphStore, node_id: int) -> None:
        self.store = store
        self.node_id = node_id

    def get(self, name: str) -> Any:
        value = self.store.read_property(self.node_id, name)
        # Cypher surfaces absent properties as null.
        return None if value is SENTINEL_MISSING else value

    def materialize(self) -> dict[str, Any]:
        return self.store.node_properties(self.node_id)

    def __repr__(self) -> str:
        return f"NodeHandle({self.node_id})"


Row = dict[str, Any]


class CypherExecutor:
    """Executes one parsed Cypher query."""

    def __init__(
        self,
        store: GraphStore,
        stats: QueryStats,
        memory: MemoryBudget | None = None,
    ) -> None:
        self._store = store
        self._stats = stats
        # Graph rows carry NodeHandle objects with live store references,
        # so blocking stages here account bytes against the budget but
        # always materialize in memory (the documented fallback) rather
        # than spilling pickled runs to disk.
        self._memory = memory if memory is not None else MemoryBudget()
        #: Per-clause profile of the last ``profile=True`` execution.
        self.last_profile: OpProfile | None = None

    # ==================================================================
    def run(
        self, query: CypherQuery, *, profile: bool = False, stream: bool = False
    ) -> list[Any] | Iterator[Any]:
        self.last_profile = None
        clauses = _normalize(query)
        fast_count = self._try_count_store(clauses)
        if fast_count is not None:
            if profile:
                node = OpProfile("CountStoreLookup")
                node.rows_out = len(fast_count)
                self.last_profile = node
            return fast_count

        string_reads_before = self._store.strings.reads
        # Clauses chain as lazy generators (Neo4j's row pipeline), so a
        # trailing LIMIT stops upstream work — expressions 2, 5, and 10
        # never touch more than a handful of nodes.  In analyze mode each
        # clause's generator is wrapped so the chain records per-clause
        # wall time and row counts.
        rows: Iterator[Row] = iter([{}])
        bound_vars: set[str] = set()
        final_items: tuple[WithItem, ...] | None = None
        node: OpProfile | None = None
        for clause in clauses:
            if isinstance(clause, _MatchStep):
                rows = self._execute_match(rows, clause, bound_vars)
                bound_vars = bound_vars | {pattern.var for pattern in clause.patterns}
                desc = "Match({})".format(
                    ", ".join(
                        f"{p.var}:{p.label}" if p.label else p.var
                        for p in clause.patterns
                    )
                )
            else:
                assert isinstance(clause, WithClause)
                rows = self._execute_with(rows, clause)
                bound_vars = {item.output_name() for item in clause.items}
                if clause.is_return:
                    final_items = clause.items
                desc = "Return" if clause.is_return else "With"
                if clause.where is not None:
                    desc += "+Filter"
            if profile:
                parent = OpProfile(desc, children=[node] if node is not None else [])
                rows = profiled_rows(parent, rows)
                node = parent
        if final_items is None:
            raise ExecutionError("query has no RETURN clause")
        if stream and not profile:
            return self._emit(rows, final_items, string_reads_before)
        out = [self._materialize_output(row, final_items) for row in rows]
        self._stats.string_store_reads += self._store.strings.reads - string_reads_before
        if profile:
            self.last_profile = node
        return out

    def _emit(
        self,
        rows: Iterator[Row],
        final_items: tuple[WithItem, ...],
        string_reads_before: int,
    ) -> Iterator[Any]:
        """Stream output records; stats become final once drained."""
        try:
            for row in rows:
                yield self._materialize_output(row, final_items)
        finally:
            self._stats.string_store_reads += (
                self._store.strings.reads - string_reads_before
            )

    def _account_rows(self, buffered: list[Row]) -> Iterator[Row]:
        """Charge a materialized row buffer against the memory budget.

        The bytes stay reserved while downstream clauses drain the
        buffer and are released when it is exhausted (or the query
        errors), so ``peak_bytes`` reflects the buffer's lifetime.
        """
        nbytes = sum(estimate_record_bytes(row) for row in buffered)
        self._memory.reserve(nbytes)
        try:
            yield from buffered
        finally:
            self._memory.release(nbytes)

    # ------------------------------------------------------------------
    # Count-store fast path
    # ------------------------------------------------------------------
    def _try_count_store(self, clauses: list[Any]) -> list[Any] | None:
        if len(clauses) != 2:
            return None
        match, ret = clauses
        if not isinstance(match, _MatchStep) or not isinstance(ret, WithClause):
            return None
        if (
            len(match.patterns) == 1
            and match.patterns[0].label is not None
            and match.where is None
            and match.order is None
            and ret.is_return
            and ret.where is None
            and not ret.order_by
            and len(ret.items) == 1
        ):
            expr = ret.items[0].expr
            if isinstance(expr, Func) and expr.name.lower() == "count" and expr.star:
                count = self._store.counts.node_count(match.patterns[0].label)
                return [count]
        return None

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------
    def _execute_match(
        self, rows: Iterator[Row], step: "_MatchStep", outer_vars: set[str]
    ) -> Iterator[Row]:
        conjuncts = _conjuncts(step.where) if step.where is not None else []
        bound = set(outer_vars)
        for pattern in step.patterns:
            rows, conjuncts = self._bind_pattern(rows, pattern, conjuncts, step, bound)
            bound.add(pattern.var)
        if conjuncts:
            predicate = compile_expr(_conjoin(conjuncts))
            rows = (row for row in rows if predicate(row) is True)
        if step.order is not None and not step.order_served:
            # The ORDER BY folded into this step could not ride an index;
            # sort explicitly (Neo4j's fallback Sort operator).
            var, prop, descending = step.order
            order_value = compile_expr(Prop(var, prop))
            materialized = list(rows)
            materialized.sort(
                key=lambda row: index_key(order_value(row)),
                reverse=descending,
            )
            rows = self._account_rows(materialized)
        return rows

    def _bind_pattern(
        self,
        rows: Iterator[Row],
        pattern: Pattern,
        conjuncts: list[CypherExpr],
        step: "_MatchStep",
        bound_vars: set[str],
    ) -> tuple[Iterator[Row], list[CypherExpr]]:
        if pattern.var in bound_vars:
            # Re-matching an already bound variable (``MATCH (t), (r:L)``)
            # adds no bindings.
            return rows, conjuncts

        # Index nested-loop join: new.p = bound.q on an indexed property.
        if pattern.label is not None and bound_vars:
            join = self._find_join_conjunct(pattern, bound_vars, conjuncts)
            if join is not None:
                position, new_prop, bound_expr = join
                remaining = conjuncts[:position] + conjuncts[position + 1:]
                return self._index_join(rows, pattern, new_prop, bound_expr), remaining

        # Seeding scan: pick an index seek / range when the predicate allows.
        candidates, remaining = self._seed_candidates(pattern, conjuncts, step)
        if not bound_vars:
            # Consume the seed row stream (a single empty row) eagerly; the
            # candidate walk itself stays lazy.
            def seed() -> Iterator[Row]:
                var, store = pattern.var, self._store
                for node_id in candidates:
                    yield {var: NodeHandle(store, node_id)}

            return seed(), remaining

        def expand() -> Iterator[Row]:
            node_ids = list(candidates)  # re-iterated per outer row
            for row in rows:
                for node_id in node_ids:
                    merged = dict(row)
                    merged[pattern.var] = NodeHandle(self._store, node_id)
                    yield merged

        return expand(), remaining

    def _find_join_conjunct(
        self, pattern: Pattern, bound_vars: set[str], conjuncts: list[CypherExpr]
    ) -> tuple[int, str, CypherExpr] | None:
        for position, part in enumerate(conjuncts):
            if not (isinstance(part, Bin) and part.op == "="):
                continue
            left, right = part.left, part.right
            for new_side, bound_side in ((left, right), (right, left)):
                if (
                    isinstance(new_side, Prop)
                    and new_side.var == pattern.var
                    and isinstance(bound_side, Prop)
                    and bound_side.var in bound_vars
                    and self._store.has_index(pattern.label, new_side.name)
                ):
                    return position, new_side.name, bound_side
        return None

    def _index_join(
        self, rows: Iterator[Row], pattern: Pattern, prop: str, bound_expr: CypherExpr
    ) -> Iterator[Row]:
        tree = self._store.index(pattern.label, prop)
        probe_value = compile_expr(bound_expr)
        for row in rows:
            value = probe_value(row)
            if value is None:
                continue
            for node_id in tree.search(index_key(value)):
                self._stats.index_entries += 1
                merged = dict(row)
                merged[pattern.var] = NodeHandle(self._store, node_id)
                yield merged

    def _seed_candidates(
        self, pattern: Pattern, conjuncts: list[CypherExpr], step: "_MatchStep"
    ) -> tuple[Iterator[int], list[CypherExpr]]:
        label = pattern.label
        if label is None:
            raise ExecutionError(f"pattern ({pattern.var}) must carry a label")

        # Equality seek.
        for position, part in enumerate(conjuncts):
            matched = _match_prop_literal(part, pattern.var)
            if matched is None:
                continue
            op, prop, value = matched
            if op == "=" and self._store.has_index(label, prop):
                remaining = conjuncts[:position] + conjuncts[position + 1:]
                return self._index_seek(label, prop, value), remaining
        # Range scan (collect both bounds on one property).
        bounds: dict[str, dict[str, Any]] = {}
        for part in conjuncts:
            matched = _match_prop_literal(part, pattern.var)
            if matched is None:
                continue
            op, prop, value = matched
            if op in (">", ">=", "<", "<=") and self._store.has_index(label, prop):
                entry = bounds.setdefault(prop, {})
                if op in (">", ">="):
                    entry["low"] = value
                    entry["low_inc"] = op == ">="
                else:
                    entry["high"] = value
                    entry["high_inc"] = op == "<="
        for prop, entry in bounds.items():
            if "low" in entry or "high" in entry:
                remaining = [
                    part
                    for part in conjuncts
                    if not (
                        (m := _match_prop_literal(part, pattern.var)) is not None
                        and m[1] == prop
                        and m[0] in (">", ">=", "<", "<=")
                    )
                ]
                return (
                    self._index_range(label, prop, entry),
                    remaining,
                )

        # Ordered scan (ORDER BY ... LIMIT pushed into the match).
        if step.order is not None:
            order_var, order_prop, descending = step.order
            if order_var == pattern.var and self._store.has_index(label, order_prop):
                step.order_served = True
                return (
                    self._index_ordered(label, order_prop, descending, step.limit_hint),
                    conjuncts,
                )

        return self._label_scan(label), conjuncts

    def _label_scan(self, label: str) -> Iterator[int]:
        self._stats.full_scans += 1
        for node_id in self._store.label_scan(label):
            self._stats.heap_fetches += 1
            yield node_id

    def _index_seek(self, label: str, prop: str, value: Any) -> Iterator[int]:
        for node_id in self._store.index(label, prop).search(index_key(value)):
            self._stats.index_entries += 1
            yield node_id

    def _index_range(self, label: str, prop: str, entry: dict[str, Any]) -> Iterator[int]:
        low = index_key(entry["low"]) if "low" in entry else (2,)
        high = index_key(entry["high"]) if "high" in entry else None
        for _key, node_id in self._store.index(label, prop).scan(
            low,
            high,
            low_inclusive=entry.get("low_inc", True),
            high_inclusive=entry.get("high_inc", True),
        ):
            self._stats.index_entries += 1
            yield node_id

    def _index_ordered(
        self, label: str, prop: str, descending: bool, limit: int | None
    ) -> Iterator[int]:
        produced = 0
        for _key, node_id in self._store.index(label, prop).scan(reverse=descending):
            self._stats.index_entries += 1
            yield node_id
            produced += 1
            if limit is not None and produced >= limit:
                return

    # ------------------------------------------------------------------
    # WITH / RETURN
    # ------------------------------------------------------------------
    def _execute_with(self, rows: Iterator[Row], clause: WithClause) -> Iterator[Row]:
        if clause.has_aggregates():
            buffered = list(rows)
            nbytes = sum(estimate_record_bytes(row) for row in buffered)
            self._memory.reserve(nbytes)
            try:
                aggregated = self._aggregate(buffered, clause.items)
            finally:
                self._memory.release(nbytes)
            rows = self._account_rows(aggregated)
        else:
            projection = [(item.output_name(), compile_expr(item.expr)) for item in clause.items]
            rows = ({name: fn(row) for name, fn in projection} for row in rows)
        if clause.where is not None:
            predicate = compile_expr(clause.where)
            rows = (row for row in rows if predicate(row) is True)
        if clause.order_by:
            rows = self._account_rows(self._order(list(rows), clause.order_by))
        if clause.distinct:
            rows = self._distinct(rows)
        if clause.limit is not None:
            rows = itertools.islice(rows, clause.limit)
        return rows

    def _distinct(self, rows: Iterator[Row]) -> Iterator[Row]:
        seen: set = set()
        for row in rows:
            key = _hashable(_plain(row))
            if key not in seen:
                seen.add(key)
                yield row

    def _order(self, rows: list[Row], keys: tuple[OrderKey, ...]) -> list[Row]:
        for key in reversed(keys):
            value = compile_expr(key.expr)
            rows.sort(key=lambda row: index_key(value(row)), reverse=key.descending)
        return rows

    # ------------------------------------------------------------------
    # Implicit grouping (Cypher aggregates)
    # ------------------------------------------------------------------
    def _aggregate(self, rows: list[Row], items: tuple[WithItem, ...]) -> list[Row]:
        group_exprs: list[CypherExpr] = []
        agg_calls: list[Func] = []

        def classify(expr: CypherExpr) -> None:
            if isinstance(expr, Func) and expr.name.lower() in AGGREGATES:
                agg_calls.append(expr)
            elif isinstance(expr, (MapLiteral, MapProjection)):
                entries = expr.entries
                for _key, value in entries:
                    classify(value)
                if isinstance(expr, MapProjection) and (expr.include_all or expr.extra_vars):
                    group_exprs.append(Var(expr.var))
            elif isinstance(expr, Bin):
                classify(expr.left)
                classify(expr.right)
            elif isinstance(expr, (Un, IsNull)):
                classify(expr.operand)
            elif not isinstance(expr, Lit):
                group_exprs.append(expr)

        for item in items:
            classify(item.expr)

        key_fns = [compile_expr(expr) for expr in group_exprs]
        arguments = [
            None if call.star else _compile_first_argument(call) for call in agg_calls
        ]
        key_of = _group_key(key_fns)
        groups: dict[tuple, tuple[list["_Acc"], Row]] = {}
        for row in rows:
            key = key_of(row)
            entry = groups.get(key)
            if entry is None:
                entry = ([_make_acc(call) for call in agg_calls], row)
                groups[key] = entry
            for argument, acc in zip(arguments, entry[0]):
                acc.add_row()
                if argument is not None:
                    acc.add(argument(row))
        if not group_exprs and not groups:
            groups[()] = ([_make_acc(call) for call in agg_calls], {})
        # Output items compile once; each group refills the results dict
        # their aggregate calls read from.
        results: dict[int, Any] = {}
        outputs = [(item.output_name(), compile_expr(item.expr, results)) for item in items]
        out: list[Row] = []
        for accs, representative in groups.values():
            results.clear()
            results.update((id(call), acc.result()) for call, acc in zip(agg_calls, accs))
            out.append({name: fn(representative) for name, fn in outputs})
        return out

    # ------------------------------------------------------------------
    def _materialize_output(self, row: Row, items: tuple[WithItem, ...]) -> Any:
        if len(items) == 1:
            return _plain_value(row[items[0].output_name()])
        return {item.output_name(): _plain_value(row[item.output_name()]) for item in items}


def _plain(row: Row) -> dict[str, Any]:
    return {key: _plain_value(value) for key, value in row.items()}


def _plain_value(value: Any) -> Any:
    if isinstance(value, NodeHandle):
        return value.materialize()
    return value


# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------

Compiled = Callable[[Row], Any]


def compile_expr(expr: CypherExpr, aggregates: dict[int, Any] | None = None) -> Compiled:
    """Compile a Cypher expression into a ``row -> value`` closure, once.

    With *aggregates*, an aggregate call reads its result from that dict
    (keyed by the call node's ``id``) when the closure runs, so one
    compiled projection serves every group.  Without it, evaluating an
    aggregate raises.  AND/OR evaluate both operands, and errors surface
    when a closure runs, never at compile time.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return lambda row: value
    if isinstance(expr, Var):
        return _compile_var(expr.name)
    if isinstance(expr, Prop):
        return _compile_prop(expr.var, expr.name)
    if isinstance(expr, Bin):
        return _compile_bin(expr, aggregates)
    if isinstance(expr, Un):
        operand = compile_expr(expr.operand, aggregates)
        if expr.op == "NOT":

            def negation(row: Row) -> Any:
                value = operand(row)
                return None if value is None else not bool(value)

            return negation

        def minus(row: Row) -> Any:
            value = operand(row)
            return None if value is None else -value

        return minus
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, aggregates)
        negated = expr.negated
        return lambda row: (operand(row) is None) is not negated
    if isinstance(expr, MapLiteral):
        entries = [(key, compile_expr(value, aggregates)) for key, value in expr.entries]
        return lambda row: {key: _plain_value(fn(row)) for key, fn in entries}
    if isinstance(expr, MapProjection):
        return _compile_map_projection(expr, aggregates)
    if isinstance(expr, Func):
        return _compile_func(expr, aggregates)

    def unsupported(row: Row) -> Any:
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")

    return unsupported


def _compile_var(name: str) -> Compiled:
    def var(row: Row) -> Any:
        try:
            return row[name]
        except KeyError:
            raise ExecutionError(f"unbound variable {name!r}") from None

    return var


def _compile_prop(var: str, name: str) -> Compiled:
    def prop(row: Row) -> Any:
        base = row.get(var)
        if base.__class__ is NodeHandle:
            # NodeHandle.get, inlined: the record-layout read, absent as null.
            value = base.store.read_property(base.node_id, name)
            return None if value is SENTINEL_MISSING else value
        if base is None:
            return None
        if isinstance(base, (NodeHandle, dict)):
            return base.get(name)
        raise ExecutionError(f"cannot access property on {type(base).__name__}")

    return prop


def _compile_bin(expr: Bin, aggregates: dict[int, Any] | None) -> Compiled:
    op = expr.op
    left = compile_expr(expr.left, aggregates)
    right = compile_expr(expr.right, aggregates)
    # Kleene AND/OR; both sides are always evaluated.
    if op == "AND":

        def conjunction(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is False or b is False:
                return False
            if a is None or b is None:
                return None
            return bool(a) and bool(b)

        return conjunction
    if op == "OR":

        def disjunction(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is True or b is True:
                return True
            if a is None or b is None:
                return None
            return bool(a) or bool(b)

        return disjunction
    compare = _KEY_COMPARISONS.get(op)
    if compare is not None:
        return _compile_comparison(compare, left, right, expr.right)
    apply = _BINARY.get(op)
    if apply is None:

        def unknown(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            raise ExecutionError(f"unknown operator {op!r}")

        return unknown
    if op in ("=", "!=") and isinstance(expr.right, Lit) and expr.right.value is not None:
        constant = expr.right.value
        return lambda row: None if (a := left(row)) is None else apply(a, constant)

    def binary(row: Row) -> Any:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        try:
            return apply(a, b)
        except (TypeError, ZeroDivisionError):
            return None  # arithmetic on bad types or by zero is null

    return binary


def _compile_comparison(
    compare: Callable[[Any, Any], bool], left: Compiled, right: Compiled, right_expr: CypherExpr
) -> Compiled:
    """Ordering comparison in index-key order, null when either side is."""
    constant = right_expr.value if isinstance(right_expr, Lit) else None
    rank = SAME_RANK_TYPES.get(constant.__class__)
    if rank is not None and constant == constant:  # a non-NaN number or string
        constant_key = index_key(constant)

        def against_constant(row: Row) -> Any:
            value = left(row)
            if value is None:
                return None
            if SAME_RANK_TYPES.get(value.__class__) == rank:
                return compare(value, constant)
            return compare(index_key(value), constant_key)

        return against_constant

    def comparison(row: Row) -> Any:
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        rank_a = SAME_RANK_TYPES.get(a.__class__)
        # ``a is b`` keeps a NaN equal to itself, as its key tuple is.
        if rank_a is not None and rank_a == SAME_RANK_TYPES.get(b.__class__) and a is not b:
            return compare(a, b)
        return compare(index_key(a), index_key(b))

    return comparison


def _compile_map_projection(
    expr: MapProjection, aggregates: dict[int, Any] | None
) -> Compiled:
    var, include_all, extra_vars = expr.var, expr.include_all, expr.extra_vars
    entries = [(key, compile_expr(value, aggregates)) for key, value in expr.entries]

    def map_projection(row: Row) -> dict[str, Any]:
        base = row.get(var)
        out: dict[str, Any] = {}
        if include_all:
            if isinstance(base, NodeHandle):
                out.update(base.materialize())
            elif isinstance(base, dict):
                out.update(base)
        for key, fn in entries:
            out[key] = _plain_value(fn(row))
        for name in extra_vars:
            out[name] = _plain_value(row.get(name))
        return out

    return map_projection


def _compile_func(expr: Func, aggregates: dict[int, Any] | None) -> Compiled:
    name = expr.name.lower()
    if name in AGGREGATES:
        if aggregates is not None:
            slot = id(expr)
            return lambda row: aggregates[slot]

        def outside(row: Row) -> Any:
            raise ExecutionError(f"aggregate {expr.name} outside aggregation context")

        return outside
    args = [compile_expr(arg, aggregates) for arg in expr.args]
    func = _FUNCTIONS.get(name)

    def call(row: Row) -> Any:
        values = [fn(row) for fn in args]  # every argument is evaluated
        if func is None:
            # apoc.convert.* arrives as nested idents; parser flattens to one name.
            raise ExecutionError(f"unknown function {expr.name!r}")
        return None if values[0] is None else func(values[0])

    if len(args) == 1 and func is not None:
        (arg,) = args
        return lambda row: None if (value := arg(row)) is None else func(value)
    return call


_KEY_COMPARISONS = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}

_BINARY = {
    "=": operator.eq,
    "!=": operator.ne,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_FUNCTIONS: dict[str, Callable[[Any], Any]] = {
    "upper": lambda value: str(value).upper(),
    "lower": lambda value: str(value).lower(),
    "tointeger": lambda value: int(float(value)),
    "toint": lambda value: int(float(value)),
    "tostring": str,
    "abs": abs,
    "size": len,
}


# ----------------------------------------------------------------------
# Clause normalization
# ----------------------------------------------------------------------


class _MatchStep:
    """A MATCH with merged predicates and order/limit hints."""

    def __init__(self, clause: MatchClause) -> None:
        self.patterns = clause.patterns
        self.where = clause.where
        self.order: tuple[str, str, bool] | None = None  # (var, prop, desc)
        self.order_served = False  # True once an index provides the order
        self.limit_hint: int | None = None

    def merge_where(self, predicate: CypherExpr) -> None:
        self.where = predicate if self.where is None else Bin("AND", self.where, predicate)


def _normalize(query: CypherQuery) -> list[Any]:
    """Merge passthrough ``WITH t [WHERE/ORDER BY]`` clauses into MATCH steps."""
    steps: list[Any] = []
    clauses = list(query.clauses)
    index = 0
    while index < len(clauses):
        clause = clauses[index]
        if isinstance(clause, MatchClause):
            step = _MatchStep(clause)
            # Consecutive MATCH clauses merge into one step (expression 12's
            # ``MATCH (t:data) MATCH (t), (r:other) WHERE ...``).
            next_index = index + 1
            while next_index < len(clauses) and isinstance(clauses[next_index], MatchClause):
                extra = clauses[next_index]
                step.patterns = step.patterns + extra.patterns
                if extra.where is not None:
                    step.merge_where(extra.where)
                next_index += 1
            # Fold passthrough WITHs (WHERE / ORDER BY hints) into the match.
            while next_index < len(clauses):
                peek = clauses[next_index]
                if not isinstance(peek, WithClause) or peek.is_return:
                    break
                if not peek.is_passthrough() or peek.has_aggregates() or peek.limit is not None:
                    break
                if peek.where is not None:
                    step.merge_where(peek.where)
                if peek.order_by:
                    if len(peek.order_by) == 1 and isinstance(peek.order_by[0].expr, Prop):
                        order = peek.order_by[0]
                        step.order = (order.expr.var, order.expr.name, order.descending)
                    else:
                        break
                next_index += 1
            # A trailing passthrough RETURN with LIMIT bounds an ordered scan.
            if (
                step.order is not None
                and next_index < len(clauses)
                and isinstance(clauses[next_index], WithClause)
                and clauses[next_index].is_return
                and clauses[next_index].is_passthrough()
                and clauses[next_index].limit is not None
            ):
                step.limit_hint = clauses[next_index].limit
            steps.append(step)
            index = next_index
            continue
        steps.append(clause)
        index += 1
    return steps


# ----------------------------------------------------------------------
# Predicate helpers and accumulators
# ----------------------------------------------------------------------


def _conjuncts(expr: CypherExpr) -> list[CypherExpr]:
    if isinstance(expr, Bin) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _conjoin(parts: list[CypherExpr]) -> CypherExpr:
    out = parts[0]
    for part in parts[1:]:
        out = Bin("AND", out, part)
    return out


def _match_prop_literal(expr: CypherExpr, var: str) -> tuple[str, str, Any] | None:
    flipped = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "="}
    if not isinstance(expr, Bin) or expr.op not in flipped:
        return None
    left, right = expr.left, expr.right
    if isinstance(left, Prop) and left.var == var and isinstance(right, Lit):
        return expr.op, left.name, right.value
    if isinstance(right, Prop) and right.var == var and isinstance(left, Lit):
        return flipped[expr.op], right.name, left.value
    return None


class _Acc:
    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_row(self) -> None:
        pass

    def result(self) -> Any:
        raise NotImplementedError


class _CountAcc(_Acc):
    def __init__(self, star: bool) -> None:
        self.star = star
        self.rows = 0
        self.values = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.values += 1

    def add_row(self) -> None:
        self.rows += 1

    def result(self) -> int:
        return self.rows if self.star else self.values


class _MinMaxAcc(_Acc):
    """min/max in index-key order; the best value's key is kept beside it."""

    def __init__(self, is_min: bool) -> None:
        self.is_min = is_min
        self.best: Any = None
        self.best_key: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        key = index_key(value)
        if self.best is None or (key < self.best_key if self.is_min else key > self.best_key):
            self.best = value
            self.best_key = key

    def result(self) -> Any:
        return self.best


class _SumAcc(_Acc):
    def __init__(self) -> None:
        self.total = 0

    def add(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value

    def result(self) -> Any:
        return self.total


class _AvgAcc(_Acc):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self.total += value
            self.count += 1

    def result(self) -> Any:
        return self.total / self.count if self.count else None


class _StdAcc(_Acc):
    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: Any) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def result(self) -> Any:
        return math.sqrt(self.m2 / self.count) if self.count else None


def _group_key(key_fns: list[Compiled]) -> Callable[[Row], tuple]:
    """One row's hashable grouping key from its compiled key expressions."""
    if not key_fns:
        return lambda row: ()
    if len(key_fns) == 1:
        (fn,) = key_fns
        return lambda row: (_hashable(_plain_value(fn(row))),)
    return lambda row: tuple(_hashable(_plain_value(fn(row))) for fn in key_fns)


def _compile_first_argument(call: Func) -> Compiled:
    """An aggregate's argument; a call without one fails when it runs."""
    if call.args:
        return compile_expr(call.args[0])

    def missing(row: Row) -> Any:
        raise IndexError(f"aggregate {call.name} has no argument")

    return missing


def _make_acc(call: Func) -> _Acc:
    name = call.name.lower()
    if name == "count":
        return _CountAcc(call.star)
    if name == "min":
        return _MinMaxAcc(is_min=True)
    if name == "max":
        return _MinMaxAcc(is_min=False)
    if name == "sum":
        return _SumAcc()
    if name == "avg":
        return _AvgAcc()
    if name in ("stdevp", "stdev"):
        return _StdAcc()
    raise ExecutionError(f"unknown aggregate {call.name!r}")


def _hashable(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, NodeHandle):
        return ("__node__", value.node_id)
    return value
