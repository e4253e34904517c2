"""Graph store and Cypher tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ExecutionError, ParseError
from repro.graphdb import Neo4jDatabase
from repro.graphdb import executor as executor_module
from repro.graphdb.cypher_parser import parse
from repro.graphdb.cypher_ast import (
    Bin,
    Func,
    IsNull,
    Lit,
    MapProjection,
    Prop,
    Un,
    Var,
    WithClause,
)
from repro.graphdb.executor import compile_expr
from repro.graphdb.store import GraphStore
from repro.storage.keys import SENTINEL_MISSING


@pytest.fixture()
def db():
    database = Neo4jDatabase(query_prep_overhead=0.0)
    records = []
    for i in range(300):
        record = {"n": i, "mod": i % 5, "name": f"user{i}", "flag": i % 2 == 0}
        if i % 10 != 0:
            record["score"] = i % 7
        records.append(record)
    database.load("users", records)
    database.create_index("users", "n")
    database.create_index("users", "mod")
    return database


class TestGraphStore:
    def test_count_store_tracks_labels(self):
        store = GraphStore()
        store.create_node("A", {"x": 1})
        store.create_node("A", {"x": 2})
        store.create_node("B", {"x": 3})
        assert store.counts.node_count("A") == 2
        assert store.counts.node_count("B") == 1
        assert store.counts.node_count("C") == 0

    def test_strings_live_in_string_store(self):
        store = GraphStore()
        node = store.create_node("A", {"num": 5, "text": "hello"})
        assert len(store.strings) == 1
        reads_before = store.strings.reads
        assert store.read_property(node, "num") == 5
        assert store.strings.reads == reads_before  # numeric read: no string I/O
        assert store.read_property(node, "text") == "hello"
        assert store.strings.reads == reads_before + 1

    def test_missing_property_is_sentinel(self):
        store = GraphStore()
        node = store.create_node("A", {"x": 1})
        assert store.read_property(node, "y") is SENTINEL_MISSING

    def test_none_property_stored_as_null(self):
        store = GraphStore()
        node = store.create_node("A", {"x": None})
        assert store.read_property(node, "x") is None

    def test_absent_values_not_indexed(self):
        store = GraphStore()
        store.create_node("A", {"x": 1})
        store.create_node("A", {"x": None})
        store.create_node("A", {})
        store.create_index("A", "x")
        assert len(store.index("A", "x")) == 1

    def test_index_maintained_on_insert(self):
        store = GraphStore()
        store.create_index("A", "x")
        store.create_node("A", {"x": 9})
        assert len(store.index("A", "x")) == 1

    def test_duplicate_index_rejected(self):
        store = GraphStore()
        store.create_index("A", "x")
        with pytest.raises(CatalogError):
            store.create_index("A", "x")

    def test_node_properties_materialize(self):
        store = GraphStore()
        node = store.create_node("A", {"x": 1, "s": "v"})
        assert store.node_properties(node) == {"x": 1, "s": "v"}
        assert store.node_label(node) == "A"


class TestCypherParser:
    def test_match_return(self):
        query = parse("MATCH(t: data) RETURN COUNT(*) AS t")
        assert len(query.clauses) == 2
        ret = query.clauses[1]
        assert isinstance(ret, WithClause) and ret.is_return
        assert isinstance(ret.items[0].expr, Func)

    def test_map_projection(self):
        query = parse("MATCH(t: d)\nWITH t{'two': t.two, 'four': t.four}\nRETURN t")
        with_clause = query.clauses[1]
        expr = with_clause.items[0].expr
        assert isinstance(expr, MapProjection)
        assert expr.entries[0][0] == "two"

    def test_map_projection_star_and_var(self):
        query = parse("MATCH(t: d)\nWITH t{.*, r}\nRETURN t")
        expr = query.clauses[1].items[0].expr
        assert expr.include_all and expr.extra_vars == ("r",)

    def test_backtick_keys(self):
        query = parse("MATCH(t: d)\nWITH t{`lang`: t.lang}\nRETURN t")
        assert query.clauses[1].items[0].expr.entries[0][0] == "lang"

    def test_where_and_order(self):
        query = parse(
            "MATCH(t: d)\nWITH t WHERE t.a = 1 AND t.b > 2\n"
            "WITH t ORDER BY t.a DESC\nRETURN t LIMIT 3"
        )
        assert query.clauses[1].where is not None
        assert query.clauses[2].order_by[0].descending
        assert query.clauses[3].limit == 3

    def test_multi_pattern_match(self):
        query = parse("MATCH (t), (r: other) WHERE t.k = r.k RETURN COUNT(*) AS c")
        match = query.clauses[0]
        assert len(match.patterns) == 2
        assert match.patterns[1].label == "other"
        assert isinstance(match.where, Bin)

    def test_is_null(self):
        query = parse("MATCH(t: d)\nWITH t WHERE t.x IS NULL\nRETURN COUNT(*) AS c")
        assert query.clauses[1].where.negated is False

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse("FROB(t: d) RETURN t")
        with pytest.raises(ParseError):
            parse("MATCH(t: d) RETURN t LIMIT x")
        with pytest.raises(ParseError):
            parse("")

    def test_prop_access(self):
        query = parse("MATCH(t: d) RETURN t.name AS n")
        assert query.clauses[1].items[0].expr == Prop("t", "name")


class TestCypherExecution:
    def test_count_store_fast_path(self, db):
        result = db.execute("MATCH(t: users) RETURN COUNT(*) AS t")
        assert result.records == [300]
        assert result.stats.heap_fetches == 0
        assert result.stats.full_scans == 0

    def test_filtered_count_does_not_use_count_store(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t WHERE t.mod = 1\nRETURN COUNT(*) AS t"
        )
        assert result.records == [60]
        assert result.stats.index_entries > 0  # index seek on mod

    def test_projection_limit_is_lazy(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t{'n': t.n}\nRETURN t\nLIMIT 4"
        )
        assert len(result) == 4
        assert result.stats.heap_fetches <= 5

    def test_where_range_uses_index(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t WHERE t.n >= 290 AND t.n <= 295\nRETURN COUNT(*) AS c"
        )
        assert result.records == [6]
        assert result.stats.full_scans == 0

    def test_implicit_grouping(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH {'mod': t.mod, 'c': count(t.mod)} AS t\nRETURN t"
        )
        assert len(result) == 5
        assert all(record["c"] == 60 for record in result.records)

    def test_global_aggregate_map(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH {'mx': max(t.n), 'mn': min(t.n)} AS t\nRETURN t"
        )
        assert result.records == [{"mx": 299, "mn": 0}]

    def test_aggregates_skip_null(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH {'c': count(t.score)} AS t\nRETURN t"
        )
        assert result.records == [{"c": 270}]

    def test_order_by_desc_limit_index_backed(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t ORDER BY t.n DESC\nRETURN t\nLIMIT 3"
        )
        assert [record["n"] for record in result.records] == [299, 298, 297]
        assert result.stats.full_scans == 0

    def test_index_nested_loop_join(self, db):
        result = db.execute(
            "MATCH(t: users)\nMATCH (t), (r: users)\nWHERE t.n = r.n\n"
            "WITH t{.*, r}\nRETURN COUNT(*) AS c"
        )
        assert result.records == [300]

    def test_is_null_counts_missing(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t WHERE t.score IS NULL\nRETURN COUNT(*) AS c"
        )
        assert result.records == [30]

    def test_scalar_functions(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t{'up': upper(t.name)}\nRETURN t\nLIMIT 1"
        )
        assert result.records[0]["up"] == "USER0"

    def test_distinct(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH DISTINCT t{'mod': t.mod}\nRETURN t"
        )
        assert len(result) == 5

    def test_return_node_materializes(self, db):
        result = db.execute("MATCH(t: users)\nRETURN t\nLIMIT 1")
        assert result.records[0]["name"] == "user0"

    def test_arithmetic_and_logic(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t WHERE t.n % 100 = 0 AND NOT t.n = 200\n"
            "RETURN COUNT(*) AS c"
        )
        assert result.records == [2]

    def test_numeric_scan_avoids_string_store(self, db):
        result = db.execute(
            "MATCH(t: users)\nWITH t WHERE t.flag = true\nRETURN COUNT(*) AS c"
        )
        assert result.records == [150]
        assert result.stats.string_store_reads == 0

    def test_missing_return_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("MATCH(t: users)\nWITH t{'n': t.n}")

    def test_unbound_variable(self, db):
        with pytest.raises(ExecutionError):
            db.execute("MATCH(t: users)\nRETURN z\nLIMIT 1")


_ROW = {"t": {"a": 3, "n": None, "s": "x"}}
T, F, N = Lit(True), Lit(False), Lit(None)


class TestCompiledSemantics:
    """Table-driven pins for the compiled Cypher evaluator's edge semantics."""

    @pytest.mark.parametrize(
        "expr, expected",
        [
            # Kleene AND / OR with null.
            (Bin("AND", F, N), False),
            (Bin("AND", N, T), None),
            (Bin("AND", T, T), True),
            (Bin("OR", T, N), True),
            (Bin("OR", N, F), None),
            (Bin("OR", F, F), False),
            (Un("NOT", N), None),
            (Un("NOT", Prop("t", "a")), False),
            # Null operands propagate; absent properties read as null.
            (Bin("=", Prop("t", "n"), Lit(1)), None),
            (Bin("=", Prop("t", "zzz"), N), None),
            (Bin("+", Prop("t", "a"), Prop("t", "n")), None),
            (Bin(">", Prop("t", "n"), Lit(1)), None),
            (IsNull(Prop("t", "zzz")), True),
            (IsNull(Prop("t", "a"), negated=True), True),
            # Ordering follows index keys: strings above numbers.
            (Bin(">", Prop("t", "s"), Lit(1000)), True),
            (Bin("<=", Prop("t", "a"), Lit(3.0)), True),
            # Division by zero and type errors in arithmetic are null.
            (Bin("/", Prop("t", "a"), Lit(0)), None),
            (Bin("%", Lit(1), Lit(0)), None),
            (Bin("-", Prop("t", "s"), Lit(1)), None),
            (Func("upper", (Prop("t", "s"),)), "X"),
            (Func("tostring", (N,)), None),
        ],
    )
    def test_values(self, expr, expected):
        assert compile_expr(expr)(_ROW) == expected

    @pytest.mark.parametrize(
        "expr, error",
        [
            (Func("frobnicate", (Prop("t", "a"),)), "unknown function"),
            (Func("max", (Prop("t", "a"),)), "outside aggregation context"),
            (Var("zzz"), "unbound variable"),
            (Bin("^", Lit(1), Lit(2)), "unknown operator"),
        ],
    )
    def test_errors_surface_when_evaluated(self, expr, error):
        compiled = compile_expr(expr)  # compiling never raises
        with pytest.raises(ExecutionError, match=error):
            compiled(_ROW)

    def test_and_or_evaluate_both_sides(self, db):
        # The string property is read for every row even where the numeric
        # side already decides the conjunction.
        result = db.execute(
            "MATCH(t: users)\nWITH t WHERE t.flag = false AND t.name = 'user1'\n"
            "RETURN COUNT(*) AS c"
        )
        assert result.records == [1]
        assert result.stats.string_store_reads == 300

    def test_unknown_function_over_empty_input_is_empty(self, db):
        query = "MATCH(t: {label})\nWITH t{{'x': frobnicate(t.n)}}\nRETURN t"
        assert db.execute(query.format(label="nobody")).records == []
        with pytest.raises(ExecutionError, match="unknown function"):
            db.execute(query.format(label="users"))

    def test_expressions_compile_once_per_query(self, db, monkeypatch):
        calls = []
        real = executor_module.compile_expr

        def counting(expr, aggregates=None):
            calls.append(expr)
            return real(expr, aggregates)

        monkeypatch.setattr(executor_module, "compile_expr", counting)
        query = (
            "MATCH(t: users)\nWITH t WHERE t.n % 2 = 0\n"
            "WITH {'mod': t.mod, 'top': max(t.n)} AS t\nRETURN t"
        )
        small = Neo4jDatabase(query_prep_overhead=0.0)
        small.load("users", [{"n": i, "mod": i % 5} for i in range(20)])
        small.execute(query)
        compiled_small = len(calls)
        calls.clear()
        result = db.execute(query)  # 300 nodes
        # One call per expression node of the WHERE, the group key, the
        # max() argument, the map output and RETURN t — none per row.
        assert len(calls) == compiled_small == 11
        assert sorted(record["top"] for record in result.records) == [290, 292, 294, 296, 298]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=60), st.integers(0, 40))
def test_property_cypher_count_matches_python(values, pivot):
    db = Neo4jDatabase(query_prep_overhead=0.0)
    db.load("d", [{"v": value} for value in values])
    result = db.execute(f"MATCH(t: d)\nWITH t WHERE t.v >= {pivot}\nRETURN COUNT(*) AS c")
    assert result.records == [sum(1 for value in values if value >= pivot)]
