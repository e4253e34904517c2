"""Direct tests for physical operators and the result container."""

from __future__ import annotations

import pytest

from repro.sqlengine import SQLDatabase
from repro.sqlengine.ast_nodes import ColumnRef, FuncCall, OrderItem, SelectItem
from repro.sqlengine.expressions import Evaluator
from repro.sqlengine.physical import (
    ExecutionContext,
    HashJoin,
    IndexNestedLoopJoin,
    LimitOp,
    SeqScan,
    SortOp,
    TopKOp,
    make_accumulator,
)
from repro.sqlengine.result import QueryStats, ResultSet, StreamingResultSet
from repro.storage.catalog import Catalog


@pytest.fixture()
def ctx():
    catalog = Catalog()
    catalog.create_table("t")
    catalog.insert_rows(
        "t",
        [
            {"n": value, "g": value % 3 if value is not None else None}
            for value in (5, 1, 4, 2, 3, None)
        ],
    )
    catalog.create_index("t_n", "t", "n")
    return ExecutionContext(catalog, Evaluator("sql"), QueryStats())


def run(op, ctx):
    return list(op.execute(ctx))


class TestScansAndSorts:
    def test_seq_scan_counts_fetches(self, ctx):
        rows = run(SeqScan("t", "x"), ctx)
        assert len(rows) == 6
        assert ctx.stats.heap_fetches == 6
        assert ctx.stats.full_scans == 1

    def test_sort_none_goes_by_key_order(self, ctx):
        op = SortOp(SeqScan("t", "x"), (OrderItem(ColumnRef("n", "x")),))
        values = [row["x"]["n"] for row in run(op, ctx)]
        assert values == [None, 1, 2, 3, 4, 5]  # absent sorts first ascending

    def test_topk_matches_full_sort(self, ctx):
        keys = (OrderItem(ColumnRef("n", "x"), descending=True),)
        full = [row["x"]["n"] for row in run(SortOp(SeqScan("t", "x"), keys), ctx)][:3]
        topk = [row["x"]["n"] for row in run(TopKOp(SeqScan("t", "x"), keys, 3), ctx)]
        assert topk == full == [5, 4, 3]

    def test_limit_with_offset(self, ctx):
        op = LimitOp(SortOp(SeqScan("t", "x"), (OrderItem(ColumnRef("n", "x")),)), 2, offset=1)
        values = [row["x"]["n"] for row in run(op, ctx)]
        assert values == [1, 2]

    def test_limit_zero(self, ctx):
        assert run(LimitOp(SeqScan("t", "x"), 0), ctx) == []


class TestJoins:
    def test_hash_join_skips_null_keys(self, ctx):
        op = HashJoin(
            SeqScan("t", "l"),
            SeqScan("t", "r"),
            ColumnRef("n", "l"),
            ColumnRef("n", "r"),
        )
        rows = run(op, ctx)
        assert len(rows) == 5  # the NULL row never matches
        assert all(row["l"]["n"] == row["r"]["n"] for row in rows)

    def test_index_nested_loop_join(self, ctx):
        op = IndexNestedLoopJoin(
            outer=SeqScan("t", "l"),
            inner_table="t",
            inner_alias="r",
            inner_index="t_n",
            outer_key=ColumnRef("n", "l"),
        )
        rows = run(op, ctx)
        # NULL outer keys skipped; NULL is in the index but never probed.
        assert len(rows) == 5
        assert ctx.stats.index_entries == 5


class TestAccumulators:
    def test_count_star_counts_rows(self):
        acc = make_accumulator(FuncCall("COUNT", star=True))
        for _ in range(4):
            acc.add_row()
        assert acc.result() == 4

    def test_count_value_skips_absent(self):
        acc = make_accumulator(FuncCall("COUNT", (ColumnRef("x"),)))
        for value in (1, None, 2):
            acc.add(value)
        assert acc.result() == 2

    def test_min_max_sum(self):
        min_acc = make_accumulator(FuncCall("MIN", (ColumnRef("x"),)))
        max_acc = make_accumulator(FuncCall("MAX", (ColumnRef("x"),)))
        sum_acc = make_accumulator(FuncCall("SUM", (ColumnRef("x"),)))
        for value in (3, None, 7, 1):
            min_acc.add(value)
            max_acc.add(value)
            sum_acc.add(value)
        assert (min_acc.result(), max_acc.result(), sum_acc.result()) == (1, 7, 11)

    def test_avg_std(self):
        avg = make_accumulator(FuncCall("AVG", (ColumnRef("x"),)))
        std = make_accumulator(FuncCall("STDDEV", (ColumnRef("x"),)))
        for value in (2, 4, None):
            avg.add(value)
            std.add(value)
        assert avg.result() == 3.0
        assert std.result() == pytest.approx(1.0)

    def test_empty_aggregates(self):
        assert make_accumulator(FuncCall("MIN", (ColumnRef("x"),))).result() is None
        assert make_accumulator(FuncCall("AVG", (ColumnRef("x"),))).result() is None
        assert make_accumulator(FuncCall("SUM", (ColumnRef("x"),))).result() is None


class TestResultSet:
    def test_scalar_from_record(self):
        assert ResultSet(records=[{"count": 7}]).scalar() == 7

    def test_scalar_from_bare_value(self):
        assert ResultSet(records=[7]).scalar() == 7

    def test_scalar_requires_single_row(self):
        with pytest.raises(ValueError):
            ResultSet(records=[]).scalar()
        with pytest.raises(ValueError):
            ResultSet(records=[{"a": 1}, {"a": 2}]).scalar()

    def test_scalar_requires_single_column(self):
        with pytest.raises(ValueError):
            ResultSet(records=[{"a": 1, "b": 2}]).scalar()

    def test_to_records_wraps_values(self):
        assert ResultSet(records=[1, {"a": 2}]).to_records() == [
            {"value": 1},
            {"a": 2},
        ]

    def test_drain_after_partial_materialize_matches_collect(self):
        records = [{"i": i} for i in range(3000)]
        collected = StreamingResultSet(iter(records)).records
        # Half the records already buffered, the rest still streaming.
        result = StreamingResultSet(iter(records[1500:]), records=records[:1500])
        iterator = result.iter_records()
        head = [next(iterator) for _ in range(10)]
        iterator.close()  # an abandoned drain leaves the rest behind
        assert result.streaming
        rest = list(result.iter_records())
        assert head + rest == collected
        assert not result.streaming
        assert result.records == []  # one-shot: drained records are gone

    def test_drain_of_fully_materialized_stream_matches_collect(self):
        records = [{"i": i} for i in range(3000)]
        result = StreamingResultSet(iter(records))
        assert len(result.records) == 3000  # materializes the whole stream
        assert list(result) == records
        assert result.records == []

    def test_stats_merge(self):
        first = QueryStats(heap_fetches=1, index_entries=2, full_scans=1)
        second = QueryStats(heap_fetches=3, string_store_reads=4)
        first.merge(second)
        assert first.heap_fetches == 4
        assert first.string_store_reads == 4
        assert first.full_scans == 1


class TestExplainTree:
    def test_tree_string_nests(self):
        db = SQLDatabase()
        db.create_table("t")
        db.insert("t", [{"a": 1}])
        plan = db.explain("SELECT a FROM (SELECT * FROM t) x WHERE a = 1 LIMIT 2")
        lines = plan.splitlines()
        assert any(line.startswith("Limit") for line in lines)
        assert any("Filter" in line or "IndexEqualityScan" in line for line in lines)
