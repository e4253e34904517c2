"""Sort-kernel efficiency regressions.

The materializing sorts (``SortOp`` / ``TopKOp`` / ``RecordSortOp``)
must evaluate each ORDER BY key expression exactly once per input row
(decorate-sort-undecorate), never once per comparison or per sort pass.
These tests count evaluator invocations on a 10k-row sort so any
regression to re-evaluation is an immediate failure, not a slowdown
someone has to notice.

The one wall-clock assertion here (vector vs row on a full scan) takes
the median of three runs and retries once before failing, so a loaded
machine can't flake it; the full-strength 2x pin lives in
``benchmarks/bench_vector_vs_row.py``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Iterator

from repro.exec.kernels import Descending, sort_records
from repro.sqlengine.ast_nodes import ColumnRef, OrderItem
from repro.sqlengine.expressions import Evaluator
from repro.sqlengine.physical import (
    ExecutionContext,
    PhysicalPlan,
    RecordSortOp,
    SortOp,
    TopKOp,
)
from repro.sqlengine.result import QueryStats

N_ROWS = 10_000


class CountingEvaluator(Evaluator):
    """An evaluator that counts compilations and compiled-expression calls."""

    def __init__(self) -> None:
        super().__init__("sql")
        self.calls = 0
        self.compiles = 0

    def compile(self, expr: Any, aggregates: Any = None) -> Any:
        self.compiles += 1
        compiled = super().compile(expr, aggregates)

        def counted(env: Any) -> Any:
            self.calls += 1
            return compiled(env)

        return counted


class StubSource(PhysicalPlan):
    """A leaf yielding pre-built rows, bypassing storage."""

    def __init__(self, rows: list) -> None:
        self.rows = rows

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        return iter(self.rows)

    def describe(self) -> str:
        return "StubSource"


def _env_rows(n: int) -> list[dict]:
    return [{"t": {"a": (i * 37) % n, "b": i % 7}} for i in range(n)]


def _ctx(evaluator: Evaluator) -> ExecutionContext:
    return ExecutionContext(catalog=None, evaluator=evaluator, stats=QueryStats())


def _keys() -> tuple[OrderItem, ...]:
    return (
        OrderItem(ColumnRef("a", "t"), descending=True),
        OrderItem(ColumnRef("b", "t")),
    )


def test_sort_evaluates_each_key_once_per_row():
    evaluator = CountingEvaluator()
    op = SortOp(StubSource(_env_rows(N_ROWS)), _keys())
    out = list(op.execute(_ctx(evaluator)))
    assert len(out) == N_ROWS
    assert evaluator.calls == N_ROWS * 2  # one per (row, key), not per pass
    assert evaluator.compiles == 2  # one per key, not per row
    assert out[0]["t"]["a"] == max(row["t"]["a"] for row in _env_rows(N_ROWS))


def test_topk_evaluates_each_key_once_per_row():
    evaluator = CountingEvaluator()
    op = TopKOp(StubSource(_env_rows(N_ROWS)), _keys(), k=5)
    out = list(op.execute(_ctx(evaluator)))
    assert len(out) == 5
    assert evaluator.calls == N_ROWS * 2
    assert evaluator.compiles == 2


def test_record_sort_evaluates_each_key_once_per_row():
    evaluator = CountingEvaluator()
    records = [{"a": (i * 37) % N_ROWS, "b": i % 7} for i in range(N_ROWS)]
    op = RecordSortOp(StubSource(records), _keys())
    out = list(op.execute(_ctx(evaluator)))
    assert len(out) == N_ROWS
    assert evaluator.calls == N_ROWS * 2
    assert evaluator.compiles == 2


def test_sort_is_stable_and_matches_reference():
    """Decorated sort must equal the reference multi-pass stable sort."""
    rows = [{"a": i % 5, "b": i % 3, "i": i} for i in range(200)]

    def key_of(row: dict) -> tuple:
        return (row["a"], row["b"])

    got = sort_records(rows, key_of, [True, False])
    expected = sorted(rows, key=lambda r: r["b"])  # last key first
    expected.sort(key=lambda r: r["a"], reverse=True)
    assert got == expected


def test_descending_wrapper_orders_inversely():
    assert Descending(2) < Descending(1)
    assert not Descending(1) < Descending(2)
    assert [d.inner for d in sorted(Descending(x) for x in (3, 1, 2))] == [3, 2, 1]


# ----------------------------------------------------------------------
# Vector-vs-row wall-clock smoke (flake-resistant)
# ----------------------------------------------------------------------
_SCAN_ROWS = 12_000
_SCAN_QUERY = (
    "SELECT COUNT(*) AS n, SUM(t.unique1) AS s FROM Bench.data t "
    "WHERE t.ten < 8 AND t.onePercent >= 10"
)


def _median_scan_seconds(db, repeats: int = 3) -> float:
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        db.execute(_SCAN_QUERY)
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def test_vector_engine_faster_than_row_on_full_scan():
    """Vector execution beats row-at-a-time on a full scan (modest 1.2x pin).

    Median-of-3 timings per engine and one whole-measurement retry keep
    this deterministic-ish check from flaking on a busy host while still
    catching a vector-path regression to row speed.
    """
    from repro.sqlengine import SQLDatabase
    from repro.wisconsin import loaders, wisconsin_records

    records = wisconsin_records(_SCAN_ROWS, seed=2021)
    engines = {}
    for exec_engine in ("row", "vector"):
        db = SQLDatabase(name="postgres", exec_engine=exec_engine)
        loaders.load_postgres(db, "Bench", "data", records, indexes=False)
        engines[exec_engine] = db
    assert engines["vector"].execute(_SCAN_QUERY).stats.exec_engine == "vector"

    for attempt in (1, 2):
        speedup = _median_scan_seconds(engines["row"]) / _median_scan_seconds(
            engines["vector"]
        )
        if speedup >= 1.2:
            break
        if attempt == 2:
            raise AssertionError(
                f"vector engine only {speedup:.2f}x faster than row "
                f"(expected >= 1.2x, median of 3, after one retry)"
            )
