"""Unit tests for the SQL/SQL++ expression evaluator (three-valued logic)."""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, PlanningError
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    IsAbsent,
    Literal,
    Star,
    UnaryOp,
)
from repro.sqlengine import SQLDatabase
from repro.sqlengine.expressions import Evaluator, apply_scalar_function
from repro.sqlengine.expr_utils import (
    columns_used,
    conjoin,
    conjuncts,
    match_column_literal,
    rewrite_qualifier,
)
from repro.storage.keys import SENTINEL_MISSING

SQL = Evaluator("sql")
SQLPP = Evaluator("sqlpp")
ROW = {"t": {"a": 5, "b": None, "s": "Hi"}}


def col(name, qualifier="t"):
    return ColumnRef(name, qualifier)


class TestResolution:
    def test_qualified_access(self):
        assert SQL.compile(col("a"))(ROW) == 5

    def test_missing_key_sql_is_null(self):
        assert SQL.compile(col("zzz"))(ROW) is None

    def test_missing_key_sqlpp_is_missing(self):
        assert SQLPP.compile(col("zzz"))(ROW) is SENTINEL_MISSING

    def test_bare_binding_returns_record(self):
        assert SQL.compile(ColumnRef("t"))(ROW) == ROW["t"]

    def test_unqualified_column_searches_bindings(self):
        assert SQL.compile(ColumnRef("a"))(ROW) == 5

    def test_unknown_binding_raises(self):
        with pytest.raises(ExecutionError):
            SQL.compile(col("a", "nope"))(ROW)

    def test_star_rejected_outside_select(self):
        with pytest.raises(PlanningError):
            SQL.compile(Star())(ROW)


class TestThreeValuedLogic:
    def test_null_comparison_is_null(self):
        expr = BinaryOp("=", col("b"), Literal(1))
        assert SQL.compile(expr)(ROW) is None
        assert SQL.compile(expr)(ROW) is not True  # a WHERE filters it out

    def test_missing_propagates_in_sqlpp(self):
        expr = BinaryOp("=", col("zzz"), Literal(1))
        assert SQLPP.compile(expr)(ROW) is SENTINEL_MISSING

    def test_kleene_and(self):
        true = Literal(True)
        false = Literal(False)
        null = Literal(None)
        assert SQL.compile(BinaryOp("AND", false, null))(ROW) is False
        assert SQL.compile(BinaryOp("AND", true, null))(ROW) is None
        assert SQL.compile(BinaryOp("AND", true, true))(ROW) is True

    def test_kleene_or(self):
        true = Literal(True)
        false = Literal(False)
        null = Literal(None)
        assert SQL.compile(BinaryOp("OR", true, null))(ROW) is True
        assert SQL.compile(BinaryOp("OR", false, null))(ROW) is None
        assert SQL.compile(BinaryOp("OR", false, false))(ROW) is False

    def test_not_of_null(self):
        assert SQL.compile(UnaryOp("NOT", Literal(None)))(ROW) is None
        assert SQL.compile(UnaryOp("NOT", Literal(True)))(ROW) is False

    def test_is_absent_modes(self):
        b_null = IsAbsent(col("b"), "null")
        z_missing = IsAbsent(col("zzz"), "missing")
        z_unknown = IsAbsent(col("zzz"), "unknown")
        b_unknown = IsAbsent(col("b"), "unknown")
        # SQL collapses both absent states into NULL.
        assert SQL.compile(b_null)(ROW) is True
        assert SQL.compile(IsAbsent(col("zzz"), "null"))(ROW) is True
        # SQL++ distinguishes them.
        assert SQLPP.compile(b_null)(ROW) is True
        assert SQLPP.compile(IsAbsent(col("zzz"), "null"))(ROW) is False
        assert SQLPP.compile(z_missing)(ROW) is True
        assert SQLPP.compile(z_unknown)(ROW) is True
        assert SQLPP.compile(b_unknown)(ROW) is True

    def test_negated_is_absent(self):
        assert SQL.compile(IsAbsent(col("a"), "null", negated=True))(ROW) is True


class TestOperators:
    def test_arithmetic(self):
        assert SQL.compile(BinaryOp("+", col("a"), Literal(2)))(ROW) == 7
        assert SQL.compile(BinaryOp("%", col("a"), Literal(2)))(ROW) == 1

    def test_division_by_zero_is_null(self):
        assert SQL.compile(BinaryOp("/", col("a"), Literal(0)))(ROW) is None

    def test_string_concat(self):
        expr = BinaryOp("||", col("s"), Literal("!"))
        assert SQL.compile(expr)(ROW) == "Hi!"

    def test_type_error_comparison(self):
        with pytest.raises(ExecutionError):
            SQL.compile(BinaryOp(">", col("s"), Literal(1)))(ROW)

    def test_unary_minus(self):
        assert SQL.compile(UnaryOp("-", col("a")))(ROW) == -5
        assert SQL.compile(UnaryOp("-", col("b")))(ROW) is None

    def test_scalar_functions(self):
        assert SQL.compile(FuncCall("UPPER", (col("s"),)))(ROW) == "HI"
        assert SQL.compile(FuncCall("LENGTH", (col("s"),)))(ROW) == 2
        assert SQL.compile(FuncCall("ABS", (UnaryOp("-", col("a")),)))(ROW) == 5
        # NULL argument → NULL result.
        assert SQL.compile(FuncCall("UPPER", (col("b"),)))(ROW) is None

    def test_aggregate_in_scalar_context_rejected(self):
        with pytest.raises(PlanningError):
            SQL.compile(FuncCall("MAX", (col("a"),)))(ROW)

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            apply_scalar_function("WHATEVER", [1])

    def test_function_library(self):
        assert apply_scalar_function("TO_INT", ["3.7"]) == 3
        assert apply_scalar_function("TO_STRING", [5]) == "5"
        assert apply_scalar_function("SUBSTR", ["hello", 1, 3]) == "ell"
        assert apply_scalar_function("TRIM", ["  x "]) == "x"
        assert apply_scalar_function("CONCAT", ["a", 1, "b"]) == "a1b"
        assert apply_scalar_function("ROUND", [3.14159, 2]) == 3.14
        assert apply_scalar_function("FLOOR", [3.9]) == 3
        assert apply_scalar_function("CEIL", [3.1]) == 4
        assert apply_scalar_function("SQRT", [9]) == 3.0


M = SENTINEL_MISSING
TRUTH = {True: Literal(True), False: Literal(False), None: Literal(None)}


def _missing_col():
    return col("zzz")  # absent: NULL in SQL, MISSING in SQL++


class TestCompiledSemantics:
    """Table-driven pins for the compiled evaluator's edge semantics."""

    @pytest.mark.parametrize(
        "op, left, right, expected",
        [
            ("AND", True, True, True),
            ("AND", True, False, False),
            ("AND", False, None, False),
            ("AND", None, True, None),
            ("AND", None, None, None),
            ("OR", False, False, False),
            ("OR", True, None, True),
            ("OR", None, False, None),
            ("OR", None, None, None),
        ],
    )
    def test_kleene_truth_table(self, op, left, right, expected):
        expr = BinaryOp(op, TRUTH[left], TRUTH[right])
        assert SQL.compile(expr)(ROW) is expected
        # A chain of three flattens without changing the answer.
        chain = BinaryOp(op, expr, TRUTH[right])
        assert SQL.compile(chain)(ROW) is expected

    @pytest.mark.parametrize("op", ["AND", "OR"])
    def test_missing_is_unknown_in_logic(self, op):
        decided = {"AND": Literal(False), "OR": Literal(True)}[op]
        assert SQLPP.compile(BinaryOp(op, _missing_col(), Literal(None)))(ROW) is None
        assert SQLPP.compile(BinaryOp(op, _missing_col(), decided))(ROW) is decided.value

    @pytest.mark.parametrize(
        "evaluator, expr, expected",
        [
            (SQLPP, BinaryOp("=", _missing_col(), Literal(None)), M),
            (SQLPP, BinaryOp("=", Literal(None), _missing_col()), M),
            (SQLPP, BinaryOp("+", col("b"), _missing_col()), M),
            (SQLPP, BinaryOp("<", col("a"), _missing_col()), M),
            (SQL, BinaryOp("<", col("a"), _missing_col()), None),
            (SQL, BinaryOp(">=", col("b"), Literal(1)), None),
            (SQL, BinaryOp("||", col("s"), col("b")), None),
            (SQLPP, FuncCall("UPPER", (_missing_col(),)), M),
            (SQL, FuncCall("NO_SUCH_FN", (col("b"),)), None),  # absent wins
            (SQLPP, UnaryOp("-", _missing_col()), M),
            (SQLPP, UnaryOp("NOT", _missing_col()), None),
            (SQL, BinaryOp("/", col("a"), Literal(0)), None),
            (SQL, BinaryOp("%", Literal(7), Literal(0)), None),
            (SQL, BinaryOp("/", Literal(1), Literal(0)), None),  # folded
            (SQL, BinaryOp(">", col("a"), Literal(4.5)), True),
            (SQL, BinaryOp("=", Literal(2), BinaryOp("-", col("a"), Literal(3))), True),
        ],
    )
    def test_absent_operands_and_division(self, evaluator, expr, expected):
        assert evaluator.compile(expr)(ROW) is expected

    @pytest.mark.parametrize(
        "expr, error",
        [
            (BinaryOp(">", col("s"), Literal(1)), ExecutionError),
            (BinaryOp(">", Literal("a"), Literal(1)), ExecutionError),  # not folded
            (BinaryOp("+", col("s"), Literal(1)), ExecutionError),
            (FuncCall("NO_SUCH_FN", (col("a"),)), ExecutionError),
            (FuncCall("MAX", (col("a"),)), PlanningError),
            (Star(), PlanningError),
            (BinaryOp("^", col("a"), Literal(1)), ExecutionError),
        ],
    )
    def test_errors_surface_when_evaluated(self, expr, error):
        compiled = SQL.compile(expr)  # compiling never raises
        with pytest.raises(error):
            compiled(ROW)

    def test_unknown_function_over_empty_input_is_empty(self):
        db = SQLDatabase(name="postgres")
        db.create_table("empty")
        db.create_table("full")
        db.insert("full", [{"a": 1}])
        query = "SELECT NO_SUCH_FN(t.a) AS x FROM {table} t WHERE t.a > 'z'"
        assert db.execute(query.format(table="empty")).records == []
        with pytest.raises(ExecutionError):
            db.execute(query.format(table="full"))

    def test_expressions_compile_once_per_query(self, monkeypatch):
        calls = []
        real = Evaluator.compile

        def counting(self, expr, aggregates=None):
            calls.append(expr)
            return real(self, expr, aggregates)

        monkeypatch.setattr(Evaluator, "compile", counting)
        query = (
            "SELECT t.g AS g, MAX(t.n * 2) AS top FROM t t "
            "WHERE t.n % 2 = 0 GROUP BY t.g ORDER BY t.g"
        )
        compiles = []
        for rows in (20, 300):
            db = SQLDatabase(name="postgres", exec_engine="row")
            db.create_table("t")
            db.insert("t", [{"n": i, "g": i % 5} for i in range(rows)])
            calls.clear()
            result = db.execute(query)
            compiles.append(len(calls))
        # WHERE, group key, MAX argument, two output items, ORDER BY key.
        assert compiles == [6, 6]
        assert [record["top"] for record in result.records] == [580, 592, 584, 596, 588]


class TestExprUtils:
    def test_conjuncts_roundtrip(self):
        a = BinaryOp("=", col("a"), Literal(1))
        b = BinaryOp("=", col("b"), Literal(2))
        c = BinaryOp("=", col("s"), Literal("x"))
        tree = BinaryOp("AND", BinaryOp("AND", a, b), c)
        parts = conjuncts(tree)
        assert parts == [a, b, c]
        assert conjuncts(conjoin(parts)) == parts
        assert conjoin([]) is None

    def test_rewrite_qualifier(self):
        expr = BinaryOp("=", col("a", "new"), Literal(1))
        out = rewrite_qualifier(expr, "new", "old")
        assert out.left.qualifier == "old"
        # bare alias refs rename too
        bare = ColumnRef("new")
        assert rewrite_qualifier(bare, "new", "old") == ColumnRef("old")

    def test_columns_used(self):
        expr = BinaryOp(
            "AND",
            BinaryOp("=", col("a"), Literal(1)),
            IsAbsent(ColumnRef("x"), "null"),
        )
        assert columns_used(expr) == {("t", "a"), (None, "x")}

    def test_match_column_literal(self):
        assert match_column_literal(BinaryOp("=", col("a"), Literal(3))) == ("=", "t", "a", 3)
        # flipped side normalizes the operator
        assert match_column_literal(BinaryOp("<", Literal(3), col("a"))) == (">", "t", "a", 3)
        assert match_column_literal(BinaryOp("=", col("a"), col("b"))) is None
        assert match_column_literal(Literal(1)) is None
