"""Runtime expression evaluation with three-valued logic.

Rows flow through physical operators as *environments*: dicts mapping a
FROM-clause binding alias to its current record.  ``t.lang`` resolves
through binding ``t``; a bare ``lang`` searches every binding; a bare ``t``
that names a binding yields the whole record (SQL++'s ``SELECT VALUE t``).

Absent-value semantics differ by dialect and are central to benchmark
expression 13:

- ``dialect='sql'``: a key missing from the record is NULL.  Comparisons
  with NULL yield NULL; ``IS NULL`` is true for NULL.
- ``dialect='sqlpp'``: NULL and MISSING are distinct.  A missing key yields
  MISSING, which propagates through comparisons/arithmetic; ``IS UNKNOWN``
  is true for either state (this is what PolyFrame emits for ``isna()``).
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Mapping

from repro.errors import ExecutionError, PlanningError
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    IsAbsent,
    Literal,
    Star,
    UnaryOp,
)
from repro.storage.keys import SENTINEL_MISSING

Row = Mapping[str, Any]  # binding alias -> record

#: A compiled expression: environment in, value out.
Compiled = Callable[[Row], Any]

_NOT_CONST = object()


class Evaluator:
    """Compiles scalar expressions into closures over binding environments.

    ``compile(expr)`` runs once per operator per query: column references
    become bound lookups, operator dispatch is decided up front, and
    operators over constants are folded.  Errors surface when a closure
    runs, never at compile time, so a bad expression over an empty input
    still returns an empty result.
    """

    def __init__(self, dialect: str = "sql") -> None:
        if dialect not in ("sql", "sqlpp"):
            raise ValueError(f"unknown dialect {dialect!r}")
        self.dialect = dialect
        self._absent_default = SENTINEL_MISSING if dialect == "sqlpp" else None

    def compile(self, expr: Expression, aggregates: dict[int, Any] | None = None) -> Compiled:
        """Compile *expr* into a ``row -> value`` closure.

        With *aggregates*, aggregate calls at the top level or under binary
        operators read their result from that dict (keyed by the call
        node's ``id``) when the closure runs — how a grouped SELECT list is
        shaped.  Elsewhere an aggregate raises when evaluated.
        """
        return self._compile(expr, aggregates)[0]

    # ------------------------------------------------------------------
    # Compilation: every node becomes ``(closure, const)``, where
    # ``const`` is its value when that is the same for every row.
    # ------------------------------------------------------------------
    def _compile(
        self, expr: Expression, aggregates: dict[int, Any] | None
    ) -> tuple[Compiled, Any]:
        if isinstance(expr, Literal):
            return _constant(expr.value)
        if isinstance(expr, ColumnRef):
            return self._column(expr), _NOT_CONST
        if isinstance(expr, BinaryOp):
            return self._binary(expr, aggregates)
        if isinstance(expr, UnaryOp):
            return self._unary(expr)
        if isinstance(expr, IsAbsent):
            return self._is_absent(expr)
        if isinstance(expr, FuncCall):
            return self._call(expr, aggregates)
        if isinstance(expr, Star):
            return _raising(PlanningError, "* is only valid in a SELECT list"), _NOT_CONST
        return _raising(
            ExecutionError, f"cannot evaluate expression node {type(expr).__name__}"
        ), _NOT_CONST

    def _column(self, ref: ColumnRef) -> Compiled:
        name, qualifier, absent = ref.name, ref.qualifier, self._absent_default
        if qualifier is not None:

            def qualified(row: Row) -> Any:
                try:
                    record = row[qualifier]
                except KeyError:
                    raise ExecutionError(
                        f"unknown binding {qualifier!r} in column reference {ref}"
                    ) from None
                if isinstance(record, dict):
                    return record.get(name, absent)
                # The binding is a scalar (SELECT VALUE of an expression);
                # qualifying into it is an error in real engines too.
                raise ExecutionError(f"binding {qualifier!r} is not a record")

            return qualified

        def bare(row: Row) -> Any:
            # A bare name may be a binding alias (whole record)...
            if name in row:
                return row[name]
            # ...or an unqualified column searched across bindings.
            for record in row.values():
                if isinstance(record, dict) and name in record:
                    return record[name]
            return absent

        return bare

    def _binary(
        self, expr: BinaryOp, aggregates: dict[int, Any] | None
    ) -> tuple[Compiled, Any]:
        op = expr.op
        if op in ("AND", "OR"):
            # Kleene logic over the flattened chain; MISSING behaves like
            # NULL and every operand is evaluated.
            parts = [self._compile(part, aggregates) for part in _chain(expr, op)]
            fns = [fn for fn, _const in parts]
            logical = _conjunction(fns) if op == "AND" else _disjunction(fns)
            return _folded(logical, *(const for _fn, const in parts))
        left, left_const = self._compile(expr.left, aggregates)
        right, right_const = self._compile(expr.right, aggregates)
        apply, message = _BINARY.get(op, (None, None))
        if apply is None:

            def unknown(row: Row) -> Any:
                a = left(row)
                b = right(row)
                if a is SENTINEL_MISSING or b is SENTINEL_MISSING:
                    return SENTINEL_MISSING
                if a is None or b is None:
                    return None
                raise ExecutionError(f"unknown binary operator {op!r}")

            return unknown, _NOT_CONST

        def checked(a: Any, b: Any) -> Any:
            """Apply once both sides are present; type errors are typed."""
            try:
                return apply(a, b)
            except TypeError:
                if message is None:
                    raise
                raise ExecutionError(message.format(
                    op=op, left=type(a).__name__, right=type(b).__name__
                )) from None
            except ZeroDivisionError:
                return None

        if right_const is not _NOT_CONST and right_const is not None and (
            right_const is not SENTINEL_MISSING
        ):
            # ``col >= 38``: the constant is never absent, so an absent
            # left side is the answer itself.
            constant = right_const

            def with_constant(row: Row) -> Any:
                a = left(row)
                if a is None or a is SENTINEL_MISSING:
                    return a
                try:
                    return apply(a, constant)
                except (TypeError, ZeroDivisionError):
                    return checked(a, constant)

            return _folded(with_constant, left_const)

        def binary(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is SENTINEL_MISSING or b is SENTINEL_MISSING:
                return SENTINEL_MISSING
            if a is None or b is None:
                return None
            try:
                return apply(a, b)
            except (TypeError, ZeroDivisionError):
                return checked(a, b)

        return _folded(binary, left_const, right_const)

    def _unary(self, expr: UnaryOp) -> tuple[Compiled, Any]:
        operand, const = self._compile(expr.operand, None)
        op = expr.op
        if op == "NOT":

            def negation(row: Row) -> Any:
                value = operand(row)
                if value is None or value is SENTINEL_MISSING:
                    return None
                return not value

            return _folded(negation, const)
        if op == "-":

            def minus(row: Row) -> Any:
                value = operand(row)
                if value is None or value is SENTINEL_MISSING:
                    return value
                return -value

            return _folded(minus, const)

        def unknown(row: Row) -> Any:
            operand(row)
            raise ExecutionError(f"unknown unary operator {op!r}")

        return unknown, _NOT_CONST

    def _is_absent(self, expr: IsAbsent) -> tuple[Compiled, Any]:
        operand, const = self._compile(expr.operand, None)
        if self.dialect == "sql" or expr.mode not in ("null", "missing"):
            # SQL has no MISSING: both absent states are NULL; SQL++'s
            # IS UNKNOWN is null or missing.
            def test(value: Any) -> bool:
                return value is None or value is SENTINEL_MISSING
        elif expr.mode == "null":
            def test(value: Any) -> bool:
                return value is None
        else:
            def test(value: Any) -> bool:
                return value is SENTINEL_MISSING
        negated = expr.negated

        def is_absent(row: Row) -> bool:
            return test(operand(row)) is not negated

        return _folded(is_absent, const)

    def _call(self, expr: FuncCall, aggregates: dict[int, Any] | None) -> tuple[Compiled, Any]:
        name = expr.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            if aggregates is not None:
                slot = id(expr)
                return (lambda row: aggregates[slot]), _NOT_CONST
            return _raising(
                PlanningError, f"aggregate {name} must be handled by an aggregation operator"
            ), _NOT_CONST
        parts = [self._compile(arg, None) for arg in expr.args]
        fns = [fn for fn, _const in parts]

        def call(row: Row) -> Any:
            args = [fn(row) for fn in fns]
            for value in args:
                if value is SENTINEL_MISSING:
                    return SENTINEL_MISSING
            for value in args:
                if value is None:
                    return None
            return apply_scalar_function(name, args)

        return _folded(call, *(const for _fn, const in parts))


def _constant(value: Any) -> tuple[Compiled, Any]:
    return (lambda row: value), value


def _raising(error: type[Exception], message: str) -> Compiled:
    def fail(row: Row) -> Any:
        raise error(message)

    return fail


def _folded(fn: Compiled, *consts: Any) -> tuple[Compiled, Any]:
    """Fold *fn* into a constant when its operands are all constant.

    A fold that raises (``'a' > 1``) is abandoned: the closure raises per
    row instead, so an empty input still succeeds.
    """
    if any(const is _NOT_CONST for const in consts):
        return fn, _NOT_CONST
    try:
        value = fn({})
    except Exception:
        return fn, _NOT_CONST
    if isinstance(value, (dict, list)):
        return fn, _NOT_CONST
    return _constant(value)


def _chain(expr: Expression, op: str) -> list[Expression]:
    """The operands of a left-to-right chain of one associative operator."""
    if isinstance(expr, BinaryOp) and expr.op == op:
        return _chain(expr.left, op) + _chain(expr.right, op)
    return [expr]


def _conjunction(fns: list[Compiled]) -> Compiled:
    def conjunction(row: Row) -> Any:
        result: Any = True
        for fn in fns:
            value = fn(row)
            if value is None or value is SENTINEL_MISSING:
                if result is True:
                    result = None
            elif not value:
                result = False
        return result

    return conjunction


def _disjunction(fns: list[Compiled]) -> Compiled:
    def disjunction(row: Row) -> Any:
        result: Any = False
        for fn in fns:
            value = fn(row)
            if value is None or value is SENTINEL_MISSING:
                if result is False:
                    result = None
            elif value:
                result = True
        return result

    return disjunction


_COMPARE_ERROR = "cannot compare {left} with {right}"
_APPLY_ERROR = "cannot apply {op} to {left} and {right}"

#: Binary operator -> (function, the message a TypeError becomes; None
#: lets it propagate as is).  Division by zero is NULL.
_BINARY: dict[str, tuple[Callable[[Any, Any], Any], str | None]] = {
    "=": (operator.eq, None),
    "!=": (operator.ne, None),
    ">": (operator.gt, _COMPARE_ERROR),
    "<": (operator.lt, _COMPARE_ERROR),
    ">=": (operator.ge, _COMPARE_ERROR),
    "<=": (operator.le, _COMPARE_ERROR),
    "||": (lambda a, b: str(a) + str(b), None),
    "+": (operator.add, _APPLY_ERROR),
    "-": (operator.sub, _APPLY_ERROR),
    "*": (operator.mul, _APPLY_ERROR),
    "/": (operator.truediv, _APPLY_ERROR),
    "%": (operator.mod, _APPLY_ERROR),
}


def apply_scalar_function(name: str, args: list[Any]) -> Any:
    """Dispatch one non-aggregate function by (upper-cased) name."""
    try:
        func = _SCALAR_FUNCTIONS[name]
    except KeyError:
        raise ExecutionError(f"unknown function {name}") from None
    try:
        return func(*args)
    except TypeError as exc:
        raise ExecutionError(f"bad arguments to {name}: {exc}") from None


_SCALAR_FUNCTIONS = {
    "UPPER": lambda s: str(s).upper(),
    "LOWER": lambda s: str(s).lower(),
    "LENGTH": lambda s: len(str(s)),
    "ABS": abs,
    "ROUND": lambda x, n=0: round(x, int(n)),
    "FLOOR": math.floor,
    "CEIL": math.ceil,
    "SQRT": math.sqrt,
    "TO_STRING": str,
    "TO_INT": lambda x: int(float(x)),
    "TO_DOUBLE": float,
    "SUBSTR": lambda s, start, length=None: (
        str(s)[int(start):] if length is None else str(s)[int(start):int(start) + int(length)]
    ),
    "TRIM": lambda s: str(s).strip(),
    "CONCAT": lambda *parts: "".join(str(part) for part in parts),
}
