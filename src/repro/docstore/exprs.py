"""Aggregation-expression compilation for the document store.

Implements the operator subset PolyFrame's MongoDB rewrite rules emit
(see the paper's Appendix C): field paths (``"$attr"``), pipeline variables
(``"$$var"``), comparison / logical / arithmetic operators, string and type
conversion operators.

Each expression is compiled once per stage into nested closures
(``compile_expr(expr)(doc)``): field paths become bound getters, operator
dispatch happens at compile time, and operators over constants are folded.
A malformed or unknown operator compiles to a closure that raises when it
is evaluated, so a bad pipeline over an empty collection still returns an
empty result.

Absent fields evaluate to the MISSING sentinel.  Comparisons use a total
BSON-like order in which ``missing < null < booleans < numbers < strings``
(via :func:`repro.storage.keys.index_key`), which makes
``{"$lt": ["$field", None]}`` true exactly for missing fields — the trick
PolyFrame's expression-13 rewrite relies on.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

from repro.errors import ExecutionError
from repro.storage.keys import SAME_RANK_TYPES, SENTINEL_MISSING, index_key

#: A compiled expression: document in, value out.
Compiled = Callable[[Any], Any]

#: What :func:`constant_value` returns for a document-dependent expression.
NOT_CONSTANT = object()


def get_path(document: Mapping[str, Any], path: str) -> Any:
    """Resolve a (possibly dotted) field path; absent yields MISSING."""
    return _walk(document, path.split("."))


def _walk(current: Any, parts: list[str] | tuple[str, ...]) -> Any:
    for part in parts:
        # Documents are plain dicts; the Mapping check is the slow path.
        if type(current) is dict:
            current = current.get(part, SENTINEL_MISSING)
        elif isinstance(current, Mapping) and part in current:
            current = current[part]
        else:
            return SENTINEL_MISSING
    return current


def compile_expr(expr: Any, scope: Mapping[str, Any] | None = None) -> Compiled:
    """Compile an aggregation expression into a ``doc -> value`` closure.

    ``$$name`` reads *scope* when the closure runs, so a caller may rebind
    the variables (a ``$lookup`` per outer document) without recompiling.
    """
    return _compile(expr, scope if scope is not None else {})[0]


def constant_value(expr: Any) -> Any:
    """The value *expr* takes for every document, or ``NOT_CONSTANT``."""
    return _compile(expr, {})[1]


def compile_field(path: str) -> Compiled:
    """A getter for one (possibly dotted) field path."""
    parts = tuple(path.split("."))
    if len(parts) > 1:
        return lambda doc: _walk(doc, parts)
    name = parts[0]

    def field(doc: Any) -> Any:
        if type(doc) is dict:
            return doc.get(name, SENTINEL_MISSING)
        return _walk(doc, parts)

    return field


class FieldRef:
    """Compile-time node reading one field path (``$match``'s field form)."""

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path


# ----------------------------------------------------------------------
# The compiler.  Every node compiles to ``(closure, const)``; ``const`` is
# the node's value when it is the same for every document, else NOT_CONSTANT.
# ----------------------------------------------------------------------


def _constant(value: Any) -> tuple[Compiled, Any]:
    return (lambda doc: value), value


def _compile(expr: Any, scope: Mapping[str, Any]) -> tuple[Compiled, Any]:
    if isinstance(expr, str):
        if expr.startswith("$$"):
            return _variable(expr, scope), NOT_CONSTANT
        if expr.startswith("$"):
            return compile_field(expr[1:]), NOT_CONSTANT
        return _constant(expr)
    if isinstance(expr, dict):
        if len(expr) == 1:
            op, operand = next(iter(expr.items()))
            if op.startswith("$"):
                return _compile_operator(op, operand, scope)
        # A document literal with computed members; built fresh per call.
        members = [(key, _compile(value, scope)) for key, value in expr.items()]
        pairs = [(key, fn) for key, (fn, _const) in members]

        def document(doc: Any) -> dict[str, Any]:
            return {key: fn(doc) for key, fn in pairs}

        if all(const is not NOT_CONSTANT for _key, (_fn, const) in members):
            return document, document(None)
        return document, NOT_CONSTANT
    if isinstance(expr, list):
        fns, consts = _compile_all(expr, scope)

        def array(doc: Any) -> list[Any]:
            return [fn(doc) for fn in fns]

        return array, (array(None) if consts else NOT_CONSTANT)
    if isinstance(expr, FieldRef):
        return compile_field(expr.path), NOT_CONSTANT
    return _constant(expr)  # numeric / boolean / None literal


def _compile_all(items: Any, scope: Mapping[str, Any]) -> tuple[list[Compiled], bool]:
    """Compile a sequence of operands; the flag says all are constant."""
    compiled = [_compile(item, scope) for item in items]
    return [fn for fn, _const in compiled], all(
        const is not NOT_CONSTANT for _fn, const in compiled
    )


def _variable(expr: str, scope: Mapping[str, Any]) -> Compiled:
    name = expr[2:].split(".", 1)[0]
    rest = expr[2 + len(name):]
    parts = tuple(rest[1:].split(".")) if rest.startswith(".") else None

    def variable(doc: Any) -> Any:
        try:
            value = scope[name]
        except KeyError:
            raise ExecutionError(f"undefined pipeline variable {expr!r}") from None
        if parts is None:
            return value
        return _walk(value, parts) if isinstance(value, Mapping) else SENTINEL_MISSING

    return variable


def _compile_operator(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, Any]:
    builder = _OPERATORS.get(op)
    if builder is None:

        def unknown(doc: Any) -> Any:
            raise ExecutionError(f"unknown aggregation operator {op!r}")

        return unknown, NOT_CONSTANT
    try:
        fn, foldable = builder(op, operand, scope)
    except Exception:
        # A malformed operand raises when the operator is evaluated, not
        # when the pipeline is compiled.
        def malformed(doc: Any) -> Any:
            return builder(op, operand, scope)[0](doc)

        return malformed, NOT_CONSTANT
    if not foldable:
        return fn, NOT_CONSTANT
    try:
        value = fn(None)
    except Exception:
        return fn, NOT_CONSTANT  # e.g. {"$divide": [1, 0]} raises per document
    if isinstance(value, (dict, list)):
        return fn, value  # containers stay fresh per document
    return _constant(value)


def _absent(value: Any) -> bool:
    return value is None or value is SENTINEL_MISSING


_COMPARISONS = {
    "$eq": operator.eq,
    "$ne": operator.ne,
    "$gt": operator.gt,
    "$gte": operator.ge,
    "$lt": operator.lt,
    "$lte": operator.le,
}


def _build_comparison(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    compare = _COMPARISONS[op]
    if not isinstance(operand, list) or len(operand) != 2:

        def malformed(doc: Any) -> Any:
            raise ExecutionError("comparison operators take a two-element array")

        return malformed, False
    (left, left_const), (right, right_const) = (_compile(item, scope) for item in operand)
    rank = SAME_RANK_TYPES.get(right_const.__class__) if right_const is not NOT_CONSTANT else None
    if rank is not None and right_const == right_const:  # not NaN
        constant, constant_key = right_const, index_key(right_const)

        def against_constant(doc: Any) -> bool:
            value = left(doc)
            if SAME_RANK_TYPES.get(value.__class__) == rank:
                return compare(value, constant)
            return compare(index_key(value), constant_key)

        return against_constant, left_const is not NOT_CONSTANT

    def comparison(doc: Any) -> bool:
        a = left(doc)
        b = right(doc)
        rank_a = SAME_RANK_TYPES.get(a.__class__)
        # ``a is b`` keeps a NaN equal to itself, as its key tuple is.
        if rank_a is not None and rank_a == SAME_RANK_TYPES.get(b.__class__) and a is not b:
            return compare(a, b)
        return compare(index_key(a), index_key(b))

    return comparison, left_const is not NOT_CONSTANT and right_const is not NOT_CONSTANT


def _build_and(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    fns, consts = _compile_all(list(operand), scope)

    # MISSING is falsy, so plain truthiness is MongoDB's: missing, null,
    # false and zero are false.  Short-circuits like MongoDB: members
    # after the deciding one are not evaluated.
    def conjunction(doc: Any) -> bool:
        for fn in fns:
            if not fn(doc):
                return False
        return True

    return conjunction, consts


def _build_or(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    fns, consts = _compile_all(list(operand), scope)

    def disjunction(doc: Any) -> bool:
        for fn in fns:
            if fn(doc):
                return True
        return False

    return disjunction, consts


def _build_not(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    inner, const = _compile(operand[0] if isinstance(operand, list) else operand, scope)
    return (lambda doc: not inner(doc)), const is not NOT_CONSTANT


def _build_arithmetic(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    func = _ARITHMETIC[op]
    fns, consts = _compile_all(list(operand), scope)
    if len(fns) == 2:
        first, second = fns

        def binary(doc: Any) -> Any:
            a = first(doc)
            b = second(doc)
            if _absent(a) or _absent(b):
                return None
            return func(a, b)

        return binary, consts

    def nary(doc: Any) -> Any:
        values = [fn(doc) for fn in fns]
        if any(_absent(value) for value in values):
            return None
        result = values[0]
        for value in values[1:]:
            result = func(result, value)
        return result

    return nary, consts


def _unary(convert: Callable[[Any], Any], if_absent: Any):
    def build(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
        inner, const = _compile(operand, scope)

        def unary(doc: Any) -> Any:
            value = inner(doc)
            return if_absent if _absent(value) else convert(value)

        return unary, const is not NOT_CONSTANT

    return build


def _item(operand: Any, index: int, scope: Mapping[str, Any]) -> tuple[Compiled, Any]:
    """``operand[index]`` compiled; a missing item raises when it is reached."""
    try:
        item = operand[index]
    except (IndexError, KeyError, TypeError):
        return (lambda doc: operand[index]), NOT_CONSTANT
    return _compile(item, scope)


def _build_if_null(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    (first, first_const), (second, second_const) = _item(operand, 0, scope), _item(operand, 1, scope)

    def if_null(doc: Any) -> Any:
        value = first(doc)
        return second(doc) if _absent(value) else value

    return if_null, first_const is not NOT_CONSTANT and second_const is not NOT_CONSTANT


def _build_concat(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    fns, consts = _compile_all(list(operand), scope)

    def concat(doc: Any) -> Any:
        values = [fn(doc) for fn in fns]
        if any(_absent(value) for value in values):
            return None
        return "".join(str(value) for value in values)

    return concat, consts


def _build_in(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    (needle, needle_const), (haystack, haystack_const) = _item(operand, 0, scope), _item(operand, 1, scope)
    member_keys = None
    if isinstance(haystack_const, list):
        try:
            member_keys = [index_key(member) for member in haystack_const]
        except TypeError:
            member_keys = None  # an unkeyable member raises only if reached

    def contains(doc: Any) -> bool:
        value = needle(doc)
        if member_keys is not None:
            return index_key(value) in member_keys
        members = haystack(doc)
        if not isinstance(members, list):
            raise ExecutionError("$in requires an array as its second operand")
        target = index_key(value)
        return any(index_key(member) == target for member in members)

    return contains, needle_const is not NOT_CONSTANT and haystack_const is not NOT_CONSTANT


def _build_cond(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    # Array form only: [if, then, else] — lazy, the untaken branch is
    # never evaluated (matching MongoDB).
    if not isinstance(operand, list) or len(operand) != 3:

        def malformed(doc: Any) -> Any:
            raise ExecutionError("$cond takes an [if, then, else] array")

        return malformed, False
    fns, consts = _compile_all(operand, scope)
    test, then, otherwise = fns

    def cond(doc: Any) -> Any:
        return then(doc) if test(doc) else otherwise(doc)

    return cond, consts


def _build_is_number(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    inner, const = _compile(operand, scope)

    def is_number(doc: Any) -> bool:
        value = inner(doc)
        # Booleans are not BSON numbers.
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    return is_number, const is not NOT_CONSTANT


def _build_literal(op: str, operand: Any, scope: Mapping[str, Any]) -> tuple[Compiled, bool]:
    return (lambda doc: operand), True


_ARITHMETIC = {
    "$add": operator.add,
    "$subtract": operator.sub,
    "$multiply": operator.mul,
    "$divide": operator.truediv,
    "$mod": operator.mod,
}

_OPERATORS: dict[str, Callable[..., tuple[Compiled, bool]]] = {
    **{op: _build_comparison for op in _COMPARISONS},
    **{op: _build_arithmetic for op in _ARITHMETIC},
    "$and": _build_and,
    "$or": _build_or,
    "$not": _build_not,
    "$toUpper": _unary(lambda value: str(value).upper(), ""),
    "$toLower": _unary(lambda value: str(value).lower(), ""),
    "$toInt": _unary(lambda value: int(float(value)), None),
    "$toString": _unary(str, None),
    "$abs": _unary(abs, None),
    "$ifNull": _build_if_null,
    "$concat": _build_concat,
    "$in": _build_in,
    "$cond": _build_cond,
    "$isNumber": _build_is_number,
    "$literal": _build_literal,
}
