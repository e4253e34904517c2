"""Document store tests: expressions, pipeline stages, optimizer behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import MongoDatabase
from repro.docstore import pipeline as pipeline_module
from repro.docstore.exprs import compile_expr, get_path
from repro.errors import CatalogError, ExecutionError, UnsupportedOperationError
from repro.storage.keys import SENTINEL_MISSING


@pytest.fixture()
def db():
    database = MongoDatabase(query_prep_overhead=0.0)
    database.create_collection("users")
    docs = []
    for i in range(300):
        doc = {"n": i, "mod": i % 5, "name": f"user{i}", "lang": ["en", "fr"][i % 2]}
        if i % 10 != 0:
            doc["score"] = i % 7
        docs.append(doc)
    database.collection("users").insert_many(docs)
    database.collection("users").create_index("n")
    database.collection("users").create_index("mod")
    return database


class TestExprEvaluator:
    def setup_method(self):
        self.doc = {"a": 3, "b": "x", "nested": {"c": 7}, "n": None}

    def test_field_paths(self):
        assert compile_expr("$a")(self.doc) == 3
        assert compile_expr("$nested.c")(self.doc) == 7
        assert compile_expr("$missing")(self.doc) is SENTINEL_MISSING

    def test_get_path_on_non_dict(self):
        assert get_path({"a": 5}, "a.b") is SENTINEL_MISSING

    def test_variables(self):
        assert compile_expr("$$v", {"v": 42})(self.doc) == 42
        with pytest.raises(ExecutionError):
            compile_expr("$$undefined")(self.doc)

    def test_comparisons(self):
        assert compile_expr({"$eq": ["$a", 3]})(self.doc) is True
        assert compile_expr({"$gt": ["$a", 2]})(self.doc) is True
        assert compile_expr({"$lte": ["$a", 2]})(self.doc) is False

    def test_missing_sorts_below_null(self):
        """The expression-13 trick: missing < null in comparison order."""
        assert compile_expr({"$lt": ["$missing", None]})(self.doc) is True
        assert compile_expr({"$lt": ["$n", None]})(self.doc) is False

    def test_logical_operators(self):
        expr = {"$and": [{"$eq": ["$a", 3]}, {"$eq": ["$b", "x"]}]}
        assert compile_expr(expr)(self.doc) is True
        assert compile_expr({"$not": [{"$eq": ["$a", 3]}]})(self.doc) is False
        assert compile_expr({"$or": [{"$eq": ["$a", 9]}, {"$eq": ["$b", "x"]}]})(self.doc)

    def test_arithmetic(self):
        assert compile_expr({"$add": ["$a", 2]})(self.doc) == 5
        assert compile_expr({"$multiply": ["$a", "$a"]})(self.doc) == 9
        assert compile_expr({"$mod": ["$a", 2]})(self.doc) == 1
        assert compile_expr({"$add": ["$missing", 1]})(self.doc) is None

    def test_string_operators(self):
        assert compile_expr({"$toUpper": "$b"})(self.doc) == "X"
        assert compile_expr({"$concat": ["$b", "!"]})(self.doc) == "x!"

    def test_conversions(self):
        assert compile_expr({"$toInt": "3.9"})(self.doc) == 3
        assert compile_expr({"$toString": "$a"})(self.doc) == "3"

    def test_if_null(self):
        assert compile_expr({"$ifNull": ["$missing", 9]})(self.doc) == 9
        assert compile_expr({"$ifNull": ["$a", 9]})(self.doc) == 3

    def test_unknown_operator(self):
        with pytest.raises(ExecutionError):
            compile_expr({"$frobnicate": 1})(self.doc)


class TestPipelineStages:
    def test_match_and_limit(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$eq": ["$mod", 2]}}},
            {"$limit": 3},
        ])
        assert len(result) == 3
        assert all(doc["mod"] == 2 for doc in result.records)

    def test_match_shorthand_equality(self, db):
        result = db.aggregate("users", [{"$match": {"lang": "en"}}, {"$count": "c"}])
        assert result.records == [{"c": 150}]

    def test_match_operator_form(self, db):
        result = db.aggregate("users", [{"$match": {"n": {"$gte": 295}}}, {"$count": "c"}])
        assert result.records == [{"c": 5}]

    def test_project_inclusion_keeps_id(self, db):
        result = db.aggregate("users", [{"$project": {"n": 1}}, {"$limit": 1}])
        assert set(result.records[0]) == {"_id", "n"}

    def test_project_id_exclusion(self, db):
        result = db.aggregate("users", [
            {"$project": {"n": 1}},
            {"$project": {"_id": 0}},
            {"$limit": 1},
        ])
        assert set(result.records[0]) == {"n"}

    def test_project_computed(self, db):
        result = db.aggregate("users", [
            {"$project": {"up": {"$toUpper": "$name"}, "_id": 0}},
            {"$limit": 1},
        ])
        assert result.records[0]["up"] == "USER0"

    def test_add_fields(self, db):
        result = db.aggregate("users", [
            {"$addFields": {"double": {"$multiply": ["$n", 2]}}},
            {"$limit": 1},
        ])
        assert result.records[0]["double"] == 0

    def test_group_scalar(self, db):
        result = db.aggregate("users", [
            {"$group": {"_id": {}, "max": {"$max": "$n"}, "total": {"$sum": "$n"}}},
            {"$project": {"_id": 0}},
        ])
        assert result.records == [{"max": 299, "total": sum(range(300))}]

    def test_group_by_key(self, db):
        result = db.aggregate("users", [
            {"$group": {"_id": {"mod": "$mod"}, "c": {"$sum": 1}}},
        ])
        assert len(result) == 5
        assert all(doc["c"] == 60 for doc in result.records)

    def test_group_avg_and_std_skip_non_numeric(self, db):
        result = db.aggregate("users", [
            {"$group": {"_id": {}, "avg": {"$avg": "$score"}, "std": {"$stdDevPop": "$score"}}},
        ])
        record = result.records[0]
        assert record["avg"] is not None and record["std"] is not None

    def test_sort_skip_limit(self, db):
        result = db.aggregate("users", [
            {"$sort": {"n": -1}},
            {"$skip": 2},
            {"$limit": 3},
            {"$project": {"n": 1, "_id": 0}},
        ])
        assert [doc["n"] for doc in result.records] == [297, 296, 295]

    def test_count_stage(self, db):
        result = db.aggregate("users", [{"$match": {}}, {"$count": "total"}])
        assert result.records == [{"total": 300}]

    def test_unwind(self, db):
        db.create_collection("orders")
        db.collection("orders").insert_many([
            {"id": 1, "items": ["a", "b"]},
            {"id": 2, "items": []},
            {"id": 3},
        ])
        flat = db.aggregate("orders", [{"$unwind": {"path": "$items"}}])
        assert len(flat) == 2
        preserved = db.aggregate("orders", [
            {"$unwind": {"path": "$items", "preserveNullAndEmptyArrays": True}},
        ])
        assert len(preserved) == 4

    def test_out_writes_collection(self, db):
        db.aggregate("users", [
            {"$match": {"$expr": {"$eq": ["$mod", 0]}}},
            {"$out": "mod0"},
        ])
        assert db.estimated_document_count("mod0") == 60

    def test_lookup_local_foreign(self, db):
        result = db.aggregate("users", [
            {"$match": {"n": {"$lte": 4}}},
            {"$lookup": {"from": "users", "localField": "n", "foreignField": "n", "as": "self"}},
        ])
        assert all(len(doc["self"]) == 1 for doc in result.records)

    def test_lookup_pipeline_inlj(self, db):
        result = db.aggregate("users", [
            {"$lookup": {
                "from": "users", "as": "other", "let": {"left": "$n"},
                "pipeline": [{"$match": {}}, {"$match": {"$expr": {"$eq": ["$n", "$$left"]}}}],
            }},
            {"$unwind": {"path": "$other"}},
            {"$count": "c"},
        ])
        assert result.records == [{"c": 300}]

    def test_invalid_stage_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.aggregate("users", [{"$teleport": 1}])

    def test_unknown_collection(self, db):
        with pytest.raises(CatalogError):
            db.aggregate("nope", [{"$match": {}}])


class TestPipelineOptimizer:
    def test_leading_empty_match_elided(self, db):
        result = db.aggregate("users", [{"$match": {}}, {"$count": "c"}])
        assert result.stats.full_scans == 1  # one scan, not two

    def test_equality_match_uses_index(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$eq": ["$n", 7]}}},
        ])
        assert len(result) == 1
        assert result.stats.full_scans == 0
        assert result.stats.index_entries >= 1

    def test_and_of_equalities_probes_index(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$and": [
                {"$eq": ["$mod", 2]},
                {"$eq": ["$lang", "en"]},
            ]}}},
            {"$count": "c"},
        ])
        assert result.stats.full_scans == 0
        assert result.records[0]["c"] == 30

    def test_sort_limit_uses_backward_index(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$sort": {"n": -1}},
            {"$project": {"_id": 0}},
            {"$limit": 5},
        ])
        assert [doc["n"] for doc in result.records] == [299, 298, 297, 296, 295]
        assert result.stats.heap_fetches == 5

    def test_count_cannot_use_metadata(self, db):
        """The paper's expression-1 caveat: pipelines scan for counts."""
        result = db.aggregate("users", [{"$match": {}}, {"$count": "c"}])
        assert result.stats.full_scans == 1
        # ...even though the metadata count is available outside pipelines:
        assert db.estimated_document_count("users") == 300

    def test_missing_values_not_indexed(self, db):
        db.collection("users").create_index("score")
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$lt": ["$score", None]}}},
            {"$count": "c"},
        ])
        assert result.records == [{"c": 30}]
        assert result.stats.full_scans == 1


_SEMANTICS_DOC = {"a": 3, "n": None, "s": "x", "nested": {"c": 7}}


class TestCompiledSemantics:
    """Table-driven pins for the compiled evaluator's edge semantics."""

    @pytest.mark.parametrize(
        "expr, expected",
        [
            # MISSING and NULL operands.
            ({"$add": ["$a", "$missing"]}, None),
            ({"$multiply": ["$n", 2]}, None),
            ({"$subtract": [10, "$a", 2]}, 5),
            ({"$concat": ["$s", "$n"]}, None),
            ({"$toUpper": "$missing"}, ""),
            ({"$toString": "$n"}, None),
            ({"$ifNull": ["$n", "$a"]}, 3),
            ({"$eq": ["$missing", None]}, False),
            ({"$lt": ["$missing", None]}, True),
            ({"$lt": ["$n", None]}, False),
            ({"$gt": ["$s", 1000]}, True),  # strings sort above numbers
            ({"$gte": [True, 0]}, False),  # booleans sort below numbers
            ({"$eq": ["$a", 3.0]}, True),
            # Logic: MISSING and NULL are false.
            ({"$and": ["$a", "$missing"]}, False),
            ({"$or": ["$n", "$missing"]}, False),
            ({"$or": ["$n", "$s"]}, True),
            ({"$not": ["$missing"]}, True),
            # $in against constant and computed arrays.
            ({"$in": ["$a", [1, 2, 3]]}, True),
            ({"$in": ["$missing", [None]]}, False),
            ({"$in": ["$nested.c", ["$a", 7]]}, True),
            # Constant operators fold to the same answers.
            ({"$add": [1, 2]}, 3),
            ({"$cond": [{"$gt": [2, 1]}, "yes", "no"]}, "yes"),
            ({"$literal": "$a"}, "$a"),
        ],
    )
    def test_values(self, expr, expected):
        assert compile_expr(expr)(_SEMANTICS_DOC) == expected

    def test_logic_short_circuits(self):
        # The undefined variable is never evaluated.
        assert compile_expr({"$and": [False, "$$undefined"]})(_SEMANTICS_DOC) is False
        assert compile_expr({"$or": [True, "$$undefined"]})(_SEMANTICS_DOC) is True

    def test_cond_is_lazy(self):
        taken = compile_expr({"$cond": [{"$eq": ["$a", 3]}, "$s", "$$undefined"]})
        assert taken(_SEMANTICS_DOC) == "x"
        other = compile_expr({"$cond": ["$missing", "$$undefined", "$a"]})
        assert other(_SEMANTICS_DOC) == 3

    def test_division_by_zero_raises(self):
        divide = compile_expr({"$divide": ["$a", 0]})
        with pytest.raises(ZeroDivisionError):
            divide(_SEMANTICS_DOC)
        with pytest.raises(ZeroDivisionError):
            compile_expr({"$divide": [1, 0]})(_SEMANTICS_DOC)

    @pytest.mark.parametrize(
        "expr, error",
        [
            ({"$in": ["$a", "$s"]}, "requires an array"),
            ({"$in": ["$a", 5]}, "requires an array"),
            ("$$undefined", "undefined pipeline variable"),
            ({"$frobnicate": 1}, "unknown aggregation operator"),
            ({"$eq": ["$a"]}, "two-element array"),
            ({"$cond": {"if": True}}, "if, then, else"),
        ],
    )
    def test_errors_surface_when_evaluated(self, expr, error):
        compiled = compile_expr(expr)  # compiling never raises
        with pytest.raises(ExecutionError, match=error):
            compiled(_SEMANTICS_DOC)

    def test_bad_operator_over_empty_input_is_empty(self, db):
        db.create_collection("empty")
        bad = [
            {"$match": {"$expr": {"$frobnicate": ["$n", 1]}}},
            {"$project": {"x": {"$in": ["$n", "$$nope"]}}},
        ]
        assert db.aggregate("empty", bad).records == []
        with pytest.raises(ExecutionError):
            db.aggregate("users", bad)

    def test_expressions_compile_once_per_query(self, db, monkeypatch):
        calls = []
        real = pipeline_module.compile_expr

        def counting(expr, scope=None):
            calls.append(expr)
            return real(expr, scope)

        monkeypatch.setattr(pipeline_module, "compile_expr", counting)
        pipeline = [
            {"$match": {"$expr": {"$gt": ["$n", 10]}}},
            {"$addFields": {"twice": {"$multiply": ["$n", 2]}}},
            {"$group": {"_id": {"mod": "$mod"}, "top": {"$max": "$twice"}}},
        ]
        small = MongoDatabase(query_prep_overhead=0.0)
        small.create_collection("users")
        small.collection("users").insert_many([{"n": i, "mod": i % 5} for i in range(20)])
        small.aggregate("users", pipeline)
        compiled_small = len(calls)
        calls.clear()
        result = db.aggregate("users", pipeline)  # 300 documents
        assert len(calls) == compiled_small == 4
        assert sorted(doc["top"] for doc in result.records) == [590, 592, 594, 596, 598]


class TestRangeProbe:
    """A $match $expr range on an indexed field is served by the index."""

    def test_expression_11_shape_uses_the_index(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$and": [
                {"$gte": ["$n", 38]}, {"$lte": ["$n", 47]},
            ]}}},
            {"$count": "count"},
        ])
        assert result.records == [{"count": 10}]
        assert result.stats.full_scans == 0
        assert result.stats.heap_fetches == 10

    def test_lone_lower_bound_uses_the_index(self, db):
        result = db.aggregate("users", [
            {"$match": {"$expr": {"$gt": ["$n", 295]}}},
            {"$project": {"n": 1, "_id": 0}},
        ])
        assert result.records == [{"n": 296}, {"n": 297}, {"n": 298}, {"n": 299}]
        assert result.stats.full_scans == 0

    def test_residual_rechecks_the_whole_stage(self, db):
        result = db.aggregate("users", [
            {"$match": {"$expr": {"$and": [
                {"$gte": ["$n", 100]}, {"$eq": ["$lang", "en"]}, {"$lt": ["$n", 110]},
            ]}}},
            {"$count": "count"},
        ])
        assert result.records == [{"count": 5}]
        assert result.stats.full_scans == 0

    def test_lone_upper_bound_full_scans(self, db):
        # Missing and null fields are not indexed, and an upper bound
        # alone would have to return them.
        db.collection("users").create_index("score")
        result = db.aggregate("users", [
            {"$match": {"$expr": {"$lte": ["$score", 1]}}},
            {"$count": "count"},
        ])
        missing = 30
        low_scores = sum(1 for i in range(300) if i % 10 != 0 and i % 7 <= 1)
        assert result.records == [{"count": missing + low_scores}]
        assert result.stats.full_scans == 1

    def test_null_lower_bound_full_scans(self, db):
        db.collection("users").create_index("score")
        result = db.aggregate("users", [
            {"$match": {"$expr": {"$gte": ["$score", None]}}},
            {"$count": "count"},
        ])
        assert result.records == [{"count": 270}]
        assert result.stats.full_scans == 1


class TestShardedLimitation:
    def test_sharded_lookup_raises(self):
        from repro.cluster import MongoDBCluster

        cluster = MongoDBCluster(2, query_prep_overhead=0.0)
        cluster.create_collection("users")
        cluster.insert_many("users", [{"n": i} for i in range(10)])
        with pytest.raises(UnsupportedOperationError):
            cluster.aggregate("users", [
                {"$lookup": {"from": "users", "as": "x", "let": {"l": "$n"},
                             "pipeline": [{"$match": {}}]}},
            ])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.integers(0, 50))
def test_property_match_count_agrees_with_python(values, pivot):
    db = MongoDatabase(query_prep_overhead=0.0)
    db.create_collection("c")
    db.collection("c").insert_many([{"v": value} for value in values])
    result = db.aggregate("c", [
        {"$match": {"$expr": {"$gte": ["$v", pivot]}}},
        {"$count": "n"},
    ])
    expected = sum(1 for value in values if value >= pivot)
    got = result.records[0]["n"] if result.records else 0
    assert got == expected
