"""The benchmark's workloads, their inputs and the answer checks.

Every input (the Wisconsin data seed, the Table III parameters, the
lookup keys) is drawn here from the run's ``--seed``; the program only
receives the generated values through its public API. Each workload is
one client in one process issuing actions back to back (a closed loop),
with the default serial shard dispatcher.

- ``table3-20k``: the paper's 13 Table III expressions on the four
  single-node backends at 20,000 rows, interleaved round-robin over the
  52 (expression, backend) kinds. Per-row engine work dominates.
- ``point-session``: rotating interactive sessions on the same four
  backends (heads, a point lookup, a one-row write, a 200-row streamed
  drain). Every action touches at most a few hundred rows, so the fixed
  per-action path dominates, and fresh keys miss the compile cache.
- ``cluster-4node``: the 13 expressions on the 4-node AsterixDB, MongoDB
  and Greenplum simulations, sharded on ``unique1``. The only workload
  that runs scatter-gather and shard merge.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.docstore import MongoDatabase
from repro.eager import frame_from_records
from repro.eager import merge as eager_merge
from repro.graphdb import Neo4jDatabase
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB
from repro.wisconsin import WisconsinGenerator, loaders

NAMESPACE = "Bench"
DATASETS = ("data", "data2")
ROWS = 20_000
SINGLE_NODE = ("postgres", "asterixdb", "mongodb", "neo4j")
CLUSTER_NODES = 4
CLUSTER = ("asterixdb-4n", "mongodb-4n", "greenplum")
#: Sharded $lookup is unsupported (as in the paper), so it is not part of the workload.
UNSUPPORTED = {("mongodb-4n", 12)}
BATCH = 16


class WrongAnswer(Exception):
    """An action returned something other than the reference answer."""


@dataclass
class Action:
    """One timed call into the program and the check of what it returned."""

    kind: str
    backend: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    #: Renders the answer for comparing runs; answers that name a fresh
    #: dataset render as a constant.
    digest: Callable[[Any], str] | None = None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def plain(record: dict[str, Any]) -> dict[str, Any]:
    """A record without NULLs (relational backends store absent values as NULL)."""
    return {key: value for key, value in record.items() if value is not None and key != "_id"}


def rows_of(frame: Any) -> list[dict[str, Any]]:
    return [plain(record) for record in frame.to_records()]


def column_values(frame: Any) -> list[Any]:
    """The values of a one-column result (a frame or an eager series)."""
    if hasattr(frame, "to_records"):
        records = frame.to_records()
        expect(all(len(record) == 1 for record in records), "expected one column")
        return [next(iter(record.values())) for record in records]
    return list(frame)


def pairs(frame: Any, key: str) -> list[tuple[Any, Any]]:
    """``(key, value)`` pairs of a two-column group-by result, sorted by key."""
    out = []
    for record in frame.to_records():
        expect(len(record) == 2 and key in record, f"group-by columns {sorted(record)}")
        other = next(value for name, value in record.items() if name != key)
        out.append((record[key], other))
    return sorted(out)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Params:
    """Table III's x/y/z values, drawn within each attribute's range."""

    ten: int
    twenty_percent: int
    two: int
    one_percent_low: int
    one_percent_high: int


def table3_params(seed: int) -> Params:
    rng = random.Random(f"table3-params-{seed}")
    low = rng.randint(0, 90)
    return Params(rng.randint(0, 9), rng.randint(0, 4), rng.randint(0, 1), low, low + 9)


def wisconsin(rows: int, seed: int) -> list[dict[str, Any]]:
    return WisconsinGenerator(rows, seed=seed).records()


def build_single_node(records: list[dict[str, Any]]) -> dict[str, Any]:
    """The four single-node backends, each holding both datasets with indexes."""
    pg = SQLDatabase(name="postgres")
    adb = AsterixDB()
    mongo = MongoDatabase()
    neo = Neo4jDatabase()
    for dataset in DATASETS:
        loaders.load_postgres(pg, NAMESPACE, dataset, records)
        loaders.load_asterixdb(adb, NAMESPACE, dataset, records)
        loaders.load_mongodb(mongo, dataset, records)
        loaders.load_neo4j(neo, dataset, records)
    return {
        "postgres": PostgresConnector(pg),
        "asterixdb": AsterixDBConnector(adb),
        "mongodb": MongoDBConnector(mongo),
        "neo4j": Neo4jConnector(neo),
    }


def build_cluster(records: list[dict[str, Any]]) -> dict[str, Any]:
    """The three 4-node clusters, sharded on ``unique1``, both datasets indexed."""
    from repro.cluster import AsterixDBCluster, GreenplumCluster, MongoDBCluster

    adb = AsterixDBCluster(CLUSTER_NODES)
    adb.create_dataverse(NAMESPACE)
    mongo = MongoDBCluster(CLUSTER_NODES)
    gp = GreenplumCluster(CLUSTER_NODES)
    for dataset in DATASETS:
        qualified = f"{NAMESPACE}.{dataset}"
        adb.create_dataset(NAMESPACE, dataset, primary_key=loaders.PRIMARY_KEY)
        adb.load(qualified, records, shard_key="unique1")
        mongo.create_collection(dataset)
        mongo.insert_many(dataset, records, shard_key="unique1")
        gp.create_table(qualified, primary_key=loaders.PRIMARY_KEY)
        gp.insert(qualified, records, shard_key="unique1")
        for column in loaders.BENCHMARK_INDEX_COLUMNS:
            adb.create_index(qualified, column)
            mongo.create_index(dataset, column)
            gp.create_index(qualified, column)
        gp.analyze(qualified)
    return {
        "asterixdb-4n": AsterixDBConnector(adb),
        "mongodb-4n": MongoDBConnector(mongo),
        "greenplum": PostgresConnector(gp),
    }


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------
class Reference:
    """Expected answers, computed once during set-up from the generated rows.

    Table III answers come from the eager (pandas-like) evaluator in
    ``repro.eager``, the paper's cross-check. Answers whose row order is
    not defined (``head()`` of an unsorted frame) are checked for
    validity: the right number of distinct, genuine rows that satisfy the
    predicate.
    """

    def __init__(self, records: list[dict[str, Any]]) -> None:
        self.records = records
        self.rows = len(records)
        self.by_unique1 = {record["unique1"]: plain(record) for record in records}
        self.by_one_percent: dict[int, list[dict[str, Any]]] = {}
        self.count_by_ten: dict[int, int] = {}
        for record in records:
            self.by_one_percent.setdefault(record["onePercent"], []).append(plain(record))
            self.count_by_ten[record["ten"]] = self.count_by_ten.get(record["ten"], 0) + 1
        self.two_four = {(r["two"], r["four"]) for r in records}
        self.upper_stringu1 = {r["stringu1"].upper() for r in records}

    def add_table3(self, p: Params) -> None:
        """The Table III answers for parameters *p*, from the eager evaluator."""
        self.p = p
        ef = frame_from_records(self.records)
        ef2 = frame_from_records(self.records)
        self.table3 = {
            1: len(ef),
            3: len(ef[(ef["ten"] == p.ten) & (ef["twentyPercent"] == p.twenty_percent) & (ef["two"] == p.two)]),
            4: sorted(ef["oddOnePercent"].value_counts().items()),
            6: ef["unique1"].max(),
            7: ef["unique1"].min(),
            8: pairs(ef.groupby("twenty")["four"].agg("max"), "twenty"),
            9: rows_of(ef.sort_values("unique1", ascending=False).head()),
            11: len(ef[(ef["onePercent"] >= p.one_percent_low) & (ef["onePercent"] <= p.one_percent_high)]),
            12: len(eager_merge(ef, ef2, left_on="unique1", right_on="unique1")),
            13: len(ef[ef["tenPercent"].isna()]),
        }

    # -- validity checks for answers without a defined order ------------
    def check_rows(self, rows: list[dict[str, Any]], n: int, where: Callable[[dict], bool]) -> None:
        expect(len(rows) == n, f"expected {n} rows, got {len(rows)}")
        keys = [row.get("unique1") for row in rows]
        expect(len(set(keys)) == len(keys), "duplicate rows")
        for row in rows:
            expect(row == self.by_unique1.get(row.get("unique1")), f"not a stored row: {row}")
            expect(where(row), f"row fails the predicate: {row}")

    def check_head(self, frame: Any) -> None:
        self.check_rows(rows_of(frame), min(5, self.rows), lambda row: True)

    def check_ten_head(self, frame: Any, ten: int) -> None:
        n = min(5, self.count_by_ten.get(ten, 0))
        self.check_rows(rows_of(frame), n, lambda row: row["ten"] == ten)

    def check_project_head(self, frame: Any) -> None:
        records = frame.to_records()
        expect(len(records) == min(5, self.rows), f"expected 5 rows, got {len(records)}")
        for record in records:
            expect(set(record) == {"two", "four"}, f"projected columns {sorted(record)}")
            expect((record["two"], record["four"]) in self.two_four, f"not a stored pair: {record}")

    def check_map_head(self, frame: Any) -> None:
        values = column_values(frame)
        expect(len(values) == min(5, self.rows), f"expected 5 values, got {len(values)}")
        expect(all(value in self.upper_stringu1 for value in values), f"unmapped values {values}")

    # -- Table III -------------------------------------------------------
    def check_table3(self, expr: int, answer: Any) -> None:
        p = self.p
        if expr == 2:
            self.check_project_head(answer)
        elif expr == 5:
            self.check_map_head(answer)
        elif expr == 10:
            self.check_ten_head(answer, p.ten)
        elif expr == 4:
            expect(pairs(answer, "oddOnePercent") == self.table3[4], "group-by counts differ")
        elif expr == 8:
            expect(pairs(answer, "twenty") == self.table3[8], "group-by maxima differ")
        elif expr == 9:
            expect(rows_of(answer) == self.table3[9], "sorted head differs")
        else:
            expect(answer == self.table3[expr], f"E{expr}: {answer!r} != {self.table3[expr]!r}")


# ----------------------------------------------------------------------
# Table III expressions (written once against the dataframe surface)
# ----------------------------------------------------------------------
EXPRESSIONS: dict[int, Callable[[Any, Any, Params], Any]] = {
    1: lambda df, df2, p: len(df),
    2: lambda df, df2, p: df[["two", "four"]].head(),
    3: lambda df, df2, p: len(
        df[(df["ten"] == p.ten) & (df["twentyPercent"] == p.twenty_percent) & (df["two"] == p.two)]
    ),
    4: lambda df, df2, p: df.groupby("oddOnePercent").agg("count").collect(),
    5: lambda df, df2, p: df["stringu1"].map(str.upper).head(),
    6: lambda df, df2, p: df["unique1"].max(),
    7: lambda df, df2, p: df["unique1"].min(),
    8: lambda df, df2, p: df.groupby("twenty")["four"].agg("max").collect(),
    9: lambda df, df2, p: df.sort_values("unique1", ascending=False).head(),
    10: lambda df, df2, p: df[df["ten"] == p.ten].head(),
    11: lambda df, df2, p: len(
        df[(df["onePercent"] >= p.one_percent_low) & (df["onePercent"] <= p.one_percent_high)]
    ),
    12: lambda df, df2, p: len(df.merge(df2, left_on="unique1", right_on="unique1")),
    13: lambda df, df2, p: len(df[df["tenPercent"].isna()]),
}


def frames(connector: Any) -> tuple[Any, Any]:
    return (
        PolyFrame(NAMESPACE, DATASETS[0], connector),
        PolyFrame(NAMESPACE, DATASETS[1], connector),
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """A closed-loop workload: set-up, a warm-up block, then repeated blocks."""

    name = ""
    #: The pinned tail percentile of ``action_ms.tail``.
    tail_q = 0.9
    #: Whether every streaming send must come back as a lazy stream (the
    #: single-node engines stream; blocking shard merges materialise).
    streams = True

    def __init__(self, seed: int, rows: int = ROWS) -> None:
        self.seed = seed
        self.rows = rows
        self.records: list[dict[str, Any]] = []
        self.connectors: dict[str, Any] = {}
        self.reference: Reference | None = None

    def build(self) -> None:
        """One set-up repetition: generate the rows, load and index every backend."""
        self.records = wisconsin(self.rows, self.seed)
        self.connectors = self._load(self.records)

    def _load(self, records: list[dict[str, Any]]) -> dict[str, Any]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the reference answers and the actions (once, on the system under test)."""
        self.reference = Reference(self.records)

    def block(self, phase: str) -> list[Action]:
        """One pass of the workload; *phase* keeps written names fresh."""
        raise NotImplementedError

    def warm_up_checks(self) -> list[str]:
        """Extra set-up checks beyond the warm-up block; returns failures."""
        return []


class Table3(Workload):
    """13 Table III expressions x {PostgreSQL, AsterixDB, MongoDB, Neo4j}, read-only."""

    name = "table3-20k"
    backends = SINGLE_NODE
    tail_q = 0.9

    def _load(self, records):
        return build_single_node(records)

    def prepare(self) -> None:
        super().prepare()
        self.reference.add_table3(table3_params(self.seed))
        self._frames = {label: frames(conn) for label, conn in self.connectors.items()}
        self._actions = [
            self._action(expr, label)
            for expr in EXPRESSIONS
            for label in self.backends
            if (label, expr) not in UNSUPPORTED
        ]

    def _action(self, expr: int, label: str) -> Action:
        df, df2 = self._frames[label]
        p = self.reference.p
        fn = EXPRESSIONS[expr]
        return Action(
            f"E{expr}",
            label,
            lambda: fn(df, df2, p),
            lambda answer: self.reference.check_table3(expr, answer),
        )

    def block(self, phase: str) -> list[Action]:
        return self._actions


class Cluster4(Table3):
    """The same 13 expressions on the 4-node clusters (MongoDB E12 left out)."""

    name = "cluster-4node"
    backends = CLUSTER
    tail_q = 0.9
    streams = False

    def _load(self, records):
        return build_cluster(records)


class PointSession(Workload):
    """Rotating interactive sessions: heads, a lookup, a one-row write, a streamed drain."""

    name = "point-session"
    backends = SINGLE_NODE
    tail_q = 0.99

    def _load(self, records):
        return build_single_node(records)

    def prepare(self) -> None:
        super().prepare()
        self._frames = {label: frames(conn)[0] for label, conn in self.connectors.items()}
        self._rng: dict[str, random.Random] = {}
        self._written = 0

    def block(self, phase: str) -> list[Action]:
        rng = self._rng.setdefault(phase, random.Random(f"point-session-{self.seed}"))
        actions: list[Action] = []
        for label in self.backends:
            actions.extend(self._session(label, rng, phase))
        return actions

    def _session(self, label: str, rng: random.Random, phase: str) -> list[Action]:
        df = self._frames[label]
        ref = self.reference
        t, k, v = rng.randrange(10), rng.randrange(self.rows), rng.randrange(100)
        self._written += 1
        target = f"ps_{phase}_{self._written}"
        state: dict[str, Any] = {}

        def persist():
            state["frame"] = df[df["unique1"] == k].persist(target)
            return state["frame"].collection

        def drain():
            return list(df[df["onePercent"] == v].iter_batches(BATCH))

        expected = sorted(ref.by_one_percent.get(v, []), key=lambda r: r["unique1"])
        sizes = [BATCH] * (len(expected) // BATCH) + ([len(expected) % BATCH] if len(expected) % BATCH else [])

        def check_drain(batches):
            expect([len(batch) for batch in batches] == sizes, "batch sizes differ")
            got = sorted((row for batch in batches for row in rows_of(batch)), key=lambda r: r["unique1"])
            expect(got == expected, "drained rows differ")

        return [
            Action("head", label, lambda: df.head(), ref.check_head),
            Action("project.head", label, lambda: df[["two", "four"]].head(), ref.check_project_head),
            Action("map.head", label, lambda: df["stringu1"].map(str.upper).head(), ref.check_map_head),
            Action("select.head", label, lambda: df[df["ten"] == t].head(),
                   lambda answer: ref.check_ten_head(answer, t)),
            Action("lookup.collect", label, lambda: df[df["unique1"] == k].collect(),
                   lambda answer: expect(rows_of(answer) == [ref.by_unique1[k]], f"lookup {k} differs")),
            Action("persist", label, persist,
                   lambda answer: expect(answer == target, f"persisted as {answer!r}"),
                   digest=lambda answer: "persisted"),
            Action("persist.len", label, lambda: len(state["frame"]),
                   lambda answer: expect(answer == 1, f"persisted {answer} rows, expected 1")),
            Action("stream.drain", label, drain, check_drain),
        ]

    def warm_up_checks(self) -> list[str]:
        """The concatenated ``iter_batches`` output must equal ``collect()`` row for row."""
        failures = []
        for label, df in self._frames.items():
            frame = df[df["onePercent"] == self.seed % 100]
            streamed = [row for batch in frame.iter_batches(BATCH) for row in batch.to_records()]
            if streamed != frame.collect().to_records():
                failures.append(f"{label}: iter_batches differs from collect()")
        return failures


WORKLOADS: dict[str, type[Workload]] = {cls.name: cls for cls in (Table3, PointSession, Cluster4)}


# ----------------------------------------------------------------------
# Running blocks
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Per-action latencies and failures of one phase."""

    latencies: list[float]
    backends: list[str]
    digests: list[str]
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    blocks: int = 0


def run_action(action: Action, errors: list[str], tracer: Any = None) -> tuple[float, bool, str]:
    """Time one action, then check its answer outside the timed region.

    With a *tracer*, the action is one root span covering exactly the
    timed call.
    """
    span = tracer.begin_action() if tracer is not None else None
    started = time.perf_counter()
    try:
        answer = action.run()
    except Exception as exc:  # a failed operation: counted, the loop goes on
        errors.append(f"{action.kind}/{action.backend}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - started, False, ""
    finally:
        elapsed = time.perf_counter() - started
        if span is not None:
            tracer.end_action(span)
    try:
        action.check(answer)
    except WrongAnswer as exc:
        errors.append(f"{action.kind}/{action.backend}: wrong answer: {exc}")
        return elapsed, False, ""
    except Exception as exc:
        errors.append(f"{action.kind}/{action.backend}: unreadable answer: {type(exc).__name__}: {exc}")
        return elapsed, False, ""
    return elapsed, True, (action.digest or digest)(answer)


def digest(answer: Any) -> str:
    """A comparable rendering of an answer (traced and untraced runs must agree)."""
    if isinstance(answer, list):
        return "[" + ",".join(digest(item) for item in answer) + "]"
    if hasattr(answer, "to_records"):
        return repr(answer.to_records())
    if hasattr(answer, "tolist"):
        return repr(answer.tolist())
    return repr(answer)


def run_blocks(
    workload: Workload,
    phase: str,
    *,
    seconds: float = 0.0,
    min_actions: int = 1,
    blocks: int | None = None,
    errors: list[str],
    tracer: Any = None,
    out: Outcome | None = None,
) -> Outcome:
    """Run whole blocks: *blocks* of them, or as many as end nearest to *seconds*.

    Without *blocks*, the loop stops at the block boundary closest to
    *seconds* once *out* holds at least *min_actions* actions. Passing an
    earlier *out* appends another segment to it.
    """
    out = out if out is not None else Outcome([], [], [])
    started = time.perf_counter()
    ran = 0
    while True:
        now = time.perf_counter() - started
        if blocks is not None and ran >= blocks:
            break
        if blocks is None and out.attempted >= min_actions and ran and now + now / ran / 2 >= seconds:
            break
        for action in workload.block(phase):
            elapsed, ok, answer = run_action(action, errors, tracer)
            out.latencies.append(elapsed)
            out.backends.append(action.backend)
            out.digests.append(answer)
            out.attempted += 1
            out.failed += not ok
        out.blocks += 1
        ran += 1
    out.elapsed += time.perf_counter() - started
    return out
