"""Replication layer tests: placement, health, failover, hedging, quorum.

The tentpole guarantee under test: with ``replication_factor=2`` and a
seeded permanent single-node outage, every query completes non-partial
with results identical to the healthy run (``QueryStats.failovers >= 1``,
``failovers_total`` metric and ``failover`` spans emitted) — while the
same seed with R=1 still raises :class:`ShardFailureError`, so nothing
changed silently for single-copy clusters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PolyFrame, PostgresConnector
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.cluster import GreenplumCluster
from repro.cluster.base import (
    round_robin_shards,
    shard_records,
)
from repro.cluster.replica import (
    DOWN,
    MIN_ADAPTIVE_HEDGE_SECONDS,
    SUSPECT,
    UP,
    HedgePolicy,
    NodeHealth,
    NodeHealthBoard,
    ReplicaSet,
    ReplicaStore,
    records_checksum,
    resolve_replication_factor,
)
from repro.errors import (
    ReplicaDivergenceError,
    ReproError,
    ShardFailureError,
    TransientBackendError,
)
from repro.obs import Tracer, metrics, set_global_tracer
from repro.obs.trace import _reset_global_tracer
from repro.resilience import (
    NODE_DOWN,
    CircuitBreaker,
    FaultInjector,
    FaultRule,
    RetryPolicy,
    cluster_resilience,
    no_sleep,
)
from repro.resilience.faults import (
    ENV_FAULT_RATE,
    ENV_NODE_DOWN,
    _reset_global_resilience,
    global_resilience,
)
from repro.wisconsin import loaders, wisconsin_records

NUM_NODES = 4
NUM_RECORDS = 120
RECORDS = wisconsin_records(NUM_RECORDS)


def fast_policy(max_attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts, sleep=no_sleep)


def make_cluster(
    injector=None,
    *,
    replication_factor=2,
    num_nodes=NUM_NODES,
    allow_partial=False,
    hedge=None,
    quorum_reads=False,
    breaker_factory=None,
):
    cluster = GreenplumCluster(
        num_nodes,
        retry_policy=fast_policy(),
        fault_injector=injector if injector is not None else FaultInjector(sleep=no_sleep),
        allow_partial=allow_partial,
        replication_factor=replication_factor,
        hedge=hedge,
        quorum_reads=quorum_reads,
        breaker_factory=breaker_factory,
    )
    for dataset in ("Bench.data", "Bench.data2"):
        cluster.create_table(dataset, primary_key=loaders.PRIMARY_KEY)
        cluster.insert(dataset, RECORDS, shard_key="unique1")
    return cluster


COUNT_QUERY = "SELECT COUNT(*) FROM Bench.data"


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
class TestReplicaSet:
    def test_chained_declustering_placement(self):
        rs = ReplicaSet(4, 4, 2)
        assert rs.replicas_for(0) == (0, 1)
        assert rs.replicas_for(3) == (3, 0)  # wraps around
        assert rs.primary_for(2) == 2
        assert rs.placement() == {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)}

    def test_single_node_loss_leaves_every_shard_covered(self):
        rs = ReplicaSet(5, 5, 2)
        for dead in range(5):
            for shard in range(5):
                survivors = [n for n in rs.replicas_for(shard) if n != dead]
                assert survivors, f"shard {shard} uncovered with node {dead} dead"

    def test_shards_on_node(self):
        rs = ReplicaSet(4, 4, 2)
        assert rs.shards_on(0) == (0, 3)  # its primary plus its neighbour's backup
        assert rs.shards_on(1) == (0, 1)

    def test_replication_factor_one_is_the_seed_layout(self):
        rs = ReplicaSet(3, 3, 1)
        assert rs.placement() == {0: (0,), 1: (1,), 2: (2,)}

    def test_validation(self):
        with pytest.raises(ReproError):
            ReplicaSet(0, 3, 1)
        with pytest.raises(ReproError):
            ReplicaSet(3, 0, 1)
        with pytest.raises(ReproError):
            ReplicaSet(3, 3, 0)
        with pytest.raises(ReproError, match="exceeds"):
            ReplicaSet(3, 3, 4)
        with pytest.raises(ReproError, match="out of range"):
            ReplicaSet(3, 3, 2).replicas_for(3)
        with pytest.raises(ReproError, match="out of range"):
            ReplicaSet(3, 3, 2).shards_on(3)


class TestResolveReplicationFactor:
    def test_defaults_to_single_copy(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLICATION", raising=False)
        assert resolve_replication_factor(None, 4) == 1

    def test_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICATION", "2")
        assert resolve_replication_factor(None, 4) == 2

    def test_clamped_to_node_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICATION", "3")
        assert resolve_replication_factor(None, 2) == 2
        assert resolve_replication_factor(5, 3) == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICATION", "3")
        assert resolve_replication_factor(1, 4) == 1

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICATION", "two")
        assert resolve_replication_factor(None, 4) == 1

    def test_invalid_request_raises(self):
        with pytest.raises(ReproError):
            resolve_replication_factor(0, 4)


# ----------------------------------------------------------------------
# Node health
# ----------------------------------------------------------------------
class TestNodeHealth:
    def test_state_transitions(self):
        health = NodeHealth(0, suspect_after=1, down_after=3)
        assert health.state == UP
        health.record_failure()
        assert health.state == SUSPECT
        health.record_failure()
        health.record_failure()
        assert health.state == DOWN
        health.record_success(0.01)
        assert health.state == UP  # any success resets the streak

    def test_ewma_latency(self):
        health = NodeHealth(0, alpha=0.5)
        assert health.ewma_latency is None
        health.record_success(0.1)
        assert health.ewma_latency == pytest.approx(0.1)
        health.record_success(0.3)
        assert health.ewma_latency == pytest.approx(0.5 * 0.3 + 0.5 * 0.1)
        assert health.latency_samples == 2

    def test_validation(self):
        with pytest.raises(ReproError):
            NodeHealth(0, alpha=0.0)
        with pytest.raises(ReproError):
            NodeHealth(0, suspect_after=3, down_after=2)

    def test_board_orders_replicas_by_health(self):
        board = NodeHealthBoard(3)
        for _ in range(3):
            board.record_failure(1)
        board.record_failure(2)
        # node1 is down, node2 suspect, node0 up.
        assert board.order((1, 2, 0)) == (0, 2, 1)
        # Stable among equals: placement order is preserved.
        assert board.order((2, 0, 1)) == (0, 2, 1) or board.order((0, 2, 1))[0] == 0

    def test_nodes_down_gauge_moves_both_ways(self):
        board = NodeHealthBoard(2, cluster_name="gauge-test[2]")
        before = metrics.gauge_value("nodes_down", cluster="gauge-test[2]")
        for _ in range(3):
            board.record_failure(1)
        assert board.down_nodes() == (1,)
        assert metrics.gauge_value("nodes_down", cluster="gauge-test[2]") == before + 1
        board.record_success(1, 0.01)
        assert metrics.gauge_value("nodes_down", cluster="gauge-test[2]") == before
        assert board.down_nodes() == ()

    def test_per_node_breakers(self):
        breakers = {
            n: CircuitBreaker(min_calls=1, failure_rate_threshold=0.5, name=f"n{n}")
            for n in range(2)
        }
        board = NodeHealthBoard(2, breaker_factory=breakers.get)
        board.record_failure(1)
        board.record_failure(1)
        assert board.allow(0)
        assert not board.allow(1)  # node1's breaker opened; node0 untouched


class TestHedgePolicy:
    def test_disabled_never_hedges(self):
        health = NodeHealth(0)
        health.record_success(0.1)
        assert HedgePolicy(enabled=False).threshold_for(health) is None

    def test_fixed_threshold_override(self):
        assert HedgePolicy(threshold_seconds=0.25).threshold_for(NodeHealth(0)) == 0.25

    def test_adaptive_threshold_needs_samples(self):
        policy = HedgePolicy(latency_multiplier=3.0, min_samples=3)
        health = NodeHealth(0, alpha=1.0)
        health.record_success(0.1)
        health.record_success(0.1)
        assert policy.threshold_for(health) is None  # cold estimate: no hedging
        health.record_success(0.1)
        assert policy.threshold_for(health) == pytest.approx(0.3)

    def test_tiny_ewma_yields_the_floor(self):
        # Sub-millisecond shards: 3 x EWMA would sit below scheduler jitter.
        policy = HedgePolicy(latency_multiplier=3.0, min_samples=3)
        health = NodeHealth(0, alpha=1.0)
        for _ in range(3):
            health.record_success(0.0002)
        assert policy.threshold_for(health) == MIN_ADAPTIVE_HEDGE_SECONDS

    def test_floor_leaves_fixed_thresholds_alone(self):
        fixed = MIN_ADAPTIVE_HEDGE_SECONDS / 5
        assert HedgePolicy(threshold_seconds=fixed).threshold_for(NodeHealth(0)) == fixed

    def test_validation(self):
        with pytest.raises(ReproError):
            HedgePolicy(latency_multiplier=1.0)
        with pytest.raises(ReproError):
            HedgePolicy(threshold_seconds=-1.0)


class TestReplicaStore:
    def test_placement_and_views(self):
        rs = ReplicaSet(3, 3, 2)
        store = ReplicaStore(rs, lambda shard, node: f"engine-s{shard}n{node}")
        assert store.engines_for(0) == ("engine-s0n0", "engine-s0n1")
        assert store.primaries() == ["engine-s0n0", "engine-s1n1", "engine-s2n2"]
        assert len(store.all_engines()) == 6  # shards x R distinct copies
        assert store.engine(2, 0) == "engine-s2n0"

    def test_missing_replica_is_an_error(self):
        store = ReplicaStore(ReplicaSet(3, 3, 1), lambda s, n: (s, n))
        with pytest.raises(ReproError, match="no replica"):
            store.engine(0, 1)


def test_records_checksum_is_order_and_content_sensitive():
    a = [{"k": 1}, {"k": 2}]
    assert records_checksum(a) == records_checksum([{"k": 1}, {"k": 2}])
    assert records_checksum(a) != records_checksum([{"k": 2}, {"k": 1}])
    assert records_checksum(a) != records_checksum([{"k": 1}, {"k": 3}])


# ----------------------------------------------------------------------
# Satellite: sharding helpers validate shard counts
# ----------------------------------------------------------------------
class TestShardCountValidation:
    def test_round_robin_rejects_zero_shards(self):
        with pytest.raises(ReproError, match="at least one shard"):
            round_robin_shards([{"k": 1}], 0)

    def test_shard_records_rejects_zero_shards(self):
        with pytest.raises(ReproError, match="at least one shard"):
            shard_records([{"k": 1}], 0, "k")
        with pytest.raises(ReproError, match="at least one shard"):
            shard_records([{"k": 1}], -1, None)


# ----------------------------------------------------------------------
# Node-level fault kinds
# ----------------------------------------------------------------------
class TestNodeFaults:
    def test_node_down_matches_suffix_exactly(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        injector.before_request("c[12]#shard4@node10")  # node 10 is NOT node 1
        with pytest.raises(TransientBackendError, match="node1"):
            injector.before_request("c[12]#shard1@node1")

    def test_node_down_is_sticky_until_restored(self):
        injector = FaultInjector(sleep=no_sleep)
        rule = injector.node_down(0)
        for _ in range(5):
            with pytest.raises(TransientBackendError):
                injector.before_request("c#shard0@node0")
        injector.restore(rule)
        assert injector.before_request("c#shard0@node0") == 0.0

    def test_slow_node_reports_injected_latency(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.slow_node(2, 0.25)
        assert injector.before_request("c#shard2@node2") == pytest.approx(0.25)
        assert injector.before_request("c#shard2@node3") == 0.0

    def test_node_rules_require_a_node(self):
        with pytest.raises(ValueError, match="need a node"):
            FaultRule(kind=NODE_DOWN)

    def test_node_rule_scoped_to_backend(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(0, backend="greenplum")
        injector.before_request("mongodb-cluster[2]#shard0@node0")  # other backend
        with pytest.raises(TransientBackendError):
            injector.before_request("greenplum[2]#shard0@node0")


class TestEnvResilience:
    @pytest.fixture(autouse=True)
    def fresh_global(self):
        _reset_global_resilience()
        yield
        _reset_global_resilience()

    def test_node_down_env_builds_injector(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_RATE, raising=False)
        monkeypatch.setenv(ENV_NODE_DOWN, "1, 3")
        injector, policy = global_resilience()
        assert injector is not None and policy is not None
        injector.before_request("c#shard0@node0")
        with pytest.raises(TransientBackendError):
            injector.before_request("c#shard1@node1")
        with pytest.raises(TransientBackendError):
            injector.before_request("c#shard3@node3")

    def test_cluster_resilience_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_NODE_DOWN, "1")
        mine = FaultInjector(sleep=no_sleep)
        policy = fast_policy()
        assert cluster_resilience(mine, policy) == (mine, policy)
        injector, fallback = cluster_resilience(None, None)
        assert injector is not None and fallback is not None

    def test_no_env_means_no_injection(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_RATE, raising=False)
        monkeypatch.delenv(ENV_NODE_DOWN, raising=False)
        assert global_resilience() == (None, None)
        assert cluster_resilience(None, None) == (None, None)


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
class TestFailover:
    def test_node_outage_fails_over_and_answers_completely(self):
        healthy = make_cluster().execute(COUNT_QUERY)

        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        before = metrics.counter_value("failovers_total")
        result = make_cluster(injector).execute(COUNT_QUERY)

        assert result.records == healthy.records
        assert not result.partial
        assert result.stats.failovers >= 1
        assert result.stats.failed_shards == 0
        assert metrics.counter_value("failovers_total") > before
        # Shard 1's primary is dead; its backup on node 2 served.
        assert result.served_by[1] == 2
        assert 1 not in result.served_by

    def test_failover_spans_are_emitted(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        cluster = make_cluster(injector)
        tracer = Tracer()
        set_global_tracer(tracer)
        try:
            cluster.execute(COUNT_QUERY)
        finally:
            _reset_global_tracer()
        failovers = [
            span
            for root in tracer.spans
            for span in root.walk()
            if span.name == "failover"
        ]
        assert failovers, "no failover spans recorded"
        assert failovers[0].attributes["to_node"] == 2

    def test_same_outage_with_single_copy_still_fails(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        cluster = make_cluster(injector, replication_factor=1)
        with pytest.raises(ShardFailureError) as excinfo:
            cluster.execute(COUNT_QUERY)
        assert excinfo.value.shard == 1
        assert excinfo.value.attempts == 3  # the full single-replica budget

    def test_partial_only_after_every_replica_is_exhausted(self):
        # Nodes 1 and 2 dead kills BOTH copies of shard 1 (replicas 1, 2).
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        injector.node_down(2)
        cluster = make_cluster(injector, allow_partial=True)
        result = cluster.execute(COUNT_QUERY)
        assert result.partial
        assert result.stats.failed_shards == 1
        assert result.served_by[1] == -1  # the dropped shard
        # Shards 0 and 2 still answered via their surviving replica.
        assert result.served_by[0] == 0 and result.served_by[2] == 3

        without_partial = make_cluster(injector_copy(), allow_partial=False)
        with pytest.raises(ShardFailureError, match="all 2 replicas"):
            without_partial.execute(COUNT_QUERY)

    def test_open_breaker_skips_straight_to_replica(self):
        breakers = {
            n: CircuitBreaker(min_calls=1, failure_rate_threshold=0.5, name=f"gp-n{n}")
            for n in range(NUM_NODES)
        }
        cluster = make_cluster(breaker_factory=breakers.get)
        breakers[0].record_failure()
        breakers[0].record_failure()  # node0 now fails fast
        result = cluster.execute(COUNT_QUERY)
        assert not result.partial
        assert result.stats.failovers >= 1
        assert result.served_by[0] == 1  # shard 0 served by its backup

    def test_health_ranking_avoids_known_down_nodes(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        cluster = make_cluster(injector)
        first = cluster.execute(COUNT_QUERY)
        # After the first query node 1 is marked down; the second query
        # goes straight to the backup with no doomed attempts.
        second = cluster.execute(COUNT_QUERY)
        assert cluster.health.node(1).state == DOWN
        assert second.records == first.records
        assert second.shard_attempts[1] <= first.shard_attempts[1]


def injector_copy() -> FaultInjector:
    injector = FaultInjector(sleep=no_sleep)
    injector.node_down(1)
    injector.node_down(2)
    return injector


# ----------------------------------------------------------------------
# Hedged requests
# ----------------------------------------------------------------------
class TestHedging:
    def test_slow_node_is_hedged_and_loses(self):
        healthy = make_cluster().execute(COUNT_QUERY)
        injector = FaultInjector(sleep=no_sleep)
        injector.slow_node(2, 0.5)
        before_hedges = metrics.counter_value("hedges_total")
        before_wins = metrics.counter_value("hedge_wins_total")
        cluster = make_cluster(injector, hedge=HedgePolicy(threshold_seconds=0.01))
        result = cluster.execute(COUNT_QUERY)

        assert result.records == healthy.records
        assert result.stats.hedges >= 1
        assert result.stats.hedge_wins >= 1
        assert metrics.counter_value("hedges_total") > before_hedges
        assert metrics.counter_value("hedge_wins_total") > before_wins
        # Shard 2's slow primary lost the race to its backup on node 3.
        assert result.served_by[2] == 3

    def test_adaptive_policy_hedges_a_slow_node_above_the_floor(self):
        injector = FaultInjector(sleep=no_sleep)
        cluster = make_cluster(injector, hedge=HedgePolicy())
        # Uncached: under the CI cache matrix a repeated query would be
        # served from the cache and never reach the slow node.
        cluster.result_cache = None
        for _ in range(3):  # warm every node's latency estimate
            cluster.execute(COUNT_QUERY)
        injector.slow_node(2, 0.5)
        result = cluster.execute(COUNT_QUERY)
        assert result.stats.hedges >= 1
        assert result.served_by[2] == 3

    def test_hedge_spans_carry_the_winner(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.slow_node(2, 0.5)
        cluster = make_cluster(injector, hedge=HedgePolicy(threshold_seconds=0.01))
        tracer = Tracer()
        set_global_tracer(tracer)
        try:
            cluster.execute(COUNT_QUERY)
        finally:
            _reset_global_tracer()
        hedges = [
            span
            for root in tracer.spans
            for span in root.walk()
            if span.name == "hedge"
        ]
        assert hedges
        assert any(span.attributes["win"] for span in hedges)

    def test_hedging_disabled_by_policy(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.slow_node(2, 0.5)
        cluster = make_cluster(injector, hedge=HedgePolicy(enabled=False))
        result = cluster.execute(COUNT_QUERY)
        assert result.stats.hedges == 0
        assert result.served_by[2] == 2  # slow primary still serves


# ----------------------------------------------------------------------
# Quorum-checked reads
# ----------------------------------------------------------------------
class TestQuorumReads:
    def test_healthy_quorum_agrees(self):
        cluster = make_cluster(quorum_reads=True)
        result = cluster.execute(COUNT_QUERY)
        assert result.scalar() == NUM_RECORDS
        assert result.stats.quorum_reads == NUM_NODES  # every shard checked
        assert not result.partial

    def test_divergent_replica_is_detected(self):
        cluster = make_cluster(quorum_reads=True)
        # Corrupt shard 0's backup copy (on node 1): a lost-update twin.
        backup = cluster.store.engine(0, 1)
        rogue = dict(RECORDS[0])
        rogue["unique1"], rogue["unique2"] = 999_991, 999_991
        backup.insert("Bench.data", [rogue])
        before = metrics.counter_value("replica_divergence_total")
        with pytest.raises(ReplicaDivergenceError) as excinfo:
            cluster.execute("SELECT COUNT(*) FROM Bench.data")
        assert excinfo.value.shard == 0
        assert set(excinfo.value.nodes) == {0, 1}
        assert metrics.counter_value("replica_divergence_total") > before

    def test_unreachable_quorum_fails_the_shard(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        # R=2 needs both replicas to answer; with node 1 dead shard 0's
        # quorum (nodes 0+1) can never assemble.
        cluster = make_cluster(injector, num_nodes=2, quorum_reads=True)
        with pytest.raises(ShardFailureError):
            cluster.execute(COUNT_QUERY)

    def test_quorum_majority_with_three_replicas_survives_one_loss(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(1)
        cluster = make_cluster(
            injector, num_nodes=3, replication_factor=3, quorum_reads=True
        )
        result = cluster.execute(COUNT_QUERY)
        assert result.scalar() == NUM_RECORDS  # 2-of-3 majorities still form
        assert not result.partial


# ----------------------------------------------------------------------
# The acceptance-criteria chaos test
# ----------------------------------------------------------------------
def canonical(value):
    """Byte-comparable form of a Table III expression result."""
    value = DataFrameAPI().materialize(value)
    if hasattr(value, "to_records"):
        return repr(value.to_records())
    return repr(value)


def run_all_expressions(cluster):
    connector = PostgresConnector(cluster, fault_injector=FaultInjector(sleep=no_sleep))
    tracer = Tracer(max_roots=4096)
    connector.set_tracer(tracer)
    df = PolyFrame("Bench", "data", connector)
    df2 = PolyFrame("Bench", "data2", connector)
    params = benchmark_params()
    api = DataFrameAPI()
    results = {expr.id: canonical(expr.run(df, df2, params, api)) for expr in EXPRESSIONS}
    return results, connector, tracer


class TestAvailabilityUnderNodeOutage:
    """ISSUE acceptance: R=2 + a dead node answers like the healthy run."""

    def test_every_expression_survives_a_permanent_node_outage(self):
        healthy_results, _, _ = run_all_expressions(make_cluster())

        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(2)
        before_failovers = metrics.counter_value("failovers_total")
        chaos_results, connector, tracer = run_all_expressions(make_cluster(injector))

        assert chaos_results == healthy_results
        assert all(r.outcome == "ok" for r in connector.send_log)  # never partial
        total_failovers = sum(r.failovers for r in connector.send_log)
        assert total_failovers >= 1
        assert metrics.counter_value("failovers_total") > before_failovers
        failover_spans = [
            span
            for root in tracer.spans
            for span in root.walk()
            if span.name == "failover"
        ]
        assert failover_spans, "chaos run emitted no failover spans"

    def test_same_seed_with_single_copy_raises(self):
        injector = FaultInjector(sleep=no_sleep)
        injector.node_down(2)
        cluster = make_cluster(injector, replication_factor=1)
        connector = PostgresConnector(cluster, fault_injector=FaultInjector(sleep=no_sleep))
        df = PolyFrame("Bench", "data", connector)
        with pytest.raises(ShardFailureError):
            len(df)


@settings(max_examples=12, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=4),
    dead_node=st.integers(min_value=0, max_value=3),
)
def test_property_any_single_node_outage_is_survivable(num_nodes, dead_node):
    """With R=2, killing any one node never changes a query's answer."""
    dead_node %= num_nodes
    injector = FaultInjector(sleep=no_sleep)
    injector.node_down(dead_node)
    cluster = GreenplumCluster(
        num_nodes,
        retry_policy=fast_policy(),
        fault_injector=injector,
        replication_factor=2,
    )
    cluster.create_table("B.data", primary_key=loaders.PRIMARY_KEY)
    cluster.insert("B.data", RECORDS, shard_key="unique1")
    result = cluster.execute("SELECT COUNT(*) FROM B.data")
    assert result.scalar() == NUM_RECORDS
    assert not result.partial
    assert result.stats.failovers >= 1
    assert dead_node not in result.served_by
