import pytest

from perfbench import tracing
from perfbench.tracing import Span, self_times, union_length


def span(start, end, parent=-1, layer="x"):
    s = Span("s", layer, start, parent, 0, "", False, 0)
    s.end = end
    return s


def test_union_length_merges_overlaps_and_clips_to_the_parent():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert union_length([], 0, 1) == 0
    assert union_length([(5, 6)], 0, 1) == 0


def test_self_time_with_nested_children():
    spans = [
        span(0.0, 10.0),  # root
        span(1.0, 4.0, parent=0),
        span(2.0, 3.0, parent=1),  # grandchild: only its parent loses it
        span(5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_with_overlapping_children_counts_the_union_once():
    spans = [
        span(0.0, 10.0),
        span(1.0, 6.0, parent=0),
        span(4.0, 8.0, parent=0),  # overlaps its sibling from 4 to 6
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_recorder_parents_by_stack_and_closes_in_order():
    clock = iter(range(100)).__next__
    rec = tracing.SpanRecorder(clock=lambda: float(clock()))
    outer = rec.open("a", "other")
    inner = rec.open("b", "connector")
    rec.close(inner)
    rec.close(outer)
    assert rec.spans[inner].parent == outer
    assert self_times(rec.spans) == pytest.approx([2.0, 1.0])
    rec.open("c", "x")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_missing_entry_point_is_an_absent_layer(monkeypatch):
    monkeypatch.setattr(
        tracing, "ENTRY_POINTS",
        (("repro.no_such_module.thing", "connector"),
         ("repro.core.connectors.base.DatabaseConnector.no_such_method", "connector")),
    )
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.absent == [path for path, _ in tracing.ENTRY_POINTS]


def test_traced_actions_split_into_layers_that_sum_to_the_action_time():
    from perfbench.workloads import PointSession, run_blocks

    workload = PointSession(seed=7, rows=400)
    workload.build()
    workload.prepare()
    errors = []
    untraced = run_blocks(workload, "untraced", blocks=1, errors=errors)
    import time

    original_sleep = time.sleep
    tracer = tracing.Tracer(list(workload.connectors.values()))
    with tracer:
        traced = run_blocks(workload, "traced", blocks=1, errors=errors, tracer=tracer)
    assert time.sleep is original_sleep
    assert errors == []
    assert traced.digests == untraced.digests
    assert tracer.streams_requested > 0
    assert tracer.streams_served == tracer.streams_requested
    assert tracer.residual_error() < 1e-9
    metrics = tracer.layer_metrics(0.0)
    layer_total = sum(
        metrics[tracing.LAYER_METRIC[layer]] for layer in tracing.TIME_LAYERS
    ) + metrics["other.ms"]
    assert layer_total == pytest.approx(metrics["trace.action_ms"])
    assert metrics["connector.sends"] == pytest.approx(1.0)
    assert metrics["stream.batches"] > 0
    assert metrics["write.rows_written"] > 0
    for engine in tracing.ENGINES:
        assert metrics[f"{engine}.exec_ms"] > 0
        assert metrics[f"{engine}.rows_examined"] > 0
