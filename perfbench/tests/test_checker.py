import pytest

from perfbench.workloads import (
    Cluster4,
    PointSession,
    Table3,
    WrongAnswer,
    run_blocks,
)

ROWS = 400


@pytest.fixture(scope="module")
def table3():
    workload = Table3(seed=11, rows=ROWS)
    workload.build()
    workload.prepare()
    return workload


def test_every_table3_action_answers_correctly(table3):
    errors = []
    out = run_blocks(table3, "check", blocks=1, errors=errors)
    assert errors == []
    assert (out.attempted, out.failed) == (52, 0)


def test_a_planted_wrong_answer_is_a_failed_operation(table3):
    reference = table3.reference
    planted = dict(reference.table3)
    planted[1] = reference.table3[1] + 1
    planted[4] = reference.table3[4][1:]
    original = reference.table3
    reference.table3 = planted
    try:
        errors = []
        out = run_blocks(table3, "check", blocks=1, errors=errors)
    finally:
        reference.table3 = original
    # E1 and E4 on each of the four backends.
    assert out.failed == 8
    assert all("wrong answer" in message for message in errors)


def test_validity_checks_reject_rows_that_were_never_stored(table3):
    reference = table3.reference
    good = next(iter(reference.by_unique1.values()))

    class Frame:
        def __init__(self, records):
            self.records = records

        def to_records(self):
            return self.records

    with pytest.raises(WrongAnswer):
        reference.check_head(Frame([dict(good, stringu1="forged")] * 5))
    with pytest.raises(WrongAnswer):
        reference.check_head(Frame([good] * 5))  # duplicates
    with pytest.raises(WrongAnswer):
        reference.check_map_head(Frame([{"stringu1": "lowercase"}] * 5))


def test_an_exception_is_a_failed_operation(table3):
    action = table3.block("x")[0]
    broken = type(action)(action.kind, action.backend, lambda: 1 / 0, action.check)
    from perfbench.workloads import run_action

    errors = []
    _, ok, _ = run_action(broken, errors)
    assert not ok and "ZeroDivisionError" in errors[0]


def test_point_session_and_cluster_answer_correctly():
    for cls in (PointSession, Cluster4):
        workload = cls(seed=5, rows=ROWS)
        workload.build()
        workload.prepare()
        errors = list(workload.warm_up_checks())
        out = run_blocks(workload, "check", blocks=2, errors=errors)
        assert errors == []
        assert out.failed == 0
    # 38 cluster kinds: 13 expressions x 3 clusters, less sharded MongoDB E12.
    assert out.attempted == 2 * 38
