"""Timeline: recording, querying, fingerprinting, projecting trace events."""

import pytest

from repro.obs.events import (
    AllocationRound,
    BreakerTransition,
    FaultHealed,
    FaultInjected,
    TaskAttempt,
    TraceEvent,
    TransferSpan,
)
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.simulation.timeline import Timeline, TimelineRecord


def make_timeline(times):
    it = iter(times)
    return Timeline(clock=lambda: next(it))


def test_records_carry_time_and_details():
    tl = make_timeline([1.5])
    tl.record("task.start", "t-0", executor="e-1", node="w-2")
    rec = tl[0]
    assert rec.time == 1.5
    assert rec.kind == "task.start"
    assert rec.get("executor") == "e-1"
    assert rec.get("missing", "dflt") == "dflt"


def test_disabled_timeline_records_nothing():
    # A timeline is off by not being attached: the tracer never reaches it.
    tl = Timeline(clock=lambda: 0.0)
    tracer = Tracer(clock=lambda: 0.0, sinks=[RingSink()])
    tracer.emit(TraceEvent(0.0, "executor.release", lane="e-0", attrs={"app": "a"}))
    assert not tracer.narrating
    assert len(tl) == 0


def test_write_projects_typed_events_onto_records():
    tl = make_timeline([7.0, 8.0, 9.0])
    tl.write(BreakerTransition(
        1.0, track="w-1", attrs={"node": "w-1", "state": "open", "prev": "closed", "app": "a"},
    ))
    tl.write(FaultInjected(2.0, track="w-2", attrs={
        "kind": "correlated", "target": "w-2,w-3", "nodes": 2, "restart_delay": 4.0,
    }))
    tl.write(TransferSpan(3.0, dur=1.5, attrs={
        "transfer": "xfer-1", "src": "w-1", "dst": "w-2", "size": 1.0, "outcome": "ok",
    }))
    assert [r.as_dict() for r in tl] == [
        {"time": 7.0, "kind": "node.breaker", "subject": "w-1",
         "app": "a", "prev": "closed", "state": "open"},
        {"time": 8.0, "kind": "fault.correlated", "subject": "w-2,w-3", "restart_delay": 4.0},
        {"time": 9.0, "kind": "transfer.finish", "subject": "xfer-1", "duration": 1.5},
    ]


@pytest.mark.parametrize(
    "event",
    [
        TraceEvent(1.0, "net.flush", attrs={"changed": 1}),  # no projection
        FaultHealed(1.0, attrs={"kind": "slowdown", "target": "w-1"}),
        TaskAttempt(1.0, attrs={"task": "t", "app": "a", "outcome": "killed"}),
        AllocationRound(1.0, attrs={"manager": "yarn", "round": 1}),
    ],
)
def test_write_skips_events_without_a_record(event):
    tl = make_timeline([1.0])
    tl.write(event)
    assert len(tl) == 0


def test_records_are_stamped_with_the_clock_not_the_span_end():
    tl = make_timeline([0.3])
    tl.write(TransferSpan(0.1, dur=0.2, attrs={"transfer": "x", "outcome": "ok"}))
    assert tl[0].time == 0.3  # 0.1 + 0.2 != 0.3 in floating point


def test_of_kind_filters():
    tl = make_timeline([1, 2, 3])
    tl.record("a", "s1")
    tl.record("b", "s2")
    tl.record("a", "s3")
    assert [r.subject for r in tl.of_kind("a")] == ["s1", "s3"]
    assert [r.subject for r in tl.of_kind("a", "b")] == ["s1", "s2", "s3"]


def test_about_filters_by_subject():
    tl = make_timeline([1, 2])
    tl.record("a", "x")
    tl.record("b", "x")
    assert len(tl.about("x")) == 2
    assert tl.about("y") == []


def test_first_finds_earliest():
    tl = make_timeline([1, 2, 3])
    tl.record("k", "s1")
    tl.record("k", "s2")
    tl.record("other", "s3")
    assert tl.first("k").subject == "s1"
    assert tl.first("k", subject="s2").time == 2
    assert tl.first("nope") is None


def test_as_dict_flattens():
    rec = TimelineRecord(1.0, "k", "s", (("a", 1), ("b", 2)))
    assert rec.as_dict() == {"time": 1.0, "kind": "k", "subject": "s", "a": 1, "b": 2}


def test_fingerprint_is_order_sensitive():
    t1 = make_timeline([1, 2])
    t1.record("a", "x")
    t1.record("b", "y")
    t2 = make_timeline([1, 2])
    t2.record("b", "y")
    t2.record("a", "x")
    assert t1.fingerprint() != t2.fingerprint()


def test_fingerprint_equal_for_identical_traces():
    def build():
        tl = make_timeline([1, 2])
        tl.record("a", "x", k=1)
        tl.record("b", "y", k=2)
        return tl

    assert build().fingerprint() == build().fingerprint()


def test_tail_renders_lines():
    tl = make_timeline([1, 2, 3])
    for i in range(3):
        tl.record("kind", f"s{i}")
    tail = tl.tail(2)
    assert "s1" in tail and "s2" in tail and "s0" not in tail


def test_iteration_in_time_order():
    tl = make_timeline([1, 2, 3])
    for i in range(3):
        tl.record("k", str(i))
    assert [r.subject for r in tl] == ["0", "1", "2"]
