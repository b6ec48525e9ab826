"""Tracer fan-out, the NULL_TRACER contract, and sink behaviour."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.events import DRIVER, NETWORK, CounterEvent, SpanEvent, TraceEvent
from repro.obs.sinks import JsonlSink, RingSink
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.simulation.timeline import Timeline

pytestmark = pytest.mark.obs


class TestTracer:
    def test_emit_fans_out_to_every_sink(self):
        a, b = RingSink(), RingSink()
        tracer = Tracer(sinks=[a, b])
        ev = TraceEvent(1.0, "x", DRIVER)
        tracer.emit(ev)
        assert a.events() == [ev]
        assert b.events() == [ev]

    def test_disabled_tracer_emits_nothing(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring], enabled=False)
        tracer.emit(TraceEvent(1.0, "x"))
        tracer.instant("y", DRIVER)
        tracer.counter("z", DRIVER, 1.0)
        tracer.span("w", DRIVER, 0.0, 1.0)
        assert len(ring) == 0

    def test_instant_uses_clock(self):
        ring = RingSink()
        tracer = Tracer(clock=lambda: 42.0, sinks=[ring])
        tracer.instant("tick", NETWORK, track="n1", detail=3)
        (ev,) = ring.events()
        assert ev.ts == 42.0
        assert ev.name == "tick"
        assert ev.get("detail") == 3

    def test_instant_without_clock_raises(self):
        tracer = Tracer(sinks=[RingSink()])
        with pytest.raises(RuntimeError, match="no clock"):
            tracer.instant("tick", DRIVER)

    def test_span_defaults_end_to_clock_now(self):
        ring = RingSink()
        tracer = Tracer(clock=lambda: 10.0, sinks=[ring])
        tracer.span("work", DRIVER, start=4.0)
        (ev,) = ring.events()
        assert isinstance(ev, SpanEvent)
        assert ev.ts == 4.0 and ev.dur == pytest.approx(6.0)
        assert ev.end == pytest.approx(10.0)

    def test_counter_event_shape(self):
        ring = RingSink()
        tracer = Tracer(clock=lambda: 5.0, sinks=[ring])
        tracer.counter("queue.depth", DRIVER, 7.0, track="cluster")
        (ev,) = ring.events()
        assert isinstance(ev, CounterEvent)
        assert ev.value == 7.0 and ev.phase == "C"

    def test_events_reads_first_ring_sink(self):
        ring = RingSink()
        tracer = Tracer(sinks=[ring])
        tracer.emit(TraceEvent(1.0, "x"))
        assert [e.name for e in tracer.events()] == ["x"]
        assert Tracer(sinks=[]).events() == []

    def test_add_sink_sees_only_future_events(self):
        first = RingSink()
        tracer = Tracer(sinks=[first])
        tracer.emit(TraceEvent(1.0, "old"))
        late = RingSink()
        tracer.add_sink(late)
        tracer.emit(TraceEvent(2.0, "new"))
        assert [e.name for e in late.events()] == ["new"]
        assert len(first) == 2

    def test_narration_reaches_only_narrating_sinks(self):
        ring = RingSink()
        timeline = Timeline(clock=lambda: 3.0)
        tracer = Tracer(clock=lambda: 3.0, sinks=[ring])
        assert not tracer.narrating
        tracer.add_sink(timeline)
        assert tracer.narrating
        tracer.narrate("task.start", "t-0", app="a")
        assert len(ring) == 0
        assert [(r.time, r.kind, r.subject) for r in timeline] == [(3.0, "task.start", "t-0")]

    def test_disabled_tracer_does_not_narrate(self):
        tracer = Tracer(sinks=[Timeline(clock=lambda: 0.0)], enabled=False)
        assert not tracer.narrating


class TestNullTracer:
    def test_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(TraceEvent(1.0, "x"))  # no-op, no error
        NULL_TRACER.instant("y", DRIVER)
        assert NULL_TRACER.events() == []

    def test_rejects_sinks(self):
        with pytest.raises(RuntimeError, match="shared"):
            NULL_TRACER.add_sink(RingSink())
        assert NULL_TRACER.narrating is False

    def test_is_a_tracer(self):
        assert isinstance(NullTracer(), Tracer)


class TestRingSink:
    def test_bounded_eviction_counts_dropped(self):
        ring = RingSink(capacity=3)
        for i in range(5):
            ring.write(TraceEvent(float(i), f"e{i}"))
        assert len(ring) == 3
        assert ring.total == 5
        assert ring.dropped == 2
        assert [e.name for e in ring.events()] == ["e2", "e3", "e4"]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            RingSink(capacity=0)

    def test_unbounded_when_capacity_none(self):
        ring = RingSink(capacity=None)
        for i in range(10):
            ring.write(TraceEvent(float(i)))
        assert len(ring) == 10 and ring.dropped == 0


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.write(SpanEvent(1.5, "task.attempt", DRIVER, "n1", "e1",
                             {"outcome": "success"}, dur=2.0))
        sink.write(TraceEvent(4.0, "net.stall", NETWORK, "n2"))
        sink.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {
            "ts": 1.5, "name": "task.attempt", "cat": DRIVER, "ph": "X",
            "track": "n1", "lane": "e1", "attrs": {"outcome": "success"},
            "dur": 2.0,
        }
        assert records[1]["ph"] == "i" and "lane" not in records[1]

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError, match="closed"):
            sink.write(TraceEvent(0.0, "x"))
        sink.close()  # idempotent
