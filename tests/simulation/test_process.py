"""Signals: one-shot events whose waiters are plain callbacks."""

import pytest

from repro.common.errors import SimulationError
from repro.simulation.process import Signal


class TestSignal:
    def test_waiter_resumes_with_value(self, sim):
        signal = Signal(sim, "s")
        got = []
        signal.subscribe(lambda value, exc: got.append((sim.now, value, exc)))
        sim.schedule(3.0, signal.trigger, 42)
        sim.run()
        assert got == [(3.0, 42, None)]
        assert sim.now == 3.0

    def test_multiple_waiters_all_resume(self, sim):
        signal = Signal(sim)
        got = []
        for tag in ("a", "b"):
            signal.subscribe(lambda value, exc, tag=tag: got.append((tag, value)))
        sim.schedule(1.0, signal.trigger, "v")
        sim.run()
        # Each waiter runs in its own event, in subscription order.
        assert got == [("a", "v"), ("b", "v")]
        assert sim.events_processed == 3

    def test_wait_on_already_triggered_signal(self, sim):
        signal = Signal(sim)
        signal.trigger("early")
        got = []
        signal.subscribe(lambda value, exc: got.append(value))
        assert got == []  # not called inside subscribe
        sim.run()
        assert got == ["early"]

    def test_double_trigger_raises(self, sim):
        signal = Signal(sim)
        signal.trigger()
        with pytest.raises(SimulationError):
            signal.trigger()

    def test_fail_propagates_into_waiter(self, sim):
        signal = Signal(sim)
        caught = []
        signal.subscribe(lambda value, exc: caught.append((value, str(exc))))
        sim.schedule(1.0, signal.fail, RuntimeError("boom"))
        sim.run()
        assert caught == [(None, "boom")]

    def test_unsubscribed_waiter_is_not_woken(self, sim):
        signal = Signal(sim)
        got = []

        def waiter(value, exc):
            got.append(value)

        signal.subscribe(waiter)
        signal.unsubscribe(waiter)
        signal.unsubscribe(waiter)  # absent: a no-op
        signal.trigger(1)
        sim.run()
        assert got == []
        assert sim.events_processed == 0
