"""Processes, signals, timeouts, interrupts, composite waits."""

import pytest

from repro.common.errors import SimulationError
from repro.simulation.engine import Simulation
from repro.simulation.process import AllOf, AnyOf, Interrupt, Process, Signal, Timeout


class TestTimeout:
    def test_process_sleeps_for_delay(self, sim):
        times = []

        def proc():
            times.append(sim.now)
            yield Timeout(2.5)
            times.append(sim.now)

        Process(sim, proc())
        sim.run()
        assert times == [0.0, 2.5]

    def test_timeout_carries_value(self, sim):
        got = []

        def proc():
            got.append((yield Timeout(1.0, value="payload")))

        Process(sim, proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)

        p = Process(sim, proc())
        sim.run()
        assert sim.now == 3.0
        assert not p.alive


class TestSignal:
    def test_waiter_resumes_with_value(self, sim):
        signal = Signal(sim, "s")
        got = []

        def waiter():
            got.append((yield signal))

        Process(sim, waiter())
        sim.schedule(3.0, signal.trigger, 42)
        sim.run()
        assert got == [42]
        assert sim.now == 3.0

    def test_multiple_waiters_all_resume(self, sim):
        signal = Signal(sim)
        got = []

        def waiter(tag):
            value = yield signal
            got.append((tag, value))

        Process(sim, waiter("a"))
        Process(sim, waiter("b"))
        sim.schedule(1.0, signal.trigger, "v")
        sim.run()
        assert sorted(got) == [("a", "v"), ("b", "v")]

    def test_wait_on_already_triggered_signal(self, sim):
        signal = Signal(sim)
        signal.trigger("early")
        got = []

        def waiter():
            got.append((yield signal))

        Process(sim, waiter())
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

        def waiter():
            try:
                yield signal
            except RuntimeError as exc:
                caught.append(str(exc))

        Process(sim, waiter())
        sim.schedule(1.0, signal.fail, RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]


class TestProcess:
    def test_return_value_recorded(self, sim):
        def proc():
            yield Timeout(1.0)
            return "result"

        p = Process(sim, proc())
        sim.run()
        assert p.value == "result"
        assert not p.alive

    def test_waiting_on_process_gets_return_value(self, sim):
        def child():
            yield Timeout(2.0)
            return 7

        def parent():
            value = yield Process(sim, child(), name="child")
            return value * 10

        p = Process(sim, parent(), name="parent")
        sim.run()
        assert p.value == 70

    def test_child_exception_reraised_in_parent(self, sim):
        def child():
            yield Timeout(1.0)
            raise ValueError("child died")

        def parent():
            try:
                yield Process(sim, child())
            except ValueError as exc:
                return f"caught {exc}"

        p = Process(sim, parent())
        sim.run()
        assert p.value == "caught child died"

    def test_unwaited_exception_escapes_loudly(self, sim):
        def proc():
            yield Timeout(1.0)
            raise ValueError("unhandled")

        Process(sim, proc())
        with pytest.raises(ValueError, match="unhandled"):
            sim.run()

    def test_yielding_garbage_raises(self, sim):
        def proc():
            yield "not a waitable"

        Process(sim, proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestNames:
    def test_default_name_is_the_generators(self, sim):
        def worker():
            yield Timeout(1.0)

        p = Process(sim, worker())
        assert p.name == "worker"
        assert repr(p) == "<Process worker alive>"
        assert p.done.name == "worker.done"

    def test_tuple_name_is_joined_when_read(self, sim):
        def worker():
            yield "not a waitable"

        p = Process(sim, worker(), name=("run:", "t-0", "@", "e-0"))
        assert p.name == "run:t-0@e-0"
        assert p.done.name == "run:t-0@e-0.done"
        assert repr(p) == "<Process run:t-0@e-0 alive>"
        with pytest.raises(SimulationError, match="process 'run:t-0@e-0' yielded"):
            sim.run()

    def test_done_signal_name_in_double_trigger_error(self, sim):
        def worker():
            yield Timeout(1.0)

        p = Process(sim, worker(), name="w")
        sim.run()
        with pytest.raises(SimulationError, match="'w.done' triggered twice"):
            p.done.trigger()


class TestInterrupt:
    def test_interrupt_raises_inside_process(self, sim):
        events = []

        def proc():
            try:
                yield Timeout(100.0)
            except Interrupt as stop:
                events.append((sim.now, stop.cause))

        p = Process(sim, proc())
        sim.schedule(5.0, p.interrupt, "preempted")
        sim.run()
        assert events == [(5.0, "preempted")]
        assert sim.now == pytest.approx(5.0)

    def test_interrupted_timeout_does_not_fire_later(self, sim):
        resumed = []

        def proc():
            try:
                yield Timeout(10.0)
                resumed.append("timeout")
            except Interrupt:
                pass

        p = Process(sim, proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert resumed == []
        assert sim.now == pytest.approx(1.0)

    def test_interrupt_dead_process_is_noop(self, sim):
        def proc():
            yield Timeout(1.0)

        p = Process(sim, proc())
        sim.run()
        p.interrupt()  # must not raise
        sim.run()

    def test_unhandled_interrupt_terminates_process(self, sim):
        def proc():
            yield Timeout(100.0)

        p = Process(sim, proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert not p.alive


class TestComposites:
    def test_allof_waits_for_every_child(self, sim):
        def child(delay):
            yield Timeout(delay)
            return delay

        def parent():
            values = yield AllOf(
                [Process(sim, child(1.0)), Process(sim, child(3.0))]
            )
            return values

        p = Process(sim, parent())
        sim.run()
        assert p.value == [1.0, 3.0]
        assert sim.now == 3.0

    def test_allof_empty_resumes_immediately(self, sim):
        def parent():
            values = yield AllOf([])
            return values

        p = Process(sim, parent())
        sim.run()
        assert p.value == []

    def test_anyof_returns_first_with_index(self, sim):
        def parent():
            result = yield AnyOf([Timeout(5.0, "slow"), Timeout(1.0, "fast")])
            return result

        p = Process(sim, parent())
        sim.run()
        assert p.value == (1, "fast")
        # The losing timeout is unsubscribed (cancelled); the clock stops
        # at the winner.
        assert sim.now == pytest.approx(1.0)

    def test_anyof_requires_children(self):
        with pytest.raises(SimulationError):
            AnyOf([])

    def test_allof_failure_propagates(self, sim):
        def bad():
            yield Timeout(1.0)
            raise RuntimeError("nope")

        def parent():
            try:
                yield AllOf([Process(sim, bad()), Timeout(10.0)])
            except RuntimeError:
                return "failed fast"

        p = Process(sim, parent())
        sim.run()
        assert p.value == "failed fast"
