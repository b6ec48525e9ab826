"""Test oracle: the event engine and process layer as they were before
heap entries became ``(time, seq, handle)`` tuples.

This is ``repro/simulation/engine.py`` followed by
``repro/simulation/process.py`` from that version, verbatim except that
the two files share this one module (so the process half's import of the
engine is dropped and the module docstrings are folded into comments).
``tests/property/test_engine_lockstep.py`` runs random scripts through this
copy and through the production engine and asserts identical fire logs.
Do not optimise it: its job is to stay what the production engine is
compared against.
"""

# --- engine.py ------------------------------------------------------------
# The event loop: a virtual clock driving a binary-heap event queue.
#
# The engine is intentionally minimal — time, ordered callbacks, cancellation —
# with the process/wait machinery layered on top in :mod:`repro.simulation.process`.
# Determinism is absolute: events at equal times fire in scheduling order
# (monotone sequence numbers break ties), and nothing reads the wall clock.
from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.common.errors import SimulationError

__all__ = [
    "EventHandle", "Simulation",
    "Timeout", "Signal", "Process", "Interrupt", "AllOf", "AnyOf",
    "SignalWait",
]


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Instances are created by :meth:`Simulation.schedule`; user code only ever
    cancels or inspects them.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulation"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> bool:
        """Prevent the callback from running.  Returns False if it already ran."""
        if self.fired:
            return False
        if not self.cancelled:
            self.cancelled = True
            self.callback = None  # free references early
            self.args = ()
            if self._sim is not None:
                self._sim._note_cancelled()
        return True

    @property
    def pending(self) -> bool:
        """True while the event is queued and will still fire."""
        return not self.fired and not self.cancelled

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<EventHandle t={self.time:.6g} seq={self.seq} {state}>"


class Simulation:
    """Virtual-time event loop.

    >>> sim = Simulation()
    >>> out = []
    >>> _ = sim.schedule(2.0, out.append, "b")
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> sim.run()
    >>> out, sim.now
    (['a', 'b'], 2.0)
    """

    #: Compaction trigger: rebuild the heap once cancelled handles both
    #: exceed this count and make up more than half the queue (the lazy
    #: deletion strategy asyncio's event loop uses for its timer heap).
    _COMPACT_MIN_DEAD = 32

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: List[EventHandle] = []
        self._deferred: Dict[Any, Tuple[Callable[..., Any], tuple]] = {}
        self._running = False
        self._finished = False
        self.events_processed = 0
        self.deferred_flushes = 0
        #: live (pending) events in the queue — maintained, not scanned
        self._live = 0
        #: cancelled handles still sitting in the heap
        self._dead = 0
        self.heap_compactions = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulation t={self._now:.6g} pending={len(self._queue)}>"

    # -------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6g}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6g} (now is t={self._now:.6g})"
            )
        handle = EventHandle(time, self._seq, callback, args, self)
        self._seq += 1
        heapq.heappush(self._queue, handle)
        self._live += 1
        return handle

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback`` at the current time, after already-queued events
        at this time."""
        return self.schedule(0.0, callback, *args)

    def defer(self, key: Any, callback: Callable[..., Any], *args: Any) -> None:
        """Coalesce ``callback`` to run once before virtual time next advances.

        The event-batch hook: components that react to *every* change at an
        instant (e.g. the network fabric recomputing fair rates on each flow
        arrival) register one deferred callback per ``key`` instead.  All
        events at the current instant fire first; the deferred callbacks then
        run (in registration order) before the clock moves, so N same-time
        changes cost one recompute.  Re-registering an existing ``key``
        before the flush is a no-op, preserving the original order.

        Deferred callbacks may schedule new events at the current instant
        and may re-defer; the loop drains both before advancing time.
        """
        if key not in self._deferred:
            self._deferred[key] = (callback, args)

    # ---------------------------------------------------------------- stepping
    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when the queue is empty.

        Pending deferred callbacks count as work at the current instant.
        """
        self._drop_dead_events()
        if self._queue:
            return min(self._queue[0].time, self._now) if self._deferred else self._queue[0].time
        return self._now if self._deferred else None

    def step(self) -> bool:
        """Fire the single next event.  Returns False when nothing is pending.

        Deferred callbacks (see :meth:`defer`) flush — as one step — when the
        queue is empty or its head lies beyond the current instant.
        """
        self._drop_dead_events()
        if self._deferred and (not self._queue or self._queue[0].time > self._now):
            deferred, self._deferred = self._deferred, {}
            for callback, args in deferred.values():
                callback(*args)
            self.events_processed += 1
            self.deferred_flushes += 1
            return True
        if not self._queue:
            return False
        handle = heapq.heappop(self._queue)
        self._now = handle.time
        handle.fired = True
        self._live -= 1
        callback, args = handle.callback, handle.args
        handle.callback, handle.args = None, ()
        assert callback is not None
        self.events_processed += 1
        callback(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue, optionally stopping the clock at ``until``.

        Returns the final virtual time.  With ``until`` given, all events at
        ``t <= until`` fire and the clock is then advanced to exactly
        ``until`` even if the queue drained earlier, so repeated
        ``run(until=...)`` calls compose.
        """
        if self._running:
            raise SimulationError("simulation is already running (re-entrant run())")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until:.6g}, already at t={self._now:.6g}"
            )
        self._running = True
        try:
            while True:
                nxt = self.peek()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    break
                self.step()
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled, unfired) events in the queue.

        O(1): the count is maintained on schedule/fire/cancel, so obs
        samplers can poll it every interval without scanning the heap.
        """
        return self._live

    @property
    def deferred_count(self) -> int:
        """Coalesced end-of-instant callbacks waiting to flush."""
        return len(self._deferred)

    def stats(self) -> Dict[str, Any]:
        """Read-only event-loop counters for observability probes.

        Everything here is maintained on existing paths (no extra hot-path
        bookkeeping); a trace sampler can poll this at any frequency without
        perturbing the run.
        """
        return {
            "now": self._now,
            "events_processed": self.events_processed,
            "events_scheduled": self._seq,
            "deferred_flushes": self.deferred_flushes,
            "pending_events": self.pending_events,
            "deferred_pending": len(self._deferred),
            "heap_size": len(self._queue),
            "cancelled_in_heap": self._dead,
            "heap_compactions": self.heap_compactions,
        }

    def _note_cancelled(self) -> None:
        """Bookkeeping callback from :meth:`EventHandle.cancel`."""
        self._live -= 1
        self._dead += 1

    def _drop_dead_events(self) -> None:
        """Purge cancelled events: pop from the top, compact when bloated.

        Cancelled handles deep in the heap (driver retry timers, detector
        heartbeats) cannot be popped lazily until their time arrives; once
        they outnumber the live events the whole heap is rebuilt in one
        O(n) pass so every push/pop stops paying for dead weight.
        """
        queue = self._queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
            self._dead -= 1
        if self._dead > self._COMPACT_MIN_DEAD and self._dead * 2 > len(queue):
            self._queue = [h for h in queue if not h.cancelled]
            heapq.heapify(self._queue)
            self._dead = 0
            self.heap_compactions += 1


# --- process.py -----------------------------------------------------------
# Generator-based cooperative processes on top of the event loop.
#
# A process is a Python generator that ``yield``s *waitables*:
#
# * :class:`Timeout` — resume after a virtual-time delay;
# * :class:`Signal` — a one-shot event another component triggers with a value;
# * another :class:`Process` — resume when it finishes (receiving its return
#   value, or re-raising its exception);
# * :class:`AllOf` / :class:`AnyOf` — composite waits.
#
# Example::
#
#     def worker(sim, go):
#         item = yield go                   # resumes once go.trigger(item) runs
#         yield Timeout(item.service_time)
#
# Processes may be interrupted (:meth:`Process.interrupt`), which raises
# :class:`Interrupt` inside the generator at its current yield point — used to
# model task preemption and executor decommissioning.


class Interrupt(Exception):
    """Raised inside a process generator when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Interface of things a process may ``yield``.

    Subclasses implement :meth:`_subscribe`, registering a resume callback
    invoked as ``callback(value, exception)`` exactly once, and
    :meth:`_unsubscribe` to withdraw interest (used by AnyOf and interrupts).
    """

    def _subscribe(self, sim: Simulation, callback) -> None:
        raise NotImplementedError

    def _unsubscribe(self, callback) -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the yielding process after ``delay`` seconds, yielding ``value``."""

    __slots__ = ("delay", "value", "_handle", "_callback")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay
        self.value = value
        self._handle: Optional[EventHandle] = None
        self._callback = None

    def _subscribe(self, sim: Simulation, callback) -> None:
        self._callback = callback
        self._handle = sim.schedule(self.delay, self._fire)

    def _fire(self) -> None:
        cb, self._callback = self._callback, None
        if cb is not None:
            cb(self.value, None)

    def _unsubscribe(self, callback) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._callback = None


class Signal(Waitable):
    """A one-shot event carrying a value (or an exception).

    Multiple processes may wait on the same signal; all are resumed when it
    triggers.  Triggering twice raises.  Waiting on an already-triggered
    signal resumes immediately (on the next event-loop tick).
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_value", "_exception")

    def __init__(self, sim: Simulation, name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: List[Any] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """True once :meth:`trigger` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the signal was triggered with (None before triggering)."""
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the signal, resuming all waiters with ``value``."""
        self._resolve(value, None)

    def fail(self, exception: BaseException) -> None:
        """Fire the signal exceptionally; waiters re-raise ``exception``."""
        self._resolve(None, exception)

    def _resolve(self, value: Any, exception: Optional[BaseException]) -> None:
        if self._triggered:
            raise SimulationError(f"signal {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.sim.call_soon(cb, value, exception)

    def _subscribe(self, sim: Simulation, callback) -> None:
        if self._triggered:
            sim.call_soon(callback, self._value, self._exception)
        else:
            self._callbacks.append(callback)

    def _unsubscribe(self, callback) -> None:
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass


class Process(Waitable):
    """Drives a generator, resuming it when whatever it yielded completes.

    Completion (StopIteration) records the generator's return value; an
    uncaught exception is stored and re-raised in any process waiting on this
    one — or escapes to the event loop if nothing ever waits (fail-fast).
    """

    def __init__(self, sim: Simulation, generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._done = Signal(sim, name=f"{self.name}.done")
        self._current: Optional[Waitable] = None
        self._alive = True
        sim.call_soon(self._resume, None, None)

    # -------------------------------------------------------------- inspection
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    @property
    def done(self) -> Signal:
        """Signal triggered with the generator's return value on completion."""
        return self._done

    @property
    def value(self) -> Any:
        """Return value of the finished generator (None while alive)."""
        return self._done.value

    # ----------------------------------------------------------------- control
    def interrupt(self, cause: Any = None, *, immediate: bool = False) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield.

        By default the interrupt is delivered on the next event-loop tick.
        With ``immediate=True`` and the process suspended at a yield, the
        exception is thrown synchronously — the process's cleanup code runs
        before this call returns (used when a caller must observe released
        resources right away, e.g. killing task attempts).  A process that
        has not yet started falls back to the asynchronous path.
        """
        if not self._alive:
            return
        if self._current is not None:
            self._current._unsubscribe(self._resume)
            self._current = None
            if immediate:
                self._step(lambda: self._gen.throw(Interrupt(cause)))
                return
        self.sim.call_soon(self._resume_with_interrupt, cause)

    def _resume_with_interrupt(self, cause: Any) -> None:
        if not self._alive:
            return
        # The process may have started waiting on something between the
        # interrupt request and its delivery (e.g. it had not reached its
        # first yield yet): withdraw that subscription so no dead timer
        # lingers in the event queue.
        if self._current is not None:
            self._current._unsubscribe(self._resume)
            self._current = None
        self._step(lambda: self._gen.throw(Interrupt(cause)))

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        if not self._alive:
            return
        self._current = None
        if exception is not None:
            self._step(lambda: self._gen.throw(exception))
        else:
            self._step(lambda: self._gen.send(value))

    def _step(self, advance) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self._alive = False
            self._done.trigger(stop.value)
            return
        except Interrupt:
            # Process chose not to handle its interrupt: treat as termination.
            self._alive = False
            self._done.trigger(None)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberate re-dispatch
            self._alive = False
            if self._done._callbacks or self._done.triggered:
                self._done.fail(exc)
            else:
                # No waiters: store it, but also surface loudly.
                self._done.fail(exc)
                raise
            return
        if not isinstance(target, Waitable):
            self._alive = False
            err = SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
            self._done.fail(err)
            raise err
        self._current = target
        target._subscribe(self.sim, self._resume)

    # ---------------------------------------------------------------- waitable
    def _subscribe(self, sim: Simulation, callback) -> None:
        self._done._subscribe(sim, callback)

    def _unsubscribe(self, callback) -> None:
        self._done._unsubscribe(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"


class AllOf(Waitable):
    """Resume when every child waitable has completed.

    Resumes with the list of child values (in construction order).  The first
    child failure propagates immediately.
    """

    def __init__(self, children: Iterable[Waitable]):
        self._children = list(children)
        self._values: List[Any] = [None] * len(self._children)
        self._remaining = len(self._children)
        self._callback = None
        self._failed = False

    def _subscribe(self, sim: Simulation, callback) -> None:
        self._callback = callback
        if self._remaining == 0:
            sim.call_soon(callback, [], None)
            return
        for i, child in enumerate(self._children):
            child._subscribe(sim, self._make_child_callback(i))

    def _make_child_callback(self, index: int):
        def on_child(value: Any, exception: Optional[BaseException]) -> None:
            if self._failed or self._callback is None:
                return
            if exception is not None:
                self._failed = True
                cb, self._callback = self._callback, None
                cb(None, exception)
                return
            self._values[index] = value
            self._remaining -= 1
            if self._remaining == 0:
                cb, self._callback = self._callback, None
                cb(list(self._values), None)

        return on_child

    def _unsubscribe(self, callback) -> None:
        self._callback = None


class AnyOf(Waitable):
    """Resume when the first child completes, with ``(index, value)``."""

    def __init__(self, children: Iterable[Waitable]):
        self._children = list(children)
        if not self._children:
            raise SimulationError("AnyOf requires at least one child")
        self._callback = None
        self._done = False
        self._child_callbacks: List[Any] = []

    def _subscribe(self, sim: Simulation, callback) -> None:
        self._callback = callback
        for i, child in enumerate(self._children):
            cb = self._make_child_callback(i)
            self._child_callbacks.append((child, cb))
            child._subscribe(sim, cb)

    def _make_child_callback(self, index: int):
        def on_child(value: Any, exception: Optional[BaseException]) -> None:
            if self._done or self._callback is None:
                return
            self._done = True
            for child, cb in self._child_callbacks:
                if cb is not on_child:
                    child._unsubscribe(cb)
            callback, self._callback = self._callback, None
            if exception is not None:
                callback(None, exception)
            else:
                callback((index, value), None)

        return on_child

    def _unsubscribe(self, callback) -> None:
        self._callback = None
        for child, cb in self._child_callbacks:
            child._unsubscribe(cb)


# --- adapter (not part of the copy above) ----------------------------------
class SignalWait(Waitable):
    """Lets a process here wait on a production ``repro.simulation`` Signal.

    The production signal has the same wake-up rule (one ``call_soon`` per
    waiter) behind a public ``subscribe``/``unsubscribe``; this forwards the
    process's resume callback to it.
    """

    __slots__ = ("signal",)

    def __init__(self, signal):
        self.signal = signal

    def _subscribe(self, sim: Simulation, callback) -> None:
        self.signal.subscribe(callback)

    def _unsubscribe(self, callback) -> None:
        self.signal.unsubscribe(callback)
