"""The event loop: a virtual clock driving a binary-heap event queue.

The engine is intentionally minimal — time, ordered callbacks, cancellation.
Everything that waits is a callback: timers are handles returned by
:meth:`Simulation.schedule`, and waiting on another component's result means
subscribing to a :class:`~repro.simulation.process.Signal`.
Determinism is absolute: events at equal times fire in scheduling order
(monotone sequence numbers break ties), and nothing reads the wall clock.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError

__all__ = ["EventHandle", "Simulation"]


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
        #: heap of ``(time, seq, handle)``: ``heapq`` orders the entries by
        #: comparing tuples in C, and the unique ``seq`` means a comparison
        #: never reaches the handle
        self._queue: List[Tuple[float, int, EventHandle]] = []
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
        time = self._now + delay
        seq = self._seq
        handle = EventHandle(time, seq, callback, args, self)
        self._seq = seq + 1
        heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6g} (now is t={self._now:.6g})"
            )
        seq = self._seq
        handle = EventHandle(time, seq, callback, args, self)
        self._seq = seq + 1
        heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback`` at the current time, after already-queued events
        at this time."""
        time = self._now
        seq = self._seq
        handle = EventHandle(time, seq, callback, args, self)
        self._seq = seq + 1
        heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

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
        queue = self._queue
        dead = self._dead
        if dead and (
            queue[0][2].cancelled
            or (dead > self._COMPACT_MIN_DEAD and dead * 2 > len(queue))
        ):
            self._drop_dead_events()
            queue = self._queue
        if queue:
            return min(queue[0][0], self._now) if self._deferred else queue[0][0]
        return self._now if self._deferred else None

    def step(self) -> bool:
        """Fire the single next event.  Returns False when nothing is pending.

        Deferred callbacks (see :meth:`defer`) flush — as one step — when the
        queue is empty or its head lies beyond the current instant.
        """
        queue = self._queue
        dead = self._dead
        if dead and (
            queue[0][2].cancelled
            or (dead > self._COMPACT_MIN_DEAD and dead * 2 > len(queue))
        ):
            self._drop_dead_events()
            queue = self._queue
        if self._deferred and (not queue or queue[0][0] > self._now):
            deferred, self._deferred = self._deferred, {}
            for callback, args in deferred.values():
                callback(*args)
            self.events_processed += 1
            self.deferred_flushes += 1
            return True
        if not queue:
            return False
        time, _, handle = heappop(queue)
        self._now = time
        handle.fired = True
        self._live -= 1
        callback, args = handle.callback, handle.args
        handle.callback, handle.args = None, ()
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
        :meth:`step` and :meth:`peek` call this only when it has work: the
        head is cancelled or the heap is bloated.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
            self._dead -= 1
        if self._dead > self._COMPACT_MIN_DEAD and self._dead * 2 > len(queue):
            self._queue = [entry for entry in queue if not entry[2].cancelled]
            heapify(self._queue)
            self._dead = 0
            self.heap_compactions += 1
