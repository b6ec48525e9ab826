"""Generator-based cooperative processes on top of the event loop.

A process is a Python generator that ``yield``s *waitables*:

* :class:`Timeout` — resume after a virtual-time delay;
* :class:`Signal` — a one-shot event another component triggers with a value;
* another :class:`Process` — resume when it finishes (receiving its return
  value, or re-raising its exception);
* :class:`AllOf` / :class:`AnyOf` — composite waits.

Example::

    def worker(sim, go):
        item = yield go                   # resumes once go.trigger(item) runs
        yield Timeout(item.service_time)

Processes may be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupt` inside the generator at its current yield point — used to
model task preemption and executor decommissioning.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional

from repro.common.errors import SimulationError
from repro.simulation.engine import EventHandle, Simulation

__all__ = ["Timeout", "Signal", "Process", "Interrupt", "AllOf", "AnyOf"]


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
