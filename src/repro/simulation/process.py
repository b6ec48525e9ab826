"""One-shot signals: how a finished operation wakes whoever waits on it.

A :class:`Signal` carries a value (or an exception) from the component that
triggers it to every callback subscribed to it.  ``Transfer.done`` is the
one the simulator uses: a task attempt or a re-replication copy subscribes
to it, and the network fabric triggers it when the last byte lands (or
fails it when the transfer dies).

Example::

    def on_done(value, exception):
        ...                               # runs in its own event

    transfer.done.subscribe(on_done)

Each waiter is woken by its own ``call_soon`` event at the trigger's
instant, never inside the trigger call, so a trigger never re-enters the
code that waits on it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.common.errors import SimulationError
from repro.simulation.engine import Simulation

__all__ = ["Signal"]

#: A waiter: called as ``callback(value, exception)``, exactly one of them
#: meaningful (``exception`` is None on success).
Callback = Callable[[Any, Optional[BaseException]], Any]


class Signal:
    """A one-shot event carrying a value (or an exception).

    Any number of callbacks may subscribe; when the signal triggers, each
    is scheduled with ``call_soon`` in subscription order.  Triggering
    twice raises.  Subscribing to an already-triggered signal schedules the
    callback at once (it still runs in its own event).
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_value", "_exception")

    def __init__(self, sim: Simulation, name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: List[Callback] = []
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
        """Fire the signal, waking all waiters with ``value``."""
        self._resolve(value, None)

    def fail(self, exception: BaseException) -> None:
        """Fire the signal exceptionally; waiters receive ``exception``."""
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

    def subscribe(self, callback: Callback) -> None:
        """Call ``callback(value, exception)`` once the signal fires."""
        if self._triggered:
            self.sim.call_soon(callback, self._value, self._exception)
        else:
            self._callbacks.append(callback)

    def unsubscribe(self, callback: Callback) -> None:
        """Withdraw a pending subscription (no-op if absent or already woken)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass
