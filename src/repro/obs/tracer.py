"""Tracer: the fan-out point components emit trace events into.

Design constraints, in priority order:

1. **Tracing off must cost ~nothing and change no behaviour.**  Every
   component holds a tracer unconditionally; the module-level
   :data:`NULL_TRACER` default has ``enabled = False``, instrumentation
   sites guard with ``if tracer.enabled:`` (one attribute read and a
   branch) and never construct event objects on the cold path, and the
   tracer itself schedules nothing on the simulation.
2. **Determinism.**  The tracer carries the simulation clock so helpers can
   stamp events, and nothing here ever reads the wall clock — two runs from
   one seed produce byte-identical event streams.
3. **Fan-out.**  One emit feeds every attached sink (ring buffer, JSONL
   file, timeline, …); sinks are ordered and flushed/closed together.
4. **One narration path.**  Each transition is emitted once; the timeline
   sink projects its records from typed events.  Transitions only the
   timeline records go through :meth:`Tracer.narrate`, which skips every
   other sink, behind an ``if tracer.narrating:`` guard.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.obs.events import CounterEvent, SpanEvent, TraceEvent
from repro.obs.sinks import RingSink, TraceSink

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


class Tracer:
    """Emits :class:`~repro.obs.events.TraceEvent` objects to its sinks."""

    __slots__ = ("enabled", "clock", "_sinks", "_narrators", "narrating")

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        sinks: Iterable[TraceSink] = (),
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.clock = clock
        self._sinks: List[TraceSink] = []
        self._narrators: List[TraceSink] = []
        #: True while an enabled tracer has a narrating sink attached.
        self.narrating = False
        for sink in sinks:
            self.add_sink(sink)

    # ---------------------------------------------------------------- sinks
    @property
    def sinks(self) -> List[TraceSink]:
        """The attached sinks (emission order)."""
        return list(self._sinks)

    def add_sink(self, sink: TraceSink) -> None:
        """Attach another sink; it sees only events emitted from now on."""
        self._sinks.append(sink)
        if sink.narrates:
            self._narrators.append(sink)
            self.narrating = self.enabled

    def events(self) -> List[TraceEvent]:
        """Events held by the first in-memory ring sink (empty if none).

        The conventional way results expose their trace: the runner always
        puts a :class:`~repro.obs.sinks.RingSink` first.
        """
        for sink in self._sinks:
            if isinstance(sink, RingSink):
                return list(sink)
        return []

    def close(self) -> None:
        """Close every sink (flushes file sinks)."""
        for sink in self._sinks:
            sink.close()

    # ------------------------------------------------------------- emission
    def emit(self, event: TraceEvent) -> None:
        """Write one event to every sink."""
        if not self.enabled:
            return
        for sink in self._sinks:
            sink.write(event)

    def narrate(self, kind: str, subject: str, **detail: Any) -> None:
        """Hand a transition with no typed event to the narrating sinks."""
        for sink in self._narrators:
            sink.record(kind, subject, **detail)

    def _now(self) -> float:
        if self.clock is None:
            raise RuntimeError(
                "tracer has no clock; construct events with explicit ts "
                "or build the Tracer with clock=lambda: sim.now"
            )
        return self.clock()

    def instant(
        self, name: str, cat: str, track: str = "", lane: str = "", **attrs: Any
    ) -> None:
        """Emit an instant event stamped with the tracer's clock."""
        if not self.enabled:
            return
        self.emit(TraceEvent(self._now(), name, cat, track, lane, attrs))

    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: Optional[float] = None,
        track: str = "",
        lane: str = "",
        **attrs: Any,
    ) -> None:
        """Emit a span from ``start`` to ``end`` (default: the clock's now)."""
        if not self.enabled:
            return
        if end is None:
            end = self._now()
        self.emit(SpanEvent(start, name, cat, track, lane, attrs, dur=end - start))

    def counter(
        self, name: str, cat: str, value: float, track: str = "", **attrs: Any
    ) -> None:
        """Emit one sample of a numeric series."""
        if not self.enabled:
            return
        self.emit(CounterEvent(self._now(), name, cat, track, "", attrs, value=value))


class NullTracer(Tracer):
    """The always-off tracer — emission is a no-op, sinks are rejected.

    A single shared instance (:data:`NULL_TRACER`) is the default tracer of
    every instrumented component, so uninstrumented construction paths need
    no special-casing and ``tracer.enabled`` is the only check hot paths pay.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(clock=None, sinks=(), enabled=False)

    def add_sink(self, sink: TraceSink) -> None:
        raise RuntimeError("NULL_TRACER is shared; build a real Tracer instead")

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - trivial
        pass


#: Shared no-op default; components do ``self.tracer = tracer or NULL_TRACER``.
NULL_TRACER = NullTracer()
