"""Trace sinks: where emitted events go.

* :class:`RingSink` — bounded in-memory ring buffer; the default sink the
  experiment runner attaches so a run's trace is inspectable from the
  result object without unbounded memory growth.
* :class:`JsonlSink` — streams each event as one JSON line to a file;
  suitable for very long runs and for feeding external tooling.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Deque, Iterator, List, Optional, Union

from repro.common.errors import ConfigurationError
from repro.obs.events import TraceEvent

__all__ = ["TraceSink", "RingSink", "JsonlSink"]


class TraceSink:
    """Interface: ``write`` one event, ``close`` when the run ends.

    A ``narrates`` sink (the timeline) also takes ``Tracer.narrate`` records
    through ``record(kind, subject, **detail)``.
    """

    narrates = False

    def write(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        """Record one emitted event."""
        raise NotImplementedError

    def close(self) -> None:
        """Default: nothing to flush."""


class RingSink(TraceSink):
    """Bounded in-memory buffer keeping the most recent events.

    ``capacity=None`` means unbounded (unit tests, short runs).  When the
    ring wraps, the oldest events are dropped and counted in ``dropped`` so
    reports can say "trace truncated" instead of silently lying.
    """

    def __init__(self, capacity: Optional[int] = 1_000_000):
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.total = 0

    @property
    def dropped(self) -> int:
        """Events evicted because the ring wrapped."""
        return self.total - len(self._events)

    def write(self, event: TraceEvent) -> None:
        """Append the event, evicting the oldest when full."""
        self._events.append(event)
        self.total += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)


class JsonlSink(TraceSink):
    """Streams events to ``path`` as JSON lines (one event per line).

    Keys within each record are sorted so identical runs produce
    byte-identical files.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = self.path.open("w")
        self.written = 0

    def write(self, event: TraceEvent) -> None:
        """Serialise the event as one JSON line."""
        if self._fh is None:
            raise ConfigurationError(f"JsonlSink {self.path} is closed")
        self._fh.write(json.dumps(event.as_dict(), sort_keys=True))
        self._fh.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
