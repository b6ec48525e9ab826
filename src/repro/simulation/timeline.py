"""Append-only trace of simulation events.

The timeline holds flat ``(time, kind, subject, detail)`` records.  It is a
trace sink: attached to the run's tracer, it projects the typed events
listed in :data:`PROJECTIONS` onto records and takes the transitions that
have no typed event from ``Tracer.narrate``.  Components emit each
transition once; a timeline that is not attached records nothing.

The timeline serves three purposes:

1. **Determinism tests** — two runs from the same seed must produce
   byte-identical timelines (hypothesis property in
   ``tests/property/test_determinism.py``; the golden fixtures under
   ``tests/fixtures/`` pin them record for record).
2. **Analysis** — slot utilization and executor churn
   (:mod:`repro.metrics.utilization`) are derived from its records.
3. **Debugging** — ``timeline.tail()`` gives a readable account of what the
   cluster did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.events import SpanEvent, TraceEvent
from repro.obs.sinks import TraceSink

__all__ = ["TimelineRecord", "Timeline", "PROJECTIONS"]


@dataclass(frozen=True)
class TimelineRecord:
    """One event in the trace."""

    time: float
    kind: str
    subject: str
    detail: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """Look up a detail field by name."""
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        """Record as a flat dict (for reporting)."""
        d: Dict[str, Any] = {"time": self.time, "kind": self.kind, "subject": self.subject}
        d.update(self.detail)
        return d

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.detail)
        return f"[{self.time:12.4f}] {self.kind:<24} {self.subject} {fields}".rstrip()


# ------------------------------------------------------------- projections
#: A projection's result: ``(kind, subject, detail)``, or None for no record.
Projected = Optional[Tuple[str, str, Dict[str, Any]]]


def _pick(attrs: Dict[str, Any], *keys: str) -> Dict[str, Any]:
    return {k: attrs[k] for k in keys}


def _task_attempt(e: SpanEvent) -> Projected:
    a, outcome = e.attrs, e.attrs["outcome"]
    if outcome == "killed":
        return None
    if outcome != "success":
        return "attempt.fail", a["task"], {"app": a["app"], "executor": e.lane, "reason": outcome}
    locality = a.get("locality")
    return "task.finish", a["task"], {
        "app": a["app"],
        "local": None if locality is None else locality == "node",
        "duration": a.get("task_duration", e.dur),
        "speculative": a["speculative"],
    }


#: Record detail of each injected fault kind (its trace event may carry more).
_FAULT_DETAIL = {
    "slowdown": ("factor", "duration"), "executor": (), "manager": ("duration",),
    "disk": ("replicas_lost",), "node": ("restart_delay",), "correlated": ("restart_delay",),
    "flap": ("duration", "period"), "partition": ("duration",),
    "degradation": ("factor", "duration"),
}
#: Record-kind suffix of each healed fault kind; slowdown and flap heals go unrecorded.
_FAULT_HEALED = {"executor": "restart", "manager": "restart", "node": "restore",
                 "partition": "heal", "degradation": "end"}


def _fault_injected(e: TraceEvent) -> Projected:
    kind = e.attrs["kind"]
    return f"fault.{kind}", e.attrs["target"], _pick(e.attrs, *_FAULT_DETAIL[kind])


def _fault_healed(e: TraceEvent) -> Projected:
    kind = e.attrs["kind"]
    if kind not in _FAULT_HEALED:
        return None
    return f"fault.{kind}.{_FAULT_HEALED[kind]}", e.attrs["target"], {}


def _admission(e: TraceEvent) -> Projected:
    a = e.attrs
    detail = {k: v for k, v in a.items() if k not in ("job", "decision")}
    # Load-shed re-checks concern no single job: they name the manager.
    return f"admission.{a['decision']}", a["job"] or e.track[len("manager:"):], detail


#: Trace event name → its timeline record.  Events not listed here, and
#: projections returning None, leave no record.
PROJECTIONS: Dict[str, Callable[[Any], Projected]] = {
    # manager layer
    "executor.grant": lambda e: (
        "executor.grant" if e.attrs["ok"] else "executor.grant.dead",
        e.lane, _pick(e.attrs, "app", "node"),
    ),
    "executor.release": lambda e: ("executor.release", e.lane, _pick(e.attrs, "app")),
    "allocation.round": lambda e: (  # only Custody records its rounds
        ("custody.round", f"round-{e.attrs['round']:05d}", _pick(e.attrs, "granted", "promised"))
        if e.attrs["manager"] == "custody" else None
    ),
    "admission.decision": _admission,
    "manager.down": lambda e: (
        "manager.down", "manager", _pick(e.attrs, "outage", "leases", "wal_lost")
    ),
    "manager.restart": lambda e: (
        ("manager.restart", "manager", _pick(e.attrs, "wal_replayed"))
        if e.attrs["phase"] == "replay" else
        ("manager.recovered", "manager",
         _pick(e.attrs, "duration", "readopted", "expired", "zombies"))
    ),
    "lease.outcome": lambda e: (
        "lease.outcome", e.attrs["executor"], _pick(e.attrs, "app", "outcome")
    ),
    # driver layer
    "task.attempt": _task_attempt,
    "job.span": lambda e: ("job.finish", e.attrs["job"], {
        "app": e.attrs["app"], "jct": e.dur, "local_job": e.attrs["local_job"]
    }),
    "hedge.launch": lambda e: ("task.hedge", e.attrs["task"], {
        "app": e.attrs["app"], "primary": e.attrs["primary_node"], "hedge": e.attrs["hedge_node"]
    }),
    "breaker.transition": lambda e: (
        "node.breaker", e.attrs["node"], _pick(e.attrs, "app", "state", "prev")
    ),
    "node.blacklist": lambda e: (
        "node.blacklist", e.track, _pick(e.attrs, "app", "until", "failures")
    ),
    "task.abandon": lambda e: (
        "task.abandon", e.attrs["task"], {"app": e.track, "reason": e.attrs["reason"]}
    ),
    "job.submit.buffered": lambda e: ("job.submit.buffered", e.attrs["job"], {"app": e.track}),
    # network layer
    "net.transfer": lambda e: (
        ("transfer.finish", e.attrs["transfer"], {"duration": e.dur})
        if e.attrs["outcome"] == "ok" else
        ("transfer.fail", e.attrs["transfer"], {"cause": e.attrs["outcome"]})
    ),
    "net.stall": lambda e: (
        "transfer.stall", e.attrs["transfer"], {"src": e.track, "dst": e.attrs["dst"]}
    ),
    "net.unstall": lambda e: (
        "transfer.unstall", e.attrs["transfer"], {"src": e.track, "dst": e.attrs["dst"]}
    ),
    # faults layer
    "fault.injected": _fault_injected,
    "fault.healed": _fault_healed,
}


class Timeline(TraceSink):
    """Ordered collection of :class:`TimelineRecord`.

    Records are stamped with ``clock()`` when they are written — never with
    an event's ``ts + dur``, which need not round-trip to the clock exactly.
    """

    narrates = True

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._records: List[TimelineRecord] = []

    def record(self, kind: str, subject: str, **detail: Any) -> None:
        """Append a record stamped with the current virtual time."""
        self._records.append(
            TimelineRecord(self._clock(), kind, subject, tuple(sorted(detail.items())))
        )

    def write(self, event: TraceEvent) -> None:
        """Project one typed trace event onto its record (if it has one)."""
        project = PROJECTIONS.get(event.name)
        if project is None:
            return
        projected = project(event)
        if projected is not None:
            kind, subject, detail = projected
            self.record(kind, subject, **detail)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TimelineRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TimelineRecord:
        return self._records[index]

    def of_kind(self, *kinds: str) -> List[TimelineRecord]:
        """All records whose kind is one of ``kinds``, in time order."""
        wanted = set(kinds)
        return [r for r in self._records if r.kind in wanted]

    def about(self, subject: str) -> List[TimelineRecord]:
        """All records concerning ``subject``."""
        return [r for r in self._records if r.subject == subject]

    def first(self, kind: str, subject: Optional[str] = None) -> Optional[TimelineRecord]:
        """Earliest record of ``kind`` (optionally for ``subject``)."""
        for r in self._records:
            if r.kind == kind and (subject is None or r.subject == subject):
                return r
        return None

    def tail(self, n: int = 20) -> str:
        """The last ``n`` records rendered for humans."""
        return "\n".join(str(r) for r in self._records[-n:])

    def fingerprint(self) -> int:
        """Order-sensitive hash of the whole trace (determinism checks)."""
        return hash(tuple(self._records))
