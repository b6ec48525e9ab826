"""Typed trace events.

Every event carries the virtual timestamp it happened at (``ts``, seconds of
``Simulation.now`` — never the wall clock, so traces are deterministic), a
``name``, the instrumented ``cat``egory/layer it came from, two placement
ids for the Perfetto export (``track`` maps to a "process" row — usually a
node or a logical component — and ``lane`` to a "thread" row — an executor,
NIC or application), and a small ``attrs`` dict of event-specific fields.

Three shapes exist:

* :class:`TraceEvent` — an instant ("something happened now");
* :class:`SpanEvent` — a duration (``ts`` is the start, ``dur`` the length);
* :class:`CounterEvent` — one sample of a numeric time series.

The typed subclasses below pin ``name``/``cat`` for the simulator's core
vocabulary so call sites stay terse and analysers can match on type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = [
    "ENGINE",
    "MANAGER",
    "DRIVER",
    "NETWORK",
    "FAULTS",
    "LAYERS",
    "TraceEvent",
    "SpanEvent",
    "CounterEvent",
    "AllocationRound",
    "ExecutorGrant",
    "TaskAttempt",
    "JobSpan",
    "TransferSpan",
    "FaultInjected",
    "FaultHealed",
    "RecoveryFlow",
    "HeartbeatMiss",
    "SuspicionChange",
    "BreakerTransition",
    "HedgeLaunch",
    "AdmissionDecision",
    "ManagerDown",
    "ManagerRestart",
    "LeaseOutcome",
]

#: The five instrumented layers; ``TraceEvent.cat`` is always one of these.
ENGINE = "engine"
MANAGER = "manager"
DRIVER = "driver"
NETWORK = "network"
FAULTS = "faults"
LAYERS = (ENGINE, MANAGER, DRIVER, NETWORK, FAULTS)


@dataclass(frozen=True)
class TraceEvent:
    """An instantaneous event at virtual time ``ts``."""

    ts: float
    name: str = ""
    cat: str = ENGINE
    track: str = ""
    lane: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    #: Chrome trace_event phase; subclasses override.
    phase = "i"

    def get(self, key: str, default: Any = None) -> Any:
        """Look up an attr by name."""
        return self.attrs.get(key, default)

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready projection (JSONL sink format)."""
        d: Dict[str, Any] = {
            "ts": self.ts,
            "name": self.name,
            "cat": self.cat,
            "ph": self.phase,
        }
        if self.track:
            d["track"] = self.track
        if self.lane:
            d["lane"] = self.lane
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        where = "/".join(x for x in (self.track, self.lane) if x)
        return (
            f"[{self.ts:12.4f}] {self.cat:<7} {self.name:<24} {where} {fields}"
        ).rstrip()


@dataclass(frozen=True)
class SpanEvent(TraceEvent):
    """A duration: starts at ``ts``, lasts ``dur`` seconds."""

    dur: float = 0.0

    phase = "X"

    @property
    def end(self) -> float:
        """Absolute virtual end time of the span."""
        return self.ts + self.dur

    def as_dict(self) -> Dict[str, Any]:
        d = super().as_dict()
        d["dur"] = self.dur
        return d


@dataclass(frozen=True)
class CounterEvent(TraceEvent):
    """One sample of a numeric series (Perfetto renders these as graphs)."""

    value: float = 0.0

    phase = "C"

    def as_dict(self) -> Dict[str, Any]:
        d = super().as_dict()
        d["value"] = self.value
        return d


# ------------------------------------------------------------ manager layer
@dataclass(frozen=True)
class AllocationRound(TraceEvent):
    """One allocation pass of a cluster manager.

    attrs: ``round`` (ordinal), ``manager``, plus policy-specific decision
    detail — Custody adds ``demand_apps``/``demand_tasks``/``idle``/
    ``granted``/``promised`` and the per-app ``grants`` pick order.
    """

    name: str = "allocation.round"
    cat: str = MANAGER


@dataclass(frozen=True)
class ExecutorGrant(TraceEvent):
    """An executor handed to (or failed to reach) an application.

    attrs: ``app``, ``executor``, ``ok`` (False = the master's stale view
    granted onto a dead/unreachable node and the launch failed).
    """

    name: str = "executor.grant"
    cat: str = MANAGER


# ------------------------------------------------------------- driver layer
@dataclass(frozen=True)
class TaskAttempt(SpanEvent):
    """One execution attempt of a task, queue→launch→input→run.

    ``ts`` is the attempt launch; ``dur`` its wall time.  attrs: ``task``,
    ``app``, ``outcome`` ("success" | "killed" | failure reason), ``queue``
    (submit→launch wait), ``input`` (read/fetch phase), ``run`` (CPU phase),
    ``locality`` ("node" | "rack" | "any" | None for non-input tasks) and
    ``speculative``; a successful backup attempt adds ``task_duration``
    (its task's primary launch → finish).
    """

    name: str = "task.attempt"
    cat: str = DRIVER


@dataclass(frozen=True)
class JobSpan(SpanEvent):
    """A job's submit→finish lifetime.  attrs: ``job``, ``app``,
    ``local_job``, ``inputs``."""

    name: str = "job.span"
    cat: str = DRIVER


# ------------------------------------------------------------ network layer
@dataclass(frozen=True)
class TransferSpan(SpanEvent):
    """One network flow from start to completion/failure.

    attrs: ``transfer`` (id), ``src``, ``dst``, ``size``, ``outcome``
    ("ok" | failure cause).
    """

    name: str = "net.transfer"
    cat: str = NETWORK


# ------------------------------------------------------------- faults layer
@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """A fault-plan event fired.  attrs: ``kind``, ``target``, and the
    fault's own parameters (duration/factor/…)."""

    name: str = "fault.injected"
    cat: str = FAULTS


@dataclass(frozen=True)
class FaultHealed(TraceEvent):
    """A fault cleared (restart/heal/expiry).  attrs: ``kind``, ``target``,
    ``after`` (seconds from injection when known)."""

    name: str = "fault.healed"
    cat: str = FAULTS


@dataclass(frozen=True)
class RecoveryFlow(SpanEvent):
    """One re-replication copy restoring a lost block.

    attrs: ``block``, ``src``, ``dst``, ``bytes``, ``outcome``.
    """

    name: str = "fault.recovery"
    cat: str = FAULTS


@dataclass(frozen=True)
class HeartbeatMiss(TraceEvent):
    """The master's detector marked a node suspect after a failed launch
    report.  attrs: ``node``."""

    name: str = "heartbeat.miss"
    cat: str = FAULTS


@dataclass(frozen=True)
class SuspicionChange(TraceEvent):
    """The adaptive detector's belief about a node changed.

    attrs: ``node``, ``state`` ("alive" | "suspected" | "dead"),
    ``prev``, ``phi`` (the suspicion score at the transition).
    """

    name: str = "detector.suspicion"
    cat: str = FAULTS


# -------------------------------------------------------- robustness (driver)
@dataclass(frozen=True)
class BreakerTransition(TraceEvent):
    """A per-node circuit breaker changed state.

    attrs: ``node``, ``state`` ("closed" | "open" | "half_open"), ``prev``.
    """

    name: str = "breaker.transition"
    cat: str = DRIVER


@dataclass(frozen=True)
class HedgeLaunch(TraceEvent):
    """A hedged backup attempt fired against a suspected-slow node.

    attrs: ``task``, ``app``, ``primary_node``, ``hedge_node``,
    ``elapsed`` (primary runtime when the hedge launched).
    """

    name: str = "hedge.launch"
    cat: str = DRIVER


# ----------------------------------------------------- robustness (manager)
@dataclass(frozen=True)
class AdmissionDecision(TraceEvent):
    """The manager's admission gate deferred or re-admitted a job.

    attrs: ``app``, ``job``, ``decision`` ("deferred" | "admitted" |
    "shed"), ``pending`` (task demand), ``capacity`` (deliverable slots).
    """

    name: str = "admission.decision"
    cat: str = MANAGER


# ------------------------------------------------------- recovery (manager)
@dataclass(frozen=True)
class ManagerDown(TraceEvent):
    """The control plane crashed; allocation stalls until restart.

    attrs: ``outage`` (scheduled downtime), ``leases`` (outstanding at the
    crash), ``wal_durable`` (entries that survived), ``wal_lost`` (trailing
    entries dropped by the flush lag).
    """

    name: str = "manager.down"
    cat: str = MANAGER


@dataclass(frozen=True)
class ManagerRestart(TraceEvent):
    """The manager restarted and finished a recovery phase.

    attrs: ``phase`` ("replay" | "recovered"), ``wal_replayed``,
    ``readopted``, ``expired``, ``zombies``, and on the final phase
    ``duration`` (crash → allocation resumed).
    """

    name: str = "manager.restart"
    cat: str = MANAGER


@dataclass(frozen=True)
class LeaseOutcome(TraceEvent):
    """Reconciliation decided one executor lease's fate.

    attrs: ``executor``, ``app``, ``outcome`` ("readopted" | "expired" |
    "zombie").
    """

    name: str = "lease.outcome"
    cat: str = MANAGER
