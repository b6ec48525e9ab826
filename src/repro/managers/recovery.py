"""Control-plane crash-recovery: checkpointed state, grant leases, and a
work-preserving manager restart.

The cluster manager is a single point of failure; this module gives it the
recovery story a real control plane needs, in three pieces:

* :class:`RecoveryLog` — a write-ahead log plus periodic checkpoints of the
  manager's allocation-relevant state (registered apps, outstanding grants,
  demand epochs, admission queue).  Checkpoints piggyback on WAL appends
  (no timer events — the simulation stays quiescence-safe), and a
  configurable ``flush lag`` models the tail of the WAL that had not hit
  disk when the process died.
* Leases — every grant carries an implicit lease with a renewal interval
  and an expiry.  Renewals are *analytic*: a healthy manager renews every
  ``lease_renew_interval`` seconds, so the last renewal before a crash is
  a closed-form function of the grant time — no per-lease sim events.
* :class:`RecoveryCoordinator` — the state machine.  ``crash()`` freezes
  the durable view of the log and stalls allocation (rounds, grants,
  registrations, submissions); ``_restart()`` replays the WAL suffix onto
  the last checkpoint, re-registers the live drivers, and reconciles the
  rebuilt lease ledger against the *physical* cluster: live leases are
  re-adopted (work-preserving), expired or orphaned leases are reclaimed,
  and zombie executors — granted in WAL entries the flush lag lost — are
  detected and reclaimed.  After ``reconciliation_window`` seconds the
  manager resumes allocation and drains buffered submissions.

Everything here is opt-in and event-free until a crash actually fires:
bookkeeping hooks only mutate coordinator state, so a recovery-enabled run
with no :class:`~repro.faults.plan.ManagerCrash` in its plan replays the
seed trajectory record-for-record (pinned by the lockstep test).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.obs.events import LeaseOutcome, ManagerDown, ManagerRestart
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.engine import Simulation

if TYPE_CHECKING:  # pragma: no cover
    from repro.managers.base import ClusterManager

__all__ = [
    "Lease",
    "WalEntry",
    "ManagerCheckpoint",
    "RecoveryLog",
    "RecoveryCoordinator",
    "save_recovery_state",
    "load_recovery_state",
]

#: On-disk recovery-state format (mirrors the persistence-v2 conventions:
#: a top-level ``format_version`` plus a strict loader).
_FORMAT_VERSION = 1
_READABLE_VERSIONS = (1,)


@dataclass(frozen=True)
class Lease:
    """One executor grant as the recovery ledger sees it."""

    executor_id: str
    app_id: str
    granted_at: float


@dataclass(frozen=True)
class WalEntry:
    """One logged state mutation (``seq`` is the total order)."""

    seq: int
    ts: float
    op: str
    args: Tuple[Tuple[str, object], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """The JSON-serialisable projection of this WAL entry."""
        return {"seq": self.seq, "ts": self.ts, "op": self.op,
                "args": dict(self.args)}


@dataclass(frozen=True)
class ManagerCheckpoint:
    """Snapshot of manager state as of WAL entry ``seq``."""

    seq: int
    taken_at: float
    apps: Tuple[str, ...] = ()
    leases: Tuple[Lease, ...] = ()
    demand_epochs: Tuple[Tuple[str, int], ...] = ()
    admission_queue: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """The JSON-serialisable projection of this checkpoint."""
        return {
            "seq": self.seq,
            "taken_at": self.taken_at,
            "apps": list(self.apps),
            "leases": [
                {"executor_id": l.executor_id, "app_id": l.app_id,
                 "granted_at": l.granted_at}
                for l in self.leases
            ],
            "demand_epochs": dict(self.demand_epochs),
            "admission_queue": list(self.admission_queue),
        }


class RecoveryLog:
    """Checkpoint + WAL for manager state.

    ``flush_lag`` models write-behind durability: an entry appended at
    ``t`` is only durable once ``t + flush_lag`` has passed, so a crash at
    ``t_c`` loses every entry with ``ts > t_c - flush_lag``.  With the
    default lag of 0 the log is synchronous and nothing is ever lost.
    """

    def __init__(self, *, checkpoint_interval: float = 30.0,
                 flush_lag: float = 0.0):
        if checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        if flush_lag < 0:
            raise ConfigurationError(
                f"flush_lag must be >= 0, got {flush_lag}"
            )
        self.checkpoint_interval = checkpoint_interval
        self.flush_lag = flush_lag
        self.entries: List[WalEntry] = []
        self.checkpoint: Optional[ManagerCheckpoint] = None
        self._seq = 0
        self.entries_total = 0
        self.checkpoints_taken = 0

    def append(self, ts: float, op: str, **args) -> WalEntry:
        """Log one mutation; returns the entry (callers may trace it)."""
        self._seq += 1
        entry = WalEntry(
            seq=self._seq, ts=ts, op=op, args=tuple(sorted(args.items()))
        )
        self.entries.append(entry)
        self.entries_total += 1
        return entry

    def checkpoint_due(self, now: float) -> bool:
        """Has ``checkpoint_interval`` elapsed since the last snapshot?"""
        last = self.checkpoint.taken_at if self.checkpoint is not None else 0.0
        return now - last >= self.checkpoint_interval

    def install_checkpoint(self, checkpoint: ManagerCheckpoint) -> None:
        """Adopt a snapshot and truncate the WAL prefix it covers."""
        self.checkpoint = checkpoint
        self.entries = [e for e in self.entries if e.seq > checkpoint.seq]
        self.checkpoints_taken += 1

    def durable_entries(self, at: float) -> List[WalEntry]:
        """WAL entries that had reached disk by time ``at``."""
        horizon = at - self.flush_lag
        return [e for e in self.entries if e.ts <= horizon]

    def lost_entries(self, at: float) -> List[WalEntry]:
        """Trailing entries a crash at ``at`` destroys (flush lag)."""
        horizon = at - self.flush_lag
        return [e for e in self.entries if e.ts > horizon]


def save_recovery_state(log: RecoveryLog, path: Union[str, Path], *,
                        at: float) -> Path:
    """Persist the durable view of a recovery log as versioned JSON.

    Writes exactly what a restart at time ``at`` would see: the last
    checkpoint plus the durable WAL suffix (entries the flush lag had not
    yet destroyed are *excluded*, same as an in-sim recovery).
    """
    payload = {
        "format_version": _FORMAT_VERSION,
        "at": at,
        "checkpoint": (
            log.checkpoint.as_dict() if log.checkpoint is not None else None
        ),
        "wal": [e.as_dict() for e in log.durable_entries(at)],
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_recovery_state(path: Union[str, Path]) -> Dict[str, object]:
    """Load persisted recovery state; strict about the format version."""
    data = json.loads(Path(path).read_text())
    version = data.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ConfigurationError(
            f"unsupported recovery state format version {version!r} "
            f"(expected one of {_READABLE_VERSIONS})"
        )
    checkpoint = None
    if data.get("checkpoint") is not None:
        raw = data["checkpoint"]
        checkpoint = ManagerCheckpoint(
            seq=raw["seq"],
            taken_at=raw["taken_at"],
            apps=tuple(raw["apps"]),
            leases=tuple(Lease(**l) for l in raw["leases"]),
            demand_epochs=tuple(sorted(raw["demand_epochs"].items())),
            admission_queue=tuple(raw["admission_queue"]),
        )
    entries = [
        WalEntry(seq=e["seq"], ts=e["ts"], op=e["op"],
                 args=tuple(sorted(e["args"].items())))
        for e in data["wal"]
    ]
    return {"at": data["at"], "checkpoint": checkpoint, "wal": entries}


class RecoveryCoordinator:
    """The manager's crash/restart state machine.

    States: ``up`` → (crash) → ``down`` → (outage ends) → ``reconciling``
    → (window ends) → ``up``.  While not ``up``, allocation rounds are
    stalled (:meth:`rounds_enabled`), new registrations queue, and drivers
    buffer job-submission notifications (:meth:`accepting_submissions`).
    """

    def __init__(
        self,
        sim: Simulation,
        *,
        lease_duration: float = 60.0,
        lease_renew_interval: float = 10.0,
        checkpoint_interval: float = 30.0,
        reconciliation_window: float = 5.0,
        wal_flush_lag: float = 0.0,
        tracer: Optional[Tracer] = None,
        metrics=None,
    ):
        if lease_duration <= 0:
            raise ConfigurationError(
                f"lease_duration must be positive, got {lease_duration}"
            )
        if lease_renew_interval <= 0:
            raise ConfigurationError(
                f"lease_renew_interval must be positive, got {lease_renew_interval}"
            )
        if reconciliation_window < 0:
            raise ConfigurationError(
                f"reconciliation_window must be >= 0, got {reconciliation_window}"
            )
        self.sim = sim
        self.lease_duration = lease_duration
        self.lease_renew_interval = lease_renew_interval
        self.reconciliation_window = reconciliation_window
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.log = RecoveryLog(
            checkpoint_interval=checkpoint_interval, flush_lag=wal_flush_lag
        )
        self.manager: Optional["ClusterManager"] = None
        self._state = "up"
        self._crash_gen = 0
        self._crashed_at: Optional[float] = None
        self._durable_at_crash: Optional[
            Tuple[Optional[ManagerCheckpoint], List[WalEntry]]
        ] = None
        #: executor id → live lease, the coordinator's grant ledger
        self.leases: Dict[str, Lease] = {}
        self._pending_registrations: List = []
        # ------------------------------------------------------- tallies
        self.manager_crashes = 0
        self.recoveries = 0
        self.recovery_durations: List[float] = []
        self.leases_at_crash = 0
        self.leases_readopted = 0
        self.leases_expired = 0
        self.zombies_reclaimed = 0
        self.zombies_surviving = 0
        self.lease_renewals = 0
        self.wal_replay_entries = 0
        self.wal_lost_entries = 0
        self.rounds_stalled = 0
        self.grants_refused = 0
        self.reregistrations = 0
        self.tasks_requeued = 0
        # -------------------------------------- pre-bound instruments
        self._m_crashes = self.metrics.counter(
            "manager_crashes_total", "Control-plane crashes injected."
        )
        self._m_recoveries = self.metrics.counter(
            "manager_recoveries_total",
            "Manager restarts that completed reconciliation.",
        )
        self._m_recovery_seconds = self.metrics.histogram(
            "manager_recovery_seconds",
            "Crash to allocation-resumed, sim seconds.",
        )
        self._m_leases = self.metrics.counter(
            "manager_leases_total",
            "Reconciliation lease outcomes (readopted / expired / zombie).",
            ("outcome",),
        )
        self._m_lease_readopted = self._m_leases.labels(outcome="readopted")
        self._m_lease_expired = self._m_leases.labels(outcome="expired")
        self._m_lease_zombie = self._m_leases.labels(outcome="zombie")
        self._m_wal_entries = self.metrics.counter(
            "manager_wal_entries_total", "WAL entries appended."
        )
        self._m_checkpoints = self.metrics.counter(
            "manager_checkpoints_total", "Manager state snapshots taken."
        )
        self._m_wal_replay = self.metrics.gauge(
            "manager_wal_replay_entries",
            "WAL entries replayed by the most recent restart.",
        )
        self._m_zombies_surviving = self.metrics.gauge(
            "manager_zombies_surviving",
            "Zombie executors still allocated after the last reconciliation.",
        )
        self._m_rounds_stalled = self.metrics.counter(
            "manager_rounds_stalled_total",
            "Allocation-round triggers refused while the manager was down.",
        )
        # The zero-zombie SLO reads this gauge even on crash-free runs.
        self._m_zombies_surviving.set(0)

    # ------------------------------------------------------------- plumbing
    def bind(self, manager: "ClusterManager") -> None:
        """Attach the manager whose state this coordinator guards."""
        self.manager = manager

    @property
    def state(self) -> str:
        """``up`` | ``down`` | ``reconciling``."""
        return self._state

    @property
    def available(self) -> bool:
        """Can the manager serve registrations and grants right now?"""
        return self._state == "up"

    @property
    def rounds_enabled(self) -> bool:
        """Allocation rounds run only while fully up (not reconciling)."""
        return self._state == "up"

    @property
    def accepting_submissions(self) -> bool:
        """Drivers buffer job-submission notifications while this is False."""
        return self._state == "up"

    def note_round_stalled(self) -> None:
        """A round trigger arrived while down; count and drop it."""
        self.rounds_stalled += 1
        self._m_rounds_stalled.inc()

    def note_grant_refused(self) -> None:
        """A grant was attempted against the dead manager; count it."""
        self.grants_refused += 1

    # ----------------------------------------------------------- WAL hooks
    def _append(self, op: str, **args) -> None:
        self.log.append(self.sim.now, op, **args)
        self._m_wal_entries.inc()
        self._maybe_checkpoint()

    def note_register(self, app_id: str) -> None:
        """An application registered (or re-registered after a restart)."""
        self._append("register", app=app_id)

    def note_grant(self, executor_id: str, app_id: str) -> None:
        """A grant succeeded: open a lease and log it."""
        self.leases[executor_id] = Lease(
            executor_id=executor_id, app_id=app_id, granted_at=self.sim.now
        )
        self._append("grant", executor=executor_id, app=app_id)

    def note_release(self, executor_id: str, app_id: str) -> None:
        """An executor went back to the pool: close its lease."""
        self.leases.pop(executor_id, None)
        self._append("release", executor=executor_id, app=app_id)

    def note_job_submitted(self, app_id: str, job_id: str) -> None:
        """A job entered the admission path."""
        self._append("job_submit", app=app_id, job=job_id)

    def queue_registration(self, driver) -> None:
        """A registration arrived while down; complete it after recovery."""
        self._pending_registrations.append(driver)

    def _maybe_checkpoint(self) -> None:
        """Piggybacked snapshot: runs on WAL appends, never on a timer."""
        if not self.log.checkpoint_due(self.sim.now):
            return
        self.take_checkpoint()

    def take_checkpoint(self) -> ManagerCheckpoint:
        """Snapshot the manager's allocation-relevant state right now."""
        manager = self.manager
        apps: Tuple[str, ...] = ()
        demand_epochs: Tuple[Tuple[str, int], ...] = ()
        admission_queue: Tuple[str, ...] = ()
        if manager is not None:
            apps = tuple(sorted(manager.drivers))
            demand_epochs = tuple(
                (app_id, manager.drivers[app_id].demand_epoch)
                for app_id in apps
            )
            admission = manager.admission
            if admission is not None:
                admission_queue = tuple(
                    job.job_id for _, job in getattr(admission, "_deferred", [])
                )
        checkpoint = ManagerCheckpoint(
            seq=self.log._seq,
            taken_at=self.sim.now,
            apps=apps,
            leases=tuple(
                self.leases[k] for k in sorted(self.leases)
            ),
            demand_epochs=demand_epochs,
            admission_queue=admission_queue,
        )
        self.log.install_checkpoint(checkpoint)
        self._m_checkpoints.inc()
        return checkpoint

    # ------------------------------------------------------------ lease math
    def _last_renewal(self, granted_at: float, crash_time: float) -> float:
        """When the healthy manager last renewed this lease before dying.

        Renewals tick every ``lease_renew_interval`` seconds from the grant;
        the manager renewed on every tick it was alive for, so the last
        renewal is the latest tick at or before the crash — closed form, no
        per-lease events.
        """
        if crash_time <= granted_at:
            return granted_at
        ticks = math.floor((crash_time - granted_at) / self.lease_renew_interval)
        return granted_at + ticks * self.lease_renew_interval

    def lease_live(self, granted_at: float, crash_time: float,
                   restart_time: float) -> bool:
        """Is a lease still within ``lease_duration`` of its last renewal?"""
        return restart_time <= self._last_renewal(granted_at, crash_time) + (
            self.lease_duration
        )

    # ---------------------------------------------------------- crash path
    def crash(self, outage: float) -> None:
        """The manager process dies for ``outage`` seconds.

        Captures the durable view of the log (checkpoint + WAL entries the
        flush lag had persisted) *at the crash instant* — everything the
        restarted process will know.  A second crash while already down
        simply extends the outage (generation-guarded restart).
        """
        if outage <= 0:
            raise ConfigurationError(f"outage must be positive, got {outage}")
        now = self.sim.now
        self._crash_gen += 1
        self.manager_crashes += 1
        self._m_crashes.inc()
        if self._state == "up":
            self._crashed_at = now
            self.leases_at_crash = len(self.leases)
            lost = self.log.lost_entries(now)
            self.wal_lost_entries += len(lost)
            self._durable_at_crash = (
                self.log.checkpoint, self.log.durable_entries(now)
            )
            # Implied renewals the healthy manager performed before dying.
            self.lease_renewals += sum(
                int(math.floor((now - lease.granted_at)
                               / self.lease_renew_interval))
                for lease in self.leases.values()
                if now > lease.granted_at
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    ManagerDown(
                        now, track="manager",
                        attrs={
                            "outage": outage,
                            "leases": self.leases_at_crash,
                            "wal_durable": len(self._durable_at_crash[1]),
                            "wal_lost": len(lost),
                        },
                    )
                )
        self._state = "down"
        self.sim.schedule(outage, self._restart, self._crash_gen)

    def _rebuild_ledger(self) -> Tuple[Dict[str, Lease], int]:
        """Replay the durable WAL suffix onto the last checkpoint."""
        checkpoint, entries = self._durable_at_crash or (None, [])
        leases: Dict[str, Lease] = {}
        if checkpoint is not None:
            for lease in checkpoint.leases:
                leases[lease.executor_id] = lease
        replayed = 0
        for entry in entries:
            args = dict(entry.args)
            if entry.op == "grant":
                leases[args["executor"]] = Lease(
                    executor_id=args["executor"], app_id=args["app"],
                    granted_at=entry.ts,
                )
            elif entry.op == "release":
                leases.pop(args["executor"], None)
            replayed += 1
        return leases, replayed

    def _restart(self, gen: int) -> None:
        """The outage ended: replay, re-register, reconcile."""
        if gen != self._crash_gen:
            return  # superseded by a later crash while we were down
        manager = self.manager
        assert manager is not None and self._crashed_at is not None
        now = self.sim.now
        crash_time = self._crashed_at
        ledger, replayed = self._rebuild_ledger()
        self.wal_replay_entries = replayed
        self._m_wal_replay.set(replayed)
        self._state = "reconciling"
        # Live drivers re-announce themselves during the window (the
        # driver objects survive — only the manager's process died).
        for app_id in sorted(manager.drivers):
            self.reregistrations += 1
            self.log.append(now, "reregister", app=app_id)
            self._m_wal_entries.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                ManagerRestart(
                    now, track="manager",
                    attrs={"phase": "replay", "wal_replayed": replayed},
                )
            )
        # Reconcile the rebuilt ledger against physical cluster truth.
        readopted = expired = zombies = 0
        self.leases = {}
        for executor in manager.cluster.executors:
            owner = executor.owner
            if owner is None:
                continue
            known = ledger.pop(executor.executor_id, None)
            if known is not None and known.app_id == owner:
                if self.lease_live(known.granted_at, crash_time, now):
                    # Work-preserving re-adoption: running attempts keep
                    # going; the lease clock restarts at reconciliation.
                    self.leases[executor.executor_id] = Lease(
                        executor_id=executor.executor_id,
                        app_id=owner,
                        granted_at=now,
                    )
                    readopted += 1
                    self._m_lease_readopted.inc()
                    self._lease_outcome(executor.executor_id, owner, "readopted")
                else:
                    expired += 1
                    self._m_lease_expired.inc()
                    self._lease_outcome(executor.executor_id, owner, "expired")
                    self._reclaim(executor, "expired")
            else:
                # Physically allocated but unknown to the rebuilt ledger:
                # a zombie launched from a grant the flush lag lost.
                zombies += 1
                self._m_lease_zombie.inc()
                self._lease_outcome(executor.executor_id, owner, "zombie")
                self._reclaim(executor, "zombie")
        # Ledger leases with no matching physical executor are orphans
        # (the executor died or was released during the outage): expire
        # them on the books — there is nothing to reclaim.
        for executor_id in sorted(ledger):
            expired += 1
            self._m_lease_expired.inc()
            self._lease_outcome(executor_id, ledger[executor_id].app_id, "expired")
        self.leases_readopted += readopted
        self.leases_expired += expired
        self.zombies_reclaimed += zombies
        self.sim.schedule(
            self.reconciliation_window, self._complete_recovery, gen, crash_time
        )

    def _lease_outcome(self, executor_id: str, app_id: str, outcome: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                LeaseOutcome(
                    self.sim.now, track="manager",
                    attrs={"executor": executor_id, "app": app_id,
                           "outcome": outcome},
                )
            )

    def _reclaim(self, executor, reason: str) -> None:
        """Take a dead lease's executor back: kill attempts, free the slot.

        A control-plane reclaim, not a node failure — the driver requeues
        the killed attempts without penalising the node or spending retry
        budget (see ``ApplicationDriver.reclaim_executor``).
        """
        manager = self.manager
        assert manager is not None
        driver = manager.drivers.get(executor.owner)
        if driver is not None:
            self.tasks_requeued += driver.reclaim_executor(executor)
        executor.release()
        manager._note_pool_change(executor)

    def _complete_recovery(self, gen: int, crash_time: float) -> None:
        """Reconciliation window over: resume allocation, drain buffers."""
        if gen != self._crash_gen:
            return  # another crash hit during reconciliation
        manager = self.manager
        assert manager is not None
        now = self.sim.now
        self._state = "up"
        self._crashed_at = None
        self._durable_at_crash = None
        self.recoveries += 1
        self._m_recoveries.inc()
        duration = now - crash_time
        self.recovery_durations.append(duration)
        self._m_recovery_seconds.observe(duration)
        # Post-reconciliation invariant: every allocated executor holds a
        # live lease.  Anything else survived reconciliation as a zombie.
        surviving = sum(
            1
            for executor in manager.cluster.executors
            if executor.owner is not None
            and executor.executor_id not in self.leases
        )
        self.zombies_surviving = surviving
        self._m_zombies_surviving.set(surviving)
        if self.tracer.enabled:
            self.tracer.emit(
                ManagerRestart(
                    now, track="manager",
                    attrs={
                        "phase": "recovered",
                        "duration": duration,
                        "readopted": self.leases_readopted,
                        "expired": self.leases_expired,
                        "zombies": self.zombies_reclaimed,
                        "wal_replayed": self.wal_replay_entries,
                    },
                )
            )
        # Registrations that arrived mid-outage complete now.
        pending, self._pending_registrations = self._pending_registrations, []
        for driver in pending:
            manager.register_driver(driver)
        # Buffered submissions drain before the resume round so the first
        # post-recovery allocation pass sees full demand.
        for app_id in sorted(manager.drivers):
            manager.drivers[app_id].flush_pending_submissions()
        manager.on_executors_changed()

    # ------------------------------------------------------------- reporting
    def as_dict(self) -> Dict[str, object]:
        """Serializable tally projection (joined into FaultStats)."""
        mean = (
            sum(self.recovery_durations) / len(self.recovery_durations)
            if self.recovery_durations
            else 0.0
        )
        return {
            "manager_crashes": self.manager_crashes,
            "manager_recoveries": self.recoveries,
            "recovery_seconds_mean": mean,
            "leases_at_crash": self.leases_at_crash,
            "leases_readopted": self.leases_readopted,
            "leases_expired": self.leases_expired,
            "zombies_reclaimed": self.zombies_reclaimed,
            "zombies_surviving": self.zombies_surviving,
            "lease_renewals": self.lease_renewals,
            "wal_entries": self.log.entries_total,
            "wal_lost_entries": self.wal_lost_entries,
            "wal_replay_entries": self.wal_replay_entries,
            "checkpoints_taken": self.log.checkpoints_taken,
            "rounds_stalled": self.rounds_stalled,
            "grants_refused": self.grants_refused,
            "reregistrations": self.reregistrations,
            "recovery_tasks_requeued": self.tasks_requeued,
        }
