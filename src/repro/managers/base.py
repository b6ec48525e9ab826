"""Shared cluster-manager machinery.

A manager owns the free-executor pool and decides which application gets
which executor; drivers call back into it on job submission, job completion
and executor idleness.  Subclasses override the four hooks; the base class
provides the grant/revoke plumbing with invariant checks and trace
events, plus the equal-share quota every policy in the paper uses.
"""

from __future__ import annotations

import abc
import math
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.executor import Executor
from repro.common.errors import AllocationError, ConfigurationError
from repro.obs.events import AllocationRound, ExecutorGrant
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.engine import Simulation
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.driver import ApplicationDriver

__all__ = ["ClusterManager"]


class ClusterManager(abc.ABC):
    """Base class for all resource-sharing policies."""

    #: Human-readable policy name, shown in reports.
    name: str = "abstract"

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        *,
        num_apps: int,
        weights: Optional[Dict[str, float]] = None,
        tracer: Optional[Tracer] = None,
        coalesce: bool = False,
        counters=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if num_apps < 1:
            raise ConfigurationError(f"num_apps must be >= 1, got {num_apps}")
        if weights is not None:
            if any(w <= 0 for w in weights.values()):
                raise ConfigurationError("application weights must be positive")
            if not weights:
                weights = None
        self.sim = sim
        self.cluster = cluster
        self.num_apps = num_apps
        self.weights = weights
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.drivers: Dict[str, "ApplicationDriver"] = {}
        self.allocation_rounds = 0
        #: Round coalescing: when True, demand-changing hooks defer one
        #: allocation round to the end of the current instant instead of
        #: running one round per hook (library default False = the seed's
        #: synchronous semantics; the experiment runner turns it on).
        self.coalesce = coalesce
        #: optional :class:`repro.metrics.collector.PerfCounters`
        self.counters = counters
        #: label-aware aggregation registry (NULL_METRICS when metering is
        #: off).  Instruments are pre-bound here once so hot paths pay one
        #: method call, no dict lookups — and a no-op when disabled.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._m_rounds = self.metrics.counter(
            "alloc_rounds_total", "Allocation rounds executed.", ("manager",)
        ).labels(manager=self.name)
        self._m_rounds_coalesced = self.metrics.counter(
            "alloc_rounds_coalesced_total",
            "Same-instant allocation-round triggers absorbed by coalescing.",
            ("manager",),
        ).labels(manager=self.name)
        _grants = self.metrics.counter(
            "executor_grants_total",
            "Executor grants attempted, by outcome (ok / dead node).",
            ("manager", "outcome"),
        )
        self._m_grants_ok = _grants.labels(manager=self.name, outcome="ok")
        self._m_grants_dead = _grants.labels(manager=self.name, outcome="dead")
        self._round_pending = False
        #: set by the experiment runner under fault injection; None otherwise.
        #: The manager's liveness view goes through these — a detector gives
        #: the master a heartbeat-delayed (stale) picture of the cluster.
        self.fault_injector = None
        self.detector = None
        #: grants that landed on a node the master wrongly believed alive
        self.failed_launches = 0
        #: optional :class:`repro.managers.admission.AdmissionController`;
        #: None (the default) admits every job unconditionally.
        self.admission = None
        #: optional :class:`repro.managers.recovery.RecoveryCoordinator`;
        #: None (the default) = the immortal seed control plane.
        self.recovery = None

    # ------------------------------------------------------------------ quota
    @property
    def quota(self) -> int:
        """σ_i under equal sharing — each application's executor share."""
        return max(1, self.cluster.config.total_executors // self.num_apps)

    def quota_of(self, app_id: str) -> int:
        """σ_i for ``app_id`` — weighted share when weights are configured.

        Weighted max-min: quotas are proportional to the application's
        weight over the sum of all configured weights (unknown apps weigh
        1.0); always at least one executor.
        """
        if self.weights is None:
            return self.quota
        total_weight = sum(self.weights.values())
        weight = self.weights.get(app_id, 1.0)
        share = self.cluster.config.total_executors * weight / total_weight
        return max(1, int(share))

    def needed_executors(self, driver: "ApplicationDriver") -> int:
        """Executors required to serve a driver's outstanding tasks."""
        slots = self.cluster.config.executor_slots
        return math.ceil(driver.outstanding_tasks / slots) if slots else 0

    # ------------------------------------------------------------ registration
    def register_driver(self, driver: "ApplicationDriver") -> None:
        """Admit an application; subclasses may allocate immediately."""
        if driver.app_id in self.drivers:
            raise AllocationError(f"app {driver.app_id} registered twice")
        if driver.manager is not None and driver.manager is not self:
            raise AllocationError(f"driver {driver.app_id} already has a manager")
        if self.recovery is not None and not self.recovery.available:
            # The control plane is down: the registration queues and
            # completes when reconciliation ends.
            self.recovery.queue_registration(driver)
            return
        self.drivers[driver.app_id] = driver
        driver.manager = self
        if self.tracer.narrating:
            self.tracer.narrate("app.register", driver.app_id, manager=self.name)
        if self.recovery is not None:
            self.recovery.note_register(driver.app_id)
        self._on_register(driver)

    # ---------------------------------------------------------------- plumbing
    def grant(self, driver: "ApplicationDriver", executor: Executor) -> bool:
        """Allocate a free executor to an application.

        Returns True on success.  Under fault injection the master's view is
        stale: a grant can land on an executor whose node has actually died
        or is partitioned away — the launch fails, the failure is reported
        to the detector (so the master stops believing in the node), and the
        grant returns False instead of raising.
        """
        if self.recovery is not None and not self.recovery.available:
            # A dead control plane cannot hand out leases (offer paths can
            # reach here without an allocation round, e.g. Mesos idle
            # re-offers).
            self.recovery.note_grant_refused()
            return False
        injector = self.fault_injector
        if injector is not None and (
            not executor.healthy or not injector.node_reachable(executor.node_id)
        ):
            self.failed_launches += 1
            self._m_grants_dead.inc()
            if self.detector is not None:
                self.detector.report_failure(executor.node_id)
            if self.tracer.enabled:
                self.tracer.emit(
                    ExecutorGrant(
                        self.sim.now,
                        track=executor.node_id,
                        lane=executor.executor_id,
                        attrs={
                            "app": driver.app_id,
                            "executor": executor.executor_id,
                            "node": executor.node_id,
                            "ok": False,
                        },
                    )
                )
            return False
        executor.allocate(driver.app_id)
        self._m_grants_ok.inc()
        self._note_pool_change(executor)
        if self.tracer.enabled:
            self.tracer.emit(
                ExecutorGrant(
                    self.sim.now,
                    track=executor.node_id,
                    lane=executor.executor_id,
                    attrs={
                        "app": driver.app_id,
                        "executor": executor.executor_id,
                        "node": executor.node_id,
                        "ok": True,
                    },
                )
            )
        if self.recovery is not None:
            self.recovery.note_grant(executor.executor_id, driver.app_id)
        driver.attach_executor(executor)
        return True

    def revoke_idle(self, driver: "ApplicationDriver", executor: Executor) -> bool:
        """Take an idle executor back from an application; False if busy."""
        if executor.owner != driver.app_id:
            raise AllocationError(
                f"{executor.executor_id} is not owned by {driver.app_id}"
            )
        if executor.running_tasks:
            return False
        if self.recovery is not None and not self.recovery.available:
            return False  # revocation is a manager decision; it is down
        driver.detach_executor(executor)
        executor.release()
        if self.recovery is not None:
            self.recovery.note_release(executor.executor_id, driver.app_id)
        self._note_pool_change(executor)
        if self.tracer.enabled:
            self.tracer.instant(
                "executor.release",
                "manager",
                track=executor.node_id,
                lane=executor.executor_id,
                app=driver.app_id,
            )
        return True

    # --------------------------------------------------------- round scheduling
    @property
    def round_pending(self) -> bool:
        """True while a coalesced allocation round awaits the instant flush."""
        return self._round_pending

    def _schedule_round(self) -> None:
        """Run (or coalesce) one allocation round.

        Synchronous managers (``coalesce=False``) run the round inline —
        grants land before the hook returns, exactly the seed behaviour.
        With coalescing on, the first trigger at an instant defers one round
        via :meth:`Simulation.defer`; further same-instant triggers are
        absorbed (counted as ``alloc_rounds_coalesced``), so N job
        boundaries cost one round.

        Every manager (and the admission controller's re-check timer)
        routes allocation through here, so this single gate stalls the
        whole control plane while a crashed manager is down.
        """
        if self.recovery is not None and not self.recovery.rounds_enabled:
            self.recovery.note_round_stalled()
            return
        if not self.coalesce:
            self._run_round()
            return
        if self._round_pending:
            if self.counters is not None:
                self.counters.alloc_rounds_coalesced += 1
            self._m_rounds_coalesced.inc()
            return
        self._round_pending = True
        self.sim.defer(("alloc-round", id(self)), self._flush_round)

    def _flush_round(self) -> None:
        self._round_pending = False
        self._run_round()

    def _run_round(self) -> None:
        """Execute one allocation pass, timing it into the perf counters."""
        if self.recovery is not None and not self.recovery.rounds_enabled:
            # Direct callers (Mesos offer retry) bypass _schedule_round;
            # the disjoint gates never double-count a stalled trigger.
            self.recovery.note_round_stalled()
            return
        self._m_rounds.inc()
        if self.counters is None:
            self._allocation_round()
            return
        start = perf_counter()
        self._allocation_round()
        self.counters.alloc_rounds += 1
        self.counters.alloc_seconds += perf_counter() - start

    def _allocation_round(self) -> None:
        """Subclass hook: the policy's allocation pass (one round)."""

    def _note_pool_change(self, executor: Executor) -> None:
        """Subclass hook: ``executor`` just entered or left the free pool."""

    def trace_round(self, **attrs) -> None:
        """Emit one :class:`AllocationRound` event for the pass just run.

        Subclasses call this at the end of their allocation entry point with
        their policy-specific decision detail; the round ordinal and policy
        name are filled in here.  No-op while tracing is off.
        """
        if not self.tracer.enabled:
            return
        attrs.setdefault("round", self.allocation_rounds)
        attrs.setdefault("manager", self.name)
        self.tracer.emit(
            AllocationRound(self.sim.now, track=f"manager:{self.name}", attrs=attrs)
        )
        self.tracer.counter(
            "alloc.rounds",
            "manager",
            value=float(self.allocation_rounds),
            track=f"manager:{self.name}",
        )

    def free_pool(self) -> List[Executor]:
        """Free executors *as the master believes them* (creation order).

        Without fault injection this is ground truth.  With an injector but
        no detector the master is omniscient about liveness yet cannot reach
        partitioned nodes.  With a detector the view is heartbeat-delayed: a
        just-died node's executors still look allocatable until the timeout
        expires (grants on them fail, see :meth:`grant`), and a recovered
        node only re-enters the pool once believed alive again.
        """
        injector = self.fault_injector
        if injector is None:
            return self.cluster.free_executors()
        detector = self.detector
        if detector is None:
            return [
                e
                for e in self.cluster.free_executors()
                if injector.node_reachable(e.node_id)
            ]
        pool = [
            e
            for e in self.cluster.executors
            if e.is_free
            and detector.is_alive(e.node_id)
            and (e.healthy or injector.node_down(e.node_id))
        ]
        # Gray-failure deprioritisation: executors on *suspected* nodes sink
        # to the back of the pool (stable, so order within each class is
        # unchanged).  The fixed-window detector never suspects, so this is
        # the identity ordering unless the adaptive detector is in play.
        pool.sort(key=lambda e: detector.is_suspected(e.node_id))
        return pool

    # --------------------------------------------------------------- admission
    def attach_admission(self, controller) -> None:
        """Install an :class:`~repro.managers.admission.AdmissionController`."""
        controller.bind(self)
        self.admission = controller

    # ---------------------------------------------------------------- recovery
    def attach_recovery(self, coordinator) -> None:
        """Install a :class:`~repro.managers.recovery.RecoveryCoordinator`."""
        coordinator.bind(self)
        self.recovery = coordinator

    def admit_job(self, driver: "ApplicationDriver", job: Job) -> bool:
        """Overload gate consulted by job-submission hooks.

        ``True`` (always, when no controller is attached) lets the hook
        trigger its allocation round; ``False`` defers the round — the job
        stays queued in its driver and the controller re-checks capacity
        on a timer, draining deferred jobs into one coalesced round.
        """
        if self.admission is None:
            return True
        return self.admission.admit(driver, job)

    # -------------------------------------------------------------------- hooks
    def on_executors_changed(self) -> None:
        """Fault hook: cluster membership changed (crash/restart/heal).

        Subclasses react by re-running their allocation pass so displaced
        work finds new executors; the base implementation does nothing.
        """
    def on_demand_changed(self, driver: "ApplicationDriver") -> None:
        """A driver's demand resurfaced outside the job/stage flow.

        Retry backoff hides a task from ``outstanding_tasks``; if the
        manager reclaimed the driver's executors during that window, the
        requeued task has nowhere to run and nothing left to trigger a
        grant.  Default: treat it like a membership change and re-run the
        allocation pass.
        """
        self.on_executors_changed()

    def _on_register(self, driver: "ApplicationDriver") -> None:
        """Subclass hook: called after an application registers."""

    def on_job_submitted(self, driver: "ApplicationDriver", job: Job) -> None:
        """Subclass hook: a driver accepted a new job."""

    def on_job_finished(self, driver: "ApplicationDriver", job: Job) -> None:
        """Subclass hook: a driver completed a job."""

    def on_executor_idle(self, driver: "ApplicationDriver", executor: Executor) -> None:
        """Subclass hook: an owned executor's last running task finished."""
