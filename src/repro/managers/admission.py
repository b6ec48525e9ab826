"""Admission control: defer new jobs when demand outruns deliverable capacity.

Congestion collapse in a shared cluster is a control-plane failure mode:
when pending demand far exceeds what the (partially sick) cluster can
actually deliver, every new job triggers another allocation round that
reshuffles executors between already-starved applications — allocation
thrash that slows everyone and helps no one.

The :class:`AdmissionController` is the managers' overload valve.  On job
submission it compares total pending task demand against *deliverable*
slot capacity — executors on nodes the master believes alive and
unsuspected — and when demand exceeds ``factor ×`` capacity the job's
allocation round is **deferred**: the job still queues in its driver (work
is never dropped), but the manager does not reshuffle executors for it
until a periodic re-check finds headroom.  Sustained overload at re-check
time is counted as ``load_shed``; recovery drains every deferred job into
one coalesced round.

The controller is inert unless attached (``manager.admission``), schedules
an event only while deferrals are outstanding, and draws no randomness —
disabled, it cannot perturb a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.events import AdmissionDecision
from repro.simulation.engine import EventHandle, Simulation

if TYPE_CHECKING:  # pragma: no cover
    from repro.managers.base import ClusterManager
    from repro.scheduling.driver import ApplicationDriver
    from repro.workload.job import Job

__all__ = ["AdmissionController"]


class AdmissionController:
    """Overload gate consulted by ``ClusterManager.admit_job``."""

    def __init__(
        self,
        sim: Simulation,
        *,
        factor: float = 4.0,
        retry_interval: float = 5.0,
    ):
        if factor <= 0:
            raise ConfigurationError(f"admission factor must be positive, got {factor}")
        if retry_interval <= 0:
            raise ConfigurationError(
                f"retry_interval must be positive, got {retry_interval}"
            )
        self.sim = sim
        self.factor = factor
        self.retry_interval = retry_interval
        self.manager: Optional["ClusterManager"] = None
        self._deferred: List[Tuple["ApplicationDriver", "Job"]] = []
        self._retry_handle: Optional[EventHandle] = None
        self.admission_deferred = 0
        self.load_shed = 0
        self.admitted_after_defer = 0

    def bind(self, manager: "ClusterManager") -> None:
        """Attach to the owning manager (needed for demand/capacity views)."""
        self.manager = manager
        decisions = manager.metrics.counter(
            "admission_decisions_total",
            "Admission-control outcomes (deferred / shed re-checks / "
            "admitted-after-defer).",
            ("manager", "decision"),
        )
        self._m_decisions = {
            decision: decisions.labels(manager=manager.name, decision=decision)
            for decision in ("deferred", "shed", "admitted")
        }

    @property
    def deferred_jobs(self) -> int:
        """Jobs currently waiting for an allocation round."""
        return len(self._deferred)

    # ------------------------------------------------------------ measurement
    def demand_and_capacity(self) -> Tuple[int, int]:
        """(pending task demand, deliverable slot capacity), master's view.

        Demand sums every driver's outstanding tasks (the submitted job's
        tasks are already enqueued when the admission check runs).
        Capacity counts slots on executors whose nodes the master believes
        alive *and* unsuspected — dead, partitioned, flapping or gray nodes
        do not count toward what the cluster can deliver.
        """
        manager = self.manager
        assert manager is not None, "AdmissionController.bind() first"
        pending = sum(
            d.outstanding_tasks for d in manager.drivers.values()
        )
        injector = manager.fault_injector
        detector = manager.detector
        capacity = 0
        for executor in manager.cluster.executors:
            node = executor.node_id
            if injector is not None:
                if detector is not None:
                    if not detector.is_alive(node) or detector.is_suspected(node):
                        continue
                    if not executor.healthy and not injector.node_down(node):
                        continue  # individually-crashed executor
                elif not injector.node_reachable(node) or not executor.healthy:
                    continue
            capacity += executor.slots
        return pending, capacity

    def overloaded(self) -> Tuple[bool, int, int]:
        """(is overloaded, pending, capacity) at this instant."""
        pending, capacity = self.demand_and_capacity()
        return pending > self.factor * capacity, pending, capacity

    # ------------------------------------------------------------- admission
    def admit(self, driver: "ApplicationDriver", job: "Job") -> bool:
        """Gate one submission; False defers its allocation round."""
        over, pending, capacity = self.overloaded()
        if not over:
            return True
        self.admission_deferred += 1
        self._deferred.append((driver, job))
        self._record("deferred", driver.app_id, job.job_id, pending, capacity)
        self._arm_retry()
        return False

    def _arm_retry(self) -> None:
        if self._retry_handle is None or not self._retry_handle.pending:
            self._retry_handle = self.sim.schedule(self.retry_interval, self._retry)

    def _retry(self) -> None:
        """Periodic re-check: drain on recovery, count sustained overload."""
        self._retry_handle = None
        if not self._deferred:
            return
        over, pending, capacity = self.overloaded()
        manager = self.manager
        assert manager is not None
        if over:
            # Still overloaded: the deferral stands — that *is* the shed
            # decision (work stays queued instead of thrashing allocations).
            self.load_shed += 1
            self._record("shed", "", "", pending, capacity, jobs=len(self._deferred))
            self._arm_retry()
            return
        batch, self._deferred = self._deferred, []
        for driver, job in batch:
            self.admitted_after_defer += 1
            self._record("admitted", driver.app_id, job.job_id, pending, capacity)
        # One coalesced round serves the whole drained batch.
        manager._schedule_round()

    # --------------------------------------------------------------- tracing
    def _record(
        self,
        decision: str,
        app_id: str,
        job_id: str,
        pending: int,
        capacity: int,
        **extra,
    ) -> None:
        manager = self.manager
        assert manager is not None
        self._m_decisions[decision].inc()
        if manager.tracer.enabled:
            attrs = {
                "app": app_id,
                "job": job_id,
                "decision": decision,
                "pending": pending,
                "capacity": capacity,
            }
            attrs.update(extra)
            manager.tracer.emit(
                AdmissionDecision(
                    self.sim.now, track=f"manager:{manager.name}", attrs=attrs
                )
            )
