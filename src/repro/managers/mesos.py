"""Mesos-style offer-based fine-grained sharing.

Free executors are *offered* to applications round-robin; an application's
task scheduler accepts an offer only when it could use a slot on that node
right now (delay scheduling rejects non-local offers while its wait budget
lasts).  Executors return to the pool as soon as their application has no
more work.  This reproduces the §II-A pathology: "the resource manager has
to resend an offer to multiple applications before any of them accepts it
... the applications may still not achieve data locality after waiting for a
long time."

Offers declined by every application are retried after ``offer_interval``
seconds — the offer-cycle latency a real Mesos master exhibits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.cluster.executor import Executor
from repro.managers.base import ClusterManager
from repro.simulation.engine import Simulation
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.driver import ApplicationDriver

__all__ = ["MesosManager"]


class MesosManager(ClusterManager):
    """Offer/accept resource sharing with per-app quotas."""

    name = "mesos"

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        *,
        num_apps: int,
        offer_interval: float = 1.0,
        weights=None,
        tracer=None,
        coalesce: bool = False,
        counters=None,
        metrics=None,
    ):
        super().__init__(
            sim,
            cluster,
            num_apps=num_apps,
            weights=weights,
            tracer=tracer,
            coalesce=coalesce,
            counters=counters,
            metrics=metrics,
        )
        if offer_interval <= 0:
            raise ValueError(f"offer_interval must be positive, got {offer_interval}")
        self.offer_interval = offer_interval
        self._offer_rotation = 0
        self._retry_armed = False
        self.offers_made = 0
        self.offers_rejected = 0

    # -------------------------------------------------------------------- hooks
    def _on_register(self, driver: "ApplicationDriver") -> None:
        # Registration happens pre-simulation; always offer synchronously.
        self._run_round()

    def on_job_submitted(self, driver: "ApplicationDriver", job: Job) -> None:
        if not self.admit_job(driver, job):
            return  # overloaded: round deferred until capacity recovers
        self._schedule_round()

    def on_job_finished(self, driver: "ApplicationDriver", job: Job) -> None:
        self._schedule_round()

    def on_executors_changed(self) -> None:
        """Node crash/restart: re-offer whatever the master believes free."""
        self._schedule_round()

    def _allocation_round(self) -> None:
        self._offer_all_free()

    def on_executor_idle(self, driver: "ApplicationDriver", executor: Executor) -> None:
        # Fine-grained sharing: an app keeps an executor only while it has
        # work queued for it; otherwise the executor re-enters the pool.
        if not driver.runnable_count:
            if self.revoke_idle(driver, executor):
                self._offer_one(executor)

    # -------------------------------------------------------------------- offers
    def _offer_all_free(self) -> None:
        self.allocation_rounds += 1
        made_before, rejected_before = self.offers_made, self.offers_rejected
        offered = 0
        for executor in self.free_pool():
            if executor.is_free:  # may have been taken earlier this sweep
                self._offer_one(executor)
                offered += 1
        self.trace_round(
            executors_offered=offered,
            offers=self.offers_made - made_before,
            rejected=self.offers_rejected - rejected_before,
        )

    def _offer_one(self, executor: Executor) -> None:
        """Offer one executor round-robin; arm a retry if everyone declines."""
        drivers = [self.drivers[k] for k in sorted(self.drivers)]
        if not drivers:
            return
        n = len(drivers)
        start = self._offer_rotation % n
        self._offer_rotation += 1
        for step in range(n):
            driver = drivers[(start + step) % n]
            self.offers_made += 1
            if driver.executor_count >= self.quota_of(driver.app_id):
                self.offers_rejected += 1
                continue
            if driver.consider_offer(executor):
                if self.grant(driver, executor):
                    return
                # Launch on a believed-alive-but-dead node failed; the
                # executor is unplaceable right now — retry later.
                self._arm_retry()
                return
            self.offers_rejected += 1
        self._arm_retry()

    def _arm_retry(self) -> None:
        """Periodic re-offer of executors nobody wanted (one timer at a time)."""
        if self._retry_armed:
            return
        self._retry_armed = True
        self.sim.schedule(self.offer_interval, self._retry)

    def _retry(self) -> None:
        # Stays synchronous even under coalescing: the re-arm decision below
        # must read the post-offer state.
        self._retry_armed = False
        free = self.free_pool()
        wanted = any(d.runnable_count for d in self.drivers.values())
        if free and wanted:
            self._run_round()
        # Re-arm while there is still unplaced work and idle capacity.
        free = self.free_pool()
        wanted = any(d.runnable_count for d in self.drivers.values())
        if free and wanted:
            self._arm_retry()
