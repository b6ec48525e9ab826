"""YARN-style dynamic capacity pools — data-unaware but demand-driven.

On every job boundary the manager resizes each application's executor pool
to match its outstanding work (up to the equal-share quota), granting
whichever free executors come first and reclaiming idle surplus.  This is
the "dynamically partitions the cluster resources ... which only captures
computation resources as metrics and still lacks data awareness" behaviour
of §VII — structurally identical to Custody's resizing, minus the data
awareness, which makes it the cleanest ablation baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.managers.base import ClusterManager
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.executor import Executor
    from repro.scheduling.driver import ApplicationDriver

__all__ = ["YarnManager"]


class YarnManager(ClusterManager):
    """Demand-tracking, data-unaware executor pools."""

    name = "yarn"

    def on_job_submitted(self, driver: "ApplicationDriver", job: Job) -> None:
        if not self.admit_job(driver, job):
            return  # overloaded: round deferred until capacity recovers
        self._schedule_round()

    def on_job_finished(self, driver: "ApplicationDriver", job: Job) -> None:
        self._schedule_round()

    def on_executor_idle(self, driver: "ApplicationDriver", executor: "Executor") -> None:
        # Reclaim promptly when the app has no work left for the slot.
        if driver.outstanding_tasks < self.needed_executors(driver):
            return
        if not driver.runnable_count and driver.running_count == 0:
            self.revoke_idle(driver, executor)

    def on_executors_changed(self) -> None:
        """Node crash/restart: re-fit every pool to the surviving capacity."""
        self._schedule_round()

    def _allocation_round(self) -> None:
        self._resize_all()

    # ----------------------------------------------------------------- resize
    def _resize_all(self) -> None:
        """Shrink over-provisioned apps, then grow under-provisioned ones."""
        self.allocation_rounds += 1
        shrunk = 0
        grown = 0
        # Shrink first so the freed executors can serve growth below.
        for driver in self._driver_order():
            target = min(self.needed_executors(driver), self.quota_of(driver.app_id))
            surplus = driver.executor_count - target
            if surplus <= 0:
                continue
            for executor in driver.executors:
                if surplus <= 0:
                    break
                if self.revoke_idle(driver, executor):
                    surplus -= 1
                    shrunk += 1
        # Grow: first-come free executors, no data awareness.
        for driver in self._driver_order():
            target = min(self.needed_executors(driver), self.quota_of(driver.app_id))
            deficit = target - driver.executor_count
            if deficit <= 0:
                continue
            for executor in self.free_pool():
                if deficit <= 0:
                    break
                if self.grant(driver, executor):
                    deficit -= 1
                    grown += 1
        self.trace_round(
            shrunk=shrunk,
            granted=grown,
            demand_tasks=sum(d.outstanding_tasks for d in self.drivers.values()),
        )

    def _driver_order(self):
        """Deterministic round order: most under-provisioned first."""
        return sorted(
            self.drivers.values(),
            key=lambda d: (d.executor_count - self.needed_executors(d), d.app_id),
        )
