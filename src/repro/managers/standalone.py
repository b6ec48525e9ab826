"""Spark standalone cluster manager — the paper's baseline.

Allocation is **static and data-unaware**: the moment an application
registers — *before any job exists, so before any input information could be
known* (§III-A) — it receives its full equal share of executors, chosen
without regard to data, and keeps exactly that set for its lifetime.

Two selection modes mirror the two behaviours Spark standalone exhibits:

* ``spread=False`` (default, used as the paper's baseline): a uniformly
  random subset of free executors — "the standalone manager randomly selects
  among all the available resources and allocates whichever set of executors
  that have sufficient computation resources" (§VI-C);
* ``spread=True``: Spark's ``spreadOut`` round-robin over worker nodes,
  maximising node coverage (used in ablations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.executor import Executor
from repro.common.errors import AllocationError
from repro.managers.base import ClusterManager
from repro.simulation.engine import Simulation

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.driver import ApplicationDriver

__all__ = ["StandaloneManager"]


class StandaloneManager(ClusterManager):
    """Static equal-share allocation at registration time."""

    name = "standalone"

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        *,
        num_apps: int,
        rng: Optional[np.random.Generator] = None,
        spread: bool = False,
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
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.spread = spread

    def _on_register(self, driver: "ApplicationDriver") -> None:
        quota = self.quota_of(driver.app_id)
        chosen = self._select(quota)
        if len(chosen) < min(quota, 1):
            raise AllocationError(
                f"no free executors left for {driver.app_id} "
                f"(registered apps exceed capacity?)"
            )
        for executor in chosen:
            self.grant(driver, executor)
        self.allocation_rounds += 1
        self.trace_round(
            app=driver.app_id, granted=len(chosen), quota=quota, spread=self.spread
        )

    def on_executors_changed(self) -> None:
        """Node crash/restart: replace lost executors.

        Standalone keeps its allocation static in fault-free operation, but
        a real Spark master does re-register replacement executors for an
        application after worker loss.  Model that minimally: hand free
        executors to the most executor-starved applications still below
        their quota (no data awareness, matching the baseline's character).
        """
        self._schedule_round()

    def _allocation_round(self) -> None:
        changed = True
        while changed:
            changed = False
            starved = sorted(
                self.drivers.values(), key=lambda d: (d.executor_count, d.app_id)
            )
            for driver in starved:
                if driver.executor_count >= self.quota_of(driver.app_id):
                    continue
                if driver.outstanding_tasks == 0:
                    continue
                for executor in self.free_pool():
                    if self.grant(driver, executor):
                        changed = True
                        break
                if changed:
                    break

    def _select(self, count: int) -> List[Executor]:
        free = self.free_pool()
        count = min(count, len(free))
        if count == 0:
            return []
        if not self.spread:
            picks = self.rng.choice(len(free), size=count, replace=False)
            return [free[int(i)] for i in sorted(picks)]
        # spreadOut: round-robin over nodes, one executor per node per sweep.
        by_node: dict = {}
        for executor in free:
            by_node.setdefault(executor.node_id, []).append(executor)
        chosen: List[Executor] = []
        node_order = sorted(by_node)
        start = int(self.rng.integers(len(node_order)))
        node_order = node_order[start:] + node_order[:start]
        while len(chosen) < count:
            progressed = False
            for node_id in node_order:
                stack = by_node[node_id]
                if stack:
                    chosen.append(stack.pop(0))
                    progressed = True
                    if len(chosen) >= count:
                        break
            if not progressed:
                break
        return chosen
