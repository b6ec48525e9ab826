"""Test oracles for the production engines, and the whole-run seam onto them.

Runs always use the production engines.  The seed (from-scratch)
implementations live here, unchanged in behaviour, as test oracles:

* :class:`ReferenceRateEngine` — every recompute re-solves every live flow
  with ``maxmin_rates`` in arrival order; :func:`reference_fabric` builds a
  ``NetworkFabric`` on it, and :func:`reference_rates` is the same full
  recompute as a one-shot check on any ``RateEngine``;
* :class:`ReferenceCustodyManager` — every round rebuilds every demand with
  per-task NameNode lookups and full history scans, and plans with
  ``two_level_allocate`` (the rescanning Algorithm 1+2) through
  :class:`ReferenceAllocator`;
* the scanning task schedulers, in ``tests/scan_policies.py``.

:func:`reference_stack` patches the two places a whole experiment builds
them (``repro.experiments.runner`` and the paper-figure scenarios) so any
``run_experiment`` / figure call inside the block runs on the reference
fabric, :class:`ReferenceCustodyManager`, the scan schedulers
(:func:`~tests.scan_policies.scan_dispatch`) and failure detectors that
judge every liveness query afresh with the full heartbeat walk
(:func:`judge_every_query`: no per-instant verdict memo and no shortcut
for nodes nothing has named).

The ``stack`` fixture parametrizes a test over both stacks, entering the
seam for the ``"reference"`` case.  Patches are process-local: run
parallel fan-out with ``jobs=1`` inside the seam.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, List, Optional, Sequence
from unittest import mock

import pytest

import repro.experiments.runner as runner
import repro.experiments.scenarios as scenarios
import repro.network.fabric as fabric_module
from repro.cluster.executor import Executor
from repro.core import allocation
from repro.core.demand import AllocationPlan, AppDemand, JobDemand, TaskDemand
from repro.faults.detector import FailureDetector
from repro.managers.custody import CustodyManager
from repro.network.bandwidth import maxmin_rates
from repro.network.fabric import NetworkFabric
from repro.network.rate_engine import RateEngine
from repro.obs.metrics import NULL_METRICS, SIZE_BUCKETS
from repro.workload.job import Job
from tests.scan_policies import scan_dispatch

#: Engine stacks a whole-run equivalence test covers.
STACKS = ("reference", "incremental")


# ----------------------------------------------------------------- network
def reference_rates(engine: RateEngine) -> Dict[Hashable, float]:
    """Fresh full ``maxmin_rates`` recompute over ``engine``'s live flows.

    The engine's :meth:`~repro.network.rate_engine.RateEngine.rates` must
    always equal this.
    """
    ordered = sorted(engine._flows, key=engine._seq.__getitem__)
    flows = [engine._flows[fid] for fid in ordered]
    return dict(zip(ordered, maxmin_rates(flows, engine.capacities)))


class ReferenceRateEngine(RateEngine):
    """The seed allocator: each recompute re-solves every live flow.

    Its recomputes are labelled ``engine="reference"``, counted only when
    flows exist, and emit no ``net.recompute`` instant and no perf-counter
    updates — the seed fabric's recompute-from-scratch path exactly.
    """

    def __init__(
        self,
        capacities,
        counters: Optional[object] = None,
        tracer: Optional[object] = None,
        metrics: Optional[object] = None,
    ):
        # The production instruments bind to the no-op registry, so a run
        # holds only the engine="reference" series.
        super().__init__(capacities)
        if metrics is None:
            metrics = NULL_METRICS
        self._m_recomputes = metrics.counter(
            "net_rate_recomputes_total",
            "Water-filling passes executed, by allocator engine.",
            ("engine",),
        ).labels(engine="reference")
        self._m_component = metrics.histogram(
            "net_dirty_component_flows",
            "Flows re-rated per recompute (dirty-component size).",
            ("engine",),
            buckets=SIZE_BUCKETS,
        ).labels(engine="reference")

    def recompute(self) -> Dict[Hashable, float]:
        """Re-rate every live flow (arrival order) from scratch."""
        self._dirty.clear()
        self._fresh_loopbacks.clear()
        if not self._flows:
            return {}
        rates = reference_rates(self)
        self._rates.update(rates)
        # Full recompute: the "dirty component" is every live flow.
        self._m_recomputes.inc()
        self._m_component.observe(len(rates))
        return rates


def reference_fabric(*args, **kwargs) -> NetworkFabric:
    """A ``NetworkFabric`` whose rate engine is :class:`ReferenceRateEngine`."""
    with mock.patch.object(fabric_module, "RateEngine", ReferenceRateEngine):
        return NetworkFabric(*args, **kwargs)


# --------------------------------------------------------------- allocation
class ReferenceAllocator(allocation.DataAwareAllocator):
    """Plans every round with the rescanning ``two_level_allocate``."""

    def allocate(
        self,
        apps: Sequence[AppDemand],
        idle_executors: Sequence[str],
        *,
        fill_limits: Optional[Dict[str, int]] = None,
    ) -> AllocationPlan:
        return allocation.two_level_allocate(
            apps,
            idle_executors,
            fill=self.fill,
            fill_limits=fill_limits,
            executor_capacity=self.executor_capacity,
        )


class ReferenceCustodyManager(CustodyManager):
    """The seed Custody control plane: per-task NameNode lookups, full
    locality-history scans, no demand cache, the rescanning planner."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.allocator = ReferenceAllocator(
            fill=self.allocator.fill,
            executor_capacity=self.allocator.executor_capacity,
        )

    def _useful_nodes(self, driver) -> set:
        """Nodes holding replicas of any pending (unstarted) input task."""
        namenode = driver.hdfs.namenode
        nodes: set = set()
        for task in driver.runnable_tasks:
            if task.is_input and task.started_at is None and task.block is not None:
                nodes.update(namenode.serving_locations(task.block.block_id))
        return nodes

    def _build_demands(self, pool: List[Executor]) -> tuple:
        """The seed builder: per-task NameNode lookups, full history scans."""
        free_by_node: Dict[str, List[str]] = {}
        for executor in pool:
            free_by_node.setdefault(executor.node_id, []).append(executor.executor_id)

        demands: List[AppDemand] = []
        fill_limits: Dict[str, int] = {}
        for driver in self._driver_order():
            namenode = driver.hdfs.namenode
            owned_nodes = set(driver.owned_nodes())
            job_by_id: Optional[Dict[str, Job]] = None
            jobs: Dict[str, List[TaskDemand]] = {}
            totals: Dict[str, int] = {}
            for task in driver.runnable_tasks:
                if not task.is_input or task.started_at is not None:
                    continue
                assert task.block is not None
                replica_nodes = namenode.serving_locations(task.block.block_id)
                if owned_nodes.intersection(replica_nodes):
                    continue  # satisfied: an owned executor can serve it locally
                candidates = [
                    ex for node in replica_nodes for ex in free_by_node.get(node, ())
                ]
                jobs.setdefault(task.job_id, []).append(
                    TaskDemand.of(task.task_id, candidates)
                )
                if task.job_id not in totals:
                    # Lazily index the job list once per driver, and resolve
                    # each job's task total once rather than per task.
                    if job_by_id is None:
                        job_by_id = {j.job_id: j for j in driver.app.jobs}
                    totals[task.job_id] = job_by_id[task.job_id].num_input_tasks
            job_demands = [
                JobDemand(job_id, tuple(tasks), total_tasks=totals[job_id])
                for job_id, tasks in sorted(jobs.items())
            ]
            app = driver.app
            decided_jobs = sum(1 for j in app.jobs if j.is_local_job is not None)
            local_jobs = sum(1 for j in app.jobs if j.is_local_job)
            decided_tasks = sum(
                1 for t in app.input_tasks if t.was_local is not None
            )
            local_tasks = sum(1 for t in app.input_tasks if t.was_local)
            quota = self.quota_of(driver.app_id)
            held = min(driver.executor_count, quota)
            demands.append(
                AppDemand(
                    app_id=driver.app_id,
                    jobs=tuple(job_demands),
                    quota=quota,
                    held=held,
                    local_jobs=local_jobs,
                    decided_jobs=decided_jobs,
                    local_tasks=local_tasks,
                    decided_tasks=decided_tasks,
                )
            )
            fill_limits[driver.app_id] = max(
                0, self.needed_executors(driver) - driver.executor_count
            )
        return demands, fill_limits


# --------------------------------------------------------------------- seam
def judge_every_query(detector: FailureDetector, node_id: str) -> str:
    """Memo-free, walk-always stand-in for ``FailureDetector._verdict``."""
    return detector._judge_walk(node_id)


@contextmanager
def reference_stack() -> Iterator[None]:
    """Build every run's fabric, Custody manager, task schedulers and
    failure detector on the reference implementations."""
    with mock.patch.object(
        runner, "NetworkFabric", reference_fabric
    ), mock.patch.object(
        runner, "CustodyManager", ReferenceCustodyManager
    ), mock.patch.object(
        scenarios, "NetworkFabric", reference_fabric
    ), mock.patch.object(
        FailureDetector, "_verdict", judge_every_query
    ), scan_dispatch():
        yield


@pytest.fixture(params=STACKS)
def stack(request) -> Iterator[str]:
    """The test body runs once per engine stack; yields the stack's name."""
    if request.param == "reference":
        with reference_stack():
            yield request.param
    else:
        yield request.param
