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
* the scanning task schedulers, in ``tests/scan_policies.py``;
* :class:`GeneratorAttempt` and :func:`watch_recovery_process` — task
  attempts and re-replication copies as generator processes on
  ``tests/reference_engine.Process`` (the production code runs them as
  callback state machines), amended only where the callback path
  deliberately differs: a kill before the body's first event cancels the
  body instead of letting it run once, and a killed or failed shuffle
  cancels its local-read timer instead of leaving it to fire as a no-op.

:func:`reference_stack` patches the two places a whole experiment builds
them (``repro.experiments.runner`` and the paper-figure scenarios) so any
``run_experiment`` / figure call inside the block runs on the reference
fabric, :class:`ReferenceCustodyManager`, the scan schedulers
(:func:`~tests.scan_policies.scan_dispatch`), failure detectors that
judge every liveness query afresh with the full heartbeat walk
(:func:`judge_every_query`: no per-instant verdict memo and no shortcut
for nodes nothing has named) and the generator attempts and recovery
copies.

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
import repro.scheduling.driver as driver_module
from repro.cluster.executor import Executor
from repro.common.errors import TransferFailedError
from repro.core import allocation
from repro.core.demand import AllocationPlan, AppDemand, JobDemand, TaskDemand
from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector
from repro.managers.custody import CustodyManager
from repro.network.bandwidth import maxmin_rates
from repro.network.fabric import NetworkFabric
from repro.network.rate_engine import RateEngine
from repro.obs.metrics import NULL_METRICS, SIZE_BUCKETS
from repro.workload.job import Job
from tests.reference_engine import AllOf, Interrupt, Process, Signal, SignalWait, Timeout
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


# ----------------------------------------------------------------- attempts
class _AttemptProcess(Process):
    """A reference ``Process`` that keeps its start hop, so a kill that
    lands before the body's first event can cancel it."""

    def __init__(self, sim, generator, name: str):
        self.sim = sim
        self.name = name
        self._gen = generator
        self._done = Signal(sim, name=f"{name}.done")
        self._current = None
        self._alive = True
        self.start = sim.call_soon(self._resume, None, None)


class GeneratorAttempt(driver_module._Attempt):
    """A task attempt as a generator process (the seed's attempt body)."""

    __slots__ = ("process", "waits")

    def launch(self) -> None:
        #: a shuffle's waits, so a kill or failure can cancel its timer
        self.waits: List = []
        self.process = _AttemptProcess(
            self.driver.sim,
            self._body(),
            name=f"run:{self.task.task_id}@{self.executor.executor_id}",
        )

    def release(self) -> None:
        process = self.process
        # ``_fail_attempt`` releases from inside the body: no interrupt then.
        if process.alive and not process._gen.gi_running:
            if process.start.pending:
                process.start.cancel()  # killed before start: never run the body
                process._alive = False
            else:
                process.interrupt("killed", immediate=True)
        for wait in self.waits:
            if isinstance(wait, Timeout):
                wait._unsubscribe(None)  # no leftover local-read timer
        for transfer in self.transfers:
            self.driver.fabric.cancel_transfer(transfer)
        self.transfers.clear()
        if self.task.task_id in self.executor.running_tasks:
            self.executor.finish_task(self.task.task_id)

    def _body(self):
        driver = self.driver
        task, executor = self.task, self.executor
        node = executor.node
        transfers = self.transfers
        read_started = driver.sim.now
        try:
            was_local = None
            if task.is_input:
                assert task.block is not None
                if driver.hdfs.can_serve_locally(task.block.block_id, node.node_id):
                    was_local = True
                    yield Timeout(driver.hdfs.local_read_time(task.block, node.node_id))
                else:
                    was_local = False
                    src = driver._pick_fetch_source(task.block.block_id, node.node_id)
                    if src is None:
                        driver._fail_attempt(self, "no-replicas")
                        return
                    transfers.append(
                        driver.fabric.start_transfer(src, node.node_id, task.block.size)
                    )
                    yield SignalWait(transfers[0].done)
                    transfers.clear()
                    if driver.hdfs.caching_enabled:
                        driver.hdfs.cache_block(node.node_id, task.block)
            elif task.shuffle_bytes > 0:
                sources = driver._shuffle_sources(task)
                if not sources:
                    yield Timeout(node.local_read_time(task.shuffle_bytes))
                else:
                    per_source = task.shuffle_bytes / len(sources)
                    waits = self.waits
                    for src in sources:
                        if src == node.node_id:
                            waits.append(Timeout(node.local_read_time(per_source)))
                        else:
                            transfer = driver.fabric.start_transfer(
                                src, node.node_id, per_source
                            )
                            transfers.append(transfer)
                            waits.append(SignalWait(transfer.done))
                    yield AllOf(waits)
                    transfers.clear()
            read_time = driver.sim.now - read_started
            cpu = task.cpu_time * driver._cpu_factor(node.node_id)
            if cpu > 0:
                yield Timeout(cpu)
        except Interrupt:
            for transfer in transfers:
                driver.fabric.cancel_transfer(transfer)
            transfers.clear()
            if task.task_id in executor.running_tasks:
                executor.finish_task(task.task_id)
            return
        except TransferFailedError as exc:
            driver._fail_attempt(self, exc.cause)
            return
        self.was_local, self.read_time = was_local, read_time
        driver._finish_attempt(self)


def watch_recovery_process(
    injector: FaultInjector, transfer, block, target: str, exclude: str, retries: int
) -> None:
    """``FaultInjector._watch_recovery`` as the seed's generator process."""
    Process(
        injector.sim,
        _recovery_body(injector, transfer, block, target, exclude, retries),
        name=f"re-replicate:{block.block_id}->{target}",
    )


def _recovery_body(injector, transfer, block, target, exclude, retries):
    try:
        yield SignalWait(transfer.done)
    except TransferFailedError:
        injector._rr_active -= 1
        injector._trace_recovery(transfer, block, target, "transfer-failed")
        injector._rr_retry(block.block_id, exclude, retries, "transfer-failed")
        injector._pump_re_replication()
        return
    injector._rr_active -= 1
    if (
        target not in injector._down_nodes
        and not injector.hdfs.datanodes[target].holds(block.block_id)
    ):
        injector.hdfs.datanodes[target].store(block)
        injector.hdfs.namenode.add_replica(block.block_id, target)
        injector.replicas_restored += 1
        injector._trace_recovery(transfer, block, target, "restored")
    else:
        injector._trace_recovery(transfer, block, target, "superseded")
    injector._pump_re_replication()


# --------------------------------------------------------------------- seam
def judge_every_query(detector: FailureDetector, node_id: str) -> str:
    """Memo-free, walk-always stand-in for ``FailureDetector._verdict``."""
    return detector._judge_walk(node_id)


@contextmanager
def reference_stack() -> Iterator[None]:
    """Build every run's fabric, Custody manager, task schedulers, failure
    detector, task attempts and recovery copies on the reference
    implementations."""
    with mock.patch.object(
        driver_module, "_Attempt", GeneratorAttempt
    ), mock.patch.object(
        FaultInjector, "_watch_recovery", watch_recovery_process
    ), mock.patch.object(
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
