"""Custody: the data-aware cluster manager (the paper's contribution).

The manager mirrors the plugin architecture of §V:

1. **Postponed allocation.**  Nothing is allocated at registration; demands
   become known when jobs are submitted.
2. **NameNode query.**  On every job boundary the manager asks the NameNode
   where each pending input block lives and derives, per application, the
   set of *unsatisfied* input tasks — those with no owned executor on any
   replica node — and their candidate free executors.
3. **Release.**  Each application proactively returns idle executors that
   are neither on a replica node of its pending inputs nor needed for its
   outstanding task volume ("a specific executor can be released"), so the
   pool reflects true availability and executor *swaps* are possible at
   quota.
4. **Two-level allocation.**  :func:`repro.core.allocation.two_level_allocate`
   runs Algorithms 1 + 2 over the demands and the idle pool; the resulting
   grants are applied.  Task-level assignments are forwarded as *hints*;
   by default applications keep their own (delay) schedulers and ignore
   them, exactly as the paper deploys it — a
   :class:`~repro.scheduling.policies.HintedDelayScheduler` opts in.

The control plane runs each round through live indexes: a per-round
NameNode replica memo (keyed on ``NameNode.version``) shared between
release, usefulness and demand building; a per-driver demand cache whose
entries stay valid while the driver's ``demand_epoch``, the NameNode
version and the free pool on the demand's *watched* replica nodes are all
unchanged; and the O(1) locality counters the drivers maintain through
``Application.note_input_decided``.  Under fault injection only
demand-cache *reuse* is off: detector transitions move the believed free
pool without passing :meth:`_note_pool_change`, so a cached demand's
candidate sets could go stale invisibly.  The replica memo, the
useful-nodes cache and the locality counters read nothing from the pool
and stay on.

The seed control plane — every round rebuilds every application's demand
with per-task NameNode lookups and full locality-history scans, and plans
with :func:`~repro.core.allocation.two_level_allocate` — is the test oracle
``ReferenceCustodyManager`` in ``tests/reference_stack.py``; the
equivalence suites assert this manager's demands and plans equal its
byte for byte.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set

from repro.cluster.cluster import Cluster
from repro.cluster.executor import Executor
from repro.core.allocation import DataAwareAllocator
from repro.core.demand import AllocationPlan, AppDemand, JobDemand, TaskDemand, validate_plan
from repro.managers.base import ClusterManager
from repro.simulation.engine import Simulation
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduling.driver import ApplicationDriver

__all__ = ["CustodyManager"]


def _gc_collection_count() -> int:
    """Total cyclic-GC passes run so far, across all generations."""
    return sum(s["collections"] for s in gc.get_stats())


@dataclass
class _DemandEntry:
    """One driver's cached demand with its validity preconditions."""

    epoch: int  # driver.demand_epoch at build time
    nn_version: int  # NameNode.version at build time
    pool_version: int  # manager pool clock at build time
    watch_nodes: FrozenSet[str]  # replica nodes whose free pool the demand read
    demand: AppDemand
    fill_limit: int


class CustodyManager(ClusterManager):
    """Data-aware executor allocation via the two-level procedure."""

    name = "custody"

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        *,
        num_apps: int,
        fill: bool = True,
        validate: bool = False,
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
        _cache = self.metrics.counter(
            "demand_cache_requests_total",
            "Per-round demand builds served from / missing the incremental "
            "cache.",
            ("manager", "result"),
        )
        self._m_cache_hit = _cache.labels(manager=self.name, result="hit")
        self._m_cache_miss = _cache.labels(manager=self.name, result="miss")
        self.allocator = DataAwareAllocator(
            fill=fill,
            executor_capacity=cluster.config.executor_slots,
        )
        self.validate = validate
        self.last_plan: Optional[AllocationPlan] = None
        # Incremental control-plane state (see module docstring).
        self.demand_cache_hits = 0
        self.demand_cache_misses = 0
        self._demand_cache: Dict[str, _DemandEntry] = {}
        #: app id → (epoch, nn version, useful replica nodes) for release
        self._useful_cache: Dict[str, tuple] = {}
        #: per-NameNode-version replica memo: block id → serving node list
        self._serving_memo: Dict[str, List[str]] = {}
        self._serving_memo_version = -1
        #: pool clock: bumped on every grant/release, per-node high-water mark
        self._pool_version = 0
        self._node_version: Dict[str, int] = {}
        #: apps whose scheduler accepts task hints (skip hint plumbing else)
        self._hint_drivers: Set[str] = set()

    # -------------------------------------------------------------------- hooks
    def _on_register(self, driver: "ApplicationDriver") -> None:
        if getattr(driver.scheduler, "set_hints", None) is not None:
            self._hint_drivers.add(driver.app_id)

    def on_job_submitted(self, driver: "ApplicationDriver", job: Job) -> None:
        if not self.admit_job(driver, job):
            return  # overloaded: round deferred until capacity recovers
        self._schedule_round()

    def on_job_finished(self, driver: "ApplicationDriver", job: Job) -> None:
        self._schedule_round()

    def on_executors_changed(self) -> None:
        """Node crash/restart: run a full round so displaced work re-lands."""
        self._schedule_round()

    def _allocation_round(self) -> None:
        self.reallocate()

    # ------------------------------------------------------- incremental indexes
    def _note_pool_change(self, executor: Executor) -> None:
        self._pool_version += 1
        self._node_version[executor.node_id] = self._pool_version

    def _serving(self, namenode, block_id: str) -> List[str]:
        """Memoised ``NameNode.serving_locations`` (one lookup per version).

        The memo lives across rounds and is dropped wholesale whenever the
        NameNode's metadata epoch moves; within a round the same block is
        consulted by release, usefulness and demand building, so this
        collapses up to three sorted-set unions into one.
        """
        if namenode.version != self._serving_memo_version:
            self._serving_memo = {}
            self._serving_memo_version = namenode.version
        nodes = self._serving_memo.get(block_id)
        if nodes is None:
            nodes = namenode.serving_locations(block_id)
            self._serving_memo[block_id] = nodes
        return nodes

    # --------------------------------------------------------------- allocation
    def reallocate(self) -> AllocationPlan:
        """One full Custody round: release, build demands, allocate, apply.

        With counters attached, each phase is timed separately and the
        cyclic-GC passes that fire mid-round are tallied — the breakdown
        that attributes tail latency to collector pauses rather than to
        any allocation phase.
        """
        counters = self.counters
        if counters is not None:
            gc_before = _gc_collection_count()
            mark = time.perf_counter()
        self.allocation_rounds += 1
        self._release_surplus()
        # One pool scan serves both the demand builder and the idle list —
        # the seed scanned twice with identical results post-release.
        pool = self.free_pool()
        if counters is not None:
            now = time.perf_counter()
            counters.alloc_release_seconds += now - mark
            mark = now
        demands, fill_limits = self._build_demands(pool)
        idle = [e.executor_id for e in pool]
        if counters is not None:
            now = time.perf_counter()
            counters.alloc_demand_seconds += now - mark
            mark = now
        plan = self.allocator.allocate(demands, idle, fill_limits=fill_limits)
        if counters is not None:
            now = time.perf_counter()
            counters.alloc_plan_seconds += now - mark
            mark = now
        if self.validate:
            validate_plan(
                plan,
                demands,
                idle,
                executor_capacity=self.cluster.config.executor_slots,
            )
        for app_id, executor_ids in plan.grants.items():
            driver = self.drivers[app_id]
            for executor_id in executor_ids:
                self.grant(driver, self.cluster.executor(executor_id))
        # Forward the z^u_ijk suggestions to hint-aware schedulers (§V: the
        # allocation "can submit both the list of executors and the
        # scheduling suggestions"); plain delay schedulers ignore them, and
        # when no registered scheduler accepts hints the owner map is not
        # even built.
        if plan.assignment and self._hint_drivers:
            owner_of_task = {
                t.task_id: a.app_id for a in demands for j in a.jobs for t in j.tasks
            }
            per_app: Dict[str, Dict[str, str]] = {}
            for task_id, executor_id in plan.assignment.items():
                per_app.setdefault(owner_of_task[task_id], {})[task_id] = executor_id
            for app_id, hints in per_app.items():
                self.drivers[app_id].set_task_hints(hints)
        # Algorithm 1/2 decision record: which apps demanded, how much idle
        # capacity the max-min pass saw, and the grant pick order it chose.
        demand_tasks = sum(len(j.tasks) for a in demands for j in a.jobs)
        self.trace_round(
            demand_apps=sum(1 for a in demands if a.jobs),
            demand_tasks=demand_tasks,
            idle=len(idle),
            granted=plan.total_granted,
            promised=len(plan.assignment),
            grants=",".join(
                f"{app}:{len(execs)}" for app, execs in plan.grants.items() if execs
            ),
        )
        if self.tracer.enabled:
            self.tracer.counter(
                "alloc.demand_tasks",
                "manager",
                value=float(demand_tasks),
                track=f"manager:{self.name}",
            )
            self.tracer.counter(
                "alloc.demand_cache_hits",
                "manager",
                value=float(self.demand_cache_hits),
                track=f"manager:{self.name}",
            )
        self.last_plan = plan
        if counters is not None:
            counters.alloc_apply_seconds += time.perf_counter() - mark
            counters.alloc_gc_collections += _gc_collection_count() - gc_before
        return plan

    # ----------------------------------------------------------------- releases
    def _release_surplus(self) -> None:
        """Return idle executors that serve neither locality nor capacity."""
        for driver in self._driver_order():
            useful_nodes = self._useful_nodes(driver)
            needed = self.needed_executors(driver)
            for executor in driver.executors:
                if driver.executor_count <= needed:
                    break
                if executor.running_tasks:
                    continue
                if executor.node_id in useful_nodes:
                    continue
                self.revoke_idle(driver, executor)

    def _useful_nodes(self, driver: "ApplicationDriver") -> set:
        """Replica nodes of the driver's pending inputs, cached when possible.

        The set depends only on the driver's runnable input tasks and the
        NameNode metadata, so a ``(demand_epoch, NameNode.version)`` pair
        keys its validity exactly.
        """
        namenode = driver.hdfs.namenode
        cached = self._useful_cache.get(driver.app_id)
        if (
            cached is not None
            and cached[0] == driver.demand_epoch
            and cached[1] == namenode.version
        ):
            return cached[2]
        nodes: set = set()
        for task in driver.runnable_tasks:
            if task.is_input and task.started_at is None and task.block is not None:
                nodes.update(self._serving(namenode, task.block.block_id))
        self._useful_cache[driver.app_id] = (driver.demand_epoch, namenode.version, nodes)
        return nodes

    # ------------------------------------------------------------------ demands
    def _build_demands(self, pool: List[Executor]) -> tuple:
        """Demand construction through the live indexes and per-driver cache.

        A cached entry is reused when (a) the driver's ``demand_epoch`` is
        unchanged — covering runnable tasks, owned executors, task
        starts/finishes and hence held/fill/locality counters; (b) the
        NameNode version is unchanged — covering every replica set read; and
        (c) no *watched* node's free pool moved since the entry was built —
        covering candidate executor sets.  Watched nodes are the replica
        nodes of the entry's unsatisfied tasks: satisfied tasks' skip
        decisions read only owned nodes and replica sets, already covered
        by (a) + (b).  Only dirty drivers pay the rebuild.

        Under fault injection condition (c) is unobservable, so every
        demand is rebuilt and the cache is neither read, filled nor counted.
        """
        reuse = self.fault_injector is None
        free_by_node: Dict[str, List[str]] = {}
        for executor in pool:
            free_by_node.setdefault(executor.node_id, []).append(executor.executor_id)

        demands: List[AppDemand] = []
        fill_limits: Dict[str, int] = {}
        for driver in self._driver_order():
            namenode = driver.hdfs.namenode
            if reuse:
                entry = self._demand_cache.get(driver.app_id)
                if (
                    entry is not None
                    and entry.epoch == driver.demand_epoch
                    and entry.nn_version == namenode.version
                    and all(
                        self._node_version.get(n, 0) <= entry.pool_version
                        for n in entry.watch_nodes
                    )
                ):
                    self.demand_cache_hits += 1
                    self._m_cache_hit.inc()
                    if self.counters is not None:
                        self.counters.demand_cache_hits += 1
                    demands.append(entry.demand)
                    fill_limits[driver.app_id] = entry.fill_limit
                    continue
                self.demand_cache_misses += 1
                self._m_cache_miss.inc()
                if self.counters is not None:
                    self.counters.demand_cache_misses += 1
            epoch = driver.demand_epoch
            owned_nodes = set(driver.owned_nodes())
            watch: Set[str] = set()
            job_by_id: Optional[Dict[str, Job]] = None
            jobs: Dict[str, List[TaskDemand]] = {}
            totals: Dict[str, int] = {}
            for task in driver.runnable_tasks:
                if not task.is_input or task.started_at is not None:
                    continue
                assert task.block is not None
                replica_nodes = self._serving(namenode, task.block.block_id)
                if owned_nodes.intersection(replica_nodes):
                    continue
                watch.update(replica_nodes)
                candidates = [
                    ex for node in replica_nodes for ex in free_by_node.get(node, ())
                ]
                jobs.setdefault(task.job_id, []).append(
                    TaskDemand.of(task.task_id, candidates)
                )
                if task.job_id not in totals:
                    if job_by_id is None:
                        job_by_id = {j.job_id: j for j in driver.app.jobs}
                    totals[task.job_id] = job_by_id[task.job_id].num_input_tasks
            job_demands = [
                JobDemand(job_id, tuple(tasks), total_tasks=totals[job_id])
                for job_id, tasks in sorted(jobs.items())
            ]
            app = driver.app
            quota = self.quota_of(driver.app_id)
            held = min(driver.executor_count, quota)
            demand = AppDemand(
                app_id=driver.app_id,
                jobs=tuple(job_demands),
                quota=quota,
                held=held,
                local_jobs=app.local_job_count,
                decided_jobs=app.decided_job_count,
                local_tasks=app.local_task_count,
                decided_tasks=app.decided_task_count,
            )
            fill_limit = max(0, self.needed_executors(driver) - driver.executor_count)
            demands.append(demand)
            fill_limits[driver.app_id] = fill_limit
            if reuse:
                self._demand_cache[driver.app_id] = _DemandEntry(
                    epoch=epoch,
                    nn_version=namenode.version,
                    pool_version=self._pool_version,
                    watch_nodes=frozenset(watch),
                    demand=demand,
                    fill_limit=fill_limit,
                )
        return demands, fill_limits

    def _driver_order(self):
        return [self.drivers[k] for k in sorted(self.drivers)]
