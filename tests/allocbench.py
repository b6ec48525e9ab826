"""Allocation control-plane scaling microbenchmark.

Measures the per-round cost of a full Custody allocation pass —
release-surplus, demand construction, two-level max-min allocation, grant
application — under job/task churn at increasing tenant counts, for both
control planes:

* **reference** — the seed behaviour
  (:class:`~tests.reference_stack.ReferenceCustodyManager`): every round
  rebuilds every application's demand with per-task NameNode lookups and
  full locality-history scans;
* **incremental** — the production ``CustodyManager``: per-driver demand
  entries keyed on ``demand_epoch`` / ``NameNode.version`` / watched-node
  pool versions, the cross-round replica memo and the O(1) locality
  counters.

Shared by ``benchmarks/bench_alloc_scale.py`` (run it with the repository
root on ``PYTHONPATH``), the golden plan-stream test and
``tests/fixtures/regen_golden.py``.

The synthetic workload mimics the saturated steady state the paper's
evaluation runs in: every application holds a backlog of pending input
tasks well beyond its quota, and each simulated instant dirties exactly
*one* application (a job boundary or task completion there) while the
other N-1 stay untouched — precisely the regime round coalescing creates
and the demand cache exploits.  Periodically an application drains,
releases its executors and rebuilds its backlog, so grants and revokes
keep flowing through the pool-version invalidation path.

Both engines run in lockstep over twin object graphs built from the same
seed; every round's :meth:`AllocationPlan.signature` is compared and a
mismatch aborts the benchmark — the speedup numbers are only reported for
provably identical decision streams.

The timed section runs with the warmed-up twin worlds *frozen* and the
cyclic collector *quiesced* (:func:`quiesced_gc`): profiling
showed the historical 32-tenant p99 spike was CPython collections walking
the entire live twin-world graph inside timed rounds — largely triggered
by the reference twin's per-round rebuild garbage — not any property of
the allocator itself.  The deferred collection runs on exit, outside any
timer; per-round collection counts still surface in the
``incremental_gc_collections`` column so a regression that reintroduces
collector pauses into the hot path is visible.

Results serialise to ``BENCH_alloc.json`` so successive PRs can diff perf;
``benchmarks/bench_alloc_scale.py --smoke`` gates CI on a conservative
floor.
"""

from __future__ import annotations

import gc
import json
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.executor import Executor
from repro.common.units import BlockSpec
from repro.hdfs.filesystem import HDFS
from repro.managers.custody import CustodyManager
from repro.metrics.collector import PerfCounters
from repro.simulation.engine import Simulation
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind
from tests.reference_stack import ReferenceCustodyManager

__all__ = [
    "AllocScalePoint",
    "AllocWorkloadSize",
    "golden_plan_stream",
    "run_alloc_bench",
    "write_alloc_trajectory",
]

#: v2 added the incremental round-cost breakdown and GC-collection columns.
_FORMAT_VERSION = 2

#: Executor slots per executor in the benchmark cluster (the evaluation's 4).
_SLOTS = 4


@dataclass(frozen=True)
class AllocWorkloadSize:
    """One point of the sweep: tenants x backlog shape x replication."""

    apps: int
    jobs_per_app: int
    tasks_per_job: int
    replication: int


@dataclass(frozen=True)
class AllocScalePoint:
    """One row of the allocation-scaling trajectory."""

    apps: int
    jobs_per_app: int
    tasks_per_job: int
    replication: int
    nodes: int
    rounds: int
    reference_seconds: float
    incremental_seconds: float
    speedup: float
    reference_p50_ms: float
    reference_p90_ms: float
    reference_p99_ms: float
    incremental_p50_ms: float
    incremental_p90_ms: float
    incremental_p99_ms: float
    plans_equal: bool
    demand_cache_hits: int
    demand_cache_misses: int
    demand_cache_hit_rate: float
    #: Incremental-engine round-cost breakdown (seconds summed over the
    #: timed rounds): release surplus, build demands, run the two-level
    #: allocator, apply grants.  The four phases partition the round.
    incremental_release_seconds: float = 0.0
    incremental_demand_seconds: float = 0.0
    incremental_plan_seconds: float = 0.0
    incremental_apply_seconds: float = 0.0
    #: Cyclic-GC collections observed inside the incremental engine's timed
    #: rounds.  With the collector quiesced this must be 0; anything else
    #: means collector pauses are landing in the hot path again.
    incremental_gc_collections: int = 0


class _ScriptedDriver:
    """The manager-facing slice of ApplicationDriver, under script control.

    Implements exactly the protocol the managers consume — ``app``,
    ``runnable_tasks``, ``owned_nodes``, ``demand_epoch``, executor
    attach/detach — without the scheduling machinery, so the benchmark
    times the *manager's* round cost, not the driver's.  ``demand_epoch``
    is bumped at the same state transitions the real driver bumps it:
    job submission, task start, task finish, executor attach/detach.
    """

    def __init__(self, app: Application, hdfs: HDFS, sim: Simulation):
        self.app = app
        self.app_id = app.app_id
        self.hdfs = hdfs
        self.sim = sim
        self.manager = None
        self.scheduler = None  # no set_hints attr: hint plumbing stays off
        self.demand_epoch = 0
        self.executors: List[Executor] = []
        self.pending: List[Task] = []  # queued input tasks, FIFO
        self.running: List[Tuple[Task, Executor]] = []

    # ---------------------------------------------------- manager protocol
    @property
    def executor_count(self) -> int:
        return len(self.executors)

    @property
    def runnable_tasks(self) -> List[Task]:
        return self.pending

    @property
    def outstanding_tasks(self) -> int:
        return len(self.pending) + len(self.running)

    def owned_nodes(self) -> Set[str]:
        return {e.node_id for e in self.executors}

    def attach_executor(self, executor: Executor) -> None:
        self.executors.append(executor)
        self.demand_epoch += 1

    def detach_executor(self, executor: Executor) -> None:
        self.executors.remove(executor)
        self.demand_epoch += 1

    def set_task_hints(self, hints) -> None:  # pragma: no cover - defensive
        pass

    # ------------------------------------------------------- scripted steps
    def submit_job(self, job: Job) -> None:
        self.app.add_job(job)
        job.submitted_at = self.sim.now
        self.pending.extend(job.input_tasks)
        self.demand_epoch += 1

    def start_some(self, count: int) -> int:
        """Launch up to ``count`` pending tasks into owned free slots."""
        started = 0
        for executor in self.executors:
            while started < count and self.pending and executor.free_slots > 0:
                task = self.pending.pop(0)
                task.started_at = self.sim.now
                task.executor_id = executor.executor_id
                task.node_id = executor.node_id
                executor.start_task(task.task_id)
                self.running.append((task, executor))
                self.demand_epoch += 1
                started += 1
            if started >= count:
                break
        return started

    def finish_some(self, count: int) -> int:
        """Complete up to ``count`` running tasks (FIFO), recording locality."""
        finished = 0
        namenode = self.hdfs.namenode
        while finished < count and self.running:
            task, executor = self.running.pop(0)
            executor.finish_task(task.task_id)
            task.finished_at = self.sim.now
            assert task.block is not None
            task.was_local = executor.node_id in namenode.serving_locations(
                task.block.block_id
            )
            job = next(j for j in self.app.jobs if j.job_id == task.job_id)
            self.app.note_input_decided(job, task.was_local)
            self.demand_epoch += 1
            finished += 1
        return finished


@dataclass
class _World:
    """One twin: a full object graph plus its manager under one engine."""

    sim: Simulation
    cluster: Cluster
    hdfs: HDFS
    manager: CustodyManager
    drivers: List[_ScriptedDriver]
    blocks: Dict[str, list]  # app id -> its file's block list
    job_seq: Dict[str, int] = field(default_factory=dict)


def _build_world(
    size: AllocWorkloadSize, seed: int, engine: str, counters: Optional[PerfCounters]
) -> _World:
    """Construct one twin world (deterministic in ``seed``)."""
    nodes = max(4, size.apps * 2)
    sim = Simulation()
    cluster = Cluster(
        ClusterConfig(
            num_nodes=nodes,
            cores_per_node=_SLOTS,
            executors_per_node=1,
            executor_slots=_SLOTS,
            nodes_per_rack=nodes,
        )
    )
    hdfs = HDFS(
        cluster,
        block_spec=BlockSpec(size=1.0, replication=size.replication),
        rng=np.random.default_rng(seed),
    )
    manager_cls = ReferenceCustodyManager if engine == "reference" else CustodyManager
    manager = manager_cls(sim, cluster, num_apps=size.apps, counters=counters)
    drivers: List[_ScriptedDriver] = []
    blocks: Dict[str, list] = {}
    for i in range(size.apps):
        app_id = f"app-{i:03d}"
        entry = hdfs.ingest(f"/bench/{app_id}", float(2 * size.tasks_per_job))
        blocks[app_id] = list(entry.blocks)
        driver = _ScriptedDriver(Application(app_id), hdfs, sim)
        drivers.append(driver)
        manager.register_driver(driver)
    return _World(
        sim=sim, cluster=cluster, hdfs=hdfs, manager=manager,
        drivers=drivers, blocks=blocks,
    )


def _make_job(world: _World, driver: _ScriptedDriver, size: AllocWorkloadSize,
              rng: random.Random) -> Job:
    seq = world.job_seq.get(driver.app_id, 0) + 1
    world.job_seq[driver.app_id] = seq
    job_id = f"{driver.app_id}-j{seq:04d}"
    pool = world.blocks[driver.app_id]
    tasks = [
        Task(
            f"{job_id}/t{t}",
            job_id=job_id,
            app_id=driver.app_id,
            stage_index=0,
            kind=TaskKind.INPUT,
            cpu_time=1.0,
            block=pool[rng.randrange(len(pool))],
        )
        for t in range(size.tasks_per_job)
    ]
    return Job(job_id, driver.app_id, [Stage(0, tasks)])


def _warm_up(world: _World, size: AllocWorkloadSize, rng: random.Random) -> None:
    """Build the saturated steady state: backlog, quota grants, busy slots."""
    for driver in world.drivers:
        for _ in range(size.jobs_per_app):
            driver.submit_job(_make_job(world, driver, size, rng))
    world.manager.reallocate()  # hand out the quota shares (untimed)
    for driver in world.drivers:
        driver.start_some(len(driver.executors) * _SLOTS)


def _churn_round(world: _World, size: AllocWorkloadSize, rng: random.Random,
                 round_idx: int) -> None:
    """One simulated instant: exactly one application's state moves.

    Visits applications round-robin.  Most visits are steady-state churn
    (finish a couple of tasks, refill the freed slots, occasionally submit
    a fresh job); every eighth visit the application *drains* — finishes
    everything it is running and submits nothing — so the next allocation
    round releases its surplus executors and re-grants them, exercising
    the pool-version invalidation path.
    """
    driver = world.drivers[round_idx % len(world.drivers)]
    visit = round_idx // len(world.drivers)
    if visit % 8 == 7:
        driver.finish_some(len(driver.running))
        driver.pending.clear()
        driver.demand_epoch += 1
        return
    if not driver.pending and not driver.running:
        # Rebuild the backlog after a drain.
        for _ in range(size.jobs_per_app):
            driver.submit_job(_make_job(world, driver, size, rng))
        driver.start_some(len(driver.executors) * _SLOTS)
        return
    done = driver.finish_some(2)
    driver.start_some(done)
    if visit % 4 == 1:
        driver.submit_job(_make_job(world, driver, size, rng))


@contextmanager
def quiesced_gc() -> Iterator[None]:
    """Freeze the live graph and pause automatic collections.

    For timed sections only: refcounting still reclaims acyclic garbage
    immediately (the overwhelming majority), while cyclic garbage
    accumulates until exit, where one explicit full collection — outside
    any timer — cleans up.  The twin worlds run in lockstep, so without
    this the reference twin's per-round rebuild garbage would trigger
    collections inside the incremental twin's timed rounds: a harness
    artifact, not allocator cost.  Restores the collector's enabled state
    and unfreezes on exit.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()
        gc.collect()


def _percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``latencies`` in milliseconds."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank] * 1e3


def run_alloc_bench(
    sizes: Sequence[Union[AllocWorkloadSize, Tuple[int, int, int, int]]],
    rounds: int = 200,
    seed: int = 0,
) -> List[AllocScalePoint]:
    """Time both control planes through identical churn at each size.

    Builds twin worlds per size — one per engine, same seed, identical
    object graphs — and drives them in lockstep: each round mutates both
    twins identically, then times one ``reallocate()`` per manager.  The
    per-round plan signatures must match or the benchmark aborts.
    """
    points: List[AllocScalePoint] = []
    for raw in sizes:
        size = raw if isinstance(raw, AllocWorkloadSize) else AllocWorkloadSize(*raw)
        counters = PerfCounters()
        ref = _build_world(size, seed, "reference", None)
        inc = _build_world(size, seed, "incremental", counters)
        _warm_up(ref, size, random.Random(seed))
        _warm_up(inc, size, random.Random(seed))
        # Snapshot the phase counters so the breakdown covers exactly the
        # timed rounds, not the untimed warm-up allocation.
        warm = {
            "release": counters.alloc_release_seconds,
            "demand": counters.alloc_demand_seconds,
            "plan": counters.alloc_plan_seconds,
            "apply": counters.alloc_apply_seconds,
            "gc": counters.alloc_gc_collections,
        }
        ref_lat: List[float] = []
        inc_lat: List[float] = []
        # Quiesce the collector for the timed section: without this,
        # collections triggered by *either* twin's churn walk both full
        # object graphs inside whichever round they land in — the source
        # of the historical 32-tenant p99 spike.  The deferred cyclic
        # garbage is collected on exit, outside the timers.
        with quiesced_gc():
            for round_idx in range(rounds):
                round_seed = seed * 1_000_003 + round_idx
                _churn_round(ref, size, random.Random(round_seed), round_idx)
                _churn_round(inc, size, random.Random(round_seed), round_idx)
                started = time.perf_counter()
                ref_plan = ref.manager.reallocate()
                ref_lat.append(time.perf_counter() - started)
                started = time.perf_counter()
                inc_plan = inc.manager.reallocate()
                inc_lat.append(time.perf_counter() - started)
                if ref_plan.signature() != inc_plan.signature():
                    raise AssertionError(
                        f"engines diverged at size={size} round={round_idx}: "
                        f"reference and incremental plans differ"
                    )
        ref_seconds = sum(ref_lat)
        inc_seconds = sum(inc_lat)
        points.append(
            AllocScalePoint(
                apps=size.apps,
                jobs_per_app=size.jobs_per_app,
                tasks_per_job=size.tasks_per_job,
                replication=size.replication,
                nodes=ref.cluster.config.num_nodes,
                rounds=rounds,
                reference_seconds=ref_seconds,
                incremental_seconds=inc_seconds,
                speedup=ref_seconds / inc_seconds if inc_seconds > 0 else float("inf"),
                reference_p50_ms=_percentile(ref_lat, 0.50),
                reference_p90_ms=_percentile(ref_lat, 0.90),
                reference_p99_ms=_percentile(ref_lat, 0.99),
                incremental_p50_ms=_percentile(inc_lat, 0.50),
                incremental_p90_ms=_percentile(inc_lat, 0.90),
                incremental_p99_ms=_percentile(inc_lat, 0.99),
                plans_equal=True,
                demand_cache_hits=inc.manager.demand_cache_hits,
                demand_cache_misses=inc.manager.demand_cache_misses,
                demand_cache_hit_rate=counters.demand_cache_hit_rate,
                incremental_release_seconds=(
                    counters.alloc_release_seconds - warm["release"]
                ),
                incremental_demand_seconds=(
                    counters.alloc_demand_seconds - warm["demand"]
                ),
                incremental_plan_seconds=(
                    counters.alloc_plan_seconds - warm["plan"]
                ),
                incremental_apply_seconds=(
                    counters.alloc_apply_seconds - warm["apply"]
                ),
                incremental_gc_collections=(
                    counters.alloc_gc_collections - warm["gc"]
                ),
            )
        )
    return points


def golden_plan_stream(
    size: Union[AllocWorkloadSize, Tuple[int, int, int, int]],
    rounds: int,
    seed: int,
    engine: str,
) -> List[list]:
    """The JSON-able plan-signature sequence of one scripted scenario.

    Drives a single world (one engine) through the deterministic churn and
    records every round's :meth:`AllocationPlan.signature`.  The golden
    fixture pins the reference engine's stream; the equivalence test then
    asserts both engines reproduce it signature for signature.
    """
    size = size if isinstance(size, AllocWorkloadSize) else AllocWorkloadSize(*size)
    world = _build_world(size, seed, engine, None)
    _warm_up(world, size, random.Random(seed))
    stream: List[list] = []
    for round_idx in range(rounds):
        _churn_round(world, size, random.Random(seed * 1_000_003 + round_idx),
                     round_idx)
        plan = world.manager.reallocate()
        # JSON-normalise the nested signature tuples into lists.
        stream.append(json.loads(json.dumps(plan.signature())))
    return stream


def write_alloc_trajectory(
    points: Sequence[AllocScalePoint], path: Union[str, Path] = "BENCH_alloc.json"
) -> Path:
    """Persist the allocation-scaling trajectory for cross-PR perf tracking."""
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "benchmark": "allocation_control_plane_scaling",
        "points": [asdict(p) for p in points],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
