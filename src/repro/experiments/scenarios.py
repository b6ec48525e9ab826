"""The paper's worked micro-examples as runnable scenarios.

Each function reproduces one of the illustrative figures with the paper's
exact numbers, returning a result object the tests assert on and the
benches print:

* **Fig. 1** — 4 workers x (1 block, 1 executor); 2 apps x 1 job x 2 tasks.
  Data-unaware round-robin yields 50% locality per app; the data-aware
  allocation yields 100%.
* **Fig. 3** — both apps want blocks D1/D2 only.  Naive fairness can give
  one app both local jobs and the other none; Algorithm 1 gives each app
  exactly one local job.
* **Fig. 4/5** — one app, two 2-task jobs, budget two executors; with CPU
  0.5 and remote transfer 1.5 time units the fairness-based allocation
  averages 2.0 time units per job while the priority allocation averages
  1.25.

Beyond the worked figures, :func:`chaos_sweep` runs the robustness
experiment: the *same* seeded fault plan (node crashes, partitions, link
degradations, executor kills, slowdowns) replayed against every manager at
increasing fault rates, measuring how locality and JCT degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.units import BlockSpec
from repro.core.allocation import two_level_allocate
from repro.core.demand import AppDemand, JobDemand, TaskDemand
from repro.hdfs.filesystem import HDFS
from repro.hdfs.placement import PlacementPolicy
from repro.network.fabric import NetworkFabric
from repro.obs.tracer import Tracer
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.policies import DelayScheduler
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind

__all__ = [
    "fig1_motivating_example",
    "fig3_interapp_example",
    "fig45_intraapp_example",
    "fig45_intraapp_trace",
    "chaos_sweep",
    "Fig1Result",
    "Fig3Result",
    "Fig45Result",
    "ChaosCell",
    "ChaosSweepResult",
]


# --------------------------------------------------------------------- Fig. 1
@dataclass(frozen=True)
class Fig1Result:
    """Locality each strategy achieves for each application."""

    data_unaware: Dict[str, float]
    data_aware: Dict[str, float]


def fig1_motivating_example() -> Fig1Result:
    """Reproduce Fig. 1's motivating comparison.

    Four executors E1..E4, one per worker; worker Wk stores only block Dk.
    A1's job needs D1, D2; A2's job needs D3, D4.  The data-unaware manager
    allocates round-robin ({E1,E3} / {E2,E4}): each app can serve only one
    task locally.  The data-aware allocation gives {E1,E2} / {E3,E4}: 100%.
    """
    demands = [
        AppDemand(
            app_id="A1",
            jobs=(
                JobDemand(
                    "A1-J1",
                    (
                        TaskDemand.of("T11", ["E1"]),
                        TaskDemand.of("T12", ["E2"]),
                    ),
                ),
            ),
            quota=2,
        ),
        AppDemand(
            app_id="A2",
            jobs=(
                JobDemand(
                    "A2-J1",
                    (
                        TaskDemand.of("T21", ["E3"]),
                        TaskDemand.of("T22", ["E4"]),
                    ),
                ),
            ),
            quota=2,
        ),
    ]
    executors = ["E1", "E2", "E3", "E4"]

    # Data-unaware round-robin (the paper's example outcome).
    round_robin = {"A1": ["E1", "E3"], "A2": ["E2", "E4"]}
    unaware = {
        app.app_id: _achievable_locality(app, set(round_robin[app.app_id]))
        for app in demands
    }

    plan = two_level_allocate(demands, executors, fill=True)
    aware = {
        app.app_id: _achievable_locality(app, set(plan.executors_of(app.app_id)))
        for app in demands
    }
    return Fig1Result(data_unaware=unaware, data_aware=aware)


def _achievable_locality(app: AppDemand, owned: set) -> float:
    """Best locality fraction any task scheduler could reach on ``owned``.

    A simple greedy suffices here because each task has a single candidate
    in the worked examples; the general case uses maximum matching in
    :mod:`repro.core.flownetwork`.
    """
    total = 0
    local = 0
    used: set = set()
    for job in app.jobs:
        for task in job.tasks:
            total += 1
            usable = sorted((task.candidates & owned) - used)
            if usable:
                used.add(usable[0])
                local += 1
    return local / total if total else 1.0


# --------------------------------------------------------------------- Fig. 3
@dataclass(frozen=True)
class Fig3Result:
    """Local-job counts per app under naive and locality-aware fairness."""

    naive_fair: Dict[str, int]
    locality_fair: Dict[str, int]


def fig3_interapp_example() -> Fig3Result:
    """Reproduce Fig. 3: conflicting demands for hot blocks D1, D2.

    Both apps run two single-task jobs needing D1 and D2, stored only on
    W1/W2 (executors E1/E2).  A naive fair manager may give A3 both hot
    executors (two local jobs, A4 zero); Algorithm 1 equalises at one each.
    """

    def demand(app_id: str) -> AppDemand:
        return AppDemand(
            app_id=app_id,
            jobs=(
                JobDemand(f"{app_id}-J1", (TaskDemand.of(f"{app_id}-T1", ["E1"]),)),
                JobDemand(f"{app_id}-J2", (TaskDemand.of(f"{app_id}-T2", ["E2"]),)),
            ),
            quota=2,
        )

    apps = [demand("A3"), demand("A4")]
    executors = ["E1", "E2", "E3", "E4"]

    # Naive fairness counts executors only: {E1,E2}->A3, {E3,E4}->A4 is
    # "fair" (2 each) yet gives A4 nothing local.
    naive = {"A3": 2, "A4": 0}

    plan = two_level_allocate(apps, executors, fill=True)
    locality = {}
    for app in apps:
        owned = set(plan.executors_of(app.app_id))
        locality[app.app_id] = sum(
            1
            for job in app.jobs
            if all(task.candidates & owned for task in job.tasks)
        )
    return Fig3Result(naive_fair=naive, locality_fair=locality)


# ------------------------------------------------------------------- Fig. 4/5
@dataclass(frozen=True)
class Fig45Result:
    """Average and per-job completion times under both intra-app strategies."""

    fairness_avg: float
    priority_avg: float
    fairness_jcts: Tuple[float, ...]
    priority_jcts: Tuple[float, ...]


class _FixedPlacement(PlacementPolicy):
    """Places block k of the single file on worker k (Fig. 4's layout)."""

    def choose_nodes(self, block, count, node_ids, topology, rng) -> List[str]:
        return [node_ids[block.index % len(node_ids)]]


def _run_fig45(
    allocated: Sequence[int], timeline: bool = False
) -> Tuple[Tuple[float, ...], Optional[Timeline]]:
    """Simulate app A5 with executors on the given worker indices.

    Time units: CPU 0.5, remote transfer 1.0 + CPU 0.5 = 1.5, local read
    ~instant.  Achieved by a 1-"byte" block with 1 B/s NICs and an
    effectively infinite disk.  With ``timeline=True`` the full event trace
    is recorded and returned (golden-trace determinism fixtures).
    """
    sim = Simulation()
    trace = Timeline(clock=lambda: sim.now) if timeline else None
    tracer = Tracer(clock=lambda: sim.now, sinks=[trace]) if timeline else None
    fabric = NetworkFabric(sim, tracer=tracer)
    cluster = Cluster(
        ClusterConfig(
            num_nodes=4,
            cores_per_node=1,
            executors_per_node=1,
            executor_slots=1,
            disk_bandwidth=1e12,
            uplink=1.0,
            downlink=1.0,
            nodes_per_rack=4,
        ),
        fabric=fabric,
    )
    hdfs = HDFS(
        cluster,
        block_spec=BlockSpec(size=1.0, replication=1),
        placement=_FixedPlacement(),
    )
    entry = hdfs.ingest("/data/fig45", 4.0)  # 4 blocks -> D1..D4 on W1..W4

    app = Application("A5")
    driver = ApplicationDriver(
        sim, app, cluster, hdfs, fabric, DelayScheduler(wait=0.4), tracer=tracer
    )
    for idx in allocated:
        executor = cluster.executors[idx]
        executor.allocate("A5")
        driver.attach_executor(executor)

    def make_job(job_id: str, blocks) -> Job:
        tasks = [
            Task(
                f"{job_id}/t{i}",
                job_id=job_id,
                app_id="A5",
                stage_index=0,
                kind=TaskKind.INPUT,
                cpu_time=0.5,
                block=block,
            )
            for i, block in enumerate(blocks)
        ]
        return Job(job_id, "A5", [Stage(0, tasks)])

    job1 = make_job("J1", entry.blocks[0:2])
    job2 = make_job("J2", entry.blocks[2:4])
    sim.schedule_at(0.0, driver.submit_job, job1)
    sim.schedule_at(0.0, driver.submit_job, job2)
    sim.run()
    assert job1.completion_time is not None and job2.completion_time is not None
    return (job1.completion_time, job2.completion_time), trace


def fig45_intraapp_example() -> Fig45Result:
    """Reproduce Fig. 5's completion-time comparison.

    Fairness-based allocation {E1, E3} serves one task of each job locally:
    both jobs finish at 2.0 time units.  Priority allocation {E1, E2} makes
    job 1 perfectly local (0.5) without slowing job 2 (2.0): average 1.25.
    """
    fairness, _ = _run_fig45([0, 2])  # E1, E3
    priority, _ = _run_fig45([0, 1])  # E1, E2
    return Fig45Result(
        fairness_avg=sum(fairness) / 2,
        priority_avg=sum(priority) / 2,
        fairness_jcts=fairness,
        priority_jcts=priority,
    )


def fig45_intraapp_trace() -> Dict[str, Any]:
    """Both Fig. 4/5 arms with their full event traces, JSON-serialisable.

    The golden-trace determinism fixture: any behavioural drift in the
    scheduler, fabric or rate allocation shows up as a record-level diff
    against ``tests/fixtures/golden_fig45_trace.json``.
    """
    arms: Dict[str, Any] = {}
    for name, allocated in (("fairness", [0, 2]), ("priority", [0, 1])):
        jcts, trace = _run_fig45(allocated, timeline=True)
        assert trace is not None
        arms[name] = {
            "allocated": list(allocated),
            "jcts": list(jcts),
            "records": [r.as_dict() for r in trace],
        }
    return arms


# --------------------------------------------------------------- chaos sweep
@dataclass(frozen=True)
class ChaosCell:
    """One (manager, fault level) measurement of the chaos sweep."""

    manager: str
    level: int
    locality: float  #: mean per-job input-locality fraction
    min_locality: float  #: worst application's local-job fraction
    avg_jct: Optional[float]
    unfinished_jobs: int
    tasks_requeued: int
    failed_attempts: int
    abandoned_tasks: int
    data_loss_tasks: int
    failed_launches: int
    recovery_flows: int
    recovery_bytes: float
    blacklist_events: int
    #: gray-failure robustness tallies (zero unless the mechanisms are on)
    detector_false_positives: int = 0
    detector_false_negatives: int = 0
    hedges_launched: int = 0
    hedges_won: int = 0
    retries_denied: int = 0
    breaker_opens: int = 0
    breakers_open_at_end: int = 0
    admission_deferred: int = 0
    load_shed: int = 0
    #: crash-recovery tallies (zero unless manager crashes were injected)
    manager_crashes: int = 0
    manager_recoveries: int = 0
    leases_readopted: int = 0
    leases_expired: int = 0
    zombies_reclaimed: int = 0
    zombies_surviving: int = 0
    submissions_buffered: int = 0
    recovery_tasks_requeued: int = 0


@dataclass
class ChaosSweepResult:
    """All cells of one sweep, plus the raw per-run results for inspection."""

    levels: Tuple[int, ...]
    managers: Tuple[str, ...]
    cells: List[ChaosCell] = field(default_factory=list)
    #: (manager, level) -> the full :class:`ExperimentResult`
    results: Dict[Tuple[str, int], Any] = field(default_factory=dict)

    def cell(self, manager: str, level: int) -> ChaosCell:
        """The cell for one (manager, level) pair."""
        for c in self.cells:
            if c.manager == manager and c.level == level:
                return c
        raise KeyError((manager, level))


def chaos_sweep(
    base_config,
    *,
    levels: Sequence[int] = (0, 1, 2),
    managers: Sequence[str] = ("custody", "standalone", "yarn", "mesos"),
    horizon: float = 300.0,
    gray: bool = False,
    manager_crash: bool = False,
) -> ChaosSweepResult:
    """Replay one seeded fault plan per level against every manager.

    Fault level ``L`` injects ``L`` of each fault kind (node failure,
    network partition, link degradation, executor failure, CPU slowdown)
    drawn from a generator seeded by ``(base_config.seed, level)`` — so a
    level's plan is identical across managers (common-trace methodology)
    and across repeat invocations.  Level 0 is the fault-free baseline.

    ``gray=True`` adds the gray-failure kinds on top: ``L`` link flaps per
    level, plus one correlated rack failure from level 2 up.  The gray
    draws happen after the classic ones, so a gray plan at level ``L``
    *extends* the classic plan for the same seed rather than reshuffling
    it.

    ``manager_crash=True`` additionally takes the control plane down ``L``
    times per level (drawn last, after every other kind, so it too only
    extends the plan) — the base config must have ``manager_recovery`` on.

    ``base_config.manager`` is ignored; ``detector_timeout`` decides
    whether managers see the heartbeat-delayed view or ground truth.
    """
    from repro.experiments.runner import run_experiment
    from repro.faults.chaos import build_chaos_plan

    sweep = ChaosSweepResult(levels=tuple(levels), managers=tuple(managers))
    for level in sweep.levels:
        plan = None
        if level > 0:
            rng = np.random.default_rng([base_config.seed, 7919, level])
            plan = build_chaos_plan(
                base_config.num_nodes,
                base_config.executors_per_node,
                rng,
                node_failures=level,
                partitions=level,
                degradations=level,
                executor_failures=level,
                slowdowns=level,
                link_flaps=level if gray else 0,
                correlated_failures=(1 if gray and level >= 2 else 0),
                manager_crashes=level if manager_crash else 0,
                horizon=horizon,
            )
        for manager in sweep.managers:
            result = run_experiment(
                base_config.with_manager(manager), fault_plan=plan
            )
            faults = result.faults
            sweep.results[(manager, level)] = result
            sweep.cells.append(
                ChaosCell(
                    manager=manager,
                    level=level,
                    locality=result.metrics.locality_mean,
                    min_locality=result.metrics.min_local_job_fraction,
                    avg_jct=result.metrics.avg_jct,
                    unfinished_jobs=result.metrics.unfinished_jobs,
                    tasks_requeued=faults.tasks_requeued if faults else 0,
                    failed_attempts=faults.failed_attempts if faults else 0,
                    abandoned_tasks=faults.abandoned_tasks if faults else 0,
                    data_loss_tasks=faults.data_loss_tasks if faults else 0,
                    failed_launches=faults.failed_launches if faults else 0,
                    recovery_flows=faults.recovery_flows if faults else 0,
                    recovery_bytes=faults.recovery_bytes if faults else 0.0,
                    blacklist_events=faults.blacklist_events if faults else 0,
                    detector_false_positives=(
                        faults.detector_false_positives if faults else 0
                    ),
                    detector_false_negatives=(
                        faults.detector_false_negatives if faults else 0
                    ),
                    hedges_launched=faults.hedges_launched if faults else 0,
                    hedges_won=faults.hedges_won if faults else 0,
                    retries_denied=faults.retries_denied if faults else 0,
                    breaker_opens=faults.breaker_opens if faults else 0,
                    breakers_open_at_end=(
                        faults.breakers_open_at_end if faults else 0
                    ),
                    admission_deferred=faults.admission_deferred if faults else 0,
                    load_shed=faults.load_shed if faults else 0,
                    manager_crashes=faults.manager_crashes if faults else 0,
                    manager_recoveries=(
                        faults.manager_recoveries if faults else 0
                    ),
                    leases_readopted=faults.leases_readopted if faults else 0,
                    leases_expired=faults.leases_expired if faults else 0,
                    zombies_reclaimed=faults.zombies_reclaimed if faults else 0,
                    zombies_surviving=faults.zombies_surviving if faults else 0,
                    submissions_buffered=(
                        faults.submissions_buffered if faults else 0
                    ),
                    recovery_tasks_requeued=(
                        faults.recovery_tasks_requeued if faults else 0
                    ),
                )
            )
    return sweep
