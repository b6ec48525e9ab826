"""Driver robustness: breakers on the launch path, budgets, jitter, hedges."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.units import BlockSpec
from repro.hdfs.filesystem import HDFS
from repro.hdfs.placement import PlacementPolicy
from repro.network.fabric import NetworkFabric
from repro.obs.tracer import Tracer
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.policies import FifoScheduler
from repro.scheduling.robustness import CLOSED, OPEN
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind

pytestmark = [pytest.mark.faults, pytest.mark.robustness]


class OneBlockPerNode(PlacementPolicy):
    """Block k lives only on worker k — fully controlled locality."""

    def choose_nodes(self, block, count, node_ids, topology, rng):
        return [node_ids[block.index % len(node_ids)]]


class Harness:
    """Four 1-executor workers with 1 B/s NICs, tunable robustness knobs."""

    def __init__(self, **driver_kwargs):
        self.sim = Simulation()
        self.fabric = NetworkFabric(self.sim)
        self.cluster = Cluster(
            ClusterConfig(
                num_nodes=4,
                cores_per_node=2,
                executors_per_node=1,
                executor_slots=1,
                disk_bandwidth=1e12,
                uplink=1.0,
                downlink=1.0,
                nodes_per_rack=4,
            ),
            fabric=self.fabric,
        )
        self.hdfs = HDFS(
            self.cluster,
            block_spec=BlockSpec(size=1.0, replication=1),
            placement=OneBlockPerNode(),
        )
        self.entry = self.hdfs.ingest("/data/f", 4.0)
        self.app = Application("app-0")
        self.timeline = Timeline(clock=lambda: self.sim.now)
        tracer = Tracer(clock=lambda: self.sim.now, sinks=[self.timeline])
        self.driver = ApplicationDriver(
            self.sim,
            self.app,
            self.cluster,
            self.hdfs,
            self.fabric,
            FifoScheduler(),
            tracer=tracer,
            **driver_kwargs,
        )

    def give_executor(self, index):
        executor = self.cluster.executors[index]
        executor.allocate(self.app.app_id)
        self.driver.attach_executor(executor)
        return executor

    def input_job(self, job_id, block_indices, cpu=0.5):
        tasks = [
            Task(
                f"{job_id}/t{i}", job_id=job_id, app_id="app-0", stage_index=0,
                kind=TaskKind.INPUT, cpu_time=c if isinstance(cpu, list) else cpu,
                block=self.entry.blocks[b],
            )
            for i, (b, c) in enumerate(
                zip(block_indices, cpu if isinstance(cpu, list) else [cpu] * len(block_indices))
            )
        ]
        return Job(job_id, "app-0", [Stage(0, tasks)])


class TestBreakerOnLaunchPath:
    def test_breaker_subsumes_blacklist(self):
        h = Harness(circuit_breaker=True, blacklist_threshold=2,
                    blacklist_window=60.0, blacklist_timeout=10.0)
        job = h.input_job("J", [0, 1])
        t0, t1 = job.stages[0].tasks
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        h.driver._handle_task_failure(t0, "worker-002", "test")
        assert not h.driver._blacklisted("worker-002")
        h.driver._handle_task_failure(t1, "worker-002", "test")
        # The breaker answers the exclusion question the blacklist used to.
        assert h.driver._blacklisted("worker-002")
        assert h.driver.breakers.breaker("worker-002").state == OPEN
        # Opens feed the legacy counter so exclusion metrics stay comparable.
        assert h.driver.blacklist_events == 1
        assert not h.driver._blacklist  # the timed map itself stays unused
        # Past cooldown an OPEN breaker stops excluding: the next launch
        # would be its half-open probe.
        h.sim.run(until=15.0)
        assert not h.driver._blacklisted("worker-002")

    def test_transitions_hit_the_timeline(self):
        h = Harness(circuit_breaker=True, blacklist_threshold=1,
                    blacklist_timeout=5.0)
        h.driver._note_node_failure("worker-002")
        records = list(h.timeline.of_kind("node.breaker"))
        assert records and records[0].subject == "worker-002"
        assert records[0].get("state") == OPEN

    def test_probe_launch_closes_breaker_end_to_end(self):
        # Mirrors the legacy blacklist-expiry test: the node's only executor
        # is excluded, the cooldown elapses, the probe launch succeeds and
        # the breaker re-closes.
        h = Harness(circuit_breaker=True, blacklist_threshold=1,
                    blacklist_timeout=5.0)
        executor = h.give_executor(3)
        h.driver._note_node_failure(executor.node_id)
        job = h.input_job("J", [0])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=1.0)
        assert task.started_at is None  # breaker OPEN: nothing eligible
        h.sim.run()
        assert job.finished
        breaker = h.driver.breakers.breaker(executor.node_id)
        assert breaker.state == CLOSED
        assert breaker.probes == 1
        assert breaker.closes == 1


class TestRetryBudget:
    def test_exhausted_budget_abandons_instead_of_retrying(self):
        h = Harness(retry_budget=1, retry_backoff=0.0, max_task_attempts=10)
        job = h.input_job("J", [0, 1])
        t0 = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        assert h.driver._handle_task_failure(t0, "worker-001", "test")
        h.driver._runnable.remove(t0)
        assert not h.driver._handle_task_failure(t0, "worker-001", "test")
        assert t0.cancelled
        assert h.driver.retries_denied == 1
        abandons = list(h.timeline.of_kind("task.abandon"))
        assert abandons and abandons[0].get("reason") == "retry-budget-exhausted"

    def test_budget_is_per_job(self):
        h = Harness(retry_budget=1, retry_backoff=0.0)
        j1 = h.input_job("J1", [0])
        j2 = h.input_job("J2", [1])
        h.driver.submit_job(j1)
        h.driver.submit_job(j2)
        h.sim.run(until=0.01)
        # Each job owns its bucket: both first retries are admitted.
        assert h.driver._handle_task_failure(j1.stages[0].tasks[0], "worker-002", "t")
        assert h.driver._handle_task_failure(j2.stages[0].tasks[0], "worker-002", "t")
        assert h.driver.retries_denied == 0

    def test_refill_restores_retry_capacity(self):
        h = Harness(retry_budget=1, retry_refill=0.5, retry_backoff=0.0)
        job = h.input_job("J", [0, 1])
        t0, t1 = job.stages[0].tasks
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        h.driver._handle_task_failure(t0, "worker-002", "test")  # drains the token
        h.sim.run(until=2.5)  # 2.5 s x 0.5/s refills one token
        h.driver._handle_task_failure(t1, "worker-002", "test")
        assert h.driver.retries_denied == 0
        assert not t1.cancelled


class TestRetryJitter:
    def test_backoff_draws_full_jitter(self):
        rng = np.random.default_rng(7)
        expected = float(np.random.default_rng(7).uniform(0.0, 4.0))
        assert 0.0 < expected < 4.0
        h = Harness(retry_backoff=4.0, retry_jitter_rng=rng)
        job = h.input_job("J", [0])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        h.driver._handle_task_failure(task, "worker-001", "test")
        h.driver._runnable.remove(task)
        h.driver._handle_task_failure(task, "worker-001", "test")
        # The requeue lands at the jittered delay, not the deterministic cap.
        h.sim.run(until=0.01 + expected - 1e-6)
        assert task not in h.driver.runnable_tasks
        h.sim.run(until=0.01 + expected + 1e-6)
        assert task in h.driver.runnable_tasks


class TestHedging:
    def _slow_tail_setup(self):
        """Three short finished tasks then one long straggler on worker-000."""
        h = Harness(hedging=True, circuit_breaker=True, blacklist_threshold=3,
                    blacklist_window=60.0, blacklist_timeout=30.0,
                    hedge_quantile=0.95, hedge_multiplier=1.5)
        h.give_executor(0)
        job = h.input_job("J", [0, 0, 0, 0], cpu=[0.5, 0.5, 0.5, 50.0])
        h.driver.submit_job(job)
        # t0-t2 run back to back (local, 0.5 s each); t3 starts at 1.5 s.
        h.sim.run(until=3.0)
        straggler = job.stages[0].tasks[3]
        assert straggler.started_at is not None and not straggler.finished
        return h, job, straggler

    def _trip(self, h, node_id):
        for _ in range(3):
            h.driver._note_node_failure(node_id)
        assert h.driver.breakers.breaker(node_id).state == OPEN

    def test_hedge_backs_up_straggler_on_suspected_node(self):
        h, job, straggler = self._slow_tail_setup()
        self._trip(h, "worker-000")
        h.give_executor(3)  # free slot on a healthy node → hedge fires
        h.sim.run(until=3.5)
        assert h.driver.hedges_launched == 1
        records = list(h.timeline.of_kind("task.hedge"))
        assert records and records[0].subject == straggler.task_id
        assert records[0].get("primary") == "worker-000"
        assert records[0].get("hedge") == "worker-003"  # never the same node

    def test_hedge_wins_when_primary_dies(self):
        h, job, straggler = self._slow_tail_setup()
        self._trip(h, "worker-000")
        h.give_executor(3)
        h.sim.run(until=3.5)
        assert h.driver.hedges_launched == 1
        executor = h.cluster.executors[0]
        executor.healthy = False
        h.driver.on_executor_failure(executor)
        h.sim.run()
        assert job.finished
        assert h.driver.hedges_won == 1
        assert h.driver.hedges_lost == 0

    def test_primary_win_kills_the_hedge(self):
        h, job, straggler = self._slow_tail_setup()
        self._trip(h, "worker-000")
        h.give_executor(3)
        h.sim.run()
        # Primary started 1.5 s earlier and the hedge pays a remote read:
        # the original attempt finishes first and the backup is discarded.
        assert job.finished
        assert h.driver.hedges_launched == 1
        assert h.driver.hedges_lost == 1
        assert h.driver.hedges_won == 0

    def test_no_hedge_without_suspicion(self):
        h, job, straggler = self._slow_tail_setup()
        h.give_executor(3)  # healthy primary: a free slot alone is not enough
        h.sim.run()
        assert job.finished
        assert h.driver.hedges_launched == 0
