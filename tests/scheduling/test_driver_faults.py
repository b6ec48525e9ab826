"""Driver failure handling: retry/backoff, blacklisting, transfer cleanup."""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.units import BlockSpec
from repro.hdfs.filesystem import HDFS
from repro.hdfs.placement import PlacementPolicy
from repro.network.fabric import NetworkFabric
from repro.obs.tracer import Tracer
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.policies import FifoScheduler
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind

pytestmark = pytest.mark.faults


class OneBlockPerNode(PlacementPolicy):
    """Block k lives only on worker k — fully controlled locality."""

    def choose_nodes(self, block, count, node_ids, topology, rng):
        return [node_ids[block.index % len(node_ids)]]


class Harness:
    """Four 1-executor workers with 1 B/s NICs, tunable retry knobs."""

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
                kind=TaskKind.INPUT, cpu_time=cpu, block=self.entry.blocks[b],
            )
            for i, b in enumerate(block_indices)
        ]
        return Job(job_id, "app-0", [Stage(0, tasks)])


class TestKnobValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_task_attempts=0),
            dict(retry_backoff=-1.0),
            dict(blacklist_threshold=0),
            dict(blacklist_window=0.0),
            dict(blacklist_timeout=-5.0),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Harness(**kwargs)


class TestRetryBackoff:
    def test_first_failure_requeues_synchronously(self):
        h = Harness()
        job = h.input_job("J", [0])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        assert h.driver._handle_task_failure(task, "worker-001", "test")
        assert task in h.driver.runnable_tasks

    def test_second_failure_backs_off_exponentially(self):
        h = Harness(retry_backoff=2.0)
        job = h.input_job("J", [0])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        h.driver._handle_task_failure(task, "worker-001", "test")
        h.driver._runnable.remove(task)
        # Second failure: requeue only after retry_backoff * 2^0 = 2 s.
        assert not h.driver._handle_task_failure(task, "worker-001", "test")
        assert task not in h.driver.runnable_tasks
        h.sim.run(until=h.sim.now + 1.9)
        assert task not in h.driver.runnable_tasks
        h.sim.run(until=h.sim.now + 0.2)
        assert task in h.driver.runnable_tasks

    def test_attempts_exhausted_abandons_task(self):
        h = Harness(max_task_attempts=2, retry_backoff=0.0)
        job = h.input_job("J", [0, 1])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        h.driver._handle_task_failure(task, "worker-001", "test")
        h.driver._runnable.remove(task)
        h.driver._handle_task_failure(task, "worker-001", "test")
        assert task.cancelled
        assert h.driver.abandoned_tasks == 1
        abandons = [r for r in h.timeline.of_kind("task.abandon")]
        assert abandons and abandons[0].get("reason") == "attempts-exhausted"

    def test_data_loss_abandons_immediately(self):
        h = Harness()
        job = h.input_job("J", [0])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        # Wipe the only replica of block 0.
        block_id = task.block.block_id
        self_node = "worker-000"
        h.hdfs.datanodes[self_node].evict(block_id)
        h.hdfs.namenode.remove_replica(block_id, self_node)
        assert not h.driver._handle_task_failure(task, self_node, "executor-lost")
        assert task.cancelled
        assert h.driver.data_loss_tasks == 1

    def test_abandoned_stage_still_completes_job(self):
        h = Harness(max_task_attempts=1)
        h.give_executor(1)  # remote executor only
        job = h.input_job("J", [0, 1])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        # First failure with a budget of 1 abandons outright; the stage
        # barrier still falls when the surviving task finishes.
        h.driver._handle_task_failure(task, "worker-003", "test")
        assert task.cancelled
        h.sim.run()
        assert job.finished


class TestBlacklist:
    def test_threshold_blacklists_node(self):
        h = Harness(blacklist_threshold=2, blacklist_window=60.0,
                    blacklist_timeout=30.0)
        job = h.input_job("J", [0, 1])
        t0, t1 = job.stages[0].tasks
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        h.driver._handle_task_failure(t0, "worker-002", "test")
        assert not h.driver._blacklisted("worker-002")
        h.driver._handle_task_failure(t1, "worker-002", "test")
        assert h.driver._blacklisted("worker-002")
        assert h.driver.blacklist_events == 1
        records = [r for r in h.timeline.of_kind("node.blacklist")]
        assert records and records[0].subject == "worker-002"

    def test_blacklist_expires(self):
        h = Harness(blacklist_threshold=1, blacklist_timeout=10.0)
        job = h.input_job("J", [0, 1])
        task = job.stages[0].tasks[0]
        h.driver.submit_job(job)
        h.sim.run(until=0.01)
        h.driver._handle_task_failure(task, "worker-002", "test")
        assert h.driver._blacklisted("worker-002")
        h.sim.run(until=15.0)
        assert not h.driver._blacklisted("worker-002")

    def test_dispatch_skips_blacklisted_executor(self):
        h = Harness(blacklist_threshold=1, blacklist_timeout=5.0)
        executor = h.give_executor(3)
        job = h.input_job("J", [0])
        task = job.stages[0].tasks[0]
        # Blacklist the only executor's node before submitting.
        h.driver._note_node_failure(executor.node_id)
        h.driver.submit_job(job)
        h.sim.run(until=1.0)
        assert task.started_at is None  # nothing eligible
        h.sim.run()
        assert job.finished  # picked up after the blacklist decayed


class TestTransferCleanup:
    def test_executor_failure_aborts_active_transfers(self):
        # Remote read in flight (1 B/s → 1 s): killing the executor must
        # free the fabric bandwidth immediately.
        h = Harness()
        executor = h.give_executor(3)
        h.driver.submit_job(h.input_job("J", [0]))  # block 0 on worker-000
        h.sim.run(until=0.5)
        assert h.fabric.active_transfers == 1
        executor.healthy = False
        requeued = h.driver.on_executor_failure(executor)
        assert requeued == 1
        assert h.fabric.active_transfers == 0

    def test_same_instant_start_and_kill(self):
        # The attempt process may not have run yet when the executor dies;
        # the kill sweep must still leave no dangling transfers or tasks.
        h = Harness()
        executor = h.give_executor(3)
        h.driver.submit_job(h.input_job("J", [0]))
        executor.healthy = False
        h.driver.on_executor_failure(executor)
        assert h.fabric.active_transfers == 0
        assert not executor.running_tasks
        h.sim.run(until=5.0)
        assert h.fabric.active_transfers == 0
