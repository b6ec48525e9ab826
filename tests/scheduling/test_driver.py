"""ApplicationDriver: dispatch, execution, stage barriers, executor churn."""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.errors import AllocationError
from repro.common.units import BlockSpec
from repro.hdfs.filesystem import HDFS
from repro.hdfs.placement import PlacementPolicy
from repro.network.fabric import NetworkFabric
from repro.obs.tracer import Tracer
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.policies import DelayScheduler, FifoScheduler
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind


class OneBlockPerNode(PlacementPolicy):
    """Block k lives only on worker k — fully controlled locality."""

    def choose_nodes(self, block, count, node_ids, topology, rng):
        return [node_ids[block.index % len(node_ids)]]


class Harness:
    """Four 1-executor workers with 1 B/s NICs and instant disks."""

    def __init__(self, slots=1):
        self.sim = Simulation()
        self.fabric = NetworkFabric(self.sim)
        self.cluster = Cluster(
            ClusterConfig(
                num_nodes=4,
                cores_per_node=max(2, slots),
                executors_per_node=1,
                executor_slots=slots,
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
        self.entry = self.hdfs.ingest("/data/f", 4.0)  # blocks 0..3 on workers 0..3
        self.app = Application("app-0")
        self.timeline = Timeline(clock=lambda: self.sim.now)
        tracer = Tracer(clock=lambda: self.sim.now, sinks=[self.timeline])
        self.driver = ApplicationDriver(
            self.sim,
            self.app,
            self.cluster,
            self.hdfs,
            self.fabric,
            DelayScheduler(wait=0.4),
            tracer=tracer,
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

    def two_stage_job(self, job_id, block_indices, shuffle_bytes=1.0, cpu=0.5):
        job = self.input_job(job_id, block_indices, cpu=cpu)
        shuffles = [
            Task(
                f"{job_id}/s1/t{i}", job_id=job_id, app_id="app-0", stage_index=1,
                kind=TaskKind.SHUFFLE, cpu_time=cpu, shuffle_bytes=shuffle_bytes,
            )
            for i in range(2)
        ]
        return Job(job_id, "app-0", job.stages + [Stage(1, shuffles)])


class TestBasicExecution:
    def test_local_task_reads_from_disk(self):
        h = Harness()
        h.give_executor(0)
        job = h.input_job("j", [0])
        h.driver.submit_job(job)
        h.sim.run()
        task = job.input_tasks[0]
        assert task.was_local is True
        assert task.finished_at == pytest.approx(0.5, abs=1e-6)
        assert job.completion_time == pytest.approx(0.5, abs=1e-6)

    def test_remote_task_fetches_over_network(self):
        h = Harness()
        h.give_executor(0)
        job = h.input_job("j", [1])  # block on worker 1, executor on worker 0
        h.driver.submit_job(job)
        h.sim.run()
        task = job.input_tasks[0]
        assert task.was_local is False
        # 0.4 s locality wait + 1.0 s transfer + 0.5 s cpu
        assert task.finished_at == pytest.approx(1.9, abs=1e-6)
        assert task.read_time == pytest.approx(1.0, abs=1e-6)

    def test_scheduler_delay_recorded(self):
        h = Harness()
        h.give_executor(0)
        job = h.input_job("j", [1])
        h.driver.submit_job(job)
        h.sim.run()
        assert job.input_tasks[0].scheduler_delay == pytest.approx(0.4, abs=1e-6)

    def test_multislot_executor_runs_tasks_concurrently(self):
        h = Harness(slots=2)
        h.give_executor(0)
        job = h.input_job("j", [0, 0])  # both tasks local on worker 0
        h.driver.submit_job(job)
        h.sim.run()
        assert job.completion_time == pytest.approx(0.5, abs=1e-6)

    def test_single_slot_serialises_tasks(self):
        h = Harness(slots=1)
        h.give_executor(0)
        job = h.input_job("j", [0, 0])
        h.driver.submit_job(job)
        h.sim.run()
        assert job.completion_time == pytest.approx(1.0, abs=1e-6)


class TestStageBarriers:
    def test_shuffle_stage_starts_after_input_barrier(self):
        h = Harness()
        h.give_executor(0)
        h.give_executor(1)
        job = h.two_stage_job("j", [0, 1], shuffle_bytes=0.0)
        h.driver.submit_job(job)
        h.sim.run()
        input_finish = max(t.finished_at for t in job.stages[0].tasks)
        shuffle_start = min(t.started_at for t in job.stages[1].tasks)
        assert shuffle_start >= input_finish

    def test_job_finishes_after_last_stage(self):
        h = Harness()
        h.give_executor(0)
        h.give_executor(1)
        job = h.two_stage_job("j", [0, 1], shuffle_bytes=0.0)
        h.driver.submit_job(job)
        h.sim.run()
        assert job.finished
        assert job.finished_at == pytest.approx(
            max(t.finished_at for t in job.stages[1].tasks)
        )

    def test_shuffle_reads_cross_network_when_remote(self):
        h = Harness(slots=2)
        h.give_executor(0)  # both map tasks run here (local, 2 slots)
        h.give_executor(2)  # holds no map output
        job = h.two_stage_job("j", [0, 0], shuffle_bytes=1.0)
        h.driver.submit_job(job)
        h.sim.run()
        # Map output lives on worker 0 only; one reduce task lands on
        # worker 2 and must fetch over the network (1 B at 1 B/s = 1 s)
        # while the worker-0 reduce streams from local disk (~0 s).
        reads = sorted(t.read_time for t in job.stages[1].tasks)
        assert reads[0] == pytest.approx(0.0, abs=1e-6)
        assert reads[1] == pytest.approx(1.0, abs=1e-6)


class TestExecutorChurn:
    def test_attach_requires_ownership(self):
        h = Harness()
        executor = h.cluster.executors[0]
        with pytest.raises(AllocationError):
            h.driver.attach_executor(executor)

    def test_detach_busy_executor_rejected(self):
        h = Harness()
        executor = h.give_executor(0)
        job = h.input_job("j", [0], cpu=10.0)
        h.driver.submit_job(job)
        h.sim.run(until=1.0)
        with pytest.raises(AllocationError):
            h.driver.detach_executor(executor)

    def test_granting_mid_run_dispatches_waiting_tasks(self):
        h = Harness()
        h.give_executor(0)
        job = h.input_job("j", [0, 1])
        h.driver.submit_job(job)
        h.sim.schedule(0.1, lambda: h.give_executor(1))
        h.sim.run()
        t1 = job.input_tasks[1]
        assert t1.was_local is True  # picked up by the late local executor
        assert t1.node_id == "worker-001"

    def test_executor_count_and_nodes(self):
        h = Harness()
        h.give_executor(0)
        h.give_executor(2)
        assert h.driver.executor_count == 2
        assert h.driver.owned_nodes() == ["worker-000", "worker-002"]


class TestOfferInterface:
    def test_offer_accepted_for_local_task(self):
        h = Harness()
        job = h.input_job("j", [2])
        # No executors yet: submit queues the tasks.
        h.driver.submit_job(job)
        executor2 = h.cluster.executors[2]
        assert h.driver.consider_offer(executor2)

    def test_offer_rejected_for_nonlocal_node_within_wait(self):
        h = Harness()
        job = h.input_job("j", [2])
        h.driver.submit_job(job)
        executor0 = h.cluster.executors[0]
        assert not h.driver.consider_offer(executor0)

    def test_offer_rejected_without_work(self):
        h = Harness()
        assert not h.driver.consider_offer(h.cluster.executors[0])


class TestBookkeeping:
    def test_outstanding_tasks(self):
        h = Harness()
        job = h.input_job("j", [0, 1])
        h.driver.submit_job(job)
        assert h.driver.outstanding_tasks == 2

    def test_timeline_records_lifecycle(self):
        h = Harness()
        h.give_executor(0)
        h.driver.submit_job(h.input_job("j", [0]))
        h.sim.run()
        kinds = [r.kind for r in h.timeline]
        assert kinds == ["job.submit", "task.start", "task.finish", "job.finish"]

    def test_delay_wakeup_launches_task_without_new_events(self):
        h = Harness()
        h.give_executor(0)
        job = h.input_job("j", [3])  # never local on worker 0
        h.driver.submit_job(job)
        h.sim.run()
        assert job.finished  # wakeup timer released the task after 0.4 s
