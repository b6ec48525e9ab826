"""Kill and failure at every wait state of a task attempt.

A task attempt is a callback state machine: it waits on its launch hop, a
local-read timer, a remote fetch, a shuffle's sources or its CPU timer.
Killing it in any of those states must free its slot before
``_kill_attempt`` returns, leave no transfer in flight and no event queued,
and nothing may happen on its executor afterwards.  A failed shuffle fetch
must release the attempt the same way.  Re-replication copies are the other
callback waiters on a transfer: a failed one is re-queued and gives its
parallelism slot back.
"""

from unittest import mock

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.units import BlockSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeFailure
from repro.hdfs.filesystem import HDFS
from repro.network.fabric import NetworkFabric
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.policies import DelayScheduler
from repro.simulation.engine import Simulation
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind
from tests.scheduling.test_driver import OneBlockPerNode

CPU = 0.5


class World:
    """Four workers (one 1-slot executor each), 4 B/s disks, 1 B/s NICs.

    Block k (1 B) lives only on worker k, so a local block read takes
    0.25 s and a remote one 1 s.  No manager: nothing but the driver and
    its attempts schedules events.
    """

    def __init__(self, fanout: int = 1):
        self.sim = Simulation()
        self.fabric = NetworkFabric(self.sim)
        self.cluster = Cluster(
            ClusterConfig(
                num_nodes=4,
                cores_per_node=2,
                executors_per_node=1,
                executor_slots=1,
                disk_bandwidth=4.0,
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
        self.driver = ApplicationDriver(
            self.sim, self.app, self.cluster, self.hdfs, self.fabric,
            DelayScheduler(wait=0.0), shuffle_fanout=fanout,
        )

    def give(self, *indices):
        for index in indices:
            executor = self.cluster.executors[index]
            executor.allocate(self.app.app_id)
            self.driver.attach_executor(executor)

    def input_tasks(self, job_id, blocks):
        return [
            Task(
                f"{job_id}/t{i}", job_id=job_id, app_id="app-0", stage_index=0,
                kind=TaskKind.INPUT, cpu_time=CPU, block=self.entry.blocks[b],
            )
            for i, b in enumerate(blocks)
        ]

    def input_job(self, blocks):
        return Job("j", "app-0", [Stage(0, self.input_tasks("j", blocks))])

    def shuffle_job(self, blocks, shuffle_bytes=2.0):
        reduces = [
            Task(
                f"j/s1/t{i}", job_id="j", app_id="app-0", stage_index=1,
                kind=TaskKind.SHUFFLE, cpu_time=CPU, shuffle_bytes=shuffle_bytes,
            )
            for i in range(len(blocks))
        ]
        return Job("j", "app-0", [Stage(0, self.input_tasks("j", blocks)), Stage(1, reduces)])

    def attempt(self, task):
        return self.driver._attempts[task.task_id][-1]

    def step_until(self, condition):
        while not condition():
            assert self.sim.step(), "ran out of events"

    def queued_for(self, attempt):
        """Live events whose callback belongs to ``attempt``."""
        return [
            handle
            for _, _, handle in self.sim._queue
            if handle.pending and getattr(handle.callback, "__self__", None) is attempt
        ]


def kill_and_check(world, task, *, pre_pending):
    """Kill ``task``'s attempt now; check what every wait state must leave."""
    attempt = world.attempt(task)
    executor = attempt.executor
    driver = world.driver
    driver._kill_attempt(attempt)
    assert task.task_id not in executor.running_tasks
    assert executor.free_slots == executor.slots
    assert world.fabric.active_transfers == 0
    assert attempt.transfers == []
    assert world.queued_for(attempt) == []
    # Let the instant settle (the fabric re-rates cancelled flows at its end).
    world.sim.run(until=world.sim.now)
    assert world.sim.pending_events == pre_pending
    with mock.patch.object(
        driver, "_finish_attempt", wraps=driver._finish_attempt
    ) as finish, mock.patch.object(
        driver, "_fail_attempt", wraps=driver._fail_attempt
    ) as fail, mock.patch.object(
        executor, "start_task", wraps=executor.start_task
    ) as start:
        world.sim.run()
    assert finish.call_count == fail.call_count == start.call_count == 0
    assert task.finished_at is None
    assert driver.failed_attempts == 0


def test_kill_before_start_never_runs_the_body():
    world = World()
    world.give(1)
    job = world.input_job([0])  # remote: the body would start a transfer
    task = job.input_tasks[0]
    pre = world.sim.pending_events
    world.driver.submit_job(job)
    world.step_until(lambda: task.task_id in world.driver._attempts)
    assert world.sim.now == 0.0 and world.fabric.active_transfers == 0
    processed = world.sim.events_processed
    kill_and_check(world, task, pre_pending=pre)
    # The launch hop was cancelled, not fired as a no-op.
    assert world.sim.events_processed == processed


def test_kill_during_local_read():
    world = World()
    world.give(0)
    job = world.input_job([0])
    pre = world.sim.pending_events
    world.driver.submit_job(job)
    world.sim.run(until=0.1)
    kill_and_check(world, job.input_tasks[0], pre_pending=pre)


def test_kill_during_remote_fetch():
    world = World()
    world.give(0)
    job = world.input_job([1])
    pre = world.sim.pending_events
    world.driver.submit_job(job)
    world.sim.run(until=0.5)
    assert world.fabric.active_transfers == 1
    kill_and_check(world, job.input_tasks[0], pre_pending=pre)


def test_kill_during_cpu():
    world = World()
    world.give(0)
    job = world.input_job([0])
    pre = world.sim.pending_events
    world.driver.submit_job(job)
    world.sim.run(until=0.5)  # read done at 0.25, CPU until 0.75
    kill_and_check(world, job.input_tasks[0], pre_pending=pre)


def shuffle_world():
    """Maps on workers 0 and 1 finish at 0.75; each reduce then reads 1 B
    locally (0.25 s) and 1 B from the other worker (1 s)."""
    world = World(fanout=2)
    world.give(0, 1)
    job = world.shuffle_job([0, 1])
    world.driver.submit_job(job)
    reduces = job.stages[1].tasks
    world.step_until(lambda: all(t.task_id in world.driver._attempts for t in reduces))
    world.sim.run(until=0.9)
    assert world.fabric.active_transfers == 2
    return world, reduces


@pytest.mark.parametrize("at", [0.9, 1.2], ids=["both-sources", "remote-only"])
def test_kill_during_shuffle_with_local_and_remote_source(at):
    world, reduces = shuffle_world()
    world.sim.run(until=at)
    # Kill both reduces (each holds a local timer and a remote fetch until
    # 1.0, then only the fetch); the second kill checks the empty world.
    first = world.attempt(reduces[0])
    world.driver._kill_attempt(first)
    assert world.queued_for(first) == []
    assert world.fabric.active_transfers == 1
    kill_and_check(world, reduces[1], pre_pending=0)


def local_read_timers(world):
    """Pending events at 1.0, when the reduces' local shares are read."""
    return [
        handle
        for time, _, handle in world.sim._queue
        if handle.pending and time == pytest.approx(1.0)
    ]


def test_failed_shuffle_fetch_releases_the_attempt_in_its_event():
    world, reduces = shuffle_world()
    attempt = world.attempt(reduces[0])
    executor = attempt.executor
    (transfer,) = attempt.transfers
    world.fabric.fail_transfer(transfer, "aborted")
    # The failure reaches the attempt through the signal's hop event.
    assert reduces[0].task_id in executor.running_tasks
    assert len(local_read_timers(world)) == 2  # one per reduce, due at 1.0
    with mock.patch.object(
        executor, "finish_task", wraps=executor.finish_task
    ) as freed:
        world.sim.step()
    assert freed.call_count == 1
    assert world.driver.failed_attempts == 1
    assert attempt.transfers == []
    # No local-read timer is left behind to fire as a no-op.
    assert world.queued_for(attempt) == []
    assert len(local_read_timers(world)) == 1
    world.sim.run()
    assert all(t.finished_at is not None for t in reduces)
    assert world.fabric.active_transfers == 0


def test_failed_recovery_copy_is_requeued_and_frees_its_slot():
    plan = FaultPlan([NodeFailure(at=1.0, node_id="worker-000", restart_delay=200.0)])
    sim = Simulation()
    fabric = NetworkFabric(sim)
    cluster = Cluster(ClusterConfig(num_nodes=3, uplink=1.0, downlink=1.0), fabric=fabric)
    hdfs = HDFS(cluster, block_spec=BlockSpec(size=1.0, replication=2))
    hdfs.ingest("/data/f", 4.0)
    injector = FaultInjector(sim, cluster, hdfs, plan, fabric=fabric)
    sim.run(until=1.5)
    assert injector._rr_active > 0
    flows = injector.recovery_flows
    (transfer, *_) = list(fabric._active.values())
    fabric.fail_transfer(transfer, "aborted")
    with mock.patch.object(
        injector, "_rr_retry", wraps=injector._rr_retry
    ) as retry:
        sim.run(until=sim.now)
    assert retry.call_count == 1
    assert retry.call_args.args[3] == "transfer-failed"
    sim.run()
    assert injector._rr_active == 0
    assert injector.recovery_flows > flows  # the re-queued copy ran again
    assert injector.replicas_restored == injector.replicas_lost
