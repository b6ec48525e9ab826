"""Task scheduling policies: delay, locality-first, FIFO."""

import pytest

from repro.hdfs.blocks import Block
from repro.hdfs.namenode import FileEntry, NameNode
from repro.scheduling.policies import (
    DelayScheduler,
    FifoScheduler,
    LocalityFirstScheduler,
)
from repro.workload.task import Task, TaskKind
from tests.scan_policies import queue_of


@pytest.fixture
def namenode():
    nn = NameNode()
    blocks = [Block(f"b-{i}", path="/f", index=i, size=1.0) for i in range(3)]
    nn.register_file(FileEntry(path="/f", size=3.0, blocks=blocks))
    nn.add_replica("b-0", "n0")
    nn.add_replica("b-1", "n1")
    nn.add_replica("b-2", "n0")
    nn.add_replica("b-2", "n2")
    return nn


def input_task(tid, block_index, submitted_at=0.0):
    t = Task(
        tid, job_id="j", app_id="a", stage_index=0, kind=TaskKind.INPUT,
        cpu_time=1.0,
        block=Block(f"b-{block_index}", path="/f", index=block_index, size=1.0),
    )
    t.submitted_at = submitted_at
    return t


def shuffle_task(tid, submitted_at=0.0):
    t = Task(
        tid, job_id="j", app_id="a", stage_index=1, kind=TaskKind.SHUFFLE,
        cpu_time=1.0, shuffle_bytes=1.0,
    )
    t.submitted_at = submitted_at
    return t


class TestDelayScheduler:
    def test_prefers_local_task(self, namenode):
        sched = DelayScheduler(wait=3.0)
        tasks = [input_task("t0", 1), input_task("t1", 0)]  # t1 local on n0
        assert sched.pick_task(queue_of(tasks, namenode), "n0", now=0.0) is tasks[1]

    def test_withholds_nonlocal_before_wait_expiry(self, namenode):
        sched = DelayScheduler(wait=3.0)
        tasks = [input_task("t0", 1)]  # local only on n1
        assert sched.pick_task(queue_of(tasks, namenode), "n0", now=1.0) is None

    def test_releases_nonlocal_after_wait(self, namenode):
        sched = DelayScheduler(wait=3.0)
        tasks = [input_task("t0", 1, submitted_at=0.0)]
        assert sched.pick_task(queue_of(tasks, namenode), "n0", now=3.0) is tasks[0]

    def test_local_beats_expired_nonlocal(self, namenode):
        sched = DelayScheduler(wait=1.0)
        expired = input_task("t0", 1, submitted_at=0.0)
        local = input_task("t1", 0, submitted_at=5.0)
        assert (
            sched.pick_task(queue_of([expired, local], namenode), "n0", now=10.0)
            is local
        )

    def test_shuffle_tasks_run_anywhere_immediately(self, namenode):
        sched = DelayScheduler(wait=3.0)
        tasks = [shuffle_task("t0")]
        assert sched.pick_task(queue_of(tasks, namenode), "n2", now=0.0) is tasks[0]

    def test_fifo_among_local_tasks(self, namenode):
        sched = DelayScheduler(wait=3.0)
        t_old = input_task("t0", 0, submitted_at=0.0)
        t_new = input_task("t1", 2, submitted_at=1.0)  # also local on n0
        assert (
            sched.pick_task(queue_of([t_old, t_new], namenode), "n0", now=2.0)
            is t_old
        )

    def test_next_wakeup_is_earliest_expiry(self, namenode):
        sched = DelayScheduler(wait=3.0)
        tasks = [
            input_task("t0", 1, submitted_at=0.0),
            input_task("t1", 1, submitted_at=2.0),
        ]
        assert sched.next_wakeup(queue_of(tasks, namenode), now=1.0) == pytest.approx(3.0)

    def test_next_wakeup_none_when_all_expired(self, namenode):
        sched = DelayScheduler(wait=1.0)
        tasks = [input_task("t0", 1, submitted_at=0.0)]
        assert sched.next_wakeup(queue_of(tasks, namenode), now=5.0) is None

    def test_zero_wait_behaves_like_fifo(self, namenode):
        sched = DelayScheduler(wait=0.0)
        tasks = [input_task("t0", 1)]
        assert sched.pick_task(queue_of(tasks, namenode), "n0", now=0.0) is tasks[0]

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            DelayScheduler(wait=-1.0)

    def test_accepts_offer_mirrors_pick(self, namenode):
        sched = DelayScheduler(wait=3.0)
        tasks = [input_task("t0", 1)]
        assert not sched.accepts_offer(queue_of(tasks, namenode), "n0", now=0.0)
        assert sched.accepts_offer(queue_of(tasks, namenode), "n1", now=0.0)


class TestLocalityFirstScheduler:
    def test_never_places_nonlocal_input(self, namenode):
        sched = LocalityFirstScheduler()
        tasks = [input_task("t0", 1)]
        assert sched.pick_task(queue_of(tasks, namenode), "n0", now=99.0) is None

    def test_places_local_input(self, namenode):
        sched = LocalityFirstScheduler()
        tasks = [input_task("t0", 0)]
        assert sched.pick_task(queue_of(tasks, namenode), "n0", now=0.0) is tasks[0]

    def test_shuffle_always_eligible(self, namenode):
        sched = LocalityFirstScheduler()
        tasks = [shuffle_task("t0")]
        assert sched.pick_task(queue_of(tasks, namenode), "n2", now=0.0) is tasks[0]


class TestFifoScheduler:
    def test_takes_head_of_queue(self, namenode):
        sched = FifoScheduler()
        tasks = [input_task("t0", 1), input_task("t1", 0)]
        assert sched.pick_task(queue_of(tasks, namenode), "n0", now=0.0) is tasks[0]

    def test_empty_queue(self, namenode):
        assert FifoScheduler().pick_task(queue_of([], namenode), "n0", now=0.0) is None
