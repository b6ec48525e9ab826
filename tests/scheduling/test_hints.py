"""HintedDelayScheduler: Custody's z-assignment suggestions, enforced."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.hdfs.blocks import Block
from repro.hdfs.namenode import FileEntry, NameNode
from repro.scheduling.policies import HintedDelayScheduler
from repro.workload.task import Task, TaskKind
from tests.scan_policies import queue_of


@pytest.fixture
def namenode():
    nn = NameNode()
    blocks = [Block(f"b-{i}", path="/f", index=i, size=1.0) for i in range(2)]
    nn.register_file(FileEntry(path="/f", size=2.0, blocks=blocks))
    nn.add_replica("b-0", "n0")
    nn.add_replica("b-1", "n0")  # both blocks on n0: contention for its slots
    return nn


def input_task(tid, block_index, submitted_at=0.0):
    t = Task(
        tid, job_id="j", app_id="a", stage_index=0, kind=TaskKind.INPUT,
        cpu_time=1.0,
        block=Block(f"b-{block_index}", path="/f", index=block_index, size=1.0),
    )
    t.submitted_at = submitted_at
    return t


class TestHintedPicks:
    def test_hinted_task_wins_on_its_executor(self, namenode):
        sched = HintedDelayScheduler(wait=3.0)
        t0, t1 = input_task("t0", 0), input_task("t1", 1)
        # FIFO/locality would pick t0 first; the hint says t1 belongs to e1.
        sched.set_hints({"t1": "e1"})
        picked = sched.pick_task(queue_of([t0, t1], namenode), "n0", 0.0, executor_id="e1")
        assert picked is t1

    def test_reservation_blocks_other_executors(self, namenode):
        sched = HintedDelayScheduler(wait=3.0)
        t0 = input_task("t0", 0)
        sched.set_hints({"t0": "e9"})
        # e1 on the same (local!) node must leave t0 for e9 within the wait.
        assert sched.pick_task(queue_of([t0], namenode), "n0", 0.0, executor_id="e1") is None

    def test_reservation_lapses_after_wait(self, namenode):
        sched = HintedDelayScheduler(wait=3.0)
        t0 = input_task("t0", 0, submitted_at=0.0)
        sched.set_hints({"t0": "e9"})
        picked = sched.pick_task(queue_of([t0], namenode), "n0", 3.5, executor_id="e1")
        assert picked is t0

    def test_unhinted_tasks_follow_delay_rules(self, namenode):
        sched = HintedDelayScheduler(wait=3.0)
        t0 = input_task("t0", 0)
        assert sched.pick_task(queue_of([t0], namenode), "n0", 0.0, executor_id="e1") is t0

    def test_without_executor_id_behaves_like_delay(self, namenode):
        sched = HintedDelayScheduler(wait=3.0)
        t0 = input_task("t0", 0)
        sched.set_hints({"t0": "e9"})
        # No executor identity: the reservation still protects the task.
        assert sched.pick_task(queue_of([t0], namenode), "n0", 0.0) is None

    def test_hints_merge(self, namenode):
        sched = HintedDelayScheduler(wait=3.0)
        sched.set_hints({"a": "e1"})
        sched.set_hints({"b": "e2"})
        assert sched.hints == {"a": "e1", "b": "e2"}


class TestEndToEnd:
    BASE = dict(
        manager="custody", workload="wordcount", num_nodes=15,
        num_apps=2, jobs_per_app=3, seed=6,
    )

    def test_enforced_hints_run_clean(self):
        result = run_experiment(
            ExperimentConfig(custody_enforce_hints=True, **self.BASE)
        )
        assert result.metrics.unfinished_jobs == 0

    def test_hints_do_not_hurt_locality(self):
        plain = run_experiment(ExperimentConfig(**self.BASE))
        hinted = run_experiment(
            ExperimentConfig(custody_enforce_hints=True, **self.BASE)
        )
        # The paper's design choice: delay scheduling already realises the
        # hinted placements, so enforcing them must not regress anything.
        assert hinted.metrics.locality_mean >= plain.metrics.locality_mean - 0.02
