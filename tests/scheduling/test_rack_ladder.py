"""The node → rack → any delay-scheduling ladder and rack accounting."""

import pytest

from repro.cluster.topology import Topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.hdfs.blocks import Block
from repro.hdfs.namenode import FileEntry, NameNode
from repro.scheduling.policies import DelayScheduler
from repro.workload.task import Task, TaskKind
from tests.scan_policies import queue_of


@pytest.fixture
def topo():
    t = Topology()
    for i in range(4):
        t.add_node(f"n{i}", f"rack-{i // 2}")  # n0,n1 | n2,n3
    return t


@pytest.fixture
def namenode():
    nn = NameNode()
    blocks = [Block(f"b-{i}", path="/f", index=i, size=1.0) for i in range(2)]
    nn.register_file(FileEntry(path="/f", size=2.0, blocks=blocks))
    nn.add_replica("b-0", "n0")  # rack-0
    nn.add_replica("b-1", "n2")  # rack-1
    return nn


def input_task(tid, block_index, submitted_at=0.0):
    t = Task(
        tid, job_id="j", app_id="a", stage_index=0, kind=TaskKind.INPUT,
        cpu_time=1.0,
        block=Block(f"b-{block_index}", path="/f", index=block_index, size=1.0),
    )
    t.submitted_at = submitted_at
    return t


class TestLadder:
    def test_node_local_always_preferred(self, topo, namenode):
        sched = DelayScheduler(wait=3.0, rack_wait=3.0, topology=topo)
        tasks = [input_task("t0", 0)]
        assert sched.pick_task(queue_of(tasks, namenode), "n0", 0.0) is tasks[0]

    def test_rack_local_blocked_before_node_wait(self, topo, namenode):
        sched = DelayScheduler(wait=3.0, rack_wait=3.0, topology=topo)
        tasks = [input_task("t0", 0)]  # replica on n0 (rack-0)
        # n1 is rack-local but the node wait has not expired.
        assert sched.pick_task(queue_of(tasks, namenode), "n1", 1.0) is None

    def test_rack_local_allowed_after_node_wait(self, topo, namenode):
        sched = DelayScheduler(wait=3.0, rack_wait=3.0, topology=topo)
        tasks = [input_task("t0", 0)]
        assert sched.pick_task(queue_of(tasks, namenode), "n1", 3.0) is tasks[0]

    def test_off_rack_blocked_until_full_ladder(self, topo, namenode):
        sched = DelayScheduler(wait=3.0, rack_wait=3.0, topology=topo)
        tasks = [input_task("t0", 0)]  # rack-0 only
        # n2 is in rack-1: neither node- nor rack-local.
        assert sched.pick_task(queue_of(tasks, namenode), "n2", 4.0) is None
        assert sched.pick_task(queue_of(tasks, namenode), "n2", 6.0) is tasks[0]

    def test_rack_preferred_over_any(self, topo, namenode):
        sched = DelayScheduler(wait=1.0, rack_wait=1.0, topology=topo)
        off_rack = input_task("t0", 1, submitted_at=0.0)  # rack-1 data
        rack_local = input_task("t1", 0, submitted_at=5.0)  # rack-0 data
        # On n1 (rack-0) at t=6: t0 cleared the full ladder (any), t1 cleared
        # only the node wait (rack-local on n1).  Rack beats any.
        picked = sched.pick_task(queue_of([off_rack, rack_local], namenode), "n1", 6.0)
        assert picked is rack_local

    def test_next_wakeup_includes_both_rungs(self, topo, namenode):
        sched = DelayScheduler(wait=2.0, rack_wait=3.0, topology=topo)
        tasks = [input_task("t0", 0, submitted_at=0.0)]
        assert sched.next_wakeup(queue_of(tasks, namenode), now=1.0) == pytest.approx(2.0)
        assert sched.next_wakeup(queue_of(tasks, namenode), now=2.5) == pytest.approx(5.0)
        assert sched.next_wakeup(queue_of(tasks, namenode), now=6.0) is None

    def test_rack_wait_requires_topology(self):
        with pytest.raises(ValueError):
            DelayScheduler(wait=1.0, rack_wait=1.0)

    def test_negative_rack_wait_rejected(self, topo):
        with pytest.raises(ValueError):
            DelayScheduler(wait=1.0, rack_wait=-1.0, topology=topo)


class TestEndToEnd:
    BASE = dict(
        manager="standalone", workload="wordcount", num_nodes=20,
        num_apps=2, jobs_per_app=3, seed=12, nodes_per_rack=5, delay_wait=1.0,
    )

    def test_locality_levels_recorded(self):
        result = run_experiment(ExperimentConfig(**self.BASE))
        levels = result.metrics.locality_levels
        assert levels
        assert sum(levels.values()) == pytest.approx(1.0)

    def test_ladder_moves_any_to_rack(self):
        flat = run_experiment(ExperimentConfig(**self.BASE))
        laddered = run_experiment(ExperimentConfig(rack_wait=2.0, **self.BASE))
        assert laddered.metrics.locality_levels.get("any", 0.0) <= (
            flat.metrics.locality_levels.get("any", 0.0) + 1e-9
        )

    def test_all_jobs_finish_with_ladder(self):
        result = run_experiment(ExperimentConfig(rack_wait=2.0, **self.BASE))
        assert result.metrics.unfinished_jobs == 0
