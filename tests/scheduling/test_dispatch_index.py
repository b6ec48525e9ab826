"""The indexed runnable queue answers exactly as the FIFO scan.

Every production policy reads :class:`~repro.scheduling.queue.RunnableQueue`
through its indexes; its scan twin in ``tests/scan_policies.py`` walks the
same queue in FIFO order.  Hypothesis drives the queue and the NameNode
through the driver's mutations (stage enqueue, requeue, KMN cancel, launch)
and the block-location churn a run sees (replica add/loss, cache
insert/evict, block reports) while time advances, and after every step
``pick_task``, ``accepts_offer`` and ``next_wakeup`` must agree for every
node and executor, and no node outside ``eligible_nodes`` may get a task.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import Topology
from repro.hdfs.blocks import Block
from repro.hdfs.namenode import FileEntry, NameNode
from repro.scheduling.policies import (
    DelayScheduler,
    FifoScheduler,
    HintedDelayScheduler,
    LocalityFirstScheduler,
)
from repro.scheduling.queue import COMPACT_SLACK, RunnableQueue
from repro.workload.task import Task, TaskKind
from tests.scan_policies import (
    ScanDelayScheduler,
    ScanFifoScheduler,
    ScanHintedDelayScheduler,
    ScanLocalityFirstScheduler,
    queue_of,
)

NODES = [f"n{i}" for i in range(6)]
EXECUTORS = [(f"e{i}", NODES[i % len(NODES)]) for i in range(8)]
BLOCKS = [Block(f"b{i}", path="/f", index=i, size=1.0) for i in range(5)]
#: Steps that accumulate into times whose float sums round (0.1 + 0.2 ...).
TICKS = [0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.7, 2.0]


def make_topology() -> Topology:
    topo = Topology()
    for i, node in enumerate(NODES):
        topo.add_node(node, f"rack-{i // 2}")
    return topo


def make_namenode() -> NameNode:
    nn = NameNode()
    nn.register_file(FileEntry(path="/f", size=float(len(BLOCKS)), blocks=list(BLOCKS)))
    for i, block in enumerate(BLOCKS):
        nn.add_replica(block.block_id, NODES[i % len(NODES)])
        nn.add_replica(block.block_id, NODES[(i + 3) % len(NODES)])
    return nn


def policy_pairs(topo: Topology) -> list:
    """(production, oracle) pairs over every policy and ladder shape."""
    return [
        (DelayScheduler(wait=1.0), ScanDelayScheduler(wait=1.0)),
        (
            DelayScheduler(wait=0.5, rack_wait=1.2, topology=topo),
            ScanDelayScheduler(wait=0.5, rack_wait=1.2, topology=topo),
        ),
        (HintedDelayScheduler(wait=1.0), ScanHintedDelayScheduler(wait=1.0)),
        (
            HintedDelayScheduler(wait=0.3, rack_wait=0.0, topology=topo),
            ScanHintedDelayScheduler(wait=0.3, rack_wait=0.0, topology=topo),
        ),
        (LocalityFirstScheduler(), ScanLocalityFirstScheduler()),
        (FifoScheduler(), ScanFifoScheduler()),
    ]


def assert_agree(pairs, queue: RunnableQueue, now: float) -> None:
    for fast, scan in pairs:
        label = type(scan).__name__
        assert fast.next_wakeup(queue, now) == scan.next_wakeup(queue, now), label
        for node in NODES:
            assert fast.accepts_offer(queue, node, now) == scan.accepts_offer(
                queue, node, now
            ), (label, node)
        eligible = fast.eligible_nodes(queue, now)
        for executor, node in EXECUTORS:
            got = fast.pick_task(queue, node, now, executor_id=executor)
            want = scan.pick_task(queue, node, now, executor_id=executor)
            assert got is want, (label, executor, got, want)
            if eligible is not None and node not in eligible:
                assert want is None, (label, executor, want)


block_ix = st.integers(0, len(BLOCKS) - 1)
node_ix = st.integers(0, len(NODES) - 1)
OPS = st.one_of(
    st.tuples(st.just("stage"), st.lists(st.one_of(block_ix, st.none()), min_size=1, max_size=4)),
    st.tuples(st.just("requeue"), st.integers(0, 50)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("launch"), st.integers(0, len(EXECUTORS) - 1), st.integers(0, 5)),
    st.tuples(st.just("replica+"), block_ix, node_ix),
    st.tuples(st.just("replica-"), block_ix, node_ix),
    st.tuples(st.just("cache+"), block_ix, node_ix),
    st.tuples(st.just("cache-"), block_ix, node_ix),
    st.tuples(st.just("report"), node_ix, st.frozensets(block_ix)),
    st.tuples(st.just("hint"), st.integers(0, 50), st.integers(0, len(EXECUTORS) - 1)),
    st.tuples(st.just("tick"), st.sampled_from(TICKS)),
)


@settings(max_examples=250, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_indexed_policies_match_the_scan(ops):
    topo = make_topology()
    namenode = make_namenode()
    queue = RunnableQueue(namenode)
    pairs = policy_pairs(topo)
    made: List[Task] = []
    launched: List[Task] = []
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "stage":
            for index in op[1]:
                task = Task(
                    f"t{len(made)}", job_id="j", app_id="a",
                    stage_index=0 if index is not None else 1,
                    kind=TaskKind.INPUT if index is not None else TaskKind.SHUFFLE,
                    cpu_time=1.0,
                    block=BLOCKS[index] if index is not None else None,
                    shuffle_bytes=0.0 if index is not None else 1.0,
                )
                task.submitted_at = now
                made.append(task)
                queue.push(task)
        elif kind == "requeue" and launched:
            task = launched.pop(op[1] % len(launched))
            queue.push(task)  # keeps its original submission time
        elif kind == "cancel" and queue:
            queued = list(queue)
            queue.remove(queued[op[1] % len(queued)])
        elif kind == "launch":
            fast, _ = pairs[op[2]]
            executor, node = EXECUTORS[op[1]]
            task = fast.pick_task(queue, node, now, executor_id=executor)
            if task is not None:
                queue.remove(task)
                launched.append(task)
        elif kind in ("replica+", "cache+"):
            add = namenode.add_replica if kind == "replica+" else namenode.add_cached_replica
            add(BLOCKS[op[1]].block_id, NODES[op[2]])
        elif kind in ("replica-", "cache-"):
            drop = (
                namenode.remove_replica if kind == "replica-"
                else namenode.remove_cached_replica
            )
            drop(BLOCKS[op[1]].block_id, NODES[op[2]])
        elif kind == "report":
            namenode.apply_block_report(
                NODES[op[1]], [BLOCKS[i].block_id for i in sorted(op[2])]
            )
        elif kind == "hint" and made:
            mapping = {made[op[1] % len(made)].task_id: EXECUTORS[op[2]][0]}
            for fast, scan in pairs:
                for policy in (fast, scan):
                    if isinstance(policy, HintedDelayScheduler):
                        policy.set_hints(mapping)
        elif kind == "tick":
            now += op[1]
        assert_agree(pairs, queue, now)


def input_task(tid: str, block: Block, submitted_at: float) -> Task:
    task = Task(
        tid, job_id="j", app_id="a", stage_index=0, kind=TaskKind.INPUT,
        cpu_time=1.0, block=block,
    )
    task.submitted_at = submitted_at
    return task


class TestRunnableQueue:
    def test_fifo_order_membership_and_requeue_to_tail(self):
        queue = queue_of([], make_namenode())
        tasks = [input_task(f"t{i}", BLOCKS[i], 0.0) for i in range(3)]
        for task in tasks:
            queue.push(task)
        queue.remove(tasks[0])
        queue.push(tasks[0])
        assert list(queue) == [tasks[1], tasks[2], tasks[0]]
        assert tasks[0] in queue and len(queue) == 3
        assert queue.first() is tasks[1]
        assert queue.earlier(tasks[0], tasks[2]) is tasks[2]

    def test_double_push_and_missing_remove_raise(self):
        queue = queue_of([input_task("t0", BLOCKS[0], 0.0)], make_namenode())
        with pytest.raises(ValueError):
            queue.push(next(iter(queue)))
        with pytest.raises(ValueError):
            queue.remove(input_task("t9", BLOCKS[0], 0.0))

    def test_compaction_keeps_answers(self):
        namenode = make_namenode()
        queue = RunnableQueue(namenode)
        sched, scan = DelayScheduler(wait=1.0), ScanDelayScheduler(wait=1.0)
        churn = 3 * COMPACT_SLACK
        for i in range(churn):
            task = input_task(f"t{i}", BLOCKS[i % len(BLOCKS)], float(i) / 10)
            queue.push(task)
            assert sched.pick_task(queue, "n0", float(i) / 10) is scan.pick_task(
                queue, "n0", float(i) / 10
            )
            if i % 8:
                queue.remove(task)
        assert len(queue._fifo) < churn  # stale entries were shed
        for now in (0.0, 5.0, 20.0):
            for node in NODES:
                assert sched.pick_task(queue, node, now) is scan.pick_task(queue, node, now)

    def test_time_running_backwards_rebuilds_the_wait_index(self):
        queue = queue_of([input_task("t0", BLOCKS[1], 0.0)], make_namenode())
        sched, scan = DelayScheduler(wait=1.0), ScanDelayScheduler(wait=1.0)
        for now in (2.0, 0.5, 1.0, 0.0):
            assert sched.pick_task(queue, "n0", now) is scan.pick_task(queue, "n0", now)
            assert sched.next_wakeup(queue, now) == scan.next_wakeup(queue, now)

    def test_wait_boundary_uses_the_scans_float_comparisons(self):
        # 0.4 + 1.0 == 1.4, yet 1.4 - 0.4 < 1.0: a wakeup armed at
        # ``submitted_at + wait`` finds the task still waiting.
        queue = queue_of([input_task("t0", BLOCKS[1], 0.4)], make_namenode())
        sched, scan = DelayScheduler(wait=1.0), ScanDelayScheduler(wait=1.0)
        assert sched.next_wakeup(queue, 0.4) == scan.next_wakeup(queue, 0.4) == 1.4
        assert scan.pick_task(queue, "n0", 1.4) is None
        assert sched.pick_task(queue, "n0", 1.4) is None
        assert sched.next_wakeup(queue, 1.4) is scan.next_wakeup(queue, 1.4) is None

    def test_index_follows_a_cache_insert(self):
        namenode = make_namenode()
        task = input_task("t0", BLOCKS[0], 0.0)  # replicas on n0, n3
        queue = queue_of([task], namenode)
        sched = DelayScheduler(wait=5.0)
        assert sched.pick_task(queue, "n1", 0.0) is None
        namenode.add_cached_replica(BLOCKS[0].block_id, "n1")
        assert sched.pick_task(queue, "n1", 0.0) is task
        namenode.remove_cached_replica(BLOCKS[0].block_id, "n1")
        assert sched.pick_task(queue, "n1", 0.0) is None


class TestNameNodeServes:
    def test_serves_matches_serving_locations(self):
        namenode = make_namenode()
        namenode.add_cached_replica("b0", "n5")
        for block in BLOCKS:
            serving = namenode.serving_locations(block.block_id)
            assert namenode.serving_set(block.block_id) == set(serving)
            for node in NODES:
                assert namenode.serves(block.block_id, node) == (node in serving)

    def test_unknown_block_raises(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_namenode().serves("nope", "n0")
