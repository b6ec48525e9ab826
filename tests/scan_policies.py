"""Scan oracle for the task-scheduling policies.

The production policies (``repro.scheduling.policies``) answer from the
indexes of :class:`~repro.scheduling.queue.RunnableQueue`.  These classes
are the original scans over the queue in FIFO order, asking the NameNode
for every task's serving locations: the behaviour the indexes must
reproduce exactly.  :func:`scan_dispatch` swaps them into whole runs; the
equivalence suites compare the two pick by pick.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional
from unittest import mock

import repro.experiments.runner as runner
import repro.experiments.scenarios as scenarios
from repro.hdfs.namenode import NameNode
from repro.scheduling import policies
from repro.scheduling.queue import RunnableQueue
from repro.workload.task import Task


def queue_of(tasks: Iterable[Task], namenode: NameNode) -> RunnableQueue:
    """A runnable queue holding ``tasks`` in order."""
    queue = RunnableQueue(namenode)
    for task in tasks:
        queue.push(task)
    return queue


def _is_local(task: Task, node_id: str, namenode: NameNode) -> bool:
    """Node-level locality test for an input task (disk or cached copy)."""
    assert task.block is not None
    return node_id in namenode.serving_locations(task.block.block_id)


class ScanDelayScheduler(policies.DelayScheduler):
    """:class:`~repro.scheduling.policies.DelayScheduler` as a FIFO scan."""

    def _is_rack_local(self, task: Task, node_id: str, namenode: NameNode) -> bool:
        assert task.block is not None and self.topology is not None
        rack = self.topology.rack_of(node_id)
        return any(
            self.topology.rack_of(holder) == rack
            for holder in namenode.serving_locations(task.block.block_id)
        )

    def pick_task(self, runnable, node_id, now, executor_id=None):
        return self._scan(runnable, node_id, now, runnable.namenode)

    def eligible_nodes(self, runnable, now):
        return None  # offer every free slot, as the scan-era dispatch did

    def _scan(
        self, tasks: Iterable[Task], node_id: str, now: float, namenode: NameNode
    ) -> Optional[Task]:
        rack_fallback: Optional[Task] = None
        any_fallback: Optional[Task] = None
        laddered = self.rack_wait is not None and self.topology is not None
        for task in tasks:
            if not task.is_input:
                if any_fallback is None:
                    any_fallback = task
                continue
            if _is_local(task, node_id, namenode):
                return task
            if task.submitted_at is None:
                continue
            waited = now - task.submitted_at
            if laddered:
                if (
                    rack_fallback is None
                    and waited >= self.wait
                    and self._is_rack_local(task, node_id, namenode)
                ):
                    rack_fallback = task
                if any_fallback is None and waited >= self.wait + self.rack_wait:
                    any_fallback = task
            elif any_fallback is None and waited >= self.wait:
                any_fallback = task
        return rack_fallback if rack_fallback is not None else any_fallback

    def next_wakeup(self, runnable, now):
        laddered = self.rack_wait is not None and self.topology is not None
        earliest: Optional[float] = None
        for task in runnable:
            if task.is_input and task.submitted_at is not None:
                for expiry in (
                    task.submitted_at + self.wait,
                    task.submitted_at + self.wait + (self.rack_wait or 0.0)
                    if laddered
                    else None,
                ):
                    if expiry is not None and expiry > now:
                        if earliest is None or expiry < earliest:
                            earliest = expiry
        return earliest


class ScanHintedDelayScheduler(policies.HintedDelayScheduler, ScanDelayScheduler):
    """:class:`~repro.scheduling.policies.HintedDelayScheduler` as a scan."""

    def pick_task(self, runnable, node_id, now, executor_id=None):
        if executor_id is not None:
            for task in runnable:
                if self.hints.get(task.task_id) == executor_id:
                    return task
        eligible = [
            t for t in runnable if not self._reserved_elsewhere(t, executor_id, now)
        ]
        return self._scan(eligible, node_id, now, runnable.namenode)


class ScanLocalityFirstScheduler(policies.LocalityFirstScheduler):
    """:class:`~repro.scheduling.policies.LocalityFirstScheduler` as a scan."""

    def pick_task(self, runnable, node_id, now, executor_id=None):
        for task in runnable:
            if not task.is_input or _is_local(task, node_id, runnable.namenode):
                return task
        return None

    def eligible_nodes(self, runnable, now):
        return None


class ScanFifoScheduler(policies.FifoScheduler):
    """:class:`~repro.scheduling.policies.FifoScheduler` as a scan."""

    def pick_task(self, runnable, node_id, now, executor_id=None):
        for task in runnable:
            return task
        return None


#: production policy class name → its scan oracle
ORACLES = {
    "DelayScheduler": ScanDelayScheduler,
    "HintedDelayScheduler": ScanHintedDelayScheduler,
    "LocalityFirstScheduler": ScanLocalityFirstScheduler,
    "FifoScheduler": ScanFifoScheduler,
}


@contextmanager
def scan_dispatch() -> Iterator[None]:
    """Build every run's task schedulers as the scan oracles."""
    with mock.patch.multiple(runner, **ORACLES), mock.patch.object(
        scenarios, "DelayScheduler", ScanDelayScheduler
    ):
        yield
