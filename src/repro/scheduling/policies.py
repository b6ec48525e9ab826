"""Task scheduling policies: which runnable task takes a free slot.

The scheduler answers one question, posed by the driver each time a slot on
executor *E* becomes available: *which runnable task (if any) should run on
E right now?*  Returning None leaves the slot idle — the delay-scheduling
bet that a local task will claim it soon.

Policies also expose :meth:`next_wakeup`, the earliest future time at which
a currently-ineligible task would become eligible (its locality wait
expiring), so the driver can re-dispatch exactly then.

Policies read the driver's :class:`~repro.scheduling.queue.RunnableQueue`
through its indexes rather than scanning it; each answer is still the one a
FIFO scan would give (see each policy's pick order).
"""

from __future__ import annotations

import abc
from typing import Collection, Dict, Optional, Set

from repro.cluster.topology import Topology
from repro.scheduling.queue import RunnableQueue
from repro.workload.task import Task

__all__ = [
    "TaskScheduler",
    "DelayScheduler",
    "HintedDelayScheduler",
    "LocalityFirstScheduler",
    "FifoScheduler",
]


class TaskScheduler(abc.ABC):
    """Strategy interface for in-application task placement.

    Contract the driver relies on: at a fixed instant, a policy that
    returns None for a slot keeps returning None for it while tasks only
    leave the queue, so one dispatch pass drops an executor after its
    first empty answer.
    """

    @abc.abstractmethod
    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        """Choose the task to launch on a free slot at ``node_id``, or None.

        ``executor_id`` identifies the specific executor offering the slot —
        only hint-aware policies use it; locality is node-level.
        """

    def next_wakeup(self, runnable: RunnableQueue, now: float) -> Optional[float]:
        """Earliest future time a scheduling decision could change, or None."""
        return None

    def eligible_nodes(
        self, runnable: RunnableQueue, now: float
    ) -> Optional[Collection[str]]:
        """Nodes whose slots :meth:`pick_task` could fill now (None: any).

        The driver offers slots only on these nodes; any superset is safe.
        """
        return None

    def accepts_offer(self, runnable: RunnableQueue, node_id: str, now: float) -> bool:
        """Offer-model hook (Mesos): would this app use a slot on ``node_id``?"""
        return self.pick_task(runnable, node_id, now) is not None


class DelayScheduler(TaskScheduler):
    """Delay scheduling [22] with Spark's locality-wait ladder.

    FIFO over runnable tasks.  An input task prefers a **node-local** slot;
    with ``rack_wait`` and a topology configured it accepts a **rack-local**
    slot after waiting ``wait`` seconds since submission, and **any** slot
    after ``wait + rack_wait``.  Without a topology the ladder collapses to
    the two-level node→any scheme (any slot after ``wait``).  Shuffle tasks
    carry no locality preference and run anywhere immediately.  ``wait``
    defaults to 3 s — Spark's ``spark.locality.wait``.

    Pick order: the first node-local input task in FIFO order; else the
    first rack-local one whose ``wait`` ran out; else the first task that
    is a shuffle task or whose last wait ran out.
    """

    def __init__(
        self,
        wait: float = 3.0,
        *,
        rack_wait: Optional[float] = None,
        topology: Optional[Topology] = None,
    ):
        if wait < 0:
            raise ValueError(f"wait must be >= 0, got {wait}")
        if rack_wait is not None and rack_wait < 0:
            raise ValueError(f"rack_wait must be >= 0, got {rack_wait}")
        if rack_wait is not None and topology is None:
            raise ValueError("rack_wait requires a topology")
        self.wait = wait
        self.rack_wait = rack_wait
        self.topology = topology

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        return runnable.first_eligible(
            node_id, now, self.wait, self.rack_wait, self.topology
        )

    def eligible_nodes(
        self, runnable: RunnableQueue, now: float
    ) -> Optional[Collection[str]]:
        return runnable.placeable_nodes(now, self.wait)

    def next_wakeup(self, runnable: RunnableQueue, now: float) -> Optional[float]:
        near = runnable.next_expiry(now, self.wait)
        if self.rack_wait is None:
            return near
        far = runnable.next_expiry(now, self.wait, self.rack_wait)
        return min((t for t in (near, far) if t is not None), default=None)


class LocalityFirstScheduler(TaskScheduler):
    """Hard locality constraint: input tasks only ever run locally.

    The Sparrow-style [23] constraint policy; used in ablations to measure
    the best locality any scheduler could reach on a given executor set (it
    may deadlock a job whose data the app's executors simply do not hold, so
    production use pairs it with a manager that guarantees coverage).
    Pick order: the first task that is a shuffle task or node-local.
    """

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        return runnable.earlier(runnable.first_local(node_id), runnable.first_shuffle())

    def eligible_nodes(
        self, runnable: RunnableQueue, now: float
    ) -> Optional[Collection[str]]:
        return runnable.placeable_nodes(now)


class HintedDelayScheduler(DelayScheduler):
    """Delay scheduling that honours Custody's per-task executor hints.

    Custody's allocator knows which executor it granted *for* which task
    (the z^u_ijk assignments); §V notes the suggestions could be submitted
    alongside the executor list.  This policy enforces them: a task hinted
    to executor *E* runs on E when E offers a slot, and other executors
    leave it alone until its delay wait expires (the hint acts as a
    reservation with the usual delay-scheduling escape hatch).
    """

    def __init__(
        self,
        wait: float = 3.0,
        *,
        rack_wait: Optional[float] = None,
        topology: Optional[Topology] = None,
    ):
        super().__init__(wait, rack_wait=rack_wait, topology=topology)
        self.hints: dict = {}
        #: executor id → task ids ever hinted to it (stale once re-hinted)
        self._hinted: Dict[str, Set[str]] = {}

    def set_hints(self, mapping: dict) -> None:
        """Merge task-id → executor-id hints from the latest allocation."""
        self.hints.update(mapping)
        for task_id, executor_id in mapping.items():
            self._hinted.setdefault(executor_id, set()).add(task_id)

    def eligible_nodes(
        self, runnable: RunnableQueue, now: float
    ) -> Optional[Collection[str]]:
        return None  # a hint places its task on its executor, wherever it is

    def _reserved_elsewhere(self, task: Task, executor_id: Optional[str], now: float) -> bool:
        hint = self.hints.get(task.task_id)
        if hint is None or hint == executor_id:
            return False
        # Reserved for another executor; the reservation lapses with the wait.
        if task.submitted_at is None:
            return True
        return now - task.submitted_at < self.wait

    def _first_hinted(self, runnable: RunnableQueue, executor_id: str) -> Optional[Task]:
        """First queued task (FIFO order) hinted to ``executor_id``."""
        hinted = self._hinted.get(executor_id)
        if not hinted:
            return None
        first: Optional[int] = None
        for task_id in list(hinted):
            if self.hints.get(task_id) != executor_id:
                hinted.discard(task_id)
                continue
            seq = runnable.seq_of(task_id)
            if seq is not None and (first is None or seq < first):
                first = seq
        return None if first is None else runnable.task_at(first)

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        if executor_id is not None:
            hinted = self._first_hinted(runnable, executor_id)
            if hinted is not None:
                return hinted
        # Tasks whose wait ran out are past any reservation, so ``skip``
        # only matters for the local and shuffle steps.
        skip = (
            (lambda task: self._reserved_elsewhere(task, executor_id, now))
            if self.hints
            else None
        )
        return runnable.first_eligible(
            node_id, now, self.wait, self.rack_wait, self.topology, skip
        )


class FifoScheduler(TaskScheduler):
    """Zero-wait FIFO: take the oldest runnable task, locality be damned."""

    def pick_task(
        self,
        runnable: RunnableQueue,
        node_id: str,
        now: float,
        executor_id: Optional[str] = None,
    ) -> Optional[Task]:
        return runnable.first()
