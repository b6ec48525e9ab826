"""Executor: the unit of allocation between applications.

State machine::

    FREE --allocate(app)--> ALLOCATED --release()--> FREE

While ALLOCATED, the owning application's driver launches tasks into the
executor's slots.  Allocating an executor that is already owned raises
(:class:`~repro.common.errors.AllocationError`) — that is constraint (2) of
the paper's formulation: each executor belongs to at most one application.
Release requires all slots to be idle, matching Spark's graceful executor
decommission used by Custody's release message (§V).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Set

from repro.common.errors import AllocationError, CapacityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import WorkerNode

__all__ = ["Executor", "ExecutorState"]


class ExecutorState(enum.Enum):
    """Allocation state of an executor."""

    FREE = "free"
    ALLOCATED = "allocated"


class Executor:
    """A container process on a worker node running one application's tasks."""

    def __init__(self, executor_id: str, node: "WorkerNode", *, slots: int = 1):
        if slots < 1:
            raise CapacityError(f"{executor_id}: slots must be >= 1, got {slots}")
        self.executor_id = executor_id
        self.node = node
        #: Id of the hosting worker node (an executor never moves).
        self.node_id: str = node.node_id
        self.slots = slots
        self.state = ExecutorState.FREE
        self.owner: Optional[str] = None  # application id
        self.running_tasks: Set[str] = set()
        #: False while the executor is crashed/restarting (fault injection);
        #: unhealthy executors are excluded from allocation.
        self.healthy = True
        node.attach_executor(self)

    # -------------------------------------------------------------- allocation
    @property
    def is_free(self) -> bool:
        """True when no application owns this executor."""
        return self.state is ExecutorState.FREE

    @property
    def free_slots(self) -> int:
        """Task slots not currently running a task."""
        return self.slots - len(self.running_tasks)

    def allocate(self, app_id: str) -> None:
        """Hand the executor to application ``app_id``."""
        if self.state is not ExecutorState.FREE:
            raise AllocationError(
                f"{self.executor_id} already allocated to {self.owner!r}; "
                f"cannot give it to {app_id!r}"
            )
        if not self.healthy:
            raise AllocationError(f"{self.executor_id} is down; cannot allocate")
        self.state = ExecutorState.ALLOCATED
        self.owner = app_id

    def release(self) -> None:
        """Return the executor to the free pool (must be idle)."""
        if self.state is ExecutorState.FREE:
            raise AllocationError(f"{self.executor_id} is not allocated")
        if self.running_tasks:
            raise AllocationError(
                f"{self.executor_id} still running {sorted(self.running_tasks)}; "
                "release requires idle slots"
            )
        self.state = ExecutorState.FREE
        self.owner = None

    # ----------------------------------------------------------------- running
    def start_task(self, task_id: str) -> None:
        """Occupy one slot with ``task_id``."""
        if self.state is not ExecutorState.ALLOCATED:
            raise AllocationError(f"{self.executor_id} has no owner; cannot run {task_id}")
        if self.free_slots <= 0:
            raise CapacityError(f"{self.executor_id} has no free slot for {task_id}")
        if task_id in self.running_tasks:
            raise AllocationError(f"{task_id} already running on {self.executor_id}")
        self.running_tasks.add(task_id)

    def finish_task(self, task_id: str) -> None:
        """Free the slot held by ``task_id``."""
        try:
            self.running_tasks.remove(task_id)
        except KeyError:
            raise AllocationError(f"{task_id} is not running on {self.executor_id}") from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        owner = f" owner={self.owner}" if self.owner else ""
        return (
            f"<Executor {self.executor_id}@{self.node_id} "
            f"{self.state.value}{owner} {len(self.running_tasks)}/{self.slots} busy>"
        )
