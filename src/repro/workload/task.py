"""Task: the unit of execution.

An **input task** reads one HDFS block (locally or over the network) and
then computes; a **shuffle task** fetches intermediate data from upstream
stages and computes.  Only input tasks participate in locality accounting
(§III-A: "we only care about the locality for input tasks").

Runtime fields (submission, start, finish, executor, locality outcome) are
filled in by the application driver as the simulation progresses; the
metrics collector reads them afterwards.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.hdfs.blocks import Block

__all__ = ["Task", "TaskKind"]


class TaskKind(enum.Enum):
    """What a task reads."""

    INPUT = "input"  # one HDFS block
    SHUFFLE = "shuffle"  # upstream stage output


class Task:
    """One task of one stage of one job."""

    __slots__ = (
        "task_id",
        "job_id",
        "app_id",
        "stage_index",
        "kind",
        "is_input",
        "block",
        "cpu_time",
        "shuffle_bytes",
        "submitted_at",
        "started_at",
        "finished_at",
        "executor_id",
        "node_id",
        "was_local",
        "locality_level",
        "read_time",
        "cancelled",
    )

    def __init__(
        self,
        task_id: str,
        *,
        job_id: str,
        app_id: str,
        stage_index: int,
        kind: TaskKind,
        cpu_time: float,
        block: Optional[Block] = None,
        shuffle_bytes: float = 0.0,
    ):
        if cpu_time < 0:
            raise ValueError(f"{task_id}: cpu_time must be >= 0, got {cpu_time}")
        if kind is TaskKind.INPUT and block is None:
            raise ValueError(f"{task_id}: input tasks require a block")
        if kind is TaskKind.SHUFFLE and block is not None:
            raise ValueError(f"{task_id}: shuffle tasks must not carry a block")
        if shuffle_bytes < 0:
            raise ValueError(f"{task_id}: shuffle_bytes must be >= 0")
        self.task_id = task_id
        self.job_id = job_id
        self.app_id = app_id
        self.stage_index = stage_index
        self.kind = kind
        #: True for first-stage tasks reading an HDFS block.
        self.is_input: bool = kind is TaskKind.INPUT
        self.block = block
        self.cpu_time = cpu_time
        self.shuffle_bytes = shuffle_bytes
        # Runtime outcome, written by the driver:
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.executor_id: Optional[str] = None
        self.node_id: Optional[str] = None
        self.was_local: Optional[bool] = None
        #: "node" / "rack" / "any" once the task ran (input tasks only).
        self.locality_level: Optional[str] = None
        self.read_time: Optional[float] = None
        #: True when a KMN quorum barrier cancelled this surplus task.
        self.cancelled: bool = False

    # ------------------------------------------------------------- inspection
    @property
    def finished(self) -> bool:
        """True once the driver recorded completion."""
        return self.finished_at is not None

    @property
    def duration(self) -> Optional[float]:
        """Wall-clock task time (None until finished)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def scheduler_delay(self) -> Optional[float]:
        """Submission-to-launch latency — the paper's Fig. 10 metric."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def reset_runtime(self) -> None:
        """Clear runtime fields so the same workload can be replayed."""
        self.submitted_at = None
        self.started_at = None
        self.finished_at = None
        self.executor_id = None
        self.node_id = None
        self.was_local = None
        self.locality_level = None
        self.read_time = None
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        blk = f" block={self.block.block_id}" if self.block else ""
        return f"<Task {self.task_id} {self.kind.value}{blk}>"
