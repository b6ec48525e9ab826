"""Task construction and runtime-field derived metrics."""

import pytest

from repro.hdfs.blocks import Block
from repro.workload.task import Task, TaskKind


def a_block():
    return Block("b-0", path="/f", index=0, size=10.0)


def input_task(**kw):
    defaults = dict(
        job_id="j-0", app_id="a-0", stage_index=0, kind=TaskKind.INPUT,
        cpu_time=1.0, block=a_block(),
    )
    defaults.update(kw)
    return Task("t-0", **defaults)


class TestConstruction:
    def test_input_task(self):
        t = input_task()
        assert t.is_input
        assert t.block is not None

    def test_shuffle_task(self):
        t = Task(
            "t-1", job_id="j", app_id="a", stage_index=1,
            kind=TaskKind.SHUFFLE, cpu_time=1.0, shuffle_bytes=100.0,
        )
        assert not t.is_input
        assert t.shuffle_bytes == 100.0

    @pytest.mark.parametrize("kind", list(TaskKind))
    def test_is_input_matches_kind(self, kind):
        if kind is TaskKind.INPUT:
            t = input_task()
        else:
            t = Task("t-2", job_id="j", app_id="a", stage_index=1, kind=kind, cpu_time=1.0)
        assert t.is_input is (t.kind is TaskKind.INPUT)
        assert "is_input" in Task.__slots__

    def test_input_requires_block(self):
        with pytest.raises(ValueError):
            input_task(block=None)

    def test_shuffle_rejects_block(self):
        with pytest.raises(ValueError):
            Task(
                "t", job_id="j", app_id="a", stage_index=1,
                kind=TaskKind.SHUFFLE, cpu_time=1.0, block=a_block(),
            )

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            input_task(cpu_time=-1.0)

    def test_negative_shuffle_rejected(self):
        with pytest.raises(ValueError):
            Task(
                "t", job_id="j", app_id="a", stage_index=1,
                kind=TaskKind.SHUFFLE, cpu_time=1.0, shuffle_bytes=-1.0,
            )


class TestRuntimeMetrics:
    def test_duration(self):
        t = input_task()
        assert t.duration is None
        t.started_at, t.finished_at = 2.0, 5.5
        assert t.duration == pytest.approx(3.5)

    def test_scheduler_delay(self):
        t = input_task()
        assert t.scheduler_delay is None
        t.submitted_at, t.started_at = 1.0, 4.0
        assert t.scheduler_delay == pytest.approx(3.0)

    def test_finished_flag(self):
        t = input_task()
        assert not t.finished
        t.finished_at = 1.0
        assert t.finished

    def test_reset_runtime(self):
        t = input_task()
        t.submitted_at = t.started_at = t.finished_at = 1.0
        t.executor_id, t.node_id, t.was_local, t.read_time = "e", "n", True, 0.1
        t.reset_runtime()
        assert t.submitted_at is None
        assert t.started_at is None
        assert t.finished_at is None
        assert t.executor_id is None
        assert t.was_local is None
        assert t.read_time is None
