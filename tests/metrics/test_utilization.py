"""Utilization analysis from timelines."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.utilization import analyze_utilization
from repro.simulation.timeline import Timeline


def make_timeline(records):
    """records: list of (time, kind, subject, detail-dict)."""
    times = iter([r[0] for r in records])
    tl = Timeline(clock=lambda: next(times))
    for _t, kind, subject, detail in records:
        tl.record(kind, subject, **detail)
    return tl


class TestSyntheticTimelines:
    def test_single_task(self):
        tl = make_timeline(
            [
                (0.0, "task.start", "t0", {"executor": "e0"}),
                (4.0, "task.finish", "t0", {}),
            ]
        )
        report = analyze_utilization(tl, total_slots=2)
        assert report.span == pytest.approx(4.0)
        assert report.busy_slot_seconds == pytest.approx(4.0)
        assert report.slot_utilization == pytest.approx(0.5)
        assert report.peak_concurrency == 1
        assert report.mean_concurrency == pytest.approx(1.0)

    def test_overlapping_tasks(self):
        tl = make_timeline(
            [
                (0.0, "task.start", "t0", {"executor": "e0"}),
                (1.0, "task.start", "t1", {"executor": "e1"}),
                (3.0, "task.finish", "t0", {}),
                (4.0, "task.finish", "t1", {}),
            ]
        )
        report = analyze_utilization(tl, total_slots=2)
        assert report.peak_concurrency == 2
        assert report.busy_slot_seconds == pytest.approx(6.0)
        assert report.slot_utilization == pytest.approx(6.0 / 8.0)

    def test_hedged_attempt_occupies_a_slot(self):
        tl = make_timeline(
            [
                (0.0, "task.start", "t0", {"executor": "e0"}),
                (2.0, "task.hedge.start", "t0", {"executor": "e1"}),
                (3.0, "task.finish", "t0", {}),
            ]
        )
        report = analyze_utilization(tl, total_slots=2)
        assert report.busy_slot_seconds == pytest.approx(3.0 + 1.0)
        assert report.peak_concurrency == 2

    def test_failed_attempt_ends_at_its_failure(self):
        tl = make_timeline(
            [
                (0.0, "task.start", "t0", {"executor": "e0"}),
                (1.0, "attempt.fail", "t0", {"executor": "e0", "reason": "node-down"}),
                (5.0, "task.start", "t0", {"executor": "e1"}),
                (7.0, "task.finish", "t0", {}),
            ]
        )
        report = analyze_utilization(tl, total_slots=2)
        assert report.busy_slot_seconds == pytest.approx(1.0 + 2.0)
        assert report.peak_concurrency == 1

    def test_grant_release_counters(self):
        tl = make_timeline(
            [
                (0.0, "executor.grant", "e0", {"app": "a"}),
                (0.0, "executor.grant", "e1", {"app": "a"}),
                (0.5, "task.start", "t0", {"executor": "e0"}),
                (1.0, "task.finish", "t0", {}),
                (2.0, "executor.release", "e0", {"app": "a"}),
            ]
        )
        report = analyze_utilization(tl, total_slots=4)
        assert report.grants_per_app == {"a": 2}
        assert report.releases_per_app == {"a": 1}

    def test_empty_timeline_rejected(self):
        tl = make_timeline([])
        with pytest.raises(ConfigurationError):
            analyze_utilization(tl, total_slots=1)

    def test_bad_slots_rejected(self):
        tl = make_timeline([(0.0, "task.start", "t", {"executor": "e"})])
        with pytest.raises(ConfigurationError):
            analyze_utilization(tl, total_slots=0)

    def test_describe_renders(self):
        tl = make_timeline(
            [
                (0.0, "task.start", "t0", {"executor": "e0"}),
                (1.0, "task.finish", "t0", {}),
            ]
        )
        text = analyze_utilization(tl, total_slots=1).describe()
        assert "slot utilization" in text
        assert "concurrency" in text


class TestRealRun:
    def test_full_run_report_is_sane(self):
        config = ExperimentConfig(
            manager="custody", workload="wordcount", num_nodes=12,
            num_apps=2, jobs_per_app=2, seed=4, timeline_enabled=True,
        )
        result = run_experiment(config)
        total_slots = (
            config.num_nodes * config.executors_per_node * config.executor_slots
        )
        report = analyze_utilization(result.timeline, total_slots)
        assert 0.0 < report.slot_utilization <= 1.0
        assert report.peak_concurrency <= total_slots
        assert report.mean_concurrency <= report.peak_concurrency
        assert report.span <= result.sim_time
