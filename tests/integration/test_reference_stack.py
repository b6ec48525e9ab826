"""The whole-run reference seam really swaps the engines, the task
schedulers and the task attempts, and only inside."""

from unittest import mock

from repro.core import allocation
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from tests.reference_stack import GeneratorAttempt, ReferenceCustodyManager, reference_stack

CONFIG = ExperimentConfig(
    manager="custody", workload="sort", num_nodes=8, num_apps=2,
    jobs_per_app=1, seed=4, metrics=True,
)


def scheduler_classes(result):
    return {type(d.scheduler).__name__ for d in result.manager.drivers.values()}


def recomputes_by_engine(result):
    family = result.registry.get("net_rate_recomputes_total")
    return {s["labels"]["engine"]: s["value"] for s in family.series()}


def generator_attempts():
    """Count task attempts launched as generator processes."""
    return mock.patch.object(
        GeneratorAttempt, "launch", autospec=True, side_effect=GeneratorAttempt.launch
    )


def planner_spy():
    """Count calls of the rescanning planner, ``two_level_allocate``."""
    return mock.patch.object(
        allocation, "two_level_allocate", wraps=allocation.two_level_allocate
    )


def test_seam_runs_the_reference_engines():
    with reference_stack(), planner_spy() as planner, generator_attempts() as launches:
        result = run_experiment(CONFIG)
    assert isinstance(result.manager, ReferenceCustodyManager)
    tasks = sum(len(job.all_tasks) for app in result.apps for job in app.jobs)
    assert launches.call_count >= tasks > 0
    # Every round's plan came from the rescanning planner.
    assert planner.call_count == result.manager.allocation_rounds > 0
    assert recomputes_by_engine(result).get("reference", 0) > 0
    assert recomputes_by_engine(result).get("incremental", 0) == 0
    assert scheduler_classes(result) == {"ScanDelayScheduler"}


def test_runs_outside_the_seam_use_the_production_engines():
    with reference_stack():
        pass
    with planner_spy() as planner, generator_attempts() as launches:
        result = run_experiment(CONFIG)
    assert not isinstance(result.manager, ReferenceCustodyManager)
    assert launches.call_count == 0
    assert planner.call_count == 0
    assert recomputes_by_engine(result).get("incremental", 0) > 0
    assert recomputes_by_engine(result).get("reference", 0) == 0
    assert scheduler_classes(result) == {"DelayScheduler"}
