"""Metrics must observe, never perturb: metrics-on == metrics-off.

The core acceptance property of the metrics registry — running the
identical experiment with the registry attached produces the exact same
:class:`ExperimentMetrics`, allocation rounds and virtual end time as
running it dark, on the production engines and on the reference stack.
Unlike tracing (whose sampler may add trailing grid ticks), enabling
metrics alone must not move the clock at all.
"""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.chaos import build_chaos_plan
from tests.reference_stack import STACKS, reference_stack

pytestmark = [pytest.mark.obs, pytest.mark.metrics]


@st.composite
def small_configs(draw):
    return ExperimentConfig(
        manager=draw(st.sampled_from(["custody", "standalone", "yarn", "mesos"])),
        workload=draw(st.sampled_from(["wordcount", "sort"])),
        num_nodes=draw(st.integers(min_value=8, max_value=12)),
        num_apps=2,
        jobs_per_app=draw(st.integers(min_value=1, max_value=2)),
        seed=draw(st.integers(min_value=0, max_value=50)),
    )


def assert_lockstep(config, **run_kwargs):
    dark = run_experiment(replace(config, metrics=False), **run_kwargs)
    lit = run_experiment(replace(config, metrics=True), **run_kwargs)
    assert lit.metrics == dark.metrics
    assert lit.sim_time == dark.sim_time
    assert lit.allocation_rounds == dark.allocation_rounds
    assert lit.speculative_launches == dark.speculative_launches
    assert lit.faults == dark.faults
    assert dark.registry is None and lit.registry is not None
    return lit


@given(small_configs(), st.sampled_from(STACKS))
@settings(max_examples=8, deadline=None)
def test_metrics_change_no_trajectory(config, stack_name):
    with reference_stack() if stack_name == "reference" else nullcontext():
        assert_lockstep(config)


def test_metrics_lockstep_under_both_engine_variants_with_faults():
    """One fixed chaos run per engine stack, metrics on == off."""
    config = ExperimentConfig(
        manager="custody", workload="wordcount", num_nodes=12,
        num_apps=2, jobs_per_app=2, seed=5, detector_timeout=10.0,
    )
    rng_seed = [config.seed, 7919, 1]
    for stack_name in STACKS:
        plan = build_chaos_plan(
            config.num_nodes, config.executors_per_node,
            np.random.default_rng(rng_seed),
            node_failures=1, partitions=1, degradations=1,
            executor_failures=1, slowdowns=1, horizon=40.0,
        )
        with reference_stack() if stack_name == "reference" else nullcontext():
            lit = assert_lockstep(config, fault_plan=plan)
        snap = lit.registry.snapshot()
        names = {m["name"] for m in snap["metrics"]}
        assert "faults_injected_total" in names
        assert "detector_reports_total" in names or "suspicion_changes_total" in names


def test_registry_counts_agree_with_legacy_tallies():
    """The new instruments and the pre-existing counters tell one story."""
    config = ExperimentConfig(
        manager="custody", workload="wordcount", num_nodes=10,
        num_apps=2, jobs_per_app=2, seed=3, metrics=True,
    )
    result = run_experiment(config)
    reg = result.registry
    assert reg is not None

    def total(name):
        fam = reg.get(name)
        assert fam is not None, name
        return sum(s.get("value", s.get("count", 0)) for s in fam.series())

    finished = result.metrics.finished_jobs
    assert total("job_completions_total") == finished
    assert total("job_arrivals_total") == config.num_apps * config.jobs_per_app
    jct = reg.get("job_completion_seconds")
    assert sum(s["count"] for s in jct.series()) == finished
    assert total("alloc_rounds_total") == result.allocation_rounds
    assert total("run_jobs_finished") == finished


def test_metrics_off_run_has_no_registry():
    result = run_experiment(
        ExperimentConfig(manager="custody", num_nodes=8, num_apps=2,
                         jobs_per_app=1, seed=1)
    )
    assert result.registry is None
