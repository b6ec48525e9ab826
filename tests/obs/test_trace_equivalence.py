"""Tracing must observe, never perturb: traced == untraced metrics.

The core acceptance property of the observability layer — running the
identical experiment with tracing enabled produces the exact same
:class:`ExperimentMetrics` (and the same virtual end time up to trailing
sampler ticks) as running it dark.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.events import LAYERS

pytestmark = pytest.mark.obs


@st.composite
def small_configs(draw):
    return ExperimentConfig(
        manager=draw(st.sampled_from(["custody", "standalone", "yarn", "mesos"])),
        workload=draw(st.sampled_from(["wordcount", "sort"])),
        num_nodes=draw(st.integers(min_value=8, max_value=12)),
        num_apps=2,
        jobs_per_app=draw(st.integers(min_value=1, max_value=2)),
        seed=draw(st.integers(min_value=0, max_value=50)),
        trace_sample_interval=draw(st.sampled_from([2.0, 5.0])),
    )


@given(small_configs())
@settings(max_examples=8, deadline=None)
def test_tracing_changes_no_metrics(config):
    dark = run_experiment(replace(config, trace=False))
    traced = run_experiment(replace(config, trace=True))
    assert traced.metrics == dark.metrics
    assert traced.allocation_rounds == dark.allocation_rounds
    assert traced.speculative_launches == dark.speculative_launches
    # The sampler may add trailing grid ticks after the last real event but
    # never more than one interval past the untraced end time.
    assert traced.sim_time >= dark.sim_time
    assert traced.sim_time <= dark.sim_time + 2 * config.trace_sample_interval


def test_traced_run_exposes_events_from_core_layers():
    config = ExperimentConfig(
        manager="custody", workload="wordcount", num_nodes=10,
        num_apps=2, jobs_per_app=2, seed=3, trace=True,
    )
    result = run_experiment(config)
    assert result.tracer is not None and result.trace_events
    cats = {e.cat for e in result.trace_events}
    # A fault-free run exercises everything except the faults layer.
    assert set(LAYERS) - {"faults"} <= cats
    assert all(e.ts >= 0.0 for e in result.trace_events)
    assert result.sampler is not None and result.sampler.ticks >= 1


def test_untraced_run_exposes_no_trace():
    config = ExperimentConfig(
        manager="custody", workload="wordcount", num_nodes=8,
        num_apps=2, jobs_per_app=1, seed=1,
    )
    result = run_experiment(config)
    assert result.tracer is None
    assert result.trace_events is None
    assert result.sampler is None


def test_timeline_alone_exposes_no_trace():
    # The timeline rides on a private tracer; the run still counts as untraced.
    config = ExperimentConfig(
        manager="custody", workload="wordcount", num_nodes=8,
        num_apps=2, jobs_per_app=1, seed=1, timeline_enabled=True,
    )
    result = run_experiment(config)
    assert result.timeline is not None and len(result.timeline) > 0
    assert result.tracer is None
    assert result.trace_events is None
    assert result.sampler is None
