"""End-to-end equivalence of the allocation control planes.

The incremental engines runs always use must be a pure optimisation: for
every manager, a full experiment run on them and on the reference stack —
at the same coalescing setting — produces identical metrics.  Coalescing
itself is pinned separately: the runner's default (on) must match
per-event rounds for the standard scenarios.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from tests.reference_stack import reference_stack


def small_config(**kw):
    return ExperimentConfig(
        workload="wordcount",
        num_nodes=8,
        num_apps=2,
        jobs_per_app=3,
        seed=13,
        **kw,
    )


@pytest.mark.parametrize("manager", ["custody", "standalone", "yarn", "mesos"])
def test_engines_produce_identical_metrics(manager):
    inc = run_experiment(small_config(manager=manager))
    with reference_stack():
        ref = run_experiment(small_config(manager=manager))
    assert inc.metrics.as_dict() == ref.metrics.as_dict()
    assert inc.sim_time == ref.sim_time
    assert inc.allocation_rounds == ref.allocation_rounds


def test_coalescing_default_matches_per_event_rounds():
    """The runner's coalesced rounds decide like per-event rounds here."""
    coalesced = run_experiment(small_config(manager="custody", alloc_coalesce=True))
    per_event = run_experiment(small_config(manager="custody", alloc_coalesce=False))
    assert coalesced.metrics.as_dict() == per_event.metrics.as_dict()
    assert coalesced.sim_time == per_event.sim_time


def test_alloc_counters_populate_under_perf_counters():
    result = run_experiment(
        small_config(manager="custody", perf_counters=True)
    )
    assert result.perf is not None
    assert result.perf.alloc_rounds > 0
    assert result.perf.alloc_seconds > 0.0
    # The default engine serves demands from the cache at least sometimes.
    assert result.perf.demand_cache_hits > 0
    payload = result.perf.as_dict()
    for key in (
        "alloc_rounds",
        "alloc_rounds_coalesced",
        "demand_cache_hits",
        "demand_cache_misses",
        "demand_cache_hit_rate",
        "alloc_seconds",
    ):
        assert key in payload


def test_engine_selection_is_not_a_runtime_option():
    with pytest.raises(TypeError, match="alloc_engine"):
        small_config(alloc_engine="reference")
    with pytest.raises(TypeError, match="network_engine"):
        small_config(network_engine="reference")

    from repro.cli import build_parser

    parser = build_parser()
    for flag in ("--alloc-engine", "--network-engine"):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--manager", "custody", flag, "reference"])
    args = parser.parse_args(["run", "--manager", "custody", "--per-event-alloc"])
    assert args.per_event_alloc is True
