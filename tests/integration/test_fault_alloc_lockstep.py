"""Lockstep under faults: production Custody rounds equal the reference.

Under fault injection the production demand builder keeps its replica
memo, useful-nodes cache and O(1) locality counters on and only skips
demand-cache reuse; the failure detector judges each node once per
instant.  The reference stack rebuilds every demand from scratch with
per-task NameNode lookups and full locality scans.  Whole chaos runs on
both stacks must agree on everything observable: run metrics, every
task's placement and finish time, the metrics-registry snapshot and the
traced event stream.  Only the network rate allocator's own bookkeeping is
left out: the reference allocator recomputes from scratch, so its
recompute counts differ by design.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.chaos import build_chaos_plan
from tests.reference_stack import reference_stack

pytestmark = pytest.mark.faults

SEEDS = range(12)

#: Rate-allocator bookkeeping, engine-labelled and engine-specific.
ENGINE_FAMILIES = {"net_rate_recomputes_total", "net_dirty_component_flows"}
ENGINE_EVENTS = {"net.recompute"}

BASE = ExperimentConfig(
    manager="custody",
    num_nodes=12,
    num_apps=2,
    jobs_per_app=3,
    detector_timeout=10.0,
    metrics=True,
    trace=True,
)

#: case name -> (config overrides, manager crashes in the chaos plan)
CASES = {
    # chaos_recovery's knob set on the phi-accrual detector.  The wider
    # cluster makes some rounds grant onto a dead node and then re-query it
    # at the same instant, which exercises the report_failure memo bump.
    "adaptive-recovery": (
        dict(
            num_nodes=20,
            num_apps=3,
            jobs_per_app=4,
            detector_mode="adaptive",
            circuit_breaker=True,
            hedging=True,
            retry_jitter=True,
            manager_recovery=True,
            lease_duration=120.0,
            lease_renew_interval=5.0,
            checkpoint_interval=15.0,
            reconciliation_window=2.0,
        ),
        1,
    ),
    "fixed-window": (dict(detector_mode="fixed", retry_budget=8), 0),
    "kmn-adaptive": (
        dict(detector_mode="adaptive", hedging=True, kmn_fraction=0.5),
        0,
    ),
}


def observe(config: ExperimentConfig, plan) -> dict:
    """Everything a run exposes, in comparable form."""
    result = run_experiment(config, fault_plan=plan)
    tasks = [
        (t.task_id, t.executor_id, t.finished_at, t.was_local)
        for app in result.apps
        for job in app.jobs
        for t in job.all_tasks
    ]
    events = [
        (e.ts, e.name, e.cat, e.track, e.lane, e.attrs)
        for e in result.trace_events
        if e.name not in ENGINE_EVENTS
    ]
    stream = json.dumps(events, sort_keys=True, default=repr).encode()
    return {
        "metrics": repr(result.metrics.as_dict()),
        "tasks": tasks,
        "registry": [
            family
            for family in result.registry.snapshot()["metrics"]
            if family["name"] not in ENGINE_FAMILIES
        ],
        "trace_sha256": hashlib.sha256(stream).hexdigest(),
        "faults": result.faults,
        "recovery": result.recovery,
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_runs_match_reference_stack(case, seed):
    overrides, crashes = CASES[case]
    config = replace(BASE, seed=seed, **overrides)
    plan = build_chaos_plan(
        config.num_nodes,
        config.executors_per_node,
        np.random.default_rng([seed, 7919, 1]),
        node_failures=3,
        partitions=1,
        executor_failures=2,
        slowdowns=2,
        link_flaps=1,
        correlated_failures=1,
        manager_crashes=crashes,
        horizon=40.0,
    )
    production = observe(config, plan)
    with reference_stack():
        reference = observe(config, plan)

    assert production["faults"].injected > 0
    if crashes:
        assert production["recovery"].manager_crashes == crashes
    for key in ("metrics", "tasks", "registry", "trace_sha256"):
        assert production[key] == reference[key], f"{case} seed {seed}: {key} diverged"
