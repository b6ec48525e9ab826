"""Equivalence: the robustness layer is invisible on a fault-free run.

Every robustness mechanism is reactive — budgets spend only on retries,
breakers move only on failures, hedges need a suspected node, jitter
applies only to backoff delays, admission defers only under overload.
On a healthy cluster none of those triggers fire, so enabling the whole
stack must leave the simulation *bitwise* on the seed trajectory: same
timeline records, same metrics, no RNG stream consumed.  This is the
lockstep guarantee that lets the layer default-on safely in chaos runs
without invalidating golden traces elsewhere.
"""

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

pytestmark = pytest.mark.robustness

BASE = ExperimentConfig(
    manager="custody",
    workload="sort",
    num_nodes=10,
    num_apps=2,
    jobs_per_app=3,
    seed=11,
    timeline_enabled=True,
)

ROBUST = replace(
    BASE,
    detector_mode="adaptive",
    circuit_breaker=True,
    hedging=True,
    retry_jitter=True,
    retry_budget=16,
    retry_refill=0.5,
    admission_control=True,
)


def test_fault_free_run_is_locked_to_seed_trajectory(stack):
    plain = run_experiment(BASE)
    robust = run_experiment(ROBUST)

    assert plain.timeline is not None and robust.timeline is not None
    plain_records = [r.as_dict() for r in plain.timeline]
    robust_records = [r.as_dict() for r in robust.timeline]
    assert len(plain_records) == len(robust_records)
    for i, (a, b) in enumerate(zip(plain_records, robust_records)):
        assert a == b, f"record {i} diverged with robustness enabled: {a} != {b}"

    assert robust.metrics.avg_jct == plain.metrics.avg_jct
    assert robust.metrics.unfinished_jobs == plain.metrics.unfinished_jobs == 0


def test_robust_metrics_stay_zero_without_faults():
    result = run_experiment(ROBUST)
    faults = result.faults
    if faults is None:
        return  # no injector without a plan: nothing to count
    assert faults.retries_denied == 0
    assert faults.hedges_launched == 0
    assert faults.breaker_opens == 0
    assert faults.admission_deferred == 0
    assert faults.load_shed == 0
