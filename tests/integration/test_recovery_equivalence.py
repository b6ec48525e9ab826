"""Equivalence: the recovery stack is invisible until a crash fires.

The crash-recovery layer is deliberately event-free when healthy: lease
renewals are computed analytically at crash time, checkpoints piggyback
on WAL appends, and the coordinator only touches the manager's control
flow while it is down.  Enabling ``manager_recovery`` without a fault
plan must therefore leave the simulation *bitwise* on the seed
trajectory — same timeline records, same metrics, no RNG stream
consumed — on the production engines and on the reference stack.
That lockstep guarantee is what lets chaos runs turn the stack on by
default without invalidating golden traces elsewhere.
"""

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

pytestmark = pytest.mark.recovery

BASE = ExperimentConfig(
    manager="custody",
    workload="sort",
    num_nodes=10,
    num_apps=2,
    jobs_per_app=3,
    seed=11,
    timeline_enabled=True,
)

RECOVERY = replace(
    BASE,
    manager_recovery=True,
    lease_duration=120.0,
    lease_renew_interval=5.0,
    checkpoint_interval=15.0,
    reconciliation_window=2.0,
)


def test_crash_free_run_is_locked_to_seed_trajectory(stack):
    plain = run_experiment(BASE)
    recovered = run_experiment(RECOVERY)

    assert plain.timeline is not None and recovered.timeline is not None
    plain_records = [r.as_dict() for r in plain.timeline]
    recovery_records = [r.as_dict() for r in recovered.timeline]
    assert len(plain_records) == len(recovery_records)
    for i, (a, b) in enumerate(zip(plain_records, recovery_records)):
        assert a == b, f"record {i} diverged with recovery enabled: {a} != {b}"

    assert recovered.metrics.avg_jct == plain.metrics.avg_jct
    assert recovered.metrics.unfinished_jobs == plain.metrics.unfinished_jobs == 0


def test_recovery_counters_stay_zero_without_crash():
    result = run_experiment(RECOVERY)
    rec = result.recovery
    assert rec is not None
    assert rec.manager_crashes == 0
    assert rec.recoveries == 0
    assert rec.leases_at_crash == 0
    assert rec.leases_readopted == 0
    assert rec.leases_expired == 0
    assert rec.zombies_reclaimed == 0
    assert rec.zombies_surviving == 0
    assert rec.tasks_requeued == 0
    assert rec.rounds_stalled == 0
    # The WAL still records the healthy run's grant/release history.
    assert rec.log.entries_total > 0


def test_wal_flush_lag_is_invisible_without_crash():
    # A lossy WAL changes what *would* survive a crash, never the run.
    plain = run_experiment(BASE)
    lossy = run_experiment(replace(RECOVERY, wal_flush_lag=10.0))
    assert lossy.metrics == plain.metrics
