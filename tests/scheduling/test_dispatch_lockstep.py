"""Whole runs on the indexed dispatch match runs on the scan oracle.

The golden fixtures pin the default knobs; these runs cover the knobs they
do not: block caching (NameNode versions churn mid-run), the rack ladder,
enforced Custody hints, the locality-first and FIFO policies, speculation
and Mesos offers.  Each config runs twice — production policies, then the
scan schedulers through :func:`~tests.scan_policies.scan_dispatch` — and
the metrics must be identical.
"""

from __future__ import annotations

import pytest

from repro.common.units import MB
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from tests.scan_policies import scan_dispatch

BASE = dict(num_nodes=20, num_apps=3, jobs_per_app=6, nodes_per_rack=5)

KNOBS = {
    "cache": dict(cache_per_node=512 * MB),
    "rack_wait": dict(rack_wait=2.0),
    "enforced_hints": dict(custody_enforce_hints=True),
    "locality_first": dict(scheduler="locality-first"),
    "fifo": dict(scheduler="fifo"),
    "speculation": dict(speculation=True, speculation_quantile=0.5),
    "mesos": dict(manager="mesos"),
    "mesos_rack_cache": dict(manager="mesos", rack_wait=1.0, cache_per_node=512 * MB),
}


def placements(result) -> list:
    return [
        (t.task_id, t.executor_id, t.finished_at)
        for app in result.apps for job in app.jobs for stage in job.stages
        for t in stage.tasks
    ]


def schedulers(result) -> set:
    return {type(d.scheduler).__name__ for d in result.manager.drivers.values()}


@pytest.mark.parametrize("seed", (11, 12))
@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_indexed_dispatch_matches_the_scan(knob, seed):
    config = ExperimentConfig(**BASE, **KNOBS[knob], seed=seed)
    indexed = run_experiment(config)
    with scan_dispatch():
        scanned = run_experiment(config)
    assert all(name.startswith("Scan") for name in schedulers(scanned))
    assert not any(name.startswith("Scan") for name in schedulers(indexed))
    assert indexed.metrics.as_dict() == scanned.metrics.as_dict()
    assert placements(indexed) == placements(scanned)


def test_cache_run_moves_block_locations_mid_run():
    """The cache config really exercises index invalidation."""
    config = ExperimentConfig(**BASE, **KNOBS["cache"], seed=11)
    result = run_experiment(config)
    driver = next(iter(result.manager.drivers.values()))
    assert driver.hdfs.namenode.stats()["cached_replicas"] > 0
