"""Golden trace-replay determinism: external CSV → identical metrics.

``golden_trace_replay.json`` records the metrics of one small cluster-trace
replay (``replay_sample.csv``) under **all four managers**, captured with
the reference engines.  These tests assert that

* the CSV adapter is a pure function — the same fixture file always yields
  the same :class:`SubmissionTrace`, and
* every manager reproduces its recorded metrics bit-for-bit under both the
  reference and the incremental engines.

Regenerate after intentional changes: ``PYTHONPATH=src python
tests/fixtures/regen_golden.py`` (and review the fixture diff).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.workload.replay import read_cluster_trace
from tests.reference_stack import STACKS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MANAGERS = ("custody", "standalone", "yarn", "mesos")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads((FIXTURES / "golden_trace_replay.json").read_text())


@pytest.fixture(scope="module")
def trace(golden):
    return read_cluster_trace(
        FIXTURES / golden["trace"]["csv"],
        ("app-00", "app-01"),
        time_scale=golden["trace"]["time_scale"],
    )


def test_adapter_is_deterministic(golden, trace):
    again = read_cluster_trace(
        FIXTURES / golden["trace"]["csv"],
        ("app-00", "app-01"),
        time_scale=golden["trace"]["time_scale"],
    )
    assert len(trace) == golden["trace"]["jobs"]
    assert trace.to_records() == again.to_records()


@pytest.mark.slow
@pytest.mark.parametrize("stack", STACKS, indirect=True)
@pytest.mark.parametrize("manager", MANAGERS)
def test_replay_metrics_match_golden(golden, trace, manager, stack):
    config = ExperimentConfig(
        manager=manager,
        workload=golden["config"]["workload"],
        num_nodes=golden["config"]["num_nodes"],
        num_apps=golden["config"]["num_apps"],
        jobs_per_app=golden["config"]["jobs_per_app"],
        seed=golden["config"]["seed"],
    )
    result = run_experiment(config, trace=trace)
    got = json.loads(json.dumps(result.metrics.as_dict(), sort_keys=True))
    assert got == golden["metrics"][manager], (
        f"{manager}/{stack}: replay metrics diverged from the recording"
    )
