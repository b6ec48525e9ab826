"""Regenerate the golden determinism fixtures.

Run from the repo root after any *intentional* behaviour change::

    PYTHONPATH=src python tests/fixtures/regen_golden.py

Every fixture is recorded on the **reference** (seed) engine stack, entered
through ``tests.reference_stack``; the golden tests then assert that both
the reference stack and the production engines reproduce these traces
record for record.  Review the diff of the regenerated JSON like code: an
unexpected change here is a silent behaviour regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent.parent))  # the repo root, for ``tests``


def fig1_payload() -> dict:
    from repro.experiments.scenarios import fig1_motivating_example

    result = fig1_motivating_example()
    return {
        "scenario": "fig1_motivating_example",
        "data_unaware": result.data_unaware,
        "data_aware": result.data_aware,
    }


def fig45_payload() -> dict:
    from repro.experiments.scenarios import fig45_intraapp_trace

    return {
        "scenario": "fig45_intraapp_trace",
        "arms": fig45_intraapp_trace(),
    }


def runner_payload() -> dict:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig(
        manager="custody",
        workload="wordcount",
        num_nodes=8,
        num_apps=2,
        jobs_per_app=2,
        seed=11,
        timeline_enabled=True,
    )
    result = run_experiment(config)
    assert result.timeline is not None
    return {
        "scenario": "run_experiment",
        "config": {
            "manager": config.manager,
            "workload": config.workload,
            "num_nodes": config.num_nodes,
            "num_apps": config.num_apps,
            "jobs_per_app": config.jobs_per_app,
            "seed": config.seed,
        },
        "records": [r.as_dict() for r in result.timeline],
    }


def alloc_plans_payload() -> dict:
    from repro.experiments.allocbench import golden_plan_stream

    return {
        "scenario": "alloc_plan_stream",
        "size": {"apps": 3, "jobs_per_app": 4, "tasks_per_job": 6,
                 "replication": 2},
        "rounds": 40,
        "seed": 5,
        "plans": golden_plan_stream((3, 4, 6, 2), rounds=40, seed=5,
                                    engine="reference"),
    }


def trace_replay_payload() -> dict:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.workload.replay import read_cluster_trace

    trace = read_cluster_trace(
        FIXTURES / "replay_sample.csv",
        ("app-00", "app-01"),
        time_scale=1e-7,  # "microsecond" fixture timestamps -> ~2 min horizon
    )
    per_manager = {}
    for manager in ("custody", "standalone", "yarn", "mesos"):
        config = ExperimentConfig(
            manager=manager,
            workload="wordcount",
            num_nodes=8,
            num_apps=2,
            jobs_per_app=8,
            seed=13,
        )
        result = run_experiment(config, trace=trace)
        per_manager[manager] = result.metrics.as_dict()
    return {
        "scenario": "trace_replay",
        "trace": {"csv": "replay_sample.csv", "time_scale": 1e-7,
                  "jobs": len(trace)},
        "config": {"workload": "wordcount", "num_nodes": 8, "num_apps": 2,
                   "jobs_per_app": 8, "seed": 13},
        "metrics": per_manager,
    }


GOLDEN = {
    "golden_fig1.json": fig1_payload,
    "golden_fig45_trace.json": fig45_payload,
    "golden_runner_trace.json": runner_payload,
    "golden_alloc_plans.json": alloc_plans_payload,
    "golden_trace_replay.json": trace_replay_payload,
}


def main() -> None:
    from tests.reference_stack import reference_stack

    with reference_stack():
        for name, build in GOLDEN.items():
            path = FIXTURES / name
            path.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
