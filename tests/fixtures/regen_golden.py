"""Regenerate the golden determinism fixtures.

Run from the repo root after any *intentional* behaviour change::

    PYTHONPATH=src python tests/fixtures/regen_golden.py

``--check`` regenerates every fixture in memory instead and compares it
with the committed file byte for byte; it exits 1 naming the first
fixture that differs and the first differing record in it::

    PYTHONPATH=src python tests/fixtures/regen_golden.py --check

Every fixture is recorded on the **reference** (seed) engine stack, entered
through ``tests.reference_stack``; the golden tests then assert that both
the reference stack and the production engines reproduce these traces
record for record.  Review the diff of the regenerated JSON like code: an
unexpected change here is a silent behaviour regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

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
    from tests.allocbench import golden_plan_stream

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


#: The faulted run's fixed knobs; each recorded run adds its ``seed`` and
#: ``circuit_breaker`` (True = breaker board, False = timed blacklist).
FAULTED_CONFIG = dict(
    num_nodes=12,
    num_apps=2,
    jobs_per_app=3,
    detector_timeout=10.0,
    detector_mode="adaptive",
    hedging=True,
    retry_budget=4,
    admission_control=True,
    admission_factor=1.0,
    manager_recovery=True,
    reconciliation_window=2.0,
    wal_flush_lag=2.0,
)

#: ``(seed, circuit_breaker)`` of each recorded faulted run: the fewest runs
#: that between them produce every fault, robustness and recovery record
#: kind (seed 0 blacklists, seed 1 sheds load, seed 6 hedges and opens
#: breakers).
FAULTED_RUNS = ((0, False), (1, True), (6, True))


def faulted_plan(seed: int):
    """The seeded chaos plan of one faulted run, plus a fixed disk failure."""
    import numpy as np

    from repro.faults.chaos import build_chaos_plan
    from repro.faults.plan import DiskFailure

    plan = build_chaos_plan(
        12, 2, np.random.default_rng([seed, 5]),
        node_failures=2, partitions=1, degradations=1, executor_failures=2,
        slowdowns=2, link_flaps=1, correlated_failures=1, manager_crashes=1,
        horizon=60.0,
    )
    return plan.add(DiskFailure(at=20.0, node_id="worker-003"))


def faulted_runner_payload() -> dict:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    runs = []
    for seed, breaker in FAULTED_RUNS:
        config = ExperimentConfig(
            seed=seed, circuit_breaker=breaker, timeline_enabled=True, **FAULTED_CONFIG
        )
        plan = faulted_plan(seed)
        result = run_experiment(config, fault_plan=plan)
        assert result.timeline is not None
        runs.append({
            "seed": seed,
            "circuit_breaker": breaker,
            "plan": json.loads(plan.to_json()),
            "records": [r.as_dict() for r in result.timeline],
        })
    return {"scenario": "run_experiment_faulted", "config": FAULTED_CONFIG, "runs": runs}


def dump_indented(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_record_lines(payload: dict) -> str:
    """JSON with each timeline record on one compact line.

    ``indent=2`` would spread every record over a dozen lines; one line per
    record keeps the fixture small and its diffs readable.
    """
    head = {k: v for k, v in payload.items() if k != "runs"}
    runs = []
    for run in payload["runs"]:
        fields = {k: v for k, v in run.items() if k != "records"}
        records = ",\n".join(json.dumps(r, sort_keys=True) for r in run["records"])
        runs.append(f"{json.dumps(fields, sort_keys=True)[:-1]}, \"records\": [\n{records}\n]}}")
    runs_text = ",\n".join(runs)
    return f"{json.dumps(head, sort_keys=True)[:-1]}, \"runs\": [\n{runs_text}\n]}}\n"


#: fixture file -> (payload builder, serialiser)
GOLDEN: Dict[str, tuple] = {
    "golden_fig1.json": (fig1_payload, dump_indented),
    "golden_fig45_trace.json": (fig45_payload, dump_indented),
    "golden_runner_trace.json": (runner_payload, dump_indented),
    "golden_alloc_plans.json": (alloc_plans_payload, dump_indented),
    "golden_trace_replay.json": (trace_replay_payload, dump_indented),
    "golden_faulted_trace.json": (faulted_runner_payload, dump_record_lines),
}


def first_difference(want: Any, got: Any, path: str = "") -> Optional[str]:
    """Path of the first differing value between two JSON documents."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                return f"{path}.{key}"
            diff = first_difference(want[key], got[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(want, got)):
            diff = first_difference(a, b, f"{path}[{i}]")
            if diff is not None:
                return diff
        if len(want) != len(got):
            return f"{path}[{min(len(want), len(got))}]"
        return None
    return None if want == got else path


def check(texts: Dict[str, str]) -> int:
    """Compare regenerated fixture texts with the committed files."""
    for name, text in texts.items():
        committed = (FIXTURES / name).read_text()
        if committed == text:
            print(f"ok   {name}")
            continue
        where = first_difference(json.loads(committed), json.loads(text))
        print(f"DIFF {name}: first difference at {where or '(formatting only)'}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden fixtures.")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare regenerated fixtures with the committed files; write nothing",
    )
    args = parser.parse_args(argv)
    from tests.reference_stack import reference_stack

    texts: Dict[str, str] = {}
    with reference_stack():
        for name, (build, dump) in GOLDEN.items():
            texts[name] = dump(build())
    if args.check:
        return check(texts)
    for name, text in texts.items():
        path = FIXTURES / name
        path.write_text(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
