"""Fast checks of the benchmark itself, on tiny workload sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import hostclock  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import steadiness  # noqa: E402
from workloads import WORKLOADS, experiment_seeds  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
NAMES = sorted(WORKLOADS)


def bench(*args):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                 "--tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        assert f"{name} " in proc.stdout  # printed by name in the report too


@pytest.mark.parametrize("workload", NAMES)
def test_seed_reaches_every_workload_and_repeats(workload):
    w = WORKLOADS[workload]
    config, _ = w.build(4321, True)
    assert config.seed == 4321
    assert experiment_seeds(w, 1, 10) != experiment_seeds(w, 2, 10)
    first = run.spawn(workload, 5, "plain", True)
    again = run.spawn(workload, 5, "plain", True)
    other = run.spawn(workload, 6, "plain", True)
    sim_keys = ("jcts", "locality_mean", "events", "tasks", "attempts", "tasks_abandoned")
    assert not first["problems"]
    assert {k: first[k] for k in sim_keys} == {k: again[k] for k in sim_keys}
    assert {k: first[k] for k in sim_keys} != {k: other[k] for k in sim_keys}


def test_wrappers_are_gone_after_the_traced_run():
    from repro.experiments.runner import run_experiment
    from repro.simulation.engine import Simulation

    step = vars(Simulation)["step"]
    trace = layertrace.install()
    try:
        assert getattr(vars(Simulation)["step"], layertrace.MARK, False)
        assert len(layertrace.leftover_wrappers()) > 50
        config, plan = WORKLOADS["chaos_recovery"].build(0, True)
        run_experiment(config, fault_plan=plan)
    finally:
        trace.remove()
    assert layertrace.leftover_wrappers() == []
    assert vars(Simulation)["step"] is step
    stats = trace.stats()
    layers = {key.split(":")[0].split(".")[1] for key in stats}
    assert {"simulation", "scheduling", "hdfs", "managers", "network", "faults", "obs"} <= layers
    assert stats["repro.simulation.engine:Simulation.step"]["calls"] > 0
    assert all(row["self_s"] <= row["total_s"] + 1e-9 for row in stats.values())


def test_correctness_gate_catches_a_lost_task():
    from repro.experiments.runner import run_experiment

    workload = WORKLOADS["paper_default"]
    config, plan = workload.build(0, True)
    result = run_experiment(config, fault_plan=plan)
    assert child.check(workload, config, result) == []
    task = result.apps[0].jobs[0].stages[0].tasks[0]
    task.finished_at = None
    assert any("neither" in p for p in child.check(workload, config, result))


def test_traced_outputs_must_match_untraced():
    plain = {"jct_mean_s": 1.0, "locality_mean": 1.0, "events": 10}
    traced = dict(plain, layers={"repro.simulation.engine:Simulation.step": {"calls": 10}},
                  leftover_wrappers=[])
    assert run.trace_problems(plain, traced) == []
    assert run.trace_problems(plain, dict(traced, events=11))
    assert run.trace_problems(plain, dict(traced, leftover_wrappers=["x"]))


def test_an_experiment_killed_at_the_deadline_counts_its_jobs_as_failed():
    from time import perf_counter

    # a full-size experiment outlives the 1 s the deadline leaves it
    killed = run.spawn("chaos_recovery", 5, "plain", False, deadline=perf_counter())
    assert killed["problems"] and killed["jobs"] == 120 and "run_cpu_s" not in killed
    done = dict(jobs=120, problems=[], run_ref_s=1.0, setup_ref_s=1.0, attempts=10, tasks=10,
                tasks_abandoned=0, peak_rss_mb=1.0, jcts=[1.0], locality_mean=1.0)
    agg = run.end_to_end([done, killed])
    assert (agg["attempted"], agg["failed"]) == (240, 120)
    assert agg["values"]["jobs_finished_frac"] == 0.5


def test_companion_scales_cpu_time_to_reference_speed():
    companion = hostclock.Companion(sorted(os.sched_getaffinity(0))[0])
    companion.stop()
    assert companion.chunks
    cost = hostclock.REF_CHUNK_S * 2
    companion.chunks = [(t, cost) for t in range(10)]
    assert companion.scale(2, 6) == 0.5
    assert companion.scale(100, 101) == 0.5  # empty span: nearest chunks


def test_suggested_bounds_come_from_the_widest_spread():
    sets = [{"run_wall_s": {"spread": 0.021}, "setup_s": {"spread": 0.01},
             "jobs_finished_frac": {"spread": 0.0}},
            {"run_wall_s": {"spread": 0.03}, "raw run wall (diagnostic)": {"spread": 0.4}}]
    assert steadiness.bounds_from(sets) == {"run_wall_s": 0.09, "setup_s": 0.25,
                                            "jobs_finished_frac": 0.01}


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
