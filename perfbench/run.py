"""End-to-end benchmark of the Custody simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's experiments (seeds ``N*1000 + i``, a count
fixed by the workload and ``--seconds``), each in a fresh interpreter, on
two cores at once, and reports the end-to-end metrics.  Each experiment
process shares its core with a host-speed companion (hostclock.py), and its
CPU time is scaled by the companion's speed: host times are seconds at the
reference speed, which repeat where wall and CPU times do not.
``--trace 1`` runs the first experiment three times — plain, with
per-layer timing wrappers, and with the simulator's ``PerfCounters`` — and
reports the per-layer metrics.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  An experiment that
fails its correctness gate, raises, is killed at the deadline or is not
started before the cutoff counts all its jobs as failed and makes
``correct`` false.  Exits non-zero without that line when the simulator
sources (``src/repro``) are missing, an experiment process crashes, no
experiment finished, or the traced run did not finish.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostclock import REF_CHUNK_S, Companion  # noqa: E402
from layertrace import LAYERS  # noqa: E402
from workloads import WORKLOADS, experiment_seeds  # noqa: E402

#: An experiment process still running this long after the run started is
#: killed, so the run ends inside the 180 s it may take.
DEADLINE_S = 170.0

#: Experiments run on this many cores at once, each beside its own
#: host-speed companion (hostclock.py); seeds are dealt to lanes in turn.
LANES = 2

#: No new experiment starts after this many seconds, so a run on a host
#: slowed several-fold still ends inside the 180 s a run may take.
START_CUTOFF_S = 100.0

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_jct_median_s", "sim_s"),
    ("sim_locality_mean", "fraction"),
    ("jobs_finished_frac", "fraction"),
    ("tasks_completed_frac", "fraction"),
)

#: Layers of the per-layer share table: the traced packages plus ``runner``,
#: the time inside run_experiment but outside every wrapper.
SHARE_LAYERS = LAYERS + ("runner",)


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


def planned_jobs(workload: str, seed: int, tiny: bool) -> int:
    """Jobs the experiment would submit: what a failed experiment counts as failed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    config, _ = WORKLOADS[workload].build(seed, tiny)
    return config.num_apps * config.jobs_per_app


def spawn(workload: str, seed: int, mode: str, tiny: bool, spans: str = "",
          deadline: float | None = None, cpu: int | None = None) -> dict:
    """Run one experiment in a fresh interpreter and return its JSON record.

    ``deadline`` (a ``perf_counter`` reading) kills the process if it is
    still running then; the record then holds only the experiment's jobs
    and the problem, so all its jobs count as failed.  ``cpu`` pins the
    process to one core.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", spans]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=None if deadline is None else max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"seed": seed, "t_spawn": start, "jobs": planned_jobs(workload, seed, tiny),
                "problems": [f"seed {seed} ({mode}) passed the run's deadline; killed"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} seed {seed} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["t_spawn"] = start
    if "t_first_step" in record:
        record["setup_wall_s"] = record["t_first_step"] - start
    return record


def end_to_end(records) -> dict:
    """Aggregate per-experiment records into the end-to-end metrics.

    Host times are the records' ``setup_ref_s`` and ``run_ref_s``: CPU
    seconds scaled to the reference speed by the host-speed companion.
    """
    ok = [r for r in records if not r["problems"]]
    ran = [r for r in records if "run_ref_s" in r]
    if not ran:
        raise BenchError(f"no experiment finished: {records[0]['problems']}")
    jobs = sum(r["jobs"] for r in records)
    failed_jobs = sum(r["jobs"] for r in records if r["problems"])
    tasks = sum(r.get("tasks", 0) for r in ran)
    abandoned = sum(r.get("tasks_abandoned", 0) for r in ran)
    run_s = sum(r["run_ref_s"] for r in ran)
    values = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in ran),
        "run_wall_s": run_s / len(ran),
        "tasks_per_s": sum(r["attempts"] for r in ran) / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ran),
        "sim_jct_median_s": statistics.median(j for r in ok for j in r["jcts"]) if ok else 0.0,
        "sim_locality_mean": statistics.fmean(r["locality_mean"] for r in ok) if ok else 0.0,
        "jobs_finished_frac": 1.0 - failed_jobs / jobs,
        "tasks_completed_frac": 1.0 - abandoned / tasks if tasks else 0.0,
    }
    return {"attempted": jobs, "failed": failed_jobs, "values": values}


# ------------------------------------------------------------------ per layer
def _select(layers: dict, want) -> dict:
    """Sum calls/self/total/returned over the wrapped functions ``want`` picks."""
    acc = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "returned": 0}
    for key, row in layers.items():
        module, qual = key.split(":")
        if want(module, qual.rsplit(".", 1)[-1], qual):
            for field in acc:
                acc[field] += row.get(field, 0)
    return acc


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: dict, traced: dict, perf: dict) -> dict:
    """Per-layer metrics from one traced run and its untraced twin."""
    layers = traced["layers"]

    def fn(key):
        return _select(layers, lambda m, name, qual: f"{m}:{qual}" == key)

    def named(package, name):
        return _select(layers, lambda m, n, q: m.startswith(package) and n == name)

    step = fn("repro.simulation.engine:Simulation.step")
    picks = named("repro.scheduling.policies", "pick_task")
    launches = fn("repro.cluster.executor:Executor.start_task")
    serving = fn("repro.hdfs.namenode:NameNode.serving_locations")
    realloc = named("repro.managers", "reallocate")
    grants = named("repro.managers", "grant")
    recompute = named("repro.network", "recompute")
    flush = fn("repro.network.fabric:NetworkFabric._flush")
    detector = _select(layers, lambda m, n, q: m == "repro.faults.detector")
    emit = fn("repro.obs.tracer:Tracer.emit")
    updates = ("inc", "dec", "set", "observe")
    leaf_updates = _select(layers, lambda m, n, q: m == "repro.obs.metrics" and n in updates
                           and q.split(".")[0] in ("Counter", "Gauge", "Histogram"))
    all_updates = _select(layers, lambda m, n, q: m == "repro.obs.metrics" and n in updates
                          and not q.startswith("NullInstrument"))
    wall = traced["experiment_wall_s"]
    attempts = plain["attempts"]
    pc = perf["perf"]
    m = {
        "simulation.events": (step["calls"], "count"),
        "simulation.step_self_s": (step["self_s"], "s"),
        "simulation.host_us_per_event": (plain["run_wall_s"] / plain["events"] * 1e6, "us"),
        "scheduling.pick_task_calls": (picks["calls"], "count"),
        "scheduling.pick_task_self_s": (picks["self_s"], "s"),
        "scheduling.launches": (launches["calls"], "count"),
        "scheduling.pick_hit_ratio": (_ratio(launches["calls"], picks["calls"]), "ratio"),
        "scheduling.attach_executor_self_s": (
            fn("repro.scheduling.driver:ApplicationDriver.attach_executor")["self_s"], "s"),
        "scheduling.sim_scheduler_delay_mean_s": (plain["scheduler_delay_mean_s"] or 0.0, "sim_s"),
        "hdfs.serving_locations_calls": (serving["calls"], "count"),
        "hdfs.serving_locations_self_s": (serving["self_s"], "s"),
        "hdfs.lookups_per_pick": (_ratio(serving["calls"], picks["calls"]), "ratio"),
        "hdfs.ingest_self_s": (fn("repro.hdfs.filesystem:HDFS.ingest")["self_s"], "s"),
        "managers.rounds": (realloc["calls"], "count"),
        "managers.reallocate_self_s": (realloc["self_s"], "s"),
        "managers.grants": (grants["calls"], "count"),
        "managers.grant_self_s": (grants["self_s"], "s"),
        "managers.recovery_sim_s": (plain["recovery_sim_s"], "sim_s"),
        "managers.perfcounters_alloc_s": (pc["alloc_seconds"], "s"),
        "managers.perfcounters_alloc_plan_s": (pc["alloc_plan_seconds"], "s"),
        "core.allocate_calls": (
            fn("repro.core.allocation:DataAwareAllocator.allocate")["calls"], "count"),
        "core.allocate_self_s": (
            _select(layers, lambda m, n, q: m == "repro.core.allocation")["self_s"], "s"),
        "network.transfers": (
            fn("repro.network.fabric:NetworkFabric.start_transfer")["calls"], "count"),
        "network.flush_calls": (flush["calls"], "count"),
        "network.flush_self_s": (flush["self_s"], "s"),
        "network.recompute_self_s": (recompute["self_s"], "s"),
        "network.flows_per_recompute": (_ratio(recompute["returned"], recompute["calls"]), "count"),
        "faults.detector_calls": (detector["calls"], "count"),
        "faults.detector_self_s": (detector["self_s"], "s"),
        "faults.failed_attempts": (plain["failed_attempts"], "count"),
        "faults.retry_ratio": (_ratio(plain["failed_attempts"], attempts), "ratio"),
        "faults.recovery_flows": (plain["recovery_flows"], "count"),
        "obs.emit_calls": (emit["calls"], "count"),
        "obs.emit_self_s": (emit["self_s"], "s"),
        "obs.metric_updates": (leaf_updates["calls"], "count"),
        "obs.metric_update_self_s": (all_updates["self_s"], "s"),
        "setup.import_s": (plain["import_s"], "s"),
        "setup.world_build_s": (plain["world_build_s"], "s"),
        "workload.build_job_self_s": (
            fn("repro.workload.generators:JobFactory.build_job")["self_s"], "s"),
        "trace.overhead_frac": (traced["experiment_wall_s"] / plain["experiment_wall_s"] - 1.0,
                                "fraction"),
    }
    shares = layer_table(layers, wall)
    for layer in SHARE_LAYERS:
        m[f"layer.{layer}.self_share"] = (shares[layer][1] / wall, "fraction")
    return m


def layer_table(layers: dict, wall: float) -> dict:
    """``{layer: (calls, self_s)}``; ``runner`` gets the unwrapped remainder."""
    table = {layer: [0, 0.0] for layer in SHARE_LAYERS}
    for key, row in layers.items():
        layer = key.split(":")[0].split(".")[1]
        table[layer][0] += row["calls"]
        table[layer][1] += row["self_s"]
    table["runner"][1] = wall - sum(s for _, s in table.values())
    return {k: tuple(v) for k, v in table.items()}


def trace_problems(plain: dict, traced: dict) -> list:
    """The wrappers must not change behaviour and must all be removed."""
    problems = []
    for key in ("jct_mean_s", "locality_mean", "events"):
        if plain.get(key) != traced.get(key):
            problems.append(f"traced {key} {traced.get(key)!r} != untraced {plain.get(key)!r}")
    step_calls = traced.get("layers", {}).get("repro.simulation.engine:Simulation.step", {})
    if step_calls.get("calls") != plain.get("events"):
        problems.append("traced Simulation.step calls differ from untraced events")
    if traced.get("leftover_wrappers"):
        problems.append(f"wrappers left installed: {traced['leftover_wrappers'][:5]}")
    return problems


# --------------------------------------------------------------------- runs
def run_lane(args, cpu: int, seeds) -> tuple:
    """Run ``seeds`` one after another on core ``cpu`` beside a companion.

    Returns ``(records, companion)``.  An experiment not started by
    ``START_CUTOFF_S`` gets a record with a problem, so its jobs count as
    failed.
    """
    companion = Companion(cpu)
    records = []
    try:
        for seed in seeds:
            if perf_counter() - args.started > START_CUTOFF_S:
                records.append({"seed": seed, "problems": [
                    f"seed {seed} not started: the run passed {START_CUTOFF_S:.0f} s"],
                    "jobs": planned_jobs(args.workload, seed, args.tiny)})
                continue
            records.append(spawn(args.workload, seed, "plain", args.tiny,
                                 deadline=args.deadline, cpu=cpu))
    finally:
        companion.stop()
    for r in records:
        if "run_cpu_s" in r:
            r["setup_ref_s"] = r["setup_cpu_s"] * companion.scale(r["t_spawn"], r["t_first_step"])
            end = r["t_first_step"] + r["run_wall_s"]
            r["run_ref_s"] = r["run_cpu_s"] * companion.scale(r["t_first_step"], end)
    return records, companion


def timed_run(args) -> dict:
    seeds = experiment_seeds(WORKLOADS[args.workload], args.seed, args.seconds)
    cpus = sorted(os.sched_getaffinity(0))
    with ThreadPoolExecutor(LANES) as pool:
        lanes = list(pool.map(lambda i: run_lane(args, cpus[i % len(cpus)], seeds[i::LANES]),
                              range(LANES)))
    records = sorted((r for rs, _ in lanes for r in rs), key=lambda r: r["seed"])
    agg = end_to_end(records)
    for r in records:
        print(f"experiment seed={r['seed']} setup_s={r.get('setup_ref_s', 0):.3f} "
              f"(wall {r.get('setup_wall_s', 0):.3f}) run_s={r.get('run_ref_s', 0):.3f} "
              f"(wall {r.get('run_wall_s', 0):.3f}) tasks={r.get('tasks', 0)} "
              f"jct={r.get('jct_mean_s')} problems={r['problems']}")
    jcts = [j for r in records if not r["problems"] for j in r["jcts"]]
    if jcts:
        print(f"sim_jct_mean_s {statistics.fmean(jcts):.6g} "
              "(diagnostic: heavy-tailed under faults)")
    for i, (_, companion) in enumerate(lanes):
        print(f"host_probe_ms lane={i} before={companion.chunk_ms(True):.2f} "
              f"after={companion.chunk_ms(False):.2f} reference={REF_CHUNK_S * 1e3:.2f} "
              "(diagnostic, not a metric)")
    print("perfbench-detail " + json.dumps(
        {"experiments": [{k: v for k, v in r.items() if k != "jcts"} for r in records]}))
    return {"problems": [p for r in records for p in r["problems"]], **agg,
            "metrics": {name: (agg["values"][name], unit) for name, unit in END_TO_END}}


def traced_run(args) -> dict:
    seed = experiment_seeds(WORKLOADS[args.workload], args.seed, args.seconds)[0]
    spans = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{seed}.json")
    plain = spawn(args.workload, seed, "plain", args.tiny, deadline=args.deadline)
    traced = spawn(args.workload, seed, "traced", args.tiny, spans, deadline=args.deadline)
    perf = spawn(args.workload, seed, "perf", args.tiny, deadline=args.deadline)
    records = (plain, traced, perf)
    problems = [p for r in records for p in r["problems"]]
    if not problems:
        problems += trace_problems(plain, traced)
    attempted = sum(r["jobs"] for r in records)
    if "layers" not in traced or "perf" not in perf:
        raise BenchError(f"traced run of seed {seed} did not finish: {problems}")
    wall = traced["experiment_wall_s"]
    print(f"traced experiment seed={seed}: wall {wall:.3f} s traced vs "
          f"{plain['experiment_wall_s']:.3f} s untraced; spans in {os.path.relpath(spans, ROOT)}")
    print(f"{'layer':<12} {'calls':>10} {'self_s':>9} {'share':>7}")
    for layer, (calls, self_s) in sorted(layer_table(traced["layers"], wall).items(),
                                         key=lambda kv: -kv[1][1]):
        print(f"{layer:<12} {calls:>10} {self_s:>9.3f} {self_s / wall:>7.1%}")
    pc = perf["perf"]
    print(f"PerfCounters (perf_counters=True run): alloc_seconds {pc['alloc_seconds']:.3f} s "
          f"(release {pc['alloc_release_seconds']:.3f} / demand {pc['alloc_demand_seconds']:.3f} "
          f"/ plan {pc['alloc_plan_seconds']:.3f} / apply {pc['alloc_apply_seconds']:.3f}) "
          f"of {perf['run_wall_s']:.3f} s run wall")
    return {"problems": problems, "attempted": attempted,
            "failed": attempted if problems else 0,
            "metrics": per_layer(plain, traced, perf)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.started = perf_counter()
    args.deadline = args.started + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "experiments", "runner.py")):
        print(f"perfbench: no simulator sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        result = traced_run(args) if args.trace else timed_run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
