"""One benchmark experiment in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--mode plain|traced|perf]
                               [--tiny] [--spans PATH] [--cpu N]

Imports ``repro`` from the checkout's ``src/``, runs one ``run_experiment``
and prints one JSON object on its last stdout line: host timings
(``perf_counter`` readings, so the parent can subtract its spawn time, and
the process's CPU time up to the first step and over the run),
simulated outputs, the correctness problems found, and — in ``traced`` mode —
per-function layer timings.  ``perf`` mode turns on the simulator's own
``PerfCounters`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter, process_time

T_START = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, config, result) -> list:
    """The correctness gate for one finished experiment (empty list: pass)."""
    problems = []
    jobs = [j for app in result.apps for j in app.jobs]
    if len(jobs) != config.num_apps * config.jobs_per_app:
        problems.append(f"{len(jobs)} jobs built, expected {config.num_apps * config.jobs_per_app}")
    unfinished = sum(1 for j in jobs if not j.finished)
    if unfinished:
        problems.append(f"{unfinished} jobs unfinished")
    tasks = [t for j in jobs for stage in j.stages for t in stage.tasks]
    both = sum(1 for t in tasks if t.finished and t.cancelled)
    neither = sum(1 for t in tasks if not t.finished and not t.cancelled)
    if both or neither:
        problems.append(f"{both} tasks both finished and abandoned, {neither} neither")
    abandoned = result.faults.abandoned_tasks if result.faults else 0
    cancelled = sum(1 for t in tasks if t.cancelled)
    if cancelled != abandoned:
        problems.append(f"{cancelled} tasks cancelled but {abandoned} counted abandoned")
    if not workload.chaos:
        return problems
    faults = result.faults
    if faults is None or faults.manager_crashes < 1:
        problems.append("chaos plan injected no manager crash")
        return problems
    if faults.manager_recoveries != faults.manager_crashes:
        problems.append(
            f"{faults.manager_recoveries} recoveries for {faults.manager_crashes} crashes"
        )
    if faults.zombies_surviving:
        problems.append(f"{faults.zombies_surviving} zombie executors survived")
    if faults.recovery_flows <= 0:
        problems.append("no recovery flows")
    successes: dict = {}
    for event in result.trace_events or ():
        if event.name == "task.attempt" and event.attrs.get("outcome") == "success":
            task_id = event.attrs["task"]
            successes[task_id] = successes.get(task_id, 0) + 1
    wrong = sum(1 for t in tasks if successes.get(t.task_id, 0) != (1 if t.finished else 0))
    if wrong:
        problems.append(f"{wrong} tasks without exactly one successful attempt")
    return problems


def summarize(config, result, sim) -> dict:
    """Simulated outputs of one experiment (all deterministic per seed)."""
    faults = result.faults
    jobs = [j for app in result.apps for j in app.jobs]
    tasks = sum(len(stage.tasks) for j in jobs for stage in j.stages)
    failed_attempts = faults.failed_attempts if faults else 0
    finished_tasks = sum(1 for j in jobs for stage in j.stages for t in stage.tasks if t.finished)
    return {
        "jobs": config.num_apps * config.jobs_per_app,
        "jobs_finished": result.metrics.finished_jobs,
        "tasks": tasks,
        "attempts": finished_tasks + failed_attempts,
        "tasks_abandoned": faults.abandoned_tasks if faults else 0,
        "failed_attempts": failed_attempts,
        "recovery_flows": faults.recovery_flows if faults else 0,
        "recovery_sim_s": faults.recovery_seconds_mean if faults else 0.0,
        "jct_mean_s": result.metrics.avg_jct,
        "jcts": [j.completion_time for j in jobs if j.finished],
        "locality_mean": result.metrics.locality_mean,
        "scheduler_delay_mean_s": result.metrics.avg_scheduler_delay,
        "events": sim.events_processed,
        "trace_events": len(result.trace_events or ()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "perf"), default="plain")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None, help="traced mode: write coarse spans here")
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one core")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from hostclock import pin

    pin(args.cpu)
    import repro.experiments.runner  # noqa: F401  (timed: this is what users pay)
    import repro.faults.chaos  # noqa: F401
    from repro.experiments.runner import run_experiment
    from repro.simulation.engine import Simulation

    from workloads import WORKLOADS

    t_imported = perf_counter()
    workload = WORKLOADS[args.workload]
    trace = None
    if args.mode == "traced":
        import layertrace

        trace = layertrace.install()
    t_build = perf_counter()
    config, plan = workload.build(args.seed, args.tiny)
    if args.mode == "perf":
        from dataclasses import replace

        config = replace(config, perf_counters=True)

    out: dict = {"t_start": T_START, "import_s": t_imported - T_START,
                 "jobs": config.num_apps * config.jobs_per_app}
    try:
        first, result, t_done, cpu_done = timed_experiment(run_experiment, Simulation, config, plan)
    except Exception as exc:  # a raising run counts all its jobs as failed
        traceback.print_exc()
        out["problems"] = [f"run_experiment raised {type(exc).__name__}: {exc}"]
        print(json.dumps(out))
        return 0
    finally:
        if trace is not None:
            trace.remove()
    if trace is not None:
        out["leftover_wrappers"] = layertrace.leftover_wrappers()
        out["layers"] = trace.stats()
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump(trace.span_dump(), fh)
    t_first, sim = first["t"], first["sim"]
    out.update(
        t_first_step=t_first,
        setup_cpu_s=first["cpu"],
        run_cpu_s=cpu_done - first["cpu"],
        world_build_s=t_first - t_build,
        run_wall_s=t_done - t_first,
        experiment_wall_s=t_done - t_build,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        problems=check(workload, config, result),
        **summarize(config, result, sim),
    )
    if result.perf is not None:
        out["perf"] = result.perf.as_dict()
    print(json.dumps(out))
    return 0


def timed_experiment(run_experiment, simulation_cls, config, plan):
    """``run_experiment`` with a one-shot hook noting its first step.

    Returns ``(first_step_time, sim, result, end_time)``; the hook puts the
    previous step function back before that step runs, so the timed run
    executes no hook of its own.
    """
    step = vars(simulation_cls)["step"]
    first: dict = {}

    def first_step(sim):
        simulation_cls.step = step
        first["t"] = perf_counter()
        first["cpu"] = process_time()
        first["sim"] = sim
        return step(sim)

    simulation_cls.step = first_step
    try:
        result = run_experiment(config, fault_plan=plan)
    finally:
        simulation_cls.step = step
    return first, result, perf_counter(), process_time()


if __name__ == "__main__":
    sys.exit(main())
