"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    One experiment; prints the metrics and optionally saves JSON.
``compare``
    Several managers on the identical workload trace, side by side.
``figures``
    Regenerate a paper figure's series (7, 8, 9 or 10).
``scenarios``
    The worked micro-examples (Fig. 1, 3, 4/5) with exact expected numbers.
``chaos``
    Fault-injection sweep: the same seeded fault plan replayed against
    every manager at increasing fault rates.  ``--smoke`` is the CI gate.
``sweep``
    General config-grid sweep (Cartesian product of ``--grid`` fields)
    with CSV/JSON output.
Multi-cell commands (``chaos``, ``validate``, ``sweep``) take
``--jobs N`` to fan their independent cells out across worker processes;
the merged output is byte-identical to ``--jobs 1``.
``trace``
    One fully traced run (optionally under a chaos fault plan), exported as
    Chrome/Perfetto ``trace_event`` JSON — open the file in
    ``ui.perfetto.dev``.  ``--smoke`` is the observability CI gate.
``report``
    Render a metrics-snapshot scoreboard with SLO verdicts, or diff two
    snapshots with per-metric tolerances (nonzero exit on drift).
    ``--smoke`` is the metrics CI gate: a fixed chaos run with the
    registry on, SLOs evaluated and the Prometheus exposition
    round-tripped.

Examples::

    python -m repro run --manager custody --workload sort --nodes 50
    python -m repro compare --managers standalone,custody,yarn --nodes 25
    python -m repro figures --figure 7 --jobs-per-app 8
    python -m repro scenarios
    python -m repro chaos --levels 0,1,2 --nodes 20 --detector-timeout 15
    python -m repro chaos --smoke --jobs 4
    python -m repro sweep --grid manager=standalone,custody --grid num_nodes=25,50 --jobs 4
    python -m repro trace --manager custody --faults 1 --out run.trace.json --summary
    python -m repro run --nodes 20 --metrics run.metrics.json
    python -m repro report run.metrics.json --prom run.prom
    python -m repro report --diff base.metrics.json pr.metrics.json --tolerance 0.05
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.common.units import GB
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import result_to_dict, save_result
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    fig1_motivating_example,
    fig3_interapp_example,
    fig45_intraapp_example,
)
from repro.metrics.report import comparison_table, format_table
from repro.metrics.utilization import analyze_utilization

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Custody (CLUSTER 2016) reproduction: data-aware resource sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="wordcount",
                       choices=["pagerank", "wordcount", "sort"])
        p.add_argument("--nodes", type=int, default=50, help="cluster size")
        p.add_argument("--apps", type=int, default=4, help="applications")
        p.add_argument("--jobs-per-app", type=int, default=8,
                       dest="jobs_per_app", help="jobs per application")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delay-wait", type=float, default=3.0,
                       help="delay-scheduling locality wait (s)")
        p.add_argument("--replication", type=int, default=3)
        p.add_argument("--cache-gb", type=float, default=0.0,
                       help="in-memory block cache per node (GB)")
        p.add_argument("--kmn", type=float, default=None,
                       help="KMN fraction of inputs required (0,1]")
        p.add_argument("--speculation", action="store_true",
                       help="enable speculative execution")
        p.add_argument("--per-event-alloc", action="store_true",
                       help="run one allocation round per job boundary instead "
                            "of coalescing same-instant boundaries")

    def add_jobs_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes to shard the sweep's cells "
                            "across (1 = run inline; output is identical "
                            "either way)")

    def add_trace_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="also export a Chrome/Perfetto trace of the run "
                            "(open in ui.perfetto.dev); multi-run commands "
                            "insert the manager/level into the filename")

    run_p = sub.add_parser("run", help="run one experiment")
    add_common(run_p)
    add_trace_flag(run_p)
    run_p.add_argument("--manager", default="custody",
                       choices=["custody", "standalone", "yarn", "mesos"])
    run_p.add_argument("--save", metavar="PATH", default=None,
                       help="write the result as JSON")
    run_p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", dest="json_out",
                       help="emit the full result payload as JSON "
                            "(to stdout, or to PATH when given)")
    run_p.add_argument("--utilization", action="store_true",
                       help="also print a slot-utilization report")
    run_p.add_argument("--perf", action="store_true",
                       help="also print network hot-path perf counters")
    run_p.add_argument("--metrics", metavar="PATH", default=None,
                       dest="metrics_out",
                       help="attach the metrics registry and write its JSON "
                            "snapshot to PATH (render with 'repro report')")

    cmp_p = sub.add_parser("compare", help="compare managers on one trace")
    add_common(cmp_p)
    add_trace_flag(cmp_p)
    cmp_p.add_argument("--managers", default="standalone,custody",
                       help="comma-separated manager list")
    cmp_p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", dest="json_out",
                       help="emit per-manager result payloads as JSON "
                            "(to stdout, or to PATH when given)")

    fig_p = sub.add_parser("figures", help="regenerate a paper figure")
    fig_p.add_argument("--figure", required=True, choices=["7", "8", "9", "10"])
    fig_p.add_argument("--jobs-per-app", type=int, default=8, dest="jobs_per_app")
    fig_p.add_argument("--apps", type=int, default=4)
    fig_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("scenarios", help="run the worked micro-examples")

    chaos_p = sub.add_parser(
        "chaos", help="fault-injection sweep: same fault plan, every manager"
    )
    add_common(chaos_p)
    add_trace_flag(chaos_p)
    chaos_p.add_argument("--managers", default="custody,standalone,yarn,mesos",
                         help="comma-separated manager list")
    chaos_p.add_argument("--levels", default="0,1,2",
                         help="comma-separated fault levels (faults of each kind)")
    chaos_p.add_argument("--detector-timeout", type=float, default=15.0,
                         help="heartbeat failure-detector timeout (s); "
                              "0 = managers see ground truth")
    chaos_p.add_argument("--horizon", type=float, default=300.0,
                         help="fault plan horizon (s)")
    chaos_p.add_argument("--smoke", action="store_true",
                         help="small fixed CI gate: one fault level, all four "
                              "managers, asserts zero lost tasks and visible "
                              "recovery traffic")
    chaos_p.add_argument("--gray", action="store_true",
                         help="gray-failure mode: add link flaps (and, from "
                              "level 2, a correlated rack failure) to each "
                              "plan and enable the robustness stack — "
                              "adaptive detector, circuit breakers, hedging, "
                              "retry budgets, admission control.  With "
                              "--smoke this is the gray-failure CI gate "
                              "(slowdowns + flaps; asserts zero unfinished "
                              "jobs and breaker reconvergence)")
    chaos_p.add_argument("--manager-crash", action="store_true",
                         dest="manager_crash",
                         help="crash-recovery mode: additionally take the "
                              "control plane down (level crashes per plan, "
                              "drawn last) with the checkpoint/lease/WAL "
                              "recovery stack enabled.  With --smoke this "
                              "is the recovery CI gate (asserts every crash "
                              "recovered, no zombie executors survive and "
                              "all jobs finish)")
    chaos_p.add_argument("--json", metavar="PATH", default=None, dest="json_out",
                         help="write the sweep cells (incl. MTTR, detector "
                              "FP/FN, hedge and shed counts) to PATH as JSON")
    add_jobs_flag(chaos_p)

    sweep_p = sub.add_parser(
        "sweep", help="config-grid sweep: Cartesian product of --grid fields"
    )
    add_common(sweep_p)
    sweep_p.add_argument("--manager", default="custody",
                         choices=["custody", "standalone", "yarn", "mesos"])
    sweep_p.add_argument("--grid", action="append", default=None,
                         metavar="FIELD=V1,V2,...", dest="grid_specs",
                         help="config field and the values to try "
                              "(repeatable; values parse as int, then "
                              "float, then string)")
    sweep_p.add_argument("--repeats", type=int, default=1,
                         help="runs per grid point, seeds base..base+N-1")
    sweep_p.add_argument("--csv", metavar="PATH", default=None,
                         help="write the sweep rows as CSV")
    sweep_p.add_argument("--json", nargs="?", const="-", default=None,
                         metavar="PATH", dest="json_out",
                         help="emit the sweep rows as JSON "
                              "(to stdout, or to PATH when given)")
    add_jobs_flag(sweep_p)

    val_p = sub.add_parser(
        "validate",
        help="queueing-theory validation suite: closed forms vs measurement",
    )
    val_p.add_argument("--smoke", action="store_true",
                       help="CI gate: reduced sample sizes")
    val_p.add_argument("--scenario", action="append", default=None,
                       metavar="NAME", dest="scenario_names",
                       help="run only this scenario (repeatable); "
                            "default: all registered scenarios")
    val_p.add_argument("--seed", type=int, default=0)
    val_p.add_argument("--out", metavar="PATH", default="VALIDATION.json",
                       help="pass/fail report artifact path ('' to skip)")
    val_p.add_argument("--list", action="store_true", dest="list_scenarios",
                       help="list registered scenarios and exit")
    add_jobs_flag(val_p)

    trace_p = sub.add_parser(
        "trace", help="one fully traced run, exported for ui.perfetto.dev"
    )
    add_common(trace_p)
    trace_p.add_argument("--manager", default="custody",
                         choices=["custody", "standalone", "yarn", "mesos"])
    trace_p.add_argument("--out", metavar="PATH", default="run.trace.json",
                         help="Chrome trace_event JSON output path")
    trace_p.add_argument("--jsonl", metavar="PATH", default=None,
                         help="also stream raw events to PATH as JSON lines")
    trace_p.add_argument("--summary", action="store_true",
                         help="print the text timeline summary "
                              "(phase breakdown, slowest jobs)")
    trace_p.add_argument("--faults", type=int, default=0,
                         help="chaos fault level to inject (0 = fault-free)")
    trace_p.add_argument("--horizon", type=float, default=300.0,
                         help="fault plan horizon (s)")
    trace_p.add_argument("--detector-timeout", type=float, default=15.0,
                         help="failure-detector timeout (s); 0 = ground truth")
    trace_p.add_argument("--smoke", action="store_true",
                         help="observability CI gate: small chaos run, "
                              "schema-validate the export, require events "
                              "from all five instrumented layers")

    rep_p = sub.add_parser(
        "report", help="render or diff metrics snapshots (SLO scoreboard)"
    )
    rep_p.add_argument("snapshot", nargs="?", default=None,
                       help="metrics snapshot JSON to render "
                            "(from 'repro run --metrics')")
    rep_p.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                       help="compare two snapshots; exits nonzero when any "
                            "metric drifts beyond tolerance")
    rep_p.add_argument("--tolerance", type=float, default=0.05,
                       help="default symmetric relative tolerance for --diff")
    rep_p.add_argument("--tol", action="append", default=None,
                       metavar="PREFIX=TOL",
                       help="per-metric-prefix tolerance override, e.g. "
                            "--tol job_completion_seconds=0.2 (repeatable; "
                            "longest matching prefix wins)")
    rep_p.add_argument("--slo", metavar="PATH", default=None,
                       help="evaluate SLO specs from a JSON file "
                            "({'slos': [...]}); default: built-in smoke "
                            "objectives")
    rep_p.add_argument("--out", metavar="PATH", default=None,
                       help="write the (smoke-run) snapshot JSON to PATH")
    rep_p.add_argument("--prom", metavar="PATH", default=None,
                       help="also write the Prometheus text exposition to PATH")
    rep_p.add_argument("--smoke", action="store_true",
                       help="metrics CI gate: fixed chaos run with the "
                            "registry on, default SLOs evaluated, Prometheus "
                            "exposition round-tripped through the parser")
    rep_p.add_argument("--seed", type=int, default=0)
    return parser


def _config(args: argparse.Namespace, manager: str) -> ExperimentConfig:
    return ExperimentConfig(
        manager=manager,
        workload=args.workload,
        num_nodes=args.nodes,
        num_apps=args.apps,
        jobs_per_app=args.jobs_per_app,
        seed=args.seed,
        delay_wait=args.delay_wait,
        replication=args.replication,
        cache_per_node=args.cache_gb * GB,
        kmn_fraction=args.kmn,
        speculation=args.speculation,
        timeline_enabled=getattr(args, "utilization", False),
        alloc_coalesce=not getattr(args, "per_event_alloc", False),
        perf_counters=getattr(args, "perf", False),
        trace=getattr(args, "trace", None) is not None,
        metrics=getattr(args, "metrics_out", None) is not None,
    )


def _suffixed(path: str, tag: str) -> Path:
    """``run.trace.json`` + ``custody`` -> ``run.trace.custody.json``."""
    p = Path(path)
    return p.with_name(f"{p.stem}.{tag}{p.suffix or '.json'}")


def _write_trace(result, path: str) -> Path:
    from repro.obs.export import write_chrome_trace

    meta = {"manager": result.config.manager, "seed": result.config.seed,
            "workload": result.config.workload}
    return write_chrome_trace(result.trace_events or [], path, other_data=meta)


def _emit_json(payload, dest: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if dest == "-":
        print(text)
    else:
        Path(dest).write_text(text + "\n")
        print(f"json: {dest}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args, args.manager)
    result = run_experiment(config)
    print(comparison_table({args.manager: result.metrics},
                           title=f"{args.workload} on {args.nodes} nodes"))
    print(f"\nallocation rounds: {result.allocation_rounds}"
          f"   simulated time: {result.sim_time:.1f} s")
    if result.speculative_launches:
        print(f"speculative clones: {result.speculative_launches} "
              f"({result.speculative_wins} won)")
    if args.perf and result.perf is not None:
        print(f"network perf: {result.perf.describe()}")
    if args.utilization and result.timeline is not None:
        total_slots = (
            config.num_nodes * config.executors_per_node * config.executor_slots
        )
        print("\n" + analyze_utilization(result.timeline, total_slots).describe())
    if args.save:
        path = save_result(result, args.save)
        print(f"\nsaved: {path}")
    if args.trace:
        print(f"trace: {_write_trace(result, args.trace)}")
    if args.metrics_out and result.registry is not None:
        from repro.obs.exposition import write_snapshot

        snapshot = result.registry.snapshot(
            meta={"seed": config.seed, "manager": config.manager,
                  "workload": config.workload},
            timeseries=result.sampler.as_dict() if result.sampler else None,
        )
        print(f"metrics: {write_snapshot(snapshot, args.metrics_out)}")
    if args.json_out:
        _emit_json(result_to_dict(result), args.json_out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    managers = [m.strip() for m in args.managers.split(",") if m.strip()]
    results = {}
    for manager in managers:
        results[manager] = run_experiment(_config(args, manager))
    print(comparison_table(
        {m: r.metrics for m, r in results.items()},
        title=f"{args.workload} on {args.nodes} nodes (common trace)",
    ))
    if args.trace:
        for manager, result in results.items():
            print(f"trace: {_write_trace(result, str(_suffixed(args.trace, manager)))}")
    if args.json_out:
        _emit_json({m: result_to_dict(r) for m, r in results.items()},
                   args.json_out)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import (
        figure7_locality,
        figure8_jct,
        figure9_input_stage,
        figure10_scheduler_delay,
    )

    scale = dict(jobs_per_app=args.jobs_per_app, num_apps=args.apps, seed=args.seed)
    if args.figure == "7":
        rows = figure7_locality(**scale)
        print(format_table(
            ["cluster", "workload", "spark loc%", "custody loc%", "gain%"],
            [[r["cluster_size"], r["workload"], 100 * r["spark_locality"],
              100 * r["custody_locality"], 100 * r["gain"]] for r in rows],
            title="Fig. 7 — % local input tasks",
        ))
    elif args.figure == "8":
        rows = figure8_jct(**scale)
        print(format_table(
            ["cluster", "workload", "spark JCT", "custody JCT", "reduction%"],
            [[r["cluster_size"], r["workload"], r["spark_jct"], r["custody_jct"],
              100 * r["reduction"]] for r in rows],
            title="Fig. 8 — average job completion time (s)",
        ))
    elif args.figure == "9":
        rows = figure9_input_stage(**scale)
        print(format_table(
            ["workload", "spark input stage", "custody input stage"],
            [[r["workload"], r["spark_input_stage"], r["custody_input_stage"]]
             for r in rows],
            title="Fig. 9 — input-stage time, 100 nodes (s)",
        ))
    else:
        rows = figure10_scheduler_delay(**scale)
        print(format_table(
            ["cluster", "spark delay", "custody delay"],
            [[r["cluster_size"], r["spark_delay"], r["custody_delay"]]
             for r in rows],
            title="Fig. 10 — scheduler delay (s)",
        ))
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    fig1 = fig1_motivating_example()
    print(format_table(
        ["app", "data-unaware", "data-aware"],
        [[a, fig1.data_unaware[a], fig1.data_aware[a]]
         for a in sorted(fig1.data_unaware)],
        title="Fig. 1 — motivating example",
    ))
    fig3 = fig3_interapp_example()
    print("\n" + format_table(
        ["app", "naive fair", "locality fair"],
        [[a, fig3.naive_fair[a], fig3.locality_fair[a]]
         for a in sorted(fig3.naive_fair)],
        title="Fig. 3 — inter-application strategies",
    ))
    fig45 = fig45_intraapp_example()
    print("\n" + format_table(
        ["strategy", "avg JCT"],
        [["fairness-based", fig45.fairness_avg],
         ["priority-based", fig45.priority_avg]],
        title="Fig. 5 — intra-application strategies (paper: 2.0 vs 1.25)",
    ))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.smoke:
        # Fixed small gate: ignore the sizing flags so CI always runs the
        # same scenario (>= 1 node failure + >= 1 partition, stale views on).
        args.nodes, args.apps, args.jobs_per_app = 12, 2, 2
        args.workload, args.seed = "wordcount", args.seed
        levels, managers = [1], ["custody", "standalone", "yarn", "mesos"]
        detector_timeout: Optional[float] = 10.0
        horizon = 40.0  # short enough that faults overlap the running jobs
        if args.gray:
            # Gray gate: level 2 adds flaps + a correlated rack failure on
            # top of the classic kinds, robustness stack fully on.
            levels = [2]
        if args.manager_crash:
            # Recovery gate: a longer horizon so the outage (5-15% of it)
            # overlaps running jobs and recovery completes on-trace.
            horizon = 60.0
    else:
        try:
            levels = [int(x) for x in args.levels.split(",") if x.strip()]
        except ValueError:
            print(f"error: --levels expects comma-separated integers, "
                  f"got {args.levels!r}", file=sys.stderr)
            return 2
        managers = [m.strip() for m in args.managers.split(",") if m.strip()]
        detector_timeout = args.detector_timeout if args.detector_timeout > 0 else None
        horizon = args.horizon
    base = replace(
        _config(args, "custody"),
        detector_timeout=detector_timeout,
        perf_counters=True,
    )
    if args.gray:
        # Gray-failure mode brings the whole robustness stack online.  The
        # short breaker cooldown lets recovered nodes earn their way back
        # (half-open probes) while the run still has work to probe with.
        base = replace(
            base,
            detector_mode="adaptive",
            circuit_breaker=True,
            hedging=True,
            retry_jitter=True,
            retry_budget=32,
            retry_refill=0.5,
            admission_control=True,
            blacklist_timeout=10.0,
        )
    if args.manager_crash:
        # Crash-recovery mode: checkpointed control plane with leases.  A
        # generous lease keeps restarts work-preserving; the short renewal
        # interval is what the closed-form expiry math ticks on.
        base = replace(
            base,
            manager_recovery=True,
            lease_duration=120.0,
            lease_renew_interval=5.0,
            checkpoint_interval=15.0,
            reconciliation_window=2.0,
        )
    from repro.experiments.parallel import run_chaos_sweep

    sweep = run_chaos_sweep(
        base, levels=levels, managers=managers, horizon=horizon,
        gray=args.gray, manager_crash=args.manager_crash,
        jobs=args.jobs, trace_template=args.trace,
    )
    # Cross-cell consumers (traces, JSON, gate) read the per-cell worker
    # payloads in (manager, level) order — the order the serial loop over
    # ``sorted(sweep.results.items())`` used to produce.
    by_manager = sorted(sweep.payloads, key=lambda p: (p["manager"], p["level"]))
    if args.trace:
        for payload in by_manager:
            print(f"trace: {payload['trace_path']}")
    headers = ["manager", "level", "loc%", "min loc%", "avg JCT", "requeued",
               "failed att.", "abandoned", "data loss", "dead launch",
               "recovery flows", "blacklists", "unfinished"]
    rows = [[c.manager, c.level, 100 * c.locality, 100 * c.min_locality,
             c.avg_jct if c.avg_jct is not None else float("nan"),
             c.tasks_requeued, c.failed_attempts, c.abandoned_tasks,
             c.data_loss_tasks, c.failed_launches, c.recovery_flows,
             c.blacklist_events, c.unfinished_jobs] for c in sweep.cells]
    if args.gray:
        headers += ["FP", "FN", "hedges", "hedge wins", "denied",
                    "breaker opens", "open@end", "deferred", "shed"]
        for row, c in zip(rows, sweep.cells):
            row += [c.detector_false_positives, c.detector_false_negatives,
                    c.hedges_launched, c.hedges_won, c.retries_denied,
                    c.breaker_opens, c.breakers_open_at_end,
                    c.admission_deferred, c.load_shed]
    if args.manager_crash:
        headers += ["crashes", "recovered", "readopted", "lease exp.",
                    "zombies", "buffered", "lease requeue"]
        for row, c in zip(rows, sweep.cells):
            row += [c.manager_crashes, c.manager_recoveries,
                    c.leases_readopted, c.leases_expired,
                    c.zombies_reclaimed, c.submissions_buffered,
                    c.recovery_tasks_requeued]
    print(format_table(
        headers,
        rows,
        title=f"chaos sweep — {args.workload} on {args.nodes} nodes "
              f"(detector timeout: {detector_timeout}"
              f"{', gray-failure mode' if args.gray else ''})",
    ))
    if args.json_out:
        payload = {
            "workload": args.workload,
            "nodes": args.nodes,
            "apps": args.apps,
            "jobs_per_app": args.jobs_per_app,
            "seed": args.seed,
            "horizon": horizon,
            "detector_timeout": detector_timeout,
            "gray": args.gray,
            "manager_crash": args.manager_crash,
            "levels": list(levels),
            "managers": list(managers),
            "cells": [
                {
                    "manager": p["manager"],
                    "level": p["level"],
                    "locality": p["result"]["metrics"]["locality_mean"],
                    "min_locality": p["result"]["metrics"][
                        "min_local_job_fraction"
                    ],
                    "avg_jct": p["result"]["metrics"]["avg_jct"],
                    "unfinished_jobs": p["result"]["metrics"][
                        "unfinished_jobs"
                    ],
                    "sim_time": p["result"]["sim_time"],
                    "faults": p["result"].get("faults"),
                }
                for p in by_manager
            ],
        }
        Path(args.json_out).write_text(json.dumps(payload, indent=2))
        print(f"json: {args.json_out}")
    if not args.smoke:
        return 0

    # CI gate assertions: chaos degrades runs, it must never lose work.
    # The gate reads the persisted worker payloads, so it gates exactly
    # what a parallel run shipped back across the process boundary.
    violations = []
    for p in by_manager:
        manager, level = p["manager"], p["level"]
        metrics = p["result"]["metrics"]
        faults = p["result"].get("faults")
        if metrics["unfinished_jobs"]:
            violations.append(
                f"{manager}/L{level}: {metrics['unfinished_jobs']} "
                "unfinished jobs"
            )
        if p["lost_tasks"]:
            violations.append(
                f"{manager}/L{level}: {p['lost_tasks']} tasks lost untracked"
            )
        if level > 0 and faults is not None and not faults["recovery_flows"]:
            violations.append(f"{manager}/L{level}: no recovery traffic modeled")
        if args.gray and level > 0 and faults is not None:
            if faults["breakers_open_at_end"]:
                violations.append(
                    f"{manager}/L{level}: {faults['breakers_open_at_end']} "
                    "breakers never reconverged to closed"
                )
            if faults["breaker_closes"] > faults["breaker_probes"]:
                violations.append(
                    f"{manager}/L{level}: breaker closed without a "
                    "half-open probe"
                )
        if args.manager_crash and level > 0 and faults is not None:
            if not faults["manager_crashes"]:
                violations.append(
                    f"{manager}/L{level}: no manager crash injected"
                )
            if faults["manager_recoveries"] != faults["manager_crashes"]:
                violations.append(
                    f"{manager}/L{level}: {faults['manager_crashes']} crashes "
                    f"but {faults['manager_recoveries']} completed recoveries"
                )
            if faults["zombies_surviving"]:
                violations.append(
                    f"{manager}/L{level}: {faults['zombies_surviving']} zombie "
                    "executors survived reconciliation"
                )
    if violations:
        print("\nchaos smoke FAILED:", file=sys.stderr)
        for v in violations:
            print(f"  - {v}", file=sys.stderr)
        return 1
    if args.manager_crash:
        print("\nrecovery chaos smoke passed: every manager crash recovered "
              "work-preservingly, no zombie executors survived, all jobs "
              "finished.")
    elif args.gray:
        print("\ngray chaos smoke passed: all jobs finished under flaps and "
              "correlated failures, every breaker reconverged to closed.")
    else:
        print("\nchaos smoke passed: all jobs finished, every task accounted "
              "for, recovery traffic observed under faults.")
    return 0


def _parse_grid_value(raw: str):
    """``25`` -> int, ``0.5`` -> float, anything else -> the string."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.experiments.sweeps import rows_to_csv, sweep

    if not args.grid_specs:
        print("error: give at least one --grid FIELD=V1,V2,...",
              file=sys.stderr)
        return 2
    grid = {}
    for spec in args.grid_specs:
        field, sep, raw = spec.partition("=")
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not sep or not field or not values:
            print(f"error: --grid expects FIELD=V1,V2,..., got {spec!r}",
                  file=sys.stderr)
            return 2
        grid[field] = [_parse_grid_value(v) for v in values]
    base = _config(args, args.manager)
    try:
        rows = sweep(base, grid, repeats=args.repeats, jobs=args.jobs)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    columns = list(rows[0].keys())
    print(format_table(
        columns,
        [[row[c] for c in columns] for row in rows],
        title=f"sweep — {len(rows)} runs over {sorted(grid)}",
    ))
    if args.csv:
        print(f"csv: {rows_to_csv(rows, args.csv)}")
    if args.json_out:
        _emit_json(rows, args.json_out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import run_validation_suite
    from repro.scenarios import ScenarioProfile, all_scenarios

    if args.list_scenarios:
        for name, scenario in all_scenarios().items():
            suffix = "" if scenario.in_smoke else "  [full-only]"
            print(f"{name:16s} {scenario.title}{suffix}")
        return 0

    report = run_validation_suite(
        args.scenario_names,
        ScenarioProfile(smoke=args.smoke, seed=args.seed),
        jobs=args.jobs,
        progress=lambda label: print(f"  running {label} ..."),
    )

    widths = (16, 8, 6)
    header = ["scenario", "checks", "result"]
    print()
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in report.summary_rows():
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    for result in report.results:
        for check in result.checks:
            if not check.passed:
                print(f"  FAIL {result.name}.{check.name}: "
                      f"measured={check.measured:.6g} "
                      f"expected={check.expected:.6g}  ({check.detail})",
                      file=sys.stderr)

    if args.out:
        Path(args.out).write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"\nreport: {args.out}")
    total = sum(len(r.checks) for r in report.results)
    failed = sum(
        1 for r in report.results for c in r.checks if not c.passed
    )
    if report.passed:
        print(f"validate passed: {total} checks across "
              f"{len(report.results)} scenario runs, closed forms within "
              "tolerance.")
        return 0
    print(f"\nvalidate FAILED: {failed}/{total} checks out of band.",
          file=sys.stderr)
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.faults.chaos import build_chaos_plan
    from repro.obs.events import LAYERS
    from repro.obs.export import chrome_trace, validate_chrome_trace
    from repro.obs.sinks import JsonlSink, RingSink
    from repro.obs.tracer import Tracer

    if args.smoke:
        # Same fixed scenario as the chaos gate so CI always traces a run
        # with real faults, recovery traffic and all five layers active.
        args.nodes, args.apps, args.jobs_per_app = 12, 2, 2
        args.workload = "wordcount"
        args.faults = max(args.faults, 1)
        args.horizon, args.detector_timeout = 40.0, 10.0
    detector_timeout = args.detector_timeout if args.detector_timeout > 0 else None
    config = replace(
        _config(args, args.manager),
        trace=True,
        detector_timeout=detector_timeout,
    )
    fault_plan = None
    if args.faults > 0:
        rng = np.random.default_rng([config.seed, 7919, args.faults])
        fault_plan = build_chaos_plan(
            config.num_nodes, config.executors_per_node, rng,
            node_failures=args.faults, partitions=args.faults,
            degradations=args.faults, executor_failures=args.faults,
            slowdowns=args.faults, horizon=args.horizon,
        )

    ring = RingSink()
    sinks = [ring]
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    tracer = Tracer(sinks=sinks)
    result = run_experiment(config, fault_plan=fault_plan, tracer=tracer)
    tracer.close()
    events = ring.events()

    meta = {"manager": args.manager, "seed": config.seed,
            "workload": config.workload, "faults": args.faults}
    data = chrome_trace(events, other_data=meta)
    Path(args.out).write_text(json.dumps(data))

    counts = {layer: 0 for layer in LAYERS}
    for event in events:
        counts[event.cat] = counts.get(event.cat, 0) + 1
    print(f"trace: {args.out}  ({len(events)} events"
          f"{f', {ring.dropped} dropped' if ring.dropped else ''})")
    print("  " + "   ".join(f"{layer}: {counts[layer]}" for layer in LAYERS))
    if args.jsonl:
        print(f"jsonl: {args.jsonl}")
    print(f"simulated time: {result.sim_time:.1f} s   "
          f"finished jobs: {result.metrics.finished_jobs}")

    if args.summary:
        from repro.obs.report import trace_summary

        print("\n" + trace_summary(events, dropped=ring.dropped))

    problems = validate_chrome_trace(data)
    missing = [layer for layer in LAYERS if not counts[layer]]
    if args.smoke and (problems or missing):
        print("\ntrace smoke FAILED:", file=sys.stderr)
        for p in problems[:20]:
            print(f"  - schema: {p}", file=sys.stderr)
        for layer in missing:
            print(f"  - no events from layer {layer!r}", file=sys.stderr)
        return 1
    if args.smoke:
        print("\ntrace smoke passed: export validates against the schema, "
              "all five layers emitted events.")
    elif problems:
        print(f"\nwarning: export has {len(problems)} schema problems",
              file=sys.stderr)
    return 0


def _parse_tol_overrides(entries: Optional[Sequence[str]]) -> dict:
    overrides = {}
    for entry in entries or []:
        prefix, sep, raw = entry.partition("=")
        if not sep or not prefix:
            raise ValueError(
                f"--tol expects PREFIX=TOLERANCE, got {entry!r}"
            )
        overrides[prefix] = float(raw)
    return overrides


def _report_smoke_snapshot(seed: int) -> dict:
    """Run the fixed chaos scenario with the registry on; return a snapshot.

    Mirrors the ``trace --smoke`` scenario so the metrics gate measures a
    run with real faults, recovery traffic and all five layers active —
    plus one manager crash, so the recovery SLOs (restart duration, zero
    zombie survivors) gate a restart that actually happened.
    """
    import numpy as np

    from repro.faults.chaos import build_chaos_plan

    config = ExperimentConfig(
        manager="custody",
        workload="wordcount",
        num_nodes=12,
        num_apps=2,
        jobs_per_app=2,
        seed=seed,
        detector_timeout=10.0,
        metrics=True,
        trace=True,
        manager_recovery=True,
        lease_duration=120.0,
        lease_renew_interval=5.0,
        checkpoint_interval=15.0,
        reconciliation_window=2.0,
    )
    rng = np.random.default_rng([config.seed, 7919, 1])
    fault_plan = build_chaos_plan(
        config.num_nodes, config.executors_per_node, rng,
        node_failures=1, partitions=1, degradations=1,
        executor_failures=1, slowdowns=1, manager_crashes=1, horizon=40.0,
    )
    result = run_experiment(config, fault_plan=fault_plan)
    assert result.registry is not None
    return result.registry.snapshot(
        meta={"seed": config.seed, "manager": config.manager,
              "workload": config.workload, "smoke": True},
        timeseries=result.sampler.as_dict() if result.sampler else None,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_snapshots, render_scoreboard
    from repro.obs.exposition import (
        load_snapshot,
        parse_prometheus,
        to_prometheus,
        write_snapshot,
    )
    from repro.obs.slo import default_slos, evaluate_slos, load_slo_specs

    if args.diff:
        try:
            overrides = _parse_tol_overrides(args.tol)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        a, b = (load_snapshot(p) for p in args.diff)
        report = diff_snapshots(
            a, b, tolerance=args.tolerance, overrides=overrides
        )
        print(report.describe())
        return 0 if report.passed else 1

    if args.smoke:
        snapshot = _report_smoke_snapshot(args.seed)
    elif args.snapshot:
        snapshot = load_snapshot(args.snapshot)
    else:
        print("error: give a snapshot path, --diff A B, or --smoke",
              file=sys.stderr)
        return 2

    print(render_scoreboard(snapshot))
    specs = (
        load_slo_specs(args.slo) if args.slo
        else default_slos(include_recovery=args.smoke)
    )
    slo_report = evaluate_slos(specs, snapshot)
    print()
    print(slo_report.describe())

    exposition = to_prometheus(snapshot)
    if args.out:
        print(f"\nsnapshot: {write_snapshot(snapshot, args.out)}")
    if args.prom:
        Path(args.prom).write_text(exposition)
        print(f"prometheus: {args.prom}")

    if args.smoke:
        problems = []
        if not slo_report.passed:
            problems.extend(
                f"SLO failed: {v.describe()}"
                for v in slo_report.verdicts if not v.passed
            )
        parsed = parse_prometheus(exposition)
        exported = {m["name"] for m in snapshot["metrics"]}
        if set(parsed) != exported:
            problems.append(
                "Prometheus round-trip lost families: "
                f"{sorted(exported ^ set(parsed))}"
            )
        required = {
            "alloc_rounds_total",          # managers
            "task_launches_total",         # driver
            "net_rate_recomputes_total",   # network engines
            "faults_injected_total",       # faults/detector
            "job_arrivals_total",          # workload/queue
            "manager_crashes_total",       # crash-recovery stack
        }
        missing = sorted(required - exported)
        if missing:
            problems.append(f"no metrics from layers: {missing}")
        if problems:
            print("\nmetrics smoke FAILED:", file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        print("\nmetrics smoke passed: every instrumented layer exported, "
              "SLOs met, exposition round-trips through the parser.")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figures": _cmd_figures,
        "scenarios": _cmd_scenarios,
        "chaos": _cmd_chaos,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
        "trace": _cmd_trace,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
