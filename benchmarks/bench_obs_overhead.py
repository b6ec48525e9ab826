"""Observability overhead bench — metrics-on vs metrics-off CPU time.

The registry's contract is "observe, never perturb": the same trajectory
(checked per pair) and near-zero cost.  This bench times the identical
experiment dark and lit in interleaved pairs, each run in this process's
own CPU time (so time spent waiting for a core on a shared host is not
charged to either), and gates the median of the per-pair lit/dark ratios.

Three entry points:

* ``pytest benchmarks/bench_obs_overhead.py`` — the ``bench``-marked test
  runs the two-point trajectory and asserts the <5% acceptance ceiling;
* ``python benchmarks/bench_obs_overhead.py --smoke`` — the CI perf gate:
  one point, same ceiling, exits non-zero on regression;
* ``python benchmarks/bench_obs_overhead.py`` — prints the trajectory and
  writes ``BENCH_obs.json``.
"""

import argparse
import json
import sys
import time
from statistics import median
from dataclasses import dataclass, replace
from typing import List, Sequence

import pytest

from common import emit, paper_config

from repro.experiments.runner import run_experiment
from repro.metrics.report import format_table

#: Acceptance ceiling from the issue: metrics-on may cost at most this
#: fraction of the dark run's wall time.  Measured overhead is ~1-2%, so
#: the gate only trips on a genuinely hot instrument.
MAX_OVERHEAD = 0.05

#: (workload, nodes, apps, jobs/app) points; the smoke gate uses the first.
#: Points are sized so a single run takes >0.5s — shorter runs put timer
#: noise in the same decade as the overhead being measured (dark runs take
#: 0.7-1.1 s and 0.75-0.95 s on a shared 2-core x86-64 host).
TRAJECTORY = [
    ("wordcount", 50, 4, 24),
    ("sort", 50, 4, 30),
]
#: Interleaved pairs per point.  The true overhead is ~1%, but on a shared
#: 2-core host single-run CPU times of the smoke point spread 0.39-0.71 s
#: and single-pair ratios by +-10%.  The paired ratio cancels drift that
#: hits both runs of a pair and its median sheds the pairs a neighbour
#: disturbed.  Over sliding windows of a 72-pair sample the median of 12
#: ratios still crossed 5% in 8 of 61 windows (a best-3-of-12 estimate on
#: the same CPU times: 17 of 61); the median of 20 crossed it in none of
#: 53 (spread of the estimate 0.017).
REPEATS = 20


@dataclass
class OverheadPoint:
    workload: str
    nodes: int
    apps: int
    jobs_per_app: int
    repeats: int
    dark_seconds: float
    lit_seconds: float
    overhead: float
    metric_families: int
    lockstep: bool


def _cpu_run(config) -> float:
    """CPU seconds this process spends on one experiment."""
    start = time.process_time()
    run_experiment(config)
    return time.process_time() - start


def measure_point(workload: str, nodes: int, apps: int, jobs: int,
                  repeats: int = REPEATS, seed: int = 0) -> OverheadPoint:
    dark_cfg = paper_config(workload, nodes, "custody", num_apps=apps,
                            jobs_per_app=jobs, seed=seed)
    lit_cfg = replace(dark_cfg, metrics=True)

    # One unmeasured pair warms allocators and import-time caches, and
    # proves the lockstep property on this exact point.
    dark_result = run_experiment(dark_cfg)
    lit_result = run_experiment(lit_cfg)
    lockstep = (dark_result.metrics == lit_result.metrics
                and dark_result.sim_time == lit_result.sim_time)

    # Interleave the pairs, alternating which variant runs first so neither
    # always inherits the other's warm caches, and take the median of the
    # per-pair ratios: drift hits both runs of a pair alike and cancels in
    # the ratio, and one disturbed pair cannot move the median.
    darks, lits = [], []
    for i in range(repeats):
        if i % 2:
            lits.append(_cpu_run(lit_cfg))
            darks.append(_cpu_run(dark_cfg))
        else:
            darks.append(_cpu_run(dark_cfg))
            lits.append(_cpu_run(lit_cfg))
    overhead = median(lit / dark for dark, lit in zip(darks, lits)) - 1.0
    return OverheadPoint(
        workload=workload, nodes=nodes, apps=apps, jobs_per_app=jobs,
        repeats=repeats, dark_seconds=median(darks), lit_seconds=median(lits),
        overhead=overhead,
        metric_families=len(lit_result.registry.snapshot()["metrics"]),
        lockstep=lockstep,
    )


def write_trajectory(points: Sequence[OverheadPoint],
                     path: str = "BENCH_obs.json") -> str:
    payload = {
        "benchmark": "metrics_registry_overhead",
        "format_version": 1,
        "max_overhead": MAX_OVERHEAD,
        "points": [
            {k: getattr(p, k) for k in (
                "workload", "nodes", "apps", "jobs_per_app", "repeats",
                "dark_seconds", "lit_seconds", "overhead",
                "metric_families", "lockstep")}
            for p in points
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _emit_points(points: Sequence[OverheadPoint]) -> None:
    emit(format_table(
        ["workload", "nodes", "apps", "jobs/app", "dark s", "lit s",
         "overhead", "families", "lockstep"],
        [[p.workload, p.nodes, p.apps, p.jobs_per_app,
          p.dark_seconds, p.lit_seconds, f"{p.overhead:+.1%}",
          p.metric_families, p.lockstep] for p in points],
        title="metrics registry overhead (median of %d paired CPU-time ratios, "
        "lockstep checked)" % REPEATS,
    ))


def _run(points_spec) -> List[OverheadPoint]:
    return [measure_point(*spec) for spec in points_spec]


@pytest.mark.bench
@pytest.mark.slow
@pytest.mark.metrics
def test_bench_obs_overhead():
    """Both trajectory points stay under the overhead ceiling, in lockstep."""
    points = _run(TRAJECTORY)
    _emit_points(points)
    write_trajectory(points)
    for p in points:
        assert p.lockstep, f"metrics perturbed the {p.workload} trajectory"
        assert p.overhead < MAX_OVERHEAD, (
            f"metrics overhead {p.overhead:.1%} on {p.workload}/{p.nodes} "
            f"nodes (ceiling {MAX_OVERHEAD:.0%})"
        )


def smoke() -> int:
    """CI perf gate: one point, hard ceiling, loud verdict."""
    point = measure_point(*TRAJECTORY[0])
    print(
        f"smoke: {point.workload} x{point.nodes} nodes — "
        f"dark {point.dark_seconds:.3f}s, lit {point.lit_seconds:.3f}s CPU (medians), "
        f"overhead {point.overhead:+.1%} (ceiling {MAX_OVERHEAD:.0%}), "
        f"{point.metric_families} families, lockstep: {point.lockstep}"
    )
    if not point.lockstep:
        print("REGRESSION: metrics changed the simulated trajectory",
              file=sys.stderr)
        return 1
    if point.overhead >= MAX_OVERHEAD:
        print("PERF REGRESSION: metrics registry is no longer cheap",
              file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI perf gate")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    points = [measure_point(*spec, repeats=args.repeats) for spec in TRAJECTORY]
    for p in points:
        print(f"{p.workload:>10} nodes={p.nodes:>3} apps={p.apps} "
              f"jobs/app={p.jobs_per_app} dark={p.dark_seconds:.3f}s "
              f"lit={p.lit_seconds:.3f}s overhead={p.overhead:+.1%} "
              f"families={p.metric_families} lockstep={p.lockstep}")
    if args.out:
        print(f"saved: {write_trajectory(points, args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
