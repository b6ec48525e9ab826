"""Repeat the benchmark and report how steady each metric is.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--seconds 30]
                                    [--out FILE]

Runs ``run.py --trace 0`` once per (workload, seed), one after another, and
prints per end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread ``(q3 - q1) / median`` — the figure the benchmark's bounds are
checked against.  Beside each run it keeps the host-speed diagnostic: the
cost of the companion's fixed loop (hostclock.py) at the start and end of
each lane, which shows how much the host moved under the run.  It is a
diagnostic, never a metric.

``--out`` writes every run's metrics and probes plus the summary as JSON;
``bounds_from`` turns such summaries into suggested bounds: three times the
widest spread seen on any workload in any set, rounded up to 0.01, clamped
to [0.01, 0.25]; ``setup_s`` always gets the largest bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_BOUND = 0.25


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    probes = [[float(part.split("=")[1]) for part in line.split()[2:4]]
              for line in lines if line.startswith("host_probe_ms")]
    detail = [line for line in lines if line.startswith("perfbench-detail ")]
    experiments = json.loads(detail[0].split(" ", 1)[1])["experiments"] if detail else []
    keep = ("seed", "setup_ref_s", "setup_wall_s", "run_ref_s", "run_wall_s", "attempts",
            "events", "peak_rss_mb")
    return {"seed": seed, "correct": result["correct"], "elapsed_s": elapsed, "probe_ms": probes,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()},
            "experiments": [{k: e.get(k) for k in keep} for e in experiments]}


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` as the bound check computes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median if median else 0.0)


def summarize(runs) -> dict:
    names = list(runs[0]["metrics"])
    out = {}
    for name in names:
        median, q1, q3, share = spread([r["metrics"][name] for r in runs])
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                     "unit": runs[0]["units"][name]}
    wall = [statistics.fmean(e["run_wall_s"] for e in r["experiments"] if e["run_wall_s"])
            for r in runs]
    out["raw run wall (diagnostic)"] = dict(zip(("median", "q1", "q3", "spread"), spread(wall)),
                                            unit="s")
    return out


def bounds_from(summaries) -> dict:
    """Suggested bounds: 3x the widest spread in any summary, see module doc."""
    widest: dict = {}
    for summary in summaries:
        for name, row in summary.items():
            if "diagnostic" not in name:
                widest[name] = max(widest.get(name, 0.0), row["spread"])
    bounds = {}
    for name, share in widest.items():
        bound = math.ceil(round(3 * share / 0.01, 6)) * 0.01
        bounds[name] = (MAX_BOUND if name == "setup_s"
                        else round(min(MAX_BOUND, max(0.01, bound)), 2))
    return bounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="paper_default,contended_shuffle,chaos_recovery")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds)
            runs.append(run)
            probes = " ".join(f"{before:.1f}/{after:.1f}" for before, after in run["probe_ms"])
            print(f"{workload} seed={seed} correct={run['correct']} "
                  f"elapsed_s={run['elapsed_s']:.1f} probe_ms={probes} "
                  + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()), flush=True)
        summary = summarize(runs) if len(runs) > 1 else {}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<28} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, row in summary.items():
            print(f"  {name:<28} {row['unit']:<9} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>8.2%}")
        print(flush=True)
    if all(w["summary"] for w in report["workloads"].values()):
        report["suggested_bounds"] = bounds_from(
            r["summary"] for r in report["workloads"].values())
        print("suggested bounds:", json.dumps(report["suggested_bounds"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    failed = [f"{w} seed {r['seed']}" for w, v in report["workloads"].items()
              for r in v["runs"] if not r["correct"]]
    if failed:
        print("correctness gate failed:", ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
