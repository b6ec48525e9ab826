"""Scaling bench — incremental rate engine vs full-recompute reference.

Times per-event rate reallocation under flow churn at 10²–10⁵ concurrent
flows (see :mod:`netbench` for the workload model) and
verifies the two allocators produce identical rate vectors.

Three entry points:

* ``pytest benchmarks/bench_network_scale.py`` — the ``bench``-marked test
  runs the 10²–10⁴ trajectory and asserts the acceptance floor (≥5× at 10⁴
  concurrent flows);
* ``python benchmarks/bench_network_scale.py --smoke`` — the CI perf gate:
  a small fixed point with a conservative speedup floor, plus one
  all-to-all component timing the max-min kernel against its NumPy oracle
  (``tests/numpy_maxmin.py``, so the repository root must be importable);
  exits non-zero on regression;
* ``python benchmarks/bench_network_scale.py [--full]`` — the printable
  trajectory (``--full`` extends to 10⁵ flows), written to
  ``BENCH_network.json``.
"""

import argparse
import sys
import time

import pytest

from common import emit
from netbench import make_workload, run_scale_bench, write_trajectory

from repro.metrics.report import format_table
from repro.network.bandwidth import maxmin_rates
from tests.numpy_maxmin import numpy_maxmin_rates

#: CI smoke gate: at this scale the component recompute must beat the full
#: recompute by at least this factor.  The measured margin is ~8x (both sides
#: run the same kernel), so the floor only trips on a genuine algorithmic
#: regression, not scheduler noise.
SMOKE_FLOWS = 2000
SMOKE_EVENTS = 15
SMOKE_MIN_SPEEDUP = 2.0

#: One-component point: all-to-all flows over these nodes fuse into a single
#: component, which component tracking cannot shrink (the contended-shuffle
#: regime), so each solve is one full kernel call.  The kernel must match the
#: NumPy oracle bit for bit and beat it by this factor (measured ~6x).
KERNEL_FLOWS = 480
KERNEL_NODES = 100
KERNEL_SOLVES = 20
KERNEL_MIN_SPEEDUP = 2.0

#: Acceptance floor: >=5x at 10^4 concurrent flows.
ACCEPTANCE_FLOWS = 10_000
ACCEPTANCE_MIN_SPEEDUP = 5.0


def _emit_points(points) -> None:
    emit(format_table(
        ["flows", "nodes", "reference s", "incremental s", "speedup",
         "flows/recompute"],
        [[p.flows, p.nodes, p.reference_seconds, p.incremental_seconds,
          p.speedup, p.mean_component] for p in points],
        title="rate-engine scaling (equal-rate checked per point)",
    ))


@pytest.mark.bench
@pytest.mark.slow
def test_bench_network_scale():
    """Trajectory through 10^4 flows; asserts the acceptance speedup floor."""
    points = run_scale_bench([100, 1000, ACCEPTANCE_FLOWS], events=20)
    _emit_points(points)
    write_trajectory(points)
    top = points[-1]
    assert top.flows == ACCEPTANCE_FLOWS
    assert top.speedup >= ACCEPTANCE_MIN_SPEEDUP, (
        f"incremental engine only {top.speedup:.1f}x faster at {top.flows} flows "
        f"(need >= {ACCEPTANCE_MIN_SPEEDUP}x)"
    )


def _timed_solves(solve, flows, caps):
    """Total seconds of :data:`KERNEL_SOLVES` solves, and the rates as hex."""
    started = time.perf_counter()
    for _ in range(KERNEL_SOLVES):
        rates = solve(flows, caps)
    return time.perf_counter() - started, [rate.hex() for rate in rates]


def kernel_point():
    """Time the kernel and the NumPy oracle on one all-to-all component.

    Returns ``(kernel_seconds, oracle_seconds, bitwise_equal)``.
    """
    workload = make_workload(
        KERNEL_FLOWS, events=0, nodes=KERNEL_NODES, pod_size=None
    )
    flows, caps = list(workload.initial), workload.capacities
    oracle_s, oracle_hex = _timed_solves(numpy_maxmin_rates, flows, caps)
    kernel_s, kernel_hex = _timed_solves(maxmin_rates, flows, caps)
    return kernel_s, oracle_s, kernel_hex == oracle_hex


def smoke() -> int:
    """CI perf gate: two modest points, conservative floors, loud verdict."""
    points = run_scale_bench([SMOKE_FLOWS], events=SMOKE_EVENTS)
    point = points[0]
    print(
        f"smoke: {point.flows} flows, {point.events} events — "
        f"reference {point.reference_seconds:.3f}s, "
        f"incremental {point.incremental_seconds:.3f}s, "
        f"speedup {point.speedup:.1f}x "
        f"(gate {SMOKE_MIN_SPEEDUP}x), max rate delta {point.max_abs_rate_delta:g}"
    )
    kernel_s, oracle_s, bitwise = kernel_point()
    kernel_speedup = oracle_s / kernel_s
    print(
        f"smoke: one component, {KERNEL_FLOWS} flows over {KERNEL_NODES} nodes, "
        f"{KERNEL_SOLVES} solves — numpy oracle {oracle_s:.3f}s, "
        f"kernel {kernel_s:.3f}s, speedup {kernel_speedup:.1f}x "
        f"(gate {KERNEL_MIN_SPEEDUP}x), bitwise equal {bitwise}"
    )
    failed = 0
    if point.speedup < SMOKE_MIN_SPEEDUP:
        print("PERF REGRESSION: incremental engine lost its edge", file=sys.stderr)
        failed = 1
    if not bitwise:
        print("MISMATCH: kernel rates differ from the NumPy oracle", file=sys.stderr)
        failed = 1
    if kernel_speedup < KERNEL_MIN_SPEEDUP:
        print("PERF REGRESSION: kernel lost its edge over the oracle", file=sys.stderr)
        failed = 1
    if not failed:
        print("smoke ok")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI perf gate")
    parser.add_argument("--full", action="store_true",
                        help="extend the trajectory to 10^5 flows")
    parser.add_argument("--events", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_network.json")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    counts = [100, 1000, 10_000] + ([100_000] if args.full else [])
    points = run_scale_bench(counts, events=args.events, seed=args.seed)
    for p in points:
        print(f"flows={p.flows:>7} nodes={p.nodes:>6} "
              f"ref={p.reference_seconds:.4f}s inc={p.incremental_seconds:.4f}s "
              f"speedup={p.speedup:.1f}x flows/recompute={p.mean_component:.1f}")
    if args.out:
        print(f"saved: {write_trajectory(points, args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
