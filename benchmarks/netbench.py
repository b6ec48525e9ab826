"""Network rate-engine scaling microbenchmark behind ``bench_network_scale.py``.

Measures the per-event cost of rate reallocation under flow churn at
increasing concurrent-flow counts, for both allocators:

* **reference** — the seed behaviour: one full ``maxmin_rates`` recompute
  over every active flow per flow arrival/departure;
* **incremental** — :class:`~repro.network.rate_engine.RateEngine` with
  dirty-link component recomputes.

The synthetic workload mimics the Fig. 7/8 shuffle regime: node count grows
with the flow population (``flows / 8`` nodes) so each NIC carries a bounded
handful of flows and the link-flow graph stays a sea of small components —
exactly the structure the incremental engine exploits.  Every run finishes
with an exact-equivalence check of the two allocators' final rate vectors.

Results serialise to a ``BENCH_network.json`` trajectory file so successive
changes can diff perf; ``benchmarks/bench_network_scale.py --smoke`` gates
CI on a conservative floor.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.collector import PerfCounters
from repro.network.bandwidth import LinkCapacities, maxmin_rates
from repro.network.rate_engine import RateEngine

__all__ = [
    "ChurnWorkload",
    "ScalePoint",
    "make_workload",
    "run_scale_bench",
    "write_trajectory",
]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ChurnWorkload:
    """A reproducible flow-churn script over a fixed node set."""

    capacities: LinkCapacities
    initial: Tuple[Tuple[str, str], ...]  # flows alive before timing starts
    #: Timed operations: ("add", src, dst) or ("remove", index-into-live-list).
    ops: Tuple[Tuple, ...]


@dataclass(frozen=True)
class ScalePoint:
    """One row of the scaling trajectory."""

    flows: int
    nodes: int
    events: int
    reference_seconds: float
    incremental_seconds: float
    speedup: float
    recomputes: int
    flows_touched: int
    mean_component: float
    max_abs_rate_delta: float


def make_workload(
    n_flows: int,
    events: int,
    seed: int = 0,
    nodes: Optional[int] = None,
    pod_size: Optional[int] = 16,
    uplink: float = 2e9,
    downlink: float = 40e9,
) -> ChurnWorkload:
    """Random churn at a steady-state population of ``n_flows`` flows.

    ``pod_size`` models traffic locality: nodes are partitioned into pods of
    that size and every flow stays inside one pod — the shape of real runs,
    where a job's shuffle connects the handful of nodes its application's
    executors occupy.  The link-flow graph then decomposes into many small
    components, which is what the incremental engine exploits.  Pass
    ``pod_size=None`` for unstructured all-to-all traffic: the graph fuses
    into one giant component and incremental recompute degenerates to the
    full-recompute cost (the engine's documented worst case).
    """
    n_nodes = nodes if nodes is not None else max(4, n_flows // 8)
    if pod_size is not None:
        pod_size = min(max(2, pod_size), n_nodes)
    rng = np.random.default_rng(seed)
    caps = LinkCapacities()
    for i in range(n_nodes):
        caps.add_node(f"n{i}", uplink=uplink, downlink=downlink)
    n_pods = (n_nodes // pod_size) if pod_size is not None else 1

    def draw_flow() -> Tuple[str, str]:
        if pod_size is None:
            base, span = 0, n_nodes
        else:
            # The final pod absorbs the remainder nodes.
            pod = int(rng.integers(n_pods))
            base = pod * pod_size
            span = n_nodes - base if pod == n_pods - 1 else pod_size
        src = base + int(rng.integers(span))
        dst = base + int(rng.integers(span - 1))
        if dst >= src:
            dst += 1
        return f"n{src}", f"n{dst}"

    initial = tuple(draw_flow() for _ in range(n_flows))
    ops: List[Tuple] = []
    population = n_flows
    for _ in range(events):
        # Alternate around the steady state so the population never drifts.
        if population > n_flows or (population == n_flows and rng.integers(2)):
            ops.append(("remove", int(rng.integers(population))))
            population -= 1
        else:
            ops.append(("add",) + draw_flow())
            population += 1
    return ChurnWorkload(capacities=caps, initial=initial, ops=tuple(ops))


def _run_reference(workload: ChurnWorkload) -> Tuple[float, Dict[int, float]]:
    """Seed cost model: full recompute over all live flows per event."""
    live: Dict[int, Tuple[str, str]] = dict(enumerate(workload.initial))
    live_ids = list(live)
    next_id = len(live)
    rates: Dict[int, float] = {}
    started = time.perf_counter()
    for op in workload.ops:
        if op[0] == "add":
            live[next_id] = (op[1], op[2])
            live_ids.append(next_id)
            next_id += 1
        else:
            del live[live_ids.pop(op[1])]
        values = maxmin_rates([live[i] for i in live_ids], workload.capacities)
        rates = dict(zip(live_ids, values))
    return time.perf_counter() - started, rates


def _run_incremental(
    workload: ChurnWorkload, counters: Optional[PerfCounters] = None
) -> Tuple[float, Dict[int, float]]:
    """Engine cost model: incremental add/remove + component recompute."""
    engine = RateEngine(workload.capacities, counters=counters)
    live_ids = []
    for fid, (src, dst) in enumerate(workload.initial):
        engine.add_flow(fid, src, dst)
        live_ids.append(fid)
    engine.recompute()  # settle the warm-up population outside the timer
    if counters is not None:  # count the churn phase only
        counters.recomputes = counters.flows_touched = counters.links_touched = 0
    next_id = len(live_ids)
    started = time.perf_counter()
    for op in workload.ops:
        if op[0] == "add":
            engine.add_flow(next_id, op[1], op[2])
            live_ids.append(next_id)
            next_id += 1
        else:
            engine.remove_flow(live_ids.pop(op[1]))
        engine.recompute()
    elapsed = time.perf_counter() - started
    return elapsed, engine.rates()


def run_scale_bench(
    flow_counts: Sequence[int],
    events: int = 30,
    seed: int = 0,
    pod_size: Optional[int] = 16,
) -> List[ScalePoint]:
    """Time both allocators through the same churn at each flow count."""
    points: List[ScalePoint] = []
    for n_flows in flow_counts:
        workload = make_workload(n_flows, events, seed=seed, pod_size=pod_size)
        ref_seconds, ref_rates = _run_reference(workload)
        counters = PerfCounters()
        inc_seconds, inc_rates = _run_incremental(workload, counters)
        if set(inc_rates) != set(ref_rates):
            raise AssertionError("allocators disagree on the live flow set")
        delta = max(
            (abs(inc_rates[f] - ref_rates[f]) for f in ref_rates), default=0.0
        )
        if delta > 1e-9:
            raise AssertionError(
                f"rate mismatch between allocators: max delta {delta:g} B/s"
            )
        points.append(
            ScalePoint(
                flows=n_flows,
                nodes=len(workload.capacities.uplink),
                events=events,
                reference_seconds=ref_seconds,
                incremental_seconds=inc_seconds,
                speedup=ref_seconds / inc_seconds if inc_seconds > 0 else float("inf"),
                recomputes=counters.recomputes,
                flows_touched=counters.flows_touched,
                mean_component=counters.flows_per_recompute,
                max_abs_rate_delta=delta,
            )
        )
    return points


def write_trajectory(
    points: Sequence[ScalePoint], path: Union[str, Path] = "BENCH_network.json"
) -> Path:
    """Persist the scaling trajectory for cross-PR perf tracking."""
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "benchmark": "network_rate_engine_scaling",
        "points": [asdict(p) for p in points],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path
