"""The traced event stream of a faulted run, pinned.

A traced run's ring buffer holds the typed events every layer emits.  This
pins, for two faulted runs of the ``golden_faulted_trace.json`` family, the
count of each event name and a sha256 over the ``(ts, name, cat, track,
lane)`` sequence.  Attaching a :class:`~repro.simulation.timeline.Timeline`
(``timeline_enabled``) must leave the ring exactly as it is: the timeline
reads the stream, it adds nothing to it.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan

pytestmark = pytest.mark.obs

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "golden_faulted_trace.json"

#: (seed, circuit_breaker) -> (event count by name, sha256 of the sequence)
PINNED = {
    (0, False): (
        {
            "alloc.demand_cache_hits": 28, "alloc.demand_tasks": 28,
            "alloc.rounds": 28, "allocation.round": 28,
            "detector.suspicion": 10, "driver.delay_wait": 219,
            "engine.events_processed": 15, "engine.pending_events": 15,
            "executor.grant": 75, "executor.release": 73,
            "executors.busy_fraction": 15, "fault.healed": 13,
            "fault.injected": 12, "fault.recovery": 71, "job.span": 6,
            "job.submit.buffered": 1, "jobs.local_fraction": 15,
            "lease.outcome": 14, "manager.alloc_rounds": 15, "manager.down": 1,
            "manager.restart": 2, "net.flush": 122, "net.recompute": 163,
            "net.stall": 21, "net.throughput": 15, "net.transfer": 263,
            "net.unstall": 21, "node.blacklist": 4, "task.abandon": 20,
            "task.attempt": 538, "task.retry_denied": 5, "tasks.pending": 15,
        },
        "d2d194b749b0adf19ae2de83fde64cd4b3aeb55d4ddca25264fd54f15a7ab6d0",
    ),
    (6, True): (
        {
            "admission.decision": 4, "alloc.demand_cache_hits": 25,
            "alloc.demand_tasks": 25, "alloc.rounds": 25,
            "allocation.round": 25, "breaker.transition": 1,
            "detector.suspicion": 12, "driver.delay_wait": 197,
            "engine.events_processed": 15, "engine.pending_events": 15,
            "executor.grant": 38, "executor.release": 36,
            "executors.busy_fraction": 15, "fault.healed": 11,
            "fault.injected": 12, "fault.recovery": 54, "heartbeat.miss": 1,
            "hedge.launch": 11, "job.span": 6, "jobs.local_fraction": 15,
            "lease.outcome": 8, "manager.alloc_rounds": 15, "manager.down": 1,
            "manager.restart": 2, "net.flush": 97, "net.recompute": 118,
            "net.stall": 21, "net.throughput": 15, "net.transfer": 195,
            "net.unstall": 16, "task.abandon": 1, "task.attempt": 467,
            "tasks.pending": 15,
        },
        "d71ea1d3d8ca0aa44459d53134430442951030b1cf8abc013cf45f171af20b70",
    ),
}


@pytest.fixture(scope="module")
def runs() -> dict:
    golden = json.loads(FIXTURE.read_text())
    return {
        (run["seed"], run["circuit_breaker"]): (golden["config"], run["plan"])
        for run in golden["runs"]
    }


@pytest.mark.parametrize("timeline_enabled", [False, True])
@pytest.mark.parametrize("key", sorted(PINNED))
def test_traced_stream_is_pinned(runs, key, timeline_enabled):
    fixed, plan = runs[key]
    config = ExperimentConfig(
        seed=key[0],
        circuit_breaker=key[1],
        trace=True,
        timeline_enabled=timeline_enabled,
        **fixed,
    )
    result = run_experiment(config, fault_plan=FaultPlan.from_json(json.dumps(plan)))
    events = result.trace_events
    assert events is not None
    counts, digest = PINNED[key]
    assert dict(Counter(e.name for e in events)) == counts
    sequence = [(e.ts, e.name, e.cat, e.track, e.lane) for e in events]
    assert hashlib.sha256(json.dumps(sequence).encode()).hexdigest() == digest
