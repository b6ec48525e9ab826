"""Golden-trace determinism: optimized simulator == pre-recorded seed traces.

The fixtures under ``tests/fixtures/`` were recorded on the *reference*
engine stack (full-recompute rate allocator, from-scratch allocation) — the
seed behaviour.  These tests assert that both the reference stack (through
``tests.reference_stack``) and the production engines reproduce every
fixture record for record: same seed, same event timeline, byte-identical
JSON projection.  That pins down

* the incremental engine's equivalence on real scheduler workloads (not
  just synthetic flow sets), and
* accidental behaviour drift anywhere in the stack — a schedule reorder,
  a float contract change, a timeline field rename all fail loudly here.

Regenerate after intentional changes: ``PYTHONPATH=src python
tests/fixtures/regen_golden.py`` (and review the fixture diff).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import fig1_motivating_example, fig45_intraapp_trace
from repro.faults.plan import FaultPlan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def roundtrip(payload) -> dict:
    """Normalise through JSON so tuples/lists and float repr compare equal."""
    return json.loads(json.dumps(payload, sort_keys=True))


def test_fig1_matches_golden():
    golden = load_fixture("golden_fig1.json")
    result = fig1_motivating_example()
    assert roundtrip(result.data_unaware) == golden["data_unaware"]
    assert roundtrip(result.data_aware) == golden["data_aware"]


def test_fig45_trace_matches_golden(stack):
    golden = load_fixture("golden_fig45_trace.json")["arms"]
    arms = roundtrip(fig45_intraapp_trace())
    assert set(arms) == set(golden)
    for name in golden:
        assert arms[name]["jcts"] == golden[name]["jcts"], name
        assert arms[name]["records"] == golden[name]["records"], (
            f"{name} arm: timeline diverged from the seed-engine recording"
        )


@pytest.mark.slow
def test_runner_trace_matches_golden(stack):
    golden = load_fixture("golden_runner_trace.json")
    config = ExperimentConfig(timeline_enabled=True, **golden["config"])
    result = run_experiment(config)
    assert result.timeline is not None
    records = roundtrip([r.as_dict() for r in result.timeline])
    assert len(records) == len(golden["records"])
    for i, (got, want) in enumerate(zip(records, golden["records"])):
        assert got == want, f"record {i} diverged: {got} != {want}"


#: Record kinds written at points where a typed trace event also fires —
#: every fault, robustness and recovery kind.  The faulted fixture must hold
#: each of them, so none can drift unnoticed.
PAIRED_KINDS = frozenset({
    "admission.admitted", "admission.deferred", "admission.shed",
    "attempt.fail", "custody.round",
    "executor.grant", "executor.grant.dead", "executor.release",
    "fault.correlated", "fault.degradation", "fault.degradation.end",
    "fault.disk", "fault.executor", "fault.executor.restart", "fault.flap",
    "fault.manager", "fault.manager.restart", "fault.node",
    "fault.node.restore", "fault.partition", "fault.partition.heal",
    "fault.slowdown",
    "job.finish", "job.submit.buffered", "lease.outcome",
    "manager.down", "manager.recovered", "manager.restart",
    "node.blacklist", "node.breaker",
    "task.abandon", "task.finish", "task.hedge",
    "transfer.fail", "transfer.finish", "transfer.stall", "transfer.unstall",
})


@pytest.mark.faults
def test_faulted_runner_trace_matches_golden(stack):
    golden = load_fixture("golden_faulted_trace.json")
    kinds = set()
    for run in golden["runs"]:
        config = ExperimentConfig(
            seed=run["seed"],
            circuit_breaker=run["circuit_breaker"],
            timeline_enabled=True,
            **golden["config"],
        )
        plan = FaultPlan.from_json(json.dumps(run["plan"]))
        result = run_experiment(config, fault_plan=plan)
        assert result.timeline is not None
        records = roundtrip([r.as_dict() for r in result.timeline])
        label = f"seed {run['seed']} breaker={run['circuit_breaker']}"
        assert len(records) == len(run["records"]), label
        for i, (got, want) in enumerate(zip(records, run["records"])):
            assert got == want, f"{label} record {i} diverged: {got} != {want}"
        kinds.update(r["kind"] for r in run["records"])
    assert PAIRED_KINDS <= kinds, sorted(PAIRED_KINDS - kinds)
