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
