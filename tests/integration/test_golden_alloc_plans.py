"""Golden allocation plans: both control planes == the pre-recorded stream.

``golden_alloc_plans.json`` pins the plan-signature sequence of a scripted
Custody churn scenario recorded under the *reference* engine.  Both engines
must reproduce it signature for signature — the cross-session determinism
anchor for the allocation control plane, complementing the in-process
equivalence tests (which would not catch both engines drifting together).

Regenerate after intentional changes: ``PYTHONPATH=src python
tests/fixtures/regen_golden.py`` (and review the fixture diff).
"""

import json
from pathlib import Path

import pytest

from tests.allocbench import golden_plan_stream

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ENGINES = ("reference", "incremental")


@pytest.mark.parametrize("engine", ENGINES)
def test_alloc_plan_stream_matches_golden(engine):
    fixture = json.loads((FIXTURES / "golden_alloc_plans.json").read_text())
    size = fixture["size"]
    stream = golden_plan_stream(
        (size["apps"], size["jobs_per_app"], size["tasks_per_job"],
         size["replication"]),
        rounds=fixture["rounds"],
        seed=fixture["seed"],
        engine=engine,
    )
    assert stream == fixture["plans"]
