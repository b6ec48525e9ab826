"""The recovery validation scenario as a pytest-selectable gate.

Runs the ``recovery`` scenario in smoke profile on the production engines
(as the ``recovery-smoke`` CI lane and ``python -m repro validate`` do) and
on the reference stack, and asserts every closed-form bound holds.
"""

import pytest

from repro.scenarios.base import ScenarioProfile, get_scenario
from tests.reference_stack import STACKS

pytestmark = [pytest.mark.scenarios, pytest.mark.recovery]


def describe(result) -> str:
    lines = [result.name]
    for c in result.checks:
        verdict = "pass" if c.passed else "FAIL"
        lines.append(f"  {verdict} {c.name}: measured={c.measured:.6g} "
                     f"expected={c.expected:.6g} tol={c.tolerance:.3g}")
    return "\n".join(lines)


@pytest.mark.parametrize("stack", STACKS, indirect=True, ids=lambda s: f"{s}/{s}")
def test_recovery_scenario_smoke(stack):
    result = get_scenario("recovery").run(ScenarioProfile(smoke=True, seed=0))
    assert result.passed, f"[{stack}] " + describe(result)
