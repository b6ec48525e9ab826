"""The validation suite itself, as pytest-selectable regression tests.

``-m scenarios`` selects exactly these (the CI ``validate-smoke`` gate runs
them alongside ``python -m repro validate --smoke``).  Each test runs one
registered scenario in smoke profile and asserts every check lands inside
its tolerance band; failures print the measured-vs-expected table so a
regression is diagnosable straight from the CI log.
"""

import pytest

from repro.scenarios.base import ScenarioProfile, get_scenario, run_suite
from tests.reference_stack import STACKS, reference_stack

pytestmark = pytest.mark.scenarios

PURE = ("mm1", "mmc", "priority", "locality", "diurnal")
#: scenarios whose measurements flow through the network/allocation
#: engines, so they also run on the reference stack
FULL_STACK = ("littles_law", "trace_replay", "elastic_churn")


def describe(result) -> str:
    lines = [result.name]
    for c in result.checks:
        verdict = "pass" if c.passed else "FAIL"
        lines.append(f"  {verdict} {c.name}: measured={c.measured:.6g} "
                     f"expected={c.expected:.6g} tol={c.tolerance:.3g}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", PURE)
def test_scenario_smoke(name):
    result = get_scenario(name).run(ScenarioProfile(smoke=True, seed=0))
    assert result.passed, describe(result)


@pytest.mark.parametrize("stack", STACKS, indirect=True, ids=lambda s: f"{s}/{s}")
@pytest.mark.parametrize("name", FULL_STACK)
def test_engine_sensitive_scenario_smoke(name, stack):
    result = get_scenario(name).run(ScenarioProfile(smoke=True, seed=0))
    assert result.passed, f"[{stack}] " + describe(result)


@pytest.mark.slow
def test_full_suite_both_variants():
    """The complete gate as ``repro validate --smoke`` runs it, plus the
    same suite on the reference stack."""
    profile = ScenarioProfile(smoke=True, seed=0)
    report = run_suite(profile=profile)
    with reference_stack():
        report.results.extend(run_suite(profile=profile).results)
    assert report.results, "suite ran nothing"
    failing = [r for r in report.results if not r.passed]
    assert not failing, "\n\n".join(describe(r) for r in failing)
