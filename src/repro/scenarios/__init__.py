"""Simulator-validation scenarios: physics checks as regression tests.

Every hot-path rewrite so far shipped with *self*-equivalence evidence
(golden traces, twin-engine lockstep).  This package checks the simulator
against **external** ground truth instead: closed-form queueing theory
(:mod:`repro.analysis.queueing`), the hypergeometric locality expectations
(:mod:`repro.analysis.expectations`) and structural invariants of the new
workload generators (trace replay, diurnal load, elastic churn).

Each scenario is a self-contained object that drives the engine, measures,
and returns a :class:`~repro.scenarios.base.ScenarioResult` whose checks
carry explicit tolerance bands.  ``python -m repro validate`` runs the
registered suite and writes a pass/fail report artifact; the ``--smoke``
subset is a CI gate.
"""

from repro.scenarios.base import (
    Check,
    ScenarioProfile,
    ScenarioResult,
    SuiteReport,
    ValidationScenario,
    all_scenarios,
    get_scenario,
    plan_suite,
    register,
    run_suite,
)

# Importing the scenario modules registers their scenarios.
from repro.scenarios import (  # noqa: F401
    degraded,
    littles_law,
    locality,
    queueing,
    recovery,
    workloads,
)

__all__ = [
    "Check",
    "ScenarioProfile",
    "ScenarioResult",
    "SuiteReport",
    "ValidationScenario",
    "all_scenarios",
    "get_scenario",
    "plan_suite",
    "register",
    "run_suite",
]
