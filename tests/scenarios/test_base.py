"""Scenario framework mechanics: checks, registry, suite orchestration."""

import pytest

from repro.common.errors import ConfigurationError
from repro.scenarios.base import (
    Check,
    ScenarioProfile,
    ScenarioResult,
    SuiteReport,
    ValidationScenario,
    all_scenarios,
    get_scenario,
    run_suite,
)


class TestCheck:
    def test_within_passes_inside_band(self):
        assert Check.within("x", 1.04, 1.0, 0.05).passed
        assert not Check.within("x", 1.06, 1.0, 0.05).passed

    def test_within_is_symmetric(self):
        assert Check.within("x", 0.96, 1.0, 0.05).passed
        assert not Check.within("x", 0.94, 1.0, 0.05).passed

    def test_within_zero_expected_never_divides(self):
        check = Check.within("x", 0.1, 0.0, 0.05)
        assert not check.passed  # rel error is infinite

    def test_within_exact_zero_match(self):
        assert Check.within("x", 0.0, 0.0, 0.05).passed

    def test_at_most_with_slack(self):
        assert Check.at_most("x", 1.04, 1.0, 0.05).passed
        assert not Check.at_most("x", 1.06, 1.0, 0.05).passed

    def test_at_least_with_slack(self):
        assert Check.at_least("x", 0.96, 1.0, 0.05).passed
        assert not Check.at_least("x", 0.94, 1.0, 0.05).passed

    def test_that_boolean(self):
        assert Check.that("x", True).passed
        assert not Check.that("x", False).passed

    def test_as_dict_round_trips_fields(self):
        d = Check.within("x", 1.0, 1.0, 0.05).as_dict()
        assert d["name"] == "x" and d["passed"] is True


class TestProfile:
    def test_scaled_picks_by_mode(self):
        assert ScenarioProfile(smoke=True).scaled(100, 10) == 10
        assert ScenarioProfile(smoke=False).scaled(100, 10) == 100

    def test_defaults(self):
        p = ScenarioProfile()
        assert p.seed == 0
        assert not p.smoke


class TestResult:
    def test_empty_checks_is_not_a_pass(self):
        result = ScenarioResult(name="x", title="x", profile=ScenarioProfile())
        assert not result.passed

    def test_any_failing_check_fails(self):
        result = ScenarioResult(name="x", title="x", profile=ScenarioProfile())
        result.checks.append(Check.that("a", True))
        result.checks.append(Check.that("b", False))
        assert not result.passed


class TestRegistry:
    def test_all_expected_scenarios_registered(self):
        names = set(all_scenarios())
        assert {
            "mm1", "mmc", "priority", "littles_law", "locality",
            "trace_replay", "diurnal", "elastic_churn",
        } <= names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("nope")


class TestRunSuite:
    class _Fake(ValidationScenario):
        name = "fake"
        title = "fake"

        def build(self, profile, result):
            result.checks.append(Check.that("ok", True))

    def test_each_scenario_runs_once_under_the_profile(self, monkeypatch):
        import repro.scenarios.base as base

        monkeypatch.setattr(base, "_REGISTRY", {"fake": self._Fake()})
        profile = ScenarioProfile(smoke=True, seed=3)
        report = run_suite(profile=profile)
        assert [(r.name, r.profile) for r in report.results] == [("fake", profile)]
        assert report.passed

    def test_named_subset(self, monkeypatch):
        import repro.scenarios.base as base

        monkeypatch.setattr(base, "_REGISTRY", {"fake": self._Fake()})
        report = run_suite(["fake"], ScenarioProfile())
        assert [r.name for r in report.results] == ["fake"]

    def test_report_as_dict_shape(self, monkeypatch):
        import repro.scenarios.base as base

        monkeypatch.setattr(base, "_REGISTRY", {"fake": self._Fake()})
        payload = run_suite(["fake"], ScenarioProfile()).as_dict()
        assert payload["passed"] is True
        assert payload["scenarios"][0]["name"] == "fake"
        assert payload["scenarios"][0]["checks"][0]["name"] == "ok"

    def test_empty_report_is_failure(self):
        assert not SuiteReport().passed
