"""Scenario framework: checks, tolerance bands, registry and suite runner.

A *validation scenario* measures something the simulator computes the hard
way (event by event) and compares it against an independent expectation —
a closed-form queueing result, a combinatorial bound, or a structural
invariant of a generator.  Measurements are stochastic, so every
comparison carries an explicit tolerance band chosen for its sample size;
all randomness flows through :class:`~repro.common.rng.RngStreams`, so a
scenario's verdict is a pure function of ``(seed, profile)`` and can gate
CI without flakes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError

__all__ = [
    "Check",
    "ScenarioProfile",
    "ScenarioResult",
    "SuiteReport",
    "ValidationScenario",
    "register",
    "get_scenario",
    "all_scenarios",
    "plan_suite",
    "run_suite",
]


@dataclass(frozen=True)
class Check:
    """One measured-vs-expected comparison with its band and verdict."""

    name: str
    measured: float
    expected: float
    #: Half-width of the acceptance band around ``expected`` (same units as
    #: the comparison: relative for ``within``, absolute for bounds).
    tolerance: float
    passed: bool
    kind: str  # "relative" | "upper" | "lower" | "exact"
    detail: str = ""

    # ------------------------------------------------------------ factories
    @staticmethod
    def within(
        name: str, measured: float, expected: float, rel_tol: float, detail: str = ""
    ) -> "Check":
        """Pass iff ``|measured − expected| <= rel_tol · |expected|``."""
        if rel_tol <= 0:
            raise ConfigurationError(f"{name}: rel_tol must be positive")
        err = abs(measured - expected)
        rel_err = err / abs(expected) if expected else float("inf")
        return Check(
            name=name,
            measured=measured,
            expected=expected,
            tolerance=rel_tol,
            passed=err <= rel_tol * abs(expected),
            kind="relative",
            detail=detail or f"relative error {rel_err:.1%}",
        )

    @staticmethod
    def at_most(
        name: str, measured: float, bound: float, slack: float = 0.0, detail: str = ""
    ) -> "Check":
        """Pass iff ``measured <= bound + slack`` (absolute slack)."""
        return Check(
            name=name,
            measured=measured,
            expected=bound,
            tolerance=slack,
            passed=measured <= bound + slack,
            kind="upper",
            detail=detail,
        )

    @staticmethod
    def at_least(
        name: str, measured: float, bound: float, slack: float = 0.0, detail: str = ""
    ) -> "Check":
        """Pass iff ``measured >= bound − slack`` (absolute slack)."""
        return Check(
            name=name,
            measured=measured,
            expected=bound,
            tolerance=slack,
            passed=measured >= bound - slack,
            kind="lower",
            detail=detail,
        )

    @staticmethod
    def that(name: str, condition: bool, detail: str = "") -> "Check":
        """A structural invariant: pass iff ``condition``."""
        return Check(
            name=name,
            measured=float(bool(condition)),
            expected=1.0,
            tolerance=0.0,
            passed=bool(condition),
            kind="exact",
            detail=detail,
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready projection."""
        return {
            "name": self.name,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "kind": self.kind,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Check":
        """Inverse of :meth:`as_dict` (used by the parallel suite merge)."""
        return Check(
            name=data["name"],
            measured=data["measured"],
            expected=data["expected"],
            tolerance=data["tolerance"],
            passed=data["passed"],
            kind=data["kind"],
            detail=data.get("detail", ""),
        )


@dataclass(frozen=True)
class ScenarioProfile:
    """How hard to drive a scenario.

    ``smoke`` trades sample size for wall time (CI gate); the full profile
    is the nightly/manual setting.
    """

    smoke: bool = False
    seed: int = 0

    def scaled(self, full: int, smoke: int) -> int:
        """Pick a sample count for this profile."""
        return smoke if self.smoke else full


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    title: str
    profile: ScenarioProfile
    checks: List[Check] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        """True iff every check passed (a scenario with no checks fails)."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[Check]:
        """The checks that missed their bands."""
        return [c for c in self.checks if not c.passed]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready projection for the report artifact."""
        return {
            "name": self.name,
            "title": self.title,
            "passed": self.passed,
            "profile": {
                "smoke": self.profile.smoke,
                "seed": self.profile.seed,
            },
            "params": dict(self.params),
            "checks": [c.as_dict() for c in self.checks],
            "wall_seconds": self.wall_seconds,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ScenarioResult":
        """Inverse of :meth:`as_dict` — ``passed`` is re-derived from the
        checks, so a round-tripped result reports the identical verdict."""
        return ScenarioResult(
            name=data["name"],
            title=data["title"],
            profile=ScenarioProfile(**data["profile"]),
            checks=[Check.from_dict(c) for c in data["checks"]],
            params=dict(data.get("params", {})),
            wall_seconds=data.get("wall_seconds", 0.0),
        )


class ValidationScenario:
    """Base class: subclasses set the metadata and implement :meth:`build`."""

    name: str = ""
    title: str = ""
    #: included in ``repro validate --smoke`` (the CI gate)
    in_smoke: bool = True

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        """Measure and append checks to ``result`` (subclass hook)."""
        raise NotImplementedError

    def run(self, profile: ScenarioProfile) -> ScenarioResult:
        """Execute the scenario under ``profile``."""
        import time

        result = ScenarioResult(name=self.name, title=self.title, profile=profile)
        t0 = time.perf_counter()
        self.build(profile, result)
        result.wall_seconds = time.perf_counter() - t0
        return result


_REGISTRY: Dict[str, ValidationScenario] = {}


def register(scenario_cls: type) -> type:
    """Class decorator: instantiate and add to the suite registry."""
    scenario = scenario_cls()
    if not scenario.name:
        raise ConfigurationError(f"{scenario_cls.__name__} has no name")
    if scenario.name in _REGISTRY:
        raise ConfigurationError(f"duplicate scenario {scenario.name!r}")
    _REGISTRY[scenario.name] = scenario
    return scenario_cls


def get_scenario(name: str) -> ValidationScenario:
    """Look up one registered scenario."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def all_scenarios() -> Dict[str, ValidationScenario]:
    """Registered scenarios, keyed by name (insertion-ordered)."""
    return dict(_REGISTRY)


@dataclass
class SuiteReport:
    """All results of one validate invocation."""

    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff every scenario passed."""
        return bool(self.results) and all(r.passed for r in self.results)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready projection (the ``VALIDATION.json`` artifact)."""
        return {
            "passed": self.passed,
            "scenarios": [r.as_dict() for r in self.results],
        }

    def summary_rows(self) -> List[List[Any]]:
        """Rows for the CLI table: scenario, checks, verdict."""
        return [
            [
                r.name,
                f"{sum(c.passed for c in r.checks)}/{len(r.checks)}",
                "pass" if r.passed else "FAIL",
            ]
            for r in self.results
        ]


def plan_suite(
    names: Optional[Sequence[str]] = None,
    profile: ScenarioProfile = ScenarioProfile(),
) -> List[tuple]:
    """The ordered ``(scenario name, profile)`` cells a suite run executes.

    This is the single source of truth for suite composition: the serial
    :func:`run_suite` walks it in order, and the parallel fan-out runner
    shards it by cell index — so a merged parallel report lists exactly the
    results, in exactly the order, a serial run would have produced.
    """
    if names:
        picked = [get_scenario(n).name for n in names]
    else:
        picked = [
            n for n, s in all_scenarios().items() if s.in_smoke or not profile.smoke
        ]
    return [(name, profile) for name in picked]


def run_suite(
    names: Optional[Sequence[str]] = None,
    profile: ScenarioProfile = ScenarioProfile(),
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> SuiteReport:
    """Run scenarios (all registered ones by default) under ``profile``.

    In smoke mode, scenarios with ``in_smoke = False`` are skipped unless
    explicitly named.
    """
    report = SuiteReport()
    for name, p in plan_suite(names, profile):
        if progress is not None:
            progress(name)
        report.results.append(get_scenario(name).run(p))
    return report
