"""Brownout validation: degraded-mode behavior against closed forms.

Gray failure — nodes that are slow, not dead — is the regime the
robustness layer exists for, and it admits a clean first-order theory:
slow ``k`` of ``n`` nodes down to ``1/s`` of their speed and, under
uniform placement, mean task service inflates by at most
``1 + (k/n)(s − 1)`` (:func:`repro.analysis.expectations
.expected_brownout_inflation`) while any single job inflates by at most
``s``.  The adaptive detector should *suspect* the slowed nodes (they are
deprioritised, never declared dead), so the measured mean-JCT inflation
must land inside the derived band — above 1, below the uniform-placement
bound.

A second arm adds a real node crash on top of the brownout and pins the
recovery machinery: circuit breakers must trip and then reconverge (none
still excluding a node at quiescence), and the measured MTTR must stay
within the detection-plus-restart budget — degraded mode ends, it does
not linger.
"""

from __future__ import annotations

from repro.analysis.expectations import (
    degraded_capacity_ratio,
    expected_brownout_inflation,
)
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import FaultPlan, NodeFailure, NodeSlowdown
from repro.scenarios.base import (
    Check,
    ScenarioProfile,
    ScenarioResult,
    ValidationScenario,
    register,
)

__all__ = ["BrownoutScenario"]


@register
class BrownoutScenario(ValidationScenario):
    """k-of-n slowdown: JCT inflation in band, breakers reconverge, MTTR bounded."""

    name = "brownout"
    title = "Brownout: slowdown inflation band, breaker reconvergence, MTTR"

    NODES = 10
    SLOWED = 3
    FACTOR = 4.0
    #: staggered onsets, late enough that the emission-clock detector has a
    #: healthy heartbeat history to contrast the stretch against
    SLOW_ATS = (30.0, 33.0, 36.0)
    SLOW_DURATION = 300.0  # covers the rest of the run once it starts
    CRASH_AT = 10.0
    RESTART_DELAY = 12.0
    DETECTOR_TIMEOUT = 10.0

    def _config(self, profile: ScenarioProfile) -> ExperimentConfig:
        return ExperimentConfig(
            manager="custody",
            workload="wordcount",
            num_nodes=self.NODES,
            num_apps=2,
            jobs_per_app=profile.scaled(4, 3),
            seed=profile.seed,
            detector_timeout=self.DETECTOR_TIMEOUT,
            detector_mode="adaptive",
            detector_suspect_after=2.5,
            circuit_breaker=True,
            blacklist_timeout=10.0,
            hedging=True,
            retry_jitter=True,
        )

    def _slow_plan(self) -> FaultPlan:
        plan = FaultPlan()
        for i in range(self.SLOWED):
            plan.add(
                NodeSlowdown(
                    at=self.SLOW_ATS[i],
                    node_id=f"worker-{i:03d}",
                    duration=self.SLOW_DURATION,
                    factor=self.FACTOR,
                )
            )
        return plan

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        from repro.experiments.runner import run_experiment

        config = self._config(profile)
        inflation_bound = expected_brownout_inflation(
            self.NODES, self.SLOWED, self.FACTOR
        )
        result.params = {
            "nodes": self.NODES,
            "slowed": self.SLOWED,
            "factor": self.FACTOR,
            "jobs_per_app": config.jobs_per_app,
            "capacity_ratio": degraded_capacity_ratio(
                self.NODES, self.SLOWED, self.FACTOR
            ),
            "inflation_bound": inflation_bound,
        }

        baseline = run_experiment(config)
        brownout = run_experiment(config, fault_plan=self._slow_plan())

        crash_plan = self._slow_plan()
        crash_plan.add(
            NodeFailure(
                at=self.CRASH_AT,
                node_id=f"worker-{self.NODES - 1:03d}",
                restart_delay=self.RESTART_DELAY,
            )
        )
        recovery = run_experiment(config, fault_plan=crash_plan)

        result.checks.append(
            Check.that(
                "brownout.finished",
                baseline.metrics.unfinished_jobs == 0
                and brownout.metrics.unfinished_jobs == 0
                and recovery.metrics.unfinished_jobs == 0,
                detail="all three arms drain every job",
            )
        )
        assert baseline.metrics.avg_jct and brownout.metrics.avg_jct
        ratio = brownout.metrics.avg_jct / baseline.metrics.avg_jct
        result.params["jct_ratio"] = ratio
        # The derived band: slowing nodes cannot speed the cluster up; no
        # job inflates beyond the slowdown factor itself (hard ceiling);
        # and the measured mean sits near the uniform-placement estimate
        # 1 + (k/n)(s-1), with headroom for queueing above it and
        # suspected-node deprioritisation below it.
        result.checks.append(
            Check.at_least(
                "brownout.jct_inflation.floor",
                ratio,
                1.0,
                slack=0.05,
                detail="brownout never speeds the cluster up",
            )
        )
        result.checks.append(
            Check.at_most(
                "brownout.jct_inflation.ceiling",
                ratio,
                self.FACTOR,
                detail=f"mean JCT inflation under the slowdown factor s = {self.FACTOR}",
            )
        )
        result.checks.append(
            Check.within(
                "brownout.jct_inflation.estimate",
                ratio,
                inflation_bound,
                0.35,
                detail=(
                    f"mean JCT inflation near 1 + (k/n)(s-1) = {inflation_bound} "
                    "(queueing above, deprioritisation below)"
                ),
            )
        )

        faults = brownout.faults
        assert faults is not None
        result.checks.append(
            Check.at_least(
                "brownout.suspicions",
                float(faults.detector_suspicions),
                1.0,
                detail="the adaptive detector noticed the slowed nodes",
            )
        )
        result.checks.append(
            Check.that(
                "brownout.no_false_deaths",
                faults.detector_true_positives == 0 and faults.abandoned_tasks == 0,
                detail="slow nodes are suspected, not declared dead; no work lost",
            )
        )

        rec_faults = recovery.faults
        assert rec_faults is not None
        result.checks.append(
            Check.that(
                "recovery.breakers_reconverged",
                rec_faults.breakers_open_at_end == 0,
                detail="no breaker still excludes a node at quiescence",
            )
        )
        result.checks.append(
            Check.that(
                "recovery.breaker_probe_invariant",
                rec_faults.breaker_closes <= rec_faults.breaker_probes,
                detail="a breaker can only close through a half-open probe",
            )
        )
        node_mttr = rec_faults.mttr.get("node", 0.0)
        result.params["node_mttr"] = node_mttr
        result.checks.append(
            Check.at_most(
                "recovery.mttr_bounded",
                node_mttr,
                self.RESTART_DELAY + self.DETECTOR_TIMEOUT,
                detail="crash repair within restart delay + detection budget",
            )
        )
        result.checks.append(
            Check.at_least(
                "recovery.mttr_measured",
                node_mttr,
                self.RESTART_DELAY,
                slack=0.5,
                detail="the crash actually took its restart delay to heal",
            )
        )
