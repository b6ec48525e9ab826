"""Crash-recovery validation: manager failover against closed-form bounds.

A manager crash with the checkpoint/lease/WAL stack enabled admits exact
expectations, not just "it eventually works":

* **Lease conservation** — with a lease generous enough to outlive the
  outage, reconciliation must re-adopt *every* lease open at the crash:
  ``readopted == leases_at_crash`` and nothing expires, nothing is a
  zombie, nothing survives reconciliation unleased.
* **Work preservation** — re-adopted executors keep their running
  attempts, so the recovery requeues zero tasks and no task ever
  completes twice (pinned record-by-record from the timeline).
* **Recovery-duration identity** — the coordinator resumes allocation
  exactly ``outage + reconciliation_window`` after the crash; the
  measured duration is deterministic, not merely bounded.
* **Bounded JCT inflation** — a stalled control plane can delay any job
  by at most the time it was stalled, so mean JCT and makespan inflate by
  at most ``outage + reconciliation_window`` over the fault-free run (the
  crash arm replays the baseline's trace: common-trace methodology).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.faults.plan import FaultPlan, ManagerCrash
from repro.scenarios.base import (
    Check,
    ScenarioProfile,
    ScenarioResult,
    ValidationScenario,
    register,
)

__all__ = ["RecoveryScenario"]


@register
class RecoveryScenario(ValidationScenario):
    """Manager crash: lease conservation, work preservation, bounded inflation."""

    name = "recovery"
    title = "Crash-recovery: lease conservation and bounded JCT inflation"

    NODES = 10
    CRASH_AT = 20.0
    OUTAGE = 25.0
    RECONCILIATION_WINDOW = 2.0
    #: long enough that no lease can expire across the outage — the
    #: precondition for the exact conservation check
    LEASE_DURATION = 600.0

    def _config(self, profile: ScenarioProfile) -> ExperimentConfig:
        return ExperimentConfig(
            manager="custody",
            workload="wordcount",
            num_nodes=self.NODES,
            num_apps=2,
            jobs_per_app=profile.scaled(4, 3),
            seed=profile.seed,
            timeline_enabled=True,
            manager_recovery=True,
            lease_duration=self.LEASE_DURATION,
            lease_renew_interval=5.0,
            checkpoint_interval=15.0,
            reconciliation_window=self.RECONCILIATION_WINDOW,
        )

    def _crash_plan(self) -> FaultPlan:
        plan = FaultPlan()
        plan.add(ManagerCrash(at=self.CRASH_AT, duration=self.OUTAGE))
        return plan

    @staticmethod
    def _finish_counts(result) -> dict:
        counts: dict = {}
        for record in result.timeline:
            if record.kind == "task.finish":
                counts[record.subject] = counts.get(record.subject, 0) + 1
        return counts

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        from repro.experiments.runner import run_experiment

        config = self._config(profile)
        stall = self.OUTAGE + self.RECONCILIATION_WINDOW
        result.params = {
            "nodes": self.NODES,
            "jobs_per_app": config.jobs_per_app,
            "crash_at": self.CRASH_AT,
            "outage": self.OUTAGE,
            "reconciliation_window": self.RECONCILIATION_WINDOW,
            "stall": stall,
        }

        baseline = run_experiment(config)
        crashed = run_experiment(config, fault_plan=self._crash_plan())

        result.checks.append(
            Check.that(
                "recovery.finished",
                baseline.metrics.unfinished_jobs == 0
                and crashed.metrics.unfinished_jobs == 0,
                detail="both arms drain every job",
            )
        )

        rec = crashed.recovery
        assert rec is not None
        result.checks.append(
            Check.that(
                "recovery.completed",
                rec.manager_crashes == 1 and rec.recoveries == 1,
                detail="the injected crash recovered exactly once",
            )
        )
        result.params["leases_at_crash"] = rec.leases_at_crash
        result.checks.append(
            Check.that(
                "recovery.lease_conservation",
                rec.leases_at_crash > 0
                and rec.leases_readopted == rec.leases_at_crash
                and rec.leases_expired == 0
                and rec.zombies_reclaimed == 0
                and rec.zombies_surviving == 0,
                detail=(
                    f"all {rec.leases_at_crash} leases open at the crash "
                    "re-adopted; none expired, no zombies"
                ),
            )
        )
        result.checks.append(
            Check.that(
                "recovery.work_preserving",
                rec.tasks_requeued == 0,
                detail="re-adoption kept every running attempt alive",
            )
        )

        base_counts = self._finish_counts(baseline)
        crash_counts = self._finish_counts(crashed)
        result.checks.append(
            Check.that(
                "recovery.no_duplicate_completions",
                crash_counts and max(crash_counts.values()) == 1,
                detail="no task recorded more than one completion",
            )
        )
        result.checks.append(
            Check.that(
                "recovery.same_tasks_completed",
                set(crash_counts) == set(base_counts),
                detail="the crash arm completed exactly the baseline's tasks",
            )
        )

        durations = rec.recovery_durations
        result.checks.append(
            Check.within(
                "recovery.duration_identity",
                durations[0] if durations else float("inf"),
                stall,
                0.01,
                detail="crash-to-resumed == outage + reconciliation window",
            )
        )

        assert baseline.metrics.avg_jct and crashed.metrics.avg_jct
        jct_delta = crashed.metrics.avg_jct - baseline.metrics.avg_jct
        result.params["jct_delta"] = jct_delta
        result.checks.append(
            Check.at_least(
                "recovery.jct_floor",
                jct_delta,
                0.0,
                slack=0.5,
                detail=(
                    "a stall cannot meaningfully speed jobs up (revocations "
                    "pause too, so apps keep idle executors across the "
                    "outage — hence the small negative slack)"
                ),
            )
        )
        result.checks.append(
            Check.at_most(
                "recovery.jct_inflation_bounded",
                jct_delta,
                stall,
                slack=1e-6,
                detail="mean JCT inflates by at most the stalled interval",
            )
        )
        assert baseline.metrics.makespan and crashed.metrics.makespan
        result.checks.append(
            Check.at_most(
                "recovery.makespan_inflation_bounded",
                crashed.metrics.makespan - baseline.metrics.makespan,
                stall,
                slack=1e-6,
                detail="makespan inflates by at most the stalled interval",
            )
        )

        # The no-crash control: the full recovery stack enabled but no
        # fault plan must replay the seed trajectory record-for-record.
        plain = run_experiment(replace(config, manager_recovery=False))
        plain_records = [r.as_dict() for r in plain.timeline]
        base_records = [r.as_dict() for r in baseline.timeline]
        result.checks.append(
            Check.that(
                "recovery.lockstep_without_crash",
                plain_records == base_records,
                detail="recovery stack is trajectory-invisible until a crash",
            )
        )
