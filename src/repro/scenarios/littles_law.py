"""Little's law on the full experiment stack, across two bookkeeping layers.

The queueing scenarios validate the bare engine; this one validates the
whole cluster pipeline — managers, drivers, executors, HDFS reads,
shuffle transfers — by checking operational laws that any correctly
clocked queueing system must satisfy, using measurements from *different
layers* of the stack:

* the **cluster layer**: the time-series sampler polls live executor
  occupancy (``executors.busy_fraction``) and driver queues
  (``tasks.pending``) on a fine grid during the run;
* the **workload layer**: the driver stamps ``submitted_at`` /
  ``started_at`` / ``finished_at`` on every task.

Utilization law: mean busy slots  =  (Σ task service time) / horizon.
Little's law:    mean tasks in system  =  λ · mean task sojourn.

The left sides integrate sampled cluster state; the right sides are pure
timestamp arithmetic.  They agree only if executor occupancy intervals
and driver timestamps describe the *same* physical schedule — a drifted
clock, a leaked slot, or a task launched while still counted pending all
show up as a band violation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.config import ExperimentConfig
from repro.scenarios.base import (
    Check,
    ScenarioProfile,
    ScenarioResult,
    ValidationScenario,
    register,
)

__all__ = ["LittlesLawScenario", "time_average"]


def time_average(samples: List[Tuple[float, float]]) -> float:
    """Left-Riemann time average of a sampled piecewise-constant series."""
    if len(samples) < 2:
        return samples[0][1] if samples else 0.0
    area = 0.0
    for (t0, v0), (t1, _) in zip(samples, samples[1:]):
        area += v0 * (t1 - t0)
    span = samples[-1][0] - samples[0][0]
    return area / span if span > 0 else samples[0][1]


@register
class LittlesLawScenario(ValidationScenario):
    """L = λW and the utilization law on executor slots, within 5%."""

    name = "littles_law"
    title = "Little's law across cluster and workload layers"

    #: fine sampling grid — the integration error of the cluster-layer
    #: estimate must stay well inside the 5% acceptance band
    SAMPLE_INTERVAL = 0.5
    TOLERANCE = 0.05

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            manager="custody",
            workload="wordcount",
            num_nodes=10,
            num_apps=2,
            jobs_per_app=profile.scaled(6, 4),
            seed=profile.seed,
            trace=True,
            trace_sample_interval=self.SAMPLE_INTERVAL,
        )
        result.params = {
            "nodes": config.num_nodes,
            "jobs_per_app": config.jobs_per_app,
            "sample_interval": self.SAMPLE_INTERVAL,
        }
        run = run_experiment(config)
        assert run.sampler is not None
        total_slots = (
            config.num_nodes * config.executors_per_node * config.executor_slots
        )

        tasks = [
            task
            for app in run.apps
            for job in app.jobs
            for stage in job.stages
            for task in stage.tasks
            if task.finished_at is not None and not task.cancelled
        ]
        horizon = run.sim_time
        n = len(tasks)
        result.params["tasks"] = n
        result.params["horizon"] = horizon
        if not tasks or horizon <= 0:
            result.checks.append(
                Check.that("littles_law.ran", False, detail="no finished tasks")
            )
            return

        # Cluster-layer estimates (sampled live state).
        busy_mean = (
            time_average(run.sampler.samples["executors.busy_fraction"])
            * total_slots
        )
        pending_mean = time_average(run.sampler.samples["tasks.pending"])

        # Workload-layer estimates (driver timestamps).
        service_sum = sum(t.finished_at - t.started_at for t in tasks)
        sojourn_sum = sum(t.finished_at - t.submitted_at for t in tasks)
        lam = n / horizon
        mean_sojourn = sojourn_sum / n

        result.checks.append(
            Check.within(
                "utilization_law",
                busy_mean,
                service_sum / horizon,
                self.TOLERANCE,
                detail=(
                    f"sampled busy slots vs Σ service / T "
                    f"({n} tasks over {horizon:.0f}s)"
                ),
            )
        )
        result.checks.append(
            Check.within(
                "littles_law",
                busy_mean + pending_mean,
                lam * mean_sojourn,
                self.TOLERANCE,
                detail="sampled (busy + pending) vs λ·W from task timestamps",
            )
        )
        # Sanity: the system actually queued — the law must be tested on a
        # loaded system, not a trivially idle one.
        result.checks.append(
            Check.at_least(
                "littles_law.load",
                busy_mean / total_slots,
                0.02,
                detail="mean utilization above the triviality floor",
            )
        )
