"""Baseline locality vs the hypergeometric closed form (Fig. 7's physics).

:mod:`repro.analysis.expectations` derives the data-unaware baseline's
input-task locality exactly: replicas cover nodes hypergeometrically, a
random executor grant covers an expected node set, and a task can run
locally iff the two intersect.  That closed form is an *upper bound* on
the measured baseline (slot contention and delay-wait expiry only lose
locality), and under light load the measurement must converge to it from
below.

This scenario runs the standalone (random-allocation) manager at light
load across several seeds and pins both properties: the seed-averaged
measured locality sits below the bound (validity) and within a band of
it (convergence).  If either fails, the simulated storage/allocation
geometry no longer matches the paper's model — exactly the kind of drift
a locality-uplift headline would silently inherit.
"""

from __future__ import annotations

from repro.analysis.expectations import expected_random_allocation_locality
from repro.experiments.config import ExperimentConfig
from repro.scenarios.base import (
    Check,
    ScenarioProfile,
    ScenarioResult,
    ValidationScenario,
    register,
)

__all__ = ["LocalityConvergenceScenario"]


@register
class LocalityConvergenceScenario(ValidationScenario):
    """Measured baseline locality converges to the hypergeometric bound."""

    name = "locality"
    title = "Random-allocation locality vs hypergeometric closed form"

    NUM_NODES = 16
    REPLICATION = 3
    #: absolute slack above the bound (finite-sample noise on a mean of
    #: per-job fractions) and band below it (residual contention at the
    #: light-load operating point)
    UPPER_SLACK = 0.06
    LOWER_BAND = 0.20

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        from repro.experiments.runner import run_experiment

        seeds = range(profile.seed, profile.seed + profile.scaled(5, 3))
        measured = []
        quota = None
        for seed in seeds:
            config = ExperimentConfig(
                manager="standalone",
                workload="wordcount",
                num_nodes=self.NUM_NODES,
                num_apps=2,
                jobs_per_app=profile.scaled(4, 3),
                seed=seed,
                replication=self.REPLICATION,
                # Light load, generous locality wait: the regime where the
                # bound is tight (§ analysis/expectations docstring).
                mean_interarrival=60.0,
                delay_wait=10.0,
            )
            run = run_experiment(config)
            measured.append(run.metrics.locality_mean)
            if quota is None:
                total = config.num_nodes * config.executors_per_node
                quota = total // config.num_apps
        mean_measured = sum(measured) / len(measured)
        assert quota is not None
        expected = expected_random_allocation_locality(
            self.NUM_NODES,
            2,  # executors_per_node (config default)
            quota,
            self.REPLICATION,
        )
        result.params = {
            "nodes": self.NUM_NODES,
            "replication": self.REPLICATION,
            "quota": quota,
            "seeds": len(measured),
            "per_seed": measured,
        }
        result.checks.append(
            Check.at_most(
                "locality.upper_bound",
                mean_measured,
                expected,
                self.UPPER_SLACK,
                detail="closed form upper-bounds the measured baseline",
            )
        )
        result.checks.append(
            Check.at_least(
                "locality.convergence",
                mean_measured,
                expected,
                self.LOWER_BAND,
                detail="light-load measurement converges toward the bound",
            )
        )
