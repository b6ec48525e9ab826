"""Scenario diversity: trace replay, diurnal load, and elastic churn.

The queueing and locality scenarios pin the simulator to closed forms;
these three pin it to *workload shapes* the synthetic common schedule
never exercises — a real cluster trace replayed through the stack, a
nonhomogeneous (diurnal) arrival process, and spot-style node churn.
Each runs end-to-end through :func:`repro.experiments.runner.run_experiment`
with a fixed seed and asserts structural invariants: every submitted job
finishes, a repeated run reproduces the same metrics bit-for-bit, and
the workload generator actually produced the shape it advertises
(losslessly round-tripping CSV, a daytime arrival peak, faults injected
without losing data).
"""

from __future__ import annotations

from repro.common.rng import RngStreams
from repro.experiments.config import ExperimentConfig
from repro.scenarios.base import (
    Check,
    ScenarioProfile,
    ScenarioResult,
    ValidationScenario,
    register,
)
from repro.workload.arrivals import diurnal_schedule
from repro.workload.replay import TraceColumns, read_cluster_trace

__all__ = [
    "TraceReplayScenario",
    "DiurnalScenario",
    "ElasticChurnScenario",
    "SAMPLE_TRACE_CSV",
]

#: A miniature Google-style job-events extract: (time, user) rows, out of
#: order and in "microseconds" so the adapter's sorting/scaling paths are
#: exercised.  Kept inline so the scenario is self-contained.
SAMPLE_TRACE_CSV = """\
time,user
12000000,alice
0,bob
30000000,carol
21000000,alice
45000000,dave
38000000,bob
52000000,alice
60000000,erin
74000000,carol
68000000,dave
83000000,bob
90000000,frank
"""


def _metrics_signature(result) -> dict:
    """The bitwise-comparable projection of a run's metrics."""
    return result.metrics.as_dict()


@register
class TraceReplayScenario(ValidationScenario):
    """Replay a cluster-trace extract end-to-end, deterministically."""

    name = "trace_replay"
    title = "Cluster-trace replay through the full stack"

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            manager="custody",
            workload="wordcount",
            num_nodes=8,
            num_apps=2,
            jobs_per_app=6,  # upper bound; the trace decides the real count
            seed=profile.seed,
        )
        trace = read_cluster_trace(
            SAMPLE_TRACE_CSV.splitlines(),
            config.app_ids,
            columns=TraceColumns(time="time", entity="user"),
            time_scale=1e-6 * 100.0,  # μs → s, then compress 100×
        )
        result.params = {
            "jobs": len(trace),
            "horizon": trace.horizon,
            "apps": sorted({e.app_id for e in trace}),
        }
        result.checks.append(
            Check.that(
                "replay.adapter",
                len(trace) == 12 and trace.events[0].time == 0.0,
                detail="all rows adapted, timeline shifted to zero",
            )
        )
        result.checks.append(
            Check.that(
                "replay.csv_roundtrip",
                type(trace).from_csv(trace.to_csv()).to_records()
                == trace.to_records(),
                detail="SubmissionTrace → CSV → SubmissionTrace is lossless",
            )
        )

        run = run_experiment(config, trace=trace)
        rerun = run_experiment(config, trace=trace)
        result.checks.append(
            Check.that(
                "replay.all_jobs_finish",
                run.metrics.finished_jobs == len(trace)
                and run.metrics.unfinished_jobs == 0,
                detail=f"{run.metrics.finished_jobs}/{len(trace)} jobs finished",
            )
        )
        result.checks.append(
            Check.that(
                "replay.deterministic",
                _metrics_signature(run) == _metrics_signature(rerun),
                detail="same (seed, trace) → identical metrics",
            )
        )


@register
class DiurnalScenario(ValidationScenario):
    """Thinned nonhomogeneous arrivals: the generator peaks when told to."""

    name = "diurnal"
    title = "Diurnal load curve via Lewis–Shedler thinning"

    #: short "day" so even the smoke trace spans multiple cycles — the
    #: peak/trough check must discriminate, not hold vacuously
    PERIOD = 24.0

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig(
            manager="custody",
            workload="wordcount",
            num_nodes=8,
            num_apps=2,
            jobs_per_app=profile.scaled(10, 6),
            seed=profile.seed,
        )
        rng = RngStreams(seed=profile.seed).get("scenarios.diurnal")
        # Zero phase: sin is positive on each period's first half, so the
        # rate sits above base exactly in the "daytime" window.
        trace = diurnal_schedule(
            config.app_ids,
            config.jobs_per_app,
            rng,
            mean_interarrival=10.0,
            amplitude=0.9,
            period=self.PERIOD,
            phase=0.0,
        )
        half = self.PERIOD / 2.0
        peak = sum(1 for e in trace if (e.time % self.PERIOD) < half)
        trough = len(trace) - peak
        result.params = {
            "jobs": len(trace),
            "horizon": trace.horizon,
            "peak_half_arrivals": peak,
            "trough_half_arrivals": trough,
        }
        result.checks.append(
            Check.that(
                "diurnal.peaked",
                peak > trough,
                detail=(
                    f"{peak} arrivals in peak half-periods vs {trough} in "
                    "trough halves"
                ),
            )
        )
        run = run_experiment(config, trace=trace)
        result.checks.append(
            Check.that(
                "diurnal.all_jobs_finish",
                run.metrics.finished_jobs == len(trace)
                and run.metrics.unfinished_jobs == 0,
                detail=f"{run.metrics.finished_jobs}/{len(trace)} jobs finished",
            )
        )


@register
class ElasticChurnScenario(ValidationScenario):
    """Spot-style node churn composed with the fault machinery."""

    name = "elastic_churn"
    title = "Elastic node churn without data loss"

    def build(self, profile: ScenarioProfile, result: ScenarioResult) -> None:
        from repro.experiments.runner import run_experiment
        from repro.faults.elastic import build_churn_plan

        config = ExperimentConfig(
            manager="custody",
            workload="wordcount",
            num_nodes=10,
            num_apps=2,
            jobs_per_app=profile.scaled(6, 4),
            seed=profile.seed,
            replication=3,
        )
        rng = RngStreams(seed=profile.seed).get("scenarios.elastic_churn")
        plan = build_churn_plan(
            config.num_nodes,
            rng,
            events=profile.scaled(6, 4),
            horizon=250.0,
            min_alive_fraction=0.6,
        )
        result.params = {"churn_events": len(plan)}
        run = run_experiment(config, fault_plan=plan)
        rerun = run_experiment(
            config,
            fault_plan=build_churn_plan(
                config.num_nodes,
                RngStreams(seed=profile.seed).get("scenarios.elastic_churn"),
                events=profile.scaled(6, 4),
                horizon=250.0,
                min_alive_fraction=0.6,
            ),
        )
        assert run.faults is not None
        result.params["injected"] = run.faults.injected
        result.params["replicas_lost"] = run.faults.replicas_lost
        result.params["replicas_restored"] = run.faults.replicas_restored
        result.checks.append(
            Check.that(
                "churn.injected",
                run.faults.injected >= 1,
                detail=f"{run.faults.injected} churn events fired",
            )
        )
        result.checks.append(
            Check.that(
                "churn.all_jobs_finish",
                run.metrics.unfinished_jobs == 0,
                detail=(
                    f"{run.metrics.finished_jobs} jobs finished, "
                    f"{run.metrics.unfinished_jobs} wedged"
                ),
            )
        )
        result.checks.append(
            Check.that(
                "churn.no_data_loss",
                run.faults.data_loss_tasks == 0 and run.faults.blocks_lost == 0,
                detail=(
                    "3-way replication + capacity floor keeps every block "
                    "readable through churn"
                ),
            )
        )
        result.checks.append(
            Check.that(
                "churn.deterministic",
                _metrics_signature(run) == _metrics_signature(rerun),
                detail="same (seed, plan) → identical metrics",
            )
        )
