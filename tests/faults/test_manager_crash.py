"""ManagerCrash: the fault kind, its injection path, and the outage stall."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import ExecutorFailure, FaultPlan, ManagerCrash, NodeFailure

pytestmark = [pytest.mark.faults, pytest.mark.recovery]

BASE = dict(
    manager="custody", workload="sort", num_nodes=10, num_apps=2,
    jobs_per_app=3, seed=11,
)


def run_with(plan, **overrides):
    return run_experiment(
        ExperimentConfig(**{**BASE, **overrides}), fault_plan=plan
    )


class TestManagerCrashEvent:
    def test_valid(self):
        e = ManagerCrash(at=10.0, duration=20.0)
        assert e.duration == 20.0

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_invalid_duration(self, duration):
        with pytest.raises(ConfigurationError):
            ManagerCrash(at=10.0, duration=duration)

    def test_negative_at(self):
        with pytest.raises(ConfigurationError):
            ManagerCrash(at=-1.0, duration=5.0)


class TestInjection:
    def test_requires_recovery_coordinator(self):
        plan = FaultPlan([ManagerCrash(at=10.0, duration=20.0)])
        with pytest.raises(ConfigurationError, match="manager_recovery"):
            run_with(plan)

    def test_crash_recovers_and_jobs_finish(self):
        plan = FaultPlan([ManagerCrash(at=10.0, duration=20.0)])
        result = run_with(plan, manager_recovery=True, lease_duration=300.0,
                          timeline_enabled=True)
        assert result.metrics.unfinished_jobs == 0
        rec = result.recovery
        assert rec is not None
        assert rec.manager_crashes == 1 and rec.recoveries == 1
        injector = result.fault_injector
        assert injector is not None and injector.injected >= 1
        assert injector.mttr["manager"] == [20.0]
        kinds = [r.kind for r in result.timeline]
        assert "fault.manager" in kinds
        assert "manager.down" in kinds
        assert "manager.restart" in kinds
        assert "manager.recovered" in kinds

    def test_outage_stalls_allocation(self):
        plan = FaultPlan([ManagerCrash(at=5.0, duration=30.0)])
        result = run_with(plan, manager_recovery=True, lease_duration=300.0,
                          timeline_enabled=True)
        # During [5, 35 + window) no grants are handed out.
        down_end = 35.0 + result.config.reconciliation_window
        grant_times = [
            r.time for r in result.timeline if r.kind == "executor.grant"
        ]
        assert all(t < 5.0 or t >= down_end for t in grant_times)
        rec = result.recovery
        assert rec.rounds_stalled >= 1 or rec.grants_refused >= 0

    def test_double_crash_extends_outage(self):
        plan = FaultPlan([
            ManagerCrash(at=10.0, duration=20.0),
            ManagerCrash(at=20.0, duration=25.0),  # lands while still down
        ])
        result = run_with(plan, manager_recovery=True, lease_duration=300.0)
        rec = result.recovery
        assert rec.manager_crashes == 2
        # Only the surviving generation completes a recovery.
        assert rec.recoveries == 1
        assert result.metrics.unfinished_jobs == 0

    def test_recovery_work_preserving_with_long_lease(self):
        plan = FaultPlan([ManagerCrash(at=15.0, duration=20.0)])
        result = run_with(plan, manager_recovery=True, lease_duration=600.0)
        rec = result.recovery
        assert rec.leases_at_crash > 0
        assert rec.leases_readopted == rec.leases_at_crash
        assert rec.leases_expired == 0
        assert rec.zombies_reclaimed == 0
        assert rec.zombies_surviving == 0
        assert rec.tasks_requeued == 0

    def test_short_lease_expires_and_requeues(self):
        # Outage far beyond lease_duration: every lease expires on restart
        # and the reclaimed tasks are requeued without node penalties.
        plan = FaultPlan([ManagerCrash(at=8.0, duration=60.0)])
        result = run_with(plan, manager_recovery=True, lease_duration=5.0,
                          lease_renew_interval=1.0)
        rec = result.recovery
        assert rec.leases_at_crash > 0
        assert rec.leases_readopted == 0
        assert rec.leases_expired >= rec.leases_at_crash - rec.zombies_reclaimed
        assert result.metrics.unfinished_jobs == 0
        faults = result.faults
        # Control-plane reclaims never count as node failures.
        assert faults.blacklist_events == 0

    def test_wal_flush_lag_creates_reclaimed_zombies(self):
        # A large flush lag loses the WAL tail: grants made shortly before
        # the crash are unknown to the rebuilt ledger, so their executors
        # come back as zombies — detected and reclaimed, never surviving.
        plan = FaultPlan([ManagerCrash(at=6.0, duration=25.0)])
        result = run_with(plan, manager_recovery=True, lease_duration=600.0,
                          wal_flush_lag=30.0, checkpoint_interval=1000.0)
        rec = result.recovery
        assert rec.wal_lost_entries > 0
        assert rec.zombies_reclaimed > 0
        assert rec.zombies_surviving == 0
        assert result.metrics.unfinished_jobs == 0

    def test_submissions_buffered_during_outage(self):
        # Jobs arriving mid-outage buffer their manager notification and
        # retry; the run still drains everything.
        plan = FaultPlan([ManagerCrash(at=0.5, duration=40.0)])
        result = run_with(plan, manager_recovery=True, lease_duration=600.0,
                          jobs_per_app=4)
        assert result.faults.submissions_buffered > 0
        assert result.metrics.unfinished_jobs == 0

    def test_deterministic(self):
        plan = FaultPlan([ManagerCrash(at=12.0, duration=18.0)])
        r1 = run_with(plan, manager_recovery=True, lease_duration=300.0)
        r2 = run_with(plan, manager_recovery=True, lease_duration=300.0)
        assert r1.metrics == r2.metrics
        assert r1.recovery.as_dict() == r2.recovery.as_dict()


class TestChaosIntegration:
    def test_manager_crashes_drawn_last(self):
        # A plan with crashes extends the crash-free plan for the same
        # seed instead of reshuffling it (seed-stability of chaos plans).
        import numpy as np

        from repro.faults.chaos import build_chaos_plan

        def draw(crashes):
            rng = np.random.default_rng([3, 7919, 1])
            return build_chaos_plan(
                10, 2, rng, node_failures=1, partitions=1, degradations=1,
                executor_failures=1, slowdowns=1, link_flaps=1,
                correlated_failures=1, manager_crashes=crashes, horizon=100.0,
            )

        without = draw(0)
        with_crashes = draw(2)
        crashes = with_crashes.of_type(ManagerCrash)
        assert len(crashes) == 2
        others = [e for e in with_crashes if not isinstance(e, ManagerCrash)]
        assert others == without.events
        for crash in crashes:
            assert 0.0 <= crash.at <= 100.0
            assert 5.0 <= crash.duration <= 15.0  # 5-15% of the horizon


class TestExecutorRestartEpoch:
    def test_stale_restart_cannot_revive_a_refailed_executor(self):
        """Regression: an executor restart callback left over from a first
        failure must not heal a *second* failure early (the heal used to
        double-count when node churn revived the executor in between)."""
        from repro.cluster.cluster import Cluster, ClusterConfig
        from repro.faults.injector import FaultInjector
        from repro.hdfs.filesystem import HDFS
        from repro.obs.tracer import Tracer
        from repro.simulation.engine import Simulation
        from repro.simulation.timeline import Timeline

        sim = Simulation()
        timeline = Timeline(lambda: sim.now)
        tracer = Tracer(clock=lambda: sim.now, sinks=[timeline])
        cluster = Cluster(ClusterConfig(num_nodes=2))
        hdfs = HDFS(cluster)
        plan = FaultPlan([
            ExecutorFailure(at=5.0, executor_id="executor-000",
                            restart_delay=10.0),   # restart due at t=15
            NodeFailure(at=8.0, node_id="worker-000", restart_delay=4.0,
                        re_replicate=False),       # revives it at t=12
            ExecutorFailure(at=13.0, executor_id="executor-000",
                            restart_delay=10.0),   # restart due at t=23
        ])
        injector = FaultInjector(sim, cluster, hdfs, plan, tracer=tracer)

        sim.run(until=16.0)
        # The t=15 callback belongs to the first failure: stale, ignored.
        assert "executor-000" in injector.failed_executor_ids
        assert not cluster.executor("executor-000").healthy

        sim.run(until=24.0)
        assert "executor-000" not in injector.failed_executor_ids
        assert cluster.executor("executor-000").healthy
        restarts = [
            r for r in timeline
            if r.kind == "fault.executor.restart" and r.subject == "executor-000"
        ]
        # Exactly one executor-level heal, at the second failure's restart
        # time — not an extra early one from the stale callback.
        assert [r.time for r in restarts] == [23.0]
