"""NetworkPartition and LinkDegradation: stalls, timeouts, re-rating."""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkDegradation, NetworkPartition
from repro.hdfs.filesystem import HDFS
from repro.network.fabric import NetworkFabric
from repro.obs.tracer import Tracer
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline
from tests.reference_stack import reference_fabric

pytestmark = pytest.mark.faults


def make_stack(num_nodes=4, engine="incremental", network_timeout=30.0, plan=None):
    sim = Simulation()
    timeline = Timeline(clock=lambda: sim.now)
    tracer = Tracer(clock=lambda: sim.now, sinks=[timeline])
    make_fabric = reference_fabric if engine == "reference" else NetworkFabric
    fabric = make_fabric(sim, tracer=tracer)
    cluster = Cluster(
        ClusterConfig(num_nodes=num_nodes, uplink=1.0, downlink=1.0),
        fabric=fabric,
    )
    hdfs = HDFS(cluster)
    injector = None
    if plan is not None:
        injector = FaultInjector(
            sim, cluster, hdfs, plan, tracer=tracer, fabric=fabric,
            network_timeout=network_timeout,
        )
    return sim, fabric, timeline, injector


@pytest.mark.parametrize("engine", ["incremental", "reference"])
class TestPartitionTransfers:
    def test_inflight_transfer_across_cut_fails(self, engine):
        plan = FaultPlan(
            [NetworkPartition(at=5.0, duration=10.0, nodes=("worker-000",))]
        )
        sim, fabric, timeline, _ = make_stack(engine=engine, plan=plan)
        transfer = fabric.start_transfer("worker-000", "worker-001", 100.0)
        sim.run()
        assert transfer.done.triggered  # resolved, with a failure
        fails = [r for r in timeline.of_kind("transfer.fail")]
        assert len(fails) == 1
        assert fails[0].get("cause") == "partition"
        assert fabric.failed_count == 1

    def test_new_transfer_stalls_then_resumes_on_heal(self, engine):
        plan = FaultPlan(
            [NetworkPartition(at=0.0, duration=10.0, nodes=("worker-000",))]
        )
        sim, fabric, timeline, _ = make_stack(
            engine=engine, plan=plan, network_timeout=30.0
        )
        sim.run(until=1.0)
        transfer = fabric.start_transfer("worker-000", "worker-001", 2.0)
        sim.run()
        kinds = [r.kind for r in timeline if r.subject == transfer.transfer_id]
        assert "transfer.stall" in kinds
        assert "transfer.unstall" in kinds
        assert "transfer.finish" in kinds
        # Stalled from t=1, released at heal (t=10), then 2 bytes at 1 B/s.
        assert transfer.finished_at == pytest.approx(12.0)

    def test_stalled_transfer_times_out_when_heal_is_late(self, engine):
        plan = FaultPlan(
            [NetworkPartition(at=0.0, duration=100.0, nodes=("worker-000",))]
        )
        sim, fabric, timeline, _ = make_stack(
            engine=engine, plan=plan, network_timeout=10.0
        )
        sim.run(until=1.0)
        fabric.start_transfer("worker-000", "worker-001", 2.0)
        sim.run()
        fails = [r for r in timeline.of_kind("transfer.fail")]
        assert len(fails) == 1
        assert fails[0].get("cause") == "connect-timeout"
        assert fabric.failed_count == 1

    def test_same_side_traffic_unaffected(self, engine):
        plan = FaultPlan(
            [NetworkPartition(at=0.0, duration=50.0, nodes=("worker-000", "worker-001"))]
        )
        sim, fabric, _, _ = make_stack(engine=engine, plan=plan)
        inside = fabric.start_transfer("worker-000", "worker-001", 2.0)
        outside = fabric.start_transfer("worker-002", "worker-003", 2.0)
        sim.run()
        assert inside.finished_at == pytest.approx(2.0)
        assert outside.finished_at == pytest.approx(2.0)


@pytest.mark.parametrize("engine", ["incremental", "reference"])
class TestLinkDegradation:
    def test_degraded_link_slows_transfer(self, engine):
        plan = FaultPlan(
            [LinkDegradation(at=0.0, node_id="worker-000", duration=100.0, factor=4.0)]
        )
        sim, fabric, _, _ = make_stack(engine=engine, plan=plan)
        transfer = fabric.start_transfer("worker-000", "worker-001", 8.0)
        sim.run()
        # 8 bytes at 1/4 B/s — four times the healthy duration.
        assert transfer.finished_at == pytest.approx(32.0)

    def test_inflight_transfer_rerated_mid_window(self, engine):
        plan = FaultPlan(
            [LinkDegradation(at=4.0, node_id="worker-000", duration=4.0, factor=2.0)]
        )
        sim, fabric, _, _ = make_stack(engine=engine, plan=plan)
        transfer = fabric.start_transfer("worker-000", "worker-001", 10.0)
        sim.run()
        # 4 s at 1 B/s, 4 s at 0.5 B/s, remaining 4 bytes at 1 B/s.
        assert transfer.finished_at == pytest.approx(12.0)


class TestFullStackPartition:
    def test_jobs_survive_partition(self):
        config = ExperimentConfig(
            manager="custody", workload="sort", num_nodes=12, num_apps=2,
            jobs_per_app=3, seed=6, timeline_enabled=True,
        )
        plan = FaultPlan(
            [
                NetworkPartition(
                    at=5.0, duration=20.0,
                    nodes=("worker-000", "worker-001", "worker-002"),
                )
            ]
        )
        result = run_experiment(config, fault_plan=plan)
        assert result.metrics.unfinished_jobs == 0
        kinds = {r.kind for r in result.timeline}
        assert "fault.partition" in kinds
        assert "fault.partition.heal" in kinds
        assert result.faults.mttr["partition"] == pytest.approx(20.0)

    def test_requeue_after_total_reclaim_reallocates(self):
        """Regression: backoff must not strand a task with zero executors.

        A retried task leaves ``outstanding_tasks`` during its backoff
        window, so the manager may reclaim every executor the driver owns.
        Found by hypothesis: a partition stalls the last shuffle fetch of a
        job past its siblings' completion; by the time the connect timeout
        fires and the task is requeued, the driver has no executors, no
        running attempts, and — without ``on_demand_changed`` — no event
        left that could ever grant it capacity again.
        """
        config = ExperimentConfig(
            manager="custody", workload="pagerank", num_nodes=10,
            num_apps=2, jobs_per_app=2, seed=47, timeline_enabled=True,
        )
        plan = FaultPlan(
            [
                NetworkPartition(
                    at=59.0, duration=31.0,
                    nodes=("worker-002", "worker-003"),
                )
            ]
        )
        result = run_experiment(config, fault_plan=plan)
        assert result.metrics.unfinished_jobs == 0
        finish = {r.subject for r in result.timeline.of_kind("task.finish")}
        for app in result.apps:
            for job in app.jobs:
                for task in job.all_tasks:
                    assert (task.task_id in finish) != task.cancelled

    def test_partition_requires_fabric(self):
        sim = Simulation()
        cluster = Cluster(ClusterConfig(num_nodes=2))
        hdfs = HDFS(cluster)
        plan = FaultPlan(
            [NetworkPartition(at=1.0, duration=5.0, nodes=("worker-000",))]
        )
        with pytest.raises(ConfigurationError):
            FaultInjector(sim, cluster, hdfs, plan)
