"""Modeled re-replication: recovery copies as real transfers, edge cases."""

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.units import BlockSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeFailure
from repro.hdfs.filesystem import HDFS
from repro.network.fabric import NetworkFabric
from repro.obs.tracer import Tracer
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline

pytestmark = pytest.mark.faults


def make_stack(num_nodes, replication, plan, file_size=4.0):
    sim = Simulation()
    timeline = Timeline(clock=lambda: sim.now)
    tracer = Tracer(clock=lambda: sim.now, sinks=[timeline])
    fabric = NetworkFabric(sim, tracer=tracer)
    cluster = Cluster(
        ClusterConfig(num_nodes=num_nodes, uplink=1.0, downlink=1.0),
        fabric=fabric,
    )
    hdfs = HDFS(cluster, block_spec=BlockSpec(size=1.0, replication=replication))
    entry = hdfs.ingest("/data/f", file_size)
    injector = FaultInjector(
        sim, cluster, hdfs, plan, tracer=tracer, fabric=fabric
    )
    return sim, hdfs, timeline, injector, entry


class TestRecovery:
    def test_lost_replicas_restored_via_transfers(self):
        plan = FaultPlan(
            [NodeFailure(at=1.0, node_id="worker-000", restart_delay=200.0)]
        )
        sim, hdfs, timeline, injector, entry = make_stack(
            num_nodes=3, replication=2, plan=plan
        )
        sim.run()
        assert injector.replicas_lost > 0
        # Every lost block had one survivor and exactly one free target.
        assert injector.replicas_restored == injector.replicas_lost
        assert injector.recovery_flows == injector.replicas_lost
        assert injector.blocks_lost == 0
        for block in entry.blocks:
            assert len(hdfs.namenode.locations(block.block_id)) == 2

    def test_all_replicas_lost_counts_data_loss_without_crash(self):
        plan = FaultPlan(
            [NodeFailure(at=1.0, node_id="worker-000", restart_delay=200.0)]
        )
        sim, hdfs, timeline, injector, entry = make_stack(
            num_nodes=2, replication=1, plan=plan, file_size=6.0
        )
        sim.run()
        # Blocks that lived only on worker-000 are unrecoverable.
        assert injector.blocks_lost > 0
        assert injector.blocks_lost == injector.replicas_lost
        assert injector.replicas_restored == 0
        lost = {r.subject for r in timeline.of_kind("fault.block_lost")}
        assert len(lost) == injector.blocks_lost

    def test_no_healthy_target_gives_up_after_bounded_retries(self):
        # Two nodes, replication 2: the only survivor already holds every
        # block and the crashed node stays down past the retry budget.
        plan = FaultPlan(
            [NodeFailure(at=1.0, node_id="worker-000", restart_delay=500.0)]
        )
        sim, hdfs, timeline, injector, entry = make_stack(
            num_nodes=2, replication=2, plan=plan
        )
        sim.run()
        assert injector.replicas_lost > 0
        assert injector.replicas_restored == 0
        assert injector.recovery_flows == 0
        giveups = {r.subject for r in timeline.of_kind("fault.re_replicate.giveup")}
        assert len(giveups) == injector.replicas_lost

    def test_block_already_back_at_full_replication_is_skipped(self):
        sim, hdfs, timeline, injector, entry = make_stack(
            num_nodes=3, replication=2, plan=FaultPlan()
        )
        block_id = entry.blocks[0].block_id
        # Nothing was actually lost: the pump must notice and do nothing.
        injector._begin_re_replication("worker-000", [block_id])
        sim.run()
        assert injector.recovery_flows == 0
        assert injector.replicas_restored == 0
        assert len(hdfs.namenode.locations(block_id)) == 2

    def test_recovery_resumes_after_node_restore_frees_a_target(self):
        # Same two-node topology, but the node comes back inside the retry
        # budget (< 6 retries x 5 s): the copy then lands on it.
        plan = FaultPlan(
            [NodeFailure(at=1.0, node_id="worker-000", restart_delay=12.0)]
        )
        sim, hdfs, timeline, injector, entry = make_stack(
            num_nodes=2, replication=2, plan=plan
        )
        sim.run()
        assert injector.replicas_lost > 0
        assert injector.replicas_restored == injector.replicas_lost
        for block in entry.blocks:
            assert len(hdfs.namenode.locations(block.block_id)) == 2


class TestFullStackRecovery:
    def test_data_loss_tasks_accounted_not_wedged(self):
        # Replication 1 + a long node outage: tasks whose only input replica
        # died are abandoned as data loss, and the run still completes.
        config = ExperimentConfig(
            manager="custody", workload="sort", num_nodes=8, num_apps=2,
            jobs_per_app=3, seed=3, replication=1, timeline_enabled=True,
        )
        plan = FaultPlan(
            [NodeFailure(at=2.0, node_id="worker-000", restart_delay=5000.0)]
        )
        result = run_experiment(config, fault_plan=plan)
        assert result.metrics.unfinished_jobs == 0
        for app in result.apps:
            for job in app.jobs:
                for task in job.all_tasks:
                    assert task.finished_at is not None or task.cancelled
        if result.faults.data_loss_tasks:
            abandons = [r for r in result.timeline.of_kind("task.abandon")]
            assert any(r.get("reason") == "data-loss" for r in abandons)
