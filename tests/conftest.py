"""Shared fixtures: tiny deterministic cluster stacks for unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.units import MB
from repro.common.units import BlockSpec
from repro.hdfs.filesystem import HDFS
from repro.hdfs.placement import RandomPlacement
from repro.network.fabric import NetworkFabric
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline
from tests.reference_stack import stack  # noqa: F401  (both engine stacks)


@pytest.fixture
def sim() -> Simulation:
    """A fresh simulation."""
    return Simulation()


@pytest.fixture
def timeline(sim: Simulation) -> Timeline:
    """A timeline bound to the fixture simulation's clock."""
    return Timeline(clock=lambda: sim.now)


@pytest.fixture
def fabric(sim: Simulation) -> NetworkFabric:
    """A network fabric on the fixture simulation."""
    return NetworkFabric(sim)


@pytest.fixture
def small_cluster(fabric: NetworkFabric) -> Cluster:
    """8 nodes x 2 cores, 2 single-slot executors per node, tame bandwidths."""
    return Cluster(
        ClusterConfig(
            num_nodes=8,
            cores_per_node=2,
            executors_per_node=2,
            executor_slots=1,
            disk_bandwidth=100 * MB,
            uplink=10 * MB,
            downlink=100 * MB,
            nodes_per_rack=4,
        ),
        fabric=fabric,
    )


@pytest.fixture
def small_hdfs(small_cluster: Cluster) -> HDFS:
    """HDFS over the small cluster: 10 MB blocks, 2 replicas, seeded rng."""
    return HDFS(
        small_cluster,
        block_spec=BlockSpec(size=10 * MB, replication=2),
        placement=RandomPlacement(),
        rng=np.random.default_rng(7),
    )
