"""Executor state machine: allocation, slots, release."""

import pytest

from repro.cluster.executor import Executor, ExecutorState
from repro.cluster.node import WorkerNode
from repro.common.errors import AllocationError, CapacityError


@pytest.fixture
def node():
    return WorkerNode(
        "w-0", cores=8, memory=1024.0, disk_bandwidth=100.0, uplink=10.0, downlink=10.0
    )


@pytest.fixture
def executor(node):
    return Executor("e-0", node, slots=2)


class TestAllocation:
    def test_node_id_is_the_hosting_nodes_id(self, executor, node):
        assert executor.node_id == node.node_id == "w-0"
        assert "node_id" in vars(executor)  # a plain attribute, not derived per read

    def test_starts_free(self, executor):
        assert executor.is_free
        assert executor.owner is None
        assert executor.state is ExecutorState.FREE

    def test_allocate_sets_owner(self, executor):
        executor.allocate("app-1")
        assert not executor.is_free
        assert executor.owner == "app-1"

    def test_double_allocation_rejected(self, executor):
        executor.allocate("app-1")
        with pytest.raises(AllocationError):
            executor.allocate("app-2")

    def test_release_returns_to_pool(self, executor):
        executor.allocate("app-1")
        executor.release()
        assert executor.is_free
        assert executor.owner is None

    def test_release_unallocated_rejected(self, executor):
        with pytest.raises(AllocationError):
            executor.release()

    def test_release_while_busy_rejected(self, executor):
        executor.allocate("app-1")
        executor.start_task("t-0")
        with pytest.raises(AllocationError):
            executor.release()

    def test_reallocation_after_release(self, executor):
        executor.allocate("app-1")
        executor.release()
        executor.allocate("app-2")
        assert executor.owner == "app-2"


class TestSlots:
    def test_slot_accounting(self, executor):
        executor.allocate("app-1")
        assert executor.free_slots == 2
        executor.start_task("t-0")
        assert executor.free_slots == 1
        executor.start_task("t-1")
        assert executor.free_slots == 0

    def test_overcommit_rejected(self, executor):
        executor.allocate("app-1")
        executor.start_task("t-0")
        executor.start_task("t-1")
        with pytest.raises(CapacityError):
            executor.start_task("t-2")

    def test_start_without_owner_rejected(self, executor):
        with pytest.raises(AllocationError):
            executor.start_task("t-0")

    def test_duplicate_task_rejected(self, executor):
        executor.allocate("app-1")
        executor.start_task("t-0")
        with pytest.raises(AllocationError):
            executor.start_task("t-0")

    def test_finish_frees_slot(self, executor):
        executor.allocate("app-1")
        executor.start_task("t-0")
        executor.finish_task("t-0")
        assert executor.free_slots == 2

    def test_finish_unknown_task_rejected(self, executor):
        executor.allocate("app-1")
        with pytest.raises(AllocationError):
            executor.finish_task("ghost")

    def test_zero_slots_rejected(self, node):
        with pytest.raises(CapacityError):
            Executor("e-x", node, slots=0)

    def test_node_id_passthrough(self, executor):
        assert executor.node_id == "w-0"
