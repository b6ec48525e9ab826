"""The incremental Custody control plane: cache behaviour and equivalence.

The demand cache may only change *when* work happens, never *what* is
decided: the churn scenario runs on the production manager and on
``ReferenceCustodyManager`` (``tests/reference_stack.py``) and asserts
identical plan streams, grants and locality outcomes; the rest pins the
cache hit/miss accounting and its three invalidation triggers (demand
epoch, NameNode version, watched-node pool changes).
"""

from unittest import mock

from repro.core import allocation
from repro.managers.custody import CustodyManager
from tests.reference_stack import ReferenceCustodyManager


def make_manager(harness, num_apps=2, manager_cls=CustodyManager, **kw):
    return manager_cls(
        harness.sim, harness.cluster, num_apps=num_apps, validate=True, **kw
    )


def record_plans(manager):
    """Shadow ``reallocate`` with a signature-recording wrapper."""
    signatures = []
    original = manager.reallocate

    def recording():
        plan = original()
        signatures.append(plan.signature())
        return plan

    manager.reallocate = recording
    return signatures


def run_churn_scenario(harness_cls, manager_cls):
    """A contended two-app workload; returns its observable decision trail."""
    harness = harness_cls()
    manager = make_manager(harness, manager_cls=manager_cls)
    signatures = record_plans(manager)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    jobs = []
    for k in range(5):
        for driver, blocks in ((d0, [k % 4, (k + 1) % 4]), (d1, [(k + 2) % 8, 5])):
            job = harness.make_job(driver.app_id, blocks)
            jobs.append(job)
            harness.sim.schedule_at(k * 1.5, driver.submit_job, job)
    harness.sim.run()
    return {
        "signatures": signatures,
        "rounds": manager.allocation_rounds,
        "localities": [j.is_local_job for j in jobs],
        "owners": sorted(
            (e.executor_id, e.owner) for e in harness.cluster.executors
        ),
    }


def test_engines_identical_under_churn(harness):
    """Reference and incremental runs take identical decisions throughout."""
    harness_cls = type(harness)
    assert run_churn_scenario(
        harness_cls, ReferenceCustodyManager
    ) == run_churn_scenario(harness_cls, CustodyManager)


def test_steady_state_rounds_hit_the_cache(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    d0.submit_job(harness.make_job("a-0", [0, 1]))
    d1.submit_job(harness.make_job("a-1", [4, 5]))
    harness.sim.run()
    manager.reallocate()  # settle any post-run releases
    manager.reallocate()  # rebuild entries for the settled state
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    plan = manager.reallocate()  # nothing changed: every demand is a hit
    assert manager.demand_cache_hits == hits + 2
    assert manager.demand_cache_misses == misses
    assert not plan.grants


def test_job_submission_dirties_only_its_app(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    d0.submit_job(harness.make_job("a-0", [0]))
    d1.submit_job(harness.make_job("a-1", [5]))
    harness.sim.run()
    manager.reallocate()
    manager.reallocate()
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    d0.submit_job(harness.make_job("a-0", [2]))  # triggers one round
    # a-0's epoch moved (rebuild); a-1 is untouched (cache hit).
    assert manager.demand_cache_misses == misses + 1
    assert manager.demand_cache_hits == hits + 1


def test_namenode_mutation_invalidates_every_entry(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    d0.submit_job(harness.make_job("a-0", [0]))
    d1.submit_job(harness.make_job("a-1", [5]))
    harness.sim.run()
    manager.reallocate()
    manager.reallocate()
    block = harness.entry.blocks[0]
    harness.hdfs.namenode.add_cached_replica(block.block_id, "worker-003")
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    manager.reallocate()
    assert manager.demand_cache_misses == misses + 2
    assert manager.demand_cache_hits == hits


def test_watched_pool_change_invalidates_the_watcher(harness):
    """Pool movement on a watched replica node dirties only the watcher."""
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    # Both apps want block 3's node; the single executor there goes to a-0,
    # so a-1's task stays unsatisfied and its demand watches worker-003.
    d0.submit_job(harness.make_job("a-0", [3]))
    d1.submit_job(harness.make_job("a-1", [3]))
    manager.reallocate()
    manager.reallocate()  # settle: entries rebuilt for the stable state
    entry = manager._demand_cache["a-1"]
    assert "worker-003" in entry.watch_nodes
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    executor = next(
        e for e in harness.cluster.executors if e.node_id == "worker-003"
    )
    manager._note_pool_change(executor)  # free pool moved on the watched node
    manager.reallocate()
    assert manager.demand_cache_misses == misses + 1  # a-1 rebuilt
    assert manager.demand_cache_hits == hits + 1  # a-0 untouched


def test_fault_injection_bypasses_the_cache(harness):
    """Under faults demand reuse is off; the pool-free indexes stay on."""

    class OmniscientInjector:
        def node_reachable(self, node_id):
            return True

        def node_down(self, node_id):
            return False

    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    manager.fault_injector = OmniscientInjector()
    d0.submit_job(harness.make_job("a-0", [0]))
    harness.sim.run()
    manager.reallocate()
    manager.reallocate()
    assert manager._serving_memo  # the replica memo served the rounds
    assert manager.demand_cache_hits == 0
    assert manager.demand_cache_misses == 0
    assert not manager._demand_cache


def test_incremental_is_the_default_engine(harness):
    """The production manager plans with the heap engine, never the
    rescanning reference."""
    manager = make_manager(harness)
    harness.add_app(manager, "a-0")
    with mock.patch.object(
        allocation, "two_level_allocate_incremental",
        wraps=allocation.two_level_allocate_incremental,
    ) as heap, mock.patch.object(
        allocation, "two_level_allocate", wraps=allocation.two_level_allocate
    ) as rescan:
        manager.reallocate()
    assert heap.call_count == 1
    assert rescan.call_count == 0
