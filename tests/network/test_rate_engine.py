"""RateEngine: incremental max-min rates equal the reference, component-wise."""

import pytest

from repro.common.errors import ConfigurationError
from repro.metrics.collector import PerfCounters
from repro.network.bandwidth import LinkCapacities, maxmin_rates
from repro.network.rate_engine import RateEngine
from tests.reference_stack import reference_rates


def caps(**nodes):
    c = LinkCapacities()
    for node, (up, down) in nodes.items():
        c.add_node(node, up, down)
    return c


def assert_matches_reference(engine):
    """Engine state must equal a fresh full recompute — exactly."""
    assert engine.rates() == reference_rates(engine)


class TestIncrementalEquality:
    def test_single_flow(self):
        engine = RateEngine(caps(a=(10, 1000), b=(1000, 5)))
        engine.add_flow("f", "a", "b")
        assert engine.rates() == {"f": 5.0}
        assert_matches_reference(engine)

    def test_add_then_remove_restores_rates(self):
        engine = RateEngine(caps(a=(10, 100), b=(100, 100), c=(100, 100)))
        engine.add_flow(1, "a", "b")
        assert engine.rate_of(1) == 10.0
        engine.add_flow(2, "a", "c")
        assert engine.rates() == {1: 5.0, 2: 5.0}
        engine.remove_flow(2)
        assert engine.rates() == {1: 10.0}
        assert_matches_reference(engine)

    def test_batched_changes_one_recompute(self):
        counters = PerfCounters()
        engine = RateEngine(
            caps(a=(10, 10), b=(10, 10), c=(10, 10), d=(10, 10)),
            counters=counters,
        )
        engine.add_flow(1, "a", "b")
        engine.add_flow(2, "c", "d")
        engine.add_flow(3, "a", "d")
        engine.recompute()
        assert counters.recomputes == 1
        assert_matches_reference(engine)

    def test_waterfilling_matches_reference_bitwise(self):
        engine = RateEngine(
            caps(a=(1, 100), b=(2, 100), e=(100, 100), d=(100, 12))
        )
        for fid, src in enumerate(("a", "b", "e")):
            engine.add_flow(fid, src, "d")
        rates = engine.rates()
        assert [rates[0], rates[1], rates[2]] == maxmin_rates(
            [("a", "d"), ("b", "d"), ("e", "d")], engine.capacities
        )


class TestComponentLocality:
    def test_disjoint_component_untouched(self):
        counters = PerfCounters()
        engine = RateEngine(
            caps(a=(10, 10), b=(10, 10), x=(7, 7), y=(7, 7)),
            counters=counters,
        )
        engine.add_flow("left", "a", "b")
        engine.recompute()
        # The x->y arrival shares no link with a->b: only one flow re-rated.
        engine.add_flow("right", "x", "y")
        changed = engine.recompute()
        assert set(changed) == {"right"}
        assert counters.flows_touched == 2  # 1 (first) + 1 (second)
        assert_matches_reference(engine)

    def test_shared_link_component_recomputed_together(self):
        engine = RateEngine(caps(a=(10, 100), b=(100, 100), c=(100, 100)))
        engine.add_flow(1, "a", "b")
        engine.recompute()
        changed = engine.recompute()  # no pending changes
        assert changed == {}
        engine.add_flow(2, "a", "c")  # shares a's uplink with flow 1
        changed = engine.recompute()
        assert set(changed) == {1, 2}

    def test_removal_rerates_former_neighbours(self):
        engine = RateEngine(caps(a=(10, 100), b=(100, 100), c=(100, 100)))
        engine.add_flow(1, "a", "b")
        engine.add_flow(2, "a", "c")
        assert engine.rates() == {1: 5.0, 2: 5.0}
        engine.remove_flow(1)
        changed = engine.recompute()
        assert changed == {2: 10.0}
        assert_matches_reference(engine)

    def test_transitive_component_closure(self):
        # f1 and f3 share no link, but both share one with f2: one component.
        engine = RateEngine(caps(a=(6, 6), b=(6, 6), c=(6, 6), d=(6, 6)))
        engine.add_flow(1, "a", "b")  # up:a, down:b
        engine.add_flow(2, "c", "b")  # shares down:b with f1
        engine.recompute()
        engine.add_flow(3, "c", "d")  # shares up:c with f2 only
        changed = engine.recompute()
        assert set(changed) == {1, 2, 3}
        assert_matches_reference(engine)

    def test_uplink_and_downlink_of_same_node_are_distinct(self):
        # a->b and b->a touch the same *nodes* but no common *link*:
        # up:a/down:b vs up:b/down:a are four different resources.
        engine = RateEngine(caps(a=(6, 6), b=(6, 6)))
        engine.add_flow(1, "a", "b")
        engine.recompute()
        engine.add_flow(2, "b", "a")
        assert set(engine.recompute()) == {2}
        assert_matches_reference(engine)


class TestLoopback:
    def test_loopback_rate_is_infinite(self):
        engine = RateEngine(caps(a=(1, 1)))
        engine.add_flow("loop", "a", "a")
        assert engine.recompute() == {"loop": float("inf")}
        assert engine.rate_of("loop") == float("inf")

    def test_loopback_consumes_no_capacity(self):
        engine = RateEngine(caps(a=(10, 100), b=(100, 100)))
        engine.add_flow("loop", "a", "a")
        engine.add_flow("real", "a", "b")
        rates = engine.rates()
        assert rates["real"] == pytest.approx(10.0)
        assert_matches_reference(engine)

    def test_loopback_removal_is_silent(self):
        counters = PerfCounters()
        engine = RateEngine(caps(a=(1, 1)), counters=counters)
        engine.add_flow("loop", "a", "a")
        engine.recompute()
        engine.remove_flow("loop")
        assert engine.recompute() == {}
        assert counters.recomputes == 0  # loopbacks never trigger water-filling
        assert engine.rates() == {}


class TestErrors:
    def test_unregistered_source_rejected(self):
        engine = RateEngine(caps(a=(1, 1)))
        with pytest.raises(ConfigurationError):
            engine.add_flow(1, "zzz", "a")

    def test_unregistered_destination_rejected(self):
        engine = RateEngine(caps(a=(1, 1)))
        with pytest.raises(ConfigurationError):
            engine.add_flow(1, "a", "zzz")

    def test_unregistered_loopback_rejected(self):
        engine = RateEngine(caps(a=(1, 1)))
        with pytest.raises(ConfigurationError):
            engine.add_flow(1, "zzz", "zzz")

    def test_duplicate_flow_id_rejected(self):
        engine = RateEngine(caps(a=(1, 1), b=(1, 1)))
        engine.add_flow(1, "a", "b")
        with pytest.raises(ConfigurationError):
            engine.add_flow(1, "b", "a")

    def test_remove_unknown_flow_rejected(self):
        engine = RateEngine(caps(a=(1, 1)))
        with pytest.raises(ConfigurationError):
            engine.remove_flow("ghost")


class TestBookkeeping:
    def test_dirty_flag_lifecycle(self):
        engine = RateEngine(caps(a=(1, 1), b=(1, 1)))
        assert not engine.dirty
        engine.add_flow(1, "a", "b")
        assert engine.dirty
        engine.recompute()
        assert not engine.dirty
        engine.remove_flow(1)
        assert engine.dirty

    def test_len_and_contains(self):
        engine = RateEngine(caps(a=(1, 1), b=(1, 1)))
        engine.add_flow("x", "a", "b")
        assert len(engine) == 1 and "x" in engine and "y" not in engine
        engine.remove_flow("x")
        assert len(engine) == 0 and "x" not in engine

    def test_empty_link_left_behind_by_removal_is_pruned(self):
        engine = RateEngine(caps(a=(1, 1), b=(1, 1)))
        engine.add_flow(1, "a", "b")
        engine.recompute()
        engine.remove_flow(1)
        engine.recompute()
        assert engine._link_flows == {}
