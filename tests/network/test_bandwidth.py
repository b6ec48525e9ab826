"""Max-min fair rate allocation (progressive filling)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.network.bandwidth import LinkCapacities, maxmin_rates


def caps(**nodes):
    c = LinkCapacities()
    for node, (up, down) in nodes.items():
        c.add_node(node, up, down)
    return c


class TestLinkCapacities:
    def test_add_and_contains(self):
        c = caps(a=(10, 20))
        assert "a" in c
        assert "b" not in c

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            caps(a=(0, 10))
        with pytest.raises(ConfigurationError):
            caps(a=(10, -1))

    @pytest.mark.parametrize(
        "up, down",
        [(float("inf"), 10), (10, float("inf")), (float("nan"), 10), (10, float("nan"))],
    )
    def test_rejects_non_finite(self, up, down):
        # The allocator rates a flow whose links are both infinite at 0.0,
        # which would strand every transfer on the node silently.
        with pytest.raises(ConfigurationError, match="positive and finite"):
            caps(a=(up, down))

    def test_contains_requires_both_directions(self):
        # A node is registered only when *both* its uplink and downlink
        # exist; a half-registered node must not claim membership.
        c = caps(a=(10, 20))
        del c.downlink["a"]
        assert "a" not in c
        c = caps(b=(10, 20))
        del c.uplink["b"]
        assert "b" not in c


class TestSingleFlow:
    def test_limited_by_uplink(self):
        c = caps(a=(10, 1000), b=(1000, 1000))
        assert maxmin_rates([("a", "b")], c) == [10.0]

    def test_limited_by_downlink(self):
        c = caps(a=(1000, 1000), b=(1000, 5))
        assert maxmin_rates([("a", "b")], c) == [5.0]

    def test_empty_flow_list(self):
        assert maxmin_rates([], caps(a=(1, 1))) == []

    def test_empty_flow_list_on_empty_capacities(self):
        assert maxmin_rates([], LinkCapacities()) == []

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            maxmin_rates([("a", "zzz")], caps(a=(1, 1)))

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            maxmin_rates([("zzz", "a")], caps(a=(1, 1)))

    def test_unknown_node_in_later_flow_rejected(self):
        c = caps(a=(1, 1), b=(1, 1))
        with pytest.raises(ConfigurationError):
            maxmin_rates([("a", "b"), ("b", "ghost")], c)

    def test_half_registered_node_rejected(self):
        # A node with an uplink but no downlink must fail validation when
        # used as a destination, not silently key-error or mis-allocate.
        c = caps(a=(1, 1), b=(1, 1))
        del c.downlink["b"]
        with pytest.raises(ConfigurationError):
            maxmin_rates([("a", "b")], c)


class TestFairSharing:
    def test_two_flows_share_a_common_uplink(self):
        c = caps(a=(10, 100), b=(100, 100), d=(100, 100))
        rates = maxmin_rates([("a", "b"), ("a", "d")], c)
        assert rates == pytest.approx([5.0, 5.0])

    def test_two_flows_share_a_common_downlink(self):
        c = caps(a=(100, 100), b=(100, 100), d=(100, 8))
        rates = maxmin_rates([("a", "d"), ("b", "d")], c)
        assert rates == pytest.approx([4.0, 4.0])

    def test_independent_flows_get_full_rate(self):
        c = caps(a=(10, 10), b=(10, 10), x=(10, 10), y=(10, 10))
        rates = maxmin_rates([("a", "x"), ("b", "y")], c)
        assert rates == pytest.approx([10.0, 10.0])

    def test_waterfilling_redistributes_slack(self):
        # Flow 1 bottlenecked at a's 2-unit uplink; flow 2 then enjoys the
        # rest of d's 10-unit downlink rather than the naive 5/5 split.
        c = caps(a=(2, 100), b=(100, 100), d=(100, 10))
        rates = maxmin_rates([("a", "d"), ("b", "d")], c)
        assert rates == pytest.approx([2.0, 8.0])

    def test_three_level_waterfill(self):
        # Uplinks 1, 2, 100 into one 12-unit downlink: progressive filling
        # freezes flows at 1, 2, then the remainder 9.
        c = caps(a=(1, 100), b=(2, 100), e=(100, 100), d=(100, 12))
        rates = maxmin_rates([("a", "d"), ("b", "d"), ("e", "d")], c)
        assert rates == pytest.approx([1.0, 2.0, 9.0])

    def test_no_link_exceeds_capacity(self):
        c = caps(a=(3, 7), b=(4, 6), d=(5, 5))
        flows = [("a", "b"), ("a", "d"), ("b", "d"), ("b", "a"), ("d", "a")]
        rates = maxmin_rates(flows, c)
        up_load = {"a": 0.0, "b": 0.0, "d": 0.0}
        down_load = {"a": 0.0, "b": 0.0, "d": 0.0}
        for (src, dst), rate in zip(flows, rates):
            up_load[src] += rate
            down_load[dst] += rate
        for node in up_load:
            assert up_load[node] <= c.uplink[node] + 1e-9
            assert down_load[node] <= c.downlink[node] + 1e-9

    def test_all_flows_get_positive_rate(self):
        c = caps(a=(1, 1), b=(1, 1), d=(1, 1))
        rates = maxmin_rates([("a", "b"), ("b", "d"), ("d", "a"), ("a", "d")], c)
        assert all(r > 0 for r in rates)

    def test_paper_nic_asymmetry(self):
        # 2 Gbps up / 40 Gbps down (paper §VI-A): twenty senders into one
        # receiver are each capped by their own uplink, not the downlink.
        from repro.common.units import GBPS

        nodes = {f"n{i}": (2 * GBPS, 40 * GBPS) for i in range(21)}
        c = caps(**nodes)
        flows = [(f"n{i}", "n20") for i in range(20)]
        rates = maxmin_rates(flows, c)
        assert rates == pytest.approx([2 * GBPS] * 20)


class TestLoopback:
    def test_loopback_flow_gets_infinite_rate(self):
        c = caps(a=(1, 1))
        rates = maxmin_rates([("a", "a")], c)
        assert rates[0] == float("inf")

    def test_loopback_does_not_consume_capacity(self):
        c = caps(a=(10, 100), b=(100, 100))
        rates = maxmin_rates([("a", "a"), ("a", "b")], c)
        assert rates[1] == pytest.approx(10.0)
