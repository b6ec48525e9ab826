"""NetworkFabric: end-to-end transfer timing with contention."""

import pytest

from repro.common.errors import ConfigurationError
from repro.network.fabric import NetworkFabric
from repro.obs.tracer import Tracer
from repro.simulation.engine import Simulation
from repro.simulation.timeline import Timeline


def make_fabric(sim, *nodes, up=10.0, down=10.0):
    fabric = NetworkFabric(sim)
    for node in nodes:
        fabric.add_node(node, uplink=up, downlink=down)
    return fabric


def test_single_transfer_duration(sim):
    fabric = make_fabric(sim, "a", "b", up=10.0, down=100.0)
    transfer = fabric.start_transfer("a", "b", size=50.0)
    sim.run()
    assert transfer.finished_at == pytest.approx(5.0)  # 50 B at 10 B/s


def test_done_signal_wakes_waiter(sim):
    fabric = make_fabric(sim, "a", "b")
    finished = []
    transfer = fabric.start_transfer("a", "b", size=20.0)

    def waiter(result, exception):
        finished.append((sim.now, result is transfer, exception))

    transfer.done.subscribe(waiter)
    sim.run()
    assert finished == [(pytest.approx(2.0), True, None)]


def test_local_transfer_rejected(sim):
    fabric = make_fabric(sim, "a")
    with pytest.raises(ConfigurationError):
        fabric.start_transfer("a", "a", size=1.0)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
def test_link_scale_must_be_positive_and_finite(sim, scale):
    # An infinite or NaN capacity would leave the allocator no finite
    # bottleneck: every flow on the node would be rated 0 and never finish.
    fabric = make_fabric(sim, "a", "b")
    with pytest.raises(ConfigurationError, match="positive and finite"):
        fabric.set_link_scale("a", scale)
    assert fabric.capacities.uplink["a"] == 10.0


def test_two_flows_share_uplink_fairly(sim):
    fabric = make_fabric(sim, "a", "b", "c", up=10.0, down=100.0)
    t1 = fabric.start_transfer("a", "b", size=50.0)
    t2 = fabric.start_transfer("a", "c", size=50.0)
    sim.run()
    # Both run at 5 B/s throughout: 10 s each.
    assert t1.finished_at == pytest.approx(10.0)
    assert t2.finished_at == pytest.approx(10.0)


def test_departure_speeds_up_survivor(sim):
    fabric = make_fabric(sim, "a", "b", "c", up=10.0, down=100.0)
    t_short = fabric.start_transfer("a", "b", size=25.0)
    t_long = fabric.start_transfer("a", "c", size=75.0)
    sim.run()
    # Shared 5 B/s until t=5 (short done); survivor then gets 10 B/s for
    # its remaining 50 bytes: 5 + 5 = 10 s.
    assert t_short.finished_at == pytest.approx(5.0)
    assert t_long.finished_at == pytest.approx(10.0)


def test_late_arrival_slows_existing_flow(sim):
    fabric = make_fabric(sim, "a", "b", "c", up=10.0, down=100.0)
    t1 = fabric.start_transfer("a", "b", size=100.0)
    sim.schedule(5.0, fabric.start_transfer, "a", "c", 25.0)
    sim.run()
    # t1: 50 bytes in first 5 s, then shares (5 B/s) for 5 s while the
    # newcomer finishes its 25 B, then full rate for the last 25 B.
    assert t1.finished_at == pytest.approx(5.0 + 5.0 + 2.5)


def test_simultaneous_completions_batch(sim):
    fabric = make_fabric(sim, "a", "b", "c", "d", up=10.0, down=10.0)
    t1 = fabric.start_transfer("a", "b", size=40.0)
    t2 = fabric.start_transfer("c", "d", size=40.0)
    sim.run()
    assert t1.finished_at == pytest.approx(4.0)
    assert t2.finished_at == pytest.approx(4.0)
    assert fabric.active_transfers == 0


def test_cancel_removes_flow_and_frees_bandwidth(sim):
    fabric = make_fabric(sim, "a", "b", "c", up=10.0, down=100.0)
    t1 = fabric.start_transfer("a", "b", size=100.0)
    t2 = fabric.start_transfer("a", "c", size=100.0)
    sim.schedule(2.0, fabric.cancel_transfer, t2)
    sim.run()
    # 2 s at 5 B/s (10 done), then 90 bytes at 10 B/s: finishes at 11 s.
    assert t1.finished_at == pytest.approx(11.0)
    assert t2.finished_at is None


def test_counters_accumulate(sim):
    fabric = make_fabric(sim, "a", "b")
    fabric.start_transfer("a", "b", size=10.0)
    fabric.start_transfer("b", "a", size=10.0)
    sim.run()
    assert fabric.completed_count == 2
    assert fabric.total_bytes_moved == pytest.approx(20.0)


def test_timeline_records_start_and_finish(sim):
    timeline = Timeline(clock=lambda: sim.now)
    fabric = NetworkFabric(sim, tracer=Tracer(clock=lambda: sim.now, sinks=[timeline]))
    fabric.add_node("a", uplink=10, downlink=10)
    fabric.add_node("b", uplink=10, downlink=10)
    fabric.start_transfer("a", "b", size=10.0)
    sim.run()
    kinds = [r.kind for r in timeline]
    assert kinds == ["transfer.start", "transfer.finish"]


def test_many_to_one_is_downlink_bound(sim):
    fabric = NetworkFabric(sim)
    for i in range(5):
        fabric.add_node(f"s{i}", uplink=100.0, downlink=100.0)
    fabric.add_node("sink", uplink=100.0, downlink=20.0)
    transfers = [fabric.start_transfer(f"s{i}", "sink", size=40.0) for i in range(5)]
    sim.run()
    # Each gets 4 B/s of the 20 B/s downlink: 10 s.
    for t in transfers:
        assert t.finished_at == pytest.approx(10.0)
