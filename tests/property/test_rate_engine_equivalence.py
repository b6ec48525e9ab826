"""Property: the incremental RateEngine equals a fresh full recompute.

For *any* interleaving of flow arrivals, departures, and recomputes —
including loopback flows and single-flow instances — the engine's rate
vector must match ``maxmin_rates`` run from scratch on the surviving
flows, within 1e-9.  (In practice the match is exact: the engine runs the
same kernel on each dirty component with insertion-ordered flows.)  The
kernel itself is pinned bit for bit against the NumPy oracle in
``tests/numpy_maxmin.py`` by ``test_maxmin_kernel_equivalence.py``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.bandwidth import LinkCapacities, maxmin_rates
from repro.network.rate_engine import RateEngine


@st.composite
def churn_scripts(draw):
    """A capacity map plus a random add/remove/recompute op sequence."""
    n_nodes = draw(st.integers(min_value=1, max_value=6))
    caps = LinkCapacities()
    for i in range(n_nodes):
        caps.add_node(
            f"n{i}",
            uplink=draw(st.floats(min_value=0.1, max_value=1000.0)),
            downlink=draw(st.floats(min_value=0.1, max_value=1000.0)),
        )
    n_ops = draw(st.integers(min_value=1, max_value=30))
    ops = []
    live = 0
    for _ in range(n_ops):
        # Removal targets an index into the currently-live set; loopbacks
        # (src == dst) are legal and must come out with an infinite rate.
        kind = draw(
            st.sampled_from(["add", "add", "add", "remove", "recompute"])
            if live
            else st.just("add")
        )
        if kind == "add":
            src = draw(st.integers(min_value=0, max_value=n_nodes - 1))
            dst = draw(st.integers(min_value=0, max_value=n_nodes - 1))
            ops.append(("add", f"n{src}", f"n{dst}"))
            live += 1
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
        else:
            ops.append(("recompute",))
    return caps, ops


def reference_vector(live_flows, caps):
    """Fresh full recompute over the surviving flows, loopbacks -> inf."""
    ids, endpoints = [], []
    expected = {}
    for fid, (src, dst) in live_flows:
        if src == dst:
            expected[fid] = math.inf
        else:
            ids.append(fid)
            endpoints.append((src, dst))
    for fid, rate in zip(ids, maxmin_rates(endpoints, caps)):
        expected[fid] = rate
    return expected


@given(churn_scripts())
@settings(max_examples=200, deadline=None)
def test_engine_matches_fresh_recompute_after_any_churn(script):
    caps, ops = script
    engine = RateEngine(caps)
    live = []  # [(fid, (src, dst))] in insertion order
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, src, dst = op
            engine.add_flow(next_id, src, dst)
            live.append((next_id, (src, dst)))
            next_id += 1
        elif op[0] == "remove":
            fid, _ = live.pop(op[1])
            engine.remove_flow(fid)
        else:
            engine.recompute()

    got = engine.rates()
    expected = reference_vector(live, caps)
    assert set(got) == set(expected)
    for fid, want in expected.items():
        if math.isinf(want):
            assert math.isinf(got[fid]), fid
        else:
            assert abs(got[fid] - want) <= 1e-9 * max(1.0, abs(want)), fid


@given(churn_scripts())
@settings(max_examples=100, deadline=None)
def test_recompute_placement_is_irrelevant(script):
    """Recomputing after every op or only once at the end gives the same
    final vector — batching same-instant changes is semantics-preserving."""
    caps, ops = script
    eager = RateEngine(caps)
    lazy = RateEngine(caps)
    live_eager, live_lazy = [], []
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, src, dst = op
            eager.add_flow(next_id, src, dst)
            lazy.add_flow(next_id, src, dst)
            live_eager.append(next_id)
            live_lazy.append(next_id)
            next_id += 1
        elif op[0] == "remove":
            eager.remove_flow(live_eager.pop(op[1]))
            lazy.remove_flow(live_lazy.pop(op[1]))
        else:
            eager.recompute()  # lazy deliberately skips interior recomputes
    assert eager.rates() == lazy.rates()


@given(
    st.floats(min_value=0.1, max_value=1000.0),
    st.floats(min_value=0.1, max_value=1000.0),
)
def test_single_flow_gets_its_bottleneck(up, down):
    caps = LinkCapacities()
    caps.add_node("a", uplink=up, downlink=1e12)
    caps.add_node("b", uplink=1e12, downlink=down)
    engine = RateEngine(caps)
    engine.add_flow("only", "a", "b")
    assert engine.rates() == {"only": maxmin_rates([("a", "b")], caps)[0]}


@given(st.integers(min_value=1, max_value=5))
def test_pure_loopback_population(n):
    caps = LinkCapacities()
    caps.add_node("a", uplink=0.5, downlink=0.5)
    engine = RateEngine(caps)
    for i in range(n):
        engine.add_flow(i, "a", "a")
    rates = engine.rates()
    assert len(rates) == n and all(math.isinf(r) for r in rates.values())
