"""Property: the max-min kernel matches the NumPy oracle bit for bit.

``repro.network.bandwidth.maxmin_rates`` (pure Python, incremental link
counts, lazy bottleneck heap) must return the same float64 rates as the
vectorised loop it replaced (``tests/numpy_maxmin.py``), compared through
``float.hex``.  The strategies lean on what decides bit equality:

* equal capacities, so two links tie for the bottleneck and only the
  lowest-link-index rule picks the same one;
* repeated (src, dst) pairs, so one freeze subtracts ``share`` from a link
  several times and the summation order shows;
* loopbacks, empty flow lists, and one all-to-all component large enough
  that the heap carries many stale entries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.network.bandwidth import LinkCapacities, maxmin_rates
from tests.numpy_maxmin import numpy_maxmin_rates

#: A few capacities that divide into one another unevenly; drawing every
#: link from this pool makes bottleneck ties the norm.
_TIED = (0.1, 1.0, 3.0, 7.0, 2e9, 40e9)


def hexes(rates):
    return [float(rate).hex() for rate in rates]


@st.composite
def capacities(draw, n_nodes):
    """Per-node NICs: either all from the tied pool or free floats."""
    if draw(st.booleans()):
        value = st.sampled_from(_TIED)
    else:
        value = st.floats(min_value=1e-3, max_value=1e12)
    caps = LinkCapacities()
    for i in range(n_nodes):
        caps.add_node(f"n{i}", uplink=draw(value), downlink=draw(value))
    return caps


@st.composite
def flow_sets(draw):
    """Capacities plus a flow list with repeated pairs and loopbacks."""
    n_nodes = draw(st.integers(min_value=1, max_value=8))
    caps = draw(capacities(n_nodes))
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    # Each drawn pair is repeated 1-5 times, then the list is shuffled, so
    # one link is often crossed by m >= 3 flows frozen together.
    groups = draw(st.lists(st.tuples(node, node, st.integers(1, 5)), max_size=12))
    flows = [(f"n{s}", f"n{d}") for s, d, m in groups for _ in range(m)]
    return caps, draw(st.permutations(flows))


@given(flow_sets())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_numpy_oracle_bitwise(case):
    caps, flows = case
    assert hexes(maxmin_rates(flows, caps)) == hexes(numpy_maxmin_rates(flows, caps))


@given(
    st.integers(min_value=15, max_value=18),
    st.sampled_from(_TIED),
    st.sampled_from(_TIED),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_all_to_all_component_matches_bitwise(n_nodes, up, down, rng):
    """One component of n(n-1) >= 210 flows over 2n equal-capacity links."""
    caps = LinkCapacities()
    for i in range(n_nodes):
        # A few slower NICs break the symmetry so the fill takes many rounds.
        scale = rng.choice((1.0, 1.0, 0.5, 0.25))
        caps.add_node(f"n{i}", uplink=up * scale, downlink=down * scale)
    flows = [(f"n{s}", f"n{d}") for s in range(n_nodes) for d in range(n_nodes) if s != d]
    rng.shuffle(flows)
    assert len(flows) >= 200
    assert hexes(maxmin_rates(flows, caps)) == hexes(numpy_maxmin_rates(flows, caps))


def test_empty_and_loopback_only():
    caps = LinkCapacities()
    caps.add_node("a", uplink=1.0, downlink=1.0)
    assert maxmin_rates([], caps) == numpy_maxmin_rates([], caps) == []
    flows = [("a", "a")] * 3
    assert hexes(maxmin_rates(flows, caps)) == hexes(numpy_maxmin_rates(flows, caps))


@given(flow_sets(), st.data())
@settings(max_examples=100, deadline=None)
def test_unregistered_node_raises_like_the_oracle(case, data):
    caps, flows = case
    ghost = data.draw(st.sampled_from([("ghost", "n0"), ("n0", "ghost"), ("ghost", "ghost")]))
    at = data.draw(st.integers(min_value=0, max_value=len(flows)))
    flows = flows[:at] + [ghost] + flows[at:]
    with pytest.raises(ConfigurationError) as want:
        numpy_maxmin_rates(flows, caps)
    with pytest.raises(ConfigurationError) as got:
        maxmin_rates(flows, caps)
    assert str(got.value) == str(want.value)
