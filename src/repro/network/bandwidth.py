"""Max-min fair rate allocation via progressive filling.

Pure functions, no simulator state: given a set of flows (each identified by
its source and destination node) and per-node uplink/downlink capacities,
compute each flow's max-min fair rate.  A flow traverses exactly two
"links" — its source's uplink and its destination's downlink (the core
fabric is assumed non-blocking, which matches both the paper's Linode
virtual network and modern full-bisection datacenter fabrics).

Algorithm (progressive filling): repeatedly find the most-congested link
(the one whose remaining capacity divided by its unfrozen flow count is
smallest, lowest link index first on ties), freeze all its unfrozen flows at
that fair share, subtract what they consume from their other links, and
repeat.  The kernel keeps per-link live counts and remaining capacity and
updates them only for the links of the flows each bottleneck freezes; the
bottleneck comes off a lazy min-heap keyed ``(share, link index)``.  Every
flow is frozen once and touches two links, so a solve costs O(F log L) for
F flows over L links, even when the whole flow set is one component (an
all-to-all shuffle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError

__all__ = ["LinkCapacities", "maxmin_rates"]

_INF = float("inf")


@dataclass
class LinkCapacities:
    """Per-node uplink/downlink capacities in bytes/second."""

    uplink: Dict[str, float] = field(default_factory=dict)
    downlink: Dict[str, float] = field(default_factory=dict)

    def add_node(self, node_id: str, uplink: float, downlink: float) -> None:
        """Register a node's NIC capacities (positive and finite)."""
        if not (0 < uplink < _INF and 0 < downlink < _INF):
            raise ConfigurationError(
                f"node {node_id!r}: NIC capacities must be positive and finite "
                f"(got up={uplink}, down={downlink})"
            )
        self.uplink[node_id] = float(uplink)
        self.downlink[node_id] = float(downlink)

    def __contains__(self, node_id: str) -> bool:
        # Both directions must be registered: the maps can drift apart only
        # through direct mutation, but membership must still mean "safe to
        # route a flow through this node in either direction".
        return node_id in self.uplink and node_id in self.downlink


def maxmin_rates(
    flows: Sequence[Tuple[str, str]],
    capacities: LinkCapacities,
) -> List[float]:
    """Max-min fair rates (bytes/s) for ``flows`` = [(src_node, dst_node), ...].

    Flows whose source equals their destination are loopback (a remote read
    that happens to hit a local replica holder through the network path is
    never modelled this way — callers treat those as local reads) and get an
    effectively infinite rate; they are included for interface uniformity.

    The float64 rates are bit-identical to the vectorised formulation of the
    same algorithm (``tests/numpy_maxmin.py``): links are numbered in
    first-appearance order, ties go to the lowest link index, and a freeze
    subtracts ``share`` added up once per frozen flow, clamped at zero.

    Raises :class:`ConfigurationError` if a flow references an unregistered
    node.
    """
    n = len(flows)
    if n == 0:
        return []
    uplink = capacities.uplink
    downlink = capacities.downlink

    # Link incidence in one pass.  Up- and downlinks share one index space,
    # numbered in first-appearance order (a loopback still claims its
    # source's uplink index).
    up_index: Dict[str, int] = {}
    down_index: Dict[str, int] = {}
    remaining: List[float] = []
    members: List[List[int]] = []  # link -> its non-loopback flows
    flow_up = [0] * n
    flow_down = [0] * n
    rates = [0.0] * n
    for i, (src, dst) in enumerate(flows):
        up = up_index.get(src)
        if up is None:
            if src not in uplink:
                raise ConfigurationError(f"flow references unregistered node {src!r}")
            up = up_index[src] = len(remaining)
            remaining.append(float(uplink[src]))
            members.append([])
        if src == dst:
            rates[i] = _INF
            continue
        down = down_index.get(dst)
        if down is None:
            if dst not in downlink:
                raise ConfigurationError(f"flow references unregistered node {dst!r}")
            down = down_index[dst] = len(remaining)
            remaining.append(float(downlink[dst]))
            members.append([])
        flow_up[i] = up
        flow_down[i] = down
        members[up].append(i)
        members[down].append(i)

    counts = [len(m) for m in members]
    shares = [r / c if c else _INF for r, c in zip(remaining, counts)]
    # One current entry per loaded link; an entry whose share no longer
    # matches ``shares`` (an emptied link's share is inf) is stale.
    heap = [(s, link) for link, s in enumerate(shares) if counts[link]]
    heapify(heap)
    frozen = [False] * n
    unfrozen = sum(counts) // 2
    while unfrozen:
        share, b = heappop(heap)
        if not share < _INF:
            break  # only infinite links are left loaded: their flows stay 0.0
        if share != shares[b]:
            continue
        # Freeze every live flow crossing the bottleneck at `share`, and
        # count how many of them cross each of their other links.
        touched: Dict[int, int] = {}
        for i in members[b]:
            if frozen[i]:
                continue
            frozen[i] = True
            rates[i] = share
            other = flow_up[i]
            if other == b:
                other = flow_down[i]
            touched[other] = touched.get(other, 0) + 1
        unfrozen -= counts[b]
        counts[b] = 0
        shares[b] = _INF
        for link, m in touched.items():
            consumed = 0.0
            for _ in range(m):
                consumed += share
            left = remaining[link] - consumed
            if left < 0.0:
                left = 0.0
            remaining[link] = left
            count = counts[link] - m
            counts[link] = count
            if count:
                s = left / count
                shares[link] = s
                heappush(heap, (s, link))
            else:
                shares[link] = _INF
    return rates
