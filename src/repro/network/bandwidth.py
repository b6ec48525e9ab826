"""Max-min fair rate allocation via progressive filling.

Pure functions, no simulator state: given a set of flows (each identified by
its source and destination node) and per-node uplink/downlink capacities,
compute each flow's max-min fair rate.  A flow traverses exactly two
"links" — its source's uplink and its destination's downlink (the core
fabric is assumed non-blocking, which matches both the paper's Linode
virtual network and modern full-bisection datacenter fabrics).

Algorithm (progressive filling): repeatedly find the most-congested link
(the one whose remaining capacity divided by its unfrozen flow count is
smallest), freeze all its unfrozen flows at that fair share, subtract what
they consume everywhere, and repeat.  Runs in O(L^2) for L links, with the
inner accounting vectorised over flows — fast enough for the few thousand
concurrent flows these experiments produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = ["LinkCapacities", "maxmin_rates"]


@dataclass
class LinkCapacities:
    """Per-node uplink/downlink capacities in bytes/second."""

    uplink: Dict[str, float] = field(default_factory=dict)
    downlink: Dict[str, float] = field(default_factory=dict)

    def add_node(self, node_id: str, uplink: float, downlink: float) -> None:
        """Register a node's NIC capacities."""
        if uplink <= 0 or downlink <= 0:
            raise ConfigurationError(
                f"node {node_id!r}: NIC capacities must be positive "
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

    Raises :class:`ConfigurationError` if a flow references an unregistered
    node.
    """
    n = len(flows)
    if n == 0:
        return []

    # Build the link incidence: link index -> capacity; flow -> (up_link, down_link).
    link_index: Dict[Tuple[str, str], int] = {}
    link_caps: List[float] = []

    def _link(kind: str, node: str) -> int:
        key = (kind, node)
        idx = link_index.get(key)
        if idx is None:
            caps = capacities.uplink if kind == "up" else capacities.downlink
            if node not in caps:
                raise ConfigurationError(f"flow references unregistered node {node!r}")
            idx = len(link_caps)
            link_index[key] = idx
            link_caps.append(caps[node])
        return idx

    flow_links = np.empty((n, 2), dtype=np.int64)
    loopback = np.zeros(n, dtype=bool)
    for i, (src, dst) in enumerate(flows):
        if src == dst:
            loopback[i] = True
            # Still validate the node exists; assign both to its uplink so the
            # arrays stay rectangular, but the flow is frozen immediately below.
            idx = _link("up", src)
            flow_links[i, 0] = idx
            flow_links[i, 1] = idx
        else:
            flow_links[i, 0] = _link("up", src)
            flow_links[i, 1] = _link("down", dst)

    caps = np.asarray(link_caps, dtype=np.float64)
    rates = np.zeros(n, dtype=np.float64)
    frozen = loopback.copy()
    rates[loopback] = np.inf

    remaining = caps.copy()
    while not frozen.all():
        active = ~frozen
        # Flows per link among the active set (each non-loopback flow touches
        # its up and down link once; a flow may touch the same link twice only
        # in the loopback case, already frozen).
        counts = np.bincount(flow_links[active].ravel(), minlength=len(caps)).astype(
            np.float64
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            shares = np.where(counts > 0, remaining / counts, np.inf)
        bottleneck = int(np.argmin(shares))
        share = shares[bottleneck]
        if not np.isfinite(share):
            break  # no active flow touches any link (cannot happen in practice)
        # Freeze every active flow crossing the bottleneck at `share`.
        crosses = active & (
            (flow_links[:, 0] == bottleneck) | (flow_links[:, 1] == bottleneck)
        )
        rates[crosses] = share
        frozen |= crosses
        # Subtract their consumption from both links they traverse.
        consumed = np.zeros_like(remaining)
        np.add.at(consumed, flow_links[crosses, 0], share)
        np.add.at(consumed, flow_links[crosses, 1], share)
        # Loopback-frozen rows never reach here; double-count is impossible.
        remaining = np.maximum(remaining - consumed, 0.0)

    return rates.tolist()
