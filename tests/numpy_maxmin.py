"""NumPy oracle for the max-min fair rate kernel.

The production kernel (:func:`repro.network.bandwidth.maxmin_rates`) is a
pure-Python progressive filling with incremental link counts and a lazy
bottleneck heap.  This is the original vectorised loop it replaced: every
pass re-counts the live flows per link (``bincount``), picks the first
minimum share (``argmin``), freezes the flows crossing it and subtracts
their consumption with ``add.at``.  The kernel must reproduce its float64
rates bit for bit; ``tests/property/test_maxmin_kernel_equivalence.py``
and ``benchmarks/bench_network_scale.py --smoke`` compare the two.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.network.bandwidth import LinkCapacities

__all__ = ["numpy_maxmin_rates"]


def numpy_maxmin_rates(
    flows: Sequence[Tuple[str, str]],
    capacities: LinkCapacities,
) -> List[float]:
    """Max-min fair rates (bytes/s) for ``flows`` = [(src_node, dst_node), ...].

    Same contract as :func:`repro.network.bandwidth.maxmin_rates`:
    loopback flows are rated ``inf``, and a flow naming an unregistered
    node raises :class:`ConfigurationError`.
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
