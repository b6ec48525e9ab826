"""Incremental max-min fair rate allocation.

:func:`repro.network.bandwidth.maxmin_rates` solves a flow set from
scratch in O(F log L) for F flows over L links.  Re-solving every live flow
on each arrival/departure would still make a large simulation pay for all
of its flows per event.  :class:`RateEngine` maintains the link/flow
incidence *across* events and exploits two structural facts of progressive
filling:

1. **Component locality.**  The link-flow graph decomposes into connected
   components that share no links, and the max-min allocation of one
   component is independent of all others.  A flow arrival or departure can
   only change rates inside the component(s) touching its two links, so the
   engine re-runs water-filling on that affected subgraph only ("dirty-link
   tracking") and keeps every other flow's rate untouched.
2. **Batch closure.**  Any number of add/remove operations can be folded
   into the dirty set before a single :meth:`recompute` settles them all —
   the fabric batches all flow changes of one simulated instant this way.

Equivalence to a full recompute is by construction: the affected subgraph is
re-solved by calling ``maxmin_rates`` itself on the component's flows in
their global arrival order, and an untouched component's previously stored
rates are exactly what a full recompute would re-derive for it (the kernel's
arithmetic never crosses component boundaries).  The hypothesis property
suite (``tests/property/test_rate_engine_equivalence.py``) checks this after
random operation sequences.

Component tracking cannot help when the whole flow set is one component
(all-to-all shuffle traffic): each recompute then re-solves every flow, and
the kernel's O(F log L) is the whole cost.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.network.bandwidth import LinkCapacities, maxmin_rates
from repro.obs.metrics import NULL_METRICS, SIZE_BUCKETS

__all__ = ["RateEngine"]

#: A directed NIC link: ("up" | "down", node_id).
Link = Tuple[str, str]


class RateEngine:
    """Incremental max-min rates over a mutable flow set.

    Parameters
    ----------
    capacities:
        The shared per-node NIC capacities (nodes may be registered after
        construction; each flow validates its endpoints on ``add_flow``).
    counters:
        Optional perf-counter sink (duck-typed, see
        :class:`repro.metrics.collector.PerfCounters`); when given, every
        recompute accounts its component size and wall time there.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`; when tracing is enabled
        each non-trivial recompute emits a ``net.recompute`` instant with
        the affected subgraph's size (virtual-time facts only — the wall
        time measured for ``counters`` never enters the trace).

    Flows are identified by caller-chosen hashable ids.  Loopback flows
    (``src == dst``) follow the reference contract: validated, rated
    ``inf``, and never consuming capacity.
    """

    def __init__(
        self,
        capacities: LinkCapacities,
        counters: Optional[object] = None,
        tracer: Optional[object] = None,
        metrics: Optional[object] = None,
    ):
        self.capacities = capacities
        self.counters = counters
        self.tracer = tracer
        if metrics is None:
            metrics = NULL_METRICS
        self._m_recomputes = metrics.counter(
            "net_rate_recomputes_total",
            "Water-filling passes executed, by allocator engine.",
            ("engine",),
        ).labels(engine="incremental")
        self._m_component = metrics.histogram(
            "net_dirty_component_flows",
            "Flows re-rated per recompute (dirty-component size).",
            ("engine",),
            buckets=SIZE_BUCKETS,
        ).labels(engine="incremental")
        self._flows: Dict[Hashable, Tuple[str, str]] = {}
        self._seq: Dict[Hashable, int] = {}
        self._next_seq = 0
        self._flow_links: Dict[Hashable, Optional[Tuple[Link, Link]]] = {}
        self._link_flows: Dict[Link, Set[Hashable]] = {}
        self._rates: Dict[Hashable, float] = {}
        self._dirty: Set[Link] = set()
        self._fresh_loopbacks: Set[Hashable] = set()

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    @property
    def dirty(self) -> bool:
        """True when flow changes are pending a :meth:`recompute`."""
        return bool(self._dirty or self._fresh_loopbacks)

    def rate_of(self, flow_id: Hashable) -> float:
        """Current allocated rate of one flow (recomputes if dirty)."""
        if self.dirty:
            self.recompute()
        return self._rates[flow_id]

    def rates(self) -> Dict[Hashable, float]:
        """All current rates, keyed by flow id (recomputes if dirty)."""
        if self.dirty:
            self.recompute()
        return dict(self._rates)

    # -------------------------------------------------------------- mutation
    def add_flow(self, flow_id: Hashable, src: str, dst: str) -> None:
        """Register a flow; its rate appears in the next :meth:`recompute`."""
        if flow_id in self._flows:
            raise ConfigurationError(f"flow {flow_id!r} is already registered")
        if src not in self.capacities.uplink:
            raise ConfigurationError(f"flow references unregistered node {src!r}")
        if src == dst:
            # Loopback: infinite rate, no capacity consumed, no incidence.
            self._flows[flow_id] = (src, dst)
            self._seq[flow_id] = self._next_seq
            self._next_seq += 1
            self._flow_links[flow_id] = None
            self._rates[flow_id] = float("inf")
            self._fresh_loopbacks.add(flow_id)
            return
        if dst not in self.capacities.downlink:
            raise ConfigurationError(f"flow references unregistered node {dst!r}")
        up: Link = ("up", src)
        down: Link = ("down", dst)
        self._flows[flow_id] = (src, dst)
        self._seq[flow_id] = self._next_seq
        self._next_seq += 1
        self._flow_links[flow_id] = (up, down)
        self._link_flows.setdefault(up, set()).add(flow_id)
        self._link_flows.setdefault(down, set()).add(flow_id)
        self._dirty.add(up)
        self._dirty.add(down)

    def touch_node(self, node_id: str) -> None:
        """Mark both of a node's links dirty (its capacity changed).

        Used by link-degradation faults: the next :meth:`recompute` re-rates
        every flow in the components touching the node, picking up the new
        capacity from the shared :class:`LinkCapacities`.
        """
        self._dirty.add(("up", node_id))
        self._dirty.add(("down", node_id))

    def remove_flow(self, flow_id: Hashable) -> None:
        """Drop a flow; its former neighbours are re-rated on recompute."""
        if flow_id not in self._flows:
            raise ConfigurationError(f"flow {flow_id!r} is not registered")
        links = self._flow_links.pop(flow_id)
        del self._flows[flow_id]
        del self._seq[flow_id]
        self._rates.pop(flow_id, None)
        self._fresh_loopbacks.discard(flow_id)
        if links is None:
            return
        for link in links:
            flows = self._link_flows.get(link)
            if flows is not None:
                flows.discard(flow_id)
                if not flows:
                    del self._link_flows[link]
            # Dirty even when now empty: capacity freed for nobody is a
            # no-op, but a still-populated sibling link must be re-rated.
            self._dirty.add(link)

    # ------------------------------------------------------------- recompute
    def recompute(self) -> Dict[Hashable, float]:
        """Re-rate the affected components; return their new rates.

        The returned mapping covers exactly the flows whose rate *may* have
        changed since the last recompute (plus freshly added loopbacks);
        values for some of them can equal the previous rate.  Flows in
        untouched components are guaranteed unchanged and are omitted.
        """
        changed: Dict[Hashable, float] = {
            fid: float("inf") for fid in self._fresh_loopbacks
        }
        self._fresh_loopbacks.clear()
        if not self._dirty:
            return changed
        started = time.perf_counter() if self.counters is not None else 0.0

        affected = self._affected_flows()
        self._dirty.clear()
        if affected:
            ordered = sorted(affected, key=self._seq.__getitem__)
            flows = [self._flows[fid] for fid in ordered]
            rates = maxmin_rates(flows, self.capacities)
            for fid, rate in zip(ordered, rates):
                self._rates[fid] = rate
                changed[fid] = rate

        if affected:
            self._m_recomputes.inc()
            self._m_component.observe(len(affected))
        if self.counters is not None:
            self.counters.recomputes += 1
            self.counters.flows_touched += len(affected)
            self.counters.recompute_seconds += time.perf_counter() - started
        if affected and self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(
                "net.recompute",
                "network",
                track="fabric",
                flows=len(affected),
                total=len(self._flows),
            )
        return changed

    def _affected_flows(self) -> Set[Hashable]:
        """Flows in every connected component touching a dirty link.

        BFS over the bipartite link-flow incidence, seeded at the dirty
        links; cost is proportional to the affected subgraph, not the
        global flow count.
        """
        link_flows = self._link_flows
        flow_links = self._flow_links
        seen_links: Set[Link] = set()
        seen_flows: Set[Hashable] = set()
        stack: List[Link] = [link for link in self._dirty if link in link_flows]
        seen_links.update(stack)
        while stack:
            link = stack.pop()
            for fid in link_flows[link]:
                if fid in seen_flows:
                    continue
                seen_flows.add(fid)
                pair = flow_links[fid]
                assert pair is not None  # loopbacks carry no incidence
                for other in pair:
                    if other not in seen_links and other in link_flows:
                        seen_links.add(other)
                        stack.append(other)
        if self.counters is not None:
            self.counters.links_touched += len(seen_links)
        return seen_flows
