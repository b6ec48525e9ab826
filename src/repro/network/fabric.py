"""The cluster network: starts transfers, reallocates rates, fires completions.

Flow changes (arrivals, departures, cancellations) do not recompute rates
immediately: the fabric registers one deferred *flush* per simulated instant
(:meth:`repro.simulation.engine.Simulation.defer`), so any number of
same-timestamp changes settle in a single rate recompute.  This is exact —
a rate held for zero simulated time moves zero bytes — and removes the
event-storm recompute cost of large shuffle fan-outs.

The flush asks the fabric's persistent
:class:`~repro.network.rate_engine.RateEngine` to re-rate only the connected
component(s) of the link-flow graph affected by the batch.  (The seed's
recompute-from-scratch allocator is a ``RateEngine`` subclass in the test
seam, ``tests/reference_stack.py``, swapped in for the golden-trace and
equivalence tests.)

The fabric then applies only the rates that actually changed and
tracks completions in a lazy min-heap of absolute finish times, so an event
touching k flows costs O(k log n) rather than O(n).  A single pending
completion event is maintained (for the earliest finisher); when it fires,
flows finishing within :data:`_ETA_EPSILON` of it complete together, then
rates are recomputed once.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, TransferFailedError
from repro.common.ids import IdFactory
from repro.network.bandwidth import LinkCapacities
from repro.network.rate_engine import RateEngine
from repro.network.transfer import Transfer
from repro.obs.events import TransferSpan
from repro.obs.metrics import NULL_METRICS, RATE_BUCKETS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.engine import EventHandle, Simulation

__all__ = ["NetworkFabric"]

#: Completions within this many seconds of the earliest ETA are batched into
#: one event, avoiding event storms from floating-point near-ties.
_ETA_EPSILON = 1e-9

#: Heap entry: (absolute finish time, push sequence, validity token, transfer).
_HeapEntry = Tuple[float, int, int, Transfer]


class NetworkFabric:
    """Flow-level network shared by all worker nodes.

    Parameters
    ----------
    sim:
        The owning simulation.
    counters:
        Optional :class:`~repro.metrics.collector.PerfCounters` accumulator.
    """

    def __init__(
        self,
        sim: Simulation,
        counters: Optional[object] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.counters = counters
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        _events = self.metrics.counter(
            "net_transfers_total",
            "Transfer lifecycle events by kind.",
            ("event",),
        )
        self._m_xfer_start = _events.labels(event="start")
        self._m_xfer_complete = _events.labels(event="complete")
        self._m_xfer_cancel = _events.labels(event="cancel")
        self._m_xfer_fail = _events.labels(event="fail")
        self._m_xfer_stall = _events.labels(event="stall")
        self._m_xfer_unstall = _events.labels(event="unstall")
        self._m_bytes = self.metrics.counter(
            "net_bytes_moved_total", "Bytes delivered by completed transfers."
        )
        self._m_rate_hist = self.metrics.histogram(
            "net_transfer_rate_bytes_per_sec",
            "Achieved mean transfer rate (size / flow lifetime).",
            buckets=RATE_BUCKETS,
        )
        self.capacities = LinkCapacities()
        # The engine binds (and fills) the recompute instruments.
        self._engine = RateEngine(
            self.capacities,
            counters=counters,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._active: Dict[str, Transfer] = {}
        self._ids = IdFactory(width=6)
        self._completion_event: Optional[EventHandle] = None
        self._eta_heap: List[_HeapEntry] = []
        self._heap_seq = 0
        self._token: Dict[str, int] = {}
        self.completed_count = 0
        self.total_bytes_moved = 0.0
        #: base (undegraded) NIC capacities, per node
        self._base_uplink: Dict[str, float] = {}
        self._base_downlink: Dict[str, float] = {}
        #: optional (src, dst) -> bool callback installed by a fault injector
        self._reachable: Optional[Callable[[str, str], bool]] = None
        self._connect_timeout = 30.0
        #: transfers waiting out a partition: id -> (transfer, timeout handle)
        self._stalled: Dict[str, Tuple[Transfer, EventHandle]] = {}
        self.failed_count = 0

    # ------------------------------------------------------------------ setup
    def add_node(self, node_id: str, uplink: float, downlink: float) -> None:
        """Register a node's NIC before any transfer touches it."""
        self.capacities.add_node(node_id, uplink, downlink)
        self._base_uplink[node_id] = float(uplink)
        self._base_downlink[node_id] = float(downlink)

    def set_reachability(
        self,
        reachable: Optional[Callable[[str, str], bool]],
        *,
        connect_timeout: float = 30.0,
    ) -> None:
        """Install a fault injector's reachability oracle.

        When set, a transfer between mutually unreachable endpoints does not
        enter the rate allocation: it *stalls* at rate 0 and fails with
        :class:`TransferFailedError` after ``connect_timeout`` seconds unless
        the partition heals first (:meth:`refresh_stalled`).  ``None``
        restores the default fully-connected fabric.
        """
        if connect_timeout <= 0:
            raise ConfigurationError(
                f"connect_timeout must be positive, got {connect_timeout}"
            )
        self._reachable = reachable
        self._connect_timeout = connect_timeout

    def set_link_scale(self, node_id: str, scale: float) -> None:
        """Scale a node's NIC to ``scale`` × its base capacity (degradation).

        Mutates the shared :class:`LinkCapacities` in place so the rate
        engine sees the new capacity, dirties the node's links, and re-rates
        at the end of the instant.
        """
        if node_id not in self._base_uplink:
            raise ConfigurationError(f"unknown node {node_id!r}")
        if not 0 < scale < math.inf:
            raise ConfigurationError(
                f"link scale must be positive and finite, got {scale}"
            )
        self.capacities.uplink[node_id] = self._base_uplink[node_id] * scale
        self.capacities.downlink[node_id] = self._base_downlink[node_id] * scale
        self._engine.touch_node(node_id)
        self.sim.defer(self, self._flush)

    # --------------------------------------------------------------- transfers
    @property
    def active_transfers(self) -> int:
        """Number of flows currently in flight."""
        return len(self._active)

    def aggregate_rate(self) -> float:
        """Sum of currently allocated flow rates (bytes/s) — sampler probe."""
        return sum(t.rate for t in self._active.values())

    def _trace_transfer(self, transfer: Transfer, outcome: str) -> None:
        """Emit a finished/failed flow's lifetime as a TransferSpan."""
        if not self.tracer.enabled:
            return
        now = self.sim.now
        self.tracer.emit(
            TransferSpan(
                transfer.started_at,
                dur=now - transfer.started_at,
                track=transfer.src,
                lane=f"nic:{transfer.src}",
                attrs={
                    "transfer": transfer.transfer_id,
                    "src": transfer.src,
                    "dst": transfer.dst,
                    "size": transfer.size,
                    "outcome": outcome,
                },
            )
        )

    def start_transfer(self, src: str, dst: str, size: float) -> Transfer:
        """Begin moving ``size`` bytes from ``src`` to ``dst``.

        Returns the :class:`Transfer`; wait on ``transfer.done`` for
        completion.  ``src == dst`` is rejected — local reads never cross the
        fabric (model them with the node's disk, not the NIC).  The rate is
        assigned when the current instant's change batch flushes, so it reads
        as 0 until the simulation processes this timestamp.
        """
        if src == dst:
            raise ConfigurationError(
                f"transfer {src!r}->{dst!r} is local; use disk read time instead"
            )
        transfer = Transfer(self.sim, self._ids.next("xfer"), src, dst, size)
        if self._reachable is not None and not self._reachable(src, dst):
            # Partitioned endpoints: the connection never establishes.  The
            # transfer stalls outside the rate allocation and fails at the
            # connect timeout unless the partition heals first.
            for node in (src, dst):
                if node not in self.capacities:
                    raise ConfigurationError(
                        f"flow references unregistered node {node!r}"
                    )
            handle = self.sim.schedule(
                self._connect_timeout, self._on_connect_timeout, transfer
            )
            self._stalled[transfer.transfer_id] = (transfer, handle)
            self.tracer.instant(
                "net.stall",
                "network",
                track=src,
                lane=f"nic:{src}",
                dst=dst,
                transfer=transfer.transfer_id,
            )
            self._m_xfer_stall.inc()
            if self.counters is not None:
                self.counters.flow_events += 1
            return transfer
        self._engine.add_flow(transfer.transfer_id, src, dst)
        self._active[transfer.transfer_id] = transfer
        self._m_xfer_start.inc()
        if self.tracer.narrating:
            self.tracer.narrate(
                "transfer.start", transfer.transfer_id, src=src, dst=dst, size=size
            )
        if self.counters is not None:
            self.counters.flow_events += 1
        self.sim.defer(self, self._flush)
        return transfer

    def cancel_transfer(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer (its ``done`` signal never triggers)."""
        if transfer.transfer_id in self._active:
            del self._active[transfer.transfer_id]
            self._token.pop(transfer.transfer_id, None)
            self._engine.remove_flow(transfer.transfer_id)
            self._m_xfer_cancel.inc()
            if self.tracer.narrating:
                self.tracer.narrate("transfer.cancel", transfer.transfer_id)
            if self.counters is not None:
                self.counters.flow_events += 1
            self.sim.defer(self, self._flush)
        elif transfer.transfer_id in self._stalled:
            _, handle = self._stalled.pop(transfer.transfer_id)
            handle.cancel()
            self._m_xfer_cancel.inc()
            if self.tracer.narrating:
                self.tracer.narrate("transfer.cancel", transfer.transfer_id)
            if self.counters is not None:
                self.counters.flow_events += 1

    # ----------------------------------------------------------------- faults
    def _on_connect_timeout(self, transfer: Transfer) -> None:
        """A stalled transfer's connect timeout elapsed without a heal."""
        if transfer.transfer_id in self._stalled:
            del self._stalled[transfer.transfer_id]
            self._record_failure(transfer, "connect-timeout")

    def _record_failure(self, transfer: Transfer, cause: str) -> None:
        self.failed_count += 1
        self._m_xfer_fail.inc()
        if self.counters is not None:
            self.counters.flow_events += 1
        self._trace_transfer(transfer, cause)
        transfer.done.fail(TransferFailedError(transfer.transfer_id, cause))

    def fail_transfer(self, transfer: Transfer, cause: str = "aborted") -> None:
        """Abort a transfer *with* failure delivery: waiters on
        ``transfer.done`` receive :class:`TransferFailedError`."""
        if transfer.transfer_id in self._active:
            del self._active[transfer.transfer_id]
            self._token.pop(transfer.transfer_id, None)
            self._engine.remove_flow(transfer.transfer_id)
            self.sim.defer(self, self._flush)
            self._record_failure(transfer, cause)
        elif transfer.transfer_id in self._stalled:
            _, handle = self._stalled.pop(transfer.transfer_id)
            handle.cancel()
            self._record_failure(transfer, cause)

    def fail_where(self, predicate: Callable[[Transfer], bool], cause: str) -> int:
        """Fail every in-flight or stalled transfer matching ``predicate``.

        Returns the number of transfers failed.  Iteration is over a
        snapshot in insertion (= start) order, so the failure cascade is
        deterministic.
        """
        victims = [t for t in self._active.values() if predicate(t)]
        victims += [t for t, _ in self._stalled.values() if predicate(t)]
        for transfer in victims:
            self.fail_transfer(transfer, cause)
        return len(victims)

    def fail_transfers_touching(self, node_id: str, cause: str = "node-down") -> int:
        """Fail every transfer with ``node_id`` as an endpoint (node crash)."""
        return self.fail_where(
            lambda t: t.src == node_id or t.dst == node_id, cause
        )

    def refresh_stalled(self) -> None:
        """Re-check stalled transfers after a partition heals.

        Transfers whose endpoints became mutually reachable enter the rate
        allocation as if freshly started; the rest keep their original
        connect-timeout clocks ticking.
        """
        if not self._stalled:
            return
        reachable = self._reachable
        released = [
            tid
            for tid, (t, _) in self._stalled.items()
            if reachable is None or reachable(t.src, t.dst)
        ]
        for tid in released:
            transfer, handle = self._stalled.pop(tid)
            handle.cancel()
            self._engine.add_flow(tid, transfer.src, transfer.dst)
            self._active[tid] = transfer
            self.tracer.instant(
                "net.unstall",
                "network",
                track=transfer.src,
                lane=f"nic:{transfer.src}",
                dst=transfer.dst,
                transfer=tid,
            )
            self._m_xfer_unstall.inc()
            if self.counters is not None:
                self.counters.flow_events += 1
        if released:
            self.sim.defer(self, self._flush)

    def flush(self) -> None:
        """Force the pending change batch to settle now (test/debug hook)."""
        self._flush()

    # ------------------------------------------------------------- reallocation
    def _flush(self) -> None:
        """Recompute fair rates for the changed flows and re-arm completion."""
        now = self.sim.now
        counters = self.counters
        started = time.perf_counter() if counters is not None else 0.0
        applied = 0
        for transfer_id, rate in self._engine.recompute().items():
            transfer = self._active.get(transfer_id)
            if transfer is None or rate == transfer.rate:
                # Unchanged rate: the existing finish-time entry stays exact,
                # and skipping settle() keeps progress accounting independent
                # of how many flows the engine re-solved.
                continue
            transfer.set_rate(now, rate)
            applied += 1
            token = self._token.get(transfer_id, 0) + 1
            self._token[transfer_id] = token
            eta = transfer.eta(now)
            if math.isfinite(eta):
                self._heap_seq += 1
                heapq.heappush(
                    self._eta_heap, (now + eta, self._heap_seq, token, transfer)
                )
            if counters is not None:
                counters.rate_updates += 1
        if len(self._eta_heap) > 64 and len(self._eta_heap) > 4 * len(self._active):
            self._compact_heap()
        self._arm_completion(now)
        if counters is not None:
            counters.reallocations += 1
            counters.realloc_seconds += time.perf_counter() - started
        # Virtual-time facts only (never the wall clock) keep traces
        # deterministic across machines.
        if applied and self.tracer.enabled:
            self.tracer.instant(
                "net.flush",
                "network",
                track="fabric",
                changed=applied,
                active=len(self._active),
            )

    def _entry_live(self, entry: _HeapEntry) -> bool:
        _, _, token, transfer = entry
        return (
            self._active.get(transfer.transfer_id) is transfer
            and self._token.get(transfer.transfer_id) == token
        )

    def _compact_heap(self) -> None:
        """Drop stale entries so the heap tracks O(active) state."""
        self._eta_heap = [e for e in self._eta_heap if self._entry_live(e)]
        heapq.heapify(self._eta_heap)

    def _arm_completion(self, now: float) -> None:
        """(Re)schedule the single completion event at the earliest finish."""
        heap = self._eta_heap
        while heap and not self._entry_live(heap[0]):
            heapq.heappop(heap)
        event = self._completion_event
        if not heap:
            if event is not None:
                event.cancel()
                self._completion_event = None
            return
        target = max(heap[0][0], now)
        if event is not None:
            if event.pending and event.time == target:
                return
            event.cancel()
        self._completion_event = self.sim.schedule_at(target, self._on_completion)

    def _on_completion(self) -> None:
        """Finish every flow whose residual hit zero, then reallocate once."""
        now = self.sim.now
        self._completion_event = None
        cutoff = now + _ETA_EPSILON
        heap = self._eta_heap
        finished: List[Transfer] = []
        while heap:
            if not self._entry_live(heap[0]):
                heapq.heappop(heap)
                continue
            if heap[0][0] > cutoff:
                break
            finished.append(heapq.heappop(heap)[3])
        for transfer in finished:
            del self._active[transfer.transfer_id]
            self._token.pop(transfer.transfer_id, None)
            self._engine.remove_flow(transfer.transfer_id)
            transfer.settle(now)
            transfer.finished_at = now
            self.completed_count += 1
            self.total_bytes_moved += transfer.size
            self._m_xfer_complete.inc()
            self._m_bytes.inc(transfer.size)
            lifetime = now - transfer.started_at
            if lifetime > 0:
                self._m_rate_hist.observe(transfer.size / lifetime)
            if self.counters is not None:
                self.counters.flow_events += 1
            self._trace_transfer(transfer, "ok")
            transfer.done.trigger(transfer)
        self.sim.defer(self, self._flush)
