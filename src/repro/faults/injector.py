"""FaultInjector: binds a FaultPlan to a live simulation.

Beyond the original slowdown/executor/disk faults, the injector now models
whole-node crashes, network partitions and link degradations, and answers
the runtime queries the rest of the stack consults under faults:

* ``cpu_factor(node)`` — slowdown multiplier (as before);
* ``node_down(node)`` / ``node_reachable(node)`` / ``reachable(src, dst)``
  — ground-truth liveness and connectivity, wired into the fabric as its
  reachability oracle and into the managers' (possibly detector-delayed)
  free-pool view;
* re-replication of blocks lost to a node crash as *real* transfers through
  the fabric, contending with job traffic (a disk failure keeps the
  original instantaneous metadata-level repair).

All plan targets are validated eagerly at construction so a typo'd node or
executor id fails fast with :class:`ConfigurationError` instead of a bare
``KeyError`` minutes into a run.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.common.errors import ConfigurationError
from repro.faults.detector import FailureDetector
from repro.faults.plan import (
    CorrelatedFailure,
    DiskFailure,
    ExecutorFailure,
    FaultPlan,
    LinkDegradation,
    LinkFlap,
    ManagerCrash,
    NetworkPartition,
    NodeFailure,
    NodeSlowdown,
)
from repro.hdfs.filesystem import HDFS
from repro.network.fabric import NetworkFabric
from repro.obs.events import FaultHealed, FaultInjected, RecoveryFlow
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.engine import Simulation

if TYPE_CHECKING:  # pragma: no cover
    from repro.managers.base import ClusterManager

__all__ = ["FaultInjector"]

#: Give up re-replicating a block after this many failed/blocked attempts.
_RR_MAX_RETRIES = 6
#: Delay before retrying a re-replication that found no usable source/target.
_RR_RETRY_DELAY = 5.0


class FaultInjector:
    """Schedules fault events and answers runtime queries.

    Construction validates and schedules every plan event; the manager must
    be attached (:meth:`bind_manager`) before executor/node failures fire so
    the injector can find the owning drivers.  ``fabric`` and ``detector``
    are optional: without a fabric, partitions/degradations are rejected and
    node-failure recovery falls back to instantaneous repair; without a
    detector, managers see ground-truth liveness.
    """

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        hdfs: HDFS,
        plan: FaultPlan,
        *,
        fabric: Optional[NetworkFabric] = None,
        detector: Optional[FailureDetector] = None,
        network_timeout: float = 30.0,
        re_replication_parallelism: int = 4,
        tracer: Optional[Tracer] = None,
        metrics=None,
    ):
        if network_timeout <= 0:
            raise ConfigurationError(
                f"network_timeout must be positive, got {network_timeout}"
            )
        if re_replication_parallelism < 1:
            raise ConfigurationError(
                "re_replication_parallelism must be >= 1, "
                f"got {re_replication_parallelism}"
            )
        self.sim = sim
        self.cluster = cluster
        self.hdfs = hdfs
        self.plan = plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fabric = fabric
        self.detector = detector
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._m_injected = self.metrics.counter(
            "faults_injected_total",
            "Fault events fired, by fault kind.",
            ("kind",),
        )
        self._m_healed = self.metrics.counter(
            "faults_healed_total",
            "Fault recoveries completed, by fault kind.",
            ("kind",),
        )
        self.network_timeout = network_timeout
        self.re_replication_parallelism = re_replication_parallelism
        self.manager: Optional["ClusterManager"] = None
        #: node id → set of (end_time, factor) currently active
        self._slowdowns: Dict[str, List[Tuple[float, float]]] = {}
        self._failed_executors: Set[str] = set()
        #: executor id → failure generation, bumped on every kill.  Pending
        #: restart callbacks carry the generation they belong to, so a
        #: restart scheduled for an earlier failure cannot revive (or
        #: double-count the heal of) a later one.
        self._executor_fail_epoch: Dict[str, int] = {}
        self._down_nodes: Set[str] = set()
        self._partitions: List[frozenset] = []
        self._degradations: Dict[str, List[Tuple[float, float]]] = {}
        #: node id → count of link-flap down phases currently active
        self._flapped: Dict[str, int] = {}
        self._rr_queue: Deque[Tuple[str, str, int]] = deque()
        self._rr_active = 0
        self.injected = 0
        self.tasks_requeued = 0
        self.replicas_lost = 0
        self.replicas_restored = 0
        self.blocks_lost = 0
        self.recovery_flows = 0
        self.recovery_bytes = 0.0
        #: fault kind → recovery durations (time from injection to repair)
        self.mttr: Dict[str, List[float]] = {}
        self._validate_plan()
        if fabric is not None:
            fabric.set_reachability(self.reachable, connect_timeout=network_timeout)
        for event in plan:
            if isinstance(event, NodeSlowdown):
                self.sim.schedule_at(event.at, self._start_slowdown, event)
            elif isinstance(event, ExecutorFailure):
                self.sim.schedule_at(event.at, self._fail_executor, event)
            elif isinstance(event, DiskFailure):
                self.sim.schedule_at(event.at, self._fail_disk, event)
            elif isinstance(event, NodeFailure):
                self.sim.schedule_at(event.at, self._fail_node, event)
            elif isinstance(event, NetworkPartition):
                self.sim.schedule_at(event.at, self._start_partition, event)
            elif isinstance(event, LinkDegradation):
                self.sim.schedule_at(event.at, self._start_degradation, event)
            elif isinstance(event, LinkFlap):
                self.sim.schedule_at(event.at, self._start_flap, event)
            elif isinstance(event, CorrelatedFailure):
                self.sim.schedule_at(event.at, self._fail_group, event)
            elif isinstance(event, ManagerCrash):
                self.sim.schedule_at(event.at, self._crash_manager, event)
            else:
                raise ConfigurationError(f"unknown fault event {event!r}")

    def _validate_plan(self) -> None:
        """Fail fast on plan targets that do not exist in this cluster."""
        nodes = set(self.cluster.node_ids)
        executors = {e.executor_id for e in self.cluster.executors}
        for event in self.plan:
            if isinstance(
                event, (NodeSlowdown, DiskFailure, NodeFailure, LinkDegradation, LinkFlap)
            ):
                if event.node_id not in nodes:
                    raise ConfigurationError(
                        f"{type(event).__name__} targets unknown node "
                        f"{event.node_id!r}"
                    )
            elif isinstance(event, ExecutorFailure):
                if event.executor_id not in executors:
                    raise ConfigurationError(
                        f"ExecutorFailure targets unknown executor "
                        f"{event.executor_id!r}"
                    )
            elif isinstance(event, (NetworkPartition, CorrelatedFailure)):
                members = (
                    event.nodes if isinstance(event, NetworkPartition) else event.node_ids
                )
                unknown = [n for n in members if n not in nodes]
                if unknown:
                    raise ConfigurationError(
                        f"{type(event).__name__} targets unknown nodes {unknown!r}"
                    )
            elif isinstance(event, ManagerCrash):
                # Targets the control plane, not a cluster entity; the
                # recovery-coordinator requirement is checked at fire time
                # (the manager is bound after construction).
                pass
            else:
                raise ConfigurationError(f"unknown fault event {event!r}")
            if (
                isinstance(event, (NetworkPartition, LinkDegradation, LinkFlap))
                and self.fabric is None
            ):
                raise ConfigurationError(
                    f"{type(event).__name__} requires a NetworkFabric; "
                    "construct the injector with fabric=..."
                )

    def bind_manager(self, manager: "ClusterManager") -> None:
        """Attach the cluster manager (needed for executor/node failures)."""
        self.manager = manager

    # ---------------------------------------------------------------- queries
    def cpu_factor(self, node_id: str) -> float:
        """Multiplier on CPU time for attempts launched on ``node_id`` now."""
        active = self._slowdowns.get(node_id)
        if not active:
            return 1.0
        now = self.sim.now
        factor = 1.0
        for end, f in active:
            if now < end:
                factor = max(factor, f)
        return factor

    @property
    def failed_executor_ids(self) -> Set[str]:
        """Executors currently down (crashed, restart pending)."""
        return set(self._failed_executors)

    def node_down(self, node_id: str) -> bool:
        """Ground truth: is the node currently crashed?"""
        return node_id in self._down_nodes

    def reachable(self, src: str, dst: str) -> bool:
        """Ground truth: can ``src`` and ``dst`` talk right now?

        False when either endpoint is down, its link is in a flap down
        phase, or any active partition separates them (nodes on the same
        side of every partition stay connected).
        """
        if src in self._down_nodes or dst in self._down_nodes:
            return False
        if self._flapped.get(src, 0) or self._flapped.get(dst, 0):
            return False
        for part in self._partitions:
            if (src in part) != (dst in part):
                return False
        return True

    def node_reachable(self, node_id: str) -> bool:
        """Ground truth: can the (partition-free) master reach the node?"""
        if node_id in self._down_nodes or self._flapped.get(node_id, 0):
            return False
        return not any(node_id in part for part in self._partitions)

    def link_flapping(self, node_id: str) -> bool:
        """Ground truth: is the node's link currently in a flap down phase?"""
        return bool(self._flapped.get(node_id, 0))

    def _notify_manager(self) -> None:
        if self.manager is not None:
            self.manager.on_executors_changed()

    # -------------------------------------------------------------- tracing
    def _trace_fault(self, kind: str, target: str, *, healed: bool = False, **attrs) -> None:
        """Emit a FaultInjected/FaultHealed instant on the target's track."""
        (self._m_healed if healed else self._m_injected).labels(kind=kind).inc()
        if not self.tracer.enabled:
            return
        cls = FaultHealed if healed else FaultInjected
        attrs.update(kind=kind, target=target)
        self.tracer.emit(cls(self.sim.now, track=target, attrs=attrs))

    # ------------------------------------------------------------- slowdowns
    def _start_slowdown(self, event: NodeSlowdown) -> None:
        self.injected += 1
        self._slowdowns.setdefault(event.node_id, []).append(
            (self.sim.now + event.duration, event.factor)
        )
        self._trace_fault(
            "slowdown", event.node_id, factor=event.factor, duration=event.duration
        )
        if self.detector is not None:
            # A slowed worker heartbeats slower too — that stretched gap is
            # exactly what an adaptive detector keys its suspicion off.
            self.detector.begin_slow(event.node_id, event.factor)
        self.sim.schedule(
            event.duration, self._gc_slowdowns, event.node_id, event.duration
        )

    def _gc_slowdowns(self, node_id: str, duration: float) -> None:
        now = self.sim.now
        active = self._slowdowns.get(node_id, [])
        expired = [(end, f) for end, f in active if end <= now]
        self._slowdowns[node_id] = [(end, f) for end, f in active if end > now]
        if expired:
            if self.detector is not None:
                for _, factor in expired:
                    self.detector.end_slow(node_id, factor)
            self.mttr.setdefault("slowdown", []).append(duration)
            self._trace_fault("slowdown", node_id, healed=True)

    # -------------------------------------------------------------- executors
    def _fail_executor(self, event: ExecutorFailure) -> None:
        executor = self.cluster.executor(event.executor_id)
        self.injected += 1
        self._trace_fault(
            "executor", event.executor_id, restart_delay=event.restart_delay
        )
        if executor.executor_id in self._failed_executors:
            return  # already down
        self._kill_executor(executor)
        # Let demand-driven managers replace the lost capacity now.
        self._notify_manager()
        # Restart: the executor rejoins the free pool after the delay; a
        # reallocation nudge lets demand-driven managers pick it up.
        self.sim.schedule(
            event.restart_delay,
            self._restart_executor,
            executor,
            self._executor_fail_epoch[executor.executor_id],
        )

    def _kill_executor(self, executor) -> None:
        """Shared crash path: mark down, kill attempts, release ownership."""
        self._failed_executors.add(executor.executor_id)
        self._executor_fail_epoch[executor.executor_id] = (
            self._executor_fail_epoch.get(executor.executor_id, 0) + 1
        )
        executor.healthy = False
        owner = executor.owner
        if owner is not None:
            if self.manager is None:
                raise ConfigurationError(
                    "FaultInjector needs bind_manager() before executor failures"
                )
            driver = self.manager.drivers.get(owner)
            if driver is not None:
                self.tasks_requeued += driver.on_executor_failure(executor)
            executor.release()

    def _restart_executor(self, executor, epoch: int) -> None:
        if epoch != self._executor_fail_epoch.get(executor.executor_id, 0):
            return  # stale callback: the executor failed again meanwhile
        if executor.executor_id not in self._failed_executors:
            return  # already revived (e.g. its node restored); don't re-heal
        if executor.node_id in self._down_nodes:
            return  # the whole node crashed meanwhile; node restore handles it
        self._failed_executors.discard(executor.executor_id)
        executor.healthy = True
        self._trace_fault("executor", executor.executor_id, healed=True)
        self._notify_manager()

    # ---------------------------------------------------------------- manager
    def _crash_manager(self, event: ManagerCrash) -> None:
        """Control-plane crash: hand the outage to the recovery coordinator.

        The data plane (executors, drivers, transfers) keeps running; the
        coordinator stalls allocation, marks the crash point in its WAL,
        and schedules its own restart + reconciliation.  The injector only
        owns the fault bookkeeping (trace/heal/MTTR) so chaos sweeps see
        manager crashes like any other fault kind.
        """
        if self.manager is None:
            raise ConfigurationError(
                "FaultInjector needs bind_manager() before manager crashes"
            )
        recovery = getattr(self.manager, "recovery", None)
        if recovery is None:
            raise ConfigurationError(
                "ManagerCrash requires a recovery coordinator; "
                "enable manager_recovery on the experiment config"
            )
        self.injected += 1
        self._trace_fault("manager", "manager", duration=event.duration)
        recovery.crash(event.duration)
        self.sim.schedule(event.duration, self._restore_manager, self.sim.now)

    def _restore_manager(self, failed_at: float) -> None:
        """The outage window ended: record the heal (the coordinator has
        already restarted and begun reconciliation at this instant)."""
        self.mttr.setdefault("manager", []).append(self.sim.now - failed_at)
        self._trace_fault(
            "manager", "manager", healed=True, after=self.sim.now - failed_at
        )

    # ------------------------------------------------------------------ disks
    def _fail_disk(self, event: DiskFailure) -> None:
        self.injected += 1
        lost = self._wipe_storage(event.node_id)
        self._trace_fault("disk", event.node_id, replicas_lost=len(lost))
        if event.re_replicate:
            self._re_replicate(event.node_id, lost)

    def _wipe_storage(self, node_id: str) -> List[str]:
        """Drop every replica and cached copy the node holds; return ids."""
        datanode = self.hdfs.datanodes[node_id]
        lost = datanode.block_report()
        self.replicas_lost += len(lost)
        for block_id in lost:
            datanode.evict(block_id)
            self.hdfs.namenode.remove_replica(block_id, node_id)
        # The node's cache survives a disk failure in principle, but HDFS
        # treats the node as unhealthy: drop cached copies too.
        cache = self.hdfs.caches[node_id]
        for block in cache.clear():
            self.hdfs.namenode.remove_cached_replica(block.block_id, node_id)
        return lost

    def _re_replicate(self, failed_node: str, lost_block_ids) -> None:
        """Restore replication by copying from survivors to healthy nodes.

        Instantaneous metadata-level repair, used for disk failures (HDFS
        background re-replication) and as the fallback when no fabric is
        attached.  Node crashes model the copies as real transfers instead
        (:meth:`_begin_re_replication`).
        """
        for block_id in lost_block_ids:
            survivors = self.hdfs.namenode.locations(block_id)
            if not survivors:
                self.blocks_lost += 1
                if self.tracer.narrating:
                    self.tracer.narrate("fault.block_lost", block_id)
                continue  # all replicas gone: data loss, nothing to copy
            block = None
            for node in survivors:
                dn = self.hdfs.datanodes[node]
                block = dn.block(block_id)
                if block is not None:
                    break
            if block is None:
                continue
            candidates = [
                n
                for n in self.cluster.node_ids
                if n != failed_node and not self.hdfs.datanodes[n].holds(block_id)
            ]
            if not candidates:
                continue
            # Deterministic target choice: stable hash of the block id.
            digest = sum(block_id.encode("utf-8"))
            target = candidates[digest % len(candidates)]
            self.hdfs.datanodes[target].store(block)
            self.hdfs.namenode.add_replica(block_id, target)
            self.replicas_restored += 1

    # ------------------------------------------------------------------- nodes
    def _fail_node(self, event: NodeFailure) -> None:
        node_id = event.node_id
        self.injected += 1
        self._trace_fault("node", node_id, restart_delay=event.restart_delay)
        self._crash_node(node_id, event.restart_delay, event.re_replicate, "node")

    def _fail_group(self, event: CorrelatedFailure) -> None:
        """Correlated crash: every group member fails at the same instant."""
        self.injected += 1
        group = ",".join(event.node_ids)
        self._trace_fault(
            "correlated", group,
            nodes=len(event.node_ids), restart_delay=event.restart_delay,
        )
        for node_id in event.node_ids:
            self._crash_node(
                node_id, event.restart_delay, event.re_replicate, "correlated"
            )

    def _crash_node(
        self, node_id: str, restart_delay: float, re_replicate: bool, kind: str
    ) -> None:
        """Shared crash path for single and correlated node failures."""
        if node_id in self._down_nodes:
            return  # already down
        self._down_nodes.add(node_id)
        if self.detector is not None:
            self.detector.begin_outage(node_id)
        for executor in self.cluster.executors_on(node_id):
            if executor.executor_id not in self._failed_executors:
                self._kill_executor(executor)
        if self.fabric is not None:
            self.fabric.fail_transfers_touching(node_id, cause="node-down")
        lost = self._wipe_storage(node_id)
        if re_replicate and lost:
            # Recovery starts once the failure is *detected* — the NameNode
            # only learns about the dead DataNode after the heartbeat
            # timeout when a detector models that delay.
            delay = self.detector.timeout if self.detector is not None else 0.0
            self.sim.schedule(delay, self._begin_re_replication, node_id, lost)
        self._notify_manager()
        self.sim.schedule(
            restart_delay, self._restore_node, node_id, self.sim.now, kind
        )

    def _restore_node(self, node_id: str, failed_at: float, kind: str = "node") -> None:
        """The crashed node rejoins — executors healthy, DataNode empty."""
        if node_id not in self._down_nodes:
            return
        self._down_nodes.discard(node_id)
        for executor in self.cluster.executors_on(node_id):
            self._failed_executors.discard(executor.executor_id)
            executor.healthy = True
        if self.detector is not None:
            self.detector.end_outage(node_id)
        self.mttr.setdefault(kind, []).append(self.sim.now - failed_at)
        self._trace_fault("node", node_id, healed=True, after=self.sim.now - failed_at)
        if self.fabric is not None:
            self.fabric.refresh_stalled()
        self._notify_manager()

    # ------------------------------------------------------------------- flaps
    def _start_flap(self, event: LinkFlap) -> None:
        self.injected += 1
        self._trace_fault(
            "flap", event.node_id,
            duration=event.duration, period=event.period,
            down_fraction=event.down_fraction,
        )
        windows = event.down_windows()
        for i, (start, end) in enumerate(windows):
            last = i == len(windows) - 1
            self.sim.schedule_at(start, self._flap_down, event.node_id)
            self.sim.schedule_at(
                end, self._flap_up, event.node_id, self.sim.now if last else None
            )

    def _flap_down(self, node_id: str) -> None:
        """One down phase begins: crossing flows abort, heartbeats stop."""
        self._flapped[node_id] = self._flapped.get(node_id, 0) + 1
        if self._flapped[node_id] == 1:
            if self.detector is not None:
                self.detector.begin_outage(node_id)
            if self.fabric is not None:
                self.fabric.fail_transfers_touching(node_id, cause="link-flap")
            self._notify_manager()

    def _flap_up(self, node_id: str, episode_started) -> None:
        """One down phase ends; ``episode_started`` is set on the last one."""
        depth = self._flapped.get(node_id, 0)
        if depth <= 0:
            return
        self._flapped[node_id] = depth - 1
        if self._flapped[node_id] == 0:
            if self.detector is not None:
                self.detector.end_outage(node_id)
            if self.fabric is not None:
                self.fabric.refresh_stalled()
            self._notify_manager()
        if episode_started is not None:
            self.mttr.setdefault("flap", []).append(self.sim.now - episode_started)
            self._trace_fault(
                "flap", node_id, healed=True, after=self.sim.now - episode_started
            )

    # -------------------------------------------------------------- partitions
    def _start_partition(self, event: NetworkPartition) -> None:
        self.injected += 1
        part = frozenset(event.nodes)
        self._partitions.append(part)
        self._trace_fault(
            "partition", ",".join(sorted(part)), duration=event.duration
        )
        if self.detector is not None:
            for node in sorted(part):
                self.detector.begin_outage(node)
        if self.fabric is not None:
            self.fabric.fail_where(
                lambda t: (t.src in part) != (t.dst in part), "partition"
            )
        self.sim.schedule(event.duration, self._heal_partition, part, self.sim.now)

    def _heal_partition(self, part: frozenset, started: float) -> None:
        self._partitions.remove(part)
        if self.detector is not None:
            for node in sorted(part):
                self.detector.end_outage(node)
        self.mttr.setdefault("partition", []).append(self.sim.now - started)
        self._trace_fault(
            "partition",
            ",".join(sorted(part)),
            healed=True,
            after=self.sim.now - started,
        )
        if self.fabric is not None:
            self.fabric.refresh_stalled()
        self._notify_manager()

    # ------------------------------------------------------------ degradations
    def _start_degradation(self, event: LinkDegradation) -> None:
        self.injected += 1
        self._degradations.setdefault(event.node_id, []).append(
            (self.sim.now + event.duration, event.factor)
        )
        self._trace_fault(
            "degradation", event.node_id, factor=event.factor, duration=event.duration
        )
        self._apply_link_scale(event.node_id)
        self.sim.schedule(
            event.duration, self._end_degradation, event.node_id, self.sim.now
        )

    def _end_degradation(self, node_id: str, started: float) -> None:
        now = self.sim.now
        active = self._degradations.get(node_id, [])
        self._degradations[node_id] = [(end, f) for end, f in active if end > now]
        self.mttr.setdefault("degradation", []).append(now - started)
        self._trace_fault("degradation", node_id, healed=True, after=now - started)
        self._apply_link_scale(node_id)

    def _apply_link_scale(self, node_id: str) -> None:
        """Worst active degradation wins; no degradation restores base."""
        now = self.sim.now
        factors = [f for end, f in self._degradations.get(node_id, []) if end > now]
        scale = 1.0 / max(factors) if factors else 1.0
        assert self.fabric is not None  # validated at construction
        self.fabric.set_link_scale(node_id, scale)

    # ---------------------------------------------------------- re-replication
    def _begin_re_replication(self, failed_node: str, lost_block_ids) -> None:
        """Queue recovery copies for a crashed node's lost blocks."""
        if self.fabric is None:
            self._re_replicate(failed_node, lost_block_ids)
            return
        for block_id in lost_block_ids:
            self._rr_queue.append((block_id, failed_node, 0))
        self._pump_re_replication()

    def _pump_re_replication(self) -> None:
        """Start recovery transfers up to the parallelism limit."""
        while self._rr_active < self.re_replication_parallelism and self._rr_queue:
            block_id, exclude, retries = self._rr_queue.popleft()
            try:
                survivors = self.hdfs.namenode.locations(block_id)
            except ConfigurationError:
                continue  # file deleted meanwhile
            if len(survivors) >= self.hdfs.block_spec.replication:
                continue  # already back at full replication
            if not survivors:
                self.blocks_lost += 1
                if self.tracer.narrating:
                    self.tracer.narrate("fault.block_lost", block_id)
                continue
            src = None
            block = None
            for node in survivors:
                if node in self._down_nodes:
                    continue
                candidate_block = self.hdfs.datanodes[node].block(block_id)
                if candidate_block is not None:
                    src = node
                    block = candidate_block
                    break
            # The crashed node is excluded only while down (it wipes on
            # restore, so it becomes a legitimate target again after).
            targets = (
                []
                if src is None
                else [
                    n
                    for n in self.cluster.node_ids
                    if n not in self._down_nodes
                    and not self.hdfs.datanodes[n].holds(block_id)
                    and self.reachable(src, n)
                ]
            )
            if src is None or not targets:
                self._rr_retry(block_id, exclude, retries, "no-source-or-target")
                continue
            digest = sum(block_id.encode("utf-8"))
            target = targets[digest % len(targets)]
            transfer = self.fabric.start_transfer(src, target, block.size)
            self._rr_active += 1
            self.recovery_flows += 1
            self.recovery_bytes += block.size
            if self.tracer.narrating:
                self.tracer.narrate("fault.re_replicate", block_id, src=src, dst=target)
            self._watch_recovery(transfer, block, target, exclude, retries)

    def _watch_recovery(self, transfer, block, target: str, exclude: str, retries: int) -> None:
        """Settle one recovery copy once its transfer ends.

        The subscription is made from a ``call_soon`` event rather than
        here; that hop is part of the pinned event order.
        """
        self.sim.call_soon(
            transfer.done.subscribe,
            partial(self._rr_settled, transfer, block, target, exclude, retries),
        )

    def _rr_retry(self, block_id: str, exclude: str, retries: int, why: str) -> None:
        """Re-queue a blocked/failed recovery copy, bounded."""
        if retries >= _RR_MAX_RETRIES:
            if self.tracer.narrating:
                self.tracer.narrate("fault.re_replicate.giveup", block_id, reason=why)
            return
        self.sim.schedule(
            _RR_RETRY_DELAY, self._rr_requeue, block_id, exclude, retries + 1
        )

    def _rr_requeue(self, block_id: str, exclude: str, retries: int) -> None:
        self._rr_queue.append((block_id, exclude, retries))
        self._pump_re_replication()

    def _rr_settled(
        self, transfer, block, target: str, exclude: str, retries: int, _value, exception
    ) -> None:
        """A recovery transfer ended: commit the replica, or retry it."""
        self._rr_active -= 1
        if exception is not None:
            self._trace_recovery(transfer, block, target, "transfer-failed")
            self._rr_retry(block.block_id, exclude, retries, "transfer-failed")
        elif (
            target not in self._down_nodes
            and not self.hdfs.datanodes[target].holds(block.block_id)
        ):
            self.hdfs.datanodes[target].store(block)
            self.hdfs.namenode.add_replica(block.block_id, target)
            self.replicas_restored += 1
            self._trace_recovery(transfer, block, target, "restored")
        else:
            self._trace_recovery(transfer, block, target, "superseded")
        self._pump_re_replication()

    def _trace_recovery(self, transfer, block, target: str, outcome: str) -> None:
        """Emit one re-replication copy's lifetime as a RecoveryFlow span."""
        if not self.tracer.enabled:
            return
        now = self.sim.now
        self.tracer.emit(
            RecoveryFlow(
                transfer.started_at,
                dur=now - transfer.started_at,
                track=transfer.src,
                lane=f"recovery:{transfer.src}",
                attrs={
                    "block": block.block_id,
                    "src": transfer.src,
                    "dst": target,
                    "bytes": block.size,
                    "outcome": outcome,
                },
            )
        )
