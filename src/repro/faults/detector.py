"""Heartbeat-based failure detection — the master's *stale* view of nodes.

Real cluster managers never see ground truth: workers heartbeat every
``interval`` seconds and the master declares a node dead only after
``timeout`` seconds of silence.  During that window allocation can land on
a dead node (the launch fails and feeds back into the detector), and a
recovered node is only trusted again once a fresh heartbeat arrives.

The detector is deliberately *event-free*: it schedules nothing on the
simulation.  Fault injectors report node outage windows
(:meth:`begin_outage` / :meth:`end_outage`, depth-counted so overlapping
faults compose), and every liveness query is answered analytically from
those intervals — "which was the last heartbeat tick that fell outside an
outage?".  A periodic heartbeat event would keep the event queue non-empty
forever and break the runner's run-to-quiescence loop; the lazy form is
exactly equivalent and costs O(#outage intervals) per query.

A verdict is a pure function of the clock and the reported history, so
it is judged once per node per instant: repeat queries at the same
``sim.now`` with no report in between (every mutator bumps a counter)
return the stored verdict.  Allocation rounds ask about every free
executor's node, several times over.  A node no outage, slowdown or report
has ever named is judged without the heartbeat walk: its last heartbeat is
simply the latest tick.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.events import HeartbeatMiss, SuspicionChange
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulation.engine import Simulation

__all__ = ["AdaptiveFailureDetector", "FailureDetector", "NodeHealthHistory"]


class NodeHealthHistory:
    """Outage intervals of one node, maintained by the fault injector.

    ``begin_outage``/``end_outage`` are depth-counted: a node that is both
    crashed *and* partitioned stays "out" until both faults clear.  Closed
    intervals are half-open ``[start, end)`` — a heartbeat tick exactly at
    the outage start is lost, one exactly at the end gets through.
    """

    __slots__ = ("_closed", "_open_start", "_depth")

    def __init__(self) -> None:
        self._closed: List[Tuple[float, float]] = []
        self._open_start: float = 0.0
        self._depth = 0

    @property
    def is_out(self) -> bool:
        """True while at least one outage is active."""
        return self._depth > 0

    def begin(self, now: float) -> None:
        """Open (or deepen) an outage starting at ``now``."""
        if self._depth == 0:
            self._open_start = now
        self._depth += 1

    def end(self, now: float) -> None:
        """Close one outage level; records the interval when depth hits 0."""
        if self._depth <= 0:
            raise ConfigurationError("end_outage without matching begin_outage")
        self._depth -= 1
        if self._depth == 0 and now > self._open_start:
            self._closed.append((self._open_start, now))

    def covering_interval(self, t: float, now: float):
        """The outage interval containing time ``t``, or None.

        The open interval (if any) extends to ``now``; with half-open
        semantics ``t == now`` while out is still covered.
        """
        for start, end in self._closed:
            if start <= t < end:
                return (start, end)
        if self._depth > 0 and self._open_start <= t <= now:
            return (self._open_start, float("inf"))
        return None


class FailureDetector:
    """Computes the master's heartbeat-delayed view of node liveness.

    Parameters
    ----------
    sim:
        The owning simulation (read-only; only ``sim.now`` is consulted).
    interval:
        Seconds between worker heartbeats (ticks at ``k * interval``).
    timeout:
        Seconds of heartbeat silence after which a node is suspected dead.
        Must be at least ``interval`` or healthy nodes would flap.
    """

    def __init__(
        self,
        sim: Simulation,
        *,
        interval: float = 3.0,
        timeout: float = 15.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if interval <= 0:
            raise ConfigurationError(f"heartbeat interval must be positive, got {interval}")
        if timeout < interval:
            raise ConfigurationError(
                f"detector timeout ({timeout}) must be >= heartbeat interval ({interval})"
            )
        self.sim = sim
        self.interval = interval
        self.timeout = timeout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._m_reports = self.metrics.counter(
            "detector_reports_total",
            "Failed-launch reports fed back to the failure detector.",
        )
        self._history: Dict[str, NodeHealthHistory] = {}
        #: node id → last time a failed launch was reported against it
        self._reported: Dict[str, float] = {}
        #: nodes an outage, slowdown or report has named; every other node
        #: heartbeats on every tick, so its verdict needs no walk
        self._touched: Set[str] = set()
        self.reported_failures = 0
        #: bumped by every mutator; with ``sim.now`` it keys the verdict memo
        self._mutations = 0
        self._memo_now = -math.inf
        self._memo_mutations = -1
        self._memo: Dict[str, str] = {}

    # ----------------------------------------------------------- injector side
    def history(self, node_id: str) -> NodeHealthHistory:
        """The (created-on-demand) outage history of one node."""
        hist = self._history.get(node_id)
        if hist is None:
            hist = self._history[node_id] = NodeHealthHistory()
            self._touched.add(node_id)
        return hist

    def begin_outage(self, node_id: str) -> None:
        """The node stopped heartbeating (crash or partition) — now."""
        self._mutations += 1
        self.history(node_id).begin(self.sim.now)

    def end_outage(self, node_id: str) -> None:
        """The node's fault cleared; heartbeats resume from the next tick."""
        self._mutations += 1
        self.history(node_id).end(self.sim.now)

    def begin_slow(self, node_id: str, factor: float) -> None:
        """The node's CPU slowed by ``factor`` — heartbeats keep arriving.

        The fixed-window detector ignores gray degradation entirely (a slow
        node still beats inside the timeout); :class:`AdaptiveFailureDetector`
        overrides this to stretch the node's emission clock.
        """

    def end_slow(self, node_id: str, factor: float) -> None:
        """One slowdown window on the node expired (see :meth:`begin_slow`)."""

    def is_suspected(self, node_id: str) -> bool:
        """Gray-zone belief: degraded but not yet declared dead.

        The fixed-window detector has no gray zone — a node is alive or
        dead — so this is always False; the adaptive detector overrides it.
        """
        return False

    # ------------------------------------------------------------ master side
    def report_failure(self, node_id: str) -> None:
        """A launch on ``node_id`` failed: the master marks it dead at once.

        The suspicion clears as soon as a heartbeat tick *after* the report
        succeeds (the node actually recovered)."""
        self._mutations += 1
        self._touched.add(node_id)
        self._reported[node_id] = max(self._reported.get(node_id, 0.0), self.sim.now)
        self.reported_failures += 1
        self._m_reports.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                HeartbeatMiss(self.sim.now, track=node_id, attrs={"node": node_id})
            )

    def last_heartbeat(self, node_id: str) -> float:
        """Arrival time of the node's most recent successful heartbeat.

        Walks heartbeat ticks backward from ``now``, skipping whole outage
        intervals at a time.  Registration at t=0 counts as the first
        heartbeat, so a node failing at the very start is still only
        suspected after ``timeout`` — never retroactively.
        """
        now = self.sim.now
        hist = self._history.get(node_id)
        interval = self.interval
        tick = int(now // interval) * interval
        if hist is None:
            return tick
        while tick >= 0:
            covering = hist.covering_interval(tick, now)
            if covering is None:
                return tick
            start = covering[0]
            # Jump to the last tick strictly before the covering interval.
            k = int(start // interval)
            if k * interval >= start:
                k -= 1
            if k < 0:
                break
            tick = k * interval
        return 0.0

    def _verdict(self, node_id: str) -> str:
        """The node's belief state, judged once per node per instant."""
        now = self.sim.now
        if now != self._memo_now or self._mutations != self._memo_mutations:
            self._memo = {}
            self._memo_now = now
            self._memo_mutations = self._mutations
        verdict = self._memo.get(node_id)
        if verdict is None:
            verdict = self._memo[node_id] = self._judge(node_id)
        return verdict

    def _judge(self, node_id: str) -> str:
        """Uncached verdict; :meth:`_judge_walk` unless nothing ever named
        the node."""
        if node_id not in self._touched:
            # No outage history and no report: the latest tick got through.
            now = self.sim.now
            last = int(now // self.interval) * self.interval
            return "alive" if (now - last) <= self.timeout else "dead"
        return self._judge_walk(node_id)

    def _judge_walk(self, node_id: str) -> str:
        """Verdict from the heartbeat walk: "dead" while (a) the last
        successful heartbeat is older than ``timeout`` or (b) a failed launch
        was reported and no heartbeat has succeeded since; "alive"
        otherwise."""
        last = self.last_heartbeat(node_id)
        reported = self._reported.get(node_id)
        if reported is not None and last <= reported:
            return "dead"
        return "alive" if (self.sim.now - last) <= self.timeout else "dead"

    def is_alive(self, node_id: str) -> bool:
        """The master's belief: has the node heartbeated recently enough?"""
        return self._verdict(node_id) != "dead"

    def suspected_dead(self, node_ids) -> List[str]:
        """Subset of ``node_ids`` the master currently believes dead."""
        return [n for n in node_ids if not self.is_alive(n)]


class AdaptiveFailureDetector(FailureDetector):
    """Phi-accrual-style detection: suspicion from inter-heartbeat history.

    Instead of one fixed silence window, the master scores each node by

        ``phi(node) = elapsed_since_last_heartbeat / mean_recent_gap``

    where the mean gap is estimated over the node's last ``window``
    heartbeat arrivals.  Two thresholds split the belief into three states:
    *alive* (``phi < suspect_after``), *suspected* (deprioritised for
    placement but not declared) and *dead* (``phi >= dead_after``).  A node
    whose CPU is merely slowed stretches its own gap history, so its mean
    adapts and phi stays low — gray nodes are suspected, not declared,
    which is exactly what the fixed window cannot express.

    Like the base class the detector is event-free: slowdown windows
    reported by the injector (:meth:`begin_slow`/:meth:`end_slow`) define a
    per-node piecewise-constant heartbeat *emission clock* — a node slowed
    by factor ``f`` emits every ``f * interval`` seconds — and every query
    is answered analytically from those segments plus the outage history.

    Belief-accuracy accounting is observational: state transitions are
    recorded when queries notice them (the master only "believes" what it
    looks at).  ``false_positives`` counts declarations of nodes that were
    actually up; ``false_negatives`` counts outages that healed without the
    master ever believing the node dead.
    """

    def __init__(
        self,
        sim: Simulation,
        *,
        interval: float = 3.0,
        suspect_after: float = 3.0,
        dead_after: float = 8.0,
        window: int = 8,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if suspect_after <= 1.0:
            raise ConfigurationError(
                f"suspect_after must be > 1 gap, got {suspect_after}"
            )
        if dead_after <= suspect_after:
            raise ConfigurationError(
                f"dead_after ({dead_after}) must exceed suspect_after ({suspect_after})"
            )
        if window < 2:
            raise ConfigurationError(f"window must be >= 2 samples, got {window}")
        # ``timeout`` doubles as the nominal detection delay consumers
        # (re-replication scheduling) plan around: dead_after healthy gaps.
        super().__init__(
            sim,
            interval=interval,
            timeout=dead_after * interval,
            tracer=tracer,
            metrics=metrics,
        )
        self._m_suspicion = self.metrics.counter(
            "suspicion_changes_total",
            "Belief transitions observed by detector queries, by new state.",
            ("state",),
        )
        _verdicts = self.metrics.counter(
            "detector_verdicts_total",
            "Detection accuracy scoring (true/false positives, misses).",
            ("verdict",),
        )
        self._m_verdict_tp = _verdicts.labels(verdict="true_positive")
        self._m_verdict_fp = _verdicts.labels(verdict="false_positive")
        self._m_verdict_fn = _verdicts.labels(verdict="false_negative")
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.window = window
        #: node id → [segment_start, [active factors]] (one open segment)
        self._slow_open: Dict[str, list] = {}
        #: node id → closed (start, end, factor) slow segments, time-ordered
        self._slow_closed: Dict[str, List[Tuple[float, float, float]]] = {}
        #: node id → last belief state a query observed
        self._last_state: Dict[str, str] = {}
        self.suspicions = 0
        self.false_positives = 0
        self.false_negatives = 0
        self.true_positives = 0

    # ---------------------------------------------------------- injector side
    def begin_slow(self, node_id: str, factor: float) -> None:
        """Open (or deepen) a slow window; effective factor is the max."""
        self._mutations += 1
        self._touched.add(node_id)
        now = self.sim.now
        open_ = self._slow_open.get(node_id)
        if open_ is None:
            self._slow_open[node_id] = [now, [factor]]
            return
        start, factors = open_
        effective = max(factors)
        factors.append(factor)
        if max(factors) != effective:
            self._close_segment(node_id, start, now, effective)
            open_[0] = now

    def end_slow(self, node_id: str, factor: float) -> None:
        """Close one slow window level; segments stay piecewise-constant."""
        open_ = self._slow_open.get(node_id)
        if open_ is None:
            return  # unmatched end (injector gc after a detector swap)
        self._mutations += 1
        now = self.sim.now
        start, factors = open_
        effective = max(factors)
        try:
            factors.remove(factor)
        except ValueError:
            return
        if not factors:
            self._close_segment(node_id, start, now, effective)
            del self._slow_open[node_id]
        elif max(factors) != effective:
            self._close_segment(node_id, start, now, effective)
            open_[0] = now

    def _close_segment(self, node_id: str, start: float, end: float, factor: float) -> None:
        if end > start and factor > 1.0:
            self._slow_closed.setdefault(node_id, []).append((start, end, factor))

    def end_outage(self, node_id: str) -> None:
        """Close an outage; count a miss if the master never believed it."""
        super().end_outage(node_id)
        hist = self._history.get(node_id)
        if hist is not None and not hist.is_out:
            if self._last_state.get(node_id) == "dead":
                self.true_positives += 1
                self._m_verdict_tp.inc()
            else:
                self.false_negatives += 1
                self._m_verdict_fn.inc()

    # ----------------------------------------------------- emission-clock math
    # A query builds the node's slow segments once (``_segments``) and
    # threads them through the clock conversions and the heartbeat walk.
    def _segments(self, node_id: str) -> List[Tuple[float, float, float]]:
        """Closed + open slow segments of the node, clipped to ``now``.

        Time-ordered by construction: segments close at the current time,
        which never decreases, and the open one starts where the last
        closed one ended or later.
        """
        segments = list(self._slow_closed.get(node_id, ()))
        open_ = self._slow_open.get(node_id)
        if open_ is not None:
            start, factors = open_
            if factors and self.sim.now > start:
                segments.append((start, self.sim.now, max(factors)))
        return segments

    @staticmethod
    def _virtual(segments: List[Tuple[float, float, float]], t: float) -> float:
        """Real time → emission-clock time (slow segments tick slower)."""
        v = t
        for start, end, factor in segments:
            lo = min(start, t)
            hi = min(end, t)
            if hi > lo:
                v -= (hi - lo) * (1.0 - 1.0 / factor)
        return v

    @staticmethod
    def _real(segments: List[Tuple[float, float, float]], v_target: float) -> float:
        """Emission-clock time → real time (inverse of :meth:`_virtual`)."""
        if v_target <= 0.0:
            return v_target
        t = 0.0
        v = 0.0
        for start, end, factor in segments:
            if v_target <= v + (start - t):
                return t + (v_target - v)
            v += start - t
            t = start
            seg_v = (end - start) / factor
            if v_target <= v + seg_v:
                return t + (v_target - v) * factor
            v += seg_v
            t = end
        return t + (v_target - v)

    def _emission_index(self, segments: List[Tuple[float, float, float]], t: float) -> int:
        """Index of the last heartbeat emitted at or before real time ``t``."""
        return int(math.floor(self._virtual(segments, t) / self.interval + 1e-9))

    def last_heartbeat(self, node_id: str) -> float:
        """Most recent emission that fell outside every outage interval."""
        return self._last_heartbeat(node_id, self._segments(node_id))

    def _last_heartbeat(
        self, node_id: str, segments: List[Tuple[float, float, float]]
    ) -> float:
        """The heartbeat walk behind :meth:`last_heartbeat`."""
        now = self.sim.now
        hist = self._history.get(node_id)
        k = self._emission_index(segments, now)
        while k > 0:
            emitted = self._real(segments, k * self.interval)
            covering = hist.covering_interval(emitted, now) if hist else None
            if covering is None:
                return emitted
            start = covering[0]
            if start <= 0:
                return 0.0
            kk = self._emission_index(segments, start)
            if self._real(segments, kk * self.interval) >= start:
                kk -= 1
            k = kk
        return 0.0

    def mean_gap(self, node_id: str) -> float:
        """Mean real-time gap over the node's recent heartbeat arrivals.

        Uses up to ``window`` gaps ending at the last successful heartbeat;
        floored at the nominal interval so an idle history cannot make the
        detector hair-triggered.
        """
        segments = self._segments(node_id)
        return self._mean_gap(segments, self._last_heartbeat(node_id, segments))

    def _mean_gap(self, segments: List[Tuple[float, float, float]], last: float) -> float:
        k = self._emission_index(segments, last)
        n = min(self.window, k)
        if n < 1:
            return self.interval
        first = self._real(segments, (k - n) * self.interval)
        return max(self.interval, (last - first) / n)

    def phi(self, node_id: str) -> float:
        """Suspicion score: elapsed silence in units of the adaptive gap."""
        segments = self._segments(node_id)
        return self._phi(segments, self._last_heartbeat(node_id, segments))

    def _phi(self, segments: List[Tuple[float, float, float]], last: float) -> float:
        elapsed = self.sim.now - last
        if elapsed <= 0.0:
            return 0.0
        return elapsed / self._mean_gap(segments, last)

    # ------------------------------------------------------------ master side
    def state(self, node_id: str) -> str:
        """The master's belief: "alive", "suspected" or "dead"."""
        return self._verdict(node_id)

    def _judge(self, node_id: str) -> str:
        """Phi verdict; :meth:`_judge_walk` unless nothing ever named the
        node."""
        if node_id not in self._touched and node_id not in self._last_state:
            # No slow segment, outage or report: the emission clock is real
            # time and the latest emission got through.  Less than one gap
            # of silence is phi <= 1 < suspect_after whatever the gap, so
            # the verdict is "alive", the state last observed: no transition.
            now = self.sim.now
            k = int(math.floor(now / self.interval + 1e-9))
            if now - (k * self.interval if k > 0 else 0.0) < self.interval:
                return "alive"
        return self._judge_walk(node_id)

    def _judge_walk(self, node_id: str) -> str:
        """Phi verdict from the heartbeat walk; the first query at an
        instant observes transitions."""
        segments = self._segments(node_id)
        last = self._last_heartbeat(node_id, segments)
        reported = self._reported.get(node_id)
        if reported is not None and last <= reported:
            state = "dead"
        else:
            score = self._phi(segments, last)
            if score >= self.dead_after:
                state = "dead"
            elif score >= self.suspect_after:
                state = "suspected"
            else:
                state = "alive"
        self._observe(node_id, state, segments, last)
        return state

    def is_suspected(self, node_id: str) -> bool:
        return self._verdict(node_id) == "suspected"

    def _observe(
        self,
        node_id: str,
        state: str,
        segments: List[Tuple[float, float, float]],
        last: float,
    ) -> None:
        """Record belief transitions and score them against ground truth."""
        prev = self._last_state.get(node_id, "alive")
        if state == prev:
            return
        self._last_state[node_id] = state
        self._m_suspicion.labels(state=state).inc()
        if state == "suspected":
            self.suspicions += 1
        elif state == "dead":
            hist = self._history.get(node_id)
            if hist is not None and hist.is_out:
                pass  # scored at end_outage (true positive if still believed)
            else:
                self.false_positives += 1
                self._m_verdict_fp.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                SuspicionChange(
                    self.sim.now,
                    track=node_id,
                    attrs={
                        "node": node_id,
                        "state": state,
                        "prev": prev,
                        "phi": round(self._phi(segments, last), 3),
                    },
                )
            )
