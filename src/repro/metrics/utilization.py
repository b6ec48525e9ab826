"""Utilization analysis from a recorded timeline.

Answers the operator questions the paper's §VI discussion touches on
(cluster efficiency under offer rejection, executor churn):

* **slot utilization** — busy slot-seconds divided by capacity over the
  trace span;
* **executor churn** — grants and releases per application;
* **concurrency profile** — running-task percentiles over time.

All derived purely from :class:`~repro.simulation.timeline.Timeline`
records (attempt launches ``task.start``/``task.speculate``/
``task.hedge.start``, their ends ``task.finish``/``attempt.fail``, and
``executor.grant``/``executor.release``), so any run with
``timeline_enabled=True`` can be analysed after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.simulation.timeline import Timeline

__all__ = ["UtilizationReport", "analyze_utilization"]


@dataclass(frozen=True)
class UtilizationReport:
    """Aggregate utilization figures for one run."""

    span: float
    total_slots: int
    busy_slot_seconds: float
    slot_utilization: float
    peak_concurrency: int
    mean_concurrency: float
    grants_per_app: Dict[str, int] = field(default_factory=dict)
    releases_per_app: Dict[str, int] = field(default_factory=dict)
    concurrency_series: Tuple[float, ...] = ()

    def sparkline(self, width: int = 40) -> str:
        """A unicode sparkline of running-task concurrency over time."""
        if not self.concurrency_series:
            return ""
        blocks = " ▁▂▃▄▅▆▇█"
        series = self.concurrency_series
        if len(series) > width:
            # Down-sample by averaging fixed-size chunks.
            chunk = len(series) / width
            series = tuple(
                sum(series[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)])
                / max(len(series[int(i * chunk) : max(int((i + 1) * chunk), int(i * chunk) + 1)]), 1)
                for i in range(width)
            )
        top = max(max(series), 1e-12)
        return "".join(blocks[int(round(v / top * (len(blocks) - 1)))] for v in series)

    def describe(self) -> str:
        """Human-readable summary."""
        lines = [
            f"span:             {self.span:.1f} s",
            f"slot utilization: {100 * self.slot_utilization:.1f}% "
            f"({self.busy_slot_seconds:.0f} busy slot-seconds / {self.total_slots} slots)",
            f"concurrency:      peak {self.peak_concurrency}, "
            f"mean {self.mean_concurrency:.1f} running tasks",
        ]
        spark = self.sparkline()
        if spark:
            lines.append(f"profile:          |{spark}|")
        for app in sorted(self.grants_per_app):
            lines.append(
                f"  {app}: {self.grants_per_app[app]} grants, "
                f"{self.releases_per_app.get(app, 0)} releases"
            )
        return "\n".join(lines)


def analyze_utilization(timeline: Timeline, total_slots: int) -> UtilizationReport:
    """Build a :class:`UtilizationReport` from a timeline.

    ``total_slots`` is the cluster's concurrent task capacity
    (``ClusterConfig.total_slots``).  Raises when the timeline holds no task
    records (nothing ran, or recording was disabled).
    """
    if total_slots < 1:
        raise ConfigurationError(f"total_slots must be >= 1, got {total_slots}")
    starts: Dict[Tuple[str, Optional[str]], float] = {}
    intervals: List[Tuple[float, float]] = []
    grants: Dict[str, int] = {}
    releases: Dict[str, int] = {}
    for record in timeline:
        if record.kind in ("task.start", "task.speculate", "task.hedge.start"):
            # Backup attempts occupy slots too; keyed per attempt via
            # (task, executor) so clones do not collide.
            starts[(record.subject, record.get("executor"))] = record.time
        elif record.kind == "attempt.fail":
            # A failed attempt frees its slot now, not at the task's finish.
            start = starts.pop((record.subject, record.get("executor")), None)
            if start is not None:
                intervals.append((start, record.time))
        elif record.kind == "task.finish":
            # Match the winning attempt; losers' starts are dropped below.
            keys = [k for k in starts if k[0] == record.subject]
            for key in keys:
                intervals.append((starts.pop(key), record.time))
        elif record.kind == "executor.grant":
            app = record.get("app", "?")
            grants[app] = grants.get(app, 0) + 1
        elif record.kind == "executor.release":
            app = record.get("app", "?")
            releases[app] = releases.get(app, 0) + 1
    if not intervals:
        raise ConfigurationError("timeline holds no completed task records")

    begin = min(t0 for t0, _ in intervals)
    end = max(t1 for _, t1 in intervals)
    span = max(end - begin, 1e-12)
    busy = sum(t1 - t0 for t0, t1 in intervals)

    # Concurrency profile via a sweep over start/stop events, accumulating
    # both the time-weighted mean and a bucketised series for the sparkline.
    events = sorted(
        [(t0, 1) for t0, _ in intervals] + [(t1, -1) for _, t1 in intervals]
    )
    n_buckets = 100
    bucket_width = span / n_buckets
    buckets = [0.0] * n_buckets
    level = 0
    peak = 0
    weighted = 0.0
    last_t: Optional[float] = None
    for t, delta in events:
        if last_t is not None and t > last_t:
            weighted += level * (t - last_t)
            # Spread `level` over the buckets the interval [last_t, t) covers.
            lo = (last_t - begin) / bucket_width
            hi = (t - begin) / bucket_width
            b0, b1 = int(lo), min(int(hi), n_buckets - 1)
            for b in range(b0, b1 + 1):
                seg_lo = max(lo, b)
                seg_hi = min(hi, b + 1)
                if seg_hi > seg_lo:
                    buckets[b] += level * (seg_hi - seg_lo)
        level += delta
        peak = max(peak, level)
        last_t = t
    return UtilizationReport(
        span=span,
        total_slots=total_slots,
        busy_slot_seconds=busy,
        slot_utilization=min(busy / (span * total_slots), 1.0),
        peak_concurrency=peak,
        mean_concurrency=weighted / span,
        grants_per_app=grants,
        releases_per_app=releases,
        # Bucket coordinates are in index units (seconds / bucket_width), so
        # the accumulated level×(index-units) is already the bucket's mean
        # running-task level.
        concurrency_series=tuple(buckets),
    )
