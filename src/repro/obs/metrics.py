"""Label-aware metrics registry: Counter / Gauge / Histogram families.

The aggregation layer on top of the raw trace stream (PR 3).  Components
are handed a :class:`MetricsRegistry` (or the shared :data:`NULL_METRICS`
no-op) and pre-bind their instruments once in ``__init__``::

    self._m_rounds = metrics.counter(
        "alloc_rounds_total", "Allocation rounds executed.", ("manager",)
    ).labels(manager=self.name)
    ...
    self._m_rounds.inc()          # hot path: one attribute add, or a no-op

Design points, mirroring :mod:`repro.obs.tracer`:

* **Cheap when off.**  :data:`NULL_METRICS` returns a shared no-op
  instrument from every factory; ``inc``/``set``/``observe``/``labels``
  are empty methods, so metrics-off call sites cost one method call.
* **Inert when on.**  Instruments only ever *read* simulator state and
  add to private floats — no scheduling, no RNG draws, no container
  mutation visible to the engine.  The lockstep test in
  ``tests/obs/test_metrics_equivalence.py`` pins metrics-on == metrics-off
  trajectories record for record.
* **Streaming quantiles from fixed buckets.**  Histograms keep
  fixed-boundary bucket counts and interpolate p50/p90/p99 from them.
  Unlike P²-style estimators this makes ``merge`` order-independent and
  count-conserving (Hypothesis-tested), at the cost of bucket-resolution
  error — fine for scoreboards and SLO gates.
* **Dual clocks.**  Sim time comes from the registry's bound ``clock``
  (``lambda: sim.now``); wall-clock time is read *only* at snapshot time
  so hot paths stay deterministic.

Snapshots are versioned JSON-ready dicts (:data:`SNAPSHOT_FORMAT_VERSION`)
consumed by :mod:`repro.obs.exposition` (Prometheus text),
:mod:`repro.obs.slo` (objective verdicts) and :mod:`repro.obs.diff`
(regression deltas).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "SNAPSHOT_FORMAT_VERSION",
    "DEFAULT_BUCKETS",
    "SIZE_BUCKETS",
    "RATE_BUCKETS",
]

#: Schema version stamped into every snapshot (and checked on load).
SNAPSHOT_FORMAT_VERSION = 1

#: Default sim-seconds buckets — tuned for task/job durations (O(1)–O(1e3) s).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Power-of-two-ish count buckets — dirty-component sizes, queue depths.
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
)

#: Bytes-per-sim-second buckets for achieved transfer rates.
RATE_BUCKETS: Tuple[float, ...] = (
    1e6, 5e6, 1e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 5e9, 1e10, 5e10,
)


def _check_label_values(labelnames: Tuple[str, ...], kv: Dict[str, Any]) -> Tuple[str, ...]:
    if set(kv) != set(labelnames):
        raise ConfigurationError(
            f"labels {sorted(kv)} do not match declared labelnames {sorted(labelnames)}"
        )
    return tuple(str(kv[name]) for name in labelnames)


class Counter:
    """Monotonically increasing tally (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the tally."""
        if amount < 0:
            raise ConfigurationError(f"counters only go up; inc({amount})")
        self.value += amount


class Gauge:
    """Point-in-time value that can move both ways (one labelled child)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the current value by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the current value by ``amount``."""
        self.value -= amount


class Histogram:
    """Fixed-boundary bucket histogram with interpolated quantiles.

    ``bounds`` are upper edges of the finite buckets; one implicit
    overflow bucket catches everything above ``bounds[-1]`` (out-of-range
    observations clamp there rather than erroring).  Exact ``sum``,
    ``count``, ``min`` and ``max`` ride along so means are precise even
    though quantiles are bucket-interpolated.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(f"bucket boundaries must strictly increase: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (clamped into the overflow bucket if huge)."""
        value = float(value)
        if value != value:  # NaN would silently poison sum/quantiles
            raise ConfigurationError("cannot observe NaN")
        # bisect_left: bucket i holds values in (bounds[i-1], bounds[i]]
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        """Exact arithmetic mean; ``None`` when empty."""
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Interpolated q-quantile from bucket counts; ``None`` when empty.

        Linear interpolation inside the bucket containing the target rank;
        the open-ended edge buckets borrow the observed min/max so single
        observations and clamped outliers come back exact-ish.  Monotone in
        ``q`` and always within ``[self.min, self.max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        if target <= 0:
            return self.min
        cum = 0
        for i, bucket_count in enumerate(self.counts):
            prev = cum
            cum += bucket_count
            if cum >= target and bucket_count > 0:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else max(self.max, self.bounds[-1])
                value = lo + (hi - lo) * ((target - prev) / bucket_count)
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - cum == count always reaches target

    def quantiles(self, qs: Sequence[float]) -> List[Optional[float]]:
        """Vectorised :meth:`quantile` over ``qs``."""
        return [self.quantile(q) for q in qs]

    def fraction_leq(self, threshold: float) -> float:
        """Estimated fraction of observations ``<= threshold`` (SLO burn).

        Whole buckets below the threshold count fully; the straddling
        bucket contributes a linearly interpolated share.  Returns 0.0 for
        an empty histogram.
        """
        if self.count == 0:
            return 0.0
        if threshold >= self.max:
            return 1.0
        if threshold < self.min:
            return 0.0
        covered = 0.0
        for i, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
            hi = self.bounds[i] if i < len(self.bounds) else max(self.max, self.bounds[-1])
            if threshold >= hi:
                covered += bucket_count
            elif threshold > lo:
                covered += bucket_count * (threshold - lo) / (hi - lo)
        return min(covered / self.count, 1.0)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into self.  Order-independent, count-conserving."""
        if other.bounds != self.bounds:
            raise ConfigurationError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, bucket_count in enumerate(other.counts):
            self.counts[i] += bucket_count
        self.sum += other.sum
        self.count += other.count
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready projection, quantiles precomputed for diff/SLO use."""
        p50, p90, p99 = self.quantiles((0.5, 0.9, 0.99))
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild from :meth:`as_dict` output (SLO evaluation on snapshots)."""
        hist = cls(data["buckets"])
        counts = list(data["counts"])
        if len(counts) != len(hist.counts):
            raise ConfigurationError(
                f"bucket/count length mismatch: {len(counts)} counts for "
                f"{len(hist.bounds)} boundaries"
            )
        hist.counts = counts
        hist.sum = float(data["sum"])
        hist.count = int(data["count"])
        hist.min = float("inf") if data.get("min") is None else float(data["min"])
        hist.max = float("-inf") if data.get("max") is None else float(data["max"])
        return hist


_KINDS = ("counter", "gauge", "histogram")
_CHILD_TYPES = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """All same-name series: one child instrument per label-value tuple."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown metric kind {kind!r}; expected one of {_KINDS}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **kv: Any):
        """The child instrument for these label values (created on demand)."""
        key = _check_label_values(self.labelnames, kv)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets or DEFAULT_BUCKETS)
            else:
                child = _CHILD_TYPES[self.kind]()
            self._children[key] = child
        return child

    # ------------------------------------------------ label-free delegation
    # Families declared without labelnames act as their own single child,
    # so `registry.counter("x").inc()` works without a labels() hop.

    def _default_child(self):
        # Hot path: once created, the label-free child is one dict hit (a
        # labelled family never holds the empty key, so it still raises).
        child = self._children.get(())
        if child is not None:
            return child
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} declares labels {self.labelnames}; "
                f"use .labels(...) to pick a series"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-free series (labelled families must use labels())."""
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the label-free series (labelled families must use labels())."""
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        """Set the label-free series (labelled families must use labels())."""
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        """Observe into the label-free series (labelled families must use labels())."""
        self._default_child().observe(value)

    # ------------------------------------------------------------ export
    def series(self) -> List[Dict[str, Any]]:
        """JSON-ready list of (labels, state) per child, label-sorted."""
        out = []
        for key in sorted(self._children):
            child = self._children[key]
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                entry: Dict[str, Any] = {"labels": labels}
                entry.update(child.as_dict())
            else:
                entry = {"labels": labels, "value": child.value}
            out.append(entry)
        return out


class NullInstrument:
    """Shared do-nothing stand-in for every instrument and family."""

    __slots__ = ()

    def labels(self, **kv: Any) -> "NullInstrument":
        """Return self — a null family is its own null child."""
        return self

    def inc(self, amount: float = 1.0) -> None:
        """No-op."""

    def dec(self, amount: float = 1.0) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""


_NULL_INSTRUMENT = NullInstrument()


class MetricsRegistry:
    """Instrument factory + snapshot source for one run.

    ``clock`` is bound by the experiment runner to ``lambda: sim.now`` so
    snapshots carry the sim timestamp; it is only read at snapshot time.
    Re-registering an existing name returns the same family when the
    declaration matches and raises :class:`ConfigurationError` when it
    conflicts (kind, labelnames or buckets differ).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------- factories
    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family(name, "counter", help, labelnames, None)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family(name, "gauge", help, labelnames, None)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family with the given buckets."""
        return self._family(name, "histogram", help, labelnames, buckets)

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]],
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if (
                existing.kind != kind
                or existing.labelnames != tuple(labelnames)
                or (buckets is not None and existing.buckets != tuple(buckets))
            ):
                raise ConfigurationError(
                    f"metric {name!r} re-registered with conflicting declaration "
                    f"({existing.kind}{existing.labelnames} vs {kind}{tuple(labelnames)})"
                )
            return existing
        family = MetricFamily(name, kind, help, labelnames, buckets)
        self._families[name] = family
        return family

    # --------------------------------------------------------- queries
    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """All families, name-sorted for deterministic export."""
        return [self._families[name] for name in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    # -------------------------------------------------------- snapshot
    def snapshot(
        self,
        *,
        meta: Optional[Dict[str, Any]] = None,
        timeseries: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Versioned JSON-ready snapshot of every family.

        Wall-clock time is read here — never in instrument hot paths — so
        enabling metrics cannot perturb simulated trajectories.
        """
        snap: Dict[str, Any] = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "kind": "metrics_snapshot",
            "sim_time": float(self.clock()) if self.clock is not None else None,
            "wall_time": time.time(),
            "meta": dict(meta) if meta else {},
            "metrics": [
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "series": family.series(),
                }
                for family in self.families()
            ],
        }
        if timeseries is not None:
            snap["timeseries"] = timeseries
        return snap


class NullMetricsRegistry(MetricsRegistry):
    """Metrics-off default: every factory returns the shared no-op.

    Mirrors :class:`repro.obs.tracer.NullTracer` — components store the
    instrument unconditionally and call it unconditionally; when metrics
    are off each call is one empty method.  Snapshotting a null registry
    is a bug (there is nothing to export), so it raises.
    """

    enabled = False

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> NullInstrument:  # type: ignore[override]
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> NullInstrument:  # type: ignore[override]
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(  # type: ignore[override]
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def snapshot(self, **kwargs: Any) -> Dict[str, Any]:
        """Always raises — a disabled registry has nothing to export."""
        raise ConfigurationError(
            "NULL_METRICS has no data to snapshot; enable metrics "
            "(ExperimentConfig.metrics=True) to export"
        )


#: Shared no-op registry — the default for every component's ``metrics``
#: parameter, so call sites never branch on "is metrics on?".
NULL_METRICS = NullMetricsRegistry()
