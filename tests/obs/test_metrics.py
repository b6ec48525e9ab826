"""MetricsRegistry unit tests: instruments, families, snapshots, null path."""

from unittest import mock

import pytest

import repro.obs.metrics as metrics_module
from repro.common.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullInstrument,
    SNAPSHOT_FORMAT_VERSION,
)

pytestmark = [pytest.mark.obs, pytest.mark.metrics]


# ------------------------------------------------------------- instruments
def test_counter_accumulates_and_rejects_negative():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ConfigurationError, match="only go up"):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13.0


# -------------------------------------------------------------- histograms
def test_empty_histogram_quantiles_are_none():
    h = Histogram((1.0, 10.0))
    assert h.quantile(0.5) is None
    assert h.quantiles((0.5, 0.99)) == [None, None]
    assert h.mean is None
    assert h.fraction_leq(5.0) == 0.0
    d = h.as_dict()
    assert d["count"] == 0 and d["min"] is None and d["max"] is None
    assert d["p50"] is None and d["p99"] is None


def test_single_observation_pins_every_quantile():
    h = Histogram((1.0, 10.0, 100.0))
    h.observe(7.0)
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert h.quantile(q) == 7.0
    assert h.mean == 7.0
    assert h.fraction_leq(7.0) == 1.0
    assert h.fraction_leq(6.9) == 0.0


def test_overflow_observations_clamp_to_last_bucket():
    h = Histogram((1.0, 10.0))
    h.observe(5000.0)
    h.observe(9000.0)
    assert h.counts == [0, 0, 2]  # both in the implicit overflow bucket
    assert h.count == 2
    # Quantiles stay within the observed range despite the open-ended bucket.
    assert 5000.0 <= h.quantile(0.5) <= 9000.0
    assert h.quantile(1.0) == 9000.0


def test_bucket_edges_are_inclusive_upper():
    h = Histogram((1.0, 10.0))
    h.observe(1.0)   # lands in bucket 0 (le=1)
    h.observe(1.001)  # lands in bucket 1 (le=10)
    assert h.counts == [1, 1, 0]


def test_nan_observation_raises():
    h = Histogram((1.0,))
    with pytest.raises(ConfigurationError, match="NaN"):
        h.observe(float("nan"))


def test_quantile_arg_validated():
    h = Histogram((1.0,))
    h.observe(0.5)
    with pytest.raises(ConfigurationError):
        h.quantile(1.5)


def test_histogram_bounds_validated():
    with pytest.raises(ConfigurationError):
        Histogram(())
    with pytest.raises(ConfigurationError):
        Histogram((1.0, 1.0))
    with pytest.raises(ConfigurationError):
        Histogram((5.0, 1.0))


def test_merge_requires_identical_buckets():
    a, b = Histogram((1.0, 2.0)), Histogram((1.0, 3.0))
    with pytest.raises(ConfigurationError, match="different buckets"):
        a.merge(b)


def test_histogram_dict_round_trip():
    h = Histogram((1.0, 10.0, 100.0))
    for v in (0.2, 3.0, 42.0, 999.0):
        h.observe(v)
    back = Histogram.from_dict(h.as_dict())
    assert back.counts == h.counts
    assert back.sum == h.sum and back.count == h.count
    assert back.min == h.min and back.max == h.max
    assert back.quantile(0.9) == h.quantile(0.9)


# ---------------------------------------------------------------- families
def test_labels_return_the_same_child_per_value_tuple():
    reg = MetricsRegistry()
    fam = reg.counter("x_total", "help", ("app",))
    a = fam.labels(app="a")
    a2 = fam.labels(app="a")
    b = fam.labels(app="b")
    assert a is a2 and a is not b
    a.inc()
    assert a.value == 1.0 and b.value == 0.0


def test_mismatched_labels_raise():
    reg = MetricsRegistry()
    fam = reg.counter("x_total", "", ("app",))
    with pytest.raises(ConfigurationError):
        fam.labels(node="n1")
    with pytest.raises(ConfigurationError):
        fam.labels()


def test_label_free_family_delegates_directly():
    reg = MetricsRegistry()
    reg.counter("c_total").inc(2)
    reg.gauge("g").set(7)
    reg.histogram("h", buckets=(1.0, 10.0)).observe(3.0)
    snap = reg.snapshot()
    by_name = {m["name"]: m for m in snap["metrics"]}
    assert by_name["c_total"]["series"][0]["value"] == 2.0
    assert by_name["g"]["series"][0]["value"] == 7.0
    assert by_name["h"]["series"][0]["count"] == 1


def test_labelled_family_rejects_direct_use():
    reg = MetricsRegistry()
    fam = reg.counter("x_total", "", ("app",))
    with pytest.raises(ConfigurationError, match="use .labels"):
        fam.inc()


def test_label_free_series_is_resolved_once():
    """Only the first bare ``inc`` validates labels; later ones reuse the
    child.  A labelled family with live series still rejects bare use."""
    reg = MetricsRegistry()
    fam = reg.counter("c_total")
    with mock.patch.object(
        metrics_module, "_check_label_values", wraps=metrics_module._check_label_values
    ) as check:
        for _ in range(3):
            fam.inc()
    assert check.call_count == 1
    assert fam.series()[0]["value"] == 3.0
    labelled = reg.counter("x_total", "", ("app",))
    labelled.labels(app="a").inc()
    with pytest.raises(ConfigurationError, match="use .labels"):
        labelled.inc()


# ---------------------------------------------------------------- registry
def test_reregistration_is_idempotent_when_identical():
    reg = MetricsRegistry()
    first = reg.counter("x_total", "help", ("app",))
    again = reg.counter("x_total", "help", ("app",))
    assert first is again
    assert len(reg) == 1


def test_conflicting_redeclaration_raises():
    reg = MetricsRegistry()
    reg.counter("x_total", "", ("app",))
    with pytest.raises(ConfigurationError, match="conflicting"):
        reg.gauge("x_total", "", ("app",))
    with pytest.raises(ConfigurationError, match="conflicting"):
        reg.counter("x_total", "", ("node",))
    reg.histogram("h", buckets=(1.0, 2.0))
    with pytest.raises(ConfigurationError, match="conflicting"):
        reg.histogram("h", buckets=(1.0, 3.0))


def test_snapshot_schema_and_clock():
    reg = MetricsRegistry(clock=lambda: 42.0)
    reg.counter("jobs_total", "Jobs.").inc()
    snap = reg.snapshot(meta={"seed": 7})
    assert snap["format_version"] == SNAPSHOT_FORMAT_VERSION
    assert snap["kind"] == "metrics_snapshot"
    assert snap["sim_time"] == 42.0
    assert snap["wall_time"] > 0
    assert snap["meta"] == {"seed": 7}
    (fam,) = snap["metrics"]
    assert fam["name"] == "jobs_total" and fam["type"] == "counter"


def test_snapshot_orders_families_and_series_deterministically():
    reg = MetricsRegistry()
    fam = reg.counter("b_total", "", ("app",))
    fam.labels(app="z").inc()
    fam.labels(app="a").inc()
    reg.counter("a_total").inc()
    snap = reg.snapshot()
    assert [m["name"] for m in snap["metrics"]] == ["a_total", "b_total"]
    assert [s["labels"]["app"] for s in snap["metrics"][1]["series"]] == ["a", "z"]


# -------------------------------------------------------------- null path
def test_null_registry_is_inert_and_shared():
    c = NULL_METRICS.counter("anything", "", ("a", "b"))
    g = NULL_METRICS.gauge("else")
    h = NULL_METRICS.histogram("hist", buckets=(1.0,))
    assert isinstance(c, NullInstrument)
    assert c is g is h  # one shared instrument for every factory
    assert c.labels(a=1, b=2) is c  # labels() chains to itself
    # All mutators are no-ops with no state.
    c.inc()
    c.dec()
    c.set(5)
    c.observe(1.0)
    assert not NULL_METRICS.enabled


def test_null_registry_snapshot_raises():
    with pytest.raises(ConfigurationError, match="no data to snapshot"):
        NULL_METRICS.snapshot()


def test_default_buckets_strictly_increase():
    assert all(
        b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
    )
