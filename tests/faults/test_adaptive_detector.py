"""AdaptiveFailureDetector: phi-accrual belief over an emission-clock model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.faults.detector import AdaptiveFailureDetector, FailureDetector
from repro.simulation.engine import Simulation

pytestmark = [pytest.mark.faults, pytest.mark.robustness]


def make(**kwargs):
    sim = Simulation()
    kwargs.setdefault("interval", 3.0)
    return sim, AdaptiveFailureDetector(sim, **kwargs)


class TestValidation:
    def test_suspect_after_must_exceed_one_gap(self):
        sim = Simulation()
        with pytest.raises(ConfigurationError):
            AdaptiveFailureDetector(sim, suspect_after=1.0)

    def test_dead_after_must_exceed_suspect_after(self):
        sim = Simulation()
        with pytest.raises(ConfigurationError):
            AdaptiveFailureDetector(sim, suspect_after=3.0, dead_after=3.0)

    def test_window_needs_two_samples(self):
        sim = Simulation()
        with pytest.raises(ConfigurationError):
            AdaptiveFailureDetector(sim, window=1)

    def test_timeout_derives_from_dead_after(self):
        # Consumers planning around `timeout` (re-replication delay) see the
        # nominal detection budget: dead_after healthy gaps.
        _, detector = make(interval=3.0, dead_after=8.0)
        assert detector.timeout == 24.0


class TestHealthy:
    def test_healthy_node_stays_alive(self):
        sim, detector = make()
        sim.run(until=100.0)
        assert detector.phi("worker-000") < 1.0
        assert detector.state("worker-000") == "alive"
        assert not detector.is_suspected("worker-000")

    def test_mean_gap_floors_at_interval(self):
        sim, detector = make(interval=3.0)
        sim.run(until=50.0)
        assert detector.mean_gap("worker-000") == 3.0


class TestSlowdownSuspicion:
    """factor-s slowdown stretches the emission gap to s * interval.

    With a healthy history (mean gap = interval) the silence crosses
    suspect_after mean-gaps mid-stretch, so the node is *suspected*; once
    the stretched arrival lands, the windowed mean adapts and phi drops —
    the node is never declared dead.
    """

    def test_slow_node_suspected_then_adapts(self):
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=30.0)
        detector.begin_slow("worker-000", 4.0)
        # Last heartbeat at t=30; next emission at 30 + 4*3 = 42.
        sim.run(until=40.0)
        assert detector.state("worker-000") == "suspected"  # phi = 10/3
        assert detector.suspicions == 1
        sim.run(until=43.0)
        assert detector.state("worker-000") == "alive"  # the 42s arrival landed
        # After the stretched gap enters the window the mean adapts, so the
        # same silence no longer looks suspicious.
        sim.run(until=53.0)
        assert detector.state("worker-000") == "alive"
        assert detector.suspicions == 1
        assert detector.false_positives == 0

    def test_mild_slowdown_never_suspects(self):
        # A stretch below suspect_after gaps stays under the threshold even
        # against the registration-time baseline (max phi = factor), and
        # adaptation only widens the margin from there.
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        detector.begin_slow("worker-000", 2.0)
        for t in range(1, 60):
            sim.run(until=float(t))
            detector.state("worker-000")
        assert detector.suspicions == 0

    def test_deep_slowdown_is_a_false_positive(self):
        # factor 9 stretches the gap to 27s; phi reaches dead_after=8 before
        # the arrival lands, declaring a node that is actually up.
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=30.0)
        detector.begin_slow("worker-000", 9.0)
        sim.run(until=55.0)
        assert detector.state("worker-000") == "dead"  # phi = 25/3 >= 8
        assert detector.false_positives == 1
        sim.run(until=58.0)  # emission at 30 + 27 = 57 clears the belief
        assert detector.state("worker-000") == "alive"

    def test_end_slow_resumes_nominal_emission(self):
        sim, detector = make()
        sim.run(until=30.0)
        detector.begin_slow("worker-000", 4.0)
        sim.run(until=36.0)
        detector.end_slow("worker-000", 4.0)
        # Virtual clock at 36 is 31.5; the pending 33s emission lands
        # 1.5 real seconds after the slowdown ends.
        sim.run(until=38.0)
        assert detector.last_heartbeat("worker-000") == 37.5

    def test_nested_slowdowns_use_max_factor(self):
        sim, detector = make()
        sim.run(until=30.0)
        detector.begin_slow("worker-000", 2.0)
        detector.begin_slow("worker-000", 4.0)
        detector.end_slow("worker-000", 2.0)
        # The deepest window governs: next emission at 30 + 4*3 = 42.
        sim.run(until=41.0)
        assert detector.last_heartbeat("worker-000") == 30.0
        sim.run(until=43.0)
        assert detector.last_heartbeat("worker-000") == 42.0

    def test_unmatched_end_slow_is_noop(self):
        sim, detector = make()
        sim.run(until=10.0)
        detector.end_slow("worker-000", 4.0)
        assert detector.state("worker-000") == "alive"


class TestOutageScoring:
    def test_crash_detected_and_scored_true_positive(self):
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=31.0)
        detector.begin_outage("worker-000")
        # Last heartbeat at 30; dead once phi = elapsed/3 >= 8, i.e. t >= 54.
        sim.run(until=50.0)
        assert detector.state("worker-000") == "suspected"
        sim.run(until=55.0)
        assert not detector.is_alive("worker-000")
        detector.end_outage("worker-000")
        assert detector.true_positives == 1
        assert detector.false_negatives == 0

    def test_short_outage_heals_unnoticed_as_false_negative(self):
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=31.0)
        detector.begin_outage("worker-000")
        sim.run(until=40.0)
        detector.state("worker-000")  # queried, but phi only reached 10/3
        detector.end_outage("worker-000")
        assert detector.false_negatives == 1
        assert detector.true_positives == 0

    def test_recovery_trusted_from_next_emission(self):
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=31.0)
        detector.begin_outage("worker-000")
        sim.run(until=60.0)
        assert not detector.is_alive("worker-000")
        detector.end_outage("worker-000")
        sim.run(until=63.5)  # tick at t=63 got through
        assert detector.is_alive("worker-000")


class TestBaseDetectorHooks:
    def test_base_slow_hooks_are_noops(self):
        sim = Simulation()
        detector = FailureDetector(sim, interval=3.0, timeout=9.0)
        sim.run(until=10.0)
        detector.begin_slow("worker-000", 4.0)
        sim.run(until=30.0)
        assert detector.is_alive("worker-000")
        assert not detector.is_suspected("worker-000")
        detector.end_slow("worker-000", 4.0)


class TestQueryCost:
    """One belief query walks the heartbeat history once."""

    def test_state_walks_history_once(self):
        from unittest import mock

        from repro.obs.sinks import RingSink
        from repro.obs.tracer import Tracer

        sim = Simulation()
        # An enabled tracer makes each transition also report phi.
        tracer = Tracer(clock=lambda: sim.now, sinks=[RingSink()])
        detector = AdaptiveFailureDetector(sim, interval=3.0, tracer=tracer)
        sim.run(until=10.0)
        detector.begin_outage("worker-001")
        sim.run(until=30.0)
        detector.begin_slow("worker-000", 4.0)
        sim.run(until=40.0)
        walk = mock.patch.object(
            detector, "_last_heartbeat", wraps=detector._last_heartbeat
        )
        segments = mock.patch.object(detector, "_segments", wraps=detector._segments)
        with walk as walks, segments as builds:
            states = [
                detector.state(node) for node in ("worker-000", "worker-001", "worker-002")
            ]
        assert states == ["suspected", "dead", "alive"]
        assert len(tracer.events()) == 2  # both transitions traced phi
        assert walks.call_count == 3
        assert builds.call_count == 3
