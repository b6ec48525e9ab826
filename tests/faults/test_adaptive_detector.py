"""AdaptiveFailureDetector: phi-accrual belief over an emission-clock model."""

import random
from unittest import mock

import pytest

from repro.common.errors import ConfigurationError
from repro.faults.detector import AdaptiveFailureDetector, FailureDetector
from repro.obs.sinks import RingSink
from repro.obs.tracer import Tracer
from repro.simulation.engine import Simulation
from tests.reference_stack import judge_every_query

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
        # worker-002 was never named by an outage, slowdown or report: its
        # verdict takes no walk at all.
        assert walks.call_count == 2
        assert builds.call_count == 2

    @pytest.mark.parametrize("cls", [AdaptiveFailureDetector, FailureDetector])
    def test_untouched_node_skips_the_walk(self, cls):
        sim = Simulation()
        detector = cls(sim, interval=3.0)
        walk = mock.patch.object(detector, "last_heartbeat", wraps=detector.last_heartbeat)
        inner = mock.patch.object(
            detector, "_judge_walk", wraps=detector._judge_walk
        )
        with walk as walks, inner as judged:
            for until in (0.0, 2.999999999, 3.0, 10.5, 1e6 + 0.25):
                sim.run(until=until)
                assert detector.is_alive("worker-000")
                assert not detector.is_suspected("worker-000")
            assert judged.call_count == 0 and walks.call_count == 0
            detector.report_failure("worker-000")  # now it is named
            assert not detector.is_alive("worker-000")
            assert judged.call_count == 1


class MemoFreeDetector(AdaptiveFailureDetector):
    """Judges every query afresh: the oracle for the verdict memo."""

    _verdict = judge_every_query


class MemoFreeFixedDetector(FailureDetector):
    _verdict = judge_every_query


class TestVerdictMemo:
    """One verdict per node per instant, re-judged after any mutation."""

    MUTATORS = {
        "begin_outage": lambda d, n: d.begin_outage(n),
        "end_outage": lambda d, n: d.end_outage(n),
        "begin_slow": lambda d, n: d.begin_slow(n, 2.0),
        "end_slow": lambda d, n: d.end_slow(n, 4.0),
        "report_failure": lambda d, n: d.report_failure(n),
    }

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_each_mutator_forces_a_fresh_verdict(self, mutator):
        sim, detector = make()
        sim.run(until=10.0)
        detector.begin_outage("worker-000")
        detector.begin_slow("worker-000", 4.0)
        sim.run(until=20.0)
        with mock.patch.object(detector, "_judge", wraps=detector._judge) as judge:
            detector.state("worker-000")
            detector.is_alive("worker-000")
            detector.is_suspected("worker-000")
            assert judge.call_count == 1  # repeat queries hit the memo
            self.MUTATORS[mutator](detector, "worker-000")
            detector.state("worker-000")
            assert judge.call_count == 2

    def test_report_failure_is_seen_at_the_same_instant(self):
        sim, detector = make()
        sim.run(until=10.0)
        assert detector.is_alive("worker-000")
        detector.report_failure("worker-000")
        assert not detector.is_alive("worker-000")
        assert detector.state("worker-000") == "dead"

    def test_end_outage_on_a_tick_is_seen_at_the_same_instant(self):
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=31.0)
        detector.begin_outage("worker-000")
        sim.run(until=60.0)
        assert detector.state("worker-000") == "dead"
        detector.end_outage("worker-000")  # the t=60 tick gets through
        assert detector.state("worker-000") == "alive"

    def test_begin_outage_on_a_tick_is_seen_at_the_same_instant(self):
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=31.0)
        detector.begin_outage("worker-000")
        sim.run(until=42.0)
        detector.end_outage("worker-000")
        assert detector.state("worker-000") == "alive"  # tick 42 arrived
        detector.begin_outage("worker-000")  # ... and is lost after all
        assert detector.state("worker-000") == "suspected"  # silent since 30

    def test_advancing_time_recomputes(self):
        sim, detector = make(suspect_after=3.0, dead_after=8.0)
        sim.run(until=31.0)
        detector.begin_outage("worker-000")
        with mock.patch.object(detector, "_judge", wraps=detector._judge) as judge:
            assert detector.state("worker-000") == "alive"
            sim.run(until=40.0)
            assert detector.state("worker-000") == "suspected"
            assert judge.call_count == 2

    def test_fixed_window_is_alive_is_memoised(self):
        sim = Simulation()
        detector = FailureDetector(sim, interval=3.0, timeout=9.0)
        sim.run(until=10.0)
        with mock.patch.object(detector, "_judge", wraps=detector._judge) as judge:
            assert detector.is_alive("worker-000")
            assert detector.is_alive("worker-000")
            detector.report_failure("worker-000")
            assert not detector.is_alive("worker-000")
            assert judge.call_count == 2


def run_script(detector_cls, seed, **kwargs):
    """Drive a detector through one random mutation/query script.

    Returns every query result, the accuracy tallies and the traced
    ``detector.suspicion`` events — everything observable from outside.
    About half the queries ask about nodes no mutation ever names, which
    take the detector's no-walk path.
    """
    rng = random.Random(seed)
    sim = Simulation()
    tracer = Tracer(clock=lambda: sim.now, sinks=[RingSink()])
    detector = detector_cls(sim, interval=3.0, tracer=tracer, **kwargs)
    nodes = ["worker-000", "worker-001", "worker-002"]
    quiet = ["worker-003", "worker-004", "worker-005"]
    depth = {n: 0 for n in nodes}
    slow = {n: [] for n in nodes}
    kinds = ["is_alive", "is_suspected"]
    if isinstance(detector, AdaptiveFailureDetector):
        kinds.append("state")
    answers = []
    for _ in range(80):
        node = rng.choice(nodes)
        op = rng.choice(
            ["advance", "advance", "query", "query", "query", "outage", "slow", "report"]
        )
        if op == "advance":
            sim.run(until=sim.now + rng.choice([0.0, 0.5, 1.0, 1.5, 3.0, 4.5, 7.0, 12.0]))
        elif op == "query":
            kind = rng.choice(kinds)
            if rng.random() < 0.5:
                node = rng.choice(quiet)
            answers.append((sim.now, kind, node, getattr(detector, kind)(node)))
        elif op == "outage":
            if depth[node] and rng.random() < 0.5:
                depth[node] -= 1
                detector.end_outage(node)
            else:
                depth[node] += 1
                detector.begin_outage(node)
        elif op == "slow":
            if slow[node] and rng.random() < 0.5:
                detector.end_slow(node, slow[node].pop(rng.randrange(len(slow[node]))))
            else:
                factor = rng.choice([1.5, 2.0, 4.0, 9.0])
                slow[node].append(factor)
                detector.begin_slow(node, factor)
        else:
            detector.report_failure(node)
    tallies = tuple(
        getattr(detector, name, None)
        for name in ("suspicions", "false_positives", "false_negatives", "true_positives")
    )
    events = [(e.name, e.ts, e.attrs) for e in tracer.events()]
    return answers, tallies, events


@pytest.mark.parametrize(
    "memoised, oracle, kwargs",
    [
        (AdaptiveFailureDetector, MemoFreeDetector, {"suspect_after": 2.5}),
        (FailureDetector, MemoFreeFixedDetector, {"timeout": 9.0}),
    ],
    ids=["adaptive", "fixed-window"],
)
def test_memo_matches_memo_free_detector_on_random_scripts(memoised, oracle, kwargs):
    transitions = 0
    for seed in range(300):
        got = run_script(memoised, seed, **kwargs)
        assert got == run_script(oracle, seed, **kwargs), f"script seed {seed}"
        transitions += sum(1 for name, _, _ in got[2] if name == "detector.suspicion")
    if memoised is AdaptiveFailureDetector:
        assert transitions > 300  # the scripts do move beliefs
