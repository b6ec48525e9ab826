"""Property tests: robustness-layer invariants under arbitrary inputs.

Three families, one per mechanism:

* The circuit breaker is a strict state machine — CLOSED is only ever
  reached *through* HALF_OPEN, every edge chains onto the previous one,
  and the read-only predicate never mutates.
* Retry budgets conserve tokens — every request is either spent or
  denied, and spending can never exceed capacity plus refill.
* The whole stack preserves liveness — with every knob enabled, bounded
  gray fault plans (flaps, correlated crashes, slowdowns) never wedge a
  run, and the run-level counters respect the same invariants.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.chaos import build_chaos_plan
from repro.faults.plan import (
    CorrelatedFailure,
    FaultPlan,
    LinkFlap,
    NodeFailure,
    NodeSlowdown,
)
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.robustness import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryBudget,
)

pytestmark = pytest.mark.robustness

#: the complete set of legal breaker edges — note no (OPEN, CLOSED)
LEGAL_EDGES = {
    (CLOSED, OPEN),
    (OPEN, HALF_OPEN),
    (HALF_OPEN, CLOSED),
    (HALF_OPEN, OPEN),
}

breaker_ops = st.lists(
    st.tuples(
        st.sampled_from(["fail", "ok", "launch", "peek"]),
        st.floats(min_value=0.0, max_value=30.0),
    ),
    max_size=40,
)


@given(
    ops=breaker_ops,
    threshold=st.integers(min_value=1, max_value=4),
    window=st.floats(min_value=1.0, max_value=60.0),
    cooldown=st.floats(min_value=1.0, max_value=60.0),
)
@settings(max_examples=200, deadline=None)
def test_breaker_never_skips_half_open(ops, threshold, window, cooldown):
    edges = []
    breaker = CircuitBreaker(
        threshold=threshold,
        window=window,
        cooldown=cooldown,
        on_transition=lambda prev, state: edges.append((prev, state)),
    )
    now = 0.0
    for op, dt in ops:
        now += dt
        if op == "fail":
            breaker.on_failure(now)
        elif op == "ok":
            breaker.on_success(now)
        elif op == "launch":
            breaker.allows_launch(now)
        else:
            state = breaker.state
            probes = breaker.probes
            breaker.would_allow(now)
            assert breaker.state == state  # the filter predicate is pure
            assert breaker.probes == probes
    for edge in edges:
        assert edge in LEGAL_EDGES
    # Edges chain: recovery cannot teleport, so a close is always preceded
    # by the half-open probe admission.
    for (_, landed), (left, _) in zip(edges, edges[1:]):
        assert left == landed
    assert breaker.closes <= breaker.probes
    assert breaker.state in (CLOSED, OPEN, HALF_OPEN)


@given(
    capacity=st.integers(min_value=1, max_value=10),
    refill=st.floats(min_value=0.0, max_value=2.0),
    gaps=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=50),
)
@settings(max_examples=200, deadline=None)
def test_budget_conserves_tokens(capacity, refill, gaps):
    budget = RetryBudget(capacity, refill)
    now = 0.0
    for dt in gaps:
        now += dt
        assert 0.0 <= budget.tokens(now) <= capacity
        budget.try_spend(now)
    assert budget.spent + budget.denied == len(gaps)
    # Spending is bounded by the initial allowance plus everything the
    # refill could possibly have returned over the whole horizon.
    assert budget.spent <= capacity + refill * now + 1e-6
    assert 0.0 <= budget.tokens(now) <= capacity


NUM_NODES = 10

ROBUST = dict(
    manager="custody",
    workload="pagerank",
    num_nodes=NUM_NODES,
    num_apps=2,
    jobs_per_app=2,
    detector_timeout=15.0,
    detector_mode="adaptive",
    circuit_breaker=True,
    blacklist_timeout=10.0,
    hedging=True,
    retry_jitter=True,
    retry_budget=32,
    retry_refill=0.0,  # hard budget: per-job retries <= 32, checkable below
    admission_control=True,
)


@st.composite
def gray_plans(draw):
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["slow", "node", "flap", "correlated"]))
        at = draw(st.floats(min_value=0.0, max_value=60.0))
        node = f"worker-{draw(st.integers(0, NUM_NODES - 1)):03d}"
        if kind == "slow":
            events.append(
                NodeSlowdown(
                    at=at, node_id=node,
                    duration=draw(st.floats(min_value=1.0, max_value=100.0)),
                    factor=draw(st.floats(min_value=1.0, max_value=8.0)),
                )
            )
        elif kind == "node":
            events.append(
                NodeFailure(
                    at=at, node_id=node,
                    restart_delay=draw(st.floats(min_value=1.0, max_value=60.0)),
                )
            )
        elif kind == "flap":
            events.append(
                LinkFlap(
                    at=at, node_id=node,
                    duration=draw(st.floats(min_value=2.0, max_value=40.0)),
                    period=draw(st.floats(min_value=2.0, max_value=10.0)),
                    down_fraction=draw(st.floats(min_value=0.1, max_value=0.9)),
                )
            )
        else:
            members = draw(
                st.sets(st.integers(0, NUM_NODES - 1), min_size=2, max_size=4)
            )
            events.append(
                CorrelatedFailure(
                    at=at,
                    node_ids=tuple(f"worker-{i:03d}" for i in sorted(members)),
                    restart_delay=draw(st.floats(min_value=1.0, max_value=40.0)),
                )
            )
    return FaultPlan(events)


@given(plan=gray_plans(), seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_liveness_and_counter_invariants_under_gray_faults(plan, seed):
    result = run_experiment(
        ExperimentConfig(seed=seed, **ROBUST), fault_plan=plan
    )
    assert result.metrics.unfinished_jobs == 0

    faults = result.faults
    if faults is None:
        return  # empty plan: no injector, nothing to account
    assert faults.breaker_closes <= faults.breaker_probes
    assert faults.hedges_won + faults.hedges_lost <= faults.hedges_launched

    injector = result.fault_injector
    assert injector is not None and injector.manager is not None
    for driver in injector.manager.drivers.values():
        # Hard budget (refill 0): attempts are conserved — per job, the
        # admitted retries plus the tokens still in the bucket equal the
        # capacity, and no task ever exceeds its attempt ceiling.
        for budget in driver._job_budgets.values():
            assert budget.spent + budget.tokens(driver.sim.now) == 32
        for count in driver._failure_counts.values():
            assert count <= driver.max_task_attempts


#: A plan the liveness property above can draw (with ``seed=46``): two
#: correlated crashes and a node failure, all restarting after 1 s.
BREAKER_WEDGE_PLAN = FaultPlan([
    CorrelatedFailure(
        at=0.0, node_ids=("worker-007", "worker-009"), restart_delay=1.0,
        re_replicate=True,
    ),
    NodeFailure(at=0.0, node_id="worker-008", restart_delay=1.0, re_replicate=True),
    CorrelatedFailure(
        at=58.61674938159042, node_ids=("worker-001", "worker-002"),
        restart_delay=1.0, re_replicate=True,
    ),
])


@pytest.mark.xfail(
    strict=True,
    reason="circuit-breaker silent wedge: the run returns with one of four "
    "jobs unfinished and no error (see ROADMAP liveness item)",
)
def test_breaker_wedge_regression():
    result = run_experiment(
        ExperimentConfig(seed=46, **ROBUST), fault_plan=BREAKER_WEDGE_PLAN
    )
    assert result.metrics.unfinished_jobs == 0


def test_breaker_wedge_plan_drains_without_breaker():
    """The same plan and seed finish every job once the breaker is off."""
    result = run_experiment(
        ExperimentConfig(seed=46, **dict(ROBUST, circuit_breaker=False)),
        fault_plan=BREAKER_WEDGE_PLAN,
    )
    assert result.metrics.unfinished_jobs == 0


#: Composed-knob reproducers on 20 nodes with a single replica per block:
#: the chaos plan below loses every replica of some input blocks.
COMPOSED = dict(seed=41, num_nodes=20, jobs_per_app=4, replication=1)


def composed_plan() -> FaultPlan:
    return build_chaos_plan(
        20, 2, np.random.default_rng(34), link_flaps=1, correlated_failures=1,
        horizon=150.0,
    )


@contextmanager
def same_instant_failure_cap(limit: int = 1000):
    """Turn a zero-time livelock into an error: a run whose attempts fail
    more than ``limit`` times at one instant raises instead of hanging."""
    fail_attempt = ApplicationDriver._fail_attempt
    seen = {"now": None, "count": 0}

    def capped(driver, attempt, reason):
        if driver.sim.now != seen["now"]:
            seen["now"], seen["count"] = driver.sim.now, 0
        seen["count"] += 1
        if seen["count"] > limit:
            raise AssertionError(
                f"livelock: {limit} failed attempts at t={driver.sim.now} "
                f"(last: {attempt.task.task_id}, {reason})"
            )
        fail_attempt(driver, attempt, reason)

    with mock.patch.object(ApplicationDriver, "_fail_attempt", capped):
        yield


def finished_jobs(result) -> int:
    return sum(1 for app in result.apps for job in app.jobs if job.finished_at is not None)


def test_speculation_does_not_reclone_a_task_whose_replicas_are_gone():
    """A speculative clone of a task whose block has no replica left would
    fail at once; re-cloning it at the same instant used to loop forever."""
    with same_instant_failure_cap():
        result = run_experiment(
            ExperimentConfig(manager="yarn", speculation=True, **COMPOSED),
            fault_plan=composed_plan(),
            max_sim_time=300,
        )
    assert finished_jobs(result) == 16
    assert result.metrics.unfinished_jobs == 0


@pytest.mark.xfail(
    strict=True,
    reason="circuit-breaker silent wedge: the run returns at makespan 129.2 "
    "with 2 of 16 jobs unfinished and no error (see ROADMAP liveness item)",
)
def test_breaker_wedge_under_data_loss_regression():
    result = run_experiment(
        ExperimentConfig(manager="standalone", circuit_breaker=True, **COMPOSED),
        fault_plan=composed_plan(),
        max_sim_time=300,
    )
    assert result.metrics.unfinished_jobs == 0


def test_breaker_wedge_under_data_loss_drains_without_breaker():
    """The same plan and seed finish every job once the breaker is off."""
    result = run_experiment(
        ExperimentConfig(manager="standalone", circuit_breaker=False, **COMPOSED),
        fault_plan=composed_plan(),
        max_sim_time=300,
    )
    assert finished_jobs(result) == 16
    assert result.metrics.unfinished_jobs == 0
