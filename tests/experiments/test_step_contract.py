"""``run_experiment`` calls ``Simulation.step`` once per processed event.

The end-to-end benchmark relies on this: it splits set-up from run time by
swapping ``Simulation.step`` on the class for a hook that notes the first
call and puts the original back, and it flags a traced run whose count of
``Simulation.step`` calls differs from ``events_processed``.  So the drain
loop must look ``step`` up through the class on every call, and no event
may be processed outside it.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.simulation.engine import Simulation


@pytest.fixture
def restore_step():
    step = vars(Simulation)["step"]
    yield step
    Simulation.step = step


def test_one_step_call_per_event_looked_up_on_every_call(restore_step):
    step = restore_step
    calls = {"first": 0, "rest": 0}
    sims = []

    def rest(sim):
        calls["rest"] += 1
        return step(sim)

    def first(sim):
        # Swapped out on its first call, as the benchmark's hook does: a loop
        # holding on to a bound ``step`` would keep calling this one.
        calls["first"] += 1
        sims.append(sim)
        Simulation.step = rest
        return step(sim)

    Simulation.step = first
    result = run_experiment(ExperimentConfig(seed=5, num_nodes=10, num_apps=2, jobs_per_app=2))
    assert result.metrics.unfinished_jobs == 0
    assert calls["first"] == 1
    assert len(sims) == 1
    assert calls["first"] + calls["rest"] == sims[0].events_processed > 100
