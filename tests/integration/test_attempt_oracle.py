"""Callback attempts against the generator-process oracle, where they differ.

Production runs task attempts as callback state machines; the reference
stack runs them as generator processes (``tests/reference_stack.py``,
:class:`~tests.reference_stack.GeneratorAttempt`).  Two cases differ from
the generator attempts of old, and the oracle carries both amendments: a
kill that lands before the body's first event cancels the body, and a
killed or failed shuffle cancels its local-read timer.  These chaos runs
with a two-way shuffle fan-out hit one case each, and must agree on
everything observable.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.scheduling.driver as driver_module
from repro.faults.chaos import build_chaos_plan
from tests.integration.test_fault_alloc_lockstep import BASE, observe
from tests.reference_stack import reference_stack

pytestmark = pytest.mark.faults

CONFIG = replace(BASE, workload="sort", shuffle_fanout=2, speculation=True)


def probe_deviations(counts):
    """A ``release`` that counts the launch hops and shuffle local timers
    it cancels into ``counts``."""
    release = driver_module._Attempt.release

    def counting_release(attempt):
        handle = attempt._handle
        if handle is not None and handle.pending:
            if handle.callback == attempt._start:
                counts["before_start"] += 1
            elif handle.callback == attempt._source_done:
                counts["local_timer"] += 1
        release(attempt)

    return counting_release


@pytest.mark.parametrize("seed,deviation", [(1, "local_timer"), (5, "before_start")])
def test_shuffle_chaos_runs_match_the_generator_oracle(seed, deviation):
    config = replace(CONFIG, seed=seed)
    plan = build_chaos_plan(
        config.num_nodes,
        config.executors_per_node,
        np.random.default_rng([seed, 7919, 1]),
        node_failures=3,
        partitions=1,
        executor_failures=2,
        slowdowns=2,
        link_flaps=1,
        correlated_failures=1,
        horizon=40.0,
    )
    counts = {"before_start": 0, "local_timer": 0}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver_module._Attempt, "release", probe_deviations(counts))
        production = observe(config, plan)
    assert counts[deviation] > 0
    with reference_stack():
        reference = observe(config, plan)
    for key in ("metrics", "tasks", "registry", "trace_sha256"):
        assert production[key] == reference[key], f"seed {seed}: {key} diverged"
