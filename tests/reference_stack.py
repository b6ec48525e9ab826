"""Whole-run seam onto the reference (seed) engines.

Runs always use the production engines; the from-scratch network and
allocation implementations survive only as test oracles, reached through
constructor arguments, and the scanning task schedulers live in
``tests/scan_policies.py``.  :func:`reference_stack` patches the two places a
whole experiment builds them (``repro.experiments.runner`` and the
paper-figure scenarios) so any ``run_experiment`` / figure call inside the
block runs on ``NetworkFabric(engine="reference")``,
``CustodyManager(alloc_engine="reference")``, the scan schedulers
(:func:`~tests.scan_policies.scan_dispatch`) and failure detectors that
judge every liveness query afresh with the full heartbeat walk
(:func:`judge_every_query`: no per-instant verdict memo and no shortcut
for nodes nothing has named).

The ``stack`` fixture parametrizes a test over both stacks, entering the
seam for the ``"reference"`` case.  Patches are process-local: run
parallel fan-out with ``jobs=1`` inside the seam.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Iterator
from unittest import mock

import pytest

import repro.experiments.runner as runner
import repro.experiments.scenarios as scenarios
from repro.faults.detector import FailureDetector
from repro.managers.custody import CustodyManager
from repro.network.fabric import NetworkFabric
from tests.scan_policies import scan_dispatch

#: Engine stacks a whole-run equivalence test covers.
STACKS = ("reference", "incremental")


def judge_every_query(detector: FailureDetector, node_id: str) -> str:
    """Memo-free, walk-always stand-in for ``FailureDetector._verdict``."""
    return detector._judge_walk(node_id)


@contextmanager
def reference_stack() -> Iterator[None]:
    """Build every run's fabric, Custody manager, task schedulers and
    failure detector on the reference implementations."""
    fabric = partial(NetworkFabric, engine="reference")
    with mock.patch.object(runner, "NetworkFabric", fabric), mock.patch.object(
        runner, "CustodyManager", partial(CustodyManager, alloc_engine="reference")
    ), mock.patch.object(scenarios, "NetworkFabric", fabric), mock.patch.object(
        FailureDetector, "_verdict", judge_every_query
    ), scan_dispatch():
        yield


@pytest.fixture(params=STACKS)
def stack(request) -> Iterator[str]:
    """The test body runs once per engine stack; yields the stack's name."""
    if request.param == "reference":
        with reference_stack():
            yield request.param
    else:
        yield request.param
