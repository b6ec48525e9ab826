"""The runtime import graph holds only what a run executes.

Custody runs Algorithms 1 and 2 greedily; the §IV theory (LP bound, optimal
matching) and the figure/sweep/bench drivers only measure it from outside.
This pins that no CLI entry point and no run — under any manager, faulted
or not — loads scipy, networkx, the theory modules or the bench drivers,
and that ``src/`` never imports the test oracles in ``tests/``.

The check runs in a fresh interpreter: ``test_api_quality`` imports every
``repro`` module during collection, so this process's ``sys.modules`` says
nothing about what a run needs.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN_PREFIXES = ("scipy", "networkx")
FORBIDDEN_MODULES = (
    "repro.core.flownetwork",
    "repro.core.intraapp",
    "repro.core.matching",
    "repro.experiments.figures",
    "repro.experiments.sweeps",
)

PROBE = """
import json, sys

import numpy as np

import repro.cli
import repro.experiments.runner
import repro.faults.chaos
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.chaos import build_chaos_plan

def config(manager):
    return ExperimentConfig(
        manager=manager, num_nodes=10, num_apps=2, jobs_per_app=1, seed=3,
        detector_timeout=10.0, heartbeat_interval=2.0,
    )

finished = {}
for manager in ("custody", "standalone", "yarn", "mesos"):
    finished[manager] = run_experiment(config(manager)).metrics.finished_jobs
plan = build_chaos_plan(10, 2, np.random.default_rng(3), horizon=30.0)
faulted = run_experiment(config("custody"), fault_plan=plan, max_sim_time=200.0)
finished["chaos"] = faulted.metrics.finished_jobs
json.dump({"modules": sorted(sys.modules), "finished": finished}, sys.stdout)
"""


def _probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return json.loads(out.stdout)


def test_runs_load_no_theory_or_bench_code():
    probe = _probe()
    # The probe really ran every manager and the faulted run to the end.
    assert set(probe["finished"]) == {"custody", "standalone", "yarn", "mesos", "chaos"}
    assert all(n > 0 for n in probe["finished"].values()), probe["finished"]
    loaded = probe["modules"]
    offenders = [
        m for m in loaded
        if m.split(".")[0] in FORBIDDEN_PREFIXES or m in FORBIDDEN_MODULES
    ]
    roots = sorted({m if m.startswith("repro.") else m.split(".")[0] for m in offenders})
    assert not offenders, f"runtime import graph pulls in {roots}"


def _imported_modules(path):
    """Every module name an ``import`` / ``from ... import`` in ``path`` names."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_network_package_imports_no_numpy():
    """The network layer is pure Python: its max-min kernel has no NumPy
    twin in ``src/`` (the NumPy loop is the test oracle ``tests/numpy_maxmin.py``)."""
    offenders = [
        f"{path.name}: {name}"
        for path in sorted((SRC / "repro" / "network").glob("*.py"))
        for name in _imported_modules(path)
        if name.split(".")[0] == "numpy"
    ]
    assert not offenders, offenders


def test_src_imports_nothing_from_tests():
    """The oracles depend on the production code, never the reverse:
    no module under ``src/`` imports from ``tests``."""
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_modules(path)
        if name.split(".")[0] == "tests"
    ]
    assert not offenders, offenders
