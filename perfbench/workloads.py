"""The benchmark's named workloads.

Each workload is a function of one integer experiment seed that returns the
``ExperimentConfig`` and optional fault plan handed to ``run_experiment``.
A benchmark run with ``--seed S`` executes a fixed list of experiments with
seeds ``S * SEED_STRIDE + i``; the list length depends only on the workload
and ``--seconds``, never on measured time, so the same ``--seed`` and
``--seconds`` always simulate the same inputs.

This module imports nothing from ``repro`` at module level: the parent
process only needs the names and sizes, and the child process times its own
``repro`` import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Experiment seeds of one run are ``seed * SEED_STRIDE + i``.
SEED_STRIDE = 1000

#: Fewest experiments in a run, whatever ``--seconds`` says: ``setup_s`` is
#: their median, so a run never rests on fewer fresh start-ups than this.
MIN_EXPERIMENTS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Host seconds one experiment adds to a run on the 2-core reference
    #: host (fresh process included, two lanes in parallel); sets how many
    #: experiments fit in ``--seconds``.
    nominal_s: float
    #: ``(seed, tiny) -> (config, fault_plan)``; ``tiny`` shrinks the run
    #: to a few jobs for the benchmark's own tests.
    build: Callable[[int, bool], Tuple[object, Optional[object]]]
    #: True when the run injects faults (correctness gate adds recovery checks).
    chaos: bool = False


def _paper_default(seed: int, tiny: bool):
    from repro.experiments.config import ExperimentConfig

    if tiny:
        return ExperimentConfig(seed=seed, num_nodes=10, num_apps=2, jobs_per_app=2), None
    return ExperimentConfig(seed=seed), None


def _contended_shuffle(seed: int, tiny: bool):
    from repro.experiments.config import ExperimentConfig

    nodes, apps, jobs = (10, 4, 1) if tiny else (100, 16, 2)
    return (
        ExperimentConfig(
            seed=seed,
            workload="sort",
            num_nodes=nodes,
            num_apps=apps,
            jobs_per_app=jobs,
            shuffle_fanout=4,
            mean_interarrival=3.0,
            # One input file per job, drawn uniformly: with the default pool
            # (jobs_per_app // 2 files, Zipf-drawn) a 2-job queue reads one
            # shared 1-8 GB file, so run time swings 6x with the seed.
            pool_size=apps * jobs,
            popularity_skew=0.0,
        ),
        None,
    )


def _chaos_recovery(seed: int, tiny: bool):
    import numpy as np

    from repro.experiments.config import ExperimentConfig
    from repro.faults.chaos import build_chaos_plan

    config = ExperimentConfig(
        seed=seed,
        detector_timeout=10.0,
        detector_mode="adaptive",
        circuit_breaker=True,
        retry_jitter=True,
        manager_recovery=True,
        lease_duration=120.0,
        lease_renew_interval=5.0,
        checkpoint_interval=15.0,
        reconciliation_window=2.0,
        metrics=True,
        trace=True,
        **(dict(num_nodes=12, num_apps=2, jobs_per_app=2) if tiny else {}),
    )
    plan = build_chaos_plan(
        config.num_nodes,
        config.executors_per_node,
        np.random.default_rng([seed, 7919, 1]),
        node_failures=3,
        partitions=2,
        degradations=3,
        executor_failures=3,
        slowdowns=3,
        link_flaps=2,
        correlated_failures=1,
        manager_crashes=1,
        horizon=40.0 if tiny else 300.0,
    )
    return config, plan


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_default",
            "paper Sec. VI-A config (wordcount, 100 nodes, 4x30 jobs); task dispatch "
            "and HDFS lookups dominate host time",
            nominal_s=1.7,
            build=_paper_default,
        ),
        Workload(
            "contended_shuffle",
            "16 sort tenants overload 100 nodes; remote reads and 4-way shuffles "
            "make the network rate allocator the largest layer",
            nominal_s=1.7,
            build=_contended_shuffle,
        ),
        Workload(
            "chaos_recovery",
            "paper_default under a seeded chaos plan with a manager crash; the only "
            "workload running faults, recovery and obs",
            nominal_s=2.5,
            build=_chaos_recovery,
            chaos=True,
        ),
    )
}


def experiment_seeds(workload: Workload, seed: int, seconds: float) -> List[int]:
    """The experiment seeds one run executes: a pure function of its args."""
    count = max(MIN_EXPERIMENTS, int(round(seconds / workload.nominal_s)))
    if count >= SEED_STRIDE:
        raise ValueError(f"--seconds {seconds} asks for {count} experiments")
    return [seed * SEED_STRIDE + i for i in range(count)]
