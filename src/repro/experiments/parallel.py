"""Parallel experiment fan-out: shard a sweep across worker processes.

Every multi-cell driver in this package — the chaos sweep, the validation
suite, the rate-engine scaling bench, the config-grid sweep — is a loop of
*independent* cells: each cell's result is a pure function of its own
``(seed, parameters)`` and never reads another cell's state.  This module
exploits that: it cuts the loop into :class:`Shard`\\ s keyed by the cell's
position in the serial iteration order, runs them on a process pool, and
merges the results **by shard key**, so the merged artifact is the one the
serial loop would have produced no matter which worker finished first.

Determinism contract
--------------------
* **Seeding** — a shard never inherits ambient RNG state.  Cells that need
  randomness re-derive it from their own parameters (the chaos plan from
  ``(seed, 7919, level)``, a sweep row from ``base.seed + trial``); shards
  that need an anonymous stream use :func:`shard_streams`, which spawns a
  child :class:`~repro.common.rng.RngStreams` from the root seed and the
  shard key via ``SeedSequence`` spawn keys — no global ``random`` /
  ``np.random`` state is touched anywhere on the path.
* **Merge order** — results come back through ``imap_unordered`` (fastest
  worker first) and are re-sorted by shard key before anything downstream
  sees them.  :func:`merge_by_key` is exposed separately so the regression
  suite can shuffle completion orders and assert the merge is a fixpoint.
* **Payloads** — workers return plain JSON-safe dicts and frozen
  primitive dataclasses, projected through the existing persistence layer
  (:func:`~repro.experiments.persistence.result_to_dict`); the live
  ``ExperimentResult`` (generator-based simulator processes, open tracers)
  never crosses the process boundary.

``jobs <= 1`` falls back to running the same worker functions inline, in
shard-key order — the parallel path and the serial path execute identical
code on identical inputs, so ``--jobs N`` output is byte-identical to
``--jobs 1`` by construction, not by testing alone.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStreams
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import ChaosCell, chaos_sweep

__all__ = [
    "Shard",
    "shard_streams",
    "merge_by_key",
    "run_sharded",
    "ParallelChaosSweep",
    "run_chaos_sweep",
    "run_validation_suite",
    "run_perf_points",
    "run_grid",
]

#: ``fork`` keeps worker start cheap and inherits the imported simulator;
#: ``spawn`` is the fallback where fork is unavailable.  Workers are
#: module-level functions with picklable payloads, so both modes work.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


# ------------------------------------------------------------ generic engine
@dataclass(frozen=True)
class Shard:
    """One unit of fan-out work: a sort key plus a picklable payload.

    ``key`` is the cell's position in the serial iteration order (a tuple
    of ints so heterogeneous sweeps compare safely); the merge sorts on it.
    """

    key: Tuple[int, ...]
    payload: Any


def shard_streams(root_seed: int, key: Tuple[int, ...]) -> RngStreams:
    """Derive the RNG streams for one shard from the root seed and its key.

    Uses :meth:`RngStreams.child` (``SeedSequence`` spawn-key derivation),
    so shards get statistically independent streams, the derivation is
    order-free — shard 7 gets the same streams whether it runs first or
    last, alone or beside shard 3 — and a serial loop deriving the same
    child names draws identical values.
    """
    name = "shard/" + "/".join(str(part) for part in key)
    return RngStreams(seed=root_seed).child(name)


def merge_by_key(results: Sequence[Tuple[Tuple[int, ...], Any]]) -> List[Any]:
    """Reassemble worker results into serial order, dropping the keys.

    The inverse of the sharding step: whatever order the pool yielded
    ``(key, value)`` pairs in, the output list is ordered by key — i.e. by
    the serial loop's iteration order.  Exposed for the shuffle-order
    regression tests.
    """
    return [value for _, value in sorted(results, key=lambda kv: kv[0])]


def _call(packed: Tuple[Callable[[Any], Any], Shard]) -> Tuple[Tuple[int, ...], Any]:
    """Pool trampoline: run one shard, tag the result with its key."""
    worker, shard = packed
    return (shard.key, worker(shard.payload))


def run_sharded(
    worker: Callable[[Any], Any],
    shards: Sequence[Shard],
    jobs: int = 1,
) -> List[Any]:
    """Run ``worker`` over every shard; return results in shard-key order.

    ``jobs <= 1`` (or a single shard) runs inline — same worker, same
    payloads, no pool — which is both the graceful fallback and the
    reference ordering the parallel path must reproduce.  ``worker`` must
    be a module-level function and every payload picklable, because the
    spawn fallback re-imports them in the child.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    ordered = sorted(shards, key=lambda s: s.key)
    if jobs == 1 or len(ordered) <= 1:
        return [worker(shard.payload) for shard in ordered]
    ctx = multiprocessing.get_context(_START_METHOD)
    with ctx.Pool(processes=min(jobs, len(ordered))) as pool:
        tagged = list(
            pool.imap_unordered(_call, [(worker, s) for s in ordered])
        )
    return merge_by_key(tagged)


# -------------------------------------------------------------- chaos sweep
@dataclass
class ParallelChaosSweep:
    """A chaos sweep reassembled from per-cell worker payloads.

    ``cells`` matches :class:`~repro.experiments.scenarios.ChaosSweepResult`
    order (level-major, manager-minor); ``payloads`` carries, per cell and
    in the same order, the JSON-safe projection of the full run — the
    ``result_to_dict`` payload, the lost-task audit and the trace path —
    everything the chaos CLI's table, JSON artifact and smoke gate consume.
    """

    levels: Tuple[int, ...]
    managers: Tuple[str, ...]
    cells: List[ChaosCell] = field(default_factory=list)
    payloads: List[Dict[str, Any]] = field(default_factory=list)


def _chaos_cell_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one (manager, fault level) chaos cell and project the result.

    Runs :func:`chaos_sweep` restricted to the single cell: the fault plan
    is re-derived inside from ``(seed, 7919, level)``, so this shard's plan
    is bit-identical to the one the full serial sweep would replay — per-
    cell sharding is serial-equivalent by construction, no plan needs to
    cross the process boundary.
    """
    from repro.experiments.persistence import result_to_dict

    manager: str = payload["manager"]
    level: int = payload["level"]
    sweep = chaos_sweep(
        payload["base"],
        levels=[level],
        managers=[manager],
        horizon=payload["horizon"],
        gray=payload["gray"],
        manager_crash=payload["manager_crash"],
    )
    result = sweep.results[(manager, level)]
    lost_tasks = sum(
        1
        for app in result.apps
        for job in app.jobs
        for stage in job.stages
        for task in stage.tasks
        if task.finished_at is None and not task.cancelled
    )
    trace_path: Optional[str] = None
    if payload["trace_template"]:
        from pathlib import Path

        from repro.obs.export import write_chrome_trace

        template = Path(payload["trace_template"])
        out = template.with_name(
            f"{template.stem}.{manager}.L{level}{template.suffix or '.json'}"
        )
        meta = {
            "manager": result.config.manager,
            "seed": result.config.seed,
            "workload": result.config.workload,
        }
        trace_path = str(
            write_chrome_trace(result.trace_events or [], out, other_data=meta)
        )
    return {
        "manager": manager,
        "level": level,
        "cell": asdict(sweep.cells[0]),
        "result": result_to_dict(result),
        "lost_tasks": lost_tasks,
        "trace_path": trace_path,
    }


def run_chaos_sweep(
    base_config: ExperimentConfig,
    *,
    levels: Sequence[int] = (0, 1, 2),
    managers: Sequence[str] = ("custody", "standalone", "yarn", "mesos"),
    horizon: float = 300.0,
    gray: bool = False,
    manager_crash: bool = False,
    jobs: int = 1,
    trace_template: Optional[str] = None,
) -> ParallelChaosSweep:
    """The chaos sweep, sharded one worker per (level, manager) cell.

    Same semantics as :func:`~repro.experiments.scenarios.chaos_sweep` —
    common-trace fault plans per level, every manager replaying the same
    plan — but each cell runs in its own process when ``jobs > 1`` and the
    merged cells come back in the serial sweep's (level-major) order.
    ``trace_template`` makes each worker export its cell's Chrome trace to
    ``template.stem.<manager>.L<level><suffix>``.
    """
    shards = [
        Shard(
            key=(li, mi),
            payload={
                "base": base_config,
                "manager": manager,
                "level": level,
                "horizon": horizon,
                "gray": gray,
                "manager_crash": manager_crash,
                "trace_template": trace_template,
            },
        )
        for li, level in enumerate(levels)
        for mi, manager in enumerate(managers)
    ]
    payloads = run_sharded(_chaos_cell_worker, shards, jobs)
    return ParallelChaosSweep(
        levels=tuple(levels),
        managers=tuple(managers),
        cells=[ChaosCell(**p["cell"]) for p in payloads],
        payloads=payloads,
    )


# --------------------------------------------------------- validation suite
def _validate_cell_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one validation-suite cell; return its JSON projection.

    Importing :mod:`repro.scenarios` registers the scenario classes in the
    child (the spawn fallback starts from a clean interpreter).
    """
    from repro.scenarios import ScenarioProfile, get_scenario

    profile = ScenarioProfile(**payload["profile"])
    return get_scenario(payload["name"]).run(profile).as_dict()


def run_validation_suite(
    names: Optional[Sequence[str]] = None,
    profile: Optional[Any] = None,
    *,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
):
    """The validation suite, sharded one worker per suite cell.

    Shards :func:`~repro.scenarios.plan_suite`'s cells by index, so the
    merged :class:`~repro.scenarios.SuiteReport` lists exactly the results,
    in exactly the order, :func:`~repro.scenarios.run_suite` would have
    produced.  Verdicts round-trip losslessly (``passed`` is re-derived
    from the checks); only ``wall_seconds`` is measured per worker and so
    differs run to run, exactly as it does between two serial runs.
    """
    from repro.scenarios import (
        ScenarioProfile,
        ScenarioResult,
        SuiteReport,
        plan_suite,
    )

    if profile is None:
        profile = ScenarioProfile()
    cells = plan_suite(names, profile)
    shards = [
        Shard(
            key=(index,),
            payload={"name": name, "profile": {"smoke": p.smoke, "seed": p.seed}},
        )
        for index, (name, p) in enumerate(cells)
    ]
    if progress is not None:
        # Parallel cells interleave, so announce the dispatch plan up front
        # (at jobs == 1 this prints the same lines the serial runner would,
        # just before the batch instead of before each cell).
        for name, _ in cells:
            progress(name)
    payloads = run_sharded(_validate_cell_worker, shards, jobs)
    return SuiteReport(results=[ScenarioResult.from_dict(d) for d in payloads])


# ----------------------------------------------------------- perf trajectory
def _perf_point_worker(payload: Dict[str, Any]):
    """Benchmark one flow-count point of the rate-engine trajectory."""
    from repro.experiments.netbench import run_scale_bench

    (point,) = run_scale_bench(
        [payload["flows"]],
        events=payload["events"],
        seed=payload["seed"],
        pod_size=payload["pod_size"],
    )
    return point


def run_perf_points(
    flow_counts: Sequence[int],
    *,
    events: int = 30,
    seed: int = 0,
    pod_size: Optional[int] = 16,
    jobs: int = 1,
) -> List[Any]:
    """The rate-engine scaling bench, sharded one worker per flow count.

    Each point's workload is re-derived from ``(flows, events, seed)``
    inside its worker, so the rates each point checks are identical to the
    serial bench; only the wall-time fields are machine-load-dependent
    (as they are serially).
    """
    shards = [
        Shard(
            key=(index,),
            payload={
                "flows": flows,
                "events": events,
                "seed": seed,
                "pod_size": pod_size,
            },
        )
        for index, flows in enumerate(flow_counts)
    ]
    return run_sharded(_perf_point_worker, shards, jobs)


# -------------------------------------------------------------- config grid
def _grid_cell_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one (grid point, trial) experiment; return its sweep row."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.sweeps import DEFAULT_EXTRACTORS

    config: ExperimentConfig = payload["config"]
    result = run_experiment(config)
    row: Dict[str, Any] = dict(payload["point"])
    row["seed"] = config.seed
    for column, fn in DEFAULT_EXTRACTORS.items():
        row[column] = fn(result)
    return row


def run_grid(
    base: ExperimentConfig,
    grid: Dict[str, Sequence[Any]],
    *,
    repeats: int = 1,
    jobs: int = 1,
) -> List[Dict[str, Any]]:
    """The config-grid sweep, sharded one worker per (point, trial) cell.

    Row-for-row equal to :func:`repro.experiments.sweeps.sweep` with the
    default extractors: same Cartesian iteration order (sorted field
    names), same per-trial seed derivation ``base.seed + trial``.  Custom
    extractors don't cross process boundaries (lambdas aren't picklable
    under the spawn fallback) — pass them to the serial :func:`sweep`.
    """
    import itertools

    if not grid:
        raise ConfigurationError("sweep grid must name at least one parameter")
    for field_name in grid:
        if not hasattr(base, field_name):
            raise ConfigurationError(f"unknown config field {field_name!r}")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")

    names = sorted(grid)
    shards = []
    for point_index, values in enumerate(
        itertools.product(*(grid[name] for name in names))
    ):
        point = dict(zip(names, values))
        for trial in range(repeats):
            shards.append(
                Shard(
                    key=(point_index, trial),
                    payload={
                        "config": replace(
                            base, **point, seed=base.seed + trial
                        ),
                        "point": point,
                    },
                )
            )
    return run_sharded(_grid_cell_worker, shards, jobs)
