"""Shared bench infrastructure.

* Scale: every bench runs the paper's §VI-A configuration (4 applications
  x 30 jobs each).
* Result cache: several figures share the same underlying experiment runs
  (Fig. 7 and Fig. 8 both need standalone-vs-custody sweeps), so runs are
  memoised per process.
* Printing: pytest captures stdout, so benches print their figure tables
  through ``emit`` which writes via ``__stderr__`` — visible under
  ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment

#: Jobs per application and applications (§VI-A).
JOBS_PER_APP = 30
NUM_APPS = 4
#: Cluster sizes of Fig. 7/8's panels.
CLUSTER_SIZES = (25, 50, 100)
WORKLOADS = ("pagerank", "wordcount", "sort")
SEED = 0

_cache: Dict[Tuple, ExperimentResult] = {}


def cached_run(config: ExperimentConfig) -> ExperimentResult:
    """run_experiment memoised on the (hashable, frozen) config."""
    key = tuple(sorted(config.__dict__.items()))
    result = _cache.get(key)
    if result is None:
        result = run_experiment(config)
        _cache[key] = result
    return result


def paper_config(workload: str, num_nodes: int, manager: str, **overrides) -> ExperimentConfig:
    """The §VI-A configuration, with ``overrides`` applied."""
    params = dict(
        manager=manager,
        workload=workload,
        num_nodes=num_nodes,
        num_apps=NUM_APPS,
        jobs_per_app=JOBS_PER_APP,
        seed=SEED,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def compare(workload: str, num_nodes: int, **overrides) -> Dict[str, ExperimentResult]:
    """Standalone vs Custody on the shared trace."""
    return {
        manager: cached_run(paper_config(workload, num_nodes, manager, **overrides))
        for manager in ("standalone", "custody")
    }


def ablation_sweep(
    key: str,
    values: Sequence[Any],
    overrides: Callable[[Any], Dict[str, Any]],
    *,
    workload: str = "wordcount",
    num_nodes: int = 50,
    row_value: Optional[Callable[[Any], Any]] = None,
    extra: Optional[Tuple[str, str]] = None,
    managers: Sequence[str] = ("standalone", "custody"),
) -> List[Dict[str, Any]]:
    """The standalone-vs-custody parameter sweep every ablation bench runs.

    For each value, runs both managers on the paper configuration with
    ``overrides(value)`` applied and builds one row: ``{key: value,
    "<manager>": locality_mean, ...}``.  ``row_value`` remaps the stored
    value for display (e.g. bytes -> GB); ``extra=(suffix, attr)`` adds a
    second metric column per manager (e.g. ``("jct", "avg_jct")``).
    """
    rows: List[Dict[str, Any]] = []
    for value in values:
        row: Dict[str, Any] = {
            key: row_value(value) if row_value is not None else value
        }
        for manager in managers:
            metrics = cached_run(
                paper_config(workload, num_nodes, manager, **overrides(value))
            ).metrics
            row[manager] = metrics.locality_mean
            if extra is not None:
                suffix, attr = extra
                row[f"{manager}_{suffix}"] = getattr(metrics, attr)
        rows.append(row)
    return rows


def emit(text: str) -> None:
    """Print a figure table so it survives pytest's capture."""
    stream = sys.__stderr__ or sys.stderr
    stream.write("\n" + text + "\n")
    stream.flush()
