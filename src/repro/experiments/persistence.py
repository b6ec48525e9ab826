"""Persist experiment results to JSON for cross-run analysis.

Round-trips the serialisable core of an :class:`ExperimentResult` — the
config, the metrics and optional extras (allocation rounds, speculation
counters) — so figure sweeps can be accumulated across processes and
plotted elsewhere.  Timelines export separately as JSON-lines (one record
per line) since they can be large.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult
from repro.metrics.collector import ExperimentMetrics
from repro.simulation.timeline import Timeline

__all__ = [
    "result_to_dict",
    "save_result",
    "load_result",
    "export_timeline",
    "load_timeline_records",
]

_FORMAT_VERSION = 2
#: Versions ``load_result`` still understands (v1 lacked the nested
#: per-section ``format_version`` markers and derived metric fields).
_READABLE_VERSIONS = (1, 2)
#: Config keys older results carry for knobs that no longer exist (engine
#: selection left the config once each layer shipped one engine).
_RETIRED_CONFIG_KEYS = ("network_engine", "alloc_engine")


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """The JSON-serialisable projection of a result.

    ``perf``, ``faults`` and ``metrics_snapshot`` appear only when the run
    collected them (``load_result`` reads its fixed keys and passes these
    through untouched, so their presence does not bump the format version).
    Each nested section carries its own ``format_version`` marker.
    """
    payload = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(result.config),
        "metrics": result.metrics.as_dict(),
        "sim_time": result.sim_time,
        "allocation_rounds": result.allocation_rounds,
        "speculative_launches": result.speculative_launches,
        "speculative_wins": result.speculative_wins,
    }
    if result.perf is not None:
        payload["perf"] = result.perf.as_dict()
    if result.faults is not None:
        payload["faults"] = result.faults.as_dict()
    if result.registry is not None:
        payload["metrics_snapshot"] = result.registry.snapshot(
            meta={"seed": result.config.seed, "manager": result.config.manager}
        )
    return payload


def save_result(result: ExperimentResult, path: Union[str, Path]) -> Path:
    """Write a result to ``path`` as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=2, sort_keys=True))
    return path


def load_result(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a saved result; reconstructs config and metrics objects.

    Returns ``{"config": ExperimentConfig, "metrics": ExperimentMetrics,
    ...}`` with the scalar extras passed through.
    """
    data = json.loads(Path(path).read_text())
    version = data.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ConfigurationError(
            f"unsupported result format version {version!r} "
            f"(expected one of {_READABLE_VERSIONS})"
        )
    metrics_raw = dict(data["metrics"])
    # v2 sections carry markers and derived fields that are not
    # constructor arguments; strip them before rebuilding the dataclass.
    metrics_raw.pop("format_version", None)
    metrics_raw.pop("min_local_job_fraction", None)
    metrics_raw["local_job_fraction_per_app"] = tuple(
        metrics_raw["local_job_fraction_per_app"]
    )
    config_raw = dict(data["config"])
    for key in _RETIRED_CONFIG_KEYS:
        config_raw.pop(key, None)
    return {
        "config": ExperimentConfig(**config_raw),
        "metrics": ExperimentMetrics(**metrics_raw),
        "sim_time": data["sim_time"],
        "allocation_rounds": data["allocation_rounds"],
        "speculative_launches": data.get("speculative_launches", 0),
        "speculative_wins": data.get("speculative_wins", 0),
        "metrics_snapshot": data.get("metrics_snapshot"),
    }


def export_timeline(timeline: Timeline, path: Union[str, Path]) -> Path:
    """Write a timeline as JSON-lines (one record per line)."""
    path = Path(path)
    with path.open("w") as fh:
        for record in timeline:
            fh.write(json.dumps(record.as_dict(), sort_keys=True))
            fh.write("\n")
    return path


def load_timeline_records(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read an exported timeline back as a list of flat dicts."""
    records = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
