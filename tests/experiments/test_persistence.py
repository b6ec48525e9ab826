"""JSON persistence of experiment results and timelines."""

import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import (
    export_timeline,
    load_result,
    load_timeline_records,
    result_to_dict,
    save_result,
)
from repro.experiments.runner import run_experiment

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def result():
    config = ExperimentConfig(
        manager="custody", workload="pagerank", num_nodes=10,
        num_apps=2, jobs_per_app=2, seed=2, timeline_enabled=True,
    )
    return run_experiment(config)


def test_result_to_dict_is_json_serialisable(result):
    payload = result_to_dict(result)
    text = json.dumps(payload)
    assert "custody" in text


def test_round_trip(result, tmp_path):
    path = save_result(result, tmp_path / "result.json")
    loaded = load_result(path)
    assert loaded["config"] == result.config
    assert loaded["metrics"] == result.metrics
    assert loaded["sim_time"] == result.sim_time
    assert loaded["allocation_rounds"] == result.allocation_rounds


def test_version_check(result, tmp_path):
    path = save_result(result, tmp_path / "result.json")
    data = json.loads(path.read_text())
    data["format_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError):
        load_result(path)


def _downgrade_to_v1(data):
    """Rewrite a v2 payload into the v1 shape: no nested section markers,
    no derived metric fields, no speculation counters or extra sections."""
    v1 = {
        "format_version": 1,
        "config": data["config"],
        "metrics": dict(data["metrics"]),
        "sim_time": data["sim_time"],
        "allocation_rounds": data["allocation_rounds"],
    }
    v1["metrics"].pop("format_version", None)
    v1["metrics"].pop("min_local_job_fraction", None)
    return v1


class TestBackwardCompat:
    def test_v1_snapshot_loads_through_v2_loader(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        v1 = _downgrade_to_v1(json.loads(path.read_text()))
        path.write_text(json.dumps(v1))
        loaded = load_result(path)
        assert loaded["config"] == result.config
        assert loaded["metrics"] == result.metrics
        assert loaded["sim_time"] == result.sim_time
        # v1 predates speculation counters: they migrate to zero.
        assert loaded["speculative_launches"] == 0
        assert loaded["speculative_wins"] == 0
        assert loaded["metrics_snapshot"] is None

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unreadable_version_names_itself(self, result, tmp_path, version):
        path = save_result(result, tmp_path / "result.json")
        data = json.loads(path.read_text())
        if version is None:
            del data["format_version"]
        else:
            data["format_version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(
            ConfigurationError,
            match=f"unsupported result format version {version!r}",
        ):
            load_result(path)

    def test_retired_engine_keys_are_dropped(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        data = json.loads(path.read_text())
        data["config"].update(network_engine="reference", alloc_engine="reference")
        path.write_text(json.dumps(data))
        loaded = load_result(path)
        assert loaded["config"] == result.config
        assert loaded["metrics"] == result.metrics

    def test_result_saved_with_engine_fields_loads(self):
        # Saved by ``repro run --save`` while the config still carried the
        # engine-selection fields (seed 7, 10 nodes, 2 x 3 wordcount jobs).
        loaded = load_result(FIXTURES / "result_v2_engine_keys.json")
        assert loaded["config"].seed == 7
        assert loaded["config"].num_nodes == 10
        assert loaded["metrics"].finished_jobs == 6

    def test_unknown_config_key_still_rejected(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        data = json.loads(path.read_text())
        data["config"]["bogus_knob"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(TypeError, match="bogus_knob"):
            load_result(path)

    def test_error_lists_readable_versions(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=r"\(1, 2\)"):
            load_result(path)


def test_timeline_export_round_trip(result, tmp_path):
    path = export_timeline(result.timeline, tmp_path / "timeline.jsonl")
    records = load_timeline_records(path)
    assert len(records) == len(result.timeline)
    assert records[0]["kind"] == result.timeline[0].kind
    kinds = {r["kind"] for r in records}
    assert "job.finish" in kinds


def test_timeline_lines_are_individual_json(result, tmp_path):
    path = export_timeline(result.timeline, tmp_path / "timeline.jsonl")
    with path.open() as fh:
        first = fh.readline()
    json.loads(first)  # every line parses standalone
