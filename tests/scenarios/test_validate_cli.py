"""``repro validate``: argument surface, report artifact, exit codes."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.command == "validate"
        assert not args.smoke
        assert args.scenario_names is None
        assert args.out == "VALIDATION.json"

    def test_scenario_is_repeatable(self):
        args = build_parser().parse_args(
            ["validate", "--scenario", "mm1", "--scenario", "mmc"]
        )
        assert args.scenario_names == ["mm1", "mmc"]

    def test_bad_engine_rejected(self):
        # Engine selection is not a runtime option: both flags are unknown.
        for flag in ("--network-engine", "--alloc-engine"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["validate", flag, "reference"])


class TestCommand:
    def test_list_scenarios(self, capsys):
        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "mm1" in out and "littles_law" in out

    def test_single_scenario_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(
            ["validate", "--smoke", "--scenario", "locality",
             "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert payload["scenarios"][0]["name"] == "locality"
        assert payload["scenarios"][0]["checks"]
        assert "validate passed" in capsys.readouterr().out

    def test_skip_artifact_with_empty_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--smoke", "--scenario", "diurnal",
                     "--out", ""]) == 0
        assert not (tmp_path / "VALIDATION.json").exists()

    def test_unknown_scenario_errors(self, tmp_path):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown scenario"):
            main(["validate", "--scenario", "nope", "--out",
                  str(tmp_path / "r.json")])

    @pytest.mark.scenarios
    def test_smoke_gate_runs_each_scenario_once(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = main(
            ["validate", "--smoke", "--scenario", "littles_law",
             "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert [(s["name"], s["profile"]) for s in payload["scenarios"]] == [
            ("littles_law", {"smoke": True, "seed": 0})
        ]
