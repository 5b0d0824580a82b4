"""The command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestGenerate:
    def test_writes_documents(self, tmp_path, capsys):
        code = main([
            "generate", "--days", "1", "--records", "60",
            "--output", str(tmp_path / "feed"),
        ])
        assert code == 0
        files = sorted((tmp_path / "feed").glob("*.xml"))
        assert files
        assert "<station>" in files[0].read_text()
        assert "wrote" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        main([
            "generate", "--days", "1", "--records", "30", "--format", "json",
            "--output", str(tmp_path / "feed"),
        ])
        files = sorted((tmp_path / "feed").glob("*.json"))
        assert files
        assert files[0].read_text().startswith("{")

    def test_deterministic_by_seed(self, tmp_path):
        for run in ("a", "b"):
            main([
                "generate", "--days", "1", "--records", "30", "--seed", "5",
                "--output", str(tmp_path / run),
            ])
        a = sorted((tmp_path / "a").glob("*.xml"))[0].read_text()
        b = sorted((tmp_path / "b").glob("*.xml"))[0].read_text()
        assert a == b


class TestPipeline:
    def test_runs_and_reports(self, capsys):
        code = main(["pipeline", "--records", "120", "--schema", "MySQL-Min"])
        assert code == 0
        out = capsys.readouterr().out
        assert "120 facts" in out
        assert "MySQL-Min schema_id=1" in out
        assert "grand total" in out


class TestBench:
    def test_small_matrix(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        from repro.bench.datasets import clear_cache

        clear_cache()
        code = main(["bench", "--datasets", "Day", "--schemas", "NoSQL-DWARF,MySQL-Min"])
        clear_cache()
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 4" in out and "Table 5" in out
        assert "NoSQL-DWARF (measured)" in out

    def test_unknown_dataset(self, capsys):
        assert main(["bench", "--datasets", "Year"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_dataset_names_are_case_insensitive(self, monkeypatch):
        class Stop(Exception):
            pass

        def run_matrix(datasets, schemas):
            raise Stop(datasets)

        monkeypatch.setattr("repro.cli.run_matrix", run_matrix)
        with pytest.raises(Stop) as stopped:
            main(["bench", "--datasets", "day,WEEK", "--schemas", "NoSQL-DWARF"])
        assert stopped.value.args == (["Day", "Week"],)

    def test_unknown_schema(self, capsys):
        assert main(["bench", "--schemas", "Mongo"]) == 2
        assert "unknown schema" in capsys.readouterr().err


class TestStats:
    def test_text_report_covers_every_layer(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        code = main(["stats", "--dataset", "day"])  # case-insensitive name
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("etl.extract", "dwarf.build", "mapper.store", "mapper.load",
                       "mapper.rebuild", "stored.point_query", "answers agree",
                       "nosqldb_writes_total", "PointLookup"):
            assert marker in out, marker

    def test_json_round_trips(self, capsys, monkeypatch):
        """``--format json`` prints the debug bundle itself."""
        from repro.telemetry import from_bundle

        monkeypatch.setenv("REPRO_SCALE", "0.002")
        assert main(["stats", "--dataset", "Day", "--format", "json"]) == 0
        bundle = from_bundle(capsys.readouterr().out)
        assert bundle["telemetry"]["spans"] and bundle["telemetry"]["metrics"]
        assert bundle["operators"] and bundle["storage"]

    def test_prom_format_and_out_file(self, tmp_path, capsys, monkeypatch):
        """``--format prom`` prints the metrics; ``--out`` writes the bundle."""
        from repro.telemetry import from_bundle

        monkeypatch.setenv("REPRO_SCALE", "0.002")
        out = tmp_path / "bundle.json"
        code = main(["stats", "--dataset", "Day", "--format", "prom",
                     "--out", str(out)])
        assert code == 0
        assert "# TYPE dwarf_builds_total counter" in capsys.readouterr().out
        metrics = from_bundle(out.read_text())["telemetry"]["metrics"]
        assert any(m["name"] == "dwarf_builds_total" for m in metrics)

    def test_unknown_dataset(self, capsys):
        assert main(["stats", "--dataset", "Year"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


def test_commands_leave_the_telemetry_switches_as_they_found_them(capsys, monkeypatch):
    """``ingest`` and ``stats`` switch metrics, tracing and the query log
    on for their run; an in-process caller gets its own switches back,
    and none of the records the command made."""
    from repro.telemetry import get_query_log, get_registry, get_tracer, snapshot

    monkeypatch.setenv("REPRO_SCALE", "0.002")
    registry, tracer, log = switches = (get_registry(), get_tracer(), get_query_log())
    for switch in switches:
        monkeypatch.setattr(switch, "enabled", False)
    for command in (["ingest", "--dataset", "day"],
                    ["stats", "--dataset", "day", "--format", "json"]):
        assert main(command) == 0
        assert [switch.enabled for switch in switches] == [False, False, False]
        assert len(log) == 0 and tracer.roots == [] and tracer.span_count() == 0
        assert snapshot(registry)["metrics"] == []
    assert "ingest: OK" in capsys.readouterr().out


class TestHelpSync:
    """Every subcommand's --help exits 0 and lists its parser's options."""

    def subcommand_parsers(self):
        parser = build_parser()
        actions = [
            a for a in parser._actions
            if hasattr(a, "choices") and isinstance(a.choices, dict)
        ]
        assert actions, "no subparsers registered"
        return actions[0].choices

    def test_every_subcommand_registered(self):
        assert set(self.subcommand_parsers()) == {
            "generate", "pipeline", "bench", "check", "stats", "ingest",
        }

    @pytest.mark.parametrize(
        "command",
        ["generate", "pipeline", "bench", "check", "stats", "ingest"],
    )
    def test_help_exits_zero_and_lists_options(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        subparser = self.subcommand_parsers()[command]
        for action in subparser._actions:
            for option in action.option_strings:
                assert option in help_text, (command, option)

    def test_every_subcommand_has_a_handler(self):
        import repro.cli as cli

        for command in self.subcommand_parsers():
            assert hasattr(cli, f"_cmd_{command.replace('-', '_')}")


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
