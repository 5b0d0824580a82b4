"""The `repro check` CLI gate."""

from repro.cli import main


def test_check_lint_exits_zero(capsys):
    assert main(["check", "--lint"]) == 0
    out = capsys.readouterr().out
    assert "lint:" in out
    assert "check: OK" in out


def test_check_invariants_day_exits_zero(capsys):
    assert main(["check", "--invariants", "Day"]) == 0
    out = capsys.readouterr().out
    assert "dwarf_check" in out
    assert "delta_check" in out
    assert "check: OK" in out


def test_check_unknown_dataset_exits_nonzero(capsys):
    assert main(["check", "--invariants", "Nope"]) == 1
    assert "check: FAILED" in capsys.readouterr().out


def test_check_rules_selection(capsys):
    assert main(["check", "--lint", "--rules", "REPRO001,REPRO008"]) == 0
    out = capsys.readouterr().out
    assert "lint:" in out and "check: OK" in out


def test_check_exclude_rules(capsys):
    assert main(["check", "--lint", "--exclude-rules", "REPRO012"]) == 0
    assert "check: OK" in capsys.readouterr().out


def test_check_unknown_rule_exits_two(capsys):
    assert main(["check", "--lint", "--rules", "REPRO999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_check_format_json(capsys):
    import json

    assert main(["check", "--lint", "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("{"):out.rindex("}") + 1]
    doc = json.loads(payload)
    assert doc["ok"] is True and doc["n_checks"] > 0


def test_check_format_sarif_to_file(tmp_path, capsys):
    import json

    out_file = tmp_path / "findings.sarif"
    assert main(["check", "--lint", "--format", "sarif",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-check"


def test_check_baseline_gate(capsys):
    assert main(["check", "--lint", "--baseline",
                 "analysis-baseline.json"]) == 0
    out = capsys.readouterr().out
    assert "baseline: 0 new" in out
    assert "check: OK" in out


def test_check_write_baseline_roundtrip(tmp_path, capsys):
    from repro.analysis.baseline import load_baseline

    path = tmp_path / "baseline.json"
    assert main(["check", "--lint", "--write-baseline", str(path)]) == 0
    capsys.readouterr()
    assert sum(load_baseline(path).values()) == 0
