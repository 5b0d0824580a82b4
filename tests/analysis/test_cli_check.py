"""The `repro check` CLI gate."""

from repro.cli import main
from repro.telemetry import get_registry


def test_check_invariants_day_exits_zero(capsys):
    metrics_before = get_registry().enabled
    assert main(["check", "--invariants", "day"]) == 0  # case-insensitive name
    assert get_registry().enabled == metrics_before
    out = capsys.readouterr().out
    assert "dwarf_check" in out
    assert "delta_check" in out
    assert "check: OK" in out


def test_check_unknown_dataset_exits_nonzero(capsys):
    assert main(["check", "--invariants", "Nope"]) == 1
    captured = capsys.readouterr()
    assert "check: FAILED" in captured.out
    assert "unknown dataset 'Nope'" in captured.err
