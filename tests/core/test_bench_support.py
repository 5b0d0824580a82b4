"""The benchmark support package: datasets, runner, reporting."""

import pytest

from repro.bench.datasets import (
    DATASETS,
    DATASETS_BY_NAME,
    clear_cache,
    current_scale,
    load_dataset,
    scaled_days,
    scaled_tuples,
)
from repro.bench.reporting import format_table
from repro.bench.runner import (
    DATASET_ORDER,
    PAPER_TABLE4_MB,
    PAPER_TABLE5_MS,
    run_cell,
)


class TestDatasets:
    def test_paper_table2_values(self):
        assert DATASETS_BY_NAME["Day"].paper_tuples == 7_358
        assert DATASETS_BY_NAME["SMonth"].paper_tuples == 1_181_344
        assert [s.name for s in DATASETS] == list(DATASET_ORDER)

    def test_scaled_tuples(self):
        spec = DATASETS_BY_NAME["Week"]
        assert scaled_tuples(spec, scale=1.0) == 60_102
        assert scaled_tuples(spec, scale=0.5) == 30_051
        assert scaled_tuples(spec, scale=1e-9) == 1
        # EXPERIMENTS.md Table 2 at the default 1/16 scale, growing with the period.
        counts = [scaled_tuples(spec, scale=1 / 16) for spec in DATASETS]
        assert counts == [460, 3_756, 7_433, 24_797, 73_834]
        assert counts == sorted(counts)

    def test_scaled_days_keeps_density(self):
        spec = DATASETS_BY_NAME["SMonth"]
        assert scaled_days(spec, scale=1.0) == 183
        assert scaled_days(spec, scale=1 / 16) == 12

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert current_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ValueError):
            current_scale()

    def test_load_dataset_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        clear_cache()
        first = load_dataset("Day")
        second = load_dataset("Day")
        assert first is second
        assert first.n_tuples == round(7358 * 0.002)
        clear_cache()

    def test_bundle_consistency(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        clear_cache()
        bundle = load_dataset("Week")
        assert bundle.cube.n_source_tuples == bundle.n_tuples
        assert bundle.spec.name == "Week"
        # Document density near the paper's ~300 B/record (Table 2: 2.1 MB / 7,358).
        assert 200 <= bundle.documents.size_bytes / bundle.n_tuples <= 500
        clear_cache()


class TestRunner:
    def test_paper_constants_complete(self):
        for table in (PAPER_TABLE4_MB, PAPER_TABLE5_MS):
            assert set(table) == {"MySQL-DWARF", "MySQL-Min", "NoSQL-DWARF", "NoSQL-Min"}
            assert all(len(v) == 5 for v in table.values())

    def test_run_cell(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        clear_cache()
        result = run_cell("NoSQL-DWARF", "Day")
        assert result.schema == "NoSQL-DWARF"
        assert result.n_tuples == round(7358 * 0.002)
        assert result.insert_ms > 0
        assert result.size_mb > 0
        assert result.cell_count > result.node_count
        clear_cache()


class TestReporting:
    def test_format_table(self):
        text = format_table(
            "T", ["a", "b"], {"row1": [1, 2.5], "row2": [None, 100.0]}, note="n"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "row1" in text and "2.50" in text
        assert "-" in lines[-2]  # None rendered as dash
        assert lines[-1] == "n"
