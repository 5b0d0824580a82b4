"""Flight-recorder debug bundles: assembly, validation, reload."""

import json

import pytest

from repro.cli import main
from repro.telemetry import (
    BUNDLE_SCHEMA_VERSION,
    build_bundle,
    bundle_to_json,
    collect_env,
    from_bundle,
    validate_bundle,
)
from repro.telemetry.querylog import QueryLog, profiles_from_records


@pytest.fixture
def bundle(registry, tracer):
    registry.counter("etl_records_total", "records").inc(3)
    with tracer.span("etl.parse"):
        pass
    log = QueryLog(enabled=True, max_records=8)
    log.record("SELECT * FROM t WHERE id = 1", "sql", 0.01, rows=1)
    return build_bundle(
        registry=registry,
        tracer=tracer,
        query_log=log,
        plan_cache=[{"key": ["d", "SELECT * FROM t"], "plan": []}],
        epochs=[{"id": 1, "epoch": 2}],
    )


class TestBuild:
    def test_schema_versioned_and_valid(self, bundle):
        assert bundle["schema_version"] == BUNDLE_SCHEMA_VERSION
        validate_bundle(bundle)  # must not raise

    def test_carries_every_section(self, bundle):
        assert bundle["telemetry"]["metrics"]
        assert bundle["telemetry"]["spans"]
        assert bundle["query_log"]["records"]
        assert bundle["query_log"]["profiles"]
        assert bundle["plan_cache"] and bundle["epochs"]
        assert isinstance(bundle["env"], dict)
        assert "shards" not in bundle

    def test_empty_query_log_section_still_validates(self, registry, tracer):
        validate_bundle(build_bundle(registry=registry, tracer=tracer))


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self, bundle):
        text = bundle_to_json(bundle)
        assert from_bundle(text) == json.loads(text)

    def test_from_bundle_accepts_a_parsed_dict(self, bundle):
        assert from_bundle(bundle) is bundle


class TestValidation:
    def test_missing_section_reported_by_name(self, bundle):
        del bundle["query_log"]
        with pytest.raises(ValueError, match="query_log"):
            validate_bundle(bundle)

    def test_wrong_section_type_reported(self, bundle):
        bundle["plan_cache"] = {}
        with pytest.raises(ValueError, match="plan_cache"):
            validate_bundle(bundle)

    def test_unsupported_schema_version_rejected(self, bundle):
        bundle["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_bundle(bundle)

    def test_every_problem_listed_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            validate_bundle({"schema_version": 1})
        message = str(excinfo.value)
        for key in ("telemetry", "query_log", "plan_cache", "epochs", "env"):
            assert key in message

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_bundle([])


class TestEnv:
    def test_only_repro_knobs_collected(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_LOG", "1")
        monkeypatch.setenv("UNRELATED", "x")
        env = collect_env()
        assert env["REPRO_QUERY_LOG"] == "1"
        assert all(key.startswith("REPRO_") for key in env)


def _legacy(bundle):
    """``bundle`` as version 1 wrote it while tables had a partition
    layout: a ``shards`` section, and a ``shards`` field on every query
    record and profile."""
    legacy = json.loads(bundle_to_json(bundle))
    legacy["shards"] = {"configured": 4, "tables": {"dwarf_cell": 4}}
    for section in ("records", "profiles"):
        for entry in legacy["query_log"][section]:
            entry["shards"] = 4
    return legacy


class TestLegacyBundle:
    def test_validates_and_replays_its_records(self, bundle):
        legacy = _legacy(bundle)
        assert legacy["schema_version"] == 1
        validate_bundle(legacy)  # must not raise
        assert from_bundle(bundle_to_json(legacy)) == legacy
        replayed = profiles_from_records(legacy["query_log"]["records"])
        assert replayed == bundle["query_log"]["profiles"]

    @pytest.mark.parametrize("command", ["stats", "top"])
    def test_rerenders_offline(self, bundle, command, tmp_path, capsys):
        path = tmp_path / "legacy.json"
        path.write_text(bundle_to_json(_legacy(bundle)), encoding="utf-8")
        assert main([command, "--bundle", str(path)]) == 0
        out = capsys.readouterr().out
        assert "debug bundle" in out
        assert "SELECT * FROM T WHERE ID = ?" in out
