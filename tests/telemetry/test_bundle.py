"""Debug bundles: assembly, validation, reload, and the one report over them."""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.telemetry import (
    BUNDLE_SCHEMA_VERSION,
    build_bundle,
    bundle_to_json,
    collect_env,
    from_bundle,
    render_bundle,
    validate_bundle,
)
from repro.telemetry.querylog import QueryLog

RUN = {"dataset": "Day", "tuples": 3, "scale": 0.5, "schema": "NoSQL-DWARF",
       "queries": 1, "answers_agree": True}


@pytest.fixture
def bundle(registry, tracer):
    registry.counter("etl_records_total", "records").inc(3)
    with tracer.span("etl.parse"):
        pass
    log = QueryLog(enabled=True, max_records=8)
    log.record("SELECT * FROM t WHERE id = 1", "sql", 0.01, rows=1)
    return build_bundle(
        RUN,
        registry=registry,
        tracer=tracer,
        query_log=log,
        operators=[{"node": "PointLookup", "table": "t", "detail": "primary key",
                    "calls": 1, "rows_out": 1, "seconds": 0.001,
                    "blocks_skipped": 0, "rows_pruned": 0}],
        storage=[{"table": "t", "sstables": 1, "columnar_blocks": 2,
                  "blocks_skipped": 0, "dict_hit_ratio": 0.5}],
        plan_cache=[{"key": ["d", "SELECT * FROM t"], "plan": []}],
        epochs=[{"id": 1, "epoch": 2}],
    )


class TestBuild:
    def test_schema_versioned_and_valid(self, bundle):
        assert bundle["schema_version"] == BUNDLE_SCHEMA_VERSION == 2
        validate_bundle(bundle)  # must not raise

    def test_carries_every_section(self, bundle):
        assert bundle["run"] == RUN
        assert bundle["telemetry"]["metrics"]
        assert bundle["telemetry"]["spans"]
        assert bundle["telemetry"]["spans_dropped"] == 0
        assert bundle["operators"] and bundle["storage"]
        assert bundle["query_log"]["records"]
        assert bundle["query_log"]["profiles"]
        assert bundle["plan_cache"] and bundle["epochs"]
        assert isinstance(bundle["env"], dict)
        assert "shards" not in bundle

    def test_empty_query_log_section_still_validates(self, registry, tracer):
        validate_bundle(build_bundle(RUN, registry=registry, tracer=tracer))


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

    def test_run_header_checked(self, bundle):
        del bundle["run"]["answers_agree"]
        bundle["run"]["tuples"] = "3"
        with pytest.raises(ValueError) as excinfo:
            validate_bundle(bundle)
        assert "run: missing key 'answers_agree'" in str(excinfo.value)
        assert "run.tuples: expected int, got str" in str(excinfo.value)

    def test_unsupported_schema_version_rejected(self, bundle):
        bundle["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_bundle(bundle)

    def test_every_problem_listed_at_once(self):
        with pytest.raises(ValueError) as excinfo:
            validate_bundle({"schema_version": 1})
        message = str(excinfo.value)
        for key in ("run", "telemetry", "operators", "storage", "query_log",
                    "plan_cache", "epochs", "env", "schema_version 1 unsupported"):
            assert key in message

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_bundle([])

    def test_a_version_1_bundle_is_refused_not_half_rendered(self, bundle, tmp_path, capsys):
        legacy = {key: bundle[key] for key in
                  ("telemetry", "query_log", "plan_cache", "epochs", "env")}
        legacy["schema_version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(bundle_to_json(legacy), encoding="utf-8")
        assert main(["stats", "--bundle", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema_version 1 unsupported" in captured.err


class TestEnv:
    def test_only_repro_knobs_collected(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_LOG", "1")
        monkeypatch.setenv("UNRELATED", "x")
        env = collect_env()
        assert env["REPRO_QUERY_LOG"] == "1"
        assert all(key.startswith("REPRO_") for key in env)


class TestRender:
    def test_every_section_rendered(self, bundle):
        text = render_bundle(bundle)
        for marker in ("dataset Day: 3 tuples (REPRO_SCALE=0.5), schema NoSQL-DWARF",
                       "answers agree", "spans (0 dropped)", "etl.parse",
                       "PointLookup on t [primary key]: calls=1",
                       "t: sstables=1 columnar_blocks=2", "etl_records_total",
                       "SELECT * FROM T WHERE ID = ?", "slow ops (0 dropped)"):
            assert marker in text, marker

    def test_dropped_spans_on_the_spans_header(self, bundle):
        bundle["telemetry"]["spans_dropped"] = 5
        assert "spans (5 dropped)" in render_bundle(bundle).splitlines()


# ----------------------------------------------------------------------
# one live `repro stats --out` run, shared by the checks below
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """``repro stats --dataset day --out F`` at a small scale: its text
    report and the bundle it wrote."""
    path = tmp_path_factory.mktemp("bundle") / "bundle.json"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SCALE", "0.002")
        with contextlib.redirect_stdout(out):
            assert main(["stats", "--dataset", "day", "--out", str(path)]) == 0
    return out.getvalue(), path, from_bundle(path.read_text(encoding="utf-8"))


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.get("children", []))


class TestLiveBundle:
    def test_offline_render_is_the_live_report(self, live, capsys):
        text, path, _ = live
        assert main(["stats", "--bundle", str(path)]) == 0
        offline = capsys.readouterr().out
        assert offline.splitlines() == text.splitlines()
        lines = text.splitlines()
        for section in ("operators", "storage"):
            body = lines[lines.index(section) + 1]
            assert body.startswith("  ") and body != "  (none)", section

    def test_every_layer_emitted_spans(self, live):
        counts = {}
        for span in _walk(live[2]["telemetry"]["spans"]):
            counts[span["name"]] = counts.get(span["name"], 0) + span["count"]
        layers = {"etl": ("etl.",), "dwarf build": ("dwarf.",),
                  "storage": ("mapper.", "nosqldb."), "stored queries": ("stored.",)}
        for layer, prefixes in layers.items():
            assert sum(n for name, n in counts.items() if name.startswith(prefixes)), layer

    def test_required_metrics_recorded(self, live):
        names = {family["name"] for family in live[2]["telemetry"]["metrics"]}
        assert {"dwarf_builds_total", "etl_facts_total", "mapper_stored_queries_total"} <= names

    def test_query_profiles_plan_cache_and_env_captured(self, live):
        bundle = live[2]
        assert bundle["query_log"]["records"]
        assert any(profile["p99_s"] for profile in bundle["query_log"]["profiles"])
        assert bundle["plan_cache"]
        assert bundle["env"].get("REPRO_SCALE") == "0.002"
        assert bundle["run"]["answers_agree"] is True
