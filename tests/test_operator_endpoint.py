"""Live operator endpoint + per-spec evaluation analytics.

The contracts under test:

* **endpoint surface** — ``GET /metrics`` (valid Prometheus text),
  ``/metrics.json``, ``/health`` (503 iff the last scan's HealthBlock is
  FAILED), ``/stats``, ``/traces/latest``; unknown paths 404 with an
  endpoint listing; requests are answered *during* an in-flight scan and
  the server shuts down cleanly;
* **analytics determinism** — the hot-spec table rendered from a
  FakeClock-timed run is byte-identical across the serial, thread and
  process executors, and ``fingerprint()`` is byte-identical with
  analytics on or off;
* **longitudinal views** — dead-spec detection cross-checked against
  coverage analysis, and scan-over-scan drift classification
  (new / persisting / fixed).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import (
    ParallelValidator,
    ResiliencePolicy,
    SourceSpec,
    ValidationService,
    ValidationSession,
    observability,
    parse,
)
from repro.core.compiler import optimize_statements
from repro.core.report import ValidationReport
from repro.observability import parse_prometheus
from repro.observability.analytics import (
    SpecAnalytics,
    format_drift,
    format_hot_specs,
    merge_spec_profiles,
    profile_rows,
)
from repro.observability.server import ENDPOINTS, parse_http_address
from repro.runtime import FakeClock, StaticRuntime, set_clock
from repro.synthetic import EXPERT_SPECS
from repro.synthetic.azure import generate_type_a


@pytest.fixture(autouse=True)
def pristine_observability():
    observability.disable()
    previous_clock = set_clock(None)
    yield
    observability.disable()
    set_clock(previous_clock)


@pytest.fixture(scope="module")
def corpus():
    store = generate_type_a(0.05).build_store()
    statements = optimize_statements(
        list(parse(EXPERT_SPECS["type_a"]).statements)
    )
    return store, statements


@pytest.fixture
def workspace(tmp_path):
    spec = tmp_path / "specs.cpl"
    spec.write_text("$fabric.Timeout -> int & [1, 60]\n")
    config = tmp_path / "prod.ini"
    config.write_text("[fabric]\nTimeout = 30\n")
    return tmp_path, spec, config


def _get(url: str):
    """GET → (status, content type, body text); no exception on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.headers["Content-Type"], \
                response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.headers["Content-Type"], \
            error.read().decode("utf-8")


# ---------------------------------------------------------------------------
# Address parsing
# ---------------------------------------------------------------------------


class TestParseHttpAddress:
    def test_host_and_port(self):
        assert parse_http_address("0.0.0.0:9100") == ("0.0.0.0", 9100)

    def test_bare_port_and_colon_port(self):
        assert parse_http_address("8080") == ("127.0.0.1", 8080)
        assert parse_http_address(":8080") == ("127.0.0.1", 8080)

    def test_port_zero_is_allowed(self):
        assert parse_http_address("127.0.0.1:0") == ("127.0.0.1", 0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_http_address("localhost:http")
        with pytest.raises(ValueError):
            parse_http_address("localhost:70000")


# ---------------------------------------------------------------------------
# Endpoint surface
# ---------------------------------------------------------------------------


class TestOperatorEndpoint:
    def test_all_endpoints_respond(self, workspace):
        from repro.jobs import JobService

        tmp, spec, config = workspace
        observability.enable()
        service = ValidationService(
            str(spec), [SourceSpec("ini", str(config))]
        )
        # /jobs answers 404 until a job service is attached (tested in
        # test_jobs_endpoint.py); attach one so the whole table is live.
        # Likewise /specs answers 404 until a lifecycle manager is wired
        # (tested in test_lifecycle.py).
        service.attach_jobs(JobService(workers=0))
        from repro.lifecycle import SpecLifecycleManager

        service.lifecycle = SpecLifecycleManager()
        service.run_once()
        server = service.start_http()
        try:
            for path in ENDPOINTS:
                status, content_type, body = _get(server.url + path)
                assert status == 200, path
                assert body, path
                if path == "/metrics":
                    assert content_type.startswith("text/plain")
                else:
                    assert content_type.startswith("application/json")
                    json.loads(body)
        finally:
            service.stop_http()

    def test_metrics_pass_the_exposition_parser(self, workspace):
        tmp, spec, config = workspace
        observability.enable()
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        server = service.start_http()
        try:
            __, __, body = _get(server.url + "/metrics")
            families = parse_prometheus(body)
            assert "confvalley_scans_total" in families
            assert "confvalley_coverage_covered_classes" in families
        finally:
            service.stop_http()

    def test_unknown_path_404_lists_endpoints(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        server = service.start_http()
        try:
            status, __, body = _get(server.url + "/nope")
            assert status == 404
            assert json.loads(body)["endpoints"] == list(ENDPOINTS)
        finally:
            service.stop_http()

    def test_health_200_before_first_scan(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        server = service.start_http()
        try:
            status, __, body = _get(server.url + "/health")
            assert status == 200
            assert json.loads(body)["status"] == "never-validated"
        finally:
            service.stop_http()

    def test_health_503_when_last_scan_failed(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(
            str(spec), [SourceSpec("ini", str(config))],
            resilience=ResiliencePolicy(),
        )
        spec.unlink()  # the spec file vanishes: FAILED health, not a crash
        result = service.run_once()
        assert result.health.status == "FAILED"
        server = service.start_http()
        try:
            status, __, body = _get(server.url + "/health")
            assert status == 503
            assert json.loads(body)["status"] == "FAILED"
            # a FAILED scan is an unhealthy service, not a broken endpoint:
            # everything else still answers 200
            assert _get(server.url + "/stats")[0] == 200
        finally:
            service.stop_http()

    def test_health_recovers_to_200(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(
            str(spec), [SourceSpec("ini", str(config))],
            resilience=ResiliencePolicy(),
        )
        saved = spec.read_text()
        spec.unlink()
        service.run_once()
        spec.write_text(saved)
        service.run_once()
        server = service.start_http()
        try:
            status, __, body = _get(server.url + "/health")
            assert status == 200
            assert json.loads(body)["passed"] is True
        finally:
            service.stop_http()

    def test_traces_latest_is_chrome_trace_of_last_scan(self, workspace):
        tmp, spec, config = workspace
        observability.enable()
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        server = service.start_http()
        try:
            __, __, body = _get(server.url + "/traces/latest")
            trace = json.loads(body)
            names = {event["name"] for event in trace["traceEvents"]}
            assert "scan" in names
            assert "evaluate" in names
        finally:
            service.stop_http()

    def test_traces_latest_empty_without_tracing(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        server = service.start_http()
        try:
            __, __, body = _get(server.url + "/traces/latest")
            assert json.loads(body)["traceEvents"] == []
        finally:
            service.stop_http()

    def test_trace_capture_bounds_tracer_memory(self, workspace):
        tmp, spec, config = workspace
        obs = observability.enable()
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        first = service.latest_trace()
        assert first is not None and first["traceEvents"]
        # the scan's spans were consumed out of the tracer
        assert obs.tracer.find("scan") == []
        service.run_once()
        second = service.latest_trace()
        assert second is not None and second["traceEvents"]
        assert obs.tracer.find("scan") == []

    def test_endpoints_respond_during_inflight_scan(self, workspace):
        tmp, spec, config = workspace

        gate = threading.Event()
        release = threading.Event()

        class BlockingRuntime(StaticRuntime):
            def read_bytes(self, path: str) -> bytes:
                if path.endswith("prod.ini"):
                    gate.set()
                    assert release.wait(timeout=30)
                return super().read_bytes(path)

        from repro.jobs import JobService

        observability.enable()
        from repro.lifecycle import SpecLifecycleManager

        service = ValidationService(
            str(spec), [SourceSpec("ini", str(config))],
            runtime=BlockingRuntime(),
        )
        service.attach_jobs(JobService(workers=0))
        service.lifecycle = SpecLifecycleManager()
        server = service.start_http()
        worker = threading.Thread(target=service.run_once, daemon=True)
        try:
            worker.start()
            assert gate.wait(timeout=30)  # the scan is now mid-source-load
            for path in ENDPOINTS:
                status, __, __body = _get(server.url + path)
                assert status == 200, path
        finally:
            release.set()
            worker.join(timeout=30)
            service.stop_http()
        assert not worker.is_alive()
        assert service.current_status is True

    def test_clean_shutdown_closes_the_port(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        server = service.start_http()
        url = server.url
        assert _get(url + "/health")[0] == 200
        service.stop_http()
        assert not server.running
        with pytest.raises(OSError):
            urllib.request.urlopen(url + "/health", timeout=2)
        service.stop_http()  # idempotent

    def test_http_requests_counter(self, workspace):
        tmp, spec, config = workspace
        obs = observability.enable()
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        server = service.start_http()
        try:
            _get(server.url + "/health")
            _get(server.url + "/health")
            _get(server.url + "/stats")
        finally:
            service.stop_http()
        text = obs.metrics.to_prometheus()
        samples = {
            (labels["path"]): value
            for __, labels, value in parse_prometheus(text)[
                "confvalley_http_requests_total"
            ]["samples"]
        }
        assert samples["/health"] == 2.0
        assert samples["/stats"] == 1.0


# ---------------------------------------------------------------------------
# Analytics: attribution, determinism, fingerprint parity
# ---------------------------------------------------------------------------


class TestSpecProfileAttribution:
    def test_session_records_profile_when_enabled(self):
        session = ValidationSession(analytics=True)
        session.load_text("ini", "[fabric]\nTimeout = 99\n")
        report = session.validate(
            "$fabric.Timeout -> int & [1, 60]\n$fabric.Missing -> int\n"
        )
        rows = profile_rows(report.spec_profile)
        assert [row["line"] for row in rows] == [1, 2]
        hot = rows[0]
        assert hot["evals"] == 1
        assert hot["instances"] == 1
        assert hot["violations"] == 1
        missing = rows[1]
        assert missing["instances"] == 0
        assert missing["violations"] == 0

    def test_profile_off_by_default_and_costless(self):
        session = ValidationSession()
        session.load_text("ini", "[fabric]\nTimeout = 30\n")
        report = session.validate("$fabric.Timeout -> int")
        assert report.spec_profile == {}

    def test_fingerprint_identical_with_analytics_on_or_off(self):
        def run(analytics: bool) -> str:
            session = ValidationSession(analytics=analytics)
            session.load_text("ini", "[fabric]\nTimeout = 99\n")
            return session.validate(
                "$fabric.Timeout -> int & [1, 60]"
            ).fingerprint()

        assert run(True) == run(False)

    def test_merge_spec_profiles_commutative_sums(self):
        left = {(1, "a"): {"evals": 1, "instances": 2, "violations": 0, "seconds": 0.5}}
        right = {
            (1, "a"): {"evals": 1, "instances": 3, "violations": 1, "seconds": 0.25},
            (2, "b"): {"evals": 1, "instances": 0, "violations": 0, "seconds": 0.1},
        }
        merge_spec_profiles(left, right)
        assert left[(1, "a")] == {
            "evals": 2, "instances": 5, "violations": 1, "seconds": 0.75
        }
        assert left[(2, "b")] == right[(2, "b")]
        assert left[(2, "b")] is not right[(2, "b")]  # copied, not aliased

    def test_report_merge_folds_profiles(self):
        a = ValidationReport()
        a.spec_profile[(1, "x")] = {
            "evals": 1, "instances": 1, "violations": 0, "seconds": 1.0
        }
        b = ValidationReport()
        b.spec_profile[(1, "x")] = {
            "evals": 1, "instances": 2, "violations": 1, "seconds": 2.0
        }
        a.merge(b)
        assert a.spec_profile[(1, "x")]["seconds"] == 3.0
        assert a.spec_profile[(1, "x")]["instances"] == 3


class TestHotSpecDeterminism:
    @pytest.mark.parametrize("executor,workers", [
        ("serial", None),
        # one worker pins the shared FakeClock to a single reader thread,
        # so per-spec durations are identical to the serial run
        ("thread", 1),
        # fork workers each inherit a private copy of the clock state, so
        # per-spec durations are one tick regardless of interleaving
        ("process", 2),
    ])
    def test_hot_spec_table_byte_identical(self, corpus, executor, workers):
        store, statements = corpus
        set_clock(FakeClock(start=0.0, tick=0.001))
        report = ParallelValidator(
            store, executor=executor, max_workers=workers, analytics=True
        ).validate_statements(statements)
        analytics = SpecAnalytics()
        analytics.record_scan(report)
        rendered = format_hot_specs(analytics.hot_specs())
        if not hasattr(type(self), "_expected"):
            type(self)._expected = rendered
        assert rendered == type(self)._expected
        assert len(report.spec_profile) > 0

    def test_merged_seconds_independent_of_merge_order(self):
        # one 1 ms span read at four absolute clock values: the raw float
        # differences disagree in their last bits
        spans = [(start + 0.001) - start for start in (0.0, 0.123, 7.77, 1234.5)]
        assert len(set(spans)) > 1
        profiles = [
            {(1, "spec"): {"evals": 1, "instances": 1, "violations": 0, "seconds": span}}
            for span in spans
        ]
        forward, backward = {}, {}
        for profile in profiles:
            merge_spec_profiles(forward, profile)
        for profile in reversed(profiles):
            merge_spec_profiles(backward, profile)
        assert forward[(1, "spec")]["seconds"] == backward[(1, "spec")]["seconds"] == 0.004

    def test_fingerprint_parity_across_executors_with_analytics(self, corpus):
        store, statements = corpus
        serial = ParallelValidator(
            store, executor="serial", analytics=True
        ).validate_statements(statements)
        threaded = ParallelValidator(
            store, executor="thread", max_workers=3, analytics=True
        ).validate_statements(statements)
        assert serial.fingerprint() == threaded.fingerprint()
        # attribution counters merged identically too (timings aside)
        strip = lambda profile: {
            key: {k: v for k, v in row.items() if k != "seconds"}
            for key, row in profile.items()
        }
        assert strip(serial.spec_profile) == strip(threaded.spec_profile)


# ---------------------------------------------------------------------------
# Analytics: dead specs, drift, coverage feed
# ---------------------------------------------------------------------------


class TestAnalyticsViews:
    def _scan(self, service):
        return service.run_once()

    def test_dead_spec_detection_with_coverage_crosscheck(self, workspace):
        tmp, spec, config = workspace
        spec.write_text(
            "$fabric.Timeout -> int & [1, 60]\n$ghost.Missing -> int\n"
        )
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        dead = service.analytics.dead_specs()
        assert [row["spec"] for row in dead] == ["$ghost.Missing -> int"]
        assert dead[0]["coverage_confirmed"] is True
        stats = service.stats()
        assert stats["analytics"]["dead_specs"] == dead
        assert stats["coverage"]["dead_specs"] == ["$ghost.Missing -> int"]

    def test_coverage_gauges_feed_registry(self, workspace):
        tmp, spec, config = workspace
        spec.write_text(
            "$fabric.Timeout -> int & [1, 60]\n$ghost.Missing -> int\n"
        )
        obs = observability.enable()
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        families = parse_prometheus(obs.metrics.to_prometheus())
        def value(name):
            return families[name]["samples"][0][2]
        assert value("confvalley_coverage_covered_classes") == 1.0
        assert value("confvalley_coverage_uncovered_classes") == 0.0
        assert value("confvalley_coverage_dead_specs") == 1.0

    def test_coverage_cached_until_spec_or_store_changes(self, workspace, monkeypatch):
        tmp, spec, config = workspace
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        first = service.stats()["coverage"]
        calls = []
        import repro.core.coverage as coverage_module

        real = coverage_module.analyze_coverage
        monkeypatch.setattr(
            coverage_module, "analyze_coverage",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        service.run_once()  # nothing changed: cache hit, no reanalysis
        assert calls == []
        assert service.stats()["coverage"] == first
        spec.write_text("$fabric.Timeout -> int\n")
        service.run_once()
        assert calls == [1]

    def test_drift_new_persisting_fixed(self, workspace):
        tmp, spec, config = workspace
        spec.write_text(
            "$fabric.Timeout -> int & [1, 60]\n$fabric.Retries -> int & [0, 5]\n"
        )
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])

        config.write_text("[fabric]\nTimeout = 99\nRetries = 9\n")
        service.run_once()
        drift = service.analytics.drift()
        assert drift["comparable"] is False

        config.write_text("[fabric]\nTimeout = 99\nRetries = 3\n")
        service.run_once()
        drift = service.analytics.drift()
        assert drift["comparable"] is True
        assert [row["spec"] for row in drift["persisting"]] == [
            "$fabric.Timeout -> int & [1, 60]"
        ]
        assert [row["spec"] for row in drift["fixed"]] == [
            "$fabric.Retries -> int & [0, 5]"
        ]
        assert drift["new"] == []

        config.write_text("[fabric]\nTimeout = 30\nRetries = 9\n")
        service.run_once()
        drift = service.analytics.drift()
        assert [row["spec"] for row in drift["new"]] == [
            "$fabric.Retries -> int & [0, 5]"
        ]
        assert [row["spec"] for row in drift["fixed"]] == [
            "$fabric.Timeout -> int & [1, 60]"
        ]
        assert drift["persisting"] == []
        assert service.stats()["drift"] == drift

    def test_drift_rendering(self):
        assert "needs two scans" in format_drift({"comparable": False})
        text = format_drift({
            "comparable": True,
            "new": [{"line": 3, "spec": "$a.b -> int", "violations": 2}],
            "persisting": [],
            "fixed": [],
        })
        assert "new (1):" in text
        assert "$a.b -> int" in text

    def test_analytics_disabled_service(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(
            str(spec), [SourceSpec("ini", str(config))], analytics=False
        )
        result = service.run_once()
        assert result.report.spec_profile == {}
        stats = service.stats()
        assert stats["analytics"] is None
        assert stats["drift"] is None

    def test_hot_specs_accumulate_across_scans(self, workspace):
        tmp, spec, config = workspace
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        set_clock(FakeClock(start=0.0, tick=0.5))
        service.run_once()
        service.run_once()
        hot = service.analytics.hot_specs()
        assert hot[0]["evals"] == 2
        assert hot[0]["seconds"] == 1.0  # one tick per scan


# ---------------------------------------------------------------------------
# CLI surface: top, stats over HTTP, --log-file
# ---------------------------------------------------------------------------


class TestCliSurface:
    @pytest.fixture
    def live_service(self, workspace):
        tmp, spec, config = workspace
        config.write_text("[fabric]\nTimeout = 99\n")  # a violation to show
        observability.enable()
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        server = service.start_http()
        yield service, server
        service.stop_http()

    def test_stats_reads_live_url(self, live_service, capsys):
        from repro.console import main

        service, server = live_service
        assert main(["stats", server.url]) == 0
        out = capsys.readouterr().out
        assert "confvalley service stats" in out
        assert "hot specs" in out
        assert "metric families" in out

    def test_stats_prometheus_from_live_url(self, live_service, capsys):
        from repro.console import main

        service, server = live_service
        assert main(["stats", server.url, "--format", "prometheus"]) == 0
        parse_prometheus(capsys.readouterr().out)

    def test_top_reads_live_url(self, live_service, capsys):
        from repro.console import main

        service, server = live_service
        assert main(["top", server.url, "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "$fabric.Timeout -> int & [1, 60]" in out
        assert "seconds" in out

    def test_stats_unreachable_url_fails_cleanly(self, capsys):
        from repro.console import main

        assert main(["stats", "http://127.0.0.1:1/"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_top_reads_snapshot_file(self, workspace, capsys):
        from repro.console import main
        from repro.observability import write_snapshot

        tmp, spec, config = workspace
        obs = observability.enable()
        service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
        service.run_once()
        snapshot_path = tmp / "snapshot.json"
        write_snapshot(str(snapshot_path), service.stats(), obs.metrics)
        assert main(["top", str(snapshot_path)]) == 0
        assert "$fabric.Timeout -> int & [1, 60]" in capsys.readouterr().out

    def test_top_without_analytics_fails_cleanly(self, workspace, capsys):
        from repro.console import main
        from repro.observability import write_snapshot
        from repro.observability.metrics import NULL_REGISTRY

        tmp, spec, config = workspace
        service = ValidationService(
            str(spec), [SourceSpec("ini", str(config))], analytics=False
        )
        service.run_once()
        snapshot_path = tmp / "snapshot.json"
        write_snapshot(str(snapshot_path), service.stats(), NULL_REGISTRY)
        assert main(["top", str(snapshot_path)]) == 1
        assert "no per-spec analytics" in capsys.readouterr().err

    def test_validate_log_file_writes_json_lines(self, workspace, capsys):
        from repro.console import main
        from repro.observability import reset_logging

        tmp, spec, config = workspace
        log_path = tmp / "validate.log"
        try:
            code = main([
                "validate", str(spec),
                "--source", f"ini:{config}",
                "--log-file", str(log_path),
            ])
        finally:
            reset_logging()
        assert code == 0
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines() if line
        ]
        assert lines, "log file should contain at least one record"
        for record in lines:
            assert "event" in record
            assert "level" in record
            assert "logger" in record
            assert record["logger"].startswith("repro")
