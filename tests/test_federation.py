"""Fleet-wide observability (ISSUE 9): trace stitching + metrics federation.

The contracts under test:

* **trace segments** — per-process partition files round-trip (their
  torn/corrupt-line tolerance is the shared log's, covered by the crash
  matrix in ``tests/test_durable.py``);
* **stitching** — re-emissions of one span id (the root is written open
  at submit, closed at webhook/terminal) merge into a single closed
  span; a lost close is healed against the trace's latest end; the
  stitched tree is single-rooted with no orphans;
* **metrics federation** — worker snapshot series re-export under a
  ``worker`` label, counters and histograms roll up into
  ``confvalley_fleet_*`` families, gauges stay per-worker, mismatched
  histogram buckets are refused, and stale snapshots are fenced out of
  the merge while staying visible in ``GET /fleet``;
* **end-to-end** — a job submitted to the coordinator and executed by a
  real ``confvalley worker`` subprocess yields one stitched trace
  covering submit → claim → parse → evaluate → report → webhook across
  both processes, and the coordinator's ``/metrics`` carries that
  worker's counters under a ``worker`` label;
* **parity** — verdict fingerprints are byte-identical with federation
  on or off, and an untraced job stays untraced;
* **CLI** — ``confvalley trace`` fetches from a live URL or stitches
  offline from a journal directory, with the uniform one-line
  cannot-reach error and exit 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro import SourceSpec, ValidationService, observability
from repro.console import main
from repro.core.session import ValidationSession
from repro.jobs import JobDirectory, JobService, JobState
from repro.jobs.model import report_fingerprint_digest
from repro.observability import (
    FleetView,
    MetricsRegistry,
    export_metrics_snapshot,
    merge_metrics,
    parse_prometheus,
    read_trace_segments,
    stitch_trace,
    trace_payload,
)
from repro.observability.federation import TraceSegmentWriter

SPEC = "$s.Timeout -> int & [1, 60]\n$s.Flag -> bool\n$s.Name -> nonempty\n"
GOOD_INI = "[s]\nTimeout = 30\nFlag = true\nName = web\n"


@pytest.fixture(autouse=True)
def pristine_observability():
    observability.disable()
    yield
    observability.disable()


def inline_sources(text=GOOD_INI):
    return [{"format": "ini", "text": text, "source": "inline.ini"}]


def direct_fingerprint(spec=SPEC, text=GOOD_INI) -> str:
    session = ValidationSession()
    session.load_text("ini", text, source="inline.ini")
    return report_fingerprint_digest(session.validate(spec))


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def span(span_id, name="s", parent="", start=1.0, end=2.0, **attrs):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "start": start, "end": end, "attrs": attrs}


def segment(trace_id, spans, source="src", recorded_at=10.0):
    return {"v": 1, "trace_id": trace_id, "source": source,
            "recorded_at": recorded_at, "spans": spans}


# ---------------------------------------------------------------------------
# Trace partitions
# ---------------------------------------------------------------------------


class TestTracePartitions:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "traces" / "w1.jsonl")
        writer = TraceSegmentWriter(path, "w1", time_fn=lambda: 42.0)
        writer.write("t1", [span("t1:a")])
        writer.write("t2", [span("t2:a")])
        writer.close()
        segments = read_trace_segments(path)
        assert [seg["trace_id"] for seg in segments] == ["t1", "t2"]
        assert segments[0]["source"] == "w1"
        assert segments[0]["recorded_at"] == 42.0

    def test_missing_partition_reads_empty(self, tmp_path):
        assert read_trace_segments(str(tmp_path / "absent.jsonl")) == []


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------


class TestStitching:
    def test_reemitted_root_merges_open_then_closed(self):
        opened = segment("t1", [span("t1:root", name="job", start=1.0,
                                     end=None)], source="coordinator",
                         recorded_at=1.0)
        closed = segment("t1", [span("t1:root", name="job", start=1.0,
                                     end=9.0, state="DONE")],
                         source="coordinator", recorded_at=9.0)
        spans = stitch_trace("t1", [opened, closed])
        assert len(spans) == 1
        assert spans[0]["end"] == 9.0
        assert spans[0]["attrs"]["state"] == "DONE"

    def test_lost_close_heals_against_latest_end(self):
        segments = [segment("t1", [
            span("t1:root", start=1.0, end=None),
            span("t1:child", parent="t1:root", start=2.0, end=7.5),
        ])]
        spans = stitch_trace("t1", segments)
        root = next(s for s in spans if s["span_id"] == "t1:root")
        assert root["end"] == 7.5

    def test_other_traces_are_filtered_out(self):
        segments = [segment("t1", [span("t1:a")]),
                    segment("t2", [span("t2:a")])]
        assert [s["span_id"] for s in stitch_trace("t1", segments)] == ["t1:a"]

    def test_payload_reports_roots_and_orphans(self):
        segments = [segment("t1", [
            span("t1:root", start=1.0),
            span("t1:kid", parent="t1:root", start=2.0),
            span("t1:lost", parent="t1:gone", start=3.0),
        ])]
        payload = trace_payload("t1", segments)
        assert payload["roots"] == ["t1:root", "t1:lost"]
        assert payload["orphan_spans"] == ["t1:lost"]
        assert payload["segments"] == 1
        assert payload["sources"] == ["src"]
        names = {event["name"] for event in payload["traceEvents"]}
        assert names == {"s"}


# ---------------------------------------------------------------------------
# Metrics federation: merge semantics
# ---------------------------------------------------------------------------


def snapshot_row(worker, metrics, exported_at=100.0):
    return {"worker": worker, "exported_at": exported_at, "metrics": metrics,
            "stats": {}}


class TestMergeMetrics:
    def test_counters_labeled_and_rolled_up(self):
        local = MetricsRegistry()
        local.counter("confvalley_jobs_total", "jobs").inc(2.0, state="DONE")
        worker = MetricsRegistry()
        worker.counter("confvalley_jobs_total", "jobs").inc(3.0, state="DONE")
        merged = merge_metrics(
            local.to_dict(), [snapshot_row("w1", worker.to_dict())]
        )
        series = merged["confvalley_jobs_total"]["series"]
        by_labels = {tuple(sorted(s["labels"].items())): s["value"]
                     for s in series}
        assert by_labels[(("state", "DONE"),)] == 2.0
        assert by_labels[(("state", "DONE"), ("worker", "w1"))] == 3.0
        fleet = merged["confvalley_fleet_jobs_total"]["series"]
        assert fleet == [{"labels": {"state": "DONE"}, "value": 5.0}]

    def test_gauges_stay_per_worker(self):
        local = MetricsRegistry()
        local.gauge("confvalley_queue_depth", "depth").set(4)
        worker = MetricsRegistry()
        worker.gauge("confvalley_queue_depth", "depth").set(6)
        merged = merge_metrics(
            local.to_dict(), [snapshot_row("w1", worker.to_dict())]
        )
        assert "confvalley_fleet_queue_depth" not in merged
        values = {json.dumps(s["labels"], sort_keys=True): s["value"]
                  for s in merged["confvalley_queue_depth"]["series"]}
        assert values == {"{}": 4.0, '{"worker": "w1"}': 6.0}

    def test_histograms_merge_bucket_wise(self):
        local = MetricsRegistry()
        local.histogram("confvalley_latency", "lat", buckets=(1.0, 2.0)).observe(0.5)
        worker = MetricsRegistry()
        worker.histogram("confvalley_latency", "lat", buckets=(1.0, 2.0)).observe(1.5)
        merged = merge_metrics(
            local.to_dict(), [snapshot_row("w1", worker.to_dict())]
        )
        fleet = merged["confvalley_fleet_latency"]
        assert fleet["buckets"] == [1.0, 2.0]
        assert fleet["series"][0]["counts"] == [1, 1, 0]
        assert fleet["series"][0]["count"] == 2

    def test_mismatched_histogram_buckets_are_refused(self):
        local = MetricsRegistry()
        local.histogram("confvalley_latency", "lat", buckets=(1.0, 2.0)).observe(0.5)
        worker = MetricsRegistry()
        worker.histogram("confvalley_latency", "lat", buckets=(9.0,)).observe(0.5)
        merged = merge_metrics(
            local.to_dict(), [snapshot_row("w1", worker.to_dict())]
        )
        # the worker's incompatible series is dropped, not fabricated
        assert all("worker" not in (s.get("labels") or {})
                   for s in merged["confvalley_latency"]["series"])
        assert merged["confvalley_fleet_latency"]["series"][0]["count"] == 1


# ---------------------------------------------------------------------------
# Staleness fencing
# ---------------------------------------------------------------------------


class TestStalenessFencing:
    def test_stale_snapshot_fenced_from_merge_but_visible_in_fleet(self, tmp_path):
        directory = JobDirectory(str(tmp_path)).ensure()
        now = [1000.0]
        view = FleetView(directory, stale_after=5.0, time_fn=lambda: now[0])

        fresh = MetricsRegistry()
        fresh.counter("confvalley_jobs_total", "jobs").inc(1.0)
        export_metrics_snapshot(directory.metrics_snapshot("alive"), fresh,
                                time_fn=lambda: 999.0)
        dead = MetricsRegistry()
        dead.counter("confvalley_jobs_total", "jobs").inc(7.0)
        export_metrics_snapshot(directory.metrics_snapshot("dead"), dead,
                                time_fn=lambda: 100.0)

        rows = {row["worker"]: row for row in view.metric_rows()}
        assert rows["alive"]["fresh"] is True
        assert rows["dead"]["fresh"] is False
        assert rows["dead"]["metrics_age_s"] == 900.0

        merged = view.merged_families({})
        workers = {(s["labels"].get("worker"))
                   for s in merged["confvalley_jobs_total"]["series"]}
        assert workers == {"alive"}

        payload = view.fleet_payload()
        flags = {row["worker"]: row["fresh"] for row in payload["workers"]}
        assert flags == {"alive": True, "dead": False}

        meta = merged["confvalley_fleet_workers"]["series"]
        counts = {s["labels"]["state"]: s["value"] for s in meta}
        assert counts == {"fresh": 1.0, "stale": 1.0}

    def test_snapshot_refresh_unfences(self, tmp_path):
        directory = JobDirectory(str(tmp_path)).ensure()
        now = [50.0]
        view = FleetView(directory, stale_after=5.0, time_fn=lambda: now[0])
        registry = MetricsRegistry()
        registry.counter("confvalley_jobs_total", "jobs").inc(1.0)
        export_metrics_snapshot(directory.metrics_snapshot("w1"), registry,
                                time_fn=lambda: 49.0)
        assert view.metric_rows()[0]["fresh"] is True
        now[0] = 100.0
        assert view.metric_rows()[0]["fresh"] is False
        export_metrics_snapshot(directory.metrics_snapshot("w1"), registry,
                                time_fn=lambda: 99.5)
        assert view.metric_rows()[0]["fresh"] is True


# ---------------------------------------------------------------------------
# In-process tracing (no shared directory)
# ---------------------------------------------------------------------------


class TestInProcessTracing:
    def test_single_process_job_traces_without_directory(self, tmp_path):
        observability.enable()
        service = JobService(journal_path=str(tmp_path / "j.jsonl"), workers=1)
        try:
            job, __ = service.submit(spec=SPEC, sources=inline_sources())
            done = service.wait(job.id, timeout=30)
            assert done.state == JobState.DONE
            assert done.trace == {"trace_id": job.id,
                                  "span_id": f"{job.id}:root"}
            payload = service.trace(job.id)
            names = [s["name"] for s in payload["spans"]]
            assert names == ["job", "submit", "claim", "parse",
                             "evaluate", "report"]
            assert payload["roots"] == [f"{job.id}:root"]
            assert payload["orphan_spans"] == []
            assert all(s["end"] is not None for s in payload["spans"])
        finally:
            service.close()

    def test_untraced_when_observability_disabled(self, tmp_path):
        service = JobService(journal_path=str(tmp_path / "j.jsonl"), workers=1)
        try:
            job, __ = service.submit(spec=SPEC, sources=inline_sources())
            done = service.wait(job.id, timeout=30)
            assert done.state == JobState.DONE
            assert done.trace is None
            assert service.trace(job.id)["spans"] == []
        finally:
            service.close()

    def test_webhook_closes_the_root_span(self, tmp_path):
        observability.enable()
        delivered = []
        service = JobService(
            journal_path=str(tmp_path / "j.jsonl"), workers=1,
            webhook_post=lambda url, payload: delivered.append(url),
            webhook_base_delay=0.01,
        )
        try:
            job, __ = service.submit(
                spec=SPEC, sources=inline_sources(),
                callback_url="http://callback.example/hook",
            )
            service.wait(job.id, timeout=30)
            assert wait_until(
                lambda: "webhook" in
                {s["name"] for s in service.trace(job.id)["spans"]}
            )
            payload = service.trace(job.id)
            webhook = next(s for s in payload["spans"]
                           if s["name"] == "webhook")
            assert webhook["attrs"]["outcome"] == "delivered"
            root = next(s for s in payload["spans"] if s["name"] == "job")
            assert root["attrs"]["closed_by"] == "webhook"
            assert root["end"] is not None
        finally:
            service.close()


# ---------------------------------------------------------------------------
# End-to-end: a real worker subprocess
# ---------------------------------------------------------------------------


def spawn_worker(journal_dir, worker_id, **flags):
    source_root = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (os.path.abspath(source_root), env.get("PYTHONPATH", ""))
        if part
    )
    command = [
        sys.executable, "-c",
        "import sys; from repro.console.cli import main; "
        "sys.exit(main(sys.argv[1:]))",
        "worker", "--journal", str(journal_dir), "--id", worker_id,
        "--lease-ttl", "1.0", "--poll", "0.02",
    ]
    for flag, value in flags.items():
        command += [f"--{flag.replace('_', '-')}", str(value)]
    return subprocess.Popen(command, env=env, stderr=subprocess.DEVNULL)


def test_subprocess_worker_yields_one_stitched_tree(tmp_path):
    """The acceptance property: POST a job, have a standalone worker run
    it, and get one stitched trace covering submit → claim → parse →
    evaluate → report → webhook across both processes."""
    observability.enable()
    delivered = []
    service = JobService(
        journal_dir=str(tmp_path / "jobsdir"), workers=0,
        lease_ttl=1.0, reaper_interval=0.05,
        webhook_post=lambda url, payload: delivered.append(payload),
        webhook_base_delay=0.01,
    )
    worker = None
    try:
        worker = spawn_worker(service.directory.root, "w1")
        job, __ = service.submit(
            spec=SPEC, sources=inline_sources(),
            callback_url="http://callback.example/hook",
        )
        done = service.wait(job.id, timeout=60)
        assert done.state == JobState.DONE
        assert done.worker == "w1"
        assert done.result["fingerprint"] == direct_fingerprint()
        assert wait_until(
            lambda: {"webhook", "report"} <=
            {s["name"] for s in service.trace(job.id)["spans"]}
        )

        payload = service.trace(job.id)
        names = {s["name"] for s in payload["spans"]}
        assert names == {"job", "submit", "claim", "parse", "evaluate",
                         "report", "webhook"}
        # one rooted tree: a single root, every parent resolves
        assert payload["roots"] == [f"{job.id}:root"]
        assert payload["orphan_spans"] == []
        assert sorted(payload["sources"]) == ["coordinator", "w1"]
        ids = {s["span_id"] for s in payload["spans"]}
        assert all((not s["parent_id"]) or s["parent_id"] in ids
                   for s in payload["spans"])
        # the worker's segment carries its identity in the span ids
        claim = next(s for s in payload["spans"] if s["name"] == "claim")
        assert claim["span_id"].startswith(f"{job.id}:w1.")

        # federation: the worker's counters surface under a worker label
        def worker_series():
            families = service.federated_metrics() or {}
            family = families.get("confvalley_worker_jobs_total") or {}
            return [s for s in family.get("series") or ()
                    if (s.get("labels") or {}).get("worker") == "w1"]

        assert wait_until(lambda: worker_series())
        assert worker_series()[0]["value"] >= 1.0
        families = service.federated_metrics()
        assert "confvalley_fleet_worker_jobs_total" in families

        fleet = service.fleet_payload()
        row = next(r for r in fleet["workers"] if r["worker"] == "w1")
        assert row["fresh"] is True
        assert row["counts"] == {"claims": 1, "done": 1}
        trace_sources = {r["source"] for r in fleet["traces"]["sources"]}
        assert {"coordinator", "w1"} <= trace_sources

        rows = service.workers_payload()["workers"]
        w1 = next(r for r in rows if r["id"] == "w1")
        assert w1["metrics_age_s"] is not None
        assert w1["last_trace_segment_at"] is not None
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait(timeout=10)
        service.close(drain=False)


def test_fingerprint_parity_with_federation_on_and_off(tmp_path):
    """House invariant: the verdict fingerprint is byte-identical whether
    the job ran traced+federated or with observability off."""
    fingerprints = {}
    for mode in ("off", "on"):
        observability.disable()
        if mode == "on":
            observability.enable()
        service = JobService(
            journal_dir=str(tmp_path / f"jobsdir-{mode}"), workers=1,
            lease_ttl=5.0,
        )
        try:
            job, __ = service.submit(spec=SPEC, sources=inline_sources())
            done = service.wait(job.id, timeout=30)
            assert done.state == JobState.DONE
            fingerprints[mode] = done.result["fingerprint"]
        finally:
            service.close()
    assert fingerprints["off"] == fingerprints["on"]
    assert fingerprints["on"] == direct_fingerprint()


# ---------------------------------------------------------------------------
# HTTP surface: /fleet, /jobs/<id>/trace, federated /metrics
# ---------------------------------------------------------------------------


@pytest.fixture
def workspace(tmp_path):
    spec = tmp_path / "spec.cpl"
    spec.write_text(SPEC)
    config = tmp_path / "good.ini"
    config.write_text(GOOD_INI)
    return tmp_path, spec, config


@pytest.fixture
def live(workspace):
    tmp, spec, config = workspace
    observability.enable()
    service = ValidationService(str(spec), [SourceSpec("ini", str(config))])
    jobs = JobService(journal_dir=str(tmp / "jobsdir"), workers=1,
                      lease_ttl=5.0)
    service.attach_jobs(jobs)
    server = service.start_http()
    yield service, jobs, server
    service.stop_http()
    jobs.close()


def request_json(url, payload=None):
    import urllib.error
    import urllib.request

    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


class TestHttpSurface:
    def test_trace_endpoint_serves_the_stitched_tree(self, live):
        __, jobs, server = live
        status, body = request_json(server.url + "/jobs", payload={
            "spec": SPEC, "sources": inline_sources(),
        })
        assert status == 202
        jobs.wait(body["id"], timeout=30)
        status, trace = request_json(server.url + f"/jobs/{body['id']}/trace")
        assert status == 200
        assert trace["trace_id"] == body["id"]
        assert trace["roots"] == [f"{body['id']}:root"]
        assert trace["orphan_spans"] == []
        assert {s["name"] for s in trace["spans"]} >= {
            "job", "submit", "claim", "evaluate"}
        assert trace["traceEvents"]

    def test_trace_endpoint_404s_unknown_job(self, live):
        __, __, server = live
        status, body = request_json(server.url + "/jobs/job-missing/trace")
        assert status == 404
        assert "job-missing" in body["error"]

    def test_trace_requests_collapse_to_one_metric_series(self, live):
        __, jobs, server = live
        status, body = request_json(server.url + "/jobs", payload={
            "spec": SPEC, "sources": inline_sources(),
        })
        jobs.wait(body["id"], timeout=30)
        request_json(server.url + f"/jobs/{body['id']}/trace")
        request_json(server.url + "/jobs/job-other/trace")
        series = observability.get_metrics().to_dict()[
            "confvalley_http_requests_total"]["series"]
        paths = {tuple(sorted(s["labels"].items())): s["value"]
                 for s in series}
        assert paths[(("path", "/jobs/:id/trace"),)] == 2.0

    def test_fleet_endpoint_on_jobs_service(self, live):
        __, __, server = live
        status, body = request_json(server.url + "/fleet")
        assert status == 200
        assert body["federation"] is True
        assert "stale_after_s" in body
        assert "traces" in body

    def test_fleet_endpoint_is_200_without_jobs(self, workspace):
        __, spec, config = workspace
        service = ValidationService(str(spec),
                                    [SourceSpec("ini", str(config))])
        server = service.start_http()
        try:
            status, body = request_json(server.url + "/fleet")
            assert status == 200
            assert body == {"federation": False, "workers": [],
                            "traces": {"sources": [], "stored_traces": 0}}
        finally:
            service.stop_http()

    def test_metrics_exposition_stays_parseable_when_federated(self, live):
        __, jobs, server = live
        import urllib.request

        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10) as response:
            text = response.read().decode()
        families = parse_prometheus(text)
        assert "confvalley_fleet_workers" in families

    def test_stats_carries_the_fleet_block(self, live):
        __, __, server = live
        status, body = request_json(server.url + "/stats")
        assert status == 200
        assert body["jobs"]["fleet"]["federation"] is True
        assert "traces" in body["jobs"]["fleet"]


# ---------------------------------------------------------------------------
# CLI: confvalley trace
# ---------------------------------------------------------------------------


class TestTraceCli:
    def test_trace_from_live_url(self, live, capsys, tmp_path):
        __, jobs, server = live
        status, body = request_json(server.url + "/jobs", payload={
            "spec": SPEC, "sources": inline_sources(),
        })
        jobs.wait(body["id"], timeout=30)
        out_file = tmp_path / "trace.json"
        code = main(["trace", server.url, body["id"],
                     "--out", str(out_file)])
        assert code == 0
        document = json.loads(out_file.read_text())
        assert document["trace_id"] == body["id"]
        assert document["traceEvents"]

    def test_trace_stdout_without_out(self, live, capsys):
        __, jobs, server = live
        status, body = request_json(server.url + "/jobs", payload={
            "spec": SPEC, "sources": inline_sources(),
        })
        jobs.wait(body["id"], timeout=30)
        assert main(["trace", server.url, body["id"]]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace_id"] == body["id"]

    def test_trace_offline_from_journal_dir(self, live, capsys):
        __, jobs, server = live
        status, body = request_json(server.url + "/jobs", payload={
            "spec": SPEC, "sources": inline_sources(),
        })
        jobs.wait(body["id"], timeout=30)
        assert wait_until(
            lambda: main(["trace", jobs.directory.root, body["id"]]) == 0
        )
        capsys.readouterr()
        assert main(["trace", jobs.directory.root, body["id"]]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace_id"] == body["id"]
        assert document["roots"] == [f"{body['id']}:root"]

    def test_trace_unreachable_prints_one_line(self, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        code = main(["trace", f"http://127.0.0.1:{port}", "job-x"])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "cannot reach" in err

    def test_trace_missing_directory_fails_cleanly(self, capsys, tmp_path):
        code = main(["trace", str(tmp_path / "nope"), "job-x"])
        assert code == 1
        assert "no job directory" in capsys.readouterr().err

    def test_trace_unknown_job_in_directory(self, capsys, tmp_path):
        directory = JobDirectory(str(tmp_path / "jobsdir")).ensure()
        code = main(["trace", directory.root, "job-x"])
        assert code == 1
        assert "no trace recorded" in capsys.readouterr().err
