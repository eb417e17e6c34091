"""The asynchronous job service (``repro.jobs``): units + crash recovery.

The contracts under test:

* **model** — lossless job (de)serialization, the shared verdict schema,
  structured admission errors, ``FMT:PATH[:SCOPE]`` source references;
* **queue** — priority-then-FIFO dispatch, lazy removal of cancelled
  entries, deterministic token-bucket rate limiting on a FakeClock, and
  each admission-control limit rejecting with its own named reason;
* **journal** — append/replay round trips, atomic snapshot rotation and
  event folding (torn-line tolerance is the shared log's, covered by the
  crash matrix in ``tests/test_durable.py``);
* **service** — submission validation, idempotency dedup, fingerprint
  parity with a direct ``validate`` run, priority draining, cancellation
  in every state, timeout supervision, retention eviction, backpressure
  accounting, graceful drain;
* **crash recovery** — a job found RUNNING in the journal is re-queued
  exactly once and then produces the same fingerprint an uninterrupted
  run yields; a second crash parks it as INTERRUPTED; QUEUED jobs simply
  resume.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.session import ValidationSession
from repro.jobs import (
    AdmissionController,
    AdmissionError,
    JobJournal,
    JobQueue,
    JobService,
    JobState,
    TokenBucket,
    ValidationJob,
    error_verdict,
    parse_source_ref,
    verdict_payload,
)
from repro.jobs.model import report_fingerprint_digest
from repro.jobs.service import MAX_REQUEUES
from repro.runtime import FakeClock, StaticRuntime, set_clock

SPEC = "$s.Timeout -> int & [1, 60]\n$s.Flag -> bool\n$s.Name -> nonempty\n"
GOOD_INI = "[s]\nTimeout = 30\nFlag = true\nName = web\n"
BAD_INI = "[s]\nTimeout = 999\nFlag = true\nName = web\n"


@pytest.fixture(autouse=True)
def pristine_clock():
    previous = set_clock(None)
    yield
    set_clock(previous)


@pytest.fixture
def workspace(tmp_path):
    config = tmp_path / "good.ini"
    config.write_text(GOOD_INI)
    return tmp_path, config


def make_service(tmp_path=None, **kwargs):
    kwargs.setdefault("workers", 1)
    if tmp_path is not None:
        kwargs.setdefault("journal_path", str(tmp_path / "journal.jsonl"))
    return JobService(**kwargs)


def inline_sources(text=GOOD_INI):
    return [{"format": "ini", "text": text, "source": "inline.ini"}]


def direct_fingerprint(spec=SPEC, text=GOOD_INI) -> str:
    session = ValidationSession()
    session.load_text("ini", text, source="inline.ini")
    return report_fingerprint_digest(session.validate(spec))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class TestModel:
    def test_job_round_trips_through_dict(self):
        job = ValidationJob(
            spec_text=SPEC, sources=inline_sources(), priority=3,
            tenant="ci", idempotency_key="k1",
        )
        job.state = JobState.DONE
        job.result = {"verdict": "admit"}
        clone = ValidationJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.to_dict() == job.to_dict()

    def test_from_dict_ignores_unknown_fields(self):
        data = ValidationJob(spec_text=SPEC).to_dict()
        data["added_in_a_future_version"] = True
        assert ValidationJob.from_dict(data).spec_text == SPEC

    def test_spec_reference_forms(self):
        assert ValidationJob(spec_name="fleet").spec_reference() == "spec:fleet"
        assert ValidationJob(spec_path="/a.cpl").spec_reference() == "/a.cpl"
        inline = ValidationJob(spec_text=SPEC).spec_reference()
        assert inline.startswith("inline:") and len(inline) == len("inline:") + 12

    def test_wait_and_run_seconds(self):
        job = ValidationJob()
        assert job.wait_seconds is None and job.run_seconds is None
        job.submitted_at, job.started_at, job.finished_at = 10.0, 12.5, 14.0
        assert job.wait_seconds == 2.5
        assert job.run_seconds == 1.5

    def test_verdict_payload_schema_and_truncation(self):
        session = ValidationSession()
        session.load_text("ini", BAD_INI, source="inline.ini")
        report = session.validate(SPEC)
        payload = verdict_payload(report, limit=0)
        assert payload["verdict"] == "reject"
        assert payload["passed"] is False
        assert payload["violations"] == 1
        assert payload["violations_shown"] == 0  # truncated, count kept
        assert payload["fingerprint"] == report_fingerprint_digest(report)
        assert payload["health"] == "OK"

    def test_error_verdict_arm(self):
        payload = error_verdict("boom")
        assert payload["verdict"] == "error"
        assert payload["passed"] is False
        assert payload["error"] == "boom"

    def test_admission_error_to_dict(self):
        error = AdmissionError("rate-limited", "slow down",
                               retry_after=1.2345, rate=5.0)
        assert error.to_dict() == {
            "error": "backpressure",
            "reason": "rate-limited",
            "message": "slow down",
            "retry_after": 1.234,
            "rate": 5.0,
        }

    def test_parse_source_ref(self):
        assert parse_source_ref("ini:/etc/app.ini") == {
            "format": "ini", "path": "/etc/app.ini",
        }
        assert parse_source_ref("csv:data.csv:fleet")["scope"] == "fleet"
        with pytest.raises(ValueError):
            parse_source_ref("just-a-path")
        with pytest.raises(ValueError):
            parse_source_ref(":missing-format")


# ---------------------------------------------------------------------------
# Queue + admission control
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        low = ValidationJob(priority=0)
        first_high = ValidationJob(priority=5)
        second_high = ValidationJob(priority=5)
        for job in (low, first_high, second_high):
            queue.push(job)
        assert queue.pop(timeout=0) is first_high
        assert queue.pop(timeout=0) is second_high
        assert queue.pop(timeout=0) is low

    def test_pop_skips_lazily_cancelled_entries(self):
        queue = JobQueue()
        cancelled = ValidationJob(priority=9)
        survivor = ValidationJob()
        queue.push(cancelled)
        queue.push(survivor)
        cancelled.state = JobState.CANCELLED  # no heap surgery needed
        assert queue.pop(timeout=0) is survivor
        assert queue.pop(timeout=0.01) is None

    def test_pop_times_out_empty(self):
        assert JobQueue().pop(timeout=0.01) is None


class TestTokenBucket:
    def test_burst_then_refill_on_fake_clock(self):
        set_clock(FakeClock())
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        retry_after = bucket.try_take()
        assert retry_after == pytest.approx(0.5)
        set_clock(FakeClock(start=10.0))  # 10 virtual seconds later
        assert bucket.try_take() is None

    def test_disabled_when_rate_nonpositive(self):
        bucket = TokenBucket(rate=0.0)
        assert all(bucket.try_take() is None for __ in range(100))


class TestAdmissionController:
    def test_queue_full_reason(self):
        controller = AdmissionController(max_depth=2, depth=lambda: 2)
        with pytest.raises(AdmissionError) as info:
            controller.admit(ValidationJob())
        assert info.value.reason == AdmissionController.QUEUE_FULL
        assert info.value.to_dict()["max_depth"] == 2

    def test_tenant_limit_reason(self):
        controller = AdmissionController(
            per_tenant_limit=1,
            tenant_in_flight=lambda tenant: 1 if tenant == "busy" else 0,
        )
        controller.admit(ValidationJob(tenant="idle"))
        with pytest.raises(AdmissionError) as info:
            controller.admit(ValidationJob(tenant="busy"))
        assert info.value.reason == AdmissionController.TENANT_LIMIT

    def test_rate_limited_reason_with_retry_hint(self):
        set_clock(FakeClock())
        controller = AdmissionController(rate=1.0, burst=1.0)
        controller.admit(ValidationJob())
        with pytest.raises(AdmissionError) as info:
            controller.admit(ValidationJob())
        assert info.value.reason == AdmissionController.RATE_LIMITED
        assert info.value.retry_after is not None

    def test_rejects_nonsense_depth(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TestJobJournal:
    def test_append_replay_round_trip(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        job = ValidationJob(spec_text=SPEC)
        journal.append({"event": "submit", "job": job.to_dict()})
        journal.append({"event": "update", "id": job.id,
                        "fields": {"state": JobState.DONE}})
        journal.close()
        events = JobJournal(str(tmp_path / "j.jsonl")).replay()
        assert [event["event"] for event in events] == ["submit", "update"]
        folded = JobJournal.fold(events, ValidationJob.from_dict)
        assert folded[job.id].state == JobState.DONE

    def test_rotation_compacts_to_one_snapshot_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        jobs = [ValidationJob(spec_text=SPEC) for __ in range(3)]
        for job in jobs:
            journal.append({"event": "submit", "job": job.to_dict()})
        journal.rotate(job.to_dict() for job in jobs)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        snapshot = json.loads(lines[0])
        assert snapshot["event"] == "snapshot"
        assert len(snapshot["jobs"]) == 3
        folded = JobJournal.fold(journal.replay(), ValidationJob.from_dict)
        assert set(folded) == {job.id for job in jobs}

    def test_auto_rotation_after_threshold(self, tmp_path):
        path = tmp_path / "j.jsonl"
        job = ValidationJob(spec_text=SPEC)
        journal = JobJournal(
            str(path), rotate_after=3,
            snapshot_source=lambda: [job.to_dict()],
        )
        for __ in range(3):
            journal.append({"event": "update", "id": job.id, "fields": {}})
        assert len(path.read_text().splitlines()) == 1  # compacted
        journal.close()

    def test_rotation_blocks_concurrent_appenders(self, tmp_path):
        """Regression: the snapshot is materialized under the writer lock.

        The old compaction snapshotted *outside* the critical section, so
        an event appended between the snapshot and the ``os.replace`` was
        silently dropped.  With the callable form, an appender must block
        for the whole snapshot+swap, then land in the fresh journal.
        """
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        in_snapshot = threading.Event()
        release = threading.Event()

        def snapshot_source():
            in_snapshot.set()
            release.wait(5)
            return [{"id": "job-snap"}]

        rotator = threading.Thread(
            target=lambda: journal.rotate(snapshot_source)
        )
        rotator.start()
        assert in_snapshot.wait(5)
        appended = threading.Event()

        def append_late():
            journal.append(
                {"event": "submit", "job": {"id": "job-late"}}
            )
            appended.set()

        appender = threading.Thread(target=append_late)
        appender.start()
        time.sleep(0.1)
        assert not appended.is_set(), (
            "an append slipped in while the snapshot was being taken"
        )
        release.set()
        rotator.join(5)
        appender.join(5)
        assert appended.is_set()
        events = journal.replay()
        assert events[0]["event"] == "snapshot"
        assert events[1]["job"]["id"] == "job-late"  # after the swap, kept
        journal.close()

    def test_concurrent_appends_survive_auto_rotation(self, tmp_path):
        """Stress the append/auto-rotate race: no event is ever dropped.

        Mirrors the service wiring: appends happen under a shared RLock
        and the snapshot callback re-enters that same lock (the reason it
        must be an RLock), while a tiny ``rotate_after`` forces rotation
        from inside many of the appends.
        """
        lock = threading.RLock()
        state: dict[str, dict] = {}

        def snapshot_source():
            with lock:  # re-entered from inside append's critical section
                return [dict(record) for record in state.values()]

        journal = JobJournal(
            str(tmp_path / "j.jsonl"), rotate_after=7,
            snapshot_source=snapshot_source,
        )

        def writer(prefix):
            for index in range(50):
                job_id = f"{prefix}-{index}"
                with lock:
                    state[job_id] = {"id": job_id}
                    journal.append(
                        {"event": "submit", "job": {"id": job_id}}
                    )

        threads = [
            threading.Thread(target=writer, args=(f"w{n}",))
            for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive(), "appender deadlocked in rotation"
        folded = JobJournal.fold(journal.replay(), ValidationJob.from_dict)
        assert set(folded) == set(state), "rotation dropped appended events"
        journal.close()

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert JobJournal(str(tmp_path / "absent.jsonl")).replay() == []

    def test_fold_ignores_updates_for_unknown_jobs(self):
        events = [{"event": "update", "id": "job-ghost",
                   "fields": {"state": JobState.DONE}}]
        assert JobJournal.fold(events, ValidationJob.from_dict) == {}


# ---------------------------------------------------------------------------
# Service lifecycle
# ---------------------------------------------------------------------------


class TestJobService:
    def test_submit_runs_to_done_with_fingerprint_parity(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job, created = service.submit(
                spec=SPEC, sources=inline_sources()
            )
            assert created is True
            done = service.wait(job.id, timeout=30)
            assert done.state == JobState.DONE
            assert done.result["verdict"] == "admit"
            # the whole point of the async path: same verdict, same bytes
            assert done.result["fingerprint"] == direct_fingerprint()
        finally:
            service.close()

    def test_rejecting_spec_yields_reject_verdict(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job, __ = service.submit(
                spec=SPEC, sources=inline_sources(BAD_INI)
            )
            done = service.wait(job.id, timeout=30)
            assert done.state == JobState.DONE  # ran fine, verdict rejects
            assert done.result["verdict"] == "reject"
            assert done.result["violations"] == 1
        finally:
            service.close()

    def test_source_path_reference(self, tmp_path, workspace):
        __, config = workspace
        service = make_service(tmp_path)
        try:
            job, __ = service.submit(
                spec=SPEC, sources=[f"ini:{config}"]
            )
            done = service.wait(job.id, timeout=30)
            assert done.result["verdict"] == "admit"
        finally:
            service.close()

    def test_registered_spec_name(self, tmp_path):
        service = make_service(tmp_path)
        try:
            service.register_spec("fleet", SPEC)
            job, __ = service.submit(
                spec_name="fleet", sources=inline_sources()
            )
            assert service.wait(job.id, timeout=30).result["verdict"] == "admit"
            missing, __ = service.submit(
                spec_name="nope", sources=inline_sources()
            )
            failed = service.wait(missing.id, timeout=30)
            assert failed.state == JobState.FAILED
            assert "unknown registered spec" in failed.error
        finally:
            service.close()

    def test_idempotency_key_deduplicates(self, tmp_path):
        service = make_service(tmp_path)
        try:
            first, created = service.submit(
                spec=SPEC, sources=inline_sources(), idempotency_key="k"
            )
            again, created_again = service.submit(
                spec=SPEC, sources=inline_sources(), idempotency_key="k"
            )
            assert created and not created_again
            assert again is first
        finally:
            service.close()

    def test_submit_validation_errors(self):
        service = make_service(workers=0)
        with pytest.raises(ValueError):
            service.submit()  # no spec at all
        with pytest.raises(ValueError):
            service.submit(spec=SPEC, spec_name="both")
        with pytest.raises(ValueError):
            service.submit(spec=SPEC, sources=[{"format": "ini"}])
        with pytest.raises(ValueError):
            service.submit(spec=SPEC, sources=[42])

    def test_submit_payload_field_validation(self):
        service = make_service(workers=0)
        with pytest.raises(ValueError, match="unknown field"):
            service.submit_payload({"spec": SPEC, "bogus": 1})
        with pytest.raises(ValueError, match="priority"):
            service.submit_payload({"spec": SPEC, "priority": "high"})
        with pytest.raises(ValueError, match="executor"):
            service.submit_payload({"spec": SPEC, "executor": "gpu"})
        with pytest.raises(ValueError, match="JSON object"):
            service.submit_payload([])

    def test_priority_draining_order(self):
        service = make_service(workers=0)
        low, __ = service.submit(spec=SPEC, priority=0)
        high, __ = service.submit(spec=SPEC, priority=9)
        assert service._next_job(timeout=0) is high
        assert service._next_job(timeout=0) is low

    def test_cancel_queued_is_immediate(self):
        service = make_service(workers=0)
        job, __ = service.submit(spec=SPEC, sources=inline_sources())
        cancelled = service.cancel(job.id)
        assert cancelled.state == JobState.CANCELLED
        assert service._next_job(timeout=0) is None  # lazily dropped
        assert service.stats()["queued"] == 0

    def test_cancel_unknown_and_terminal(self):
        service = make_service(workers=0)
        with pytest.raises(KeyError):
            service.cancel("job-ghost")
        job, __ = service.submit(spec=SPEC, sources=inline_sources())
        service.cancel(job.id)
        with pytest.raises(ValueError):
            service.cancel(job.id)  # already CANCELLED

    def test_queue_full_backpressure_counted(self):
        service = make_service(workers=0, queue_depth=1)
        service.submit(spec=SPEC, sources=inline_sources())
        with pytest.raises(AdmissionError) as info:
            service.submit(spec=SPEC, sources=inline_sources())
        assert info.value.reason == "queue-full"
        assert service.stats()["rejections"] == {"queue-full": 1}

    def test_per_tenant_limit_isolates_tenants(self):
        service = make_service(workers=0, per_tenant_limit=1)
        service.submit(spec=SPEC, tenant="ci")
        with pytest.raises(AdmissionError) as info:
            service.submit(spec=SPEC, tenant="ci")
        assert info.value.reason == "tenant-limit"
        # another tenant is unaffected by ci's saturation
        service.submit(spec=SPEC, tenant="staging")

    def test_rate_limit_rejects_with_retry_hint(self):
        set_clock(FakeClock())
        service = make_service(workers=0, rate=1.0, burst=1.0)
        service.submit(spec=SPEC)
        with pytest.raises(AdmissionError) as info:
            service.submit(spec=SPEC)
        assert info.value.reason == "rate-limited"
        assert info.value.to_dict()["retry_after"] > 0

    def test_timeout_abandons_job_as_failed(self, tmp_path, workspace):
        __, config = workspace
        release = threading.Event()

        class SlowRuntime(StaticRuntime):
            def read_bytes(self, path: str) -> bytes:
                assert release.wait(timeout=30)
                return super().read_bytes(path)

        service = make_service(tmp_path, runtime=SlowRuntime())
        try:
            job, __ = service.submit(
                spec=SPEC, sources=[f"ini:{config}"], timeout=0.2
            )
            done = service.wait(job.id, timeout=30)
            assert done.state == JobState.FAILED
            assert "timeout" in done.error
            assert done.result["verdict"] == "error"
        finally:
            release.set()
            service.close()

    def test_cancel_running_job(self, tmp_path, workspace):
        __, config = workspace
        started = threading.Event()
        release = threading.Event()

        class GatedRuntime(StaticRuntime):
            def read_bytes(self, path: str) -> bytes:
                started.set()
                assert release.wait(timeout=30)
                return super().read_bytes(path)

        service = make_service(tmp_path, runtime=GatedRuntime())
        try:
            job, __ = service.submit(spec=SPEC, sources=[f"ini:{config}"])
            assert started.wait(timeout=30)  # the worker is now inside the job
            service.cancel(job.id)
            done = service.wait(job.id, timeout=30)
            assert done.state == JobState.CANCELLED
        finally:
            release.set()
            service.close()

    def test_retention_evicts_oldest_terminal(self):
        service = make_service(workers=0, retention_count=2,
                               retention_age=None)
        jobs = []
        for index in range(4):
            job, __ = service.submit(spec=SPEC)
            job = service._next_job(timeout=0)
            service._record_terminal(job, JobState.DONE,
                                     {"verdict": "admit"}, "")
            jobs.append(job)
        listed = {row["id"] for row in service.list_jobs()}
        assert listed == {jobs[2].id, jobs[3].id}

    def test_list_jobs_filters_and_orders(self):
        service = make_service(workers=0)
        first, __ = service.submit(spec=SPEC, tenant="ci")
        second, __ = service.submit(spec=SPEC, tenant="staging")
        rows = service.list_jobs()
        assert [row["id"] for row in rows] == [second.id, first.id]
        assert [row["id"] for row in service.list_jobs(tenant="ci")] == [first.id]
        assert service.list_jobs(state=JobState.DONE) == []
        assert len(service.list_jobs(limit=1)) == 1

    def test_stats_shape(self):
        service = make_service(workers=0, queue_depth=7)
        service.submit(spec=SPEC)
        stats = service.stats()
        assert stats["queued"] == 1
        assert stats["queue_depth_cap"] == 7
        assert stats["states"] == {JobState.QUEUED: 1}
        json.dumps(stats)  # JSON-safe by contract

    def test_close_drains_cleanly(self, tmp_path):
        service = make_service(tmp_path, workers=2)
        job, __ = service.submit(spec=SPEC, sources=inline_sources())
        service.wait(job.id, timeout=30)
        assert service.close() is True
        assert not service.pool.running


# ---------------------------------------------------------------------------
# Crash recovery (satellite: exactly-once requeue + fingerprint parity)
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def crash_mid_job(self, tmp_path):
        """Simulate a worker dying mid-job: RUNNING journalled, no terminal."""
        service = make_service(tmp_path, workers=0)
        job, __ = service.submit(spec=SPEC, sources=inline_sources())
        running = service._next_job(timeout=0)  # journals the RUNNING entry
        assert running is job
        service.journal.close()  # the process dies here; nothing terminal
        return job

    def test_midflight_job_requeued_exactly_once(self, tmp_path):
        crashed = self.crash_mid_job(tmp_path)
        service = make_service(tmp_path, workers=1)
        try:
            done = service.wait(crashed.id, timeout=30)
            assert done.state == JobState.DONE
            assert done.requeues == 1
            assert done.attempts == 2  # pre-crash start + the retry
            # exactly once: the journal holds one job, not a duplicate
            assert len(service.list_jobs()) == 1
            # interruption must not change the verdict
            assert done.result["fingerprint"] == direct_fingerprint()
        finally:
            service.close()

    def test_second_crash_parks_job_as_interrupted(self, tmp_path):
        self.crash_mid_job(tmp_path)
        # crash again mid-flight: recover (requeue), start it, die again
        service = make_service(tmp_path, workers=0)
        job = service._next_job(timeout=0)
        assert job is not None and job.requeues == MAX_REQUEUES
        service.journal.close()

        recovered = make_service(tmp_path, workers=0)
        parked = recovered.get(job.id)
        assert parked.state == JobState.INTERRUPTED
        assert "interrupted twice" in parked.error
        assert recovered._next_job(timeout=0) is None  # not retried forever

    def test_queued_jobs_resume_after_restart(self, tmp_path):
        service = make_service(tmp_path, workers=0)
        job, __ = service.submit(spec=SPEC, sources=inline_sources())
        service.close(drain=False)  # SIGTERM path: QUEUED stays durable

        resumed = make_service(tmp_path, workers=1)
        try:
            done = resumed.wait(job.id, timeout=30)
            assert done.state == JobState.DONE
            assert done.requeues == 0  # never started, so not a requeue
            assert done.result["fingerprint"] == direct_fingerprint()
        finally:
            resumed.close()

    def test_terminal_jobs_and_dedup_index_survive_restart(self, tmp_path):
        service = make_service(tmp_path, workers=1)
        job, __ = service.submit(
            spec=SPEC, sources=inline_sources(), idempotency_key="k"
        )
        service.wait(job.id, timeout=30)
        service.close()

        recovered = make_service(tmp_path, workers=0)
        kept = recovered.get(job.id)
        assert kept.state == JobState.DONE
        assert kept.result["fingerprint"] == direct_fingerprint()
        again, created = recovered.submit(
            spec=SPEC, sources=inline_sources(), idempotency_key="k"
        )
        assert created is False and again.id == job.id

    def test_recovery_compacts_journal(self, tmp_path):
        self.crash_mid_job(tmp_path)
        service = make_service(tmp_path, workers=0)
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "snapshot"
        service.journal.close()
