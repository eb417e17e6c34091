"""Crash matrix for the durable-state layer (``repro.runtime.durable``).

Every append-only file the service keeps — the job journal and worker
partitions, the lifecycle journal, the trace partitions — is one
:class:`~repro.runtime.durable.JsonLinesLog`, so one matrix covers them
all.  Each case runs against the three readers of that log (the job
fold, the lifecycle fold and the trace reader) and checks what the
reader reconstructs, not just the raw lines:

* a torn tail at every byte offset of the last line, through ``replay``
  and through a :class:`~repro.runtime.durable.LogTail` (the partial line
  is left unconsumed, then consumed exactly once);
* a corrupt middle line;
* an append after a torn tail (a restart on a crashed file) — plus one
  regression per service that restarts on its own file;
* concurrent appends across auto-rotation, with fsync on and off;
* :func:`~repro.runtime.durable.atomic_write` failing mid-publish.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.jobs import (
    JobDirectory,
    JobJournal,
    JobService,
    JobState,
    LeaseStore,
    ValidationJob,
    fold_merged,
    read_events,
)
from repro.jobs.worker import ExternalWorker
from repro.lifecycle import (
    LifecycleJournal,
    PromotionPolicy,
    SpecLifecycleManager,
    SpecRecord,
    SpecState,
    fold,
)
from repro.observability import MetricsRegistry, read_trace_segments, write_snapshot
from repro.observability.federation import TraceSegmentWriter
from repro.runtime import durable
from repro.runtime.durable import LogTail, atomic_write

SPEC = "$s.Timeout -> int\n"


# ---------------------------------------------------------------------------
# The three users of the log, as matrix inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class User:
    """One log user: how it opens its log, what it writes, how it reads."""

    name: str
    open: Callable[[str], object]
    event: Callable[[int], dict]
    read: Callable[[str], list]
    fold: Callable[[list], object]
    #: the payload a rotation snapshot carries for these events, or None
    #: when the user never rotates
    snapshot: Callable[[list], object] = None


def _plain(event: dict) -> dict:
    """``event`` as it reads back from disk (tuples become lists)."""
    return json.loads(json.dumps(event))


def _job_event(n: int) -> dict:
    if n % 3 == 2:  # every third event finishes the job before it
        return {"event": "update", "id": f"job-{n - 1}",
                "fields": {"state": JobState.DONE}}
    job = ValidationJob(id=f"job-{n}", spec_text=SPEC, submitted_at=float(n))
    return _plain({"event": "submit", "job": job.to_dict()})


def _job_fold(events: list) -> dict:
    jobs = JobJournal.fold(events, ValidationJob.from_dict)
    return {job_id: job.to_dict() for job_id, job in jobs.items()}


def _lifecycle_event(n: int) -> dict:
    if n % 3 == 2:  # every third event promotes the spec before it
        return {"event": "transition", "id": f"spec-{n - 1}", "action": "promote",
                "actor": "operator", "reason": "", "at": float(n)}
    record = SpecRecord(id=f"spec-{n}", cpl=f"$s.K{n} -> int", kind="manual",
                        class_key=("s", f"K{n}"), created_at=float(n),
                        updated_at=float(n))
    return _plain({"event": "register", "record": record.to_dict()})


def _lifecycle_fold(events: list) -> tuple:
    records, scan_seq = fold(events, PromotionPolicy())
    return {spec_id: record.to_dict() for spec_id, record in records.items()}, scan_seq


def _lifecycle_snapshot(events: list) -> dict:
    records, scan_seq = fold(events, PromotionPolicy())
    return {"records": [records[key].to_dict() for key in sorted(records)],
            "scan_seq": scan_seq}


def _trace_event(n: int) -> dict:
    return {"v": 1, "trace_id": f"t{n % 2}", "source": "w1", "recorded_at": float(n),
            "spans": [{"span_id": f"s{n}", "name": "evaluate", "start": float(n)}]}


USERS = [
    User("jobs", JobJournal, _job_event, lambda path: JobJournal(path).replay(),
         _job_fold,
         snapshot=lambda events: [job for job in _job_fold(events).values()]),
    User("lifecycle", LifecycleJournal, _lifecycle_event,
         lambda path: LifecycleJournal(path).replay(), _lifecycle_fold,
         snapshot=_lifecycle_snapshot),
    User("trace", lambda path: TraceSegmentWriter(path, "w1"), _trace_event,
         read_trace_segments, lambda events: [
             (segment["trace_id"], segment["spans"]) for segment in events
         ]),
]
ROTATING = [user for user in USERS if user.snapshot is not None]


def _events(user: User, count: int = 5) -> list:
    return [user.event(n) for n in range(count)]


def _line(event: dict) -> bytes:
    return (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _write(user: User, path: str, events: list) -> None:
    log = user.open(path)
    for event in events:
        log.append(event)
    log.close()


@pytest.fixture(params=USERS, ids=lambda user: user.name)
def user(request):
    return request.param


# ---------------------------------------------------------------------------
# Round trip, torn tails and corrupt lines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fsync", [False, True], ids=["flush", "fsync"])
def test_round_trip(user, tmp_path, monkeypatch, fsync):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    path = str(tmp_path / "log.jsonl")
    events = _events(user)
    log = user.open(path)
    log.fsync = fsync
    for event in events:
        log.append(event)
    log.close()
    assert len(synced) == (len(events) if fsync else 0)
    assert user.fold(user.read(path)) == user.fold(events)
    # the file is the events, one canonical JSON line each
    assert Path(path).read_bytes() == b"".join(_line(event) for event in events)


def test_missing_file_reads_empty(user, tmp_path):
    assert user.read(str(tmp_path / "absent.jsonl")) == []
    assert LogTail(str(tmp_path / "absent.jsonl")).poll() == ([], False)


def test_torn_tail_at_every_offset(user, tmp_path):
    """Every prefix of the last line: replay drops it unless it is whole."""
    events = _events(user)
    head = b"".join(_line(event) for event in events[:-1])
    last = _line(events[-1])
    path = tmp_path / "log.jsonl"
    for cut in range(len(last)):
        path.write_bytes(head + last[:cut])
        # a last line that lost only its newline still parses whole
        expected = events if cut == len(last) - 1 else events[:-1]
        assert user.fold(user.read(str(path))) == user.fold(expected), cut


def test_tail_consumes_a_torn_line_once_it_is_whole(user, tmp_path):
    events = _events(user)
    head = b"".join(_line(event) for event in events[:-1])
    last = _line(events[-1])
    path = tmp_path / "log.jsonl"
    for cut in range(len(last)):
        path.write_bytes(head + last[:cut])
        tail = LogTail(str(path))
        assert tail.poll() == (events[:-1], False), cut
        assert tail.poll() == ([], False), cut  # the partial line waits
        with open(path, "ab") as handle:
            handle.write(last[cut:])
        assert tail.poll() == ([events[-1]], False), cut
        assert tail.poll() == ([], False), cut  # ... and is consumed once


def test_corrupt_middle_line_is_skipped(user, tmp_path):
    events = _events(user)
    path = tmp_path / "log.jsonl"
    middle = len(events) // 2
    path.write_bytes(
        b"".join(_line(event) for event in events[:middle])
        + b"{not json}\n[1, 2]\n"  # unparseable, and JSON that is no event
        + b"".join(_line(event) for event in events[middle:])
    )
    assert user.fold(user.read(str(path))) == user.fold(events)
    assert LogTail(str(path)).poll() == (events, False)


def test_tail_resets_when_the_file_shrinks(tmp_path):
    path = str(tmp_path / "log.jsonl")
    log = JobJournal(path)
    for n in range(3):
        log.append(_job_event(n))
    tail = LogTail(path)
    assert len(tail.poll()[0]) == 3
    log.rotate([{"id": "job-kept"}])
    events, reset = tail.poll()
    assert reset and events == [{"event": "snapshot", "jobs": [{"id": "job-kept"}]}]
    log.close()


# ---------------------------------------------------------------------------
# Appending after a torn tail (a restart on a crashed file)
# ---------------------------------------------------------------------------


def test_append_after_torn_tail_at_every_offset(user, tmp_path):
    """A restarted writer's first event survives the torn line before it.

    The torn bytes are never truncated away: a tail in another process
    already polled past the whole lines and must see the new event next.
    """
    first, torn, late = (user.event(n) for n in range(3))
    last = _line(torn)
    path = str(tmp_path / "log.jsonl")
    for cut in range(len(last)):
        with open(path, "wb") as handle:
            handle.write(_line(first) + last[:cut])
        tail = LogTail(path)
        assert tail.poll() == ([first], False)
        _write(user, path, [late])  # the restart's first append
        kept = [first, torn, late] if cut == len(last) - 1 else [first, late]
        assert user.fold(user.read(path)) == user.fold(kept), cut
        assert tail.poll() == (kept[1:], False), cut
        assert os.path.getsize(path) >= len(_line(first)) + cut  # never truncated


def test_torn_tail_repro_gives_a_and_c(user, tmp_path):
    """Append a and b, cut 5 bytes (mid-b), restart, append c."""
    a, b, c = (user.event(n) for n in range(3))
    path = str(tmp_path / "log.jsonl")
    _write(user, path, [a, b])
    os.truncate(path, os.path.getsize(path) - 5)
    _write(user, path, [c])
    assert user.read(path) == [a, c]


def test_lifecycle_promote_after_crash_survives(tmp_path):
    path = str(tmp_path / "lifecycle.jsonl")
    record = SpecRecord.new("manual:s.Timeout", "$s.Timeout -> int", "manual",
                            ("s", "Timeout"))
    journal = LifecycleJournal(path)
    journal.append({"event": "register", "record": record.to_dict()})
    journal.append({"event": "scan", "seq": 1, "ledger": {}})
    journal.close()
    os.truncate(path, os.path.getsize(path) - 3)  # crash mid-scan-event
    manager = SpecLifecycleManager(journal_path=path)
    assert manager.records[record.id].state == SpecState.SHADOW
    manager.promote(record.id, reason="operator call after the crash")
    manager.close()
    reborn = SpecLifecycleManager(journal_path=path)
    assert reborn.records[record.id].state == SpecState.ENFORCED
    reborn.close()


def test_restarted_worker_first_claim_survives(tmp_path):
    directory = JobDirectory(str(tmp_path / "jobs")).ensure()
    coordinator = JobJournal(directory.coordinator_journal)
    for job_id in ("j1", "j2"):
        job = ValidationJob(id=job_id, spec_text=SPEC)
        coordinator.append({"event": "submit", "job": job.to_dict()})
    coordinator.close()
    claim = _line({"event": "claim", "id": "j1", "worker": "w1", "epoch": 1})
    terminal = _line({"event": "terminal", "id": "j1", "worker": "w1",
                      "epoch": 1, "state": "DONE"})
    with open(directory.worker_partition("w1"), "wb") as handle:
        handle.write(claim + terminal[:20])  # killed mid-append
    # the supervisor restarts the worker under the same id
    worker = ExternalWorker(directory.root, worker_id="w1")
    worker.partition.append({"event": "claim", "id": "j2", "worker": "w1", "epoch": 1})
    worker.partition.close()
    streams = {name: read_events(path) for name, path in directory.partitions().items()}
    jobs = fold_merged(read_events(directory.coordinator_journal), streams,
                       ValidationJob.from_dict)
    assert jobs["j2"].state == JobState.RUNNING and jobs["j2"].worker == "w1"
    assert jobs["j1"].state == JobState.RUNNING  # its torn terminal is gone


def test_trace_segment_after_crash_survives(tmp_path):
    path = str(tmp_path / "traces" / "w1.jsonl")
    writer = TraceSegmentWriter(path, "w1", time_fn=lambda: 1.0)
    writer.write("t1", [{"span_id": "a"}])
    writer.write("t2", [{"span_id": "b"}])
    writer.close()
    os.truncate(path, os.path.getsize(path) - 5)
    restarted = TraceSegmentWriter(path, "w1", time_fn=lambda: 2.0)
    restarted.write("t3", [{"span_id": "c"}])
    restarted.close()
    assert [segment["trace_id"] for segment in read_trace_segments(path)] == ["t1", "t3"]


def test_job_submitted_after_a_torn_only_line_survives(tmp_path):
    """Recovery finds no whole event (so it does not rotate); the next
    submit must still land on a line of its own."""
    path = tmp_path / "journal.jsonl"
    path.write_text('{"event":"submit","job":{"id":"job-torn","spec')
    service = JobService(workers=1, journal_path=str(path), start=False)
    try:
        job, __ = service.submit(spec=SPEC, sources=[
            {"format": "ini", "text": "[s]\nTimeout = 3\n", "source": "inline.ini"}
        ])
        assert [event.get("job", {}).get("id") for event in read_events(str(path))] == [
            job.id
        ]
    finally:
        service.close(drain=False)
    recovered = JobService(workers=1, journal_path=str(path), start=False)
    try:
        assert recovered.get(job.id).state == JobState.QUEUED
    finally:
        recovered.close(drain=False)


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("user", ROTATING, ids=lambda user: user.name)
@pytest.mark.parametrize("fsync", [False, True], ids=["flush", "fsync"])
def test_concurrent_appends_across_auto_rotation(user, tmp_path, fsync):
    """No event is lost while other threads' appends trigger rotations.

    The snapshot source re-enters the appenders' shared lock from inside
    the log's writer lock, as the job service and lifecycle manager do.
    """
    lock = threading.RLock()
    written: list = []

    def snapshot_source():
        with lock:
            return user.snapshot(list(written))

    path = str(tmp_path / "log.jsonl")
    log = user.open(path)
    log.rotate_after, log.fsync, log.snapshot_source = 7, fsync, snapshot_source

    def writer(offset):
        for n in range(offset, 120, 4):
            event = user.event(n)
            with lock:
                written.append(event)
                log.append(event)

    threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive(), "appender deadlocked in rotation"
    log.close()
    replayed = user.read(path)
    assert replayed[0]["event"] == "snapshot"  # it really rotated
    assert user.fold(replayed) == user.fold(written)
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


@pytest.mark.parametrize("user", ROTATING, ids=lambda user: user.name)
def test_rotation_snapshot_line_is_canonical(user, tmp_path):
    """One sorted-key line: the snapshot payload plus ``"event"``."""
    events = _events(user)
    path = str(tmp_path / "log.jsonl")
    log = user.open(path)
    for event in events:
        log.append(event)
    payload = user.snapshot(events)
    log.rotate(payload)
    log.close()
    fields = {"jobs": payload} if user.name == "jobs" else dict(payload)
    fields["event"] = "snapshot"
    assert Path(path).read_bytes() == _line(fields)
    assert user.fold(user.read(path)) == user.fold(events)


def test_rotation_thresholds_keep_their_defaults(tmp_path):
    assert JobJournal(str(tmp_path / "j.jsonl")).rotate_after == 4096
    assert LifecycleJournal(str(tmp_path / "l.jsonl")).rotate_after == 2048
    assert not JobJournal(str(tmp_path / "j.jsonl")).fsync


# ---------------------------------------------------------------------------
# atomic_write and the files rewritten whole
# ---------------------------------------------------------------------------


def _fail_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(durable.os, "replace", replace)


def test_atomic_write_publishes_and_fsyncs(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    target = tmp_path / "state.json"
    atomic_write(str(target), '{"a": 1}', "\n")
    assert target.read_text() == '{"a": 1}\n'
    assert len(synced) == 1
    assert os.listdir(tmp_path) == ["state.json"]


def test_failed_atomic_write_leaves_no_temp_and_the_target_unchanged(
    tmp_path, monkeypatch
):
    target = tmp_path / "state.json"
    target.write_text("old")
    _fail_replace(monkeypatch)
    with pytest.raises(OSError):
        atomic_write(str(target), "new")
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["state.json"]


def test_failed_rotation_keeps_the_log(tmp_path, monkeypatch):
    path = str(tmp_path / "j.jsonl")
    log = JobJournal(path)
    log.append(_job_event(0))
    _fail_replace(monkeypatch)
    with pytest.raises(OSError):
        log.rotate([])
    monkeypatch.undo()
    log.append(_job_event(1))
    log.close()
    assert [event["job"]["id"] for event in read_events(path)] == ["job-0", "job-1"]
    assert os.listdir(tmp_path) == ["j.jsonl"]


def test_lease_and_heartbeat_rewrites_fsync_and_clean_up(tmp_path, monkeypatch):
    directory = JobDirectory(str(tmp_path / "jobs")).ensure()
    leases = LeaseStore(directory, ttl=5.0)
    lease = leases.try_claim("j1", "w1", 1)
    leases.announce("w1", jobs_done=0)
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    assert leases.renew(lease)
    leases.announce("w1", jobs_done=1)
    assert len(synced) == 2
    lease_file = Path(leases._lease_path("j1"))
    beat_file = Path(directory.worker_heartbeat("w1"))
    before_lease, before_beat = lease_file.read_text(), beat_file.read_text()
    _fail_replace(monkeypatch)
    with pytest.raises(OSError):
        leases.renew(lease)
    with pytest.raises(OSError):
        leases.announce("w1", jobs_done=2)
    with pytest.raises(OSError):
        directory.publish_spec("base", SPEC)
    assert lease_file.read_text() == before_lease
    assert beat_file.read_text() == before_beat
    for folder in (directory.leases_dir, directory.workers_dir, directory.specs_dir):
        assert not [name for name in os.listdir(folder) if name.endswith(".tmp")]


def test_failed_snapshot_write_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "metrics" / "w1.json"
    target.parent.mkdir()
    registry = MetricsRegistry()
    write_snapshot(str(target), {"scans": 1}, registry)
    before = target.read_text()
    _fail_replace(monkeypatch)
    with pytest.raises(OSError):
        write_snapshot(str(target), {"scans": 2}, registry)
    assert target.read_text() == before
    assert os.listdir(target.parent) == ["w1.json"]
