"""Durable job journal: the job service's JSON-lines write-ahead log.

The job service must not lose accepted work across a crash or restart
(the paper's service sits inside a deployment workflow — a submitted
change that silently vanishes is worse than a rejected one).  Every
state-changing operation appends **one JSON object per line** (``submit``
carries the full job record, ``update`` carries the changed fields) and
flushes before the in-memory transition is considered done.  On startup
the stream is folded back into the final job records; interpretation of
non-terminal states (re-queue vs mark interrupted) belongs to the
:class:`~repro.jobs.service.JobService`, the journal only reconstructs
facts.  Rotation compacts the stream every ``rotate_after`` appends into
one ``{"event": "snapshot", "jobs": [...]}`` line carrying the live jobs
(terminal jobs evicted by retention drop out of it, which is how the
journal's disk footprint is bounded).

The mechanism — append under one lock, torn-tail-tolerant replay,
incremental tailing, snapshot rotation under the writer lock, atomic
publish — is :mod:`repro.runtime.durable`'s, shared with the worker
partitions, the lifecycle journal and the trace partitions; this module
owns the event grammar and its folds.

**Multi-process partitioning** (``repro.jobs.lease``): when jobs execute
in external worker processes, each writer owns its *own* append-only
partition file — the coordinator writes ``coordinator.jsonl``, worker
``w1`` writes ``workers/w1.jsonl`` — so writers never contend on one
file and a crashed writer can only tear its own trailing line.
:func:`fold_merged` folds the coordinator stream first (the existing
``snapshot``/``submit``/``update`` grammar), then applies worker-stream
``claim``/``terminal`` events under **epoch fencing**: a claim applies
only to a QUEUED job at exactly ``epoch + 1``, a terminal result only to
the RUNNING job at the same epoch and worker.  Replaying a partition
twice, or replaying a zombie worker's stale result after the job was
re-queued, is therefore a no-op — the property the partitioned-replay
tests pin down.
"""

from __future__ import annotations

from ..runtime.durable import JsonLinesLog, LogTail as JournalTail, read_log as read_events

__all__ = [
    "JobJournal",
    "JournalTail",
    "read_events",
    "apply_coordinator_events",
    "apply_worker_event",
    "fold_merged",
]


class JobJournal(JsonLinesLog):
    """Journal of :class:`ValidationJob` events (rotates every 4,096).

    ``rotate`` and ``snapshot_source`` take the live job dicts; the
    snapshot line carries them under ``"jobs"``.
    """

    #: defined on this class rather than inherited, so a job-journal event
    #: can be wrapped and counted apart from every other log's appends
    #: (``benchmarks/ledger/layertrace.py`` wraps it by name)
    append = JsonLinesLog.append

    def _payload(self, jobs) -> dict:
        return {"jobs": list(jobs)}

    @staticmethod
    def fold(events: list[dict], job_factory) -> dict:
        """Fold an event stream into ``{job_id: job}`` final records.

        ``job_factory`` is :meth:`ValidationJob.from_dict` (passed in to
        keep the journal model-agnostic).  Unknown event types and updates
        for unknown jobs are ignored — forward compatibility over
        strictness, the journal is an internal file.
        """
        return apply_coordinator_events({}, events, job_factory)


def apply_coordinator_events(jobs: dict, events: list[dict], job_factory) -> dict:
    """Apply coordinator-partition events to an existing fold state.

    The incremental form of :meth:`JobJournal.fold` — worker processes
    tailing the coordinator partition apply each poll's new events to the
    state they already hold instead of re-reading the file.  A
    ``snapshot`` event (the first line after a rotation) replaces the
    whole state, which is exactly what the post-rotation stream means.
    """
    for event in events:
        kind = event.get("event")
        if kind == "snapshot":
            jobs.clear()
            for record in event.get("jobs", []):
                job = job_factory(record)
                jobs[job.id] = job
        elif kind == "submit":
            job = job_factory(event.get("job", {}))
            jobs[job.id] = job
        elif kind == "update":
            job = jobs.get(event.get("id"))
            if job is None:
                continue
            for key, value in event.get("fields", {}).items():
                if hasattr(job, key):
                    setattr(job, key, value)
    return jobs


# ---------------------------------------------------------------------------
# Partitioned replay (multi-process mode)
# ---------------------------------------------------------------------------

#: worker-partition event kinds, in the order they apply within one epoch
_WORKER_EVENT_RANK = {"claim": 0, "terminal": 1}


def apply_worker_event(job, event: dict) -> bool:
    """Apply one worker-partition event to a job record; True = applied.

    The epoch fence (see the module docstring) makes application
    idempotent and order-insensitive across partitions:

    * ``claim`` applies only to a QUEUED job at exactly ``epoch + 1`` —
      a duplicate claim, a claim for a job another worker already runs,
      or a stale claim from before a re-queue all fall through;
    * ``terminal`` applies only to the RUNNING job at the *same* epoch
      and worker — a zombie worker finishing after its lease expired and
      the job was re-queued writes an event nobody honors.
    """
    kind = event.get("event")
    epoch = event.get("epoch", 0)
    if kind == "claim":
        if job.state == "QUEUED" and epoch == job.epoch + 1:
            job.state = "RUNNING"
            job.epoch = epoch
            job.worker = event.get("worker", "")
            job.attempts += 1
            if event.get("at") is not None:
                job.started_at = event["at"]
            return True
        return False
    if kind == "terminal":
        if (
            job.state == "RUNNING"
            and epoch == job.epoch
            and event.get("worker", "") == job.worker
        ):
            job.state = event.get("state", "FAILED")
            job.result = event.get("result")
            job.error = event.get("error", "")
            if event.get("at") is not None:
                job.finished_at = event["at"]
            return True
        return False
    return False


def fold_merged(
    coordinator_events: list[dict],
    worker_streams: dict[str, list[dict]],
    job_factory,
) -> dict:
    """Fold the coordinator stream, then the worker partitions, into jobs.

    ``worker_streams`` maps partition name → its event list.  Worker
    events are applied per job in ``(epoch, kind, partition, position)``
    order — a deterministic total order that does not depend on which
    partition happened to be listed first, so every process replaying the
    same directory reconstructs byte-identical job records.
    """
    jobs = JobJournal.fold(coordinator_events, job_factory)
    per_job: dict[str, list[tuple]] = {}
    for name in sorted(worker_streams):
        for position, event in enumerate(worker_streams[name]):
            kind = event.get("event")
            if kind not in _WORKER_EVENT_RANK:
                continue
            job_id = event.get("id")
            if not job_id:
                continue
            per_job.setdefault(job_id, []).append((
                event.get("epoch", 0),
                _WORKER_EVENT_RANK[kind],
                name,
                position,
                event,
            ))
    for job_id, entries in per_job.items():
        job = jobs.get(job_id)
        if job is None:
            continue  # claim for a job the coordinator never journalled
        entries.sort(key=lambda entry: entry[:4])
        for *__, event in entries:
            apply_worker_event(job, event)
    return jobs
