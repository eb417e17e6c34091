"""The asynchronous validation job service (``repro.jobs``).

:class:`JobService` composes the four pieces the ISSUE names into one
facade: the durable journal (:mod:`.journal`), admission-controlled
priority queue (:mod:`.queue`), supervised worker pool (:mod:`.worker`)
and the submission/lifecycle API consumed by the HTTP layer
(:mod:`repro.observability.server`) and the CLI (``confvalley submit`` /
``jobs`` / ``cancel``).

Lifecycle contract:

* **submit** validates the request, deduplicates on the idempotency key,
  runs admission control (raising a structured
  :class:`~repro.jobs.model.AdmissionError` on backpressure — never
  blocking), journals the job, and enqueues it;
* **workers** drain the queue through
  :class:`~repro.jobs.worker.JobExecutor`: per-job timeout/cancel
  supervision, shared compiled-spec cache, verdicts byte-identical to a
  direct ``validate`` run (``fingerprint()`` parity);
* **crash recovery** replays the journal on construction: terminal jobs
  are retained (up to the retention policy), QUEUED jobs resume, and
  RUNNING jobs — in flight when the previous process died — are
  re-queued exactly once, then marked ``INTERRUPTED`` if they die again;
* **drain** (SIGTERM path) finishes running jobs and leaves the rest
  QUEUED in the journal for the next start;
* **retention** evicts terminal jobs beyond ``retention_count`` or older
  than ``retention_age`` seconds, and the journal compacts itself every
  ``rotate_after`` events, so neither memory nor disk grows without bound.

**Multi-process mode** (``journal_dir=`` instead of ``journal_path=``):
the service becomes the *coordinator* of a shared journal directory
(:class:`~repro.jobs.lease.JobDirectory`).  It writes its own
``coordinator.jsonl`` partition; external ``confvalley worker``
processes claim QUEUED jobs under leases (:mod:`.lease`) and append
``claim``/``terminal`` events to their own partitions.  A **reaper**
thread absorbs those events into the in-memory job table, renews the
leases of jobs running on the in-process pool, and expires stale leases
— re-queueing the orphaned job within a bounded ``max_requeues`` budget
and parking it as ``EXPIRED`` beyond it.  The epoch fence
(:func:`~repro.jobs.journal.apply_worker_event`) makes every replay and
absorb idempotent: a SIGKILLed worker's job is re-queued exactly once,
and a zombie's late result is ignored.  ``--worker-procs N`` puts a
:class:`~repro.jobs.worker.WorkerSupervisor` under the same roof.

Jobs carrying a ``callback_url`` get their terminal record POSTed back
through :class:`~repro.jobs.webhook.WebhookDispatcher`; the delivery
state is journalled on the job so a restart re-enqueues only pending
deliveries.

The service is thread-safe with a single coarse lock around state
transitions; the scan loop of a co-hosted
:class:`~repro.service.ValidationService` never blocks on it for longer
than a dict update.  The lock is an ``RLock`` because a journal append
performed under it may trigger auto-rotation, whose snapshot callback
re-enters the lock on the same thread — and because every append happens
under the service lock, the rotate-while-appending lock order is always
service-lock → journal-lock, never the reverse.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from ..observability import (
    FleetView,
    SpanContext,
    Tracer,
    enabled as observability_enabled,
    get_logger,
    get_metrics,
)
from ..parallel.cache import SpecCache
from ..runtime import clock as _clock
from .journal import JobJournal, JournalTail, apply_worker_event, fold_merged
from .lease import (
    DEFAULT_LEASE_TTL,
    JobDirectory,
    LeaseStore,
    heartbeat_interval,
)
from .model import AdmissionError, JobState, ValidationJob
from .queue import AdmissionController, JobQueue
from .webhook import WebhookDispatcher
from .worker import JobExecutor, WorkerPool, WorkerSupervisor

__all__ = ["JobService"]

_log = get_logger("jobs.service")

#: mid-flight attempts crash recovery will re-queue before parking a job
#: (single-file mode, where a RUNNING job in the journal means *this*
#: process died under it)
MAX_REQUEUES = 1

#: lease-expiry re-queues tolerated per job in multi-process mode before
#: the job is parked as EXPIRED (two crashed workers = strike out)
DEFAULT_MAX_REQUEUES = 2


def parse_source_ref(entry: str) -> dict:
    """``FMT:PATH[:SCOPE]`` → a job source descriptor dict."""
    parts = entry.split(":", 2)
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ValueError(f"source reference needs FMT:PATH, got {entry!r}")
    descriptor = {"format": parts[0], "path": parts[1]}
    if len(parts) > 2 and parts[2]:
        descriptor["scope"] = parts[2]
    return descriptor


class JobService:
    """Durable, admission-controlled asynchronous validation jobs."""

    def __init__(
        self,
        journal_path: Optional[str] = None,
        journal_dir: Optional[str] = None,
        workers: int = 2,
        worker_procs: int = 0,
        queue_depth: int = 256,
        per_tenant_limit: int = 0,
        rate: float = 0.0,
        burst: Optional[float] = None,
        retention_count: int = 512,
        retention_age: Optional[float] = 3600.0,
        rotate_after: int = 4096,
        fsync: bool = False,
        spec_cache: Optional[SpecCache] = None,
        runtime=None,
        base_dir: str = ".",
        default_timeout: Optional[float] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat: Optional[float] = None,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        reaper_interval: Optional[float] = None,
        worker_poll: float = 0.2,
        webhook_post=None,
        webhook_max_attempts: int = 5,
        webhook_base_delay: float = 0.5,
        webhook_max_delay: float = 30.0,
        time_fn=time.time,
        start: bool = True,
    ):
        if journal_path is not None and journal_dir is not None:
            raise ValueError(
                "journal_path (single-file) and journal_dir (multi-process "
                "directory) are mutually exclusive"
            )
        self._time = time_fn
        # RLock: journal appends run under this lock and may auto-rotate,
        # whose snapshot callback re-enters it on the same thread
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._jobs: dict[str, ValidationJob] = {}
        self._by_key: dict[str, str] = {}
        self._cancel_events: dict[str, threading.Event] = {}
        self._state_counts = {state: 0 for state in JobState.ALL}
        self._tenant_in_flight: dict[str, int] = {}
        self.rejections: dict[str, int] = {}
        self.retention_count = retention_count
        self.retention_age = retention_age
        self.base_dir = base_dir
        self.spec_cache = spec_cache if spec_cache is not None else SpecCache()
        self.queue = JobQueue()
        self.admission = AdmissionController(
            max_depth=queue_depth,
            per_tenant_limit=per_tenant_limit,
            rate=rate,
            burst=burst,
            depth=lambda: self._state_counts[JobState.QUEUED],
            tenant_in_flight=lambda tenant: self._tenant_in_flight.get(tenant, 0),
        )
        self.executor = JobExecutor(
            spec_cache=self.spec_cache,
            runtime=runtime,
            base_dir=base_dir,
            default_timeout=default_timeout,
        )
        # -- multi-process plumbing (None/empty in single-file mode) ----
        self.directory: Optional[JobDirectory] = None
        self.leases: Optional[LeaseStore] = None
        self.supervisor: Optional[WorkerSupervisor] = None
        self.lease_ttl = float(lease_ttl)
        self.max_requeues = max(0, int(max_requeues))
        self.reaper_interval = (
            float(reaper_interval)
            if reaper_interval is not None
            else heartbeat_interval(lease_ttl)
        )
        self.worker_id = f"inproc-{os.getpid()}"
        self._held_leases: dict[str, object] = {}
        self._worker_tails: dict[str, JournalTail] = {}
        self._worker_counts: dict[str, dict[str, int]] = {}
        self.lease_expiries = 0
        self.requeues_total = 0
        self.expired_total = 0
        self._reaper_stop = threading.Event()
        self._reaper: Optional[threading.Thread] = None
        # webhook dispatcher exists in every mode (callbacks are useful
        # even on a single-process service); constructed before recovery
        # so pending deliveries found in the journal re-enqueue directly
        self.webhooks = WebhookDispatcher(
            post_fn=webhook_post,
            max_attempts=webhook_max_attempts,
            base_delay=webhook_base_delay,
            max_delay=webhook_max_delay,
            time_fn=time_fn,
            on_result=self._webhook_result,
            start=start,
        )
        #: webhook-delivery start times for traced jobs (trace span input)
        self._webhook_trace_start: dict[str, float] = {}
        self.fleet: Optional[FleetView] = None
        self.journal: Optional[JobJournal] = None
        if journal_dir is not None:
            self.directory = JobDirectory(journal_dir).ensure()
            self.leases = LeaseStore(
                self.directory, ttl=lease_ttl, time_fn=time_fn
            )
            # snapshot staleness fencing follows the worker-presence rule:
            # anything older than a lease TTL is presumed dead
            self.fleet = FleetView(
                directory=self.directory,
                stale_after=max(self.lease_ttl, 2.0),
                time_fn=time_fn,
            )
            self.journal = JobJournal(
                self.directory.coordinator_journal,
                rotate_after=rotate_after,
                fsync=fsync,
                snapshot_source=self._snapshot_jobs,
            )
            self._recover_shared()
            if worker_procs > 0:
                self.supervisor = WorkerSupervisor(
                    journal_dir=self.directory.root,
                    count=worker_procs,
                    base_dir=base_dir,
                    lease_ttl=lease_ttl,
                    heartbeat=heartbeat,
                    poll=worker_poll,
                )
        elif journal_path is not None:
            self.journal = JobJournal(
                journal_path,
                rotate_after=rotate_after,
                fsync=fsync,
                snapshot_source=self._snapshot_jobs,
            )
            self._recover()
        if self.fleet is None:
            # single-process modes still stitch in-memory traces so
            # GET /jobs/<id>/trace works without a shared directory
            self.fleet = FleetView(time_fn=time_fn)
        self.pool = WorkerPool(self, workers=workers)
        if start:
            self.pool.start()
            if self.supervisor is not None:
                self.supervisor.start()
            if self.directory is not None:
                self.start_reaper()

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    def _snapshot_jobs(self) -> list[dict]:
        with self._lock:
            return [job.to_dict() for job in self._jobs.values()]

    def _journal_submit(self, job: ValidationJob) -> None:
        if self.journal is not None:
            self.journal.append({"event": "submit", "job": job.to_dict()})

    def _journal_update(self, job: ValidationJob, **fields) -> None:
        if self.journal is not None:
            self.journal.append(
                {"event": "update", "id": job.id, "fields": fields}
            )

    def _recover(self) -> None:
        """Fold the journal back into live state (see module docstring)."""
        events = self.journal.replay()
        if not events:
            return
        jobs = JobJournal.fold(events, ValidationJob.from_dict)
        resumed = requeued = interrupted = 0
        for job in jobs.values():
            self._jobs[job.id] = job
            if job.idempotency_key:
                self._by_key[job.idempotency_key] = job.id
            if job.state == JobState.RUNNING:
                if job.requeues < MAX_REQUEUES:
                    job.requeues += 1
                    job.state = JobState.QUEUED
                    job.started_at = None
                    self._journal_update(
                        job,
                        state=job.state,
                        requeues=job.requeues,
                        started_at=None,
                    )
                    requeued += 1
                else:
                    job.state = JobState.INTERRUPTED
                    job.error = (
                        "interrupted twice by service crashes; not retried"
                    )
                    job.finished_at = self._time()
                    self._journal_update(
                        job,
                        state=job.state,
                        error=job.error,
                        finished_at=job.finished_at,
                    )
                    interrupted += 1
            self._state_counts[job.state] += 1
            if job.state == JobState.QUEUED:
                self._bump_tenant(job.tenant, +1)
                self.queue.push(job)
                resumed += 1
        if resumed or interrupted:
            _log.info(
                "journal recovery complete",
                extra={
                    "jobs": len(jobs),
                    "resumed": resumed,
                    "requeued": requeued,
                    "interrupted": interrupted,
                },
            )
        self._recover_webhooks()
        # recovery rewrote states; compact so the next crash replays the
        # folded view instead of the whole pre-crash event stream (the
        # callable form snapshots under the journal's writer lock)
        self.journal.rotate(self._snapshot_jobs)

    def _recover_shared(self) -> None:
        """Fold coordinator + worker partitions back into live state.

        Tails are created here and left positioned at end-of-file, so the
        reaper's subsequent absorbs see only genuinely new events.  The
        lease directory decides what a RUNNING job means: a fresh lease
        at the job's epoch means its worker is presumed alive and the job
        stays RUNNING; anything else means the attempt died with the
        previous deployment and the job re-enters the queue within the
        ``max_requeues`` budget (terminal EXPIRED beyond it).
        """
        coordinator_events, __ = JournalTail(self.journal.path).poll()
        streams: dict[str, list[dict]] = {}
        for name, path in self.directory.partitions().items():
            tail = JournalTail(path)
            streams[name], __ = tail.poll()
            self._worker_tails[name] = tail
        jobs = fold_merged(
            coordinator_events, streams, ValidationJob.from_dict
        )
        if not jobs:
            return
        now = self._time()
        resumed = requeued = expired = kept_running = 0
        for job in jobs.values():
            self._jobs[job.id] = job
            if job.idempotency_key:
                self._by_key[job.idempotency_key] = job.id
            if job.state == JobState.RUNNING:
                lease = self.leases.read(job.id)
                alive = (
                    lease is not None
                    and lease.epoch == job.epoch
                    and lease.deadline >= now
                )
                if alive:
                    kept_running += 1  # its worker process outlived us
                else:
                    self.leases.break_lease(job.id)
                    job.requeues += 1
                    if job.requeues > self.max_requeues:
                        job.state = JobState.EXPIRED
                        job.error = (
                            f"worker lease expired {job.requeues} times; "
                            "retry budget exhausted"
                        )
                        job.finished_at = now
                        self._journal_update(
                            job,
                            state=job.state,
                            requeues=job.requeues,
                            error=job.error,
                            finished_at=job.finished_at,
                        )
                        expired += 1
                    else:
                        job.state = JobState.QUEUED
                        job.started_at = None
                        self._journal_update(
                            job,
                            state=job.state,
                            requeues=job.requeues,
                            started_at=None,
                        )
                        requeued += 1
            self._state_counts[job.state] += 1
            if job.state in (JobState.QUEUED, JobState.RUNNING):
                self._bump_tenant(job.tenant, +1)
            if job.state == JobState.QUEUED:
                self.queue.push(job)
                resumed += 1
        _log.info(
            "shared-journal recovery complete",
            extra={
                "jobs": len(jobs),
                "resumed": resumed,
                "requeued": requeued,
                "expired": expired,
                "kept_running": kept_running,
            },
        )
        self._recover_webhooks()
        self.journal.rotate(self._snapshot_jobs)

    def _recover_webhooks(self) -> None:
        """Re-enqueue callback deliveries that were pending at the crash."""
        with self._lock:
            for job in self._jobs.values():
                if not (job.terminal and job.callback_url):
                    continue
                if job.webhook is not None and job.webhook.get("state") != "pending":
                    continue  # already delivered or dead-lettered
                self._enqueue_webhook_locked(job)

    # ------------------------------------------------------------------
    # State accounting (always called under self._lock)
    # ------------------------------------------------------------------

    def _bump_tenant(self, tenant: str, delta: int) -> None:
        count = self._tenant_in_flight.get(tenant, 0) + delta
        if count <= 0:
            self._tenant_in_flight.pop(tenant, None)
        else:
            self._tenant_in_flight[tenant] = count

    def _transition(self, job: ValidationJob, state: str) -> None:
        self._state_counts[job.state] -= 1
        self._state_counts[state] += 1
        job.state = state

    # ------------------------------------------------------------------
    # Spec registry
    # ------------------------------------------------------------------

    def register_spec(self, name: str, text: str) -> None:
        """Publish a named server-side spec for ``spec_name`` submissions.

        In multi-process mode the spec is also written to the shared
        ``specs/`` directory, where external worker processes resolve it.
        """
        self.executor.spec_registry[name] = text
        if self.directory is not None:
            self.directory.publish_spec(name, text)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        spec: str = "",
        spec_name: str = "",
        spec_path: str = "",
        sources: Optional[list] = None,
        priority: int = 0,
        tenant: str = "default",
        idempotency_key: str = "",
        timeout: Optional[float] = None,
        executor: Optional[str] = None,
        resilience: Optional[dict] = None,
        mode: str = "full",
        baseline_sources: Optional[list] = None,
        callback_url: str = "",
        workflow: Optional[dict] = None,
    ) -> tuple[ValidationJob, bool]:
        """Accept one validation request.

        Returns ``(job, created)`` — ``created`` is False when the
        idempotency key matched an existing job, which is returned
        unchanged.  Raises :class:`ValueError` on a malformed request and
        :class:`AdmissionError` on backpressure.

        ``mode="delta"`` scopes the run to the statements affected by the
        difference between ``sources`` and ``baseline_sources`` (the
        before-the-change snapshot); see
        :meth:`repro.jobs.worker.JobExecutor._validate_delta`.

        ``mode="workflow"`` runs the composed pipeline in ``workflow``
        (the :meth:`repro.workflows.Workflow.from_dict` mapping schema);
        per-step statuses stream onto the job record while it runs.  The
        job's spec reference becomes the default for ``validate`` steps
        and may be omitted when every step carries its own spec.
        """
        if mode not in ("full", "delta", "workflow"):
            raise ValueError("mode must be 'full', 'delta' or 'workflow'")
        provided = [bool(spec), bool(spec_name), bool(spec_path)]
        if mode == "workflow":
            if not isinstance(workflow, dict):
                raise ValueError("mode='workflow' requires a workflow mapping")
            # eager validation: a malformed definition is a 400 at submit,
            # not a FAILED job minutes later
            from ..workflows import Workflow, WorkflowError

            try:
                Workflow.from_dict(workflow)
            except WorkflowError as exc:
                raise ValueError(f"invalid workflow: {exc}") from exc
            if sum(provided) > 1:
                raise ValueError(
                    "at most one of spec (inline text), spec_name or "
                    "spec_path may be provided for a workflow job"
                )
        else:
            if workflow is not None:
                raise ValueError("a workflow definition requires mode='workflow'")
            if sum(provided) != 1:
                raise ValueError(
                    "exactly one of spec (inline text), spec_name or spec_path "
                    "must be provided"
                )
        if mode != "delta" and baseline_sources:
            raise ValueError("baseline_sources requires mode='delta'")
        if callback_url and not callback_url.startswith(("http://", "https://")):
            raise ValueError("callback_url must be an http(s) URL")
        normalized = self._normalize_sources(sources)
        baseline = self._normalize_sources(baseline_sources)
        job = ValidationJob(
            idempotency_key=idempotency_key,
            spec_text=spec,
            spec_name=spec_name,
            spec_path=spec_path,
            sources=normalized,
            mode=mode,
            baseline_sources=baseline,
            workflow=dict(workflow) if workflow is not None else None,
            priority=int(priority),
            tenant=str(tenant) or "default",
            timeout=timeout,
            executor=executor,
            resilience=dict(resilience) if resilience else None,
            callback_url=callback_url,
        )
        with self._lock:
            if idempotency_key and idempotency_key in self._by_key:
                existing = self._jobs.get(self._by_key[idempotency_key])
                if existing is not None:
                    self._count_submit(existing.tenant, deduplicated=True)
                    return existing, False
            try:
                self.admission.admit(job)
            except AdmissionError as error:
                self.rejections[error.reason] = (
                    self.rejections.get(error.reason, 0) + 1
                )
                self._count_rejection(error.reason)
                raise
            job.submitted_at = self._time()
            self._trace_submit_locked(job)
            self._jobs[job.id] = job
            if idempotency_key:
                self._by_key[idempotency_key] = job.id
            self._state_counts[JobState.QUEUED] += 1
            self._bump_tenant(job.tenant, +1)
            self._journal_submit(job)
            self._count_submit(job.tenant, deduplicated=False)
        self.queue.push(job)
        _log.info(
            "job submitted",
            extra={
                "job": job.id,
                "tenant": job.tenant,
                "priority": job.priority,
                "spec": job.spec_reference(),
            },
        )
        return job, True

    # ------------------------------------------------------------------
    # Distributed job traces (see repro.observability.federation)
    # ------------------------------------------------------------------

    def _trace_submit_locked(self, job: ValidationJob) -> None:
        """Open the job's root span and record the ``submit`` segment.

        Only when observability is enabled — the trace context rides the
        job record to whichever worker claims it, and span timestamps are
        wall-clock (``self._time``) because they are compared across
        processes.  Nil cost (``job.trace`` stays None) when disabled.
        """
        if not observability_enabled():
            return
        now = self._time()
        root_id = f"{job.id}:root"
        job.trace = {"trace_id": job.id, "span_id": root_id}
        self.fleet.record_segment(
            job.id,
            [
                {
                    "span_id": root_id,
                    "parent_id": "",
                    "name": "job",
                    "start": job.submitted_at,
                    "end": None,
                    "attrs": {
                        "job": job.id,
                        "tenant": job.tenant,
                        "spec": job.spec_reference(),
                    },
                },
                {
                    "span_id": f"{job.id}:submit",
                    "parent_id": root_id,
                    "name": "submit",
                    "start": job.submitted_at,
                    "end": now,
                    "attrs": {"source": FleetView.SOURCE},
                },
            ],
        )

    def _trace_close_root(self, job: ValidationJob, **attrs) -> None:
        """Re-emit the root span closed; stitching merges by span id."""
        if not job.trace or self.fleet is None:
            return
        end = self._time()
        self.fleet.record_segment(
            job.trace["trace_id"],
            [
                {
                    "span_id": job.trace["span_id"],
                    "parent_id": "",
                    "name": "job",
                    "start": job.submitted_at if job.submitted_at else end,
                    "end": end,
                    "attrs": dict(attrs, state=job.state),
                }
            ],
        )

    def _trace_terminal_locked(self, job: ValidationJob) -> None:
        """Close the root at terminal unless a webhook delivery will."""
        if not job.trace or job.callback_url:
            return
        self._trace_close_root(job, closed_by="terminal")

    def _job_tracer(self, job: ValidationJob):
        """A wall-clock tracer continuing the job's trace in this process."""
        if not job.trace:
            return None
        attempt = job.epoch or job.attempts
        return Tracer(
            origin=SpanContext(job.trace["trace_id"], job.trace["span_id"]),
            prefix=f"{job.id}:{self.worker_id}.{attempt}:",
            time_source=self._time,
        )

    @staticmethod
    def _normalize_sources(sources: Optional[list]) -> list:
        """String refs → descriptor dicts; validate descriptor shapes."""
        normalized = []
        for source in sources or []:
            if isinstance(source, str):
                normalized.append(parse_source_ref(source))
            elif isinstance(source, dict):
                if not source.get("format"):
                    raise ValueError(f"source needs a 'format': {source!r}")
                if "text" not in source and not source.get("path"):
                    raise ValueError(
                        f"source needs 'path' or inline 'text': {source!r}"
                    )
                normalized.append(dict(source))
            else:
                raise ValueError(f"unsupported source entry: {source!r}")
        return normalized

    def submit_payload(self, payload: dict) -> tuple[ValidationJob, bool]:
        """HTTP-shaped submission: validate a JSON body, then submit."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        allowed = {
            "spec", "spec_name", "spec_path", "sources", "priority",
            "tenant", "idempotency_key", "timeout", "executor", "resilience",
            "mode", "baseline_sources", "callback_url", "workflow",
        }
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(unknown)}")
        for name in (
            "spec", "spec_name", "spec_path", "tenant", "idempotency_key",
            "callback_url",
        ):
            if name in payload and not isinstance(payload[name], str):
                raise ValueError(f"{name!r} must be a string")
        if "executor" in payload and payload["executor"] is not None:
            if payload["executor"] not in ("auto", "serial", "thread", "process"):
                raise ValueError(
                    "executor must be one of auto/serial/thread/process"
                )
        if "priority" in payload and not isinstance(payload["priority"], int):
            raise ValueError("'priority' must be an integer")
        if "timeout" in payload and payload["timeout"] is not None:
            if not isinstance(payload["timeout"], (int, float)):
                raise ValueError("'timeout' must be a number of seconds")
        if "sources" in payload and not isinstance(payload["sources"], list):
            raise ValueError("'sources' must be a list")
        if "mode" in payload and payload["mode"] not in (
            "full", "delta", "workflow",
        ):
            raise ValueError("'mode' must be 'full', 'delta' or 'workflow'")
        if "workflow" in payload and payload["workflow"] is not None:
            if not isinstance(payload["workflow"], dict):
                raise ValueError("'workflow' must be an object")
        if "baseline_sources" in payload and not isinstance(
            payload["baseline_sources"], list
        ):
            raise ValueError("'baseline_sources' must be a list")
        if "resilience" in payload and payload["resilience"] is not None:
            if not isinstance(payload["resilience"], dict):
                raise ValueError("'resilience' must be an object")
        return self.submit(**payload)

    def _count_submit(self, tenant: str, deduplicated: bool) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_jobs_submitted_total",
                "Job submissions accepted, by tenant and dedup outcome.",
            ).inc(tenant=tenant, deduplicated=str(deduplicated).lower())
            self._update_depth_gauges()

    def _count_rejection(self, reason: str) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_job_rejections_total",
                "Submissions rejected by admission control, by reason.",
            ).inc(reason=reason)

    def _update_depth_gauges(self) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge(
                "confvalley_job_queue_depth",
                "Jobs currently waiting in the queue.",
            ).set(self._state_counts[JobState.QUEUED])
            metrics.gauge(
                "confvalley_jobs_running",
                "Jobs currently executing on the worker pool.",
            ).set(self._state_counts[JobState.RUNNING])

    # ------------------------------------------------------------------
    # Worker protocol (called from WorkerPool threads)
    # ------------------------------------------------------------------

    def _next_job(self, timeout: float = 0.1) -> Optional[ValidationJob]:
        """Pop and transition the next runnable job to RUNNING.

        In multi-process mode the in-process pool competes with external
        workers under the same rules: it must win the job's lease before
        transitioning.  Losing the claim just drops the queue entry — the
        absorb path marks the job RUNNING once the winner's claim event
        lands, and a later re-queue pushes a fresh entry.
        """
        job = self.queue.pop(timeout=timeout)
        if job is None:
            return None
        with self._lock:
            if job.state != JobState.QUEUED:
                return None  # cancelled between pop and this check
            lease = None
            if self.leases is not None:
                lease = self.leases.try_claim(
                    job.id, self.worker_id, job.epoch + 1
                )
                if lease is None:
                    return None  # an external worker holds the claim
                job.epoch = lease.epoch
                job.worker = self.worker_id
                self._held_leases[job.id] = lease
                self._count_lease("claim", worker=self.worker_id)
            self._transition(job, JobState.RUNNING)
            job.started_at = self._time()
            job.attempts += 1
            self._cancel_events[job.id] = threading.Event()
            self._journal_update(
                job,
                state=job.state,
                started_at=job.started_at,
                attempts=job.attempts,
                epoch=job.epoch,
                worker=job.worker,
            )
        metrics = get_metrics()
        if metrics.enabled:
            wait = job.wait_seconds
            if wait is not None:
                metrics.histogram(
                    "confvalley_job_wait_seconds",
                    "Queue wait per job: submission to execution start.",
                ).observe(wait)
            self._update_depth_gauges()
        return job

    def _run_job(self, job: ValidationJob) -> None:
        """Execute one RUNNING job and record its terminal transition."""
        cancel = self._cancel_events.get(job.id)
        tracer = self._job_tracer(job)
        if tracer is not None:
            with tracer.span("claim", worker=self.worker_id, epoch=job.epoch):
                pass  # in-process claim won in _next_job; mark the handoff
        state, result, error = self.executor.execute(job, cancel, tracer=tracer)
        if tracer is not None:
            self.fleet.record_segment(job.id, tracer.finished_spans())
        self._record_terminal(job, state, result, error)

    def _record_terminal(
        self,
        job: ValidationJob,
        state: str,
        result: Optional[dict],
        error: str,
    ) -> None:
        with self._lock:
            self._transition(job, state)
            job.result = result
            job.error = error
            job.finished_at = self._time()
            self._bump_tenant(job.tenant, -1)
            self._cancel_events.pop(job.id, None)
            self._journal_update(
                job,
                state=state,
                result=result,
                error=error,
                finished_at=job.finished_at,
            )
            # terminal-before-release, same as external workers: the
            # durable record exists before the lease can be re-claimed
            lease = self._held_leases.pop(job.id, None)
            if lease is not None and self.leases is not None:
                self.leases.release(lease)
            self._enqueue_webhook_locked(job)
            self._trace_terminal_locked(job)
            self._evict_locked()
            self._done.notify_all()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_jobs_finished_total",
                "Jobs reaching a terminal state, by state.",
            ).inc(state=state)
            run = job.run_seconds
            if run is not None:
                metrics.histogram(
                    "confvalley_job_run_seconds",
                    "Execution wall clock per job.",
                ).observe(run)
            self._update_depth_gauges()
        _log.info(
            "job finished",
            extra={
                "job": job.id,
                "state": state,
                "verdict": (result or {}).get("verdict"),
                "run_seconds": job.run_seconds,
            },
        )

    # ------------------------------------------------------------------
    # Completion webhooks
    # ------------------------------------------------------------------

    def _enqueue_webhook_locked(self, job: ValidationJob) -> None:
        """Queue the terminal record for delivery to ``callback_url``."""
        if not job.callback_url:
            return
        job.webhook = {"state": "pending", "attempts": 0}
        if job.trace:
            self._webhook_trace_start[job.id] = self._time()
        self._journal_update(job, webhook=job.webhook)
        self.webhooks.submit(job.id, job.callback_url, job.to_dict())

    def _webhook_result(
        self, job_id: str, outcome: str, attempts: int, error: str
    ) -> None:
        """Dispatcher callback: journal the final delivery state.

        For traced jobs this is also where the distributed trace ends —
        the delivery gets its own span and the root is re-emitted closed.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            started = self._webhook_trace_start.pop(job_id, None)
            if job is None:
                return  # evicted by retention meanwhile; nothing to pin
            job.webhook = {"state": outcome, "attempts": attempts}
            if error:
                job.webhook["error"] = error
            self._journal_update(job, webhook=job.webhook)
            if job.trace and self.fleet is not None:
                now = self._time()
                attrs = {"outcome": outcome, "attempts": attempts}
                if error:
                    attrs["error"] = error
                self.fleet.record_segment(
                    job.trace["trace_id"],
                    [
                        {
                            "span_id": f"{job.id}:webhook",
                            "parent_id": job.trace["span_id"],
                            "name": "webhook",
                            "start": started if started is not None else now,
                            "end": now,
                            "attrs": attrs,
                        }
                    ],
                )
                self._trace_close_root(job, closed_by="webhook")

    # ------------------------------------------------------------------
    # Reaper: absorb worker events, renew own leases, expire stale ones
    # ------------------------------------------------------------------

    def start_reaper(self) -> None:
        if self._reaper is not None or self.directory is None:
            return
        self._reaper_stop.clear()
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="confvalley-reaper", daemon=True
        )
        self._reaper.start()

    def _reaper_loop(self) -> None:
        while not self._reaper_stop.wait(self.reaper_interval):
            try:
                self.reaper_tick()
            except Exception:  # the reaper must outlive any one bad tick
                _log.exception("reaper tick failed")

    def reaper_tick(self) -> dict:
        """One coordination pass; public so tests can drive it directly.

        Order matters: absorb first (a worker's terminal event beats its
        lease's expiry), renew the in-process pool's leases, then judge
        the rest.  A RUNNING job whose lease *vanished* gets one more
        absorb before being re-queued — release strictly follows the
        terminal append in the worker protocol, so if the lease is gone
        the result is already on disk and the second poll reads it.
        """
        summary = {"absorbed": 0, "requeued": 0, "expired": 0, "restarted": 0}
        held: list = []
        with self._lock:
            summary["absorbed"] = self._absorb_worker_events_locked()
            held = sorted(self._held_leases)
            if self.leases is not None:
                for lease in list(self._held_leases.values()):
                    self.leases.renew(lease)
                now = self._time()
                candidates = [
                    job
                    for job in self._jobs.values()
                    if job.state == JobState.RUNNING
                    and job.id not in self._held_leases
                    and self._lease_stale(job, now)
                ]
                if candidates:
                    summary["absorbed"] += self._absorb_worker_events_locked()
                for job in candidates:
                    if job.state != JobState.RUNNING:
                        continue  # its terminal event landed in the re-poll
                    if self._expire_locked(job):
                        summary["expired"] += 1
                    else:
                        summary["requeued"] += 1
                self._sweep_orphan_leases_locked()
        if self.supervisor is not None:
            summary["restarted"] = self.supervisor.check()
        if self.pool.workers > 0 and self.leases is not None:
            self.leases.announce(
                self.worker_id,
                kind="in-process",
                threads=self.pool.workers,
                current_jobs=held,
            )
        self._gauge_leases()
        return summary

    def _lease_stale(self, job: ValidationJob, now: float) -> bool:
        lease = self.leases.read(job.id)
        return lease is None or lease.deadline < now

    def _expire_locked(self, job: ValidationJob) -> bool:
        """Re-queue (False) or park as EXPIRED (True) an orphaned job."""
        self.leases.break_lease(job.id)
        job.requeues += 1
        self.lease_expiries += 1
        self._count_lease("expire", worker=job.worker or "unknown")
        if job.requeues > self.max_requeues:
            self.expired_total += 1
            error = (
                f"worker lease expired {job.requeues} times; "
                "retry budget exhausted"
            )
            _log.warning(
                "lease retry budget exhausted; parking job",
                extra={"job": job.id, "requeues": job.requeues},
            )
            self._transition(job, JobState.EXPIRED)
            job.result = None
            job.error = error
            job.finished_at = self._time()
            self._bump_tenant(job.tenant, -1)
            self._journal_update(
                job,
                state=job.state,
                requeues=job.requeues,
                error=error,
                finished_at=job.finished_at,
            )
            self._enqueue_webhook_locked(job)
            self._trace_terminal_locked(job)
            self._count_finished(JobState.EXPIRED)
            self._done.notify_all()
            return True
        self.requeues_total += 1
        self._count_requeue("lease-expired")
        _log.warning(
            "lease expired; re-queueing job",
            extra={
                "job": job.id,
                "worker": job.worker,
                "requeues": job.requeues,
            },
        )
        self._transition(job, JobState.QUEUED)
        job.started_at = None
        self._journal_update(
            job,
            state=job.state,
            requeues=job.requeues,
            started_at=None,
        )
        self.queue.push(job)
        return False

    def _sweep_orphan_leases_locked(self) -> None:
        """Break expired leases that never became a RUNNING job.

        A worker that died between winning the lease file and appending
        its claim event leaves a lease pointing at a QUEUED (or unknown)
        job.  No attempt ever started, so this costs no re-queue budget —
        but the lease must go, or the job is unclaimable forever; a
        QUEUED job also re-enters the in-memory heap, since the pool's
        entry for it was consumed by the failed claim attempt.
        """
        for lease in self.leases.expired():
            if lease.job_id in self._held_leases:
                continue
            job = self._jobs.get(lease.job_id)
            if job is not None and job.state == JobState.RUNNING:
                continue  # the expiry path above owns this case
            self.leases.break_lease(lease.job_id)
            if job is not None and job.state == JobState.QUEUED:
                self.queue.push(job)

    def _absorb_worker_events_locked(self) -> int:
        """Fold newly-appended worker-partition events into live state."""
        if self.directory is None:
            return 0
        applied = 0
        for name, path in self.directory.partitions().items():
            tail = self._worker_tails.get(name)
            if tail is None:
                tail = self._worker_tails[name] = JournalTail(path)
            events, __ = tail.poll()
            for event in events:
                job = self._jobs.get(event.get("id", ""))
                if job is None:
                    continue
                before = job.state
                if not apply_worker_event(job, event):
                    continue
                applied += 1
                if job.state != before:
                    self._state_counts[before] -= 1
                    self._state_counts[job.state] += 1
                counts = self._worker_counts.setdefault(
                    job.worker, {"claims": 0, "done": 0}
                )
                if event.get("event") == "claim":
                    counts["claims"] += 1
                    self._count_lease("claim", worker=job.worker)
                    self._journal_update(
                        job,
                        state=job.state,
                        epoch=job.epoch,
                        worker=job.worker,
                        attempts=job.attempts,
                        started_at=job.started_at,
                    )
                else:  # terminal
                    counts["done"] += 1
                    self._bump_tenant(job.tenant, -1)
                    self._cancel_events.pop(job.id, None)
                    self._journal_update(
                        job,
                        state=job.state,
                        result=job.result,
                        error=job.error,
                        finished_at=job.finished_at,
                    )
                    self._enqueue_webhook_locked(job)
                    self._trace_terminal_locked(job)
                    self._count_finished(job.state)
                    _log.info(
                        "absorbed worker result",
                        extra={
                            "job": job.id,
                            "worker": job.worker,
                            "state": job.state,
                        },
                    )
        if applied:
            self._evict_locked()
            self._done.notify_all()
            self._update_depth_gauges()
        return applied

    # ------------------------------------------------------------------
    # Worker fleet introspection (GET /workers)
    # ------------------------------------------------------------------

    def workers_payload(self) -> dict:
        """The fleet view: presence, live leases, per-worker counters."""
        if self.directory is None or self.leases is None:
            return {
                "mode": "single-process",
                "pool_threads": self.pool.workers,
                "workers": [],
                "leases": [],
            }
        now = self._time()
        with self._lock:
            counts = {
                worker: dict(count)
                for worker, count in self._worker_counts.items()
            }
            held = sorted(self._held_leases)
        workers = self.leases.workers()
        metric_ages = {
            row["worker"]: row["metrics_age_s"]
            for row in self.fleet.metric_rows()
        }
        trace_last = {
            row["source"]: row["last_segment_at"]
            for row in self.fleet.trace_stats()
        }
        for row in workers:
            worker_id = row.get("id", "")
            row["counts"] = counts.get(worker_id, {})
            # observability staleness alongside lease state (fleet triage)
            row["metrics_age_s"] = metric_ages.get(worker_id)
            row["last_trace_segment_at"] = trace_last.get(worker_id)
        leases = []
        for lease in self.leases.live_leases():
            record = lease.to_dict()
            record["expires_in"] = round(lease.deadline - now, 3)
            leases.append(record)
        payload = {
            "mode": "multi-process",
            "journal_dir": self.directory.root,
            "lease_ttl": self.lease_ttl,
            "max_requeues": self.max_requeues,
            "pool_threads": self.pool.workers,
            "inproc_held": held,
            "workers": workers,
            "leases": leases,
            "lease_expiries": self.lease_expiries,
            "requeues": self.requeues_total,
            "expired_jobs": self.expired_total,
        }
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.status()
        return payload

    # ------------------------------------------------------------------
    # Fleet observability (GET /fleet, federated /metrics, job traces)
    # ------------------------------------------------------------------

    def trace(self, job_id: str) -> dict:
        """The stitched cross-process trace for one job (by trace id)."""
        return self.fleet.trace(job_id)

    def federated_metrics(self) -> Optional[dict]:
        """Merged metric families for the fleet, or None single-process.

        The coordinator's own registry plus every fresh worker snapshot
        (``worker``-labeled) plus the ``confvalley_fleet_*`` rollup and
        presence families — the document behind ``/metrics`` and
        ``/metrics.json`` in multi-process mode.
        """
        if self.directory is None:
            return None
        return self.fleet.merged_families(get_metrics().to_dict())

    def fleet_payload(self) -> dict:
        """The ``GET /fleet`` document: presence ⋈ freshness ⋈ throughput."""
        payload = self.fleet.fleet_payload()
        with self._lock:
            counts = {
                worker: dict(count)
                for worker, count in self._worker_counts.items()
            }
        for row in payload["workers"]:
            row["counts"] = counts.get(row["worker"], {})
        payload["presence"] = (
            self.leases.workers() if self.leases is not None else []
        )
        return payload

    # ------------------------------------------------------------------
    # Lease / requeue metrics
    # ------------------------------------------------------------------

    def _count_lease(self, event: str, worker: str) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_lease_events_total",
                "Lease lifecycle events, by event kind and worker.",
            ).inc(event=event, worker=worker)

    def _count_requeue(self, reason: str) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_job_requeues_total",
                "Mid-flight jobs returned to the queue, by reason.",
            ).inc(reason=reason)

    def _count_finished(self, state: str) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_jobs_finished_total",
                "Jobs reaching a terminal state, by state.",
            ).inc(state=state)

    def _gauge_leases(self) -> None:
        metrics = get_metrics()
        if metrics.enabled and self.leases is not None:
            metrics.gauge(
                "confvalley_leases_active",
                "Live lease files in the shared job directory.",
            ).set(len(self.leases.live_leases()))

    # ------------------------------------------------------------------
    # Lifecycle API
    # ------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[ValidationJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> ValidationJob:
        """Cancel a job: immediate for QUEUED, best-effort for RUNNING.

        Raises :class:`KeyError` for unknown ids and :class:`ValueError`
        when the job is already terminal.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.terminal:
                raise ValueError(f"job {job_id} is already {job.state}")
            job.cancel_requested = True
            if job.state == JobState.QUEUED:
                self._transition(job, JobState.CANCELLED)
                job.finished_at = self._time()
                job.error = "cancelled before execution"
                self._bump_tenant(job.tenant, -1)
                self._journal_update(
                    job,
                    state=job.state,
                    cancel_requested=True,
                    error=job.error,
                    finished_at=job.finished_at,
                )
                self._trace_terminal_locked(job)
                self._done.notify_all()
            else:  # RUNNING: the supervising worker observes the event
                event = self._cancel_events.get(job.id)
                if event is not None:
                    event.set()
                self._journal_update(job, cancel_requested=True)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_job_cancellations_total",
                "Cancellation requests accepted, by state at request time.",
            ).inc(state=job.state)
            self._update_depth_gauges()
        return job

    def wait(self, job_id: str, timeout: Optional[float] = None) -> ValidationJob:
        """Block until the job reaches a terminal state (test/CLI helper)."""
        deadline = None if timeout is None else _clock.now() + timeout
        with self._done:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise KeyError(job_id)
                if job.terminal:
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - _clock.now()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"job {job_id} still {job.state} after {timeout}s"
                        )
                self._done.wait(remaining if remaining is not None else 0.5)

    def list_jobs(
        self,
        state: Optional[str] = None,
        tenant: Optional[str] = None,
        limit: int = 50,
    ) -> list[dict]:
        """Job summaries, newest submissions first, optionally filtered."""
        with self._lock:
            jobs = list(self._jobs.values())
        if state:
            jobs = [job for job in jobs if job.state == state]
        if tenant:
            jobs = [job for job in jobs if job.tenant == tenant]
        jobs.sort(key=lambda job: (job.submitted_at or 0.0, job.id), reverse=True)
        return [job.summary() for job in jobs[: max(0, limit)]]

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def _evict_locked(self) -> None:
        """Drop the oldest terminal jobs beyond the retention policy."""
        terminal = [job for job in self._jobs.values() if job.terminal]
        evict = []
        if self.retention_age is not None:
            horizon = self._time() - self.retention_age
            evict.extend(
                job for job in terminal
                if (job.finished_at or 0.0) < horizon
            )
        overflow = len(terminal) - len(evict) - self.retention_count
        if overflow > 0:
            remaining = sorted(
                (job for job in terminal if job not in evict),
                key=lambda job: (job.finished_at or 0.0, job.id),
            )
            evict.extend(remaining[:overflow])
        for job in evict:
            self._state_counts[job.state] -= 1
            del self._jobs[job.id]
            if job.idempotency_key:
                self._by_key.pop(job.idempotency_key, None)

    # ------------------------------------------------------------------
    # Status / shutdown
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe status block (merged into the service ``stats()``)."""
        with self._lock:
            states = {
                state: count
                for state, count in self._state_counts.items()
                if count
            }
            payload = {
                "jobs": len(self._jobs),
                "queued": self._state_counts[JobState.QUEUED],
                "running": self._state_counts[JobState.RUNNING],
                "states": states,
                "workers": self.pool.workers,
                "rejections": dict(self.rejections),
                "tenants_in_flight": dict(self._tenant_in_flight),
                "queue_depth_cap": self.admission.max_depth,
                "per_tenant_limit": self.admission.per_tenant_limit,
                "rate_limit": self.admission.bucket.rate,
                "retention_count": self.retention_count,
                "retention_age": self.retention_age,
                "journal": self.journal.path if self.journal else None,
                "mode": "multi-process" if self.directory else "single-process",
                "webhooks": self.webhooks.stats(),
            }
            if self.directory is not None:
                payload["journal_dir"] = self.directory.root
                payload["lease_ttl"] = self.lease_ttl
                payload["max_requeues"] = self.max_requeues
                payload["leases"] = {
                    "held_in_process": len(self._held_leases),
                    "expiries": self.lease_expiries,
                    "requeues": self.requeues_total,
                    "expired_jobs": self.expired_total,
                }
            if self.supervisor is not None:
                payload["worker_procs"] = self.supervisor.status()
        payload["fleet"] = self.fleet.fleet_payload()
        return payload

    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Shut down: optionally drain in-flight jobs, persist, close.

        QUEUED jobs stay QUEUED in the journal — the whole point of the
        durable queue is that the next start resumes them.  Returns True
        when every worker exited within ``timeout``.

        Shutdown order matters: every thread that can append to the
        journal (reaper, webhook dispatcher, pool workers) is stopped
        before the final compaction, so the closing rotate never races an
        appender.  External worker processes get SIGTERM and finish their
        in-flight job; anything they complete after our final absorb is
        still durable in their partitions and absorbed on the next start.
        """
        self._reaper_stop.set()
        reaper, self._reaper = self._reaper, None
        if reaper is not None:
            reaper.join(timeout=5.0)
        if self.supervisor is not None:
            self.supervisor.stop()
        clean = self.pool.drain(timeout=timeout if drain else 0.0)
        if self.directory is not None:
            with self._lock:
                self._absorb_worker_events_locked()
            if self.pool.workers > 0 and self.leases is not None:
                self.leases.retire(self.worker_id)
        self.webhooks.close()
        if self.journal is not None:
            self.journal.rotate(self._snapshot_jobs)
            self.journal.close()
        self.fleet.close()
        _log.info("job service closed", extra={"clean": clean})
        return clean
