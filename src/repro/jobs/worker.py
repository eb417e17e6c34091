"""Job execution: worker threads in-process, worker *processes* out.

Two execution shapes share one :class:`JobExecutor`:

* :class:`WorkerPool` — N daemon threads inside the service process,
  looping ``pop → execute → record`` against the in-memory queue (the
  PR 5 shape; still the default);
* :class:`ExternalWorker` — a standalone worker *process*
  (``confvalley worker --journal DIR --id NAME``) that discovers QUEUED
  jobs by replaying the shared journal directory, claims them under a
  lease (:mod:`repro.jobs.lease`), renews the lease on a heartbeat while
  executing, and appends ``claim``/``terminal`` events to its own
  journal partition — so a crash loses nothing but the worker itself,
  and the coordinating service's reaper re-queues its leased job.
  :class:`WorkerSupervisor` spawns and babysits N of them
  (``service --jobs --worker-procs N``), restarting crashed workers with
  exponential backoff.

Execution builds a fresh
:class:`~repro.core.session.ValidationSession` per job (jobs from
different tenants must not share a configuration store) but *shares* the
process's compiled-spec cache — two jobs carrying the same spec text hash
compile once, which is the steady-state shape of a CI fleet hammering one
specification corpus.  The produced report is the very report a direct
``confvalley validate`` of the same spec + sources would yield:
byte-identical ``fingerprint()``, asserted in the tests — including for
jobs that were re-queued after a worker was SIGKILLed mid-run.

Timeout and cancellation run the validation on a *runner* thread the
worker supervises: Python offers no safe way to interrupt arbitrary
evaluation mid-statement, so an expired or cancelled run is **abandoned**
— the daemon runner finishes (or not) in the background and its result is
discarded, while the worker moves on and the job is recorded FAILED
(timeout) or CANCELLED.  Abandonment is the exception path; its cost (one
parked thread until the evaluation returns) is documented in
``docs/OPERATIONS.md`` §4d.

Graceful drain (SIGTERM): :meth:`WorkerPool.drain` stops the pop loop,
lets in-flight jobs finish, and leaves QUEUED jobs untouched — they are
already durable in the journal and resume on the next start.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

import contextlib

from ..core.session import ValidationSession
from ..core.verdict import error_verdict, verdict_payload
from ..observability import (
    NULL_TRACER,
    SpanContext,
    Tracer,
    TraceSegmentWriter,
    export_metrics_snapshot,
    get_logger,
    get_metrics,
)
from ..runtime import clock as _clock
from .journal import (
    JobJournal,
    JournalTail,
    apply_coordinator_events,
    apply_worker_event,
    fold_merged,
)
from .lease import (
    DEFAULT_LEASE_TTL,
    JobDirectory,
    LeaseStore,
    heartbeat_interval,
)
from .model import JobState, ValidationJob

__all__ = [
    "JobExecutor",
    "WorkerPool",
    "ExternalWorker",
    "WorkerSupervisor",
    "DirectorySpecRegistry",
]

_log = get_logger("jobs.worker")

#: how often an executing worker re-checks cancel/timeout while the
#: runner thread is busy (seconds)
SUPERVISE_TICK = 0.05


class JobExecutor:
    """Runs one job's validation and renders its verdict."""

    def __init__(
        self,
        spec_cache=None,
        runtime=None,
        base_dir: str = ".",
        default_timeout: Optional[float] = None,
        spec_registry: Optional[dict] = None,
    ):
        self.spec_cache = spec_cache
        self.runtime = runtime
        self.base_dir = base_dir
        self.default_timeout = default_timeout
        #: named server-side specs (``spec_name`` submissions resolve here)
        self.spec_registry = spec_registry if spec_registry is not None else {}
        #: zero-argument callable returning the serving validator's current
        #: shadow (candidate) spec set as one CPL program, or "" — wired by
        #: ValidationService.attach_jobs when a lifecycle manager runs.
        #: Verdicts then carry an advisory "shadow" block.
        self.shadow_provider = None

    # -- spec / source resolution --------------------------------------

    def resolve_spec_text(self, job: ValidationJob) -> str:
        if job.spec_text:
            return job.spec_text
        if job.spec_name:
            try:
                return self.spec_registry[job.spec_name]
            except KeyError:
                raise ValueError(
                    f"unknown registered spec {job.spec_name!r} "
                    f"(known: {sorted(self.spec_registry) or 'none'})"
                )
        if job.spec_path:
            import os

            path = job.spec_path
            if not os.path.isabs(path):
                path = os.path.join(self.base_dir, path)
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        raise ValueError("job carries no spec (spec/spec_name/spec_path all empty)")

    def _build_session(self, job: ValidationJob) -> ValidationSession:
        resilience = job.resilience or {}
        return ValidationSession(
            runtime=self.runtime,
            base_dir=self.base_dir,
            executor=job.executor,
            spec_cache=self.spec_cache,
            shard_timeout=resilience.get("shard_timeout"),
            shard_retries=resilience.get("shard_retries", 1),
        )

    def _load_sources(self, session: ValidationSession, sources: list) -> None:
        for source in sources:
            fmt = source.get("format", "")
            if "text" in source:
                session.load_text(
                    fmt,
                    source["text"],
                    source=source.get("source", "<inline>"),
                    scope=source.get("scope", ""),
                )
            else:
                session.load_source(fmt, source["path"], source.get("scope", ""))

    def validate(self, job: ValidationJob, tracer=None):
        """The raw validation run (no supervision) → ValidationReport.

        ``mode: delta`` jobs take the incremental branch; the per-job
        delta record (selection counts, change summary) travels on the
        report as ``delta_info`` and lands in the verdict payload.

        ``tracer`` continues the job's distributed trace in this process
        (parse → evaluate → report segments); tracing only observes — the
        report, and hence its ``fingerprint()``, is identical either way.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        if job.mode == "workflow":
            return self._validate_workflow(job, tracer)
        with tracer.span("parse", spec=job.spec_reference(), mode=job.mode):
            spec_text = self.resolve_spec_text(job)
            if job.mode != "delta":
                session = self._build_session(job)
                self._load_sources(session, job.sources)
        if job.mode == "delta":
            with tracer.span("evaluate", mode="delta"):
                return self._validate_delta(job, spec_text)
        with tracer.span("evaluate") as span:
            report = session.validate(spec_text)
            span.set(
                specs=report.specs_evaluated,
                violations=len(report.violations),
            )
        with tracer.span("report"):
            self._attach_shadow(report, session.store)
        return report

    def _validate_workflow(self, job: ValidationJob, tracer):
        """Run a ``mode: workflow`` job's composed pipeline.

        The engine executes the job's workflow definition — parse sources
        into named stores, validate, cross-check rule packs, gate
        downstream steps — and the merged report travels back through the
        ordinary verdict path.  Per-step statuses are published onto
        ``job.workflow_steps`` as each step settles, so ``GET /jobs/<id>``
        shows live progress while the job runs; the step record also rides
        on the report as ``workflow_info`` and lands in the verdict.
        """
        from ..workflows import Workflow, WorkflowEngine

        if not isinstance(job.workflow, dict):
            raise ValueError("a workflow job needs a 'workflow' definition")
        workflow = Workflow.from_dict(job.workflow)
        # the job's spec reference (inline text, registered name, or path)
        # is the default for validate steps without a spec of their own;
        # workflow jobs may instead carry specs entirely inside step options
        spec_text = ""
        if job.spec_text or job.spec_name:
            spec_text = self.resolve_spec_text(job)
        engine = WorkflowEngine(
            workflow,
            base_dir=self.base_dir,
            runtime=self.runtime,
            spec_cache=self.spec_cache,
            executor=job.executor,
            sources=job.sources,
            spec_path=job.spec_path,
            spec_text=spec_text,
            shadow_provider=self.shadow_provider,
            splice=False,  # every job is a fresh engine; nothing to splice
        )

        def progress(step_payload):
            # a fresh list assigned atomically: endpoint readers see either
            # the previous snapshot or this one, never a half-built list
            job.workflow_steps = step_payload

        outcome = engine.run(progress=progress, tracer=tracer)
        job.workflow_steps = outcome.step_payload()
        report = outcome.report
        report.workflow_info = {
            "name": outcome.workflow,
            "passed": outcome.passed,
            "steps": outcome.step_payload(),
            "elapsed_seconds": round(outcome.elapsed_seconds, 6),
        }
        return report

    def _attach_shadow(self, report, store) -> None:
        """Evaluate the service's shadow spec set against this job's store.

        Advisory only: the outcome rides on the report as ``shadow_info``
        and surfaces in the verdict's ``shadow`` block — it never touches
        the report itself, so job fingerprints stay identical whether the
        serving validator runs a lifecycle or not.
        """
        if self.shadow_provider is None:
            return
        try:
            text = self.shadow_provider()
        except Exception as exc:
            report.shadow_info = {"error": f"{type(exc).__name__}: {exc}"}
            return
        if not text:
            return
        try:
            # optimize=False matches the service's shadow lane, so the
            # composed program shares one spec-cache entry with it
            lane = ValidationSession(
                store=store, spec_cache=self.spec_cache, optimize=False
            )
            shadow_report = lane.validate(text)
        except Exception as exc:
            report.shadow_info = {"error": f"{type(exc).__name__}: {exc}"}
            return
        report.shadow_info = {
            "specs": shadow_report.specs_evaluated,
            "violations": len(shadow_report.violations),
            "instances_checked": shadow_report.instances_checked,
            "clean": not shadow_report.violations,
        }

    def _validate_delta(self, job: ValidationJob, spec_text: str):
        """Scope the run to the statements the submitted change affects.

        Runs :func:`repro.core.incremental.check_change` (the check
        ``confvalley gate`` runs) of the job's sources against its
        ``baseline_sources``: the verdict answers "does this change break
        anything it can reach?", and its ``delta`` block says how the run
        was scoped, or why it fell back to a full run.
        """
        from ..core.incremental import check_change

        baseline = self._build_session(job)
        self._load_sources(baseline, job.baseline_sources)
        session = self._build_session(job)
        self._load_sources(session, job.sources)
        report = check_change(session, spec_text, baseline.store)
        self._attach_shadow(report, session.store)
        return report

    # -- supervised execution ------------------------------------------

    def execute(
        self,
        job: ValidationJob,
        cancel: Optional[threading.Event] = None,
        tracer=None,
    ) -> tuple[str, Optional[dict], str]:
        """Run the job under timeout/cancel supervision.

        Returns ``(state, result, error)`` where ``state`` is a terminal
        :class:`JobState` and ``result`` is the verdict payload (None only
        when the run was abandoned before producing one).  ``tracer``
        (optional) records this process's span segment of the job's
        distributed trace; the runner thread's spans parent directly on
        the tracer's origin (the job's root span).
        """
        timeout = job.timeout if job.timeout is not None else self.default_timeout
        box: dict = {}

        def run():
            try:
                box["report"] = self.validate(job, tracer=tracer)
            except Exception as exc:  # rendered into the error verdict
                box["error"] = f"{type(exc).__name__}: {exc}"

        runner = threading.Thread(
            target=run, name=f"confvalley-job-{job.id}", daemon=True
        )
        started = _clock.now()
        runner.start()
        while runner.is_alive():
            runner.join(SUPERVISE_TICK)
            if not runner.is_alive():
                break
            if cancel is not None and cancel.is_set():
                _log.warning(
                    "abandoning cancelled job", extra={"job": job.id}
                )
                return (
                    JobState.CANCELLED,
                    error_verdict("cancelled while running"),
                    "cancelled while running",
                )
            if timeout is not None and _clock.now() - started > timeout:
                message = f"job exceeded its {timeout:g}s timeout"
                _log.warning(
                    "abandoning timed-out job",
                    extra={"job": job.id, "timeout": timeout},
                )
                return JobState.FAILED, error_verdict(message), message
        if "error" in box:
            return JobState.FAILED, error_verdict(box["error"]), box["error"]
        report = box["report"]
        # a cancel that lost the race to completion still honors the work:
        # the verdict exists, so record it rather than throw it away
        delta = getattr(report, "delta_info", None)
        shadow = getattr(report, "shadow_info", None)
        workflow = getattr(report, "workflow_info", None)
        return (
            JobState.DONE,
            verdict_payload(report, delta=delta, shadow=shadow, workflow=workflow),
            "",
        )


class WorkerPool:
    """N daemon threads draining the queue through a shared executor.

    The pool knows nothing about journals or admission — it asks the
    owning service for the next job and hands back terminal transitions,
    so every durability decision stays in one place
    (:class:`~repro.jobs.service.JobService`).
    """

    def __init__(self, service, workers: int = 2):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.service = service
        self.workers = workers
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def start(self) -> "WorkerPool":
        if self._threads or self.workers == 0:
            return self
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                name=f"confvalley-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        _log.info("worker pool started", extra={"workers": self.workers})
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.service._next_job(timeout=0.1)
            if job is None:
                continue
            try:
                self.service._run_job(job)
            except Exception:  # a broken job must never kill the worker
                _log.exception("unexpected worker failure", extra={"job": job.id})

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop taking new jobs, wait for in-flight ones; True = clean."""
        self._stop.set()
        self.service.queue.wake_all()
        clean = True
        for thread in self._threads:
            thread.join(timeout)
            clean = clean and not thread.is_alive()
        self._threads = []
        if self._threads == [] and clean:
            _log.info("worker pool drained", extra={"workers": self.workers})
        return clean


# ---------------------------------------------------------------------------
# External worker processes (multi-process mode)
# ---------------------------------------------------------------------------

#: chaos hook: while this file exists, a worker that just claimed a job
#: parks before executing it — a deterministic window for kill tests
HOLD_FILE_ENV = "CONFVALLEY_WORKER_HOLD_FILE"
#: upper bound on one chaos hold, so a leaked hold file cannot wedge a
#: production worker forever
HOLD_LIMIT_SECONDS = 30.0


class DirectorySpecRegistry(dict):
    """Named-spec registry backed by the shared ``specs/`` directory.

    The coordinator publishes registered specs as files
    (:meth:`JobDirectory.publish_spec`); worker processes resolve
    ``spec_name`` submissions through this mapping, falling back to the
    directory on a local miss so a spec registered after the worker
    started is still found.
    """

    def __init__(self, directory: JobDirectory):
        super().__init__()
        self.directory = directory

    def __missing__(self, name: str) -> str:
        text = self.directory.read_spec(name)
        if text is None:
            raise KeyError(name)
        return text


class ExternalWorker:
    """One standalone worker process over a shared journal directory.

    The loop: replay/tail the journal partitions into a local view of the
    job table, pick the best claimable QUEUED job, win its lease
    (``O_EXCL``), append a ``claim`` event to this worker's own partition,
    execute under a heartbeat that keeps the lease fresh, append the
    ``terminal`` event, and only *then* release the lease — so a crash at
    any point either leaves the lease to expire (job re-queued by the
    coordinator's reaper) or leaves a durable terminal event the
    coordinator absorbs.  There is no window in which a finished job can
    be re-queued: the terminal record is on disk before the lease goes.

    A worker that loses its lease mid-run (fenced by a renewal failure)
    abandons the run; its terminal event carries the stale epoch and is
    ignored by every replayer.
    """

    def __init__(
        self,
        journal_dir: str,
        worker_id: Optional[str] = None,
        base_dir: str = ".",
        poll: float = 0.2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat: Optional[float] = None,
        default_timeout: Optional[float] = None,
        max_jobs: Optional[int] = None,
        spec_cache=None,
        time_fn=time.time,
    ):
        from ..parallel.cache import SpecCache

        self.directory = JobDirectory(journal_dir).ensure()
        self.worker_id = worker_id or f"w-{os.getpid()}"
        self.poll = max(0.01, float(poll))
        self.lease_ttl = float(lease_ttl)
        self.heartbeat = (
            float(heartbeat) if heartbeat else heartbeat_interval(lease_ttl)
        )
        self.max_jobs = max_jobs
        self._time = time_fn
        self.leases = LeaseStore(self.directory, ttl=lease_ttl, time_fn=time_fn)
        #: this worker's own append-only partition — never shared
        self.partition = JobJournal(
            self.directory.worker_partition(self.worker_id)
        )
        self.executor = JobExecutor(
            spec_cache=spec_cache if spec_cache is not None else SpecCache(),
            base_dir=base_dir,
            default_timeout=default_timeout,
            spec_registry=DirectorySpecRegistry(self.directory),
        )
        self._stop = threading.Event()
        self._jobs: dict[str, ValidationJob] = {}
        self._coord_tail = JournalTail(self.directory.coordinator_journal)
        self._worker_tails: dict[str, JournalTail] = {}
        self.jobs_done = 0
        self.leases_lost = 0
        self._started_at = self._time()
        self._current_job = ""
        #: this worker's span-segment partition (single-writer, like the
        #: journal partition); segments use wall-clock timestamps so the
        #: coordinator can stitch them against other processes' spans
        self.traces = TraceSegmentWriter(
            self.directory.trace_partition(self.worker_id),
            self.worker_id,
            time_fn,
        )

    # -- lifecycle -----------------------------------------------------

    def stop(self) -> None:
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful stop (finish the in-flight job)."""
        import signal

        def handler(signum, frame):  # noqa: ARG001
            _log.info(
                "worker stopping on signal",
                extra={"worker": self.worker_id, "signal": signum},
            )
            self.stop()

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)

    # -- journal-view maintenance --------------------------------------

    def _refold(self) -> None:
        """Rebuild the local job view from every partition, from zero."""
        self._coord_tail = JournalTail(self.directory.coordinator_journal)
        coordinator_events, __ = self._coord_tail.poll()
        self._worker_tails = {}
        streams: dict[str, list[dict]] = {}
        for name, path in self.directory.partitions().items():
            tail = JournalTail(path)
            streams[name], __ = tail.poll()
            self._worker_tails[name] = tail
        self._jobs = fold_merged(
            coordinator_events, streams, ValidationJob.from_dict
        )

    def _absorb(self) -> None:
        """Apply everything appended since the last poll to the view."""
        events, reset = self._coord_tail.poll()
        if reset:
            self._refold()
            return
        apply_coordinator_events(self._jobs, events, ValidationJob.from_dict)
        for name, path in self.directory.partitions().items():
            tail = self._worker_tails.get(name)
            if tail is None:
                tail = self._worker_tails[name] = JournalTail(path)
            worker_events, __ = tail.poll()
            for event in worker_events:
                job = self._jobs.get(event.get("id", ""))
                if job is not None:
                    apply_worker_event(job, event)

    # -- claiming ------------------------------------------------------

    def _candidates(self) -> list[ValidationJob]:
        queued = [
            job
            for job in self._jobs.values()
            if job.state == JobState.QUEUED and not job.cancel_requested
        ]
        queued.sort(
            key=lambda job: (-job.priority, job.submitted_at or 0.0, job.id)
        )
        return queued

    def _claim_next(self):
        """``(job, lease)`` for the first candidate we win, else None."""
        for job in self._candidates():
            lease = self.leases.try_claim(
                job.id, self.worker_id, job.epoch + 1
            )
            if lease is not None:
                return job, lease
        return None

    # -- execution -----------------------------------------------------

    def _chaos_hold(self) -> None:
        hold_file = os.environ.get(HOLD_FILE_ENV, "")
        if not hold_file:
            return
        deadline = self._time() + HOLD_LIMIT_SECONDS
        while os.path.exists(hold_file) and self._time() < deadline:
            if self._stop.is_set():
                return
            time.sleep(0.02)

    def _heartbeat_loop(self, job, lease, stop, cancel) -> None:
        """Renew the lease and watch for cancellation while executing.

        Runs on its own thread while the main thread is blocked in
        :meth:`JobExecutor.execute`; it is therefore the only thread
        touching the tails/view during a run, and it is joined before the
        main loop resumes — no concurrent access either way.
        """
        while not stop.wait(self.heartbeat):
            if not self.leases.renew(lease):
                self.leases_lost += 1
                _log.warning(
                    "lease lost mid-run; abandoning",
                    extra={"worker": self.worker_id, "job": job.id},
                )
                cancel.set()
                return
            self.announce()
            self.export_metrics()
            events, reset = self._coord_tail.poll()
            if reset:
                self._refold()
            else:
                apply_coordinator_events(
                    self._jobs, events, ValidationJob.from_dict
                )
            current = self._jobs.get(job.id)
            if current is not None and current.cancel_requested:
                cancel.set()

    def _job_tracer(self, job: ValidationJob, epoch: int) -> Optional[Tracer]:
        """A wall-clock tracer continuing the job's trace in this worker.

        The span-id prefix is unique per (worker, claim epoch), so two
        attempts at the same job — or two workers — can never collide in
        the stitched tree, and each attempt renders as its own row.
        """
        if not job.trace:
            return None
        return Tracer(
            origin=SpanContext(job.trace["trace_id"], job.trace["span_id"]),
            prefix=f"{job.id}:{self.worker_id}.{epoch}:",
            time_source=self._time,
        )

    def _run_claimed(self, job: ValidationJob, lease) -> None:
        now = self._time()
        tracer = self._job_tracer(job, lease.epoch)
        claim_event = {
            "event": "claim",
            "id": job.id,
            "worker": self.worker_id,
            "epoch": lease.epoch,
            "at": now,
        }
        claim_scope = (
            tracer.span("claim", worker=self.worker_id, epoch=lease.epoch)
            if tracer is not None
            else contextlib.nullcontext()
        )
        with claim_scope:
            self.partition.append(claim_event)
            apply_worker_event(job, claim_event)
            self._current_job = job.id
            self.announce()
        self._chaos_hold()
        stop_heartbeat = threading.Event()
        cancel = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(job, lease, stop_heartbeat, cancel),
            name=f"confvalley-hb-{self.worker_id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            state, result, error = self.executor.execute(
                job, cancel, tracer=tracer
            )
        except Exception as exc:  # a broken job must never kill the worker
            message = f"{type(exc).__name__}: {exc}"
            state, result, error = (
                JobState.FAILED, error_verdict(message), message,
            )
        finally:
            stop_heartbeat.set()
            heartbeat.join()
        terminal_event = {
            "event": "terminal",
            "id": job.id,
            "worker": self.worker_id,
            "epoch": lease.epoch,
            "state": state,
            "result": result,
            "error": error,
            "at": self._time(),
        }
        # terminal before release: if we crash between the two, the
        # coordinator finds both the durable result and a dangling lease,
        # absorbs the result, and the expiry path sees a finished job
        self.partition.append(terminal_event)
        apply_worker_event(job, terminal_event)
        self.leases.release(lease)
        if tracer is not None:
            self.traces.write(job.id, tracer.finished_spans())
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "confvalley_worker_jobs_total",
                "Jobs executed by this worker process, by terminal state.",
            ).inc(state=state)
        self._current_job = ""
        self.jobs_done += 1
        self.announce()
        self.export_metrics()

    # -- presence ------------------------------------------------------

    def announce(self) -> None:
        self.leases.announce(
            self.worker_id,
            kind="process",
            jobs_done=self.jobs_done,
            leases_lost=self.leases_lost,
            current_job=self._current_job,
            started_at=self._started_at,
        )

    def export_metrics(self) -> None:
        """Publish this process's registry snapshot for federation.

        Atomic rewrite into the shared ``metrics/`` directory on the
        heartbeat cadence; a no-op when metrics are disabled, so a worker
        run without observability costs nothing and exports nothing.
        """
        metrics = get_metrics()
        if not metrics.enabled:
            return
        # every export carries at least this series, so an idle worker
        # still surfaces in the federated exposition (and ages out of it)
        metrics.gauge(
            "confvalley_worker_up",
            "1 while this worker process is exporting snapshots.",
        ).set(1.0)
        try:
            export_metrics_snapshot(
                self.directory.metrics_snapshot(self.worker_id),
                metrics,
                stats={
                    "worker": self.worker_id,
                    "jobs_done": self.jobs_done,
                    "leases_lost": self.leases_lost,
                    "current_job": self._current_job,
                    "started_at": self._started_at,
                },
                time_fn=self._time,
            )
        except OSError:  # a full disk must not kill the worker
            _log.warning(
                "metrics snapshot export failed",
                extra={"worker": self.worker_id},
            )

    # -- the main loop -------------------------------------------------

    def run(self) -> int:
        """Poll → claim → execute until stopped; returns jobs completed."""
        _log.info(
            "external worker started",
            extra={
                "worker": self.worker_id,
                "journal_dir": self.directory.root,
                "lease_ttl": self.lease_ttl,
            },
        )
        self._refold()
        self.announce()
        self.export_metrics()
        last_announce = self._time()
        try:
            while not self._stop.is_set():
                if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                    break
                self._absorb()
                claimed = self._claim_next()
                if claimed is None:
                    if self._time() - last_announce >= self.heartbeat:
                        self.announce()
                        self.export_metrics()
                        last_announce = self._time()
                    self._stop.wait(self.poll)
                    continue
                job, lease = claimed
                self._run_claimed(job, lease)
                last_announce = self._time()
        finally:
            self.partition.close()
            self.traces.close()
            self.leases.retire(self.worker_id)
            _log.info(
                "external worker stopped",
                extra={"worker": self.worker_id, "jobs_done": self.jobs_done},
            )
        return self.jobs_done


class WorkerSupervisor:
    """Spawns and babysits N ``confvalley worker`` subprocesses.

    The service owns one of these when started with ``--worker-procs N``.
    Health checks ride the reaper tick: a worker that exited is reaped
    and restarted after an exponential backoff (so a worker crashing on
    startup cannot fork-bomb the host), and every restart is visible in
    :meth:`status` and the lease metrics.
    """

    def __init__(
        self,
        journal_dir: str,
        count: int,
        base_dir: str = ".",
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat: Optional[float] = None,
        poll: float = 0.2,
        id_prefix: str = "proc",
        restart_backoff: float = 0.5,
        max_backoff: float = 10.0,
        time_fn=time.time,
    ):
        self.journal_dir = journal_dir
        self.count = max(0, int(count))
        self.base_dir = base_dir
        self.lease_ttl = float(lease_ttl)
        self.heartbeat = heartbeat
        self.poll = float(poll)
        self.id_prefix = id_prefix
        self.restart_backoff = float(restart_backoff)
        self.max_backoff = float(max_backoff)
        self._time = time_fn
        self._procs: dict[str, object] = {}
        self._restarts: dict[str, int] = {}
        self._backoff_until: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stopped = False

    def worker_ids(self) -> list[str]:
        return [f"{self.id_prefix}-{index}" for index in range(self.count)]

    def _spawn(self, worker_id: str):
        import subprocess
        import sys

        import repro

        source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (source_root, env.get("PYTHONPATH", "")) if part
        )
        command = [
            sys.executable,
            "-c",
            "import sys; from repro.console.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "worker",
            "--journal", self.journal_dir,
            "--id", worker_id,
            "--base-dir", self.base_dir,
            "--lease-ttl", str(self.lease_ttl),
            "--poll", str(self.poll),
        ]
        if self.heartbeat:
            command += ["--heartbeat", str(self.heartbeat)]
        process = subprocess.Popen(command, env=env)
        _log.info(
            "spawned worker process",
            extra={"worker": worker_id, "pid": process.pid},
        )
        return process

    def start(self) -> "WorkerSupervisor":
        with self._lock:
            self._stopped = False
            for worker_id in self.worker_ids():
                if worker_id not in self._procs:
                    self._procs[worker_id] = self._spawn(worker_id)
        return self

    def check(self) -> int:
        """Reap exited workers, restart those past backoff; returns
        the number of restarts performed this check."""
        restarted = 0
        with self._lock:
            if self._stopped:
                return 0
            now = self._time()
            for worker_id in self.worker_ids():
                process = self._procs.get(worker_id)
                if process is not None and process.poll() is None:
                    continue  # alive
                if process is not None:
                    attempts = self._restarts.get(worker_id, 0) + 1
                    self._restarts[worker_id] = attempts
                    delay = min(
                        self.max_backoff,
                        self.restart_backoff * (2 ** (attempts - 1)),
                    )
                    self._backoff_until[worker_id] = now + delay
                    self._procs[worker_id] = None
                    _log.warning(
                        "worker process died; restart scheduled",
                        extra={
                            "worker": worker_id,
                            "exit_code": process.returncode,
                            "restart_in": delay,
                        },
                    )
                    continue
                if now >= self._backoff_until.get(worker_id, 0.0):
                    self._procs[worker_id] = self._spawn(worker_id)
                    restarted += 1
        return restarted

    def status(self) -> list[dict]:
        with self._lock:
            rows = []
            for worker_id in self.worker_ids():
                process = self._procs.get(worker_id)
                alive = process is not None and process.poll() is None
                rows.append({
                    "id": worker_id,
                    "pid": process.pid if alive else None,
                    "alive": alive,
                    "restarts": self._restarts.get(worker_id, 0),
                })
            return rows

    def stop(self, timeout: float = 5.0) -> None:
        """SIGTERM every worker, wait, SIGKILL stragglers."""
        with self._lock:
            self._stopped = True
            procs = [p for p in self._procs.values() if p is not None]
            self._procs = {}
        for process in procs:
            if process.poll() is None:
                try:
                    process.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for process in procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                process.wait(remaining)
            except Exception:
                try:
                    process.kill()
                    process.wait(1.0)
                except Exception:
                    pass
