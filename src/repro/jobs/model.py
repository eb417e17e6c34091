"""Validation jobs: the unit of work of the asynchronous job service.

The paper deploys ConfValley as a *shared validation service* inside the
deployment workflow (§3.2, §7): engineers submit configuration changes and
get verdicts back.  A :class:`ValidationJob` is one such submission — what
to validate (spec text, a registered spec name, or a server-side spec
path), against which sources (``FMT:PATH[:SCOPE]`` references or inline
payloads), and under which constraints (priority, tenant, timeout) — plus
the full lifecycle record: the QUEUED→RUNNING→terminal state machine,
timestamps, attempt counts and the result verdict.

Jobs are plain JSON-shaped dataclasses so they serialize losslessly into
the durable journal (:mod:`repro.jobs.journal`) and over the HTTP API
(:mod:`repro.observability.server`).

The **verdict payload** produced for a finished job
(:func:`repro.core.verdict.verdict_payload`) is the same machine-readable
schema ``confvalley gate --json`` emits, so CI pipelines consume one
format for both synchronous gating and asynchronous submission.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Optional

from ..core.verdict import report_fingerprint_digest
from ..errors import ConfValleyError

__all__ = [
    "JobState",
    "ValidationJob",
    "AdmissionError",
    "report_fingerprint_digest",
]

class JobState:
    """The job state machine: ``QUEUED → RUNNING → terminal``.

    ``INTERRUPTED`` is the crash-recovery dead end: a job found mid-flight
    in the journal is re-queued exactly once; a second interrupted attempt
    means the job itself is implicated, and it is parked rather than
    retried forever.

    ``EXPIRED`` is the multi-process analogue: a job whose worker's lease
    lapsed is re-queued within the service's retry budget
    (``max_requeues``); once the budget is spent the job is parked as
    EXPIRED instead of bouncing between crashing workers forever.
    """

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    INTERRUPTED = "INTERRUPTED"
    EXPIRED = "EXPIRED"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED, INTERRUPTED, EXPIRED})
    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, INTERRUPTED, EXPIRED)


class AdmissionError(ConfValleyError):
    """A submission was rejected by admission control (backpressure).

    Structured so the HTTP layer can render a 429 with an actionable body
    and the metrics layer can count rejections by ``reason`` (one of
    ``queue-full``, ``tenant-limit``, ``rate-limited``).  ``retry_after``
    is a best-effort hint in seconds, ``None`` when retrying immediately
    after completed work is the right move (queue/tenant capacity).
    """

    def __init__(
        self,
        reason: str,
        message: str,
        retry_after: Optional[float] = None,
        **detail,
    ):
        self.reason = reason
        self.retry_after = retry_after
        self.detail = detail
        super().__init__(message)

    def to_dict(self) -> dict:
        payload = {
            "error": "backpressure",
            "reason": self.reason,
            "message": str(self),
        }
        if self.retry_after is not None:
            payload["retry_after"] = round(self.retry_after, 3)
        payload.update(self.detail)
        return payload


def new_job_id() -> str:
    """An opaque, URL-safe job identifier (48 random bits, as hex)."""
    return "job-" + os.urandom(6).hex()


@dataclass
class ValidationJob:
    """One submitted validation request and its full lifecycle record."""

    id: str = field(default_factory=new_job_id)
    #: client-chosen duplicate-suppression key ('' = no deduplication)
    idempotency_key: str = ""
    #: exactly one of the three spec references is set per job:
    #: inline CPL text …
    spec_text: str = ""
    #: … or a spec registered on the service by name …
    spec_name: str = ""
    #: … or a server-side spec file path
    spec_path: str = ""
    #: source descriptors: {"format","path","scope"} references resolved on
    #: the service host, or {"format","text","source","scope"} inline payloads
    sources: list = field(default_factory=list)
    #: "full" validates everything; "delta" diffs ``sources`` against
    #: ``baseline_sources`` and evaluates only the statements the change
    #: can affect (repro.core.incremental.DependencyIndex selection);
    #: "workflow" runs the composed pipeline in ``workflow``
    mode: str = "full"
    #: workflow definition for ``mode: workflow`` jobs — the same mapping
    #: schema ``Workflow.from_dict`` accepts (name + steps with gates)
    workflow: Optional[dict] = None
    #: live per-step statuses of a running/finished workflow job, updated
    #: as each step settles — the progress view behind ``GET /jobs/<id>``
    workflow_steps: Optional[list] = None
    #: the before-the-change sources a delta job diffs against (same
    #: descriptor shapes as ``sources``; empty = everything is new)
    baseline_sources: list = field(default_factory=list)
    #: larger runs first; ties drain in submission order
    priority: int = 0
    tenant: str = "default"
    #: wall-clock budget for the run in seconds (None = service default)
    timeout: Optional[float] = None
    #: evaluation strategy forwarded to the session (None = serial)
    executor: Optional[str] = None
    #: per-job shard-supervision knobs: {"shard_timeout", "shard_retries"}
    resilience: Optional[dict] = None
    #: POSTed the terminal job record on completion (see
    #: :mod:`repro.jobs.webhook`; '' = no callback)
    callback_url: str = ""
    state: str = JobState.QUEUED
    #: Unix wall-clock timestamps (None until the transition happens)
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: times the job entered RUNNING
    attempts: int = 0
    #: times crash recovery or lease expiry re-queued a mid-flight attempt
    requeues: int = 0
    #: fencing token: the epoch of the most recent granted claim (0 =
    #: never claimed).  A claim is granted at ``epoch + 1``; terminal
    #: events carrying a stale epoch are ignored on replay/absorb, which
    #: is what makes a zombie worker's late result harmless.
    epoch: int = 0
    #: id of the worker that holds (or last held) the claim
    worker: str = ""
    cancel_requested: bool = False
    #: verdict payload once terminal (see repro.core.verdict)
    result: Optional[dict] = None
    #: failure explanation for FAILED / INTERRUPTED / EXPIRED jobs
    error: str = ""
    #: webhook delivery record once enqueued:
    #: {"state": "pending"|"delivered"|"dead-letter", "attempts": n}
    webhook: Optional[dict] = None
    #: distributed-trace origin opened at submit: {"trace_id", "span_id"}.
    #: A claiming worker roots its span segment at this context so the
    #: coordinator can stitch one tree across processes (None = untraced).
    trace: Optional[dict] = None

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def wait_seconds(self) -> Optional[float]:
        """Queue wait: submission to first start (None while queued)."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return max(0.0, self.started_at - self.submitted_at)

    @property
    def run_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    def spec_reference(self) -> str:
        """Human-readable 'what does this job validate' label."""
        if self.mode == "workflow" and self.workflow is not None:
            meta = self.workflow.get("workflow") or {}
            name = meta.get("name") or self.workflow.get("name") or "workflow"
            return f"workflow:{name}"
        if self.spec_name:
            return f"spec:{self.spec_name}"
        if self.spec_path:
            return self.spec_path
        digest = hashlib.sha256(self.spec_text.encode("utf-8")).hexdigest()
        return f"inline:{digest[:12]}"

    def to_dict(self) -> dict:
        """Lossless JSON form (journal lines, ``GET /jobs/<id>``)."""
        return {
            "id": self.id,
            "idempotency_key": self.idempotency_key,
            "spec_text": self.spec_text,
            "spec_name": self.spec_name,
            "spec_path": self.spec_path,
            "sources": list(self.sources),
            "mode": self.mode,
            "baseline_sources": list(self.baseline_sources),
            "workflow": self.workflow,
            "workflow_steps": self.workflow_steps,
            "priority": self.priority,
            "tenant": self.tenant,
            "timeout": self.timeout,
            "executor": self.executor,
            "resilience": self.resilience,
            "callback_url": self.callback_url,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "epoch": self.epoch,
            "worker": self.worker,
            "cancel_requested": self.cancel_requested,
            "result": self.result,
            "error": self.error,
            "webhook": self.webhook,
            "trace": self.trace,
        }

    def summary(self) -> dict:
        """Listing row: everything except the (possibly large) spec text."""
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec_reference(),
            "mode": self.mode,
            "tenant": self.tenant,
            "priority": self.priority,
            "idempotency_key": self.idempotency_key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "worker": self.worker,
            "verdict": (self.result or {}).get("verdict"),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValidationJob":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in known})
