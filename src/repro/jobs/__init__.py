"""Asynchronous validation jobs (``repro.jobs``) — the service write-path.

The paper deploys ConfValley as a *shared validation service* inside the
deployment workflow (§3.2, §7): engineers submit configuration changes,
the service validates them at scale, and verdicts come back out of band.
Earlier layers made scanning fast (``repro.parallel``), fault-tolerant
(``repro.resilience``) and observable (``repro.observability``) — this
package adds the missing ingestion side:

* :mod:`.model` — :class:`ValidationJob` records, the
  ``QUEUED→RUNNING→DONE/FAILED/CANCELLED/INTERRUPTED`` state machine, and
  the machine-readable verdict schema shared with ``gate --json``;
* :mod:`.journal` — the durable append-only JSON-lines journal with
  atomic rotation and crash recovery;
* :mod:`.queue` — the bounded priority queue plus admission control
  (depth cap, per-tenant in-flight limits, token-bucket rate limiting)
  that rejects with structured backpressure errors instead of blocking;
* :mod:`.worker` — the in-process worker pool *and* the standalone
  worker process (``confvalley worker``) draining jobs through
  :class:`~repro.core.session.ValidationSession` with per-job
  timeout/cancellation and graceful drain;
* :mod:`.lease` — lease-based claiming, heartbeat renewal and expiry
  detection for multi-process execution over a shared journal directory;
* :mod:`.webhook` — completion callbacks: the terminal job record POSTed
  to the submitter's ``callback_url`` with retries and a dead-letter ring;
* :mod:`.service` — :class:`JobService`, the facade wiring it together,
  embedded by ``confvalley service --jobs`` and exposed over HTTP via
  ``POST /jobs`` on the operator endpoint.

Job execution reports are byte-identical (``fingerprint()``) to an
equivalent direct ``confvalley validate`` run — asynchrony changes *when*
a verdict arrives, never *what* it says.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".journal": ("JobJournal", "JournalTail", "apply_worker_event", "fold_merged",
                 "read_events"),
    ".lease": ("DEFAULT_LEASE_TTL", "JobDirectory", "Lease", "LeaseStore"),
    "..core.verdict": ("EXIT_ADMIT", "EXIT_ERROR", "EXIT_REJECT", "error_verdict",
                       "verdict_payload"),
    ".model": ("AdmissionError", "JobState", "ValidationJob"),
    ".queue": ("AdmissionController", "JobQueue", "TokenBucket"),
    ".service": ("JobService", "parse_source_ref"),
    ".webhook": ("WebhookDelivery", "WebhookDispatcher"),
    ".worker": ("ExternalWorker", "JobExecutor", "WorkerPool", "WorkerSupervisor"),
})
