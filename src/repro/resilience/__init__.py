"""Fault-tolerant validation (``repro.resilience``).

Strict mode — the PR-1 behavior, still the default everywhere — treats any
failure as fatal: a malformed source, a crashing spec statement or a wedged
shard aborts the scan with an exception.  That is right for a one-shot
``confvalley validate`` but wrong for the continuous service of paper
§5.1, where one bad input must not blind the operator to the other
forty-nine sources.  This package supplies the supervised mode, in four
layers threaded through drivers → parallel engine → service → reports:

* **source fault isolation** (:mod:`.sources`) — per-source quarantine
  with scan-counted exponential backoff and mtime-gated re-admission;
* **spec circuit breakers** (:mod:`.breaker`) — statements that raise
  internal errors N consecutive scans are tripped to ``SKIPPED(reason)``
  and probed for recovery on a half-open schedule;
* **shard supervision** (:mod:`repro.parallel.supervision`) — per-shard
  timeouts/crash detection with a retry → serial-re-run → mark-failed
  fallback ladder (lives in ``repro.parallel`` to respect layering);
* **degraded-mode reporting** — every report carries a
  :class:`~repro.core.report.HealthBlock` (``OK | DEGRADED | FAILED``)
  excluded from ``fingerprint()``, so health never perturbs determinism
  comparisons.

Enable it by passing a :class:`ResiliencePolicy` to
:class:`~repro.service.ValidationService` (CLI: ``confvalley service
--resilient``).  :mod:`.chaos` provides the deterministic fault-injection
harness the tests and ``benchmarks/bench_resilience.py`` drive.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports.exports(__name__, {
    ".breaker": ("SpecCircuitBreaker", "SpecGuard", "statement_key"),
    ".chaos": ("FaultPlan", "FaultyRuntimeProvider"),
    ".policy": ("ResiliencePolicy",),
    ".sources": ("SourceFailure", "SourceSupervisor"),
})
