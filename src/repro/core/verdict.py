"""The verdict schema shared by ``confvalley gate --json`` and job results.

CI pipelines parse one format (:func:`verdict_payload`, or
:func:`error_verdict` when no report was produced) and one exit-code
contract whether they gate synchronously or submit a job; the module
needs nothing from :mod:`repro.jobs`, so the gate never loads it.
"""

from __future__ import annotations

import hashlib
from typing import Optional

__all__ = [
    "verdict_payload",
    "error_verdict",
    "report_fingerprint_digest",
    "EXIT_ADMIT",
    "EXIT_REJECT",
    "EXIT_ERROR",
]

#: CI exit-code contract shared by ``gate --json`` and ``submit --wait``:
#: 0 = the change is admitted, 1 = the verdict rejects it, 2 = the
#: validation itself could not run (bad input, unreachable service, crash).
EXIT_ADMIT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2

#: violations carried verbatim in a job result before truncation — the
#: full count is always present, the details are bounded so a pathological
#: submission cannot balloon the journal and the listing endpoint
MAX_RESULT_VIOLATIONS = 50


def report_fingerprint_digest(report) -> str:
    """SHA-256 over :meth:`ValidationReport.fingerprint` — the compact,
    transport-friendly determinism token job results carry.  Two runs have
    equal digests iff their report fingerprints are byte-identical."""
    return hashlib.sha256(report.fingerprint().encode("utf-8")).hexdigest()


def verdict_payload(
    report,
    limit: int = MAX_RESULT_VIOLATIONS,
    delta: Optional[dict] = None,
    shadow: Optional[dict] = None,
    workflow: Optional[dict] = None,
) -> dict:
    """Machine-readable verdict for a finished validation run.

    The one schema shared by job results (``GET /jobs/<id>``) and
    ``confvalley gate --json``:  ``verdict`` is ``admit`` or ``reject``
    (``error`` only via :func:`error_verdict`), and ``fingerprint`` is the
    SHA-256 digest of the report's canonical fingerprint, so an
    asynchronous run can be compared against a direct ``validate`` of the
    same spec + sources.

    ``delta`` — present for ``mode: delta`` jobs — records how the run
    was scoped: statements selected vs skipped and the change summary
    that drove selection.  A delta verdict covers only the affected
    statements, so its fingerprint is *not* comparable to a full run's.

    ``shadow`` — present when the serving validator runs an inferred-spec
    lifecycle — reports how the service's *candidate* specs fared against
    this job's store.  Purely advisory: shadow violations never affect
    ``verdict``, ``passed``, or ``fingerprint`` (the fingerprint is
    computed from the report alone, which the shadow run never touches).

    ``workflow`` — present for ``mode: workflow`` jobs — records the run's
    per-step outcome (statuses, timings, splice flags).  The fingerprint
    still covers only the merged validation report, so a pure-validation
    workflow job compares equal to a direct scan of the same inputs.
    """
    violations = [violation.to_dict() for violation in report.violations[:limit]]
    payload = {
        "verdict": "admit" if report.passed else "reject",
        "passed": report.passed,
        "violations": len(report.violations),
        "violations_shown": len(violations),
        "violation_details": violations,
        "specs_evaluated": report.specs_evaluated,
        "specs_failed": report.specs_failed,
        "specs_skipped": report.specs_skipped,
        "suppressed": report.suppressed,
        "instances_checked": report.instances_checked,
        "elapsed_seconds": round(report.elapsed_seconds, 6),
        "fingerprint": report_fingerprint_digest(report),
        "health": report.health.status,
    }
    if delta is not None:
        payload["delta"] = delta
    if shadow is not None:
        payload["shadow"] = shadow
    if workflow is not None:
        payload["workflow"] = workflow
    return payload


def error_verdict(message: str) -> dict:
    """The ``error`` arm of the verdict schema (run never produced a report)."""
    return {
        "verdict": "error",
        "passed": False,
        "violations": 0,
        "error": message,
    }
