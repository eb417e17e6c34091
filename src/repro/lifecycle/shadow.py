"""Shadow lane: evaluate candidate specs without touching the verdict.

The lane composes one CPL program from a set of :class:`SpecRecord`\\ s
(one line per record, sorted by spec id so line numbers are stable and
deterministic) and runs it in its **own** :class:`ValidationSession`
against the same store the enforced scan just used.  Nothing from the
lane report is merged into the main :class:`ValidationReport` — shadow
violations live only in the lifecycle ledger and analytics — which is
the whole soundness argument for fingerprint parity (docs/LIFECYCLE.md).

The lane carries its own :class:`SpecCircuitBreaker`: a shadow spec that
*errors* repeatedly (as opposed to merely misfiring) is quarantined
inside the lane after ``threshold`` consecutive errors.  A broken
candidate can therefore never slow down or fail the real scan, and its
zero-instance quarantined scans produce no drift evidence (the policy
ignores them), so it simply stops qualifying for promotion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.policy import ValidationPolicy
from ..core.session import ValidationSession
from ..observability.analytics import add_seconds
from ..resilience.breaker import SpecCircuitBreaker
from ..runtime import clock as _clock

__all__ = ["ShadowLane", "LaneResult"]

#: header prepended to every composed lane program (mirrors to_cpl())
_HEADER = "// shadow lane (composed)"


@dataclass
class LaneResult:
    """Outcome of evaluating one lane (shadow or enforced) for one scan."""

    #: the lane's ValidationReport (None when the lane had nothing to run
    #: or failed wholesale — see ``error``)
    report: object = None
    #: spec id → {"violations": v, "instances": i, "seconds": s}
    per_spec: dict = field(default_factory=dict)
    specs: int = 0
    violations: int = 0
    instances: int = 0
    seconds: float = 0.0
    #: non-empty when the whole lane failed (composition/session error)
    error: str = ""

    def summary(self) -> dict:
        return {
            "specs": self.specs,
            "violations": self.violations,
            "instances": self.instances,
            "seconds": round(self.seconds, 6),
            "error": self.error,
        }


class ShadowLane:
    """Evaluates lifecycle spec sets in an isolated, guarded session."""

    def __init__(self, breaker_threshold: int = 3, probe_interval: int = 2):
        self.breaker = SpecCircuitBreaker(
            threshold=breaker_threshold, probe_interval=probe_interval
        )

    @staticmethod
    def compose(records) -> tuple[str, dict]:
        """Build one CPL program from records, sorted by spec id.

        Returns ``(text, line_map)`` where ``line_map`` maps the CPL line
        number each record's statement landed on back to its spec id —
        how per-spec stats are recovered from the lane report's profile.
        """
        ordered = sorted(records, key=lambda record: record.id)
        lines = [_HEADER]
        line_map: dict[int, str] = {}
        for offset, record in enumerate(ordered):
            line_map[offset + 2] = record.id  # header occupies line 1
            lines.append(record.cpl)
        return "\n".join(lines) + "\n", line_map

    def evaluate(self, records, store, spec_cache=None, guarded: bool = True) -> LaneResult:
        """Run *records* against *store*; never raises.

        ``guarded=True`` (the shadow lane) runs under this lane's breaker
        so erroring candidates are isolated statement-by-statement;
        ``guarded=False`` (the enforced lane) runs plain, because
        enforced specs already passed shadow qualification and their
        errors should surface like any hand-written spec's.
        """
        records = list(records)
        if not records:
            return LaneResult()
        text, line_map = self.compose(records)
        result = LaneResult(specs=len(records))
        started = _clock.now()
        try:
            guard = self.breaker.begin_scan() if guarded else None
            session = ValidationSession(
                store=store,
                policy=ValidationPolicy(),
                spec_cache=spec_cache,
                analytics=True,
                # keep statements on their composed lines: the Figure-4
                # rewrites may merge/reorder statements, which would break
                # the line → spec-id attribution below
                optimize=False,
                spec_guard=guard,
            )
            report = session.validate(text)
            if guarded:
                report.health.finalize()
                self.breaker.observe(report)
        except Exception as exc:  # a lane must never sink the scan
            result.error = f"{type(exc).__name__}: {exc}"
            result.seconds = _clock.now() - started
            return result
        result.report = report
        result.seconds = _clock.now() - started
        per_spec = {
            spec_id: {"violations": 0, "instances": 0, "seconds": 0.0}
            for spec_id in line_map.values()
        }
        for (line, _text), row in report.spec_profile.items():
            spec_id = line_map.get(line)
            if spec_id is None:
                continue
            entry = per_spec[spec_id]
            entry["violations"] += row.get("violations", 0)
            entry["instances"] += row.get("instances", 0)
            entry["seconds"] = add_seconds(entry["seconds"], row.get("seconds", 0.0))
        result.per_spec = per_spec
        result.violations = len(report.violations)
        result.instances = report.instances_checked
        return result
