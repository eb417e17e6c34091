"""Durable lifecycle journal: spec lifecycle events as a JSON-lines log.

Promotion decisions are only trustworthy if they survive restarts — a
spec that earned enforcement over fifty scans must not fall back to
shadow because the service rolled.  The journal is a
:class:`repro.runtime.durable.JsonLinesLog` (the job journal's mechanism:
flushed per append, torn trailing line dropped on replay, compaction to
one ``snapshot`` line under the writer lock, published atomically) that
rotates every 2,048 appends.

Event grammar::

    {"event": "snapshot", "records": [...], "scan_seq": N}
    {"event": "register", "record": {...}}            # new inferred spec
    {"event": "revise", "id": ..., "cpl": ..., "at": T}
    {"event": "scan", "seq": N, "ledger": {id: {"violations": v,
                                                "instances": i}}}
    {"event": "transition", "id": ..., "action": ..., "actor": ...,
     "reason": ..., "at": T}

:func:`fold` replays the stream through the *same* ``SpecRecord.apply``
/ ``PromotionPolicy.observe`` code the live manager uses.  ``scan``
events update only the drift ledgers (the action a policy would return
is ignored — the decision that was actually taken is its own
``transition`` event, which is how operator overrides and policy
decisions replay identically); ``transition`` events apply the recorded
action.  Folding the same stream therefore always reproduces the same
enforced set, byte for byte.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..observability import get_logger
from ..runtime.durable import JsonLinesLog
from .model import SpecRecord
from .policy import PromotionPolicy

__all__ = ["LifecycleJournal", "fold"]

_log = get_logger("lifecycle.journal")


class LifecycleJournal(JsonLinesLog):
    """Journal of spec lifecycle events; ``snapshot_source`` returns
    ``{"records": [...], "scan_seq": N}``."""

    def __init__(
        self,
        path: str,
        rotate_after: int = 2048,
        fsync: bool = False,
        snapshot_source: Optional[Callable[[], dict]] = None,
    ):
        super().__init__(path, rotate_after, fsync, snapshot_source)


def fold(events: list[dict], policy: PromotionPolicy) -> tuple[dict, int]:
    """Replay an event stream into ``({spec_id: SpecRecord}, scan_seq)``.

    ``scan`` events feed each spec's ledger through ``policy.observe``
    for the counter math only; state changes come exclusively from the
    journalled ``transition`` events (see module docstring).  Unknown
    event kinds and events for unknown specs are ignored — forward
    compatibility over strictness.
    """
    records: dict[str, SpecRecord] = {}
    scan_seq = 0
    for event in events:
        kind = event.get("event")
        if kind == "snapshot":
            records = {}
            for data in event.get("records", []):
                record = SpecRecord.from_dict(data)
                records[record.id] = record
            scan_seq = int(event.get("scan_seq", 0))
        elif kind == "register":
            record = SpecRecord.from_dict(event.get("record", {}))
            records[record.id] = record
        elif kind == "revise":
            record = records.get(event.get("id"))
            if record is not None:
                record.revise(event.get("cpl", record.cpl), at=event.get("at"))
        elif kind == "scan":
            scan_seq = max(scan_seq, int(event.get("seq", scan_seq)))
            ledger = event.get("ledger", {})
            for spec_id in sorted(ledger):
                record = records.get(spec_id)
                if record is None:
                    continue
                entry = ledger[spec_id]
                policy.observe(
                    record,
                    int(entry.get("violations", 0)),
                    int(entry.get("instances", 0)),
                )
        elif kind == "transition":
            record = records.get(event.get("id"))
            if record is None:
                continue
            try:
                record.apply(
                    event.get("action", ""),
                    actor=event.get("actor", "policy"),
                    reason=event.get("reason", ""),
                    at=event.get("at"),
                )
            except ValueError:
                _log.warning(
                    "skipping unreplayable lifecycle transition",
                    extra={"id": event.get("id"), "action": event.get("action")},
                )
    return records, scan_seq
