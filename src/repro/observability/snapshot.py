"""Exposition snapshots: atomically published observability state.

A continuous ``confvalley service`` is typically the only process with the
scan history, the metrics registry and the quarantine/breaker state in
memory — but the operator asking "why is the scan degraded?" is in another
terminal (or another host).  The bridge is a *snapshot file* the service
atomically rewrites after every scan (``service --metrics-file PATH``):

* ``PATH`` ending in ``.prom`` or ``.txt`` → raw Prometheus text
  exposition, directly scrapable by node_exporter-style collectors;
* any other extension → a JSON document carrying the service's
  :meth:`~repro.service.ValidationService.stats` block, the JSON metrics
  dump, *and* the Prometheus text embedded under ``"prometheus"`` — the
  format ``confvalley stats`` reads.

Writes go through :func:`repro.runtime.durable.atomic_write` (hidden
same-directory temp file, fsync, ``os.replace``) so readers never observe
a torn snapshot, even mid-scan on a busy service.
"""

from __future__ import annotations

import json
from typing import Optional

from ..runtime.durable import atomic_write

__all__ = ["SNAPSHOT_VERSION", "write_snapshot", "load_snapshot", "render_stats"]

SNAPSHOT_VERSION = 1


def write_snapshot(path: str, stats: dict, registry) -> None:
    """Publish one observability snapshot to ``path`` (atomic rewrite)."""
    if path.endswith((".prom", ".txt")):
        atomic_write(path, registry.to_prometheus())
        return
    payload = {
        "snapshot_version": SNAPSHOT_VERSION,
        "stats": stats,
        "metrics": registry.to_dict(),
        "prometheus": registry.to_prometheus(),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True), "\n")


def load_snapshot(path: str) -> dict:
    """Read a snapshot file back; raw Prometheus files are wrapped."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "stats": {},
        "metrics": {},
        "prometheus": text,
    }


def _format_scan_row(record: dict) -> str:
    health = record.get("health") or "-"
    flags = []
    if record.get("transitioned"):
        flags.append("TRANSITION")
    if record.get("cache_hits"):
        flags.append("cache-hit")
    extras = f"  [{', '.join(flags)}]" if flags else ""
    return (
        f"  #{record.get('sequence', '?'):>4}  "
        f"{'PASS' if record.get('passed') else 'FAIL'}  "
        f"health={health:<9} "
        f"violations={record.get('violations', 0):<5} "
        f"specs={record.get('specs_evaluated', 0):<5} "
        f"elapsed={record.get('elapsed_seconds', 0.0):.3f}s"
        f"{extras}"
    )


def render_stats(snapshot: dict, history_limit: Optional[int] = None) -> str:
    """Human-readable summary of a snapshot (``confvalley stats``)."""
    stats = snapshot.get("stats") or {}
    lines = ["confvalley service stats"]
    status = stats.get("status")
    status_text = {True: "PASS", False: "FAIL", None: "never validated"}.get(
        status, str(status)
    )
    lines.append(
        f"status: {status_text}; scans={stats.get('scans', 0)} "
        f"validations={stats.get('validations', 0)}"
    )
    cache = stats.get("cache") or {}
    if cache:
        lines.append(
            "spec cache: "
            + " ".join(f"{key}={value}" for key, value in sorted(cache.items()))
        )
    quarantine = stats.get("quarantined_sources") or []
    if quarantine:
        lines.append(f"quarantined sources ({len(quarantine)}):")
        for record in quarantine:
            probe = record.get("next_probe_scan")
            schedule = "on edit only" if probe is None else f"probe at scan {probe}"
            lines.append(
                f"  {record.get('path', '?')}: {record.get('kind', '?')} "
                f"x{record.get('failures', 0)} ({schedule})"
            )
    breakers = stats.get("breakers") or []
    if breakers:
        lines.append(f"spec circuit breakers ({len(breakers)}):")
        for record in breakers:
            lines.append(
                f"  {record.get('spec', '?')}: {record.get('state', '?')} "
                f"(failures={record.get('consecutive_failures', 0)}, "
                f"trips={record.get('trips', 0)})"
            )
    analytics = stats.get("analytics") or {}
    hot = analytics.get("hot_specs") or []
    if hot:
        from .analytics import format_hot_specs

        lines.append(f"hot specs (top {len(hot)} by cumulative latency):")
        lines.append(format_hot_specs(hot))
    dead = analytics.get("dead_specs") or []
    if dead:
        lines.append(f"dead specs matching no instance this scan ({len(dead)}):")
        for row in dead:
            confirmed = " [coverage-confirmed]" if row.get("coverage_confirmed") else ""
            lines.append(f"  L{row.get('line', '?')}: {row.get('spec', '?')}{confirmed}")
    drift = stats.get("drift") or {}
    if drift.get("comparable"):
        from .analytics import format_drift

        lines.append(format_drift(drift))
    coverage = stats.get("coverage") or {}
    if coverage:
        lines.append(
            f"coverage: {coverage.get('covered_classes', 0)}/"
            f"{coverage.get('total_classes', 0)} classes "
            f"({coverage.get('coverage_ratio', 0.0):.0%}); "
            f"{len(coverage.get('dead_specs') or [])} dead spec(s)"
        )
    history = stats.get("history") or []
    if history_limit is not None:
        history = history[-history_limit:]
    if history:
        lines.append(f"recent scans ({len(history)}):")
        lines.extend(_format_scan_row(record) for record in history)
    families = sorted((snapshot.get("metrics") or {}))
    if families:
        lines.append(f"metric families ({len(families)}):")
        lines.extend(f"  {name}" for name in families)
    return "\n".join(lines)
