"""Fleet-wide observability: trace stitching and metrics federation.

Since jobs went multi-process (``confvalley worker``), each worker process
has been an observability island: its :class:`MetricsRegistry` is invisible
to the coordinator's ``/metrics``, and a job's span tree ends at the
process boundary.  This module is the coordinator-side pane of glass over
the whole fleet, in two halves:

**Distributed job traces.**  The job record carries a
:class:`~.tracing.SpanContext` origin: ``submit`` opens the root span, the
claiming worker continues the tree (claim → parse → evaluate → report),
and the webhook delivery closes it.  Each process appends its finished
spans as *trace segments* — one JSON line per segment — to its own
partition file under ``<jobs-dir>/traces/`` (single-writer, mirroring the
journal partitions, so a crashed writer can only tear its own trailing
line).  :func:`stitch_trace` merges the segments for one trace id back
into a single rooted span list; re-emissions of the same span id (the
root is written open at submit and again closed at webhook delivery)
merge rather than duplicate.  Span timestamps in these segments are
**wall-clock** (``time.time``), not the process-local monotonic clock,
because they are compared across processes — the same rule the lease
deadlines follow.

**Metrics federation.**  Workers atomically export registry snapshots
(via :func:`~.snapshot.write_snapshot`) into ``<jobs-dir>/metrics/`` on
their heartbeat cadence; the coordinator merges the fresh ones into its
own exposition: every worker series is re-exported under its original
family name with a ``worker`` label (the coordinator's own series stay
unlabeled), and cross-fleet rollups are published as
``confvalley_fleet_*`` families — counters summed across all sources,
histograms bucket-wise merged (identical bucket bounds only), gauges
left per-worker (summing queue depths from different processes is a lie).
**Staleness fencing**: a snapshot older than ``stale_after`` seconds is
fenced out of the merge, so a dead worker's last export ages out of
``/metrics`` rather than lying forever; it remains visible — flagged
stale — in ``GET /fleet`` for triage.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Iterable, Optional

from ..runtime.durable import JsonLinesLog, read_log
from .metrics import _format_value, _label_key, _render_labels
from .snapshot import load_snapshot, write_snapshot
from .tracing import render_chrome_trace

__all__ = [
    "TRACE_SEGMENT_VERSION",
    "TraceSegmentWriter",
    "TraceSegmentStore",
    "read_trace_segments",
    "stitch_trace",
    "trace_payload",
    "export_metrics_snapshot",
    "read_metrics_snapshots",
    "merge_metrics",
    "fleet_meta_families",
    "render_families",
    "FleetView",
]

TRACE_SEGMENT_VERSION = 1

#: marker label added to every federated worker series
WORKER_LABEL = "worker"


# ---------------------------------------------------------------------------
# Trace segments: append-only per-process partitions
# ---------------------------------------------------------------------------


class TraceSegmentWriter(JsonLinesLog):
    """Appends trace segments to one process's partition file.

    One JSON line per segment: ``{"v", "trace_id", "source",
    "recorded_at", "spans": [...]}``.  Single-writer by construction
    (each process owns its partition), so appends never contend across
    processes; the log's lock only serializes threads within one process.
    """

    def __init__(
        self,
        path: str,
        source: str,
        time_fn: Callable[[], float] = time.time,
    ):
        super().__init__(path)
        self.source = source
        self._time = time_fn

    def write(self, trace_id: str, spans: Iterable[dict]) -> dict:
        """Append one segment; returns the segment that was written."""
        segment = {
            "v": TRACE_SEGMENT_VERSION,
            "trace_id": trace_id,
            "source": self.source,
            "recorded_at": self._time(),
            "spans": [dict(span) for span in spans],
        }
        self.append(segment)
        return segment


def read_trace_segments(path: str) -> list[dict]:
    """Read one trace partition with the log's crash rules
    (:func:`~repro.runtime.durable.read_log`); segments without a trace
    id are left out."""
    return [segment for segment in read_log(path) if segment.get("trace_id")]


class TraceSegmentStore:
    """Bounded in-memory segment store (coordinator / in-process mode).

    Keeps the most recent ``limit`` traces so ``GET /jobs/<id>/trace``
    works in single-process mode too, where no shared directory exists.
    """

    def __init__(self, limit: int = 256):
        self.limit = max(1, int(limit))
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[dict]]" = OrderedDict()

    def add(self, segment: dict) -> None:
        trace_id = segment.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                bucket = []
                self._traces[trace_id] = bucket
            bucket.append(segment)
            self._traces.move_to_end(trace_id)
            while len(self._traces) > self.limit:
                self._traces.popitem(last=False)

    def segments(self, trace_id: str) -> list[dict]:
        with self._lock:
            return [dict(seg) for seg in self._traces.get(trace_id, ())]

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)


# ---------------------------------------------------------------------------
# Stitching: segments → one rooted span list → Chrome trace
# ---------------------------------------------------------------------------


def stitch_trace(trace_id: str, segments: Iterable[dict]) -> list[dict]:
    """Merge trace segments into one span list for ``trace_id``.

    Re-emissions of the same span id merge: earliest non-null start wins,
    latest non-null end wins, attributes overlay — this is how the root
    span, written open at submit and re-emitted closed at webhook
    delivery, ends up as one closed span.  Spans still open after the
    merge (close segment lost with a crashed coordinator) are closed
    against the latest end seen anywhere in the trace, so the stitched
    tree always renders.  Output is sorted by start time.
    """
    merged: dict[str, dict] = {}
    order: list[str] = []
    for segment in segments:
        if segment.get("trace_id") != trace_id:
            continue
        for span in segment.get("spans") or ():
            if not isinstance(span, dict):
                continue
            span_id = span.get("span_id")
            if not span_id:
                continue
            existing = merged.get(span_id)
            if existing is None:
                record = dict(span)
                record.setdefault("parent_id", "")
                record.setdefault("name", "")
                record.setdefault("start", 0.0)
                record.setdefault("end", None)
                record["attrs"] = dict(span.get("attrs") or {})
                merged[span_id] = record
                order.append(span_id)
                continue
            start = span.get("start")
            if start is not None and start < existing["start"]:
                existing["start"] = start
            end = span.get("end")
            if end is not None and (existing["end"] is None or end > existing["end"]):
                existing["end"] = end
            existing["attrs"].update(span.get("attrs") or {})
            if not existing["name"]:
                existing["name"] = span.get("name", "")
            if not existing["parent_id"]:
                existing["parent_id"] = span.get("parent_id", "")
    spans = [merged[span_id] for span_id in order]
    latest_end = None
    for span in spans:
        if span["end"] is not None and (latest_end is None or span["end"] > latest_end):
            latest_end = span["end"]
    for span in spans:
        if span["end"] is None:
            if latest_end is not None and latest_end >= span["start"]:
                span["end"] = latest_end
            else:
                span["end"] = span["start"]
    spans.sort(key=lambda span: (span["start"], span["span_id"]))
    return spans


def trace_payload(trace_id: str, segments: Iterable[dict]) -> dict:
    """The ``GET /jobs/<id>/trace`` document for one stitched trace.

    A valid Chrome ``trace_event`` file (extra top-level keys are allowed
    by the format) carrying the raw stitched spans alongside, so tests
    and tools can assert tree shape without re-parsing ``traceEvents``.
    """
    segments = [seg for seg in segments if seg.get("trace_id") == trace_id]
    spans = stitch_trace(trace_id, segments)
    ids = {span["span_id"] for span in spans}
    roots = [
        span["span_id"] for span in spans
        if not span["parent_id"] or span["parent_id"] not in ids
    ]
    orphans = [
        span["span_id"] for span in spans
        if span["parent_id"] and span["parent_id"] not in ids
    ]
    payload = render_chrome_trace(trace_id, spans)
    payload.update(
        {
            "trace_id": trace_id,
            "spans": spans,
            "segments": len(segments),
            "sources": sorted({seg.get("source", "") for seg in segments}),
            "roots": roots,
            "orphan_spans": orphans,
        }
    )
    return payload


# ---------------------------------------------------------------------------
# Metrics federation: worker snapshots → merged exposition
# ---------------------------------------------------------------------------


def export_metrics_snapshot(
    path: str,
    registry,
    stats: Optional[dict] = None,
    time_fn: Callable[[], float] = time.time,
) -> None:
    """Atomically export one process's registry into the shared directory.

    Reuses :func:`~.snapshot.write_snapshot` (an atomic rewrite), so the
    coordinator never reads a torn snapshot; the wall-clock
    ``exported_at`` inside ``stats`` is what staleness fencing compares
    against.
    """
    stats = dict(stats or {})
    stats.setdefault("exported_at", time_fn())
    write_snapshot(path, stats, registry)


def read_metrics_snapshots(
    paths: dict,
    now: Optional[float] = None,
) -> list[dict]:
    """Load exported snapshots: ``{source: path}`` → one row per source.

    Unreadable or torn files are skipped (the next export heals them);
    each row carries ``worker``, ``exported_at``, ``age`` (when ``now``
    given), the JSON ``metrics`` families, and the exporter's ``stats``.
    """
    rows = []
    for source in sorted(paths):
        try:
            snap = load_snapshot(paths[source])
        except (OSError, ValueError):
            continue
        stats = snap.get("stats") or {}
        try:
            exported_at = float(stats.get("exported_at") or 0.0)
        except (TypeError, ValueError):
            exported_at = 0.0
        row = {
            "worker": source,
            "exported_at": exported_at,
            "metrics": snap.get("metrics") or {},
            "stats": stats,
        }
        if now is not None:
            row["age"] = max(0.0, now - exported_at)
        rows.append(row)
    return rows


def _fleet_name(name: str) -> str:
    if name.startswith("confvalley_"):
        return "confvalley_fleet_" + name[len("confvalley_"):]
    return "confvalley_fleet_" + name


def _label_worker(labels: dict, worker: str) -> dict:
    labeled = dict(labels)
    labeled[WORKER_LABEL] = worker
    return labeled


def merge_metrics(local: dict, snapshots: Iterable[dict]) -> dict:
    """Merge worker snapshot families into the coordinator's own.

    ``local`` is the coordinator registry's :meth:`to_dict`; its series
    stay unlabeled.  Every worker series is re-exported under the same
    family name with a ``worker`` label.  Rollup families
    (``confvalley_fleet_*``) aggregate across *all* sources: counters
    summed and histograms bucket-wise merged by original label set;
    gauges are not rolled up (they stay per-worker only).  A worker
    histogram whose bucket bounds differ from the family's established
    bounds is skipped — merging mismatched buckets would fabricate data.
    """
    families: dict[str, dict] = {}
    rollups: dict[str, dict] = {}

    def family_for(name: str, source_family: dict) -> Optional[dict]:
        family = families.get(name)
        if family is None:
            family = {
                "kind": source_family.get("kind", ""),
                "help": source_family.get("help", ""),
                "series": [],
            }
            if source_family.get("kind") == "histogram":
                family["buckets"] = list(source_family.get("buckets") or ())
            families[name] = family
            return family
        if family["kind"] != source_family.get("kind"):
            return None
        return family

    def rollup(name: str, source_family: dict, worker_series: list) -> None:
        kind = source_family.get("kind")
        if kind not in ("counter", "histogram"):
            return
        fleet = rollups.get(_fleet_name(name))
        if fleet is None:
            fleet = {
                "kind": kind,
                "help": f"fleet rollup of {name} across all processes",
                "series": {},
            }
            if kind == "histogram":
                fleet["buckets"] = list(source_family.get("buckets") or ())
            rollups[_fleet_name(name)] = fleet
        if fleet["kind"] != kind:
            return
        if kind == "histogram" and list(source_family.get("buckets") or ()) != fleet["buckets"]:
            return
        for series in worker_series:
            key = _label_key(series.get("labels") or {})
            slot = fleet["series"].get(key)
            if kind == "counter":
                value = float(series.get("value") or 0.0)
                fleet["series"][key] = (slot or 0.0) + value
            else:
                counts = list(series.get("counts") or ())
                if len(counts) != len(fleet["buckets"]) + 1:
                    continue
                if slot is None:
                    fleet["series"][key] = {
                        "counts": counts,
                        "sum": float(series.get("sum") or 0.0),
                        "count": int(series.get("count") or 0),
                    }
                else:
                    slot["counts"] = [
                        a + b for a, b in zip(slot["counts"], counts)
                    ]
                    slot["sum"] += float(series.get("sum") or 0.0)
                    slot["count"] += int(series.get("count") or 0)

    for name in sorted(local):
        source_family = local[name]
        family = family_for(name, source_family)
        if family is None:
            continue
        family["series"].extend(dict(series) for series in source_family.get("series") or ())
        rollup(name, source_family, source_family.get("series") or [])

    for row in snapshots:
        worker = row.get("worker", "")
        for name in sorted(row.get("metrics") or {}):
            source_family = row["metrics"][name]
            if not isinstance(source_family, dict):
                continue
            family = family_for(name, source_family)
            if family is None:
                continue
            if (
                source_family.get("kind") == "histogram"
                and list(source_family.get("buckets") or ())
                != family.get("buckets")
            ):
                continue
            labeled = [
                dict(series, labels=_label_worker(series.get("labels") or {}, worker))
                for series in source_family.get("series") or ()
            ]
            family["series"].extend(labeled)
            rollup(name, source_family, source_family.get("series") or [])

    for name, fleet in rollups.items():
        if fleet["kind"] == "counter":
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(fleet["series"].items())
            ]
        else:
            series = [
                {
                    "labels": dict(key),
                    "counts": slot["counts"],
                    "sum": slot["sum"],
                    "count": slot["count"],
                }
                for key, slot in sorted(fleet["series"].items())
            ]
        merged = {"kind": fleet["kind"], "help": fleet["help"], "series": series}
        if fleet["kind"] == "histogram":
            merged["buckets"] = fleet["buckets"]
        families[name] = merged

    return families


def fleet_meta_families(fleet: dict) -> dict:
    """``confvalley_fleet_*`` presence/freshness families from a fleet payload.

    * ``confvalley_fleet_workers{state}`` — exporting workers by freshness;
    * ``confvalley_fleet_metrics_age_seconds{worker}`` — snapshot age;
    * ``confvalley_fleet_trace_segments_total{worker}`` — segments written;
    * ``confvalley_fleet_trace_segment_lag_seconds{worker}`` — time since
      a source last recorded a trace segment.
    """
    rows = fleet.get("workers") or []
    fresh = sum(1 for row in rows if row.get("fresh"))
    families = {
        "confvalley_fleet_workers": {
            "kind": "gauge",
            "help": "metric-exporting worker processes by snapshot freshness",
            "series": [
                {"labels": {"state": "fresh"}, "value": float(fresh)},
                {"labels": {"state": "stale"}, "value": float(len(rows) - fresh)},
            ],
        },
        "confvalley_fleet_metrics_age_seconds": {
            "kind": "gauge",
            "help": "age of each worker's last exported metrics snapshot",
            "series": [
                {
                    "labels": {WORKER_LABEL: row.get("worker", "")},
                    "value": float(row.get("metrics_age_s") or 0.0),
                }
                for row in rows
            ],
        },
    }
    sources = (fleet.get("traces") or {}).get("sources") or []
    families["confvalley_fleet_trace_segments_total"] = {
        "kind": "counter",
        "help": "trace segments recorded per process partition",
        "series": [
            {
                "labels": {WORKER_LABEL: row.get("source", "")},
                "value": float(row.get("segments") or 0),
            }
            for row in sources
        ],
    }
    families["confvalley_fleet_trace_segment_lag_seconds"] = {
        "kind": "gauge",
        "help": "seconds since each process last recorded a trace segment",
        "series": [
            {
                "labels": {WORKER_LABEL: row.get("source", "")},
                "value": float(row.get("lag_s") or 0.0),
            }
            for row in sources
            if row.get("lag_s") is not None
        ],
    }
    return families


def render_families(families: dict) -> str:
    """Prometheus text exposition of merged family dicts.

    Mirrors :meth:`MetricsRegistry.to_prometheus` — sorted families,
    sorted series, the same value formatting and label escaping — but
    renders from the JSON family shape so federated (dict-merged)
    families and live-registry families share one output format.
    """
    lines: list[str] = []
    for name in sorted(families):
        family = families[name]
        kind = family.get("kind", "untyped")
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        series = sorted(
            (family.get("series") or ()),
            key=lambda row: _label_key(row.get("labels") or {}),
        )
        if kind == "histogram":
            buckets = list(family.get("buckets") or ())
            if not series:
                series = [{"labels": {}, "counts": [0] * (len(buckets) + 1),
                           "sum": 0.0, "count": 0}]
            for row in series:
                key = _label_key(row.get("labels") or {})
                counts = list(row.get("counts") or [0] * (len(buckets) + 1))
                cumulative = 0
                for bound, count in zip(buckets, counts):
                    cumulative += count
                    bucket_key = key + (("le", _format_value(bound)),)
                    lines.append(
                        f"{name}_bucket{_render_labels(bucket_key)} {cumulative}"
                    )
                cumulative += counts[-1] if counts else 0
                inf_key = key + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_render_labels(inf_key)} {cumulative}")
                lines.append(
                    f"{name}_sum{_render_labels(key)} "
                    f"{_format_value(float(row.get('sum') or 0.0))}"
                )
                lines.append(
                    f"{name}_count{_render_labels(key)} {int(row.get('count') or 0)}"
                )
            continue
        if not series:
            series = [{"labels": {}, "value": 0.0}]
        for row in series:
            key = _label_key(row.get("labels") or {})
            lines.append(
                f"{name}{_render_labels(key)} "
                f"{_format_value(float(row.get('value') or 0.0))}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# The coordinator-side fleet view
# ---------------------------------------------------------------------------


class FleetView:
    """One pane of glass over the fleet: traces + federated metrics.

    Owned by the coordinating :class:`~repro.jobs.service.JobService`.
    With a shared job directory it reads worker trace partitions and
    metrics snapshots from disk and writes the coordinator's own
    segments to ``traces/coordinator.jsonl`` (so offline journal-dir
    stitching sees the submit/webhook spans too); without one (pure
    in-process mode) everything lives in the bounded in-memory store.
    """

    SOURCE = "coordinator"

    def __init__(
        self,
        directory=None,
        stale_after: Optional[float] = None,
        time_fn: Callable[[], float] = time.time,
        store_limit: int = 256,
    ):
        self.directory = directory
        self.stale_after = stale_after
        self._time = time_fn
        self.store = TraceSegmentStore(store_limit)
        self._writer = None
        if directory is not None:
            self._writer = TraceSegmentWriter(
                directory.trace_partition(self.SOURCE), self.SOURCE, time_fn
            )

    # -- traces --------------------------------------------------------

    def record_segment(self, trace_id: str, spans: Iterable[dict]) -> None:
        """Record coordinator-side spans for one trace (memory + disk)."""
        spans = [dict(span) for span in spans]
        if not spans:
            return
        if self._writer is not None:
            segment = self._writer.write(trace_id, spans)
        else:
            segment = {
                "v": TRACE_SEGMENT_VERSION,
                "trace_id": trace_id,
                "source": self.SOURCE,
                "recorded_at": self._time(),
                "spans": spans,
            }
        self.store.add(segment)

    def close(self) -> None:
        """Close the coordinator's trace partition (reopened on next use)."""
        if self._writer is not None:
            self._writer.close()

    def trace_segments(self, trace_id: str) -> list[dict]:
        """All known segments for one trace: memory plus disk partitions."""
        segments = self.store.segments(trace_id)
        if self.directory is not None:
            # segments this process wrote live both in the store and on
            # disk; (source, recorded_at) identity dedupes the overlap
            seen_disk = {
                (seg.get("source"), seg.get("recorded_at"))
                for seg in segments
            }
            for path in self.directory.trace_partitions().values():
                for segment in read_trace_segments(path):
                    if segment.get("trace_id") != trace_id:
                        continue
                    marker = (segment.get("source"), segment.get("recorded_at"))
                    if marker in seen_disk:
                        continue
                    seen_disk.add(marker)
                    segments.append(segment)
        return segments

    def trace(self, trace_id: str) -> dict:
        return trace_payload(trace_id, self.trace_segments(trace_id))

    def trace_stats(self) -> list[dict]:
        """Per-source segment counts and recency, for `/fleet` and lag."""
        now = self._time()
        rows = []
        if self.directory is not None:
            for source, path in sorted(self.directory.trace_partitions().items()):
                segments = read_trace_segments(path)
                last = max(
                    (seg.get("recorded_at") or 0.0 for seg in segments),
                    default=None,
                )
                rows.append(
                    {
                        "source": source,
                        "segments": len(segments),
                        "last_segment_at": last,
                        "lag_s": (
                            round(max(0.0, now - last), 3)
                            if last else None
                        ),
                    }
                )
        return rows

    # -- metrics -------------------------------------------------------

    def _stale_after(self) -> float:
        if self.stale_after is not None:
            return self.stale_after
        return 10.0

    def metric_rows(self) -> list[dict]:
        """One row per exported snapshot, each flagged ``fresh``."""
        if self.directory is None:
            return []
        now = self._time()
        stale_after = self._stale_after()
        rows = read_metrics_snapshots(self.directory.metrics_snapshots(), now)
        for row in rows:
            row["metrics_age_s"] = round(row.pop("age", 0.0), 3)
            row["fresh"] = row["metrics_age_s"] <= stale_after
        return rows

    def merged_families(self, local: dict) -> dict:
        """Coordinator families + fresh worker snapshots + fleet meta."""
        rows = self.metric_rows()
        fresh = [row for row in rows if row["fresh"]]
        families = merge_metrics(local, fresh)
        families.update(fleet_meta_families(self.fleet_payload(rows)))
        return families

    # -- the /fleet document -------------------------------------------

    def fleet_payload(self, rows: Optional[list] = None) -> dict:
        if rows is None:
            rows = self.metric_rows()
        workers = [
            {
                "worker": row["worker"],
                "exported_at": row["exported_at"],
                "metrics_age_s": row["metrics_age_s"],
                "fresh": row["fresh"],
                "families": len(row.get("metrics") or {}),
            }
            for row in rows
        ]
        return {
            "federation": self.directory is not None,
            "stale_after_s": self._stale_after(),
            "workers": workers,
            "traces": {
                "sources": self.trace_stats(),
                "stored_traces": len(self.store.trace_ids()),
            },
        }
