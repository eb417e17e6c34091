"""Lease-based job claiming for multi-process execution.

When workers are independent processes (``confvalley worker``), the
in-memory queue stops being the arbiter of "who runs this job" — two
processes replaying the same journal directory would happily both pick
the same QUEUED job.  This module provides the arbitration and the
failure detector:

* **claims** — a worker claims a job by creating
  ``leases/<job_id>.json`` with ``O_CREAT | O_EXCL``.  The filesystem
  makes exactly one creator win, which is the single-writer arbitration
  the claim protocol needs; the loser moves on to the next candidate.
  The lease file carries ``(job id, worker id, epoch, deadline)``; the
  epoch is the fencing token the journal replay honors
  (:func:`repro.jobs.journal.apply_worker_event`).
* **heartbeats** — the holder renews its lease by atomically rewriting
  the file with a pushed-out deadline (an fsynced atomic rewrite, so a
  reader never sees a torn lease).  Renewal fails loudly when the file
  was broken or re-claimed by someone else — the holder has been fenced
  and must not record a result as the current claimant.
* **expiry** — the coordinating service's reaper treats a lease whose
  deadline passed as a dead worker: the lease is broken and the job
  re-queued (bounded by the service's retry budget, terminal ``EXPIRED``
  beyond it).  Deadlines are wall-clock (``time.time``) because they are
  compared *across processes*; the clock is injectable for tests.
* **presence** — each worker also maintains ``workers/<id>.hb.json``
  (atomic rewrite per heartbeat) with its pid and progress counters, the
  data behind ``GET /workers``.

The shared directory layout (:class:`JobDirectory`)::

    <dir>/
      coordinator.jsonl     # the coordinating service's journal partition
      workers/<id>.jsonl    # one append-only partition per worker process
      workers/<id>.hb.json  # worker presence heartbeat (atomic rewrite)
      leases/<job_id>.json  # live leases (O_EXCL create = claim)
      specs/<name>.cpl      # registered named specs, visible to workers
      traces/<id>.jsonl     # per-worker trace-segment partitions (append)
      metrics/<id>.json     # per-worker metrics snapshots (atomic rewrite)
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..observability import get_logger
from ..runtime.durable import atomic_write

__all__ = ["Lease", "LeaseStore", "JobDirectory"]

_log = get_logger("jobs.lease")

#: lease time-to-live between heartbeats (seconds); workers renew at
#: ``ttl / 3`` by default, so two missed heartbeats still keep the lease
DEFAULT_LEASE_TTL = 10.0


def heartbeat_interval(ttl: float) -> float:
    """The default renewal cadence for a lease of ``ttl`` seconds."""
    return max(0.05, ttl / 3.0)


@dataclass
class Lease:
    """One live claim: which worker runs which job, until when."""

    job_id: str
    worker: str
    epoch: int
    deadline: float
    claimed_at: float = 0.0
    heartbeats: int = 0

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "worker": self.worker,
            "epoch": self.epoch,
            "deadline": self.deadline,
            "claimed_at": self.claimed_at,
            "heartbeats": self.heartbeats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        return cls(
            job_id=data.get("job_id", ""),
            worker=data.get("worker", ""),
            epoch=int(data.get("epoch", 0)),
            deadline=float(data.get("deadline", 0.0)),
            claimed_at=float(data.get("claimed_at", 0.0)),
            heartbeats=int(data.get("heartbeats", 0)),
        )


class JobDirectory:
    """Path conventions of a shared multi-process job directory."""

    COORDINATOR = "coordinator.jsonl"

    def __init__(self, root: str):
        self.root = os.path.abspath(root)

    @property
    def coordinator_journal(self) -> str:
        return os.path.join(self.root, self.COORDINATOR)

    @property
    def workers_dir(self) -> str:
        return os.path.join(self.root, "workers")

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, "leases")

    @property
    def specs_dir(self) -> str:
        return os.path.join(self.root, "specs")

    @property
    def traces_dir(self) -> str:
        return os.path.join(self.root, "traces")

    @property
    def metrics_dir(self) -> str:
        return os.path.join(self.root, "metrics")

    def ensure(self) -> "JobDirectory":
        for path in (self.root, self.workers_dir, self.leases_dir,
                     self.specs_dir, self.traces_dir, self.metrics_dir):
            os.makedirs(path, exist_ok=True)
        return self

    def worker_partition(self, worker_id: str) -> str:
        return os.path.join(self.workers_dir, f"{_safe_name(worker_id)}.jsonl")

    def worker_heartbeat(self, worker_id: str) -> str:
        return os.path.join(self.workers_dir, f"{_safe_name(worker_id)}.hb.json")

    def trace_partition(self, source_id: str) -> str:
        """Append-only trace-segment partition for one process."""
        return os.path.join(self.traces_dir, f"{_safe_name(source_id)}.jsonl")

    def trace_partitions(self) -> dict[str, str]:
        """``{source id: partition path}`` for every trace partition."""
        try:
            names = os.listdir(self.traces_dir)
        except OSError:
            return {}
        return {
            name[: -len(".jsonl")]: os.path.join(self.traces_dir, name)
            for name in sorted(names)
            if name.endswith(".jsonl")
        }

    def metrics_snapshot(self, source_id: str) -> str:
        """Atomically-rewritten metrics snapshot for one process."""
        return os.path.join(self.metrics_dir, f"{_safe_name(source_id)}.json")

    def metrics_snapshots(self) -> dict[str, str]:
        """``{source id: snapshot path}`` for every exported snapshot."""
        try:
            names = os.listdir(self.metrics_dir)
        except OSError:
            return {}
        return {
            name[: -len(".json")]: os.path.join(self.metrics_dir, name)
            for name in sorted(names)
            if name.endswith(".json") and not name.startswith(".")
        }

    def partitions(self) -> dict[str, str]:
        """``{worker id: partition path}`` for every partition on disk."""
        try:
            names = os.listdir(self.workers_dir)
        except OSError:
            return {}
        return {
            name[: -len(".jsonl")]: os.path.join(self.workers_dir, name)
            for name in sorted(names)
            if name.endswith(".jsonl")
        }

    def publish_spec(self, name: str, text: str) -> str:
        """Atomically write a named spec where worker processes see it."""
        path = os.path.join(self.specs_dir, f"{_safe_name(name)}.cpl")
        atomic_write(path, text)
        return path

    def read_spec(self, name: str) -> Optional[str]:
        path = os.path.join(self.specs_dir, f"{_safe_name(name)}.cpl")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return None


def _safe_name(name: str) -> str:
    """File-system-safe worker/spec name (ids are operator-chosen)."""
    return "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    ) or "_"


class LeaseStore:
    """Claims, renewals, and expiry over the ``leases/`` directory."""

    def __init__(
        self,
        directory: JobDirectory,
        ttl: float = DEFAULT_LEASE_TTL,
        time_fn: Callable[[], float] = time.time,
    ):
        self.directory = directory
        self.ttl = float(ttl)
        self._time = time_fn

    def _lease_path(self, job_id: str) -> str:
        return os.path.join(self.directory.leases_dir, f"{_safe_name(job_id)}.json")

    # -- claim / renew / release ---------------------------------------

    def try_claim(self, job_id: str, worker: str, epoch: int) -> Optional[Lease]:
        """Claim ``job_id`` at ``epoch``; None when someone else holds it.

        ``O_CREAT | O_EXCL`` is the arbitration: exactly one concurrent
        claimant creates the file.  A lease file whose deadline already
        passed does *not* make the claim succeed — breaking stale leases
        is the reaper's job, so that the re-queue (and its retry budget)
        is accounted exactly once, by one process.
        """
        now = self._time()
        lease = Lease(
            job_id=job_id, worker=worker, epoch=epoch,
            deadline=now + self.ttl, claimed_at=now,
        )
        path = self._lease_path(job_id)
        try:
            descriptor = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return None
        except OSError:
            return None
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(lease.to_dict(), handle)
            handle.flush()
        return lease

    def renew(self, lease: Lease) -> bool:
        """Push the deadline out; False = fenced (lease broken/re-owned)."""
        current = self.read(lease.job_id)
        if (
            current is None
            or current.worker != lease.worker
            or current.epoch != lease.epoch
        ):
            return False
        lease.deadline = self._time() + self.ttl
        lease.heartbeats += 1
        atomic_write(self._lease_path(lease.job_id), json.dumps(lease.to_dict()))
        return True

    def release(self, lease: Lease) -> None:
        """Drop the lease after the terminal event is durably journalled."""
        current = self.read(lease.job_id)
        if (
            current is not None
            and current.worker == lease.worker
            and current.epoch == lease.epoch
        ):
            self.break_lease(lease.job_id)

    def break_lease(self, job_id: str) -> None:
        """Remove a lease unconditionally (reaper expiry path)."""
        try:
            os.unlink(self._lease_path(job_id))
        except OSError:
            pass

    # -- reading -------------------------------------------------------

    def read(self, job_id: str) -> Optional[Lease]:
        try:
            with open(self._lease_path(job_id), "r", encoding="utf-8") as handle:
                return Lease.from_dict(json.load(handle))
        except (OSError, ValueError):
            return None

    def live_leases(self) -> list[Lease]:
        """Every parseable lease on disk (fresh and expired alike)."""
        try:
            names = sorted(os.listdir(self.directory.leases_dir))
        except OSError:
            return []
        leases = []
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(
                    os.path.join(self.directory.leases_dir, name),
                    "r", encoding="utf-8",
                ) as handle:
                    leases.append(Lease.from_dict(json.load(handle)))
            except (OSError, ValueError):
                continue  # mid-replace or torn: next scan sees it whole
        return leases

    def expired(self) -> list[Lease]:
        now = self._time()
        return [lease for lease in self.live_leases() if lease.deadline < now]

    # -- worker presence -----------------------------------------------

    def announce(self, worker_id: str, **info) -> None:
        """Publish/refresh this worker's presence heartbeat."""
        payload = {
            "id": worker_id,
            "pid": os.getpid(),
            "last_seen": self._time(),
        }
        payload.update(info)
        atomic_write(
            self.directory.worker_heartbeat(worker_id),
            json.dumps(payload, sort_keys=True),
        )

    def retire(self, worker_id: str) -> None:
        try:
            os.unlink(self.directory.worker_heartbeat(worker_id))
        except OSError:
            pass

    def workers(self, stale_after: Optional[float] = None) -> list[dict]:
        """Announced workers, each flagged ``alive`` by heartbeat age."""
        if stale_after is None:
            stale_after = max(self.ttl, 2.0)
        try:
            names = sorted(os.listdir(self.directory.workers_dir))
        except OSError:
            return []
        now = self._time()
        rows = []
        for name in names:
            if not name.endswith(".hb.json"):
                continue
            try:
                with open(
                    os.path.join(self.directory.workers_dir, name),
                    "r", encoding="utf-8",
                ) as handle:
                    info = json.load(handle)
            except (OSError, ValueError):
                continue
            age = max(0.0, now - float(info.get("last_seen", 0.0)))
            info["heartbeat_age"] = round(age, 3)
            info["alive"] = age <= stale_after
            rows.append(info)
        return rows
