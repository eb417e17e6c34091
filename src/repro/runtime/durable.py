"""Durable on-disk state: one JSON-lines log, one reader, one atomic write.

Everything the service keeps on disk has one of two shapes, and each shape
is written here once:

* **an append-only JSON-lines log** (:class:`JsonLinesLog`) — the job
  journal, the worker partitions, the lifecycle journal and the trace
  partitions.  One JSON object per line (sorted keys, no spaces), written
  and flushed under one lock per append; ``fsync`` per append is off by
  default, because a flush survives a process crash (the kernel owns the
  page), which is the failure the service recovers from.  A log with a
  ``snapshot_source`` compacts itself every ``rotate_after`` appends into
  a single ``{"event": "snapshot", ...}`` line.  The snapshot is built
  **under the writer lock**, so a concurrent appender's event either
  precedes the snapshot (and is folded into it) or lands after the swap;
* **a small file rewritten whole** (:func:`atomic_write`) — leases, worker
  heartbeats, published specs, metrics snapshots, and a log's rotation.
  A hidden same-directory temp file is written, fsynced and published
  with ``os.replace``, so a reader sees the old file or the new one,
  never a torn one; on failure the temp file is removed and the target
  is left as it was.

Crash rules for a log:

* reading (:func:`read_log`): a missing file is an empty log, a torn
  trailing line (a writer killed mid-append) is dropped, and a corrupt
  line anywhere else is skipped with a warning, so one bad event cannot
  take the whole log hostage;
* tailing (:class:`LogTail`): only complete lines are consumed, so a
  partial last line is read once, on the poll after its newline lands;
* appending after a crash: a log whose last line is torn gets a newline
  before the first new event, so the torn bytes become one corrupt middle
  line and the new event starts a line of its own.  The file is never
  truncated: a tail in another process may hold an offset past the torn
  bytes.

What the events mean — the job, worker, lifecycle and trace grammars and
their folds — belongs to the modules that own them; this module is only
the mechanism.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, Optional

from ..observability import get_logger

__all__ = ["JsonLinesLog", "LogTail", "read_log", "atomic_write"]

_log = get_logger("runtime.durable")


def atomic_write(path: str, *chunks: str) -> None:
    """Replace ``path`` with the concatenated ``chunks``, all or nothing.

    Several chunks let a caller write a large string and its newline
    without building the joined copy.
    """
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(
        directory, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _parse_lines(lines: list[str], path: str, torn_tail: bool) -> list[dict]:
    """JSON objects from ``lines``; a line that is not one is skipped.

    With ``torn_tail``, a bad *last* line is the signature of a writer
    killed mid-append and is dropped as such; any other bad line is
    logged as corrupt.
    """
    events = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            event = None
        if isinstance(event, dict):
            events.append(event)
        elif torn_tail and index == last:
            _log.warning(
                "dropping torn trailing line", extra={"path": path, "line": index + 1}
            )
        else:
            _log.warning(
                "skipping corrupt line", extra={"path": path, "line": index + 1}
            )
    return events


def read_log(path: str) -> list[dict]:
    """Every event of one log file, oldest first (missing file = none)."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return []
    return _parse_lines(lines, path, torn_tail=True)


class LogTail:
    """Incremental reader of one append-only log file.

    Remembers the byte offset of the last fully-parsed line and returns
    only events appended since.  A partial trailing line (a writer racing
    the read, or a crash mid-append) is left unconsumed — it is re-read
    on the next poll once (if ever) its newline lands.  A file that
    *shrank* (a log after a rotation) resets the tail to the start, and
    the caller gets the snapshot-led stream again.
    """

    def __init__(self, path: str):
        self.path = path
        self.offset = 0

    def poll(self) -> tuple[list[dict], bool]:
        """``(new events, reset)`` — ``reset`` means re-read from zero."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return [], False
        reset = size < self.offset
        if reset:
            self.offset = 0
        if size == self.offset:
            return [], reset
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            chunk = handle.read(size - self.offset)
        end = chunk.rfind(b"\n")
        if end < 0:  # no complete line yet
            return [], reset
        self.offset += end + 1
        lines = chunk[: end + 1].decode("utf-8", "replace").splitlines()
        return _parse_lines(lines, self.path, torn_tail=False), reset


def _ends_torn(path: str) -> bool:
    """True when ``path`` is non-empty and its last byte is not a newline."""
    try:
        with open(path, "rb") as handle:
            if handle.seek(0, os.SEEK_END) == 0:
                return False
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except FileNotFoundError:
        return False


class JsonLinesLog:
    """Append-only JSON-lines log with optional snapshot rotation.

    ``snapshot_source`` returns the payload of the compacted log (the log
    adds ``"event": "snapshot"``).  It is called while the writer lock is
    held, so it must not block on a lock held by a thread that is itself
    waiting to append.
    """

    def __init__(
        self,
        path: str,
        rotate_after: int = 4096,
        fsync: bool = False,
        snapshot_source: Optional[Callable[[], object]] = None,
    ):
        self.path = path
        self.rotate_after = max(1, rotate_after)
        self.fsync = fsync
        self.snapshot_source = snapshot_source
        self._lock = threading.Lock()
        self._handle = None
        self._appended = 0
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)

    # -- writing -------------------------------------------------------

    def _open(self):
        if self._handle is None:
            newline = _ends_torn(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")
            if newline:
                # end the line a crash tore, so the next event is whole
                self._handle.write("\n")
        return self._handle

    def append(self, event: dict) -> None:
        """Record one event, rotating when the log has grown long."""
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        with self._lock:
            handle = self._open()
            handle.write(line + "\n")
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._appended += 1
            if (
                self._appended >= self.rotate_after
                and self.snapshot_source is not None
            ):
                self._rotate_locked(self.snapshot_source)

    def rotate(self, snapshot) -> None:
        """Compact the log to one snapshot line (atomic replace).

        Pass a *callable* to have the snapshot built under the writer
        lock — the only form that is safe while other threads may still
        be appending (a value built beforehand can miss events appended
        between its construction and the swap).
        """
        with self._lock:
            self._rotate_locked(snapshot)

    def _payload(self, snapshot) -> dict:
        """The snapshot line's fields, before ``"event"`` is added."""
        return dict(snapshot)

    def _rotate_locked(self, snapshot) -> None:
        if callable(snapshot):
            snapshot = snapshot()
        payload = self._payload(snapshot)
        payload["event"] = "snapshot"
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        atomic_write(self.path, line, "\n")
        self._appended = 0
        _log.info("log rotated", extra={"path": self.path})

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # -- reading -------------------------------------------------------

    def replay(self) -> list[dict]:
        """The event stream from disk (snapshot first when compacted)."""
        return read_log(self.path)
