"""Runtime information provider (paper §4.3).

"The validation engine may also collect some runtime information such as the
host environment to evaluate predicates that require this information.  For
example, the OS name of a host or date time can be used in predicates."

The provider is injectable: validation sessions default to
:class:`HostRuntime` but tests and the synthetic benchmarks pin a
:class:`StaticRuntime` so predicate outcomes are reproducible.  Values are
exposed to CPL as pseudo-variables (``$env.os``, ``$env.hostname``, …) and
consumed by the evaluator's variable-substitution step, plus the
``reachable`` predicate resolves endpoints against the provider.
"""

from __future__ import annotations

import hashlib
import os
from typing import Mapping, Optional

from .filesystem import FakeFileSystem, FileSystem, RealFileSystem

__all__ = ["RuntimeProvider", "HostRuntime", "StaticRuntime"]


class RuntimeProvider:
    """Environment facts + filesystem + endpoint reachability."""

    def __init__(self, filesystem: Optional[FileSystem] = None):
        self.filesystem = filesystem if filesystem is not None else RealFileSystem()

    def environment(self) -> dict[str, str]:
        """Facts exposed to CPL as ``$env.<name>`` variables."""
        raise NotImplementedError

    def read_bytes(self, path: str) -> bytes:
        """Read a configuration/spec file for the validation pipeline.

        All source and spec-file I/O in :class:`~repro.core.session.ValidationSession`
        routes through this hook, so providers can virtualize it — notably
        :class:`repro.resilience.FaultyRuntimeProvider`, which injects
        deterministic I/O faults for chaos testing.
        """
        with open(path, "rb") as handle:
            return handle.read()

    def probe(self, path: str) -> Optional[tuple[int, int, str]]:
        """Change token for ``path``: ``(mtime_ns, size, content digest)``.

        ``None`` when the file cannot be statted or read.  The continuous
        service compares successive probes to decide whether a watched
        file changed; including size and a content hash catches rewrites
        that preserve the mtime (same-second writes, ``cp -p``, archive
        extraction), which an mtime-only comparison silently misses.
        """
        try:
            stat = os.stat(path)
            # Deliberately bypasses read_bytes: the probe is a change
            # detector, not pipeline I/O.  Fault-injecting providers
            # target load-time reads; a probe consuming injected faults
            # would desynchronize seeded chaos plans from the loads they
            # are meant to hit.
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size, digest)

    def is_reachable(self, endpoint: str) -> bool:
        raise NotImplementedError


class HostRuntime(RuntimeProvider):
    """Reads facts from the host machine."""

    # socket, platform and datetime load here, not at import: most runs
    # never ask the host for facts

    def environment(self) -> dict[str, str]:
        import datetime
        import platform
        import socket

        now = datetime.datetime.now()
        return {
            "os": platform.system(),
            "hostname": socket.gethostname(),
            "date": now.strftime("%Y-%m-%d"),
            "time": now.strftime("%H:%M:%S"),
            "weekday": now.strftime("%A"),
        }

    def is_reachable(self, endpoint: str) -> bool:
        import socket

        host, __, port_text = endpoint.partition(":")
        port = int(port_text) if port_text.isdigit() else 80
        try:
            with socket.create_connection((host, port), timeout=1):
                return True
        except OSError:
            return False


class StaticRuntime(RuntimeProvider):
    """Fixed facts and reachable-endpoint set, for deterministic runs."""

    def __init__(
        self,
        environment: Optional[Mapping[str, str]] = None,
        reachable: Optional[set[str]] = None,
        filesystem: Optional[FileSystem] = None,
    ):
        super().__init__(filesystem if filesystem is not None else FakeFileSystem())
        self._environment = dict(environment or {"os": "Linux", "hostname": "testhost"})
        self._reachable = set(reachable or ())

    def environment(self) -> dict[str, str]:
        return dict(self._environment)

    def add_reachable(self, endpoint: str) -> None:
        self._reachable.add(endpoint)

    def is_reachable(self, endpoint: str) -> bool:
        return endpoint in self._reachable
