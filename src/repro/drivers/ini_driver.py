"""INI driver (paper §4.2.2: "some use standard INI or YAML format").

Hand-parsed rather than :mod:`configparser` so key case is preserved (Azure
parameter names are CamelCase) and so dotted section names can expand into
multi-segment scopes::

    [fabric.controller]
    RecoveryAttempts = 3

yields ``fabric.controller.RecoveryAttempts``.  A section may also carry an
instance qualifier using CPL notation (``[Cloud::East1]``).  Keys before any
section header live at top level (under the optional user scope).
Duplicate keys in one section become multiple instances of the same class —
OpenStack's ``MultiStrOpt`` behaves this way.
"""

from __future__ import annotations

from ..errors import DriverError
from ..repository.keys import InstanceKey, InstanceSegment, segment
from ..repository.model import ConfigInstance
from .base import Driver, register_driver, scope_segments

__all__ = ["INIDriver"]


class INIDriver(Driver):
    format_name = "ini"

    def parse(self, text: str, source: str = "", scope: str = "") -> list[ConfigInstance]:
        prefix = scope_segments(scope)
        section: tuple[InstanceSegment, ...] = ()
        out: list[ConfigInstance] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise DriverError(
                        f"{source or '<string>'}:{lineno}: unterminated section header"
                    )
                section = scope_segments(line[1:-1].strip())
                continue
            for separator in ("=", ":"):
                index = line.find(separator)
                if index > 0:
                    key = line[:index].strip()
                    value = line[index + 1:].strip()
                    break
            else:
                raise DriverError(
                    f"{source or '<string>'}:{lineno}: expected 'key = value'"
                )
            key_segments = tuple(map(segment, key.split(".")))
            out.append(
                ConfigInstance(
                    InstanceKey(prefix + section + key_segments), value, source
                )
            )
        return out


register_driver(INIDriver())
