"""TOML driver (new config surface; ConfEx-style multi-format discovery).

Uses the stdlib :mod:`tomllib` parser and the shared mapping walker, so TOML
tables produce the same unified keys as structurally identical JSON/YAML::

    [service.frontend]
    port = 8080

yields ``service.frontend.port``.  Arrays of tables become ordinal sibling
scopes (with a name-ish attribute promoted to the qualifier when present),
exactly like lists of mappings in the JSON and YAML drivers.
"""

from __future__ import annotations

from ..errors import DriverError
from ..repository.model import ConfigInstance
from .base import Driver, register_driver, scope_segments, walk_mapping

__all__ = ["TOMLDriver"]


class TOMLDriver(Driver):
    format_name = "toml"

    def parse(self, text: str, source: str = "", scope: str = "") -> list[ConfigInstance]:
        import tomllib  # only TOML sources pay for it

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise DriverError(
                f"malformed TOML in {source or '<string>'}: {exc}"
            ) from exc
        return walk_mapping(data, scope_segments(scope), source)


register_driver(TOMLDriver())
