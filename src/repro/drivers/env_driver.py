"""Dotenv-style environment-file driver (new config surface).

Hand-parsed ``KEY=VALUE`` lines in the common dotenv dialect:

* ``#`` comment lines and blank lines are skipped; an unquoted value may
  carry a trailing ``# comment``;
* an optional ``export `` prefix is stripped (shell-sourceable files);
* single-quoted values are literal; double-quoted values honor the usual
  backslash escapes (``\\n``, ``\\t``, ``\\"``, ``\\\\``, ``\\$``);
* underscores in key names double as scope separators only when a scope is
  *not* already encoded: keys are kept verbatim — ``DATABASE_URL`` stays one
  key, matching how operators grep their env files.

Duplicate keys become multiple instances of the same class and are
disambiguated by the store's ordinal bump, mirroring "last one wins with a
visible history" rather than silently dropping earlier assignments.
"""

from __future__ import annotations

from ..errors import DriverError
from ..repository.keys import InstanceKey, segment
from ..repository.model import ConfigInstance
from .base import Driver, register_driver, scope_segments

__all__ = ["EnvFileDriver"]

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "$": "$"}


def _unescape(value: str, source: str, lineno: int) -> str:
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\":
            if index + 1 >= len(value):
                raise DriverError(
                    f"{source or '<string>'}:{lineno}: dangling backslash "
                    f"at end of double-quoted value"
                )
            out.append(_ESCAPES.get(value[index + 1], value[index + 1]))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


class EnvFileDriver(Driver):
    format_name = "env"

    def parse(self, text: str, source: str = "", scope: str = "") -> list[ConfigInstance]:
        prefix = scope_segments(scope)
        out: list[ConfigInstance] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("export ") or line.startswith("export\t"):
                line = line[len("export "):].lstrip()
            index = line.find("=")
            if index <= 0:
                raise DriverError(
                    f"{source or '<string>'}:{lineno}: expected 'KEY=VALUE'"
                )
            key = line[:index].rstrip()
            if not key.replace("_", "").replace(".", "").isalnum():
                raise DriverError(
                    f"{source or '<string>'}:{lineno}: invalid key {key!r}"
                )
            value = line[index + 1:].strip()
            if value.startswith('"'):
                end = self._closing_quote(value, '"', source, lineno)
                value = _unescape(value[1:end], source, lineno)
            elif value.startswith("'"):
                end = self._closing_quote(value, "'", source, lineno)
                value = value[1:end]
            else:
                comment = value.find(" #")
                if comment >= 0:
                    value = value[:comment].rstrip()
            segments = tuple(map(segment, key.split(".")))
            out.append(ConfigInstance(InstanceKey(prefix + segments), value, source))
        return out

    @staticmethod
    def _closing_quote(value: str, quote: str, source: str, lineno: int) -> int:
        index = 1
        while index < len(value):
            if quote == '"' and value[index] == "\\":
                index += 2
                continue
            if value[index] == quote:
                trailer = value[index + 1:].strip()
                if trailer and not trailer.startswith("#"):
                    raise DriverError(
                        f"{source or '<string>'}:{lineno}: unexpected text "
                        f"after closing quote: {trailer!r}"
                    )
                return index
            index += 1
        raise DriverError(
            f"{source or '<string>'}:{lineno}: unterminated {quote} quote"
        )


register_driver(EnvFileDriver())
