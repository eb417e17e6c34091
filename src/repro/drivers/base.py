"""Driver protocol and registry (paper Figure 3, Table 2).

A driver converts one configuration representation into the unified form: a
flat list of :class:`~repro.repository.model.ConfigInstance` objects.  The
paper maps language-level scopes onto sources in three ways (§4.2.2):

1. scopes already encoded in parameter names (key-value sources),
2. hierarchical formats parsed into tree-path scopes (XML, JSON, YAML),
3. an optional user-supplied scope prefixed to every parameter
   (the ``load 'source' as 'scope'`` form in CPL).

All drivers honor (3) through the ``scope`` argument.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from ..errors import DriverError, UnknownDriverError
from ..observability import get_metrics
from ..repository.keys import (
    InstanceKey, InstanceSegment, concrete_segments, parse_pattern, segment,
)
from ..repository.model import ConfigInstance
from ..runtime import clock as _clock

__all__ = [
    "Driver",
    "register_driver",
    "get_driver",
    "driver_names",
    "scope_segments",
    "walk_mapping",
]

_REGISTRY: dict[str, "Driver"] = {}


class Driver:
    """Base class for configuration-format drivers."""

    #: Registry name, e.g. ``"xml"``.
    format_name = ""

    def parse(self, text: str, source: str = "", scope: str = "") -> list[ConfigInstance]:
        """Convert source text into unified configuration instances.

        ``source`` labels provenance in reports; ``scope`` optionally
        prefixes every produced key (paper §4.2.2 way 3).
        """
        raise NotImplementedError

    def parse_file(self, path: str, scope: str = "") -> list[ConfigInstance]:
        with open(path, "rb") as handle:
            return self.parse_bytes(handle.read(), source=path, scope=scope)

    def parse_bytes(
        self, raw: bytes, source: str = "", scope: str = ""
    ) -> list[ConfigInstance]:
        """Decode and parse raw bytes, converting every failure into a
        structured :class:`~repro.errors.DriverError`.

        This is the supervised entry point used by sessions and the
        continuous-validation service: truncated files, wrong encodings and
        binary garbage come back as typed errors carrying the source path,
        the driver format, and (for decode failures) the byte offset —
        never as a raw ``UnicodeDecodeError`` or a parser-internal crash.
        """
        metrics = get_metrics()
        started = _clock.now() if metrics.enabled else 0.0
        try:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DriverError(
                    f"source is not valid UTF-8 text ({exc.reason})",
                    path=source or None,
                    format_name=self.format_name,
                    offset=exc.start,
                ) from exc
            try:
                instances = self.parse(text, source=source, scope=scope)
            except DriverError as exc:
                raise exc.with_context(
                    path=source or None, format_name=self.format_name
                )
            except Exception as exc:
                raise DriverError(
                    f"unhandled {type(exc).__name__} while parsing: {exc}",
                    path=source or None,
                    format_name=self.format_name,
                ) from exc
        except DriverError:
            if metrics.enabled:
                metrics.counter(
                    "confvalley_driver_parse_errors_total",
                    "Source parse failures, by driver format.",
                ).inc(format=self.format_name)
            raise
        if metrics.enabled:
            metrics.histogram(
                "confvalley_driver_parse_seconds",
                "Per-source parse latency, by driver format (paper Table 2).",
            ).observe(_clock.now() - started, format=self.format_name)
        return instances


def register_driver(driver: Driver) -> Driver:
    """Register (or replace) a driver under its ``format_name``."""
    if not driver.format_name:
        raise DriverError("driver must declare a format_name")
    _REGISTRY[driver.format_name] = driver
    return driver


def get_driver(format_name: str) -> Driver:
    """Look up a registered driver; raises :class:`UnknownDriverError`."""
    try:
        return _REGISTRY[format_name]
    except KeyError:
        raise UnknownDriverError(
            f"no driver registered for format {format_name!r}; "
            f"known formats: {sorted(_REGISTRY)}"
        ) from None


def driver_names() -> list[str]:
    """All registered driver format names, sorted."""
    return sorted(_REGISTRY)


def scope_segments(scope: str) -> tuple[InstanceSegment, ...]:
    """Parse a user-supplied scope prefix into concrete instance segments."""
    if not scope:
        return ()
    segments = concrete_segments(parse_pattern(scope))
    if segments is None:
        raise DriverError(f"scope prefix cannot contain wildcards: {scope!r}")
    return segments


def _scalar(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def walk_mapping(
    data: Mapping,
    prefix: tuple[InstanceSegment, ...],
    source: str,
    name_attrs: Sequence[str] = ("name", "Name", "id", "Id"),
) -> list[ConfigInstance]:
    """Flatten nested mapping/list data into unified instances.

    Shared by the JSON, YAML and REST drivers.  Nested mappings become scope
    segments; lists of mappings become ordinal sibling scopes, using a
    name-ish attribute as the named qualifier when present; lists of scalars
    become multiple instances of the same key (the store disambiguates them
    by ordinal).
    """
    out: list[ConfigInstance] = []
    _walk_value(data, prefix, source, tuple(name_attrs), out)
    return out


def _walk_value(
    value: object,
    prefix: tuple[InstanceSegment, ...],
    source: str,
    name_attrs: tuple[str, ...],
    out: list[ConfigInstance],
) -> None:
    if isinstance(value, Mapping):
        for raw_key, child in value.items():
            key = str(raw_key)
            _walk_child(key, child, prefix, source, name_attrs, out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _walk_value(item, prefix, source, name_attrs, out)
    else:
        if not prefix:
            raise DriverError("top-level scalar has no key")
        out.append(ConfigInstance(InstanceKey(prefix), _scalar(value), source))


def _walk_child(
    key: str,
    child: object,
    prefix: tuple[InstanceSegment, ...],
    source: str,
    name_attrs: tuple[str, ...],
    out: list[ConfigInstance],
) -> None:
    if isinstance(child, Mapping):
        qualifier = None
        for attr in name_attrs:
            if attr in child:
                qualifier = str(child[attr])
                break
        scope = prefix + (segment(key, qualifier),)
        _walk_value(child, scope, source, name_attrs, out)
    elif isinstance(child, (list, tuple)) and any(
        isinstance(item, Mapping) for item in child
    ):
        for ordinal, item in enumerate(child, start=1):
            if isinstance(item, Mapping):
                qualifier = None
                for attr in name_attrs:
                    if attr in item:
                        qualifier = str(item[attr])
                        break
                scope = prefix + (segment(key, qualifier, ordinal),)
                _walk_value(item, scope, source, name_attrs, out)
            else:
                scope = prefix + (segment(key, None, ordinal),)
                out.append(ConfigInstance(InstanceKey(scope), _scalar(item), source))
    else:
        _walk_value(child, prefix + (segment(key),), source, name_attrs, out)
