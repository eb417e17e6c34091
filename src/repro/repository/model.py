"""Unified configuration representation (paper §4.2.2, Figure 3).

Drivers convert diverse configuration sources (XML hierarchies, INI files,
key-value stores, REST endpoints, …) into flat collections of
:class:`ConfigInstance` objects, each carrying a fully qualified
:class:`~repro.repository.keys.InstanceKey` and a raw string value.

The *class/instance* duality from paper §2.1 is captured by
:class:`ConfigClass`: all instances whose keys share the same name path
belong to one configuration class (the paper reports instance:class ratios
of 80:1 up to 14,000:1 in Azure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .keys import InstanceKey

__all__ = ["ConfigInstance", "ConfigClass"]


@dataclass(frozen=True, slots=True)
class ConfigInstance:
    """One concrete configuration value at one fully qualified key."""

    key: InstanceKey
    value: str
    source: str = ""

    @property
    def class_key(self) -> tuple[str, ...]:
        return self.key.class_key

    def render(self) -> str:
        return f"{self.key.render()} = {self.value!r}"

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.render()


@dataclass
class ConfigClass:
    """All instances of one configuration class (same name path)."""

    class_key: tuple[str, ...]
    instances: list[ConfigInstance] = field(default_factory=list)

    @property
    def name(self) -> str:
        return ".".join(self.class_key)

    @property
    def leaf_name(self) -> str:
        return self.class_key[-1]

    @property
    def values(self) -> list[str]:
        return [instance.value for instance in self.instances]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[ConfigInstance]:
        return iter(self.instances)
