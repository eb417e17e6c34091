"""Qualified configuration keys and key patterns (paper §4.2.2, Table 1).

Every configuration *instance* in the unified representation is identified by
a fully qualified :class:`InstanceKey` — an ordered list of scope segments
ending in the parameter name.  Each segment carries:

* ``name``      — the scope or parameter name (``Cloud``, ``SecretKey``),
* ``qualifier`` — an optional *named* instance qualifier (``Cloud::CO2test2``),
* ``ordinal``   — the 1-based sibling index among same-named siblings, which
  backs the paper's *numbered* style (``Cloud[1]`` = the first cloud).

CPL specifications refer to configurations through :class:`KeyPattern`
objects, which support the notations from paper Table 1:

=====================================  =========================================
Notation                               Meaning
=====================================  =========================================
``Cloud.Tenant.SecretKey``             SecretKey in all tenants in all clouds
``Cloud::CO2test2.Tenant.SecretKey``   … only in cloud CO2test2
``Cloud::$CloudName.Tenant.SecretKey`` named qualifier substituted from $CloudName
``Cloud[1].Tenant::SLB.SecretKey``     … tenant SLB in the *first* cloud
``*.SecretKey``                        SecretKey under any single scope
``*IP``                                any parameter whose key ends with IP
=====================================  =========================================

Matching semantics: a pattern of *N* segments matches an instance key whose
**last N segments** align with the pattern (suffix matching).  This realizes
the paper's rule that "domain key ``a`` matches all more specific instance
keys such as ``a::inst1``" and lets short notations reach parameters nested
under deeper hierarchies.  A segment without an instance qualifier matches
every instance of that name.

Named qualifiers containing characters outside ``[A-Za-z0-9_*-]`` are written
single-quoted when rendered (``CloudGroup::'East1 Production'``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..errors import KeyNotationError

__all__ = [
    "InstanceSegment",
    "InstanceKey",
    "PatternSegment",
    "KeyPattern",
    "parse_pattern",
    "parse_instance_key",
]

_PLAIN_NAME = re.compile(r"^[A-Za-z0-9_*-]+$")


@lru_cache(maxsize=4096)
def _wildcard_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a name pattern where ``*`` matches any run of characters."""
    parts = (re.escape(p) for p in pattern.split("*"))
    return re.compile("^" + ".*".join(parts) + "$")


def _name_matches(pattern: str, name: str) -> bool:
    if "*" not in pattern:
        return pattern == name
    return _wildcard_regex(pattern).match(name) is not None


def _quote_if_needed(text: str) -> str:
    if _PLAIN_NAME.match(text):
        return text
    return "'" + text.replace("'", "\\'") + "'"


# ---------------------------------------------------------------------------
# Instance keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceSegment:
    """One scope (or leaf parameter) level of a fully qualified instance key."""

    name: str
    qualifier: Optional[str] = None
    ordinal: int = 1

    def render(self) -> str:
        if self.qualifier is not None:
            return f"{self.name}::{_quote_if_needed(self.qualifier)}"
        if self.ordinal != 1:
            return f"{self.name}[{self.ordinal}]"
        return self.name


@dataclass(frozen=True)
class InstanceKey:
    """A fully qualified, unique identity for one configuration instance."""

    segments: tuple[InstanceSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise KeyNotationError("an instance key needs at least one segment")

    @classmethod
    def build(cls, *parts: Union[str, tuple]) -> "InstanceKey":
        """Convenience constructor.

        Each part is a plain name, a ``(name, qualifier)`` pair, or a
        ``(name, qualifier, ordinal)`` triple.
        """
        segments = []
        for part in parts:
            if isinstance(part, str):
                segments.append(InstanceSegment(part))
            elif len(part) == 2:
                segments.append(InstanceSegment(part[0], part[1]))
            else:
                segments.append(InstanceSegment(part[0], part[1], part[2]))
        return cls(tuple(segments))

    @property
    def class_key(self) -> tuple[str, ...]:
        """The configuration *class* this instance belongs to (names only)."""
        return tuple(segment.name for segment in self.segments)

    @property
    def leaf_name(self) -> str:
        return self.segments[-1].name

    @property
    def scope(self) -> tuple[InstanceSegment, ...]:
        """All segments except the leaf parameter name."""
        return self.segments[:-1]

    def render(self) -> str:
        return ".".join(segment.render() for segment in self.segments)

    def child(self, segment: InstanceSegment) -> "InstanceKey":
        return InstanceKey(self.segments + (segment,))

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.render()

    def __len__(self) -> int:
        return len(self.segments)


# ---------------------------------------------------------------------------
# Key patterns
# ---------------------------------------------------------------------------

#: Sentinel kinds for pattern segments.
ANY = "any"
NAMED = "named"
ORDINAL = "ordinal"


@dataclass(frozen=True)
class PatternSegment:
    """One level of a CPL configuration notation.

    ``kind`` selects how the instance qualifier is constrained:

    * ``ANY``     — match every instance of ``name``
    * ``NAMED``   — ``qualifier`` must equal the instance's named qualifier
      (wildcards allowed)
    * ``ORDINAL`` — ``qualifier`` (an int) must equal the 1-based sibling index

    ``name`` and named qualifiers may be substitutable variables written
    ``$var`` (whole-token only); :meth:`KeyPattern.substitute` resolves them.
    """

    name: str
    kind: str = ANY
    qualifier: Union[str, int, None] = None

    def __post_init__(self) -> None:
        if self.kind not in (ANY, NAMED, ORDINAL):
            raise KeyNotationError(f"bad pattern segment kind: {self.kind!r}")
        if self.kind == ANY and self.qualifier is not None:
            raise KeyNotationError("ANY segments carry no qualifier")

    @property
    def variables(self) -> frozenset[str]:
        names = set()
        if self.name.startswith("$"):
            names.add(self.name[1:])
        if isinstance(self.qualifier, str) and self.qualifier.startswith("$"):
            names.add(self.qualifier[1:])
        return frozenset(names)

    def substitute(self, env: Mapping[str, object]) -> "PatternSegment":
        name = self.name
        qualifier = self.qualifier
        if name.startswith("$") and name[1:] in env:
            name = str(env[name[1:]])
        kind = self.kind
        if isinstance(qualifier, str) and qualifier.startswith("$"):
            var = qualifier[1:]
            if var in env:
                value = env[var]
                if kind == ORDINAL:
                    qualifier = int(value)  # numbered style: $var holds an index
                else:
                    qualifier = str(value)
        return PatternSegment(name, kind, qualifier)

    def matches(self, segment: InstanceSegment) -> bool:
        if self.name.startswith("$"):
            raise KeyNotationError(
                f"unresolved variable ${self.name[1:]} in pattern segment"
            )
        if not _name_matches(self.name, segment.name):
            return False
        if self.kind == ANY:
            return True
        if self.kind == ORDINAL:
            if isinstance(self.qualifier, str):
                raise KeyNotationError(
                    f"unresolved variable {self.qualifier} in ordinal qualifier"
                )
            return segment.ordinal == self.qualifier
        # NAMED
        qualifier = self.qualifier
        assert isinstance(qualifier, str)
        if qualifier.startswith("$"):
            raise KeyNotationError(
                f"unresolved variable {qualifier} in named qualifier"
            )
        if segment.qualifier is None:
            return False
        return _name_matches(qualifier, segment.qualifier)

    def render(self) -> str:
        if self.kind == NAMED:
            assert isinstance(self.qualifier, str)
            if self.qualifier.startswith("$"):
                return f"{self.name}::{self.qualifier}"
            return f"{self.name}::{_quote_if_needed(self.qualifier)}"
        if self.kind == ORDINAL:
            return f"{self.name}[{self.qualifier}]"
        return self.name


@dataclass(frozen=True)
class KeyPattern:
    """A parsed CPL configuration notation (a *domain* reference)."""

    segments: tuple[PatternSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise KeyNotationError("a key pattern needs at least one segment")

    @classmethod
    def parse(cls, text: str) -> "KeyPattern":
        return parse_pattern(text)

    @property
    def variables(self) -> frozenset[str]:
        names: set[str] = set()
        for segment in self.segments:
            names |= segment.variables
        return frozenset(names)

    @property
    def is_concrete(self) -> bool:
        """True when the pattern has no wildcards and no variables."""
        if self.variables:
            return False
        return not any("*" in s.name for s in self.segments)

    def substitute(self, env: Mapping[str, object]) -> "KeyPattern":
        return KeyPattern(tuple(s.substitute(env) for s in self.segments))

    def prefixed_with(self, prefix: "KeyPattern") -> "KeyPattern":
        """Prepend another pattern's segments (namespace/compartment rule)."""
        return KeyPattern(prefix.segments + self.segments)

    def prefixed_with_instance(self, key: InstanceKey) -> "KeyPattern":
        """Prepend a *concrete* instance key (compartment evaluation rule)."""
        prefix = tuple(
            PatternSegment(s.name, ORDINAL, s.ordinal)
            if s.qualifier is None
            else PatternSegment(s.name, NAMED, s.qualifier)
            for s in key.segments
        )
        return KeyPattern(prefix + self.segments)

    def matches(self, key: InstanceKey) -> bool:
        """Suffix-match this pattern against a fully qualified instance key."""
        if len(self.segments) > len(key.segments):
            return False
        tail = key.segments[len(key.segments) - len(self.segments):]
        return all(p.matches(s) for p, s in zip(self.segments, tail))

    def render(self) -> str:
        return ".".join(segment.render() for segment in self.segments)

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.render()

    def __len__(self) -> int:
        return len(self.segments)


# ---------------------------------------------------------------------------
# Notation parsing
# ---------------------------------------------------------------------------


class _NotationScanner:
    """Character scanner shared by pattern and instance-key parsing."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> KeyNotationError:
        return KeyNotationError(f"{message} at offset {self.pos} in {self.text!r}")

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def read_name(self, allow_dollar: bool = False) -> str:
        start = self.pos
        if allow_dollar and self.peek() == "$":
            self.pos += 1
        while not self.eof() and (self.peek().isalnum() or self.peek() in "_*-"):
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "$":
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def read_quoted(self) -> str:
        self.expect("'")
        out = []
        while True:
            if self.eof():
                raise self.error("unterminated quoted qualifier")
            ch = self.take()
            if ch == "\\" and self.peek() == "'":
                out.append(self.take())
            elif ch == "'":
                break
            else:
                out.append(ch)
        return "".join(out)


#: one plain segment (``name``, ``name::q``, ``name[n]``, ``name[$var]``, with
#: ``$var`` as name or qualifier) over the ASCII part of the scanner's
#: alphabet; quoted qualifiers, non-ASCII names and malformed text fail it
_PLAIN_SEGMENT = re.compile(
    r"(\$?[A-Za-z0-9_*-]+)(?:::(\$?[A-Za-z0-9_*-]+)|\[([0-9]+|\$[A-Za-z0-9_*-]+)\])?"
)


def _parse_plain(text: str) -> Optional[KeyPattern]:
    """The fast path: ``None`` unless every segment is plain."""
    segments = []
    for part in text.split("."):
        match = _PLAIN_SEGMENT.fullmatch(part)
        if match is None:
            return None
        name, named, index = match.groups()
        if named is not None:
            segments.append(PatternSegment(name, NAMED, named))
        elif index is not None:
            segments.append(
                PatternSegment(name, ORDINAL, index if index[0] == "$" else int(index))
            )
        else:
            segments.append(PatternSegment(name))
    return KeyPattern(tuple(segments))


def _scan_pattern(text: str) -> KeyPattern:
    """The general parser, and the only one that reports errors."""
    scanner = _NotationScanner(text)
    segments: list[PatternSegment] = []
    while True:
        name = scanner.read_name(allow_dollar=True)
        kind, qualifier = ANY, None
        if scanner.peek() == ":":
            scanner.expect(":")
            scanner.expect(":")
            kind = NAMED
            if scanner.peek() == "'":
                qualifier = scanner.read_quoted()
            else:
                qualifier = scanner.read_name(allow_dollar=True)
        elif scanner.peek() == "[":
            scanner.expect("[")
            kind = ORDINAL
            if scanner.peek() == "$":
                qualifier = scanner.read_name(allow_dollar=True)
            else:
                digits = []
                while scanner.peek().isdigit():
                    digits.append(scanner.take())
                if not digits:
                    raise scanner.error("expected an index")
                qualifier = int("".join(digits))
            scanner.expect("]")
        segments.append(PatternSegment(name, kind, qualifier))
        if scanner.eof():
            break
        scanner.expect(".")
    return KeyPattern(tuple(segments))


def parse_pattern(text: str) -> KeyPattern:
    """Parse a CPL configuration notation into a :class:`KeyPattern`.

    Plain ASCII notations take a regular-expression fast path; everything
    else, malformed text included, goes to the character scanner.

    Raises :class:`~repro.errors.KeyNotationError` on malformed notation.
    """
    text = text.strip()
    pattern = _parse_plain(text)
    return pattern if pattern is not None else _scan_pattern(text)


def parse_instance_key(text: str) -> InstanceKey:
    """Parse the canonical rendering of an instance key back into an object.

    Only notations produced by :meth:`InstanceKey.render` are accepted: each
    segment is a plain name, ``name::qualifier`` or ``name[ordinal]``.
    """
    pattern = parse_pattern(text)
    segments = []
    for p in pattern.segments:
        if p.variables or "*" in p.name:
            raise KeyNotationError(
                f"instance keys cannot contain wildcards or variables: {text!r}"
            )
        if p.kind == NAMED:
            assert isinstance(p.qualifier, str)
            segments.append(InstanceSegment(p.name, p.qualifier))
        elif p.kind == ORDINAL:
            assert isinstance(p.qualifier, int)
            segments.append(InstanceSegment(p.name, None, p.qualifier))
        else:
            segments.append(InstanceSegment(p.name))
    return InstanceKey(tuple(segments))
