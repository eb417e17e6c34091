"""Value typing shared by CPL type predicates and the inference engine.

Configuration values arrive as strings.  This module centralizes the
parsers that decide whether a string is a boolean, integer, IP address,
CIDR block, MAC address, path, URL, GUID, … and the detector that assigns
each value its most specific type.

The inference engine's *type ordering* (paper §4.5: "we define an ordering
on types and infer the type constraint of parameter A to be the
highest-order type (list of integer)") lives in
:mod:`repro.inference.typelattice` and builds on these detectors.
"""

from __future__ import annotations

import ipaddress
import re
from typing import Optional

__all__ = [
    "parse_bool",
    "parse_int",
    "parse_float",
    "parse_duration",
    "parse_ipv4",
    "parse_ipv6",
    "parse_cidr",
    "parse_mac",
    "parse_port",
    "parse_url",
    "parse_email",
    "parse_guid",
    "parse_ip_range",
    "is_path",
    "split_list",
    "detect_type",
    "SCALAR_TYPES",
]

_TRUE_WORDS = {"true", "yes", "on", "enabled"}
_FALSE_WORDS = {"false", "no", "off", "disabled"}

_MAC_RE = re.compile(r"^(?:[0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}$")
_GUID_RE = re.compile(
    r"^\{?[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}"
    r"-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}\}?$"
)
_URL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://[^\s]+$")
_EMAIL_RE = re.compile(r"^[^@\s]+@[^@\s]+\.[^@\s]+$")
_WINDOWS_PATH_RE = re.compile(r"^(?:[A-Za-z]:\\|\\\\)[^|<>\"?]*$")
_UNIX_PATH_RE = re.compile(r"^(?:/|\./|\.\./)[^\0]*$")

#: Every scalar type name :func:`detect_type` can return, most specific first.
#: (``port`` is a CPL predicate but not a detected type — ``int`` subsumes it.)
SCALAR_TYPES = (
    "bool",
    "int",
    "float",
    "duration",
    "guid",
    "ipv4",
    "ipv6",
    "cidr",
    "mac",
    "ip_range",
    "url",
    "email",
    "path",
    "string",
)


def parse_bool(value: str) -> Optional[bool]:
    lowered = value.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    return None


def parse_int(value: str) -> Optional[int]:
    text = value.strip()
    if not text:
        return None
    try:
        return int(text, 10)
    except ValueError:
        return None


def parse_float(value: str) -> Optional[float]:
    text = value.strip()
    if not text:
        return None
    # Reject things float() accepts but no config author means as numbers.
    if text.lower() in ("nan", "inf", "-inf", "+inf", "infinity", "-infinity"):
        return None
    try:
        return float(text)
    except ValueError:
        return None


_DURATION_RE = re.compile(r"^(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)$")
_DURATION_SECONDS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_duration(value: str) -> Optional[float]:
    """Parse ``30s`` / ``5m`` / ``1.5h`` / ``250ms`` into seconds."""
    match = _DURATION_RE.match(value.strip())
    if not match:
        return None
    quantity, unit = match.groups()
    return float(quantity) * _DURATION_SECONDS[unit]


def parse_ipv4(value: str) -> Optional[ipaddress.IPv4Address]:
    if "." not in value:
        return None  # cheap reject: the address needs its dots
    try:
        return ipaddress.IPv4Address(value.strip())
    except (ipaddress.AddressValueError, ValueError):
        return None


def parse_ipv6(value: str) -> Optional[ipaddress.IPv6Address]:
    if ":" not in value:
        return None  # cheap reject: the address needs its colons
    try:
        return ipaddress.IPv6Address(value.strip())
    except (ipaddress.AddressValueError, ValueError):
        return None


def parse_cidr(value: str):
    """Parse a CIDR block (requires the ``/prefix`` part)."""
    text = value.strip()
    if "/" not in text:
        return None
    try:
        return ipaddress.ip_network(text, strict=False)
    except ValueError:
        return None


def parse_mac(value: str) -> Optional[str]:
    text = value.strip()
    if _MAC_RE.match(text):
        return text.lower().replace("-", ":")
    return None


def parse_port(value: str) -> Optional[int]:
    number = parse_int(value)
    if number is not None and 0 < number <= 65535:
        return number
    return None


def parse_url(value: str) -> Optional[str]:
    text = value.strip()
    return text if _URL_RE.match(text) else None


def parse_email(value: str) -> Optional[str]:
    text = value.strip()
    return text if _EMAIL_RE.match(text) else None


def parse_guid(value: str) -> Optional[str]:
    text = value.strip()
    return text.strip("{}").lower() if _GUID_RE.match(text) else None


def parse_ip_range(value: str):
    """Parse ``startip-endip`` into an (IPv4Address, IPv4Address) pair."""
    text = value.strip()
    if text.count("-") != 1:
        return None
    start_text, end_text = text.split("-")
    start = parse_ipv4(start_text)
    end = parse_ipv4(end_text)
    if start is None or end is None:
        return None
    return (start, end)


def is_path(value: str) -> bool:
    text = value.strip()
    if not text:
        return False
    return bool(_WINDOWS_PATH_RE.match(text) or _UNIX_PATH_RE.match(text))


def split_list(value: str, separators: str = ",;") -> Optional[list[str]]:
    """Split a delimited value; None when it is not list-shaped.

    A value is list-shaped when it contains at least one separator and every
    element is nonempty after stripping.
    """
    for separator in separators:
        if separator in value:
            parts = [part.strip() for part in value.split(separator)]
            if all(parts):
                return parts
            return None
    return None


_DETECTORS = (
    ("bool", parse_bool),
    ("int", parse_int),
    ("float", parse_float),
    ("duration", parse_duration),
    ("guid", parse_guid),
    ("ipv4", parse_ipv4),
    ("ipv6", parse_ipv6),
    ("cidr", parse_cidr),
    ("mac", parse_mac),
    ("ip_range", parse_ip_range),
    ("url", parse_url),
    ("email", parse_email),
)


def detect_type(value: str, allow_list: bool = True) -> str:
    """Assign the most specific type name to a raw configuration value.

    Lists are detected structurally: ``"10.0.0.1,10.0.0.2"`` reports
    ``"list<ipv4>"``.  Everything unclassified is ``"string"`` (empty values
    included — emptiness is a separate constraint in the paper's taxonomy,
    Figure 2).
    """
    text = value.strip()
    if not text:
        return "string"
    for name, parser in _DETECTORS:
        if parser(text) is not None:
            return name
    if is_path(text):
        return "path"
    if allow_list:
        parts = split_list(text)
        if parts is not None and len(parts) > 1:
            element_types = {detect_type(part, allow_list=False) for part in parts}
            element = element_types.pop() if len(element_types) == 1 else "string"
            return f"list<{element}>"
    return "string"
