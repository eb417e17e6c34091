"""Type-aware value comparison shared by relations, ranges, and ordering.

CPL relations (``$A <= $B``), ranges (``[$StartIP, $EndIP]``) and the
``order`` aggregate all compare configuration values whose raw form is a
string but whose semantics may be numeric or address-like.  ``coerce_pair``
promotes both sides to the richest common interpretation before comparing:
numbers compare numerically, IPv4/IPv6 addresses compare by address order,
everything else falls back to string comparison.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from .. import typesys

__all__ = [
    "coerce_scalar", "coerce_pair", "compare", "compare_coerced", "RELATION_OPS",
    "values_equal",
]

RELATION_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def coerce_scalar(value: str) -> Any:
    """Promote one raw value to its natural comparable form."""
    number = typesys.parse_int(value)
    if number is not None:
        return number
    real = typesys.parse_float(value)
    if real is not None:
        return real
    duration = typesys.parse_duration(value)
    if duration is not None:
        return duration  # seconds: '30s' < '1m' compares numerically
    address = typesys.parse_ipv4(value)
    if address is not None:
        return address
    address6 = typesys.parse_ipv6(value)
    if address6 is not None:
        return address6
    return value.strip()


def coerce_pair(left: str, right: str) -> tuple[Any, Any]:
    """Promote both sides to a directly comparable pair."""
    return _promote(left, coerce_scalar(left), right, coerce_scalar(right))


def _promote(left: str, a: Any, right: str, b: Any) -> tuple[Any, Any]:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a, b
    if type(a) is type(b):
        return a, b
    # Mixed interpretations (e.g. "5" vs "abc"): compare as strings.
    return left.strip(), right.strip()


def compare(left: str, op: str, right: str) -> bool:
    """Evaluate ``left <op> right`` with type-aware coercion."""
    return compare_coerced(
        RELATION_OPS[op], left, coerce_scalar(left), right, coerce_scalar(right)
    )


def compare_coerced(fn: Callable, left: str, a: Any, right: str, b: Any) -> bool:
    """:func:`compare` with the operator's function, for raw values already
    coerced to ``a`` and ``b`` (so a caller coerces each value once)."""
    a, b = _promote(left, a, right, b)
    try:
        return bool(fn(a, b))
    except TypeError:
        return bool(fn(str(a), str(b)))


def values_equal(left: str, right: str) -> bool:
    return compare(left, "==", right)


def in_range(value: str, low: str, high: str) -> bool:
    """Inclusive range membership with type-aware coercion."""
    return compare(value, ">=", low) and compare(value, "<=", high)
