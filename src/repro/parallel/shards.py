"""Sharding compiled CPL programs into independent work units (paper §7).

CPL specifications are side-effect free and compartments/scopes partition
the configuration space, so validation is embarrassingly parallel — the
paper demonstrates it crudely by "splitting the specifications into 10
partitions and running 10 validation jobs in parallel" (Table 8).  This
module does the splitting systematically:

* every *top-level statement* of a compiled program is an atomic **unit**
  tagged with its original position, so per-unit reports can later be
  merged back into exactly the order serial evaluation would have produced
  (see :mod:`repro.parallel.engine`);
* units are grouped by **scope key** — compartment name, namespace path, or
  the root segment of the domain notation — so units touching the same
  scope land in the same shard and share that shard's compartment-discovery
  cache;
* groups are packed into at most ``max_shards`` shards with a deterministic
  greedy bin-packing (heaviest group first, lightest shard wins, ties by
  shard number), so the same program always shards the same way.

``let`` commands are *not* units: a macro definition must be visible to
every later statement regardless of which shard evaluates it, so lets are
broadcast to all shards and replayed in original order before any unit
with a higher original index runs (:func:`repro.parallel.engine.evaluate_shard`).

Nested ``let`` commands (inside a namespace/compartment block) would leak
macros across units in serial evaluation; :func:`serial_only_reason` detects
them so callers can fall back to serial evaluation rather than silently
diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..cpl import ast

__all__ = [
    "Unit",
    "Shard",
    "partition_statements",
    "select_units",
    "scope_key",
    "serial_only_reason",
]


@dataclass(frozen=True)
class Unit:
    """One top-level statement plus its original program position."""

    index: int
    statement: ast.Statement


@dataclass(frozen=True)
class Shard:
    """An independently evaluable slice of a compiled program."""

    label: str
    units: tuple[Unit, ...]  # ascending original index

    @property
    def weight(self) -> int:
        return len(self.units)


# ---------------------------------------------------------------------------
# Scope keys
# ---------------------------------------------------------------------------


def _first_notation(node) -> Optional[str]:
    """The first configuration notation mentioned in an AST subtree."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.DomainRef):
            return current.notation
        if isinstance(current, (list, tuple)):
            stack.extend(reversed(current))
            continue
        if isinstance(current, ast.Node):
            stack.extend(reversed(current.field_values()))
    return None


def _notation_root(notation: str) -> str:
    head = notation.split(".", 1)[0]
    return head.split("::", 1)[0].lstrip("$")


def scope_key(statement: ast.Statement) -> str:
    """The partition key of one top-level statement.

    Statements sharing a key always land in the same shard, which keeps the
    per-shard compartment-instance cache hot (compartment discovery walks
    the whole store — see ``Evaluator.scope_instances``).
    """
    if isinstance(statement, ast.CompartmentBlock):
        return f"compartment:{statement.name}"
    if isinstance(statement, ast.NamespaceBlock):
        return "namespace:" + ".".join(statement.names)
    if isinstance(statement, ast.SpecStatement):
        domain = statement.domain
        if isinstance(domain, ast.CompartmentDomain):
            return f"compartment:{domain.compartment}"
        notation = _first_notation(domain)
        if notation:
            return f"class:{_notation_root(notation)}"
        return "misc"
    if isinstance(statement, ast.GetCmd):
        notation = _first_notation(statement.domain)
        return f"class:{_notation_root(notation)}" if notation else "misc"
    if isinstance(statement, ast.IfStatement):
        notation = _first_notation(statement.condition)
        return f"class:{_notation_root(notation)}" if notation else "misc"
    return "misc"


# ---------------------------------------------------------------------------
# Parallel-safety gate
# ---------------------------------------------------------------------------


def _contains_let(statements: Sequence[ast.Statement]) -> bool:
    for statement in statements:
        if isinstance(statement, ast.LetCmd):
            return True
        if isinstance(statement, (ast.NamespaceBlock, ast.CompartmentBlock)):
            if _contains_let(statement.body):
                return True
        elif isinstance(statement, ast.IfStatement):
            if _contains_let(statement.then) or _contains_let(statement.otherwise):
                return True
    return False


def serial_only_reason(
    statements: Sequence[ast.Statement], policy=None
) -> Optional[str]:
    """Why sharded evaluation could differ from serial, or ``None``.

    Four situations force one serial run:

    * ``stop_on_first_violation`` — "stop the whole run" is inherently
      ordered across statements;
    * statement priorities — the policy reorders the top-level statement
      list, and per-unit merging restores *original* order;
    * an ``on_violation`` callback — callers may rely on serial callback
      order (and callbacks may not be picklable for process executors);
    * a ``let`` nested inside a block — in serial evaluation the macro
      leaks to every later statement, which sharding cannot reproduce.

    Delta validation (:mod:`repro.core.incremental`) evaluates selected
    units the same way, so it falls back on the same reasons.
    """
    if policy is not None:
        if policy.stop_on_first_violation:
            return "the policy stops on the first violation"
        if policy.priorities:
            return "the policy reorders statements by priority"
        if policy.on_violation:
            return "the policy has an on_violation callback"
    for statement in statements:
        if isinstance(statement, ast.LetCmd):
            continue  # top-level lets are broadcast, see partition_statements
        if _contains_let([statement]):
            return "a let is nested inside a block"
    return None


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def select_units(
    statements: Sequence[ast.Statement],
) -> tuple[tuple[Unit, ...], tuple[Unit, ...]]:
    """Split a compiled program into ``(lets, units)`` for delta evaluation.

    ``lets`` are every top-level macro definition in original order —
    exactly as :func:`partition_statements` broadcasts them — and ``units``
    are the non-``let`` statements.  Delta validation
    (:func:`repro.core.incremental.plan_delta`) evaluates the units a
    change can affect as a single shard via
    :func:`repro.parallel.engine.evaluate_shard`, so macro visibility must
    match what any full evaluation would have seen — which is why *all*
    lets are replayed even when only a few units are selected.
    """
    lets: list[Unit] = []
    units: list[Unit] = []
    for index, statement in enumerate(statements):
        if isinstance(statement, ast.LetCmd):
            lets.append(Unit(index, statement))
        else:
            units.append(Unit(index, statement))
    return tuple(lets), tuple(units)


def partition_statements(
    statements: Sequence[ast.Statement], max_shards: int
) -> tuple[tuple[Unit, ...], list[Shard]]:
    """Split a compiled program into ``(lets, shards)``.

    ``lets`` are the top-level macro definitions in original order (each
    shard replays the ones preceding a unit before evaluating it).  Shards
    group units by :func:`scope_key` and never exceed ``max_shards``.
    """
    lets: list[Unit] = []
    groups: dict[str, list[Unit]] = {}
    for index, statement in enumerate(statements):
        if isinstance(statement, ast.LetCmd):
            lets.append(Unit(index, statement))
            continue
        groups.setdefault(scope_key(statement), []).append(Unit(index, statement))
    if not groups:
        return tuple(lets), []
    shard_count = max(1, min(max_shards, len(groups)))
    # deterministic greedy bin-packing: heaviest group first, lightest bin
    ordered_groups = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    bins: list[list[Unit]] = [[] for __ in range(shard_count)]
    bin_labels: list[list[str]] = [[] for __ in range(shard_count)]
    for key, units in ordered_groups:
        target = min(range(shard_count), key=lambda i: (len(bins[i]), i))
        bins[target].extend(units)
        bin_labels[target].append(key)
    shards = []
    for number, (units, labels) in enumerate(zip(bins, bin_labels)):
        if not units:
            continue
        units.sort(key=lambda unit: unit.index)
        label = labels[0] if len(labels) == 1 else f"shard-{number}({len(labels)} scopes)"
        shards.append(Shard(label, tuple(units)))
    return tuple(lets), shards
