"""Incremental validation: re-run only the specifications a change touches.

The paper's check-in scenario (§3.2) validates every configuration update
before it lands.  Re-running the whole corpus per update is wasteful when
an update touches a handful of parameters; this module computes, for each
specification statement, the set of configuration key patterns it depends
on, and selects the statements whose patterns can reach any key in a
:class:`~repro.repository.versioned.ChangeSet`.

Two layers:

* :class:`DependencyIndex` — a reusable statement → key-pattern index over
  an already-parsed (or compiled) statement sequence.  Lookup is
  trie-backed: patterns are filed under their trailing run of concrete
  segment names, so mapping a changed key to candidate statements walks
  the key leaf-first instead of scanning every pattern of every statement.
  The continuous service attaches one index per compiled-spec cache entry
  (:meth:`repro.parallel.cache.SpecCache.attachment`), so it is built once
  and invalidated together with the compiled statements.
* :class:`IncrementalValidator` — the pre-check-in gate: owns the parsed
  corpus, delegates selection to a :class:`DependencyIndex`, and validates
  the selected statements against the new store.

Selection is *conservative* — the index may select a statement the change
cannot actually affect, but never the reverse:

* every notation inside a statement counts — main domains, operand domains
  in predicates, ``foreach`` targets, and ``if``-condition domains;
* substitutable variables (``$var``) are widened to ``*`` wildcards, and a
  single-segment ``var`` pattern is added for each free variable, because
  the evaluator draws its binding pool from the instances the bare
  variable name reaches;
* statements referencing ``let`` macros inherit every notation of the
  macro bodies they can expand to (transitively, cycle-guarded);
* ``compartment`` statements additionally re-run whenever an added or
  removed key carries a scope segment matching the compartment name —
  value edits cannot create or destroy compartment instances, but
  additions and removals can;
* statements touching ambient runtime state (``exists`` / ``reachable``
  primitives, ``env.*`` pseudo-domains) are *volatile* and always re-run;
* ``let`` macro definitions are always retained (they carry no domain);
* aggregate predicates need no special casing — a changed instance matches
  its own class notation, and aggregates always re-run over the full
  current domain when their statement is selected.

Soundness property (tested in ``tests/test_incremental.py`` and the
delta/full parity suite): for any change set, a statement that is *not*
selected cannot change outcome, because none of the instances its
notations, binding pools, or compartment discovery can reach were touched.

>>> from repro.core.incremental import IncrementalValidator
>>> from repro.repository.versioned import ChangeSet
>>> from repro.repository.model import ConfigInstance
>>> from repro.repository.keys import parse_instance_key
>>> validator = IncrementalValidator(
...     "$Cluster.Timeout -> int\\n$Cluster.Mode -> {'fast', 'safe'}"
... )
>>> edit = ConfigInstance(parse_instance_key("Cluster::C1.Timeout"), "45", "doc")
>>> change = ChangeSet(modified=[(edit, edit)])
>>> [s.text for s in validator.affected_statements(change)]
['$Cluster.Timeout -> int']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..cpl import ast, parse
from ..repository.keys import (
    InstanceKey,
    KeyPattern,
    PatternSegment,
    _name_matches,
    parse_pattern,
)
from ..repository.store import ConfigStore
from ..repository.versioned import ChangeSet
from ..runtime import RuntimeProvider
from .policy import ValidationPolicy
from .report import ValidationReport
from .session import ValidationSession

__all__ = ["DependencyIndex", "IncrementalValidator"]

#: Predicate primitives whose verdict depends on ambient runtime state
#: (filesystem, network) rather than the configuration store alone.
_VOLATILE_PRIMITIVES = frozenset({"exists", "reachable"})


def _widen_variables(pattern: KeyPattern) -> KeyPattern:
    """Replace unresolved ``$var`` parts with wildcards.

    A variable segment name widens to ``*`` (any name); a variable
    qualifier widens to the ANY kind — the variable can bind to any
    instance, named or not, so the widened segment must accept both.
    """
    segments = []
    for segment in pattern.segments:
        name = "*" if segment.name.startswith("$") else segment.name
        kind, qualifier = segment.kind, segment.qualifier
        if isinstance(qualifier, str) and qualifier.startswith("$"):
            kind, qualifier = "any", None
        segments.append(PatternSegment(name, kind, qualifier))
    return KeyPattern(tuple(segments))


def _collect_macro_refs(node) -> Iterator[str]:
    for current in ast.walk(node):
        if isinstance(current, ast.MacroRef):
            yield current.name


def _reachable_macro_bodies(
    node, macros: Mapping[str, ast.PredExpr]
) -> Iterator[ast.PredExpr]:
    """Bodies of every macro the subtree can expand to (cycle-guarded)."""
    seen: set[str] = set()
    stack = list(_collect_macro_refs(node))
    while stack:
        name = stack.pop()
        if name in seen or name not in macros:
            continue
        seen.add(name)
        body = macros[name]
        yield body
        stack.extend(_collect_macro_refs(body))


def _is_env_notation(notation: str) -> bool:
    return notation.startswith("env.") and notation.count(".") == 1


def _is_volatile(statement, macros: Mapping[str, ast.PredExpr]) -> bool:
    """True when the statement's verdict can change without a data change."""
    subtrees = [statement, *_reachable_macro_bodies(statement, macros)]
    for subtree in subtrees:
        for node in ast.walk(subtree):
            if (
                isinstance(node, ast.PrimitiveCall)
                and node.name in _VOLATILE_PRIMITIVES
            ):
                return True
        for notation in ast.notations(subtree):
            if _is_env_notation(notation):
                return True
    return False


def _compartment_patterns(statement) -> list[KeyPattern]:
    """Compartment names declared anywhere inside a statement, as patterns."""
    patterns = []
    for node in ast.walk(statement):
        name = None
        if isinstance(node, ast.CompartmentBlock):
            name = node.name
        elif isinstance(node, ast.CompartmentDomain):
            name = node.compartment
        if name is None:
            continue
        try:
            patterns.append(parse_pattern(name))
        except Exception:
            continue
    return patterns


def _statement_patterns(
    statement, macros: Mapping[str, ast.PredExpr]
) -> list[KeyPattern]:
    """Every widened key pattern a statement's evaluation can query.

    Includes the notations of macro bodies the statement can expand to,
    plus one single-segment pattern per free variable (the evaluator's
    binding pool for ``$var`` is whatever the bare name ``var`` reaches).
    """
    patterns: list[KeyPattern] = []
    seen_variables: set[str] = set()
    subtrees = [statement, *_reachable_macro_bodies(statement, macros)]
    for subtree in subtrees:
        for notation in ast.notations(subtree):
            if notation == "_":
                continue
            try:
                pattern = parse_pattern(notation)
            except Exception:
                continue
            for variable in pattern.variables:
                if variable != "_" and variable not in seen_variables:
                    seen_variables.add(variable)
                    patterns.append(KeyPattern((PatternSegment(variable),)))
            patterns.append(_widen_variables(pattern))
    return patterns


class _TrieNode:
    __slots__ = ("children", "entries")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.entries: list[tuple[KeyPattern, int]] = []


class _PatternTrie:
    """Reverse-segment pattern index.

    Patterns are suffix-matched against instance keys, so the trie files
    each pattern under its trailing run of *concrete* segment names
    (leaf-first); the walk stops at the first wildcard or variable
    segment, bucketing the pattern at that depth.  ``candidates(key)``
    walks the key leaf-first and collects every bucket passed — a
    superset of the matching patterns, verified by ``pattern.matches``.
    """

    __slots__ = ("_root",)

    def __init__(self) -> None:
        self._root = _TrieNode()

    def insert(self, pattern: KeyPattern, index: int) -> None:
        node = self._root
        for segment in reversed(pattern.segments):
            if "*" in segment.name or segment.name.startswith("$"):
                break
            node = node.children.setdefault(segment.name, _TrieNode())
        node.entries.append((pattern, index))

    def candidates(self, key: InstanceKey) -> Iterator[tuple[KeyPattern, int]]:
        node = self._root
        yield from node.entries
        for segment in reversed(key.segments):
            node = node.children.get(segment.name)
            if node is None:
                return
            yield from node.entries


class DependencyIndex:
    """Statement → key-pattern dependency index over a statement sequence.

    Built once per compiled spec; :meth:`affected` maps a
    :class:`~repro.repository.versioned.ChangeSet` to the (sorted) indices
    of the statements that must re-run.  Raises :class:`ValueError` for
    ``load``/``include`` commands — those are session-time side effects
    that must be resolved before change-driven selection makes sense.

    >>> from repro.cpl import parse
    >>> from repro.repository.versioned import ChangeSet
    >>> from repro.repository.model import ConfigInstance
    >>> from repro.repository.keys import parse_instance_key
    >>> index = DependencyIndex(parse("$A.X -> int\\n$B.Y -> int").statements)
    >>> edit = ConfigInstance(parse_instance_key("B::B1.Y"), "2", "doc")
    >>> index.affected(ChangeSet(added=[edit]))
    [1]
    """

    def __init__(self, statements: Sequence[ast.Statement]):
        self._statements = list(statements)
        self._trie = _PatternTrie()
        self._always: list[int] = []
        self._compartments: list[tuple[int, tuple[KeyPattern, ...]]] = []
        macros: dict[str, ast.PredExpr] = {}
        for index, statement in enumerate(self._statements):
            if isinstance(statement, (ast.LoadCmd, ast.IncludeCmd)):
                raise ValueError(
                    "load/include are session commands; resolve them before "
                    "building a dependency index"
                )
            if isinstance(statement, ast.LetCmd):
                macros[statement.name] = statement.predicate
                self._always.append(index)
                continue
            patterns = _statement_patterns(statement, macros)
            if not patterns or _is_volatile(statement, macros):
                self._always.append(index)
                continue
            for pattern in patterns:
                self._trie.insert(pattern, index)
            compartments = tuple(_compartment_patterns(statement))
            if compartments:
                self._compartments.append((index, compartments))

    # ------------------------------------------------------------------

    @property
    def statement_count(self) -> int:
        return len(self._statements)

    @property
    def statements(self) -> list[ast.Statement]:
        return self._statements

    @staticmethod
    def _scope_touches(pattern: KeyPattern, key: InstanceKey) -> bool:
        """Does any non-leaf window of ``key`` match the compartment name?"""
        width = len(pattern.segments)
        scope = key.segments[:-1]
        for start in range(len(scope) - width + 1):
            window = scope[start : start + width]
            if all(
                _name_matches(p.name, s.name)
                for p, s in zip(pattern.segments, window)
            ):
                return True
        return False

    def affected(self, change: ChangeSet) -> list[int]:
        """Sorted indices of the statements the change can affect."""
        selected = set(self._always)
        for key in change.touched_keys():
            for pattern, index in self._trie.candidates(key):
                if index not in selected and pattern.matches(key):
                    selected.add(index)
        if self._compartments:
            # Compartment *discovery* depends on which scope instances
            # exist; only additions and removals can change that set.
            discovery = [i.key for i in change.added]
            discovery += [i.key for i in change.removed]
            for index, patterns in self._compartments:
                if index in selected:
                    continue
                if any(
                    self._scope_touches(pattern, key)
                    for pattern in patterns
                    for key in discovery
                ):
                    selected.add(index)
        return sorted(selected)

    def affected_statements(self, change: ChangeSet) -> list[ast.Statement]:
        """The statements themselves, in original order."""
        return [self._statements[i] for i in self.affected(change)]


class IncrementalValidator:
    """Pre-compiled spec corpus with change-driven statement selection.

    The check-in gate (``confvalley gate``): parse the corpus once, then
    for each candidate change validate only the affected statements
    against the new store.  ``last_selected`` / ``last_skipped`` expose
    the most recent selection split for reporting.
    """

    def __init__(
        self,
        spec_text: str,
        runtime: Optional[RuntimeProvider] = None,
        policy: Optional[ValidationPolicy] = None,
    ):
        self._runtime = runtime
        self._policy = policy
        self._index = DependencyIndex(parse(spec_text).statements)
        self.last_selected = 0
        self.last_skipped = 0

    # ------------------------------------------------------------------

    @property
    def statement_count(self) -> int:
        return self._index.statement_count

    def affected_statements(self, change: ChangeSet) -> list[ast.Statement]:
        """Statements whose notations can reach a touched key."""
        return self._index.affected_statements(change)

    # ------------------------------------------------------------------

    def validate_change(
        self, new_store: ConfigStore, change: ChangeSet
    ) -> ValidationReport:
        """Validate only the change-affected specs against the new state."""
        selected = self.affected_statements(change)
        self.last_selected = len(selected)
        self.last_skipped = self.statement_count - len(selected)
        session = ValidationSession(
            store=new_store, runtime=self._runtime, policy=self._policy
        )
        return session.validate_statements(selected)

    def validate_full(self, store: ConfigStore) -> ValidationReport:
        """Run the whole corpus (baseline / first commit)."""
        session = ValidationSession(
            store=store, runtime=self._runtime, policy=self._policy
        )
        return session.validate_statements(self._index.statements)
