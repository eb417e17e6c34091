"""Incremental validation: re-run only the specifications a change touches.

The paper's check-in scenario (§3.2) validates every configuration update
before it lands.  Re-running the whole corpus per update is wasteful when
an update touches a handful of parameters; this module computes, for each
specification statement, the set of configuration key patterns it depends
on, and selects the statements whose patterns can reach any key in a
:class:`~repro.repository.versioned.ChangeSet`.

Three layers, written once for every delta entry point (the service's
:class:`~repro.service.DeltaScanner`, ``mode: delta`` jobs and
``confvalley gate``):

* :class:`DependencyIndex` — a reusable statement → key-pattern index over
  an already-compiled statement sequence.  Lookup is trie-backed: patterns
  are filed under their trailing run of concrete segment names, so mapping
  a changed key to candidate statements walks the key leaf-first instead
  of scanning every pattern of every statement.
* :func:`plan_delta` — compiles a spec through a session (and its
  compiled-spec cache), decides whether a delta scan is sound, and returns
  a :class:`DeltaPlan`: the compiled statements, the ``let`` and statement
  units, the index (cached as a
  :meth:`~repro.parallel.cache.SpecCache.attachment` of the compiled
  entry), or the one reason the program must run in full.
* :func:`check_change` — the stateless "check this change" run behind
  delta jobs and the gate: diff a baseline store against the session's
  store, plan, and evaluate the selected units.

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

>>> from repro import ValidationSession
>>> from repro.core.incremental import plan_delta
>>> from repro.repository.versioned import ChangeSet
>>> from repro.repository.model import ConfigInstance
>>> from repro.repository.keys import parse_instance_key
>>> plan = plan_delta(
...     ValidationSession(),
...     "$Cluster.Timeout -> int\\n$Cluster.Mode -> {'fast', 'safe'}",
... )
>>> edit = ConfigInstance(parse_instance_key("Cluster::C1.Timeout"), "45", "doc")
>>> [unit.statement.text for unit in plan.select(ChangeSet(modified=[(edit, edit)]))]
['$Cluster.Timeout -> int']

A program the index cannot cover soundly carries the reason instead:

>>> plan_delta(ValidationSession(), "namespace A {\\n  let X := int\\n  $Y -> @X\\n}").reason
'a let is nested inside a block'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from ..cpl import ast, parse
from ..parallel.engine import WorkerState, _absorb, evaluate_shard
from ..parallel.shards import Shard, Unit, select_units, serial_only_reason
from ..repository.keys import (
    InstanceKey,
    KeyPattern,
    PatternSegment,
    _name_matches,
    parse_pattern,
)
from ..repository.store import ConfigStore
from ..repository.versioned import ChangeSet, diff_stores
from .report import ValidationReport

if TYPE_CHECKING:
    from .session import ValidationSession

__all__ = ["DependencyIndex", "DeltaPlan", "plan_delta", "check_change"]

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
    of the statements that must re-run.  The statements must be compiled:
    :func:`plan_delta` never indexes a program with ``load``/``include``
    commands, whose compilation has side effects no change set describes.

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
        self._trie = _PatternTrie()
        self._always: list[int] = []
        self._compartments: list[tuple[int, tuple[KeyPattern, ...]]] = []
        macros: dict[str, ast.PredExpr] = {}
        for index, statement in enumerate(statements):
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


@dataclass(frozen=True)
class DeltaPlan:
    """A compiled program, split and indexed for delta evaluation.

    ``lets`` and ``units`` are :func:`~repro.parallel.shards.select_units`
    of ``statements``.  ``reason`` is ``None`` when evaluating only the
    selected units is provably equivalent to a full run; otherwise it says
    why not, ``index`` is ``None``, and the caller runs the full program.
    """

    statements: tuple
    lets: tuple[Unit, ...]
    units: tuple[Unit, ...]
    index: Optional[DependencyIndex]
    reason: Optional[str]

    def select(self, change: Optional[ChangeSet]) -> tuple[Unit, ...]:
        """The units ``change`` can affect; every unit when it is ``None``
        (a bootstrap, or a spec that changed)."""
        if change is None:
            return self.units
        affected = set(self.index.affected(change))
        return tuple(unit for unit in self.units if unit.index in affected)


def plan_delta(session: "ValidationSession", spec_text: str) -> DeltaPlan:
    """Compile ``spec_text`` through ``session`` and plan a delta scan.

    The program cannot be delta-scanned when it has ``load``/``include``
    commands (compiling them loads sources or reads other files, which a
    change set does not describe) or when
    :func:`~repro.parallel.shards.serial_only_reason` names a reason (a
    nested ``let``, or a policy with cross-statement semantics).  The
    dependency index is taken from the session's compiled-spec cache when
    it has one, so it is built once per compiled spec.
    """
    statements = tuple(session.compile(spec_text))
    lets, units = select_units(statements)
    reason = serial_only_reason(statements, session.policy)
    index = None
    if reason is None and session.spec_cache is not None:
        index = session.spec_cache.attachment(
            spec_text,
            session._options_fingerprint(),
            "dependency_index",
            DependencyIndex,
        )
    if reason is None and index is None:
        # not in the cache: no cache, an evicted entry, or a program with
        # commands (never cached) — only the parse can tell them apart
        if any(
            isinstance(statement, (ast.LoadCmd, ast.IncludeCmd))
            for statement in parse(spec_text).statements
        ):
            reason = "the program has load/include commands"
        else:
            index = DependencyIndex(statements)
    return DeltaPlan(statements, lets, units, index, reason)


def check_change(
    session: "ValidationSession",
    spec_text: str,
    baseline: Optional[ConfigStore],
) -> ValidationReport:
    """Validate what a change can reach: the stateless delta check.

    ``session`` holds the candidate store; ``baseline`` is the store before
    the change (``None`` = empty, so everything counts as added).  The
    selected units run as one shard against the candidate store.  A program
    :func:`plan_delta` cannot cover soundly runs in full on the same
    session instead.  Either way the report carries a ``delta_info``
    record: ``mode`` (``"delta"`` or ``"full-fallback"``),
    ``statements_total``, ``selected``, ``skipped``, the ``change`` summary
    and, on a fallback, the ``reason``.

    >>> from repro import ValidationSession
    >>> session = ValidationSession()
    >>> __ = session.load_text("keyvalue", "s.Timeout = 999\\ns.Name = web")
    >>> baseline = ValidationSession()
    >>> __ = baseline.load_text("keyvalue", "s.Timeout = 30\\ns.Name = web")
    >>> report = check_change(
    ...     session, "$s.Timeout -> [1, 60]\\n$s.Name -> nonempty", baseline.store
    ... )
    >>> report.passed, report.delta_info["selected"], report.delta_info["skipped"]
    (False, 1, 1)
    """
    change = diff_stores(baseline, session.store)
    plan = plan_delta(session, spec_text)
    info = {"statements_total": len(plan.units), "change": change.summary()}
    if plan.reason is not None:
        report = session._run_validation(list(plan.statements), None)
        info.update(
            mode="full-fallback",
            selected=len(plan.units),
            skipped=0,
            reason=f"program cannot be delta-validated soundly: {plan.reason}",
        )
    else:
        selected = plan.select(change)
        state = WorkerState(
            store=session.store,
            runtime=session.runtime,
            policy=session.policy,
            lets=plan.lets,
        )
        result = evaluate_shard(state, Shard("delta", selected))
        report = ValidationReport()
        for __, unit_report in result.unit_reports:
            _absorb(report, unit_report)
        report.executor = "delta"
        report.shards_run += 1
        report.elapsed_seconds = result.seconds
        info.update(
            mode="delta",
            selected=len(selected),
            skipped=len(plan.units) - len(selected),
        )
    report.delta_info = info
    return report
