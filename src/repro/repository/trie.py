"""Trie-based instance discovery with query caching (paper §5.2).

The paper rewrote the naive discovery "with better data structures (e.g.,
trie) and caching support", improving processing time 5×–40× under the high
query load typical of a large validation run (5M+ discovery queries).

Because pattern matching is suffix-anchored (see
:mod:`repro.repository.keys`), the trie stores each instance key *reversed*:
the root's children are leaf parameter names, deeper levels are enclosing
scopes.  A pattern of N segments is answered by walking its segments in
reverse; every instance registered in the subtree of the reached node is a
match.  Non-wildcard name segments use a hash lookup keyed by name; wildcard
names fall back to scanning the children of a node.

Each instance is stored with its load position, so a query answers in load
order: the matches are sorted once, when a pattern first misses the cache.
The per-index query cache memoizes rendered-pattern → result tuples and is
invalidated wholesale on mutation (validation workloads are read-heavy: the
store is loaded once and then queried millions of times).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable

from .keys import InstanceSegment, KeyPattern, PatternSegment
from .model import ConfigInstance

__all__ = ["TrieIndex"]

#: every node's ``children`` and ``by_name`` until it needs them; never mutated
_NO_CHILDREN: "MappingProxyType" = MappingProxyType({})


class _Node:
    """One trie node; edges are full instance-segment identities.

    A node allocates only the fields it uses: most nodes that hold an
    instance have no children, most inner nodes hold no instance, and
    most inner nodes have one child, which needs no name index.
    """

    __slots__ = ("children", "by_name", "entries")

    def __init__(self) -> None:
        self.children: dict[InstanceSegment, _Node] = _NO_CHILDREN
        # Secondary index from the second child on: segment name ->
        # segments, so exact-name pattern segments avoid scanning every child.
        self.by_name: dict[str, list[InstanceSegment]] = _NO_CHILDREN
        # (load position, instance) pairs, in load order
        self.entries: tuple[tuple[int, ConfigInstance], ...] = ()

    def child(self, segment: InstanceSegment) -> "_Node":
        node = self.children.get(segment)
        if node is None:
            if self.children is _NO_CHILDREN:
                self.children = {}
            elif self.by_name is _NO_CHILDREN:
                # a second child: from here on, look children up by name
                self.by_name = {sibling.name: [sibling] for sibling in self.children}
            node = self.children[segment] = _Node()
            if self.by_name is not _NO_CHILDREN:
                siblings = self.by_name.get(segment.name)
                if siblings is None:
                    self.by_name[segment.name] = [segment]  # sized to fit
                else:
                    siblings.append(segment)
        return node


class TrieIndex:
    """Reverse-key trie with memoized, load-ordered queries."""

    def __init__(self, cache_size: int = 65536) -> None:
        self._root = _Node()
        self._count = 0
        self._cache: dict[str, tuple[ConfigInstance, ...]] = {}
        self._cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0

    def add(self, instance: ConfigInstance) -> None:
        self.add_all((instance,))

    def add_all(self, instances: Iterable[ConfigInstance]) -> None:
        """Insert a batch in order, invalidating the cache once."""
        try:
            for instance in instances:
                node = self._root
                for segment in reversed(instance.key.segments):
                    node = node.child(segment)
                node.entries += ((self._count, instance),)
                self._count += 1
        finally:
            self._cache.clear()

    def __len__(self) -> int:
        return self._count

    def instances(self) -> Iterable[ConfigInstance]:
        return self._ordered(self._root)

    def query(self, pattern: KeyPattern) -> tuple[ConfigInstance, ...]:
        """Every instance matching ``pattern``, in load order."""
        cache_key = pattern.render()
        cached = self._cache.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        nodes: list[_Node] = []
        self._walk(self._root, list(reversed(pattern.segments)), 0, nodes)
        results = self._ordered(*nodes)
        if len(self._cache) < self._cache_size:
            self._cache[cache_key] = results
        return results

    # ------------------------------------------------------------------

    def _walk(
        self,
        node: _Node,
        reversed_pattern: list[PatternSegment],
        depth: int,
        out: list[_Node],
    ) -> None:
        if depth == len(reversed_pattern):
            out.append(node)
            return
        segment = reversed_pattern[depth]
        if (
            "*" in segment.name
            or segment.name.startswith("$")
            or node.by_name is _NO_CHILDREN
        ):
            candidates: Iterable[InstanceSegment] = node.children.keys()
            candidates = [c for c in candidates if segment.matches(c)]
        else:
            candidates = [
                c for c in node.by_name.get(segment.name, ()) if segment.matches(c)
            ]
        for child_segment in candidates:
            self._walk(node.children[child_segment], reversed_pattern, depth + 1, out)

    @staticmethod
    def _ordered(*roots: _Node) -> tuple[ConfigInstance, ...]:
        """Every instance in the subtrees of ``roots``, in load order."""
        entries: list[tuple[int, ConfigInstance]] = []
        stack = list(roots)
        while stack:
            current = stack.pop()
            entries.extend(current.entries)
            stack.extend(current.children.values())
        entries.sort()  # positions are unique: instances are never compared
        return tuple(instance for __, instance in entries)
