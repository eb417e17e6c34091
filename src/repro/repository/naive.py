"""Naive instance-discovery index — the paper's initial implementation.

Paper §5.2: "In our initial implementation of the instance discovery, we got
all instance keys that had the same number of segments as the domain key, and
then iterated segment-by-segment to gradually filter out instance keys whose
segment did not approximately match the corresponding segment of the domain
key.  But this implementation was inefficient in handling the high load of
discovery queries."

We keep this implementation as the baseline for the 5×–40× speedup claim
(reproduced by ``benchmarks/bench_discovery_trie_vs_naive.py``).  Because our
matching semantics are suffix-based, "same number of segments" generalizes to
"at least as many segments"; the candidate set is still grouped by length so
the per-query work mirrors the paper's description.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterable

from .keys import KeyPattern
from .model import ConfigInstance

__all__ = ["NaiveIndex"]


class NaiveIndex:
    """Segment-by-segment filtering over per-length candidate lists."""

    def __init__(self) -> None:
        # (load position, instance) pairs, grouped by key length
        self._by_length: dict[int, list[tuple[int, ConfigInstance]]] = defaultdict(list)
        self._count = 0

    def add(self, instance: ConfigInstance) -> None:
        self.add_all((instance,))

    def add_all(self, instances: Iterable[ConfigInstance]) -> None:
        for instance in instances:
            self._by_length[len(instance.key)].append((self._count, instance))
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def instances(self) -> Iterable[ConfigInstance]:
        return _load_order(chain.from_iterable(self._by_length.values()))

    def query(self, pattern: KeyPattern) -> tuple[ConfigInstance, ...]:
        """Every instance matching ``pattern``, in load order."""
        depth = len(pattern)
        results: list[tuple[int, ConfigInstance]] = []
        for length, bucket in self._by_length.items():
            if length < depth:
                continue
            # Gradually filter candidates one pattern segment at a time,
            # mirroring the paper's segment-by-segment loop.
            candidates = bucket
            for offset in range(depth):
                segment = pattern.segments[offset]
                survivors = []
                for entry in candidates:
                    key_segment = entry[1].key.segments[length - depth + offset]
                    if segment.matches(key_segment):
                        survivors.append(entry)
                candidates = survivors
                if not candidates:
                    break
            results.extend(candidates)
        return _load_order(results)


def _load_order(entries: Iterable[tuple[int, ConfigInstance]]) -> tuple:
    return tuple(instance for __, instance in sorted(entries))
