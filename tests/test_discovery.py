"""Trie vs naive instance discovery (paper §5.2): equivalence + caching."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfValleyError
from repro.repository import ConfigStore, NaiveIndex, TrieIndex
from repro.repository.keys import InstanceKey, InstanceSegment, parse_pattern
from repro.repository.model import ConfigInstance


def build_indexes(keys):
    trie, naive = TrieIndex(), NaiveIndex()
    for index, key in enumerate(keys):
        instance = ConfigInstance(key, f"v{index}", "test")
        trie.add(instance)
        naive.add(instance)
    return trie, naive


def sample_keys():
    keys = []
    for group in ("G1", "G2"):
        for cloud_index, cloud in enumerate(("CA", "CB"), start=1):
            for tenant_index, tenant in enumerate(("A", "B"), start=1):
                for param in ("SecretKey", "ProxyIP", "Timeout"):
                    keys.append(
                        InstanceKey.build(
                            ("CloudGroup", group),
                            ("Cloud", cloud, cloud_index),
                            ("Tenant", tenant, tenant_index),
                            param,
                        )
                    )
    keys.append(InstanceKey.build(("Fabric", "F1"), "Timeout"))
    keys.append(InstanceKey.build("GlobalFlag"))
    return keys


PATTERNS = [
    "SecretKey",
    "Tenant.SecretKey",
    "Cloud.Tenant.SecretKey",
    "CloudGroup::G1.Cloud.Tenant.SecretKey",
    "Cloud::CA.Tenant.SecretKey",
    "Cloud[1].Tenant::B.SecretKey",
    "*.SecretKey",
    "*IP",
    "Timeout",
    "Fabric.Timeout",
    "NoSuchKey",
    "Cloud::Nope.Tenant.SecretKey",
    "*",
]


class TestEquivalence:
    @pytest.mark.parametrize("pattern_text", PATTERNS)
    def test_trie_equals_naive(self, pattern_text):
        trie, naive = build_indexes(sample_keys())
        pattern = parse_pattern(pattern_text)
        got_trie = {i.key.render() for i in trie.query(pattern)}
        got_naive = {i.key.render() for i in naive.query(pattern)}
        assert got_trie == got_naive

    def test_results_are_correct(self):
        trie, __ = build_indexes(sample_keys())
        results = trie.query(parse_pattern("Cloud::CA.Tenant.SecretKey"))
        assert len(results) == 4  # 2 groups × 2 tenants
        for instance in results:
            assert instance.key.leaf_name == "SecretKey"


class TestCaching:
    def test_repeat_query_hits_cache(self):
        trie, __ = build_indexes(sample_keys())
        pattern = parse_pattern("Tenant.SecretKey")
        first = trie.query(pattern)
        hits_before = trie.cache_hits
        second = trie.query(pattern)
        assert trie.cache_hits == hits_before + 1
        assert first == second

    def test_mutation_invalidates_cache(self):
        trie, __ = build_indexes(sample_keys())
        pattern = parse_pattern("GlobalFlag")
        assert len(trie.query(pattern)) == 1
        trie.add(ConfigInstance(InstanceKey.build("GlobalFlag2"), "x", "t"))
        # re-query still correct after invalidation
        assert len(trie.query(pattern)) == 1
        assert len(trie.query(parse_pattern("GlobalFlag2"))) == 1

    def test_add_all_invalidates_cache(self):
        trie, __ = build_indexes(sample_keys())
        pattern = parse_pattern("GlobalFlag")
        assert len(trie.query(pattern)) == 1
        trie.add_all(
            ConfigInstance(InstanceKey.build(("Zone", z), "GlobalFlag"), z, "t")
            for z in ("z1", "z2")
        )
        assert [i.value for i in trie.query(pattern)][1:] == ["z1", "z2"]

    def test_failed_batch_still_invalidates_cache(self):
        trie, __ = build_indexes(sample_keys())
        pattern = parse_pattern("GlobalFlag")
        assert len(trie.query(pattern)) == 1

        def batch():
            yield ConfigInstance(InstanceKey.build(("Zone", "z"), "GlobalFlag"), "x", "t")
            raise RuntimeError("source went away")

        with pytest.raises(RuntimeError):
            trie.add_all(batch())
        assert len(trie.query(pattern)) == 2

    def test_cached_result_is_immutable(self):
        trie, __ = build_indexes(sample_keys())
        pattern = parse_pattern("Tenant.SecretKey")
        first = trie.query(pattern)
        with pytest.raises((AttributeError, TypeError)):
            first.append(first[0])  # type: ignore[attr-defined]
        assert trie.query(pattern) == first

    def test_len_and_iteration(self):
        keys = sample_keys()
        trie, naive = build_indexes(keys)
        assert len(trie) == len(keys)
        assert len(naive) == len(keys)
        assert {i.key.render() for i in trie.instances()} == {
            i.key.render() for i in naive.instances()
        }


# ---------------------------------------------------------------------------
# Property: trie and naive agree on random key sets and random patterns
# ---------------------------------------------------------------------------

_names = st.sampled_from(["A", "B", "C", "K", "IP", "Key", "Port"])
_quals = st.one_of(st.none(), st.sampled_from(["x", "y", "z"]))


@st.composite
def _random_keys(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    keys = []
    for __ in range(count):
        depth = draw(st.integers(min_value=1, max_value=4))
        segments = tuple(
            InstanceSegment(
                draw(_names), draw(_quals), draw(st.integers(min_value=1, max_value=3))
            )
            for __ in range(depth)
        )
        keys.append(InstanceKey(segments))
    return keys


@st.composite
def _random_pattern(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    parts = []
    for __ in range(depth):
        name = draw(st.sampled_from(["A", "B", "C", "K", "IP", "*", "*P", "K*"]))
        kind = draw(st.sampled_from(["any", "named", "ordinal"]))
        if kind == "named":
            parts.append(f"{name}::{draw(st.sampled_from(['x', 'y', '*']))}")
        elif kind == "ordinal":
            parts.append(f"{name}[{draw(st.integers(min_value=1, max_value=3))}]")
        else:
            parts.append(name)
    return ".".join(parts)


@given(_random_keys(), _random_pattern())
@settings(max_examples=300)
def test_property_trie_naive_equivalence(keys, pattern_text):
    trie, naive = build_indexes(keys)
    pattern = parse_pattern(pattern_text)
    got_trie = sorted(i.value for i in trie.query(pattern))
    got_naive = sorted(i.value for i in naive.query(pattern))
    assert got_trie == got_naive


# ---------------------------------------------------------------------------
# Property: trie- and naive-backed stores agree *in order* (load order)
# ---------------------------------------------------------------------------

_store_names = st.sampled_from(["A", "B", "K", "IP", "Port"])
_store_quals = st.one_of(st.none(), st.sampled_from(["x", "y"]))


@st.composite
def _random_loads(draw):
    """Instances from several sources, with colliding keys, plus a batch split."""
    count = draw(st.integers(min_value=1, max_value=16))
    instances = []
    for index in range(count):
        depth = draw(st.integers(min_value=1, max_value=3))
        key = InstanceKey(
            tuple(
                InstanceSegment(
                    draw(_store_names),
                    draw(_store_quals),
                    draw(st.integers(min_value=1, max_value=2)),
                )
                for __ in range(depth)
            )
        )
        value = draw(st.sampled_from(["1", "2", f"v{index}"]))
        source = draw(st.sampled_from(["s1.ini", "s2.ini", "s3.xml"]))
        instances.append(ConfigInstance(key, value, source))
    split = draw(st.integers(min_value=0, max_value=count))
    return instances, split


@st.composite
def _store_pattern(draw):
    """A pattern, already substituted when it uses ``$var`` segments."""
    env = {"n": draw(st.sampled_from(["A", "K"])),
           "q": draw(st.sampled_from(["x", "y"])),
           "i": draw(st.integers(min_value=1, max_value=3))}
    parts = []
    for __ in range(draw(st.integers(min_value=1, max_value=3))):
        name = draw(st.sampled_from(["A", "B", "K", "IP", "*", "*P", "$n"]))
        kind = draw(
            st.sampled_from(["any", "named", "ordinal", "var-named", "var-ordinal"])
        )
        if kind == "named":
            parts.append(f"{name}::{draw(st.sampled_from(['x', 'y', '*']))}")
        elif kind == "ordinal":
            parts.append(f"{name}[{draw(st.integers(min_value=1, max_value=3))}]")
        elif kind == "var-named":
            parts.append(f"{name}::$q")
        elif kind == "var-ordinal":
            parts.append(f"{name}[$i]")
        else:
            parts.append(name)
    return parse_pattern(".".join(parts)).substitute(env)


def _load(store, instances, split):
    store.add_all(instances[:split])
    for instance in instances[split:]:
        store.add(instance)
    return store


def _get_outcome(store, key):
    try:
        found = store.get(key)
    except ConfValleyError:
        return "ambiguous"
    return None if found is None else (found.key, found.value, found.source)


@given(_random_loads(), st.lists(_store_pattern(), min_size=1, max_size=4))
@settings(max_examples=200, derandomize=True)
def test_property_store_order_exact(loads, patterns):
    instances, split = loads
    trie_store = _load(ConfigStore(), instances, split)
    naive_store = _load(ConfigStore(index=NaiveIndex()), instances, split)
    loaded = list(trie_store.instances())
    assert loaded == list(naive_store.instances())
    for pattern in patterns:
        expected = tuple(i for i in loaded if pattern.matches(i.key))
        # twice: the second answer comes from the trie's query cache
        for __ in range(2):
            assert trie_store.query(pattern) == expected
            assert naive_store.query(pattern) == expected
        rendered = pattern.render()
        assert _get_outcome(trie_store, rendered) == _get_outcome(naive_store, rendered)
    for instance in loaded:
        assert trie_store.get(instance.key) == naive_store.get(instance.key) == instance
        rendered = instance.key.render()
        assert _get_outcome(trie_store, rendered) == _get_outcome(naive_store, rendered)
    conflicts = trie_store.cross_source_conflicts()
    assert conflicts == naive_store.cross_source_conflicts()
    for __, members in conflicts:
        positions = [loaded.index(member) for member in members]
        assert positions == sorted(positions)


# ---------------------------------------------------------------------------
# Property: compartment scope discovery from the store's distinct prefixes
# ---------------------------------------------------------------------------


def _scope_walk(store, name, ctx):
    """The walk ``Evaluator.scope_instances`` used before its prefix list:
    every segment window of every instance, in load order."""
    pattern = parse_pattern(name).substitute(ctx.env)
    width = len(pattern.segments)
    found: dict = {}
    for instance in store.instances():
        segments = instance.key.segments
        limit = len(segments) - 1  # the leaf is a parameter, not a scope
        for start in range(0, limit - width + 1):
            window = segments[start:start + width]
            if all(p.matches(s) for p, s in zip(pattern.segments, window)):
                prefix = segments[:start + width]
                if ctx.compartment is not None:
                    outer = ctx.compartment.segments
                    if len(prefix) <= len(outer) or prefix[:len(outer)] != outer:
                        continue
                if prefix not in found:
                    found[prefix] = InstanceKey(prefix)
    return list(found.values())


def _scope_outcome(lookup, *args):
    try:
        return lookup(*args)
    except ConfValleyError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _compartment_name(draw):
    parts = []
    for __ in range(draw(st.integers(min_value=1, max_value=2))):
        name = draw(st.sampled_from(["A", "B", "K", "*", "$n", "$unbound"]))
        kind = draw(st.sampled_from(["any", "any", "named", "ordinal", "var-named"]))
        if kind == "named":
            parts.append(f"{name}::{draw(st.sampled_from(['x', 'y', '*']))}")
        elif kind == "ordinal":
            parts.append(f"{name}[{draw(st.integers(min_value=1, max_value=2))}]")
        elif kind == "var-named":
            parts.append(f"{name}::$q")
        else:
            parts.append(name)
    return ".".join(parts)


@given(
    _random_loads(),
    st.lists(_compartment_name(), min_size=1, max_size=4),
    st.sampled_from(["A", "K"]),
    st.sampled_from(["x", "y"]),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=100, derandomize=True)
def test_property_scope_instances_match_window_walk(loads, names, n, q, pick):
    from repro.core.evaluator import Context, Evaluator

    instances, split = loads
    store = ConfigStore()
    store.add_all(instances[:split])
    evaluator = Evaluator(store)
    for phase in range(2):  # the second phase sees the rest of the load
        outer_candidates = [None]
        for name in names:
            for outer in outer_candidates:
                ctx = Context({"n": n, "q": q}, (), outer)
                expected = _scope_outcome(_scope_walk, store, name, ctx)
                # twice: the second answer comes from the evaluator's cache
                for __ in range(2):
                    assert _scope_outcome(evaluator.scope_instances, name, ctx) == expected
                if isinstance(expected, list) and expected and len(outer_candidates) < 3:
                    # nest the next lookups inside one of these scopes
                    outer_candidates.append(expected[pick % len(expected)])
        for instance in instances[split:]:
            store.add(instance)
