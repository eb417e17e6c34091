"""Qualified keys and patterns (paper §4.2.2, Table 1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotationError
from repro.repository.keys import (
    ANY,
    NAMED,
    ORDINAL,
    InstanceKey,
    InstanceSegment,
    KeyPattern,
    PatternSegment,
    parse_instance_key,
    parse_pattern,
)


class TestParsePattern:
    def test_single_key(self):
        pattern = parse_pattern("SecurityConfigFile")
        assert len(pattern) == 1
        assert pattern.segments[0].name == "SecurityConfigFile"
        assert pattern.segments[0].kind == ANY

    def test_scoped_key(self):
        pattern = parse_pattern("Fabric.RecoveryAttempts")
        assert [s.name for s in pattern.segments] == ["Fabric", "RecoveryAttempts"]

    def test_named_instance(self):
        pattern = parse_pattern("Cloud::CO2test2.Tenant.SecretKey")
        assert pattern.segments[0].kind == NAMED
        assert pattern.segments[0].qualifier == "CO2test2"

    def test_numbered_instance(self):
        pattern = parse_pattern("Cloud[1].Tenant::SLB.SecretKey")
        assert pattern.segments[0].kind == ORDINAL
        assert pattern.segments[0].qualifier == 1
        assert pattern.segments[1].qualifier == "SLB"

    def test_variable_qualifier(self):
        pattern = parse_pattern("Cloud::$CloudName.Tenant.SecretKey")
        assert pattern.variables == frozenset({"CloudName"})

    def test_variable_name_segment(self):
        pattern = parse_pattern("$Component.Timeout")
        assert pattern.variables == frozenset({"Component"})

    def test_wildcard_scope(self):
        pattern = parse_pattern("*.SecretKey")
        assert pattern.segments[0].name == "*"

    def test_wildcard_key(self):
        pattern = parse_pattern("*IP")
        assert pattern.segments[0].name == "*IP"

    def test_quoted_qualifier(self):
        pattern = parse_pattern("CloudGroup::'East1 Production'.MonitorNodeHealth")
        assert pattern.segments[0].qualifier == "East1 Production"

    def test_quoted_qualifier_with_escape(self):
        pattern = parse_pattern(r"G::'it\'s'.K")
        assert pattern.segments[0].qualifier == "it's"

    def test_empty_is_error(self):
        with pytest.raises(KeyNotationError):
            parse_pattern("")

    def test_trailing_dot_is_error(self):
        with pytest.raises(KeyNotationError):
            parse_pattern("A.")

    def test_bad_index_is_error(self):
        with pytest.raises(KeyNotationError):
            parse_pattern("A[x]")

    def test_unterminated_quote_is_error(self):
        with pytest.raises(KeyNotationError):
            parse_pattern("A::'oops")


class TestSubstitute:
    def test_qualifier_substitution(self):
        pattern = parse_pattern("Cloud::$C.Key").substitute({"C": "CO2"})
        assert pattern.segments[0].qualifier == "CO2"
        assert not pattern.variables

    def test_name_substitution(self):
        pattern = parse_pattern("$Comp.Key").substitute({"Comp": "Fabric"})
        assert pattern.segments[0].name == "Fabric"

    def test_ordinal_variable_substitution(self):
        pattern = parse_pattern("Cloud[$i].Key").substitute({"i": 2})
        assert pattern.segments[0].qualifier == 2

    def test_missing_binding_left_alone(self):
        pattern = parse_pattern("Cloud::$C.Key").substitute({})
        assert pattern.variables == frozenset({"C"})


class TestMatching:
    def key(self, *parts):
        return InstanceKey.build(*parts)

    def test_exact_match(self):
        key = self.key(("Fabric", "inst1"), "RecoveryAttempts")
        assert parse_pattern("Fabric.RecoveryAttempts").matches(key)

    def test_suffix_match(self):
        key = self.key(("CloudGroup", "G"), ("Cloud", "C"), ("Tenant", "A"), "SecretKey")
        assert parse_pattern("Cloud.Tenant.SecretKey").matches(key)
        assert parse_pattern("Tenant.SecretKey").matches(key)
        assert parse_pattern("SecretKey").matches(key)

    def test_named_qualifier_must_match(self):
        key = self.key(("Cloud", "CO2test2"), ("Tenant", "A"), "SecretKey")
        assert parse_pattern("Cloud::CO2test2.Tenant.SecretKey").matches(key)
        assert not parse_pattern("Cloud::Other.Tenant.SecretKey").matches(key)

    def test_ordinal_matches_sibling_index(self):
        first = self.key(("Cloud", "X", 1), "K")
        second = self.key(("Cloud", "Y", 2), "K")
        assert parse_pattern("Cloud[1].K").matches(first)
        assert not parse_pattern("Cloud[1].K").matches(second)
        assert parse_pattern("Cloud[2].K").matches(second)

    def test_named_pattern_rejects_unqualified_instance(self):
        key = self.key("Cloud", "K")
        assert not parse_pattern("Cloud::X.K").matches(key)

    def test_wildcard_star_segment(self):
        key = self.key(("Cloud", "C"), "SecretKey")
        assert parse_pattern("*.SecretKey").matches(key)

    def test_wildcard_in_name(self):
        key = self.key(("Cloud", "C"), "ProxyIP")
        assert parse_pattern("*IP").matches(key)
        assert not parse_pattern("*Port").matches(key)

    def test_wildcard_in_qualifier(self):
        key = self.key(("Cloud", "East1Storage1"), "K")
        assert parse_pattern("Cloud::East1*.K").matches(key)
        assert not parse_pattern("Cloud::West*.K").matches(key)

    def test_pattern_longer_than_key_never_matches(self):
        key = self.key("K")
        assert not parse_pattern("A.B.K").matches(key)

    def test_unresolved_variable_raises(self):
        key = self.key(("Cloud", "C"), "K")
        with pytest.raises(KeyNotationError):
            parse_pattern("Cloud::$V.K").matches(key)


class TestPrefixing:
    def test_prefixed_with_pattern(self):
        inner = parse_pattern("k1")
        combined = inner.prefixed_with(parse_pattern("r.s"))
        assert combined.render() == "r.s.k1"

    def test_prefixed_with_instance(self):
        scope = InstanceKey.build(("Cluster", "C1"))
        pattern = parse_pattern("StartIP").prefixed_with_instance(scope)
        assert pattern.matches(InstanceKey.build(("Cluster", "C1"), "StartIP"))
        assert not pattern.matches(InstanceKey.build(("Cluster", "C2"), "StartIP"))

    def test_prefixed_with_ordinal_instance(self):
        scope = InstanceKey.build(("Rack", None, 2))
        pattern = parse_pattern("Location").prefixed_with_instance(scope)
        assert pattern.matches(InstanceKey.build(("Rack", None, 2), "Location"))
        assert not pattern.matches(InstanceKey.build(("Rack", None, 1), "Location"))


class TestRendering:
    def test_instance_render_roundtrip(self):
        key = InstanceKey.build(("Cloud", "East1 Production"), ("Tenant", "A"), "K")
        assert parse_instance_key(key.render()) == key

    def test_ordinal_render_roundtrip(self):
        key = InstanceKey.build(("Rack", None, 3), "Location")
        assert parse_instance_key(key.render()) == key

    def test_class_key(self):
        key = InstanceKey.build(("A", "x"), ("B", None, 2), "C")
        assert key.class_key == ("A", "B", "C")

    def test_instance_key_rejects_wildcards(self):
        with pytest.raises(KeyNotationError):
            parse_instance_key("*.K")


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1,
    max_size=8,
).filter(lambda s: s not in ("", "_"))

_segments = st.builds(
    InstanceSegment,
    name=_names,
    qualifier=st.one_of(st.none(), _names),
    ordinal=st.integers(min_value=1, max_value=9),
)

_keys = st.builds(
    InstanceKey, st.lists(_segments, min_size=1, max_size=5).map(tuple)
)


@given(_keys)
@settings(max_examples=200)
def test_property_render_parse_matches_self(key):
    """A key's rendering, parsed as a pattern, matches the key itself."""
    pattern = parse_pattern(key.render())
    assert pattern.matches(key)


@given(_keys)
@settings(max_examples=200)
def test_property_class_pattern_matches_instance(key):
    """The bare class notation matches every instance of the class."""
    pattern = parse_pattern(".".join(key.class_key))
    assert pattern.matches(key)


@given(_keys, st.integers(min_value=1, max_value=5))
@settings(max_examples=200)
def test_property_suffix_patterns_match(key, depth):
    """Any suffix of the class path matches the instance."""
    names = key.class_key
    suffix = names[max(0, len(names) - depth):]
    assert parse_pattern(".".join(suffix)).matches(key)


@given(_keys)
@settings(max_examples=200)
def test_property_instance_roundtrip(key):
    """render → parse_instance_key is the identity up to default ordinals."""
    parsed = parse_instance_key(key.render())
    assert parsed.class_key == key.class_key
    for original, reparsed in zip(key.segments, parsed.segments):
        assert original.qualifier == reparsed.qualifier
        if original.qualifier is None:
            assert (original.ordinal == 1) == (reparsed.ordinal == 1)


# ---------------------------------------------------------------------------
# The plain-notation fast path agrees with the scanner
# ---------------------------------------------------------------------------

_FAST_ALPHABET = "aZ09_*-$:.[]' \\\té²"


def _outcome(parse, text):
    """A parse result, or the error it raised as ``(type name, message)``."""
    try:
        return parse(text)
    except (KeyNotationError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _random_notation(rng):
    """A notation built segment by segment, then sometimes corrupted."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(["Cloud", "$var", "*IP", "a-b_1", "N0", "é", "*"])
        tail = rng.choice(
            ["", "::inst", "::$q", "::'East 1'", "::'a.b'", "[2]", "[007]", "[$i]"]
        )
        parts.append(name + tail)
    text = ".".join(parts)
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:at] + rng.choice(_FAST_ALPHABET) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@pytest.mark.parametrize("seed", range(4))
def test_fast_path_agrees_with_scanner(seed):
    """Equal patterns, or the same error, on random notations."""
    import random

    from repro.repository import keys

    rng = random.Random(seed)
    texts = [_random_notation(rng) for _ in range(800)]
    texts += [
        "".join(rng.choice(_FAST_ALPHABET) for _ in range(rng.randint(0, 8)))
        for _ in range(400)
    ]
    fast = 0
    for text in texts:
        assert _outcome(parse_pattern, text) == _outcome(
            keys._scan_pattern, text.strip()
        ), text
        fast += keys._parse_plain(text.strip()) is not None
    # both paths are exercised: plain notations and ones only the scanner takes
    assert 100 < fast < len(texts) - 100
