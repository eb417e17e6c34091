"""CPL pretty-printer: canonical rendering + parse/print round-trip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpl import ast, parse, parse_predicate, print_predicate, print_program
from repro.cpl.printer import print_statement


def strip_meta(program: ast.Program) -> tuple:
    """Drop source-text/line metadata so round-trips compare structurally."""

    def clean(statement):
        if isinstance(statement, ast.SpecStatement):
            return statement.replace(text="", line=0)
        if isinstance(statement, ast.NamespaceBlock):
            return statement.replace(
                line=0, body=tuple(clean(s) for s in statement.body)
            )
        if isinstance(statement, ast.CompartmentBlock):
            return statement.replace(
                line=0, body=tuple(clean(s) for s in statement.body)
            )
        if isinstance(statement, ast.IfStatement):
            return statement.replace(
                line=0,
                condition=ast.ConditionSpec(
                    statement.condition.spec.replace(text="", line=0)
                ),
                then=tuple(clean(s) for s in statement.then),
                otherwise=tuple(clean(s) for s in statement.otherwise),
            )
        if hasattr(statement, "line"):
            return statement.replace(line=0)
        return statement

    return tuple(clean(s) for s in program.statements)


def roundtrips(text: str) -> bool:
    first = parse(text)
    printed = print_program(first)
    second = parse(printed)
    return strip_meta(first) == strip_meta(second)


class TestRendering:
    def test_simple_spec(self):
        program = parse("$OSBuildPath -> path & exists")
        assert print_program(program) == "$OSBuildPath -> path & exists"

    def test_precedence_parenthesized(self):
        predicate = parse_predicate("(a | b) & c")
        assert print_predicate(predicate) == "(a | b) & c"

    def test_flat_or(self):
        predicate = parse_predicate("a | b & c")
        assert print_predicate(predicate) == "a | b & c"

    def test_not_and_macro(self):
        predicate = parse_predicate("~nonempty | @UniqueCIDR")
        assert print_predicate(predicate) == "~nonempty | @UniqueCIDR"

    def test_range_and_set(self):
        assert print_predicate(parse_predicate("[5, 15]")) == "[5, 15]"
        assert (
            print_predicate(parse_predicate("{'a', 'b'}")) == "{'a', 'b'}"
        )

    def test_compartment_block(self):
        text = "compartment Cluster {\n  $ProxyIP -> [$StartIP, $EndIP]\n}"
        assert print_program(parse(text)) == text

    def test_custom_message_kept(self):
        program = parse("$K -> int !! 'numeric please'")
        assert print_program(program).endswith("!! 'numeric please'")

    def test_load_with_scope(self):
        program = parse("load 'ini' 'x.ini' as 'Fabric'")
        assert print_program(program) == "load 'ini' 'x.ini' as 'Fabric'"

    def test_string_escaping(self):
        program = parse(r"$K -> match('it\'s')")
        assert roundtrips(print_program(program))


ROUND_TRIP_PROGRAMS = [
    "$OSBuildPath -> path & exists",
    "$Fabric.AlertFailNodesThreshold -> int & nonempty & [5, 15]",
    "#[Datacenter] $Machinepool.FillFactor# -> consistent",
    "compartment Cluster {\n$ProxyIP -> [$StartIP, $EndIP]\n$IPv6Prefix -> ~nonempty | @UniqueCIDR\n}",
    "namespace r.s, t {\n$k1 -> int\n}",
    "let UniqueCIDR := unique & cidr",
    "if (exists $R.Gateway == 'LB') $Set.Device -> nonempty",
    "if ($C -> ~match('UF')) {\n$F::$C.T -> nonempty\n} else {\n$F::$C.T -> ~nonempty\n}",
    "$M -> foreach($Pool::$_.Vip) -> if (nonempty) split('-') -> [at(0), at(1)] -> exists [$lo, $hi]",
    "$s.k1, $s.k2 -> ip & unique",
    "$a + $b -> == 100",
    "lower($Name) -> == 'x'",
    "$k1 <= $k2",
    "get $Fabric.Timeout",
    "$K -> int !! 'custom {key}'",
    "$K -> one int",
    "$K -> if (int) [1, 5] else nonempty",
    "$V -> split(';') -> split('-') -> ip",
]


@pytest.mark.parametrize("text", ROUND_TRIP_PROGRAMS)
def test_round_trip(text):
    assert roundtrips(text), print_program(parse(text))


@given(st.lists(st.sampled_from(ROUND_TRIP_PROGRAMS), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_property_round_trip_programs(lines):
    assert roundtrips("\n".join(lines))


def test_print_statement_type_error():
    with pytest.raises(TypeError):
        print_statement("not a statement")


# ---------------------------------------------------------------------------
# Property: randomly built predicate ASTs survive print → parse
# ---------------------------------------------------------------------------

_operands = st.one_of(
    st.integers(min_value=-99, max_value=99).map(ast.Literal),
    st.sampled_from(["a", "quo'te", "x y"]).map(ast.Literal),
    st.sampled_from(["K", "Fabric.Timeout", "Cloud::C1.K"]).map(ast.DomainRef),
)

_leaves = st.one_of(
    st.sampled_from(["int", "nonempty", "ip", "unique", "consistent"]).map(
        lambda name: ast.PrimitiveCall(name)
    ),
    st.builds(lambda p: ast.PrimitiveCall("match", (ast.Literal(p),)),
              st.sampled_from(["^x", "v.*d$", "it's"])),
    st.builds(ast.RangePred, _operands, _operands),
    st.builds(lambda ms: ast.SetPred(tuple(ms)),
              st.lists(_operands, min_size=1, max_size=3)),
    st.builds(ast.RelPred, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              _operands),
)


def _predicates(depth=3):
    return st.recursive(
        _leaves,
        lambda children: st.one_of(
            st.builds(ast.And, children, children),
            st.builds(ast.Or, children, children),
            st.builds(ast.Not, children),
            st.builds(ast.Quantified, st.sampled_from(["exists", "forall", "one"]),
                      children),
            st.builds(ast.IfPred, children, children,
                      st.one_of(st.none(), children)),
        ),
        max_leaves=8,
    )


@given(_predicates())
@settings(max_examples=300, deadline=None)
def test_property_predicate_ast_roundtrip(predicate):
    printed = print_predicate(predicate)
    reparsed = parse_predicate(printed)
    assert print_predicate(reparsed) == printed
