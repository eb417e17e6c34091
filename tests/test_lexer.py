"""CPL lexer: tokens, domains, comments, newline folding."""

from __future__ import annotations

import pytest

from repro.cpl.lexer import tokenize
from repro.cpl.tokens import TokenType
from repro.errors import CPLSyntaxError


def types(text):
    return [t.type for t in tokenize(text) if t.type != TokenType.EOF]


def values(text):
    return [t.value for t in tokenize(text) if t.type != TokenType.EOF]


class TestBasics:
    def test_simple_spec(self):
        tokens = tokenize("$OSBuildPath -> path & exists")
        assert [t.type for t in tokens[:5]] == [
            TokenType.DOMAIN,
            TokenType.ARROW,
            TokenType.IDENT,
            TokenType.AND,
            TokenType.QUANT_EXISTS,
        ]
        assert tokens[0].value == "OSBuildPath"

    def test_unicode_arrow_and_quantifiers(self):
        assert types("$A → int")[:2] == [TokenType.DOMAIN, TokenType.ARROW]
        assert types("∃ nonempty")[0] == TokenType.QUANT_EXISTS
        assert types("∀ nonempty")[0] == TokenType.QUANT_FORALL
        assert types("∃! nonempty")[0] == TokenType.QUANT_ONE

    def test_unicode_relops(self):
        assert values("$a ≤ $b")[1] == "<="
        assert values("$a ≥ $b")[1] == ">="

    def test_relops(self):
        for op in ("==", "!=", "<", "<=", ">", ">="):
            assert values(f"$a {op} 5")[1] == op

    def test_single_equals_tolerated(self):
        assert values("$a = 5")[1] == "=="

    def test_strings_with_escape(self):
        assert values(r"'it\'s'") == ["it's"]

    def test_unterminated_string_raises(self):
        with pytest.raises(CPLSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        assert values("42 3.14") == [42, 3.14]

    def test_keywords_vs_idents(self):
        tokens = tokenize("load nonempty namespace")
        assert tokens[0].type == TokenType.KEYWORD
        assert tokens[1].type == TokenType.IDENT
        assert tokens[2].type == TokenType.KEYWORD

    def test_macro_and_hash(self):
        assert types("@Macro")[:2] == [TokenType.AT, TokenType.IDENT]
        assert types("#[C] $x#")[0] == TokenType.HASH

    def test_unexpected_char_raises(self):
        with pytest.raises(CPLSyntaxError) as info:
            tokenize("$a -> ^")
        assert info.value.line == 1


class TestDomainScanning:
    def test_plain(self):
        assert values("$Fabric.RecoveryAttempts")[0] == "Fabric.RecoveryAttempts"

    def test_named_and_numbered(self):
        assert values("$Cloud::CO2.Tenant[2].K")[0] == "Cloud::CO2.Tenant[2].K"

    def test_nested_variable(self):
        assert values("$Fabric::$CloudName.TenantName")[0] == "Fabric::$CloudName.TenantName"

    def test_context_var(self):
        tokens = tokenize("$_")
        assert tokens[0].type == TokenType.DOMAIN
        assert tokens[0].value == "_"

    def test_context_var_inside_notation(self):
        assert values("$MachinePool::$_.VipRanges")[0] == "MachinePool::$_.VipRanges"

    def test_wildcards(self):
        assert values("$*IP")[0] == "*IP"
        assert values("$*.SecretKey")[0] == "*.SecretKey"

    def test_star_between_blanks_multiplies(self):
        assert types("$Listen * $Ratio") == [
            TokenType.DOMAIN, TokenType.STAR, TokenType.DOMAIN,
        ]
        # anywhere else `*` stays a wildcard name character
        assert types("f(*) *x x* a*b") == [
            TokenType.IDENT, TokenType.LPAREN, TokenType.IDENT, TokenType.RPAREN,
            TokenType.IDENT, TokenType.IDENT, TokenType.IDENT,
        ]
        assert values("$A::*.x * $B")[:2] == ["A::*.x", "*"]

    def test_range_bracket_not_swallowed(self):
        # `[` after a domain only binds when it holds an index
        tokens = tokenize("$ProxyIP -> [$StartIP, $EndIP]")
        assert tokens[0].value == "ProxyIP"
        assert tokens[2].type == TokenType.LBRACKET

    def test_index_bracket_swallowed(self):
        assert values("$Cloud[1].K")[0] == "Cloud[1].K"

    def test_quoted_qualifier(self):
        assert values("$G::'East1 Production'.K")[0] == "G::'East1 Production'.K"

    def test_empty_domain_raises(self):
        with pytest.raises(CPLSyntaxError):
            tokenize("$ ->")


class TestComments:
    def test_line_comment(self):
        assert types("// comment\n$a -> int")[0] == TokenType.DOMAIN

    def test_block_comment(self):
        assert types("/* multi\nline */ $a -> int")[0] == TokenType.DOMAIN

    def test_unterminated_block_raises(self):
        with pytest.raises(CPLSyntaxError):
            tokenize("/* oops")


class TestNewlineFolding:
    def test_continuation_after_trailing_and(self):
        tokens = types("$a -> int &\n[5,15]")
        assert TokenType.NEWLINE not in tokens

    def test_continuation_before_leading_and(self):
        tokens = types("$a -> int\n& [5,15]")
        assert TokenType.NEWLINE not in tokens

    def test_statement_separation_preserved(self):
        tokens = types("$a -> int\n$b -> bool")
        assert tokens.count(TokenType.NEWLINE) == 1

    def test_newlines_invisible_inside_parens(self):
        tokens = types("$a -> match(\n'x'\n)")
        assert TokenType.NEWLINE not in tokens

    def test_newlines_kept_inside_braces(self):
        # namespace/compartment blocks hold statements
        tokens = types("compartment C {\n$a -> int\n$b -> bool\n}")
        assert tokens.count(TokenType.NEWLINE) >= 2

    def test_rbrace_emits_virtual_newline(self):
        tokens = types("compartment C { $a -> int }")
        rbrace = tokens.index(TokenType.RBRACE)
        assert tokens[rbrace + 1] == TokenType.NEWLINE

    def test_leading_blank_lines_dropped(self):
        assert types("\n\n$a -> int")[0] == TokenType.DOMAIN

    def test_line_numbers_tracked(self):
        tokens = tokenize("$a -> int\n$b -> bool")
        b_token = [t for t in tokens if t.value == "b"][0]
        assert b_token.line == 2
