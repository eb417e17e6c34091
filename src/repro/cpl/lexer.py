"""CPL lexer (replacing the paper's ANTLR front end).

Statement termination is newline-based (paper Listing 5 has no statement
separators).  Specifications may span lines, so a newline is suppressed when
the previous token obviously continues (trailing ``&``, ``->``, ``,`` …) or
the next token obviously resumes a statement (leading ``&``, ``|``, ``->``,
``else`` …).  Inside parentheses/brackets newlines never terminate.

Domain notations (``$Fabric::$CloudName.TenantName``) are lexed as single
``DOMAIN`` tokens using the same scanning rules as
:mod:`repro.repository.keys`, including nested ``$`` variables and quoted
qualifiers.  The context variable ``$_`` lexes as a DOMAIN token with value
``"_"``.

The scanner is one master regular expression: every alternative is a named
group, tried in order at each position, and the last one (``ERR``) matches
any single character, so ``finditer`` walks the text without gaps.  Inputs
that cannot start any token (an unterminated string or comment, a bare
``$``, ``!`` without ``=``/``!``) have their own groups and raise
:class:`CPLSyntaxError` at the line and column the grammar fails at.
"""

from __future__ import annotations

import re

from ..errors import CPLSyntaxError
from .tokens import KEYWORDS, QUANT_WORDS, Token, TokenType

__all__ = ["tokenize"]

# a name: letters, digits, _ * and -, except a '-' that starts an arrow
_NAME = r"(?:[A-Za-z0-9_*]|-(?!>))+"
_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_*-"
)
# a quoted string: \' and \\ are escapes, any other backslash is literal
_QUOTED = r"'((?:[^'\\]|\\['\\]|\\(?!['\\]))*)'"
_ESCAPE = re.compile(r"\\(['\\])")
_QUOTED_QUALIFIER = re.compile(_QUOTED)

_MASTER = re.compile(
    "|".join(
        (
            r"(?P<NL>\n)",
            r"(?P<WS>[ \t\r]+)",
            r"(?P<LC>//[^\n]*)",
            r"(?P<BC>/\*(?s:.*?)\*/)",
            r"(?P<UBC>/\*)",
            r"(?P<STR>" + _QUOTED.replace("(", "(?:", 1) + ")",
            r"(?P<USTR>')",
            r"(?P<NUM>\d+(?:\.\d+)?|\.\d+)",
            # $_ alone, or a name followed by ::qualifier, [index] and
            # .name parts (only an index binds: "[$x" or "[3" then "]")
            r"(?P<DOM>\$(?:_(?![A-Za-z0-9_*-])|" + _NAME + r"(?:::(?:"
            + _QUOTED.replace("(", "(?:", 1) + r"|\$?" + _NAME
            + r")|\[(?:\$[A-Za-z0-9_*-]*|\d+)\]|\.\$?" + _NAME + r")*))",
            r"(?P<UDOM>\$)",
            r"(?P<ARROW>->|→)",
            r"(?P<ONE>∃!)",
            r"(?P<EXISTS>∃)",
            r"(?P<FORALL>∀)",
            r"(?P<ASSIGN>:=)",
            r"(?P<COLONCOLON>::)",
            r"(?P<BANGBANG>!!)",
            r"(?P<RELOP>[=!<>]=|[=<>≤≥])",
            r"(?P<BANG>!)",
            r"(?P<OPEN>[(\[])",
            r"(?P<CLOSE>[)\]])",
            r"(?P<RBRACE>\})",
            r"(?P<SIMPLE>[{,.@#+/&|~])",
            r"(?P<MINUS>-)",
            # `*` between blanks multiplies domains; anywhere else it is a
            # wildcard name character
            r"(?P<STAR>\*(?<=[ \t\r\n]\*)(?=[ \t\r\n]))",
            r"(?P<WORD>[A-Za-z_*]" + r"(?:[A-Za-z0-9_*]|-(?!>))*)",
            r"(?P<ERR>.)",
        )
    )
)

_SIMPLE = {
    "{": TokenType.LBRACE,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    "@": TokenType.AT,
    "#": TokenType.HASH,
    "+": TokenType.PLUS,
    "/": TokenType.SLASH,
    "&": TokenType.AND,
    "|": TokenType.OR,
    "~": TokenType.NOT,
}
_RELOPS = {"=": "==", "≤": "<=", "≥": ">="}
_FIXED = {
    "ARROW": (TokenType.ARROW, "->"),
    "ONE": (TokenType.QUANT_ONE, "one"),
    "EXISTS": (TokenType.QUANT_EXISTS, "exists"),
    "FORALL": (TokenType.QUANT_FORALL, "forall"),
    "ASSIGN": (TokenType.ASSIGN, ":="),
    "COLONCOLON": (TokenType.COLONCOLON, "::"),
    "BANGBANG": (TokenType.BANGBANG, "!!"),
    "MINUS": (TokenType.MINUS, "-"),
    "STAR": (TokenType.STAR, "*"),
}

#: token types after which a newline never terminates a statement
_TRAILING_CONTINUATION = {
    TokenType.ARROW,
    TokenType.AND,
    TokenType.OR,
    TokenType.NOT,
    TokenType.ASSIGN,
    TokenType.COMMA,
    TokenType.RELOP,
    TokenType.LPAREN,
    TokenType.LBRACKET,
    TokenType.LBRACE,
    TokenType.PLUS,
    TokenType.MINUS,
    TokenType.STAR,
    TokenType.SLASH,
    TokenType.AT,
    TokenType.BANGBANG,
}

#: token types that, at line start, resume the previous statement
_LEADING_CONTINUATION = {
    TokenType.ARROW,
    TokenType.AND,
    TokenType.OR,
    TokenType.ASSIGN,
    TokenType.RELOP,
}


def _unescape(body: str) -> str:
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def _quote_qualifier(match: "re.Match[str]") -> str:
    return "'" + _unescape(match.group(1)).replace("'", "\\'") + "'"


def _domain_error(text: str, end: int) -> tuple[str, int] | None:
    """Why and where a notation that stops at ``end`` is malformed, if it is.

    ``::`` and ``.name`` commit a notation to another part, so a notation
    followed by one the master pattern could not match is an error (the
    offset is where the scanner gives up; -1 means the end of the text).
    """
    if text.startswith("::", end):
        after = end + 2
        if text.startswith("'", after):
            return "unterminated string literal", -1
        if text.startswith("$", after):
            after += 1
        return "expected a name in configuration notation", after
    after = end + 1
    if text.startswith(".", end) and after < len(text) and (
        text[after] in _NAME_CHARS or text[after] == "$"
    ):
        if text[after] == "$":
            after += 1
        return "expected a name in configuration notation", after
    return None


def tokenize(text: str) -> list[Token]:
    """Tokenize CPL source text; raises :class:`CPLSyntaxError` on bad input."""
    tokens: list[Token] = []
    emit = tokens.append
    line, line_start = 1, 0  # line_start: offset of the current line's start
    depth = 0  # ( [ nesting; newlines are invisible inside

    def fail(message: str, offset: int) -> CPLSyntaxError:
        if offset < 0:
            offset = len(text)
        lines = text.count("\n", line_start, offset)
        start = text.rfind("\n", 0, offset) + 1 if lines else line_start
        return CPLSyntaxError(message, line + lines, offset - start + 1)

    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        start = match.start()
        if kind == "WS" or kind == "LC":
            continue
        column = start - line_start + 1
        if kind == "DOM":
            end = match.end()
            value = text[start + 1:end]
            if "'" in value:
                value = _QUOTED_QUALIFIER.sub(_quote_qualifier, value)
            emit(Token(TokenType.DOMAIN, value, line, column))
            if "'" in value and "\n" in value:
                line += text.count("\n", start, end)
                line_start = text.rfind("\n", start, end) + 1
            # `$_` is complete as it stands: it takes no `::` or `.` parts
            error = _domain_error(text, end) if value != "_" else None
            if error is not None:
                raise fail(*error)
        elif kind == "WORD":
            word = match.group()
            if word in QUANT_WORDS:
                emit(Token(QUANT_WORDS[word], word, line, column))
            elif word in KEYWORDS:
                emit(Token(TokenType.KEYWORD, word, line, column))
            else:
                emit(Token(TokenType.IDENT, word, line, column))
        elif kind == "NL":
            line += 1
            line_start = start + 1
            if depth == 0:
                emit(Token(TokenType.NEWLINE, "\n", line, 1))
        elif kind == "SIMPLE":
            emit(Token(_SIMPLE[match.group()], match.group(), line, column))
        elif kind == "OPEN":
            depth += 1
            char = match.group()
            emit(Token(
                TokenType.LPAREN if char == "(" else TokenType.LBRACKET,
                char, line, column,
            ))
        elif kind == "CLOSE":
            depth = max(0, depth - 1)
            char = match.group()
            emit(Token(
                TokenType.RPAREN if char == ")" else TokenType.RBRACKET,
                char, line, column,
            ))
        elif kind == "RBRACE":
            emit(Token(TokenType.RBRACE, "}", line, column))
            if depth == 0:
                # `}` closing a block statement (never inside parens or
                # brackets, where it closes a set literal): follow it with
                # a virtual newline so `else` lookahead stays simple.
                emit(Token(TokenType.NEWLINE, "\n", line, column))
        elif kind == "STR":
            value = match.group()
            emit(Token(TokenType.STRING, _unescape(value[1:-1]), line, column))
            if "\n" in value:
                end = match.end()
                line += text.count("\n", start, end)
                line_start = text.rfind("\n", start, end) + 1
        elif kind == "NUM":
            number = match.group()
            emit(Token(
                TokenType.NUMBER,
                float(number) if "." in number else int(number),
                line, column,
            ))
        elif kind == "RELOP":
            op = match.group()
            emit(Token(TokenType.RELOP, _RELOPS.get(op, op), line, column))
        elif kind in _FIXED:
            type_, value = _FIXED[kind]
            emit(Token(type_, value, line, column))
        elif kind == "BC":
            end = match.end()
            if "\n" in match.group():
                line += text.count("\n", start, end)
                line_start = text.rfind("\n", start, end) + 1
        elif kind == "UBC":
            raise fail("unterminated block comment", -1)
        elif kind == "USTR":
            raise fail("unterminated string literal", -1)
        elif kind == "UDOM":
            raise fail("expected a name in configuration notation", start + 1)
        elif kind == "BANG":
            raise fail("expected '=' or '!' after '!'", start + 1)
        else:
            raise fail(f"unexpected character {match.group()!r}", start)
    emit(Token(TokenType.EOF, "", line, len(text) - line_start + 1))
    return _fold_newlines(tokens)


def _fold_newlines(tokens: list[Token]) -> list[Token]:
    """Drop newlines that sit inside an obviously-continuing statement; a
    run of newlines folds into its first."""
    out: list[Token] = []
    index = 0
    while index < len(tokens):
        token = tokens[index]
        index += 1
        if token.type != TokenType.NEWLINE:
            out.append(token)
            continue
        while index < len(tokens) and tokens[index].type == TokenType.NEWLINE:
            index += 1
        following = tokens[index] if index < len(tokens) else None
        continues = (
            not out
            or out[-1].type == TokenType.NEWLINE
            or out[-1].type in _TRAILING_CONTINUATION
            or following is not None and (
                following.type in _LEADING_CONTINUATION
                or following.type == TokenType.KEYWORD and following.value == "else"
            )
        )
        if not continues:
            out.append(token)
    return out
