"""Reference CPL lexer: the original character-at-a-time scanner.

``repro.cpl.lexer`` tokenizes with one master regular expression; this
module keeps the scanner it replaced as a test oracle, so the token streams
of both can be compared (``tests/test_lowering.py``).  The rules below are
the specification the regex must reproduce.

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
"""

from __future__ import annotations

from repro.cpl.tokens import KEYWORDS, QUANT_WORDS, Token, TokenType
from repro.errors import CPLSyntaxError

__all__ = ["tokenize"]

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_*-")
_SIMPLE = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
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


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1
        self.depth = 0  # ( [ nesting; newlines are invisible inside
        self.tokens: list[Token] = []

    # -- low-level helpers ------------------------------------------------

    def error(self, message: str) -> CPLSyntaxError:
        return CPLSyntaxError(message, self.line, self.column)

    def peek(self, ahead: int = 0) -> str:
        index = self.pos + ahead
        return self.text[index] if index < len(self.text) else ""

    def advance(self, count: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + count]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return chunk

    def emit(self, type_: str, value, line: int | None = None, column: int | None = None):
        self.tokens.append(
            Token(type_, value, line or self.line, column or self.column)
        )

    # -- main loop ---------------------------------------------------------

    def run(self) -> list[Token]:
        while self.pos < len(self.text):
            ch = self.peek()
            if ch == "\n":
                self.advance()
                if self.depth == 0:
                    self.emit(TokenType.NEWLINE, "\n")
                continue
            if ch in " \t\r":
                self.advance()
                continue
            if ch == "/" and self.peek(1) == "/":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
                continue
            if ch == "/" and self.peek(1) == "*":
                self.advance(2)
                while self.pos < len(self.text) and not (
                    self.peek() == "*" and self.peek(1) == "/"
                ):
                    self.advance()
                if self.pos >= len(self.text):
                    raise self.error("unterminated block comment")
                self.advance(2)
                continue
            line, column = self.line, self.column
            if ch == "'":
                self.emit(TokenType.STRING, self.read_string(), line, column)
                continue
            if ch.isdigit() or (ch == "." and self.peek(1).isdigit()):
                self.emit(TokenType.NUMBER, self.read_number(), line, column)
                continue
            if ch == "$":
                self.emit(TokenType.DOMAIN, self.read_domain(), line, column)
                continue
            if ch == "-" and self.peek(1) == ">":
                self.advance(2)
                self.emit(TokenType.ARROW, "->", line, column)
                continue
            if ch == "→":  # →
                self.advance()
                self.emit(TokenType.ARROW, "->", line, column)
                continue
            if ch == "∃":  # ∃ / ∃!
                self.advance()
                if self.peek() == "!":
                    self.advance()
                    self.emit(TokenType.QUANT_ONE, "one", line, column)
                else:
                    self.emit(TokenType.QUANT_EXISTS, "exists", line, column)
                continue
            if ch == "∀":  # ∀
                self.advance()
                self.emit(TokenType.QUANT_FORALL, "forall", line, column)
                continue
            if ch == ":" and self.peek(1) == "=":
                self.advance(2)
                self.emit(TokenType.ASSIGN, ":=", line, column)
                continue
            if ch == ":" and self.peek(1) == ":":
                self.advance(2)
                self.emit(TokenType.COLONCOLON, "::", line, column)
                continue
            if ch in "=!<>":
                op = self.read_relop()
                if op == "!!":
                    self.emit(TokenType.BANGBANG, op, line, column)
                else:
                    self.emit(TokenType.RELOP, op, line, column)
                continue
            if ch == "≤":  # ≤
                self.advance()
                self.emit(TokenType.RELOP, "<=", line, column)
                continue
            if ch == "≥":  # ≥
                self.advance()
                self.emit(TokenType.RELOP, ">=", line, column)
                continue
            if ch in _SIMPLE:
                self.advance()
                type_ = _SIMPLE[ch]
                # Braces hold *statements* (namespace/compartment blocks), so
                # newlines inside them still terminate; only parens/brackets
                # make newlines invisible.
                if type_ in (TokenType.LPAREN, TokenType.LBRACKET):
                    self.depth += 1
                elif type_ in (TokenType.RPAREN, TokenType.RBRACKET):
                    self.depth = max(0, self.depth - 1)
                elif type_ == TokenType.RBRACE and self.depth == 0:
                    # `}` closing a block statement (never inside parens or
                    # brackets, where it closes a set literal): follow it
                    # with a virtual newline so `else` lookahead stays simple.
                    self.emit(type_, ch, line, column)
                    self.emit(TokenType.NEWLINE, "\n", line, column)
                    continue
                self.emit(type_, ch, line, column)
                continue
            if ch == "-":
                # unary minus on numbers is handled by the parser; standalone
                # minus is the arithmetic domain operator
                self.advance()
                self.emit(TokenType.MINUS, "-", line, column)
                continue
            if ch in _NAME_CHARS:
                word = self.read_word()
                if word in QUANT_WORDS:
                    self.emit(QUANT_WORDS[word], word, line, column)
                elif word in KEYWORDS:
                    self.emit(TokenType.KEYWORD, word, line, column)
                else:
                    self.emit(TokenType.IDENT, word, line, column)
                continue
            raise self.error(f"unexpected character {ch!r}")
        self.emit(TokenType.EOF, "")
        return self._fold_newlines(self.tokens)

    # -- scanners ------------------------------------------------------------

    def read_string(self) -> str:
        self.advance()  # opening quote
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal")
            ch = self.advance()
            if ch == "\\" and self.peek() in ("'", "\\"):
                out.append(self.advance())
            elif ch == "'":
                break
            else:
                out.append(ch)
        return "".join(out)

    def read_number(self):
        start = self.pos
        while self.peek().isdigit():
            self.advance()
        if self.peek() == "." and self.peek(1).isdigit():
            self.advance()
            while self.peek().isdigit():
                self.advance()
            return float(self.text[start:self.pos])
        return int(self.text[start:self.pos])

    def read_relop(self) -> str:
        ch = self.advance()
        if ch == "=" and self.peek() == "=":
            self.advance()
            return "=="
        if ch == "=":
            return "=="  # tolerate single '=' as equality
        if ch == "!":
            if self.peek() == "!":
                self.advance()
                return "!!"
            if self.peek() != "=":
                raise self.error("expected '=' or '!' after '!'")
            self.advance()
            return "!="
        if ch in "<>" and self.peek() == "=":
            self.advance()
            return ch + "="
        return ch

    def read_word(self) -> str:
        start = self.pos
        while self.peek() in _NAME_CHARS:
            if self.peek() == "-" and self.peek(1) == ">":
                break  # '-' belongs to an arrow, not the name
            self.advance()
        return self.text[start:self.pos]

    def read_domain(self) -> str:
        """Scan a full qualified notation after ``$`` (value excludes the $)."""
        self.advance()  # $
        if self.peek() == "_" and self.peek(1) not in _NAME_CHARS:
            self.advance()
            return "_"
        start = self.pos
        out = []

        def read_name(allow_dollar: bool) -> None:
            if allow_dollar and self.peek() == "$":
                out.append(self.advance())
            got = False
            while self.peek() in _NAME_CHARS:
                if self.peek() == "-" and self.peek(1) == ">":
                    break  # '-' belongs to an arrow, not the name
                out.append(self.advance())
                got = True
            if not got:
                raise self.error("expected a name in configuration notation")

        read_name(allow_dollar=False)
        while True:
            if self.peek() == ":" and self.peek(1) == ":":
                out.append(self.advance(2))
                if self.peek() == "'":
                    quoted = self.read_string()
                    out.append("'" + quoted.replace("'", "\\'") + "'")
                else:
                    read_name(allow_dollar=True)
                continue
            if self.peek() == "[":
                # Only an index ([3] or [$var]) binds to the domain; anything
                # else (e.g. range predicate "[...") belongs to the parser.
                ahead = 1
                if self.peek(ahead) == "$":
                    ahead += 1
                    while self.peek(ahead) in _NAME_CHARS:
                        ahead += 1
                elif self.peek(ahead).isdigit():
                    while self.peek(ahead).isdigit():
                        ahead += 1
                else:
                    break
                if self.peek(ahead) != "]":
                    break
                out.append(self.advance(ahead + 1))
                continue
            if self.peek() == "." and (
                self.peek(1) in _NAME_CHARS or self.peek(1) == "$"
            ):
                out.append(self.advance())
                read_name(allow_dollar=True)
                continue
            break
        if not out:
            raise self.error("empty configuration notation after '$'")
        return "".join(out)

    # -- newline folding -------------------------------------------------------

    @staticmethod
    def _fold_newlines(tokens: list[Token]) -> list[Token]:
        """Drop newlines that sit inside an obviously-continuing statement."""
        out: list[Token] = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token.type != TokenType.NEWLINE:
                out.append(token)
                index += 1
                continue
            # collapse a run of newlines
            next_index = index
            while (
                next_index < len(tokens)
                and tokens[next_index].type == TokenType.NEWLINE
            ):
                next_index += 1
            previous = out[-1] if out else None
            following = tokens[next_index] if next_index < len(tokens) else None
            drop = False
            if previous is None or previous.type == TokenType.NEWLINE:
                drop = True
            elif previous.type in _TRAILING_CONTINUATION:
                drop = True
            elif following is not None and following.type in _LEADING_CONTINUATION:
                drop = True
            elif following is not None and (
                following.type == TokenType.KEYWORD and following.value == "else"
            ):
                drop = True
            if not drop:
                out.append(token)
            index = next_index
        return out


def tokenize(text: str) -> list[Token]:
    """Tokenize CPL source text; raises :class:`CPLSyntaxError` on bad input."""
    return _Lexer(text).run()
