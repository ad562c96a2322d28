"""Lexer for MiniC, the small C-like language the workloads are written in.

MiniC stands in for the C sources of the paper's benchmarks: it has
``int``/``char``/``float`` scalars and one-dimensional arrays, functions,
full structured control flow, and short-circuit ``&&``/``||`` — enough to
express the control-intensive kernels (wc, grep, qsort, ...) whose branch
behaviour the paper studies.
"""

from __future__ import annotations

from dataclasses import dataclass


class LexError(Exception):
    """Invalid input character or malformed literal."""


KEYWORDS = frozenset({
    "int", "char", "float", "if", "else", "while", "for", "return",
    "break", "continue",
})

#: Operators: the two-character ones are tried first (maximal munch).
_TWO_CHAR_OPS = frozenset({"<<", ">>", "<=", ">=", "==", "!=", "&&",
                           "||"})
_ONE_CHAR_OPS = frozenset("+-*/%<>=!&|^~(){}[];,?:")

_ESCAPES = {"n": 10, "t": 9, "0": 0, "r": 13, "\\": 92, "'": 39, '"': 34}


@dataclass(frozen=True, slots=True)
class Token:
    """A lexical token: ``kind`` is 'id', 'num', 'fnum', 'kw', or the
    operator text itself."""

    kind: str
    value: str | int | float
    line: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.value!r})@{self.line}"


def tokenize(source: str) -> list[Token]:
    """Convert MiniC source text into a token list ending with 'eof'."""
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "/" and source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if ch == "/" and source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError(f"line {line}: unterminated comment")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "id"
            tokens.append(Token(kind, word, line))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n \
                    and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                tokens.append(Token("fnum", float(source[i:j]), line))
            else:
                tokens.append(Token("num", int(source[i:j]), line))
            i = j
            continue
        if ch == "'":
            j = i + 1
            if j >= n:
                raise LexError(f"line {line}: unterminated char literal")
            if source[j] == "\\":
                if j + 1 >= n or source[j + 1] not in _ESCAPES:
                    raise LexError(f"line {line}: bad escape")
                value = _ESCAPES[source[j + 1]]
                j += 2
            else:
                value = ord(source[j])
                j += 1
            if j >= n or source[j] != "'":
                raise LexError(f"line {line}: unterminated char literal")
            tokens.append(Token("num", value, line))
            i = j + 1
            continue
        op = source[i:i + 2]
        if op in _TWO_CHAR_OPS:
            tokens.append(Token(op, op, line))
            i += 2
        elif ch in _ONE_CHAR_OPS:
            tokens.append(Token(ch, ch, line))
            i += 1
        else:
            raise LexError(f"line {line}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", line))
    return tokens
