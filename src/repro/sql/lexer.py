"""Tokenizer for the SQL subset.

The subset covers exactly what the paper's workloads need (and a little
more): SELECT [DISTINCT] list FROM tables WHERE predicate, with nested
subqueries linked by EXISTS / NOT EXISTS / IN / NOT IN / θ SOME|ANY /
θ ALL, comparison predicates, BETWEEN, IS [NOT] NULL, AND/OR/NOT,
numeric and string literals, and the NULL keyword.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import ParseError

KEYWORDS = {
    "select",
    "distinct",
    "from",
    "where",
    "and",
    "or",
    "not",
    "in",
    "exists",
    "between",
    "is",
    "null",
    "any",
    "some",
    "all",
    "as",
    "true",
    "false",
    "group",
    "having",
    "order",
    "by",
    "limit",
    "asc",
    "desc",
}

#: multi-char operators first so maximal munch works
OPERATORS = ["<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", "*", ".", "+", "-", "/"]


@dataclass(frozen=True)
class Token:
    """A lexical token: kind ∈ {kw, ident, number, string, op, eof}."""

    kind: str
    value: str
    position: int
    line: int

    def is_kw(self, word: str) -> bool:
        return self.kind == "kw" and self.value == word

    def __repr__(self) -> str:
        return f"Token({self.kind}:{self.value!r}@{self.line})"


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*; raises :class:`ParseError` on illegal characters."""
    tokens: List[Token] = []
    i = 0
    line = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            # SQL line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while j < n:
                if text[j] == "'" and j + 1 < n and text[j + 1] == "'":
                    buf.append("'")
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    line += 1
                buf.append(text[j])
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", i, line)
            tokens.append(Token("string", "".join(buf), i, line))
            i = j + 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # a dot not followed by a digit is a qualifier, not a decimal
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            # optional exponent: e/E, optional sign, at least one digit
            # (an 'e' not followed by digits starts an identifier instead,
            # e.g. the alias in "... from t e")
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(Token("number", text[i:j], i, line))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("kw", lowered, i, line))
            else:
                tokens.append(Token("ident", word, i, line))
            i = j
            continue
        matched: Optional[str] = None
        for op in OPERATORS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is None:
            raise ParseError(f"illegal character {ch!r}", i, line)
        tokens.append(Token("op", matched, i, line))
        i += len(matched)
    tokens.append(Token("eof", "", n, line))
    return tokens
