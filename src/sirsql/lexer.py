"""Tokenizer for the sirsql dialect.

Identifiers may contain ``#`` (S#, P#) and can be quoted with double quotes
or square brackets.  Comments are ``--`` to end of line and ``/* ... */``.
Keywords are not reserved at the lexer level; the parser matches token text
case-insensitively, so names like STATUS stay plain identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError

# token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
EOF = "EOF"

_OPERATORS = (
    "||", "<=", ">=", "<>", "!=",
    "(", ")", ",", ";", ".", "*", "/", "+", "-", "=", "<", ">", "%",
)


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int
    quoted: bool = field(default=False)

    def matches(self, word: str) -> bool:
        """Case-insensitive keyword match; quoted identifiers never match."""
        return self.kind == IDENT and not self.quoted and self.value.upper() == word.upper()


# a number is ASCII digits: SQLite reads no other, so `١٢٣` or `5²` is refused here
_DIGITS = frozenset("0123456789")


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_#$"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(source)
    line, line_start = 1, 0         # the character at offset i is in column i - line_start + 1

    def skip(end):
        """Move past source[i:end], a comment, string or quoted identifier,
        which may span lines."""
        nonlocal i, line, line_start
        breaks = source.count("\n", i, end)
        if breaks:
            line += breaks
            line_start = source.rfind("\n", i, end) + 1
        i = end

    while i < n:
        ch = source[i]
        if ch in " \t\r":
            i += 1
            continue
        if ch == "\n":
            i += 1
            line, line_start = line + 1, i
            continue
        col = i - line_start + 1
        if source.startswith("--", i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise ParseError("unterminated block comment", line, col)
            skip(end + 2)
            continue
        if ch == "'":
            j = i + 1
            out = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", line, col)
                if source[j] == "'":
                    if j + 1 < n and source[j + 1] == "'":
                        out.append("'")
                        j += 2
                        continue
                    break
                out.append(source[j])
                j += 1
            tokens.append(Token(STRING, "".join(out), line, col))
            skip(j + 1)
            continue
        if ch == '"' or ch == "[":
            closer = '"' if ch == '"' else "]"
            j = source.find(closer, i + 1)
            if j == -1:
                raise ParseError("unterminated quoted identifier", line, col)
            tokens.append(Token(IDENT, source[i + 1:j], line, col, quoted=True))
            skip(j + 1)
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (source[j] in _DIGITS or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # a dot not followed by a digit ends the number (qualified names)
                    if j + 1 >= n or source[j + 1] not in _DIGITS:
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(NUMBER, source[i:j], line, col))
            i = j
            continue
        if _ident_start(ch):
            j = i + 1
            while j < n and _ident_part(source[j]):
                j += 1
            tokens.append(Token(IDENT, source[i:j], line, col))
            i = j
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(OP, op, line, col))
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)

    tokens.append(Token(EOF, "", line, i - line_start + 1))
    return tokens


# --- statement shapes --------------------------------------------------------

INT64_MAX = 2**63 - 1
_BOUND_FLOAT_DIGITS = 15        # a float with more digits may parse differently in SQLite

# One `findall` over dialect text that finds its literals the way `tokenize`
# does.  Each match is the start of the text or a literal (group 1 a string
# literal's body, group 2 a number), then the run up to the next literal
# (group 3), so the key is the runs joined by ``?``.  A run takes identifiers,
# comments and quoted identifiers whole, so that digits in identifiers
# (R001_K, S#) and literals in comments or quoted identifiers are never bound.
# It also takes what `tokenize` refuses (a quote, comment or bracket left
# open, and digits other than 0-9 outside identifiers), so it ends only at
# a literal or at the end and the matches tile the text.  Spaces and
# punctuation go with the piece before them, which keeps the engine's loop
# short.
_SHAPE = re.compile(r"""
    (?: \A | '([^']*(?:''[^']*)*)' | ([0-9]+(?:\.[0-9]+)?|\.[0-9]+) )
    ( [^'"\[\w./-]*
      (?: (?: [^\W\d][\w#$]* | "[^"]*" | \[[^\]]*\] | --[^\n]* | /\*.*?\*/
            | \.(?![0-9]) | -(?!-) | /(?!\*) | ["\[/] | '(?![^']*') | [^\D0-9] )
          [^'"\[\w./-]* )* )
""", re.VERBOSE | re.DOTALL)
_LITERAL_START = re.compile("['0-9]")     # a text without one is its own key


def literal_value(text: str):
    """The sqlite3 parameter for a NUMBER token (ASCII digits only, as
    `tokenize` and `shape` read them), or None when it must stay inline:
    integers beyond int64 and floats with more than 15 digits."""
    if "." in text:
        return float(text) if len(text) <= _BOUND_FLOAT_DIGITS + 1 else None
    value = int(text)
    return value if value <= INT64_MAX else None


def shape(source: str) -> tuple[str, list]:
    """`source` with each bindable literal replaced by ``?``, and the values.

    Strings become str, numbers int or float (see `literal_value`); a number
    that cannot be bound stays in the text, so it is part of the shape.
    """
    if _LITERAL_START.search(source) is None:
        return source, []
    parts = _SHAPE.findall(source)
    values = [literal_value(number) if number else string.replace("''", "'")
              for string, number, _ in parts[1:]]
    if None in values:     # a number that cannot be bound stays in the text
        key = parts[0][2] + "".join(("?" if value is not None else number) + run
                                    for value, (_, number, run) in zip(values, parts[1:]))
        return key, [value for value in values if value is not None]
    return "?".join([run for _, _, run in parts]), values
