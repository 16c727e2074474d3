"""Tokenizer for the sirsql dialect.

Identifiers may contain ``#`` (S#, P#) and can be quoted with double quotes
or square brackets.  Comments are ``--`` to end of line and ``/* ... */``.
Keywords are not reserved at the lexer level; the parser matches token text
case-insensitively, so names like STATUS stay plain identifiers.

Each lexical piece (string literal, number, word, quoted identifier,
comment) is written once below.  `tokenize` is the only reader of a text's
literals: each token records where it starts and ends, and the statement
cache cuts a parsed text at its literal tokens into runs (`literal_runs`).
The literal that `bind_runs` reads between a new text's runs is built from
the same pieces, so the cache binds exactly the literals the parser reads.
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


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int
    start: int      # offsets of the token's first character and one past its last
    end: int
    quoted: bool = field(default=False)

    def matches(self, word: str) -> bool:
        """Case-insensitive keyword match; quoted identifiers never match."""
        return self.kind == IDENT and not self.quoted and self.value.upper() == word.upper()


# the lexical pieces; a number is ASCII digits, as SQLite reads no other
_STRING_BODY = r"[^']*(?:''[^']*)*"    # between a string literal's quotes
_NUMBER = r"[0-9]+(?:\.[0-9]+)?|\.[0-9]+"
_WORD = r"[^\W\d][\w#$]*"       # tokenize refuses a first character that is not alphabetic
_QUOTED = r'"[^"]*"|\[[^\]]*\]'
_COMMENT = r"--[^\n]*|/\*.*?\*/"

# One match per token: whitespace and comments, then the token.  `(?!')`
# keeps an unterminated string from backtracking to end at an escaped
# quote, and `/(?!\*)` keeps an open block comment from reading as an
# operator; what is left is BAD.
_TOKEN = re.compile(rf"""
    (?: [ \t\r\n]+ | {_COMMENT} )*
    (?: (?P<STRING>'{_STRING_BODY}')(?!') | (?P<NUMBER>{_NUMBER}) | (?P<IDENT>{_WORD})
      | (?P<QUOTED>{_QUOTED}) | (?P<OP>\|\||[<>!]=|<>|[(),;.*+=<>%-]|/(?!\*))
      | (?P<EOF>\Z) | (?P<BAD>.) )
""", re.VERBOSE | re.DOTALL)
_UNTERMINATED = {"'": "unterminated string literal", '"': "unterminated quoted identifier",
                 "[": "unterminated quoted identifier", "/": "unterminated block comment"}


def tokenize(source: str) -> list[Token]:
    """The tokens of `source`, ending with EOF; ParseError at the first
    character that starts no token, or at an opener left unclosed."""
    tokens: list[Token] = []
    line, line_start, counted = 1, 0, 0     # newlines before offset `counted` are in `line`
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        breaks = source.count("\n", counted, start)
        if breaks:
            line += breaks
            line_start = source.rfind("\n", counted, start) + 1
        counted, col, text = start, start - line_start + 1, m.group(kind)
        if kind == IDENT and not (text[0].isalpha() or text[0] == "_"):    # ², ½, Ⅻ
            kind, text = "BAD", text[0]
        if kind == STRING:
            tokens.append(Token(STRING, text[1:-1].replace("''", "'"), line, col, start, m.end()))
        elif kind == "QUOTED":
            tokens.append(Token(IDENT, text[1:-1], line, col, start, m.end(), quoted=True))
        elif kind == "BAD":
            raise ParseError(_UNTERMINATED.get(text, f"unexpected character {text!r}"), line, col)
        else:
            tokens.append(Token(kind, text, line, col, start, m.end()))
            if kind == EOF:
                return tokens


# --- literal runs --------------------------------------------------------------

INT64_MAX = 2**63 - 1
_INT64_DIGITS = len(str(INT64_MAX))
_BOUND_FLOAT_DIGITS = 15        # a float with more digits may parse differently in SQLite


def literal_value(text: str):
    """The sqlite3 parameter for a NUMBER token (ASCII digits only, as
    `tokenize` reads them), or None when it must stay inline: integers
    beyond int64 and floats with more than 15 digits.  Only an integer's
    digits after its leading zeros are converted, and only when they are no
    more than int64's, so no text meets Python's limit on integer string
    conversion."""
    if "." in text:
        return float(text) if len(text) <= _BOUND_FLOAT_DIGITS + 1 else None
    digits = text.lstrip("0")
    if len(digits) > _INT64_DIGITS:
        return None
    value = int(digits or "0")
    return value if value <= INT64_MAX else None


# A literal after a word or a dot may be read as one token with it once
# another literal takes its place (`T.'a'` and `T.5`, `R'a'` and `R0`).  At
# every other border the literal `bind_runs` reads at a gap is the one
# `tokenize` reads: both read it greedily from the same pieces, and the next
# run must follow where that read ends
_WORD_OR_DOT = re.compile(r"[\w#$.]")


def literal_runs(text: str, tokens) -> tuple[list[str] | None, list]:
    """`text` cut at its bindable literals among `tokens`, which `tokenize`
    read from it: the runs between them, and the values.

    Strings become str, numbers int or float (see `literal_value`); a number
    that cannot be bound stays in its run.  The runs are None when a literal
    follows a word or a dot (`_WORD_OR_DOT`): they could then bind a text
    that tokenizes otherwise."""
    runs, values, at = [], [], 0
    for tok in tokens:
        if tok.kind == STRING:
            value = tok.value
        elif tok.kind != NUMBER or (value := literal_value(tok.value)) is None:
            continue
        runs.append(text[at:tok.start])
        values.append(value)
        at = tok.end
    runs.append(text[at:])
    if any(_WORD_OR_DOT.match(run[-1:]) for run in runs[:-1]):
        return None, values
    return runs, values


# A literal as `tokenize` reads it: a string literal's body, or a number
_LITERAL = re.compile(rf"'({_STRING_BODY})'|({_NUMBER})")
# Where a text's first literal may start: a quote, a dot or a digit that is
# not inside a word (R070, S#1) or after a dot
_LITERAL_AT = re.compile(r"['.0-9](?<![\w#$.].)")


def literal_prefix(text: str) -> str:
    """`text` up to where its first literal may start: the key under which a
    session keeps the runs it cut from a text.  Every text those runs bind
    has the same prefix."""
    found = _LITERAL_AT.search(text)
    return text if found is None else text[:found.start()]


def bind_runs(runs: list[str], text: str) -> list | None:
    """The values `literal_runs` gives `text` when it is `runs` with one
    literal in each gap, or None when it is not or a number cannot be bound
    (`literal_runs` would keep that number in a run)."""
    if not text.startswith(runs[0]):
        return None
    at, values = len(runs[0]), []
    for run in runs[1:]:
        found = _LITERAL.match(text, at)
        if found is None or not text.startswith(run, found.end()):
            return None
        string, number = found.groups()
        if number is None:
            values.append(string.replace("''", "'"))
        elif (value := literal_value(number)) is not None:
            values.append(value)
        else:
            return None
        at = found.end() + len(run)
    return values if at == len(text) else None
