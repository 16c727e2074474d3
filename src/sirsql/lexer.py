"""Tokenizer for the sirsql dialect.

Identifiers may contain ``#`` (S#, P#) and can be quoted with double quotes
or square brackets.  Comments are ``--`` to end of line and ``/* ... */``.
Keywords are not reserved at the lexer level; the parser matches token text
case-insensitively, so names like STATUS stay plain identifiers.

Each lexical piece (string literal, number, word, quoted identifier,
comment) is written once below; `tokenize`, `shape` and the literal that
`bind_runs` reads between a shape's runs are built from them, so the
statement cache binds exactly the literals the parser reads.
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
            tokens.append(Token(STRING, text[1:-1].replace("''", "'"), line, col))
        elif kind == "QUOTED":
            tokens.append(Token(IDENT, text[1:-1], line, col, quoted=True))
        elif kind == "BAD":
            raise ParseError(_UNTERMINATED.get(text, f"unexpected character {text!r}"), line, col)
        else:
            tokens.append(Token(kind, text, line, col))
            if kind == EOF:
                return tokens


# --- statement shapes --------------------------------------------------------

INT64_MAX = 2**63 - 1
_BOUND_FLOAT_DIGITS = 15        # a float with more digits may parse differently in SQLite

# One `findall` over dialect text: each match is the start of the text or a
# literal (group 1 a string literal's body, group 2 a number), then the run
# up to the next literal (group 3), so the key is the runs joined by ``?``.
# The run also takes what `tokenize` refuses (a quote, comment or bracket
# left open, and digits other than 0-9 outside words), so the matches tile
# every text.  Spaces and punctuation go with the piece before them, which
# keeps the engine's loop short.
_SHAPE = re.compile(rf"""
    (?: \A | '({_STRING_BODY})' | ({_NUMBER}) )
    ( [^'"\[\w./-]*
      (?: (?: {_WORD} | {_QUOTED} | {_COMMENT}
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
    that cannot be bound stays in the text, so it is part of the shape.  One
    `findall` tiles the whole text; a new text of a cached shape is bound by
    walking that shape's runs (`bind_runs`) instead.
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


# --- shape runs ---------------------------------------------------------------

# A literal as `shape` reads it: a string literal's body, or a number
_LITERAL = re.compile(rf"'({_STRING_BODY})'|({_NUMBER})")
# Where a text's first literal, or a key's first ``?``, may start: a quote,
# a dot, a digit or ``?`` that is not inside a word (R070, S#1) or after a dot
_LITERAL_AT = re.compile(r"['.0-9?](?<![\w#$.].)")
# A literal after a word or a dot, or before another literal or a number
# that is not bound, may be read as one token with it, so a key with such a
# border gets no runs; on every other key the greedy literal read at each
# gap of `bind_runs` is the one `shape` makes
_JOINED = re.compile(r"[\w#$.]\?|\?[.0-9?]")


def literal_prefix(text: str) -> str:
    """`text` up to where its first literal may start: the key under which a
    session keeps the runs of its shapes.  A text that runs bind has the
    same prefix as their shape key."""
    found = _LITERAL_AT.search(text)
    return text if found is None else text[:found.start()]


def shape_runs(key: str, count: int) -> list[str] | None:
    """The runs between the values of shape `key`, with which `bind_runs`
    reads exactly the texts of that shape, or None: for a key without a
    value, with a ``?`` that is not one (inside a quoted identifier or a
    comment, or a raw one), or that `_JOINED` matches.  `key` must be the
    shape of a text that tokenizes, holding `count` values."""
    if not count or key.count("?") != count or _JOINED.search(key):
        return None
    return key.split("?")


def bind_runs(runs: list[str], text: str) -> list | None:
    """The values `shape` gives `text` when it is `runs` with one literal in
    each gap, or None when it is not or a number cannot be bound (`shape`
    would keep that number in its key)."""
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
