"""Tokenizer for the sirsql dialect.

Identifiers may contain ``#`` (S#, P#) and can be quoted with double quotes
or square brackets.  Comments are ``--`` to end of line and ``/* ... */``.
Keywords are not reserved at the lexer level; the parser matches token text
case-insensitively, so names like STATUS stay plain identifiers.

Each lexical piece (string literal, number, word, quoted identifier,
comment) is written once below; `tokenize` and `shape` are both built from
them, so the statement cache binds exactly the literals the parser reads.
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
