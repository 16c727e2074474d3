from __future__ import annotations

import random

import pytest

from sirsql import nodes as n
from sirsql.errors import ParseError, UnrenderableNode
from sirsql.lexer import literal_value, shape, tokenize
from sirsql.parser import MAX_EXPRESSION_DEPTH, parse, parse_one
from sirsql.render import render, render_source

from conftest import fixture_text

SP_TABLE = """
Create Table SP (
  S# Char, P# Char, QTY Int,
  Primary Key (S#, P#),
  I_S (Select SNAME, STATUS, CITY As SCITY From S Where SP.S# = S#),
  I_P (Select PNAME, COLOR, WEIGHT, CITY As PCITY From P Where SP.P# = P#)
);
"""


def test_lexer_hash_identifiers_and_positions():
    tokens = tokenize("Select S#\nFrom SP;")
    assert [t.value for t in tokens[:2]] == ["Select", "S#"]
    assert (tokens[2].value, tokens[2].line, tokens[2].col) == ("From", 2, 1)


def test_lexer_comments_and_strings():
    tokens = tokenize("-- line\n/* block\n*/ 'it''s' x")
    assert tokens[0].value == "it's"
    assert tokens[1].value == "x"


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset`; only \n starts a line, and a tab
    or \r is one column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def test_lexer_positions_match_offsets_in_the_text():
    # the text is the pieces joined; True marks a piece that is one token
    pieces = [
        ("Select", True), ("\t", False), ("S#", True), (",", True), (" ", False),
        ('"quoted\nname"', True), ("\r\n", False),
        ("/* a block\n\tcomment\r\n over three lines */", False), ("From", True),
        ("  -- to the end of the line\r\n", False), ("\t\t", False), ("[S\nP]", True),
        (" ", False), ("Where", True), ("\t", False), ("QTY", True), (">=", True),
        ("12.5", True), ("\r\n", False), ("And", True), (" ", False), ("NOTE", True),
        ("||", True), ("'two\nlines, ''quoted'''", True), ("\n\n", False), ("<>", True),
        ("-", True), ("3", True), ("/**/", False), (";", True), ("\n-- last", False),
    ]
    text = "".join(piece for piece, _ in pieces)
    expected, offset = [], 0
    for piece, is_token in pieces:
        if is_token:
            expected.append(_position(text, offset))
        offset += len(piece)
    expected.append(_position(text, len(text)))         # EOF
    tokens = tokenize(text)
    assert [(t.line, t.col) for t in tokens] == expected
    assert (tokens[3].value, tokens[5].value) == ("quoted\nname", "S\nP")
    assert tokens[13].value == "two\nlines, 'quoted'"


@pytest.mark.parametrize("tail, message", [
    ("'open", "unterminated string literal"),
    ("'''", "unterminated string literal"),     # at the open quote, not the stray one
    ('"open', "unterminated quoted identifier"),
    ("/* open", "unterminated block comment"),
    ("/*/", "unterminated block comment"),
    ("?", "unexpected character"),
])
def test_lexer_errors_carry_the_position_of_their_token(tail, message):
    text = "Select A\r\n/* x\n\ty */\t'b\nc' "
    with pytest.raises(ParseError, match=message) as err:
        tokenize(text + tail)
    assert (err.value.line, err.value.col) == _position(text, len(text))


# ², ½ and Ⅻ are word characters but not letters, so no word starts with one
@pytest.mark.parametrize("literal, refused", [("١٢٣", "١"), ("5²", "²"), ("½", "½"), ("Ⅻ", "Ⅻ")])
def test_a_number_in_digits_other_than_0_to_9_is_a_parse_error(literal, refused):
    text = f"Select * From T\n Where K = {literal};"
    with pytest.raises(ParseError, match=f"unexpected character '{refused}'") as err:
        parse(text)
    assert (err.value.line, err.value.col) == _position(text, text.index(refused))


def test_shape_and_tokenize_read_the_same_number():
    # the number tokenize reads is the ASCII run that shape binds; the digit
    # before it is refused, where it used to make one unbindable number
    assert shape("x = ١5") == ("x = ١?", [5])
    with pytest.raises(ParseError) as err:
        tokenize("x = ١5")
    assert (err.value.line, err.value.col) == (1, 5)
    assert [(t.kind, t.value, t.col) for t in tokenize("x = 5")][2] == ("NUMBER", "5", 5)


def test_a_stray_quote_after_an_escaped_one_is_refused_and_keeps_its_own_shape():
    # the cache must never map a text the parser refuses onto one it accepts
    text = "Select * From T Where A = ''';"
    with pytest.raises(ParseError, match="unterminated string literal"):
        parse(text)
    assert shape(text) == ("Select * From T Where A = ?';", [""])
    assert shape(text)[0] != shape("Select * From T Where A = '';")[0]


def test_lexer_star_slash_is_two_tokens():
    values = [t.value for t in tokenize("*/P.P#")][:3]
    assert values == ["*", "/", "P"]


def test_figure3_table_shape():
    stmt = parse_one(SP_TABLE)
    assert isinstance(stmt, n.CreateSirTable)
    assert [a.name for a in stmt.attributes] == ["S#", "P#", "QTY"]
    assert [ie.name for ie in stmt.ies] == ["I_S", "I_P"]
    assert all(isinstance(ie.form, n.SelectForm) for ie in stmt.ies)
    assert stmt.is_sir
    pk = [e for e in stmt.elements if isinstance(e, n.PrimaryKeyClause)]
    assert pk[0].columns == ["S#", "P#"]


def test_zero_ie_table_is_stored_relation():
    stmt = parse_one("Create Table S (S# Char Primary Key, SNAME Char);")
    assert not stmt.is_sir
    assert stmt.attributes[0].is_primary_key


def test_minimal_star_query():
    stmt = parse_one("Select * From SP;")
    assert isinstance(stmt, n.Query)
    assert isinstance(stmt.select.items[0].expr, n.Star)


def test_alter_with_star_minus_replacement():
    stmt = parse_one(
        "Alter Table SP Alter I_P As I_P_ALL (Select */P.P# From P Where SP.P# = P.P#);")
    action = stmt.action
    assert isinstance(action, n.AlterIe)
    assert action.target == "I_P"
    assert action.replacement.name == "I_P_ALL"
    item = action.replacement.form.select.items[0].expr
    assert isinstance(item, n.StarMinus)
    assert (item.excluded[0].table, item.excluded[0].name) == ("P", "P#")


def test_alter_add_value_ies_with_position():
    stmt = parse_one(
        "Alter Table P Add After WEIGHT WEIGHT_T As ( WEIGHT_KG / 1000),"
        " WEIGHT_KG As (Round (WEIGHT / 2.1,1));")
    action = stmt.action
    assert action.position == ("after", "WEIGHT")
    assert [i.name for i in action.items] == ["WEIGHT_T", "WEIGHT_KG"]
    assert all(isinstance(i.form, n.ValueForm) for i in action.items)


def test_trailing_from_after_ie_is_ignored_with_warning():
    stmt = parse_one(
        "Alter Table S Add RANK As (IIF(status is not null,"
        " (select count(*) +1 from S X where x.status > s.status), null)) FROM S;")
    assert stmt.action.items[0].name == "RANK"
    assert any("FROM S" in w for w in stmt.warnings)


def test_duplicate_attribute_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse("Create Table T (A Char, A Int);")


def test_syntax_error_carries_position_and_expectations():
    # a keyword with alternatives expects every one of them
    for text, col, expected in [
            ("Create Tabel T (A Char);", 8, ["INDEX", "TABLE", "UNIQUE", "VIEW"]),
            ("Create Foo;", 8, ["INDEX", "TABLE", "UNIQUE", "VIEW"]),
            ("Create Unique Foo;", 15, ["INDEX"]),
            ("Drop Foo;", 6, ["INDEX", "TABLE", "VIEW"])]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert err.value.expected == expected
        assert str(err.value).endswith(f"(expected {', '.join(expected)})")


@pytest.mark.parametrize("element", ["NOTE Char", "Primary Key (S#)"])
def test_alter_as_refuses_an_element_that_is_not_an_ie_at_its_start(element):
    text = f"Alter Table SP Alter I_S As {element};"
    with pytest.raises(ParseError, match="takes an IE declaration") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, text.index(element) + 1)


@pytest.mark.parametrize("nested", [
    "(" * 500 + "1" + ")" * 500,
    "(Select " * 500 + "1" + ")" * 500,
    "abs(" * 500 + "1" + ")" * 500,
    "- " * 500 + "1",
    "1 From S Where " + "Not " * 500 + "1 = 1",
    "1 From S Where 1" + " In (1" * 500 + ")" * 500,
], ids=["parens", "subqueries", "calls", "unary", "not", "in_lists"])
def test_deep_nesting_is_a_parse_error_with_position(nested):
    with pytest.raises(ParseError, match="nested more than") as err:
        parse(f"Select\n  {nested} From S;")
    assert err.value.line == 2
    assert err.value.col > MAX_EXPRESSION_DEPTH


def test_nesting_up_to_the_limit_parses():
    inner = "(" * MAX_EXPRESSION_DEPTH + "1" + ")" * MAX_EXPRESSION_DEPTH
    stmt = parse_one(f"Select {inner} From S;")
    assert parse_one(render_source(stmt)) == stmt
    with pytest.raises(ParseError, match="nested more than"):
        parse_one(f"Select ({inner}) From S;")


def test_unterminated_statement():
    with pytest.raises(ParseError, match="unterminated"):
        parse("Select * From SP")


def test_insert_select_paper_form():
    stmt = parse_one("Insert SP (select 'S4' as S#, 'P4' as P#, 100 as QTY);")
    assert isinstance(stmt, n.Insert)
    assert stmt.columns is None
    assert isinstance(stmt.source, n.Select)
    assert [i.alias for i in stmt.source.items] == ["S#", "P#", "QTY"]


def test_insert_values_multi_row():
    stmt = parse_one("Insert Into S Values ('S1','a','b','c'), ('S2','d','e','f');")
    assert len(stmt.source.rows) == 2


def test_update_delete_forms():
    upd = parse_one("Update SP set QTY = 250 where S# = 'S1' and P# = 'P1';")
    assert upd.assignments[0][0] == "QTY"
    dele = parse_one("Delete SP Where S# = 'S1';")
    assert dele.table == "SP"
    assert dele.where is not None


def test_drop_modes_and_views():
    assert parse_one("Drop Table S Cascade;").mode == "cascade"
    assert parse_one("Drop Table S;").mode == "restrict"
    assert isinstance(parse_one("Drop View V2;"), n.DropView)


def test_select_clauses_round_trip():
    text = ("Select Top 3 S#, Count(*) As N From SP X"
            " Where QTY > 100 And CITY Like 'L%'"
            " Group By S# Order By N Desc, S#;")
    stmt = parse_one(text)
    assert stmt.select.limit == "3"
    assert stmt.select.order_by[0].descending
    assert parse(render_source(stmt)) == [stmt]


def test_joins_and_subqueries_round_trip():
    text = ("Select SP.P#, (Select PNAME From P Where SP.P# = P.P#) As PNAME, QTY"
            " From S Left Join SP On S.S# = SP.S# Where SNAME = 'Smith';")
    stmt = parse_one(text)
    join = stmt.select.from_[0]
    assert isinstance(join, n.Join) and join.kind == "left"
    assert parse(render_source(stmt)) == [stmt]


CORPUS = [
    SP_TABLE,
    "Select * From SP;",
    "Select */QTY From SP;",
    "Select */(S#, P#) From SP;",
    "Create View V2 As Select SNAME, P.P#, PNAME, QTY From S, SP, P"
    " Where S.S# = SP.S# And SP.P# = P.P#;",
    "Alter Table SP Alter I_P As I_P_ALL (Select */P.P# From P Where SP.P# = P.P#);",
    "Alter Table P Add After WEIGHT WEIGHT_T As ( WEIGHT_KG / 1000),"
    " WEIGHT_KG As (Round (WEIGHT / 2.1,1));",
    "Alter Table S Alter STATUS As STATUS (Select Int (SUM(QTY)/100)"
    " FROM SP_B WHERE S.S# = S#);",
    "Alter Table SP Drop I_P;",
    "Alter Table SP Alter I_S As I_S2 As (QTY * 2);",
    "Insert SP (select 'S4' as S#, 'P4' as P#, 100 as QTY);",
    "Insert Into SP Values ('S1', 'P1', 300);",
    "Update SP set QTY = 250, CITY = 'Paris' where S# = 'S1' and P# = 'P1';",
    "Delete SP Where S# = 'S1';",
    "Drop Table S Cascade;",
    "Create Index SP_QTY On SP (QTY);",
    "Create Unique Index S_NAME On S (SNAME);",
    "Drop Index SP_QTY;",
    "Select S#, SNAME, STATUS, RANK From S Order By RANK;",
    "Select count(*) + 1 From S X Where X.STATUS > S.STATUS;",
    "Select IIF(STATUS is not null, 1, null) As flag From S;",
]


@pytest.mark.parametrize("source", CORPUS)
def test_round_trip_corpus(source):
    first = parse(source)
    again = parse("\n".join(render_source(s) for s in first))
    assert again == first


def test_whitespace_and_comments_never_change_ast():
    rng = random.Random(7)
    for source in CORPUS:
        tokens = source.replace("\n", " ").split(" ")
        noisy = []
        for token in tokens:
            noisy.append(token)
            gap = rng.choice([" ", "  ", "\n", " /* x */ ", " -- c\n"])
            noisy.append(gap)
        assert parse("".join(noisy)) == parse(source)


def test_render_quotes_kernel_identifiers():
    expr = parse_one("Select S.S# From S;").select.items[0].expr
    assert render(expr) == 'S."S#"'


def test_render_rejects_empty_select_list():
    select = n.Select(items=[], from_=[n.TableName(name="S")])
    with pytest.raises(UnrenderableNode):
        render(n.Query(select=select))


def test_render_rejects_star_minus_before_expansion():
    stmt = parse_one("Select */QTY From SP;")
    with pytest.raises(UnrenderableNode):
        render(stmt)


def test_render_rejects_ie_declarations():
    stmt = parse_one(SP_TABLE)
    with pytest.raises(UnrenderableNode):
        render(stmt)


def test_render_is_deterministic():
    stmt = parse_one("Select S#, SNAME From S Where STATUS >= 20 Order By S#;")
    assert render(stmt) == render(stmt)


def test_fixture_files_round_trip():
    for name in ("sp2_schema.sirsql", "sp2_data.sirsql", "sp3_alters.sirsql"):
        source = fixture_text(name)
        first = parse(source)
        assert parse("\n".join(render_source(s) for s in first)) == first


def test_literal_value_keeps_unsafe_numbers_inline():
    assert literal_value("300") == 300 and type(literal_value("300")) is int
    assert literal_value("007") == 7
    assert literal_value("2.5") == 2.5 and literal_value(".5") == 0.5
    assert literal_value(str(2**63 - 1)) == 2**63 - 1
    assert literal_value(str(2**63)) is None
    assert literal_value("0.12345678901234") == 0.12345678901234
    assert literal_value("0.123456789012345") is None      # 16 digits
    assert shape("Select 1.1234567890123456, 'it''s', 2 From S;") == (
        "Select 1.1234567890123456, ?, ? From S;", ["it's", 2])


@pytest.mark.parametrize("text, key, values", [
    ("", "", []),
    ("Select S#, SNAME From S Where STATUS > P#;", "Select S#, SNAME From S Where STATUS > P#;",
     []),
    ("Select * From T Where ١٢٣ = 5;", "Select * From T Where ١٢٣ = ?;", [5]),
    ("Select '' From S;", "Select ? From S;", [""]),
    ("Select 9223372036854775807, 9223372036854775808, 0.123456789012345, 0.12345678901234;",
     "Select ?, 9223372036854775808, 0.123456789012345, ?;",
     [9223372036854775807, 0.12345678901234]),
    ("Select R001_K, \"C 2\", [D 3] From T -- 4 '5'\n /* 6 */ Where X = 7;",
     "Select R001_K, \"C 2\", [D 3] From T -- 4 '5'\n /* 6 */ Where X = ?;", [7]),
    # text the tokenizer refuses keeps every character in its key
    ("Select 1, 'open 2", "Select ?, 'open ?", [1, 2]),
    ('Select 1, "open 2', 'Select ?, "open ?', [1, 2]),
    ("Select 1, [open 2", "Select ?, [open ?", [1, 2]),
    ("Select 1 /* open 2", "Select ? /* open ?", [1, 2]),
])
def test_shape_keeps_all_but_the_bound_literals(text, key, values):
    shaped = shape(text)
    assert shaped == (key, values)
    assert list(map(type, shaped[1])) == list(map(type, values))
