from __future__ import annotations

import re

import pytest

import sirsql.layer
import sirsql.lexer
from sirsql.cli import main
from sirsql.errors import (IaNotComputable, InvariantViolation, KernelError, ParseError,
                           UnknownIE, UnknownRelation)
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
from sirsql.lexer import shape
from sirsql.parser import MAX_OPERATOR_CHAIN, parse

from conftest import fixture_text, kernel_state, load_sp2, make_layer

FIGURE4_SP = [
    ("S1", "P1", 300, "Smith", "20", "London", "Nut", "Red", "12", "London"),
    ("S1", "P2", 200, "Smith", "20", "London", "Bolt", "Green", "17", "Paris"),
    ("S1", "P3", 400, "Smith", "20", "London", "Screw", "Blue", "17", "Oslo"),
    ("S1", "P4", 200, "Smith", "20", "London", "Screw", "Red", "14", "London"),
    ("S1", "P5", 100, "Smith", "20", "London", "Cam", "Blue", "12", "Paris"),
    ("S1", "P6", 100, "Smith", "20", "London", "Cog", "Red", "19", "London"),
    ("S2", "P1", 300, "Jones", "10", "Paris", "Nut", "Red", "12", "London"),
    ("S2", "P2", 400, "Jones", "10", "Paris", "Bolt", "Green", "17", "Paris"),
    ("S3", "P2", 200, "Blake", "30", "Paris", "Bolt", "Green", "17", "Paris"),
    ("S4", "P2", 200, "Clark", "20", "London", "Bolt", "Green", "17", "Paris"),
    ("S4", "P4", 300, "Clark", "20", "London", "Screw", "Red", "14", "London"),
    ("S4", "P5", 400, "Clark", "20", "London", "Cam", "Blue", "12", "Paris"),
]


def test_full_view_reproduces_figure4(sp2):
    rows = sp2.query("Select * From SP;")
    assert sorted(rows.rows) == sorted(FIGURE4_SP)


def test_query_equivalence_against_explicit_joins(sp2):
    q1 = sp2.query("Select P#, PNAME, QTY From SP Where SNAME = 'Smith';")
    q2 = sp2.query(
        "Select SP_B.P#, PNAME, QTY From S, SP_B, P"
        " Where SNAME = 'Smith' And S.S# = SP_B.S# And SP_B.P# = P.P#;")
    assert sorted(q1.rows) == sorted(q2.rows)
    assert len(q1.rows) == 6


def test_view_over_sir(sp2):
    sp2.apply_source(
        "Create View V2 As Select SNAME, P#, PNAME, QTY From SP Where SNAME = 'Smith';")
    assert len(sp2.query("Select * From V2;").rows) == 6
    sp2.apply_source("Drop View V2;")
    assert "V2" not in sp2.catalog


def test_view_with_star_minus_expands(sp2):
    sp2.apply_source("Create View Slim As Select */(SNAME, STATUS) From SP;")
    assert sp2.query("Select * From Slim;").columns == [
        "S#", "P#", "QTY", "SCITY", "PNAME", "COLOR", "WEIGHT", "PCITY"]


def test_rank_value_expression_with_conditional(sp3):
    sp3.apply_source(
        "Alter Table S Add After STATUS RANK As (IIF(STATUS is not null,"
        " (Select Count(*) + 1 From S X Where X.STATUS > S.STATUS), null)) FROM S;")
    rows = sp3.query("Select S#, STATUS, RANK From S Order By S#;")
    assert rows.rows == [
        ("S1", 13, 1), ("S2", 7, 3), ("S3", 2, 4), ("S4", 9, 2), ("S5", None, None)]
    assert sp3.conn.introspect("S") == ["S#", "SNAME", "STATUS", "RANK", "CITY"]


def test_suppliers_list_aggregate(sp2):
    sp2.apply_source(
        "Alter Table P Add SUPPLIERS (Select LIST (SP_B.S#, SNAME, QTY) From SP_B, S"
        " where P.P# = SP_B.P# And S.S# = SP_B.S# Order By QTY Desc, SNAME);")
    rows = dict(sp2.query("Select P#, SUPPLIERS From P;").rows)
    # P1: both supply 300, so the name breaks the tie
    assert rows["P1"] == "S2, Jones, 300; S1, Smith, 300"
    assert rows["P2"] == "S2, Jones, 400; S3, Blake, 200; S4, Clark, 200; S1, Smith, 200"
    assert rows["P3"] == "S1, Smith, 400"


def test_layer_policies_are_keyword_only():
    with pytest.raises(TypeError):
        SirLayer(KernelConnection(":memory:"), True)
    layer = SirLayer(KernelConnection(":memory:"), rewrite_to_base=True, strict_integrity=True)
    assert (layer.rewrite_to_base, layer.strict_integrity) == (True, True)


def test_rewrite_to_base_produces_same_results_as_manual_base_form():
    manual = load_sp2(make_layer())
    manual.apply_source(
        "Alter Table S Alter STATUS As STATUS"
        " (Select Int (SUM(QTY)/100) FROM SP_B WHERE S.S# = S#);")
    auto = load_sp2(make_layer(rewrite_to_base=True))
    auto.apply_source(
        "Alter Table S Alter STATUS As STATUS"
        " (Select Int (SUM(QTY)/100) FROM SP WHERE S.S# = S#);")
    query = "Select S#, SNAME, STATUS, CITY From S Order By S#;"
    assert manual.query(query).rows == auto.query(query).rows


def test_failed_create_leaves_no_kernel_objects(sp2):
    objects = sp2.conn.object_names()
    # NOPE is not a column of S: the view body only fails when probed, and the
    # probe runs inside the creating transaction
    with pytest.raises(KernelError):
        sp2.apply_source(
            "Create Table X (A Char, Primary Key (A),"
            " I (Select NOPE From S Where X.A = S#));")
    assert sp2.conn.object_names() == objects
    assert "X" not in sp2.catalog


def test_failed_probe_of_the_altered_relation_leaves_the_file_unchanged(sp2):
    state, snapshot = kernel_state(sp2.conn), sp2.catalog.snapshot()
    # NOPE is not a column of S: only the probe of SP's new view finds that
    with pytest.raises(KernelError, match="no such column: NOPE"):
        sp2.apply_source("Alter Table SP Add I_X (Select NOPE From S Where SP.S# = S#);")
    assert kernel_state(sp2.conn) == state
    assert sp2.catalog.snapshot() == snapshot


@pytest.mark.parametrize("statement, error", [
    ("Alter Table V Add X Char;", InvariantViolation),
    ("Create View W As Select * From Nope;", UnknownRelation),
    ("Create Index IV On V (S#);", InvariantViolation),
    ("Drop View S;", InvariantViolation),
    ("Drop Table V;", InvariantViolation),
    ("Alter Table S Alter S# As S# (Select S# From SP Where S.S# = SP.S#);",
     InvariantViolation),
    ("Alter Table S Alter NOPE As NOPE (Select PNAME From P Where S.S# = P.P#);", UnknownIE),
    ("Alter Table SP Add I_J (Select SNAME From S Join P On S.CITY = P.CITY"
     " Where SP.S# = S.S#);", InvariantViolation),
    ("Alter Table SP Add I_X (Select SNAME, CITY || 'x' From S Where SP.S# = S#);",
     InvariantViolation)],
    ids=["alter-view", "view-over-unknown", "index-view", "drop-view-on-table",
         "drop-table-on-view", "replace-key", "alter-unknown", "ie-join", "ie-item-unnamed"])
def test_a_refused_ddl_changes_nothing_and_the_cli_exits_2(tmp_path, capsys, statement, error):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("Create View V As Select * From SP;")
    state, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    with pytest.raises(error) as refused:
        layer.apply_source(statement)
    assert type(refused.value) is error
    assert kernel_state(layer.conn) == state
    assert layer.catalog.snapshot() == snapshot
    layer.conn.close()
    script = tmp_path / "refused.sirsql"
    script.write_text(statement)
    assert main(["-k", location, "apply", str(script)]) == 2
    assert capsys.readouterr().err.startswith("1: error: ")
    reopened = SirLayer(KernelConnection(location))
    assert kernel_state(reopened.conn) == state
    assert reopened.catalog.snapshot() == snapshot
    reopened.conn.close()


def test_statement_granularity_is_per_statement(sp2):
    # first statement commits even though the second fails
    with pytest.raises(KernelError):
        sp2.apply_source(
            "Insert Into S Values ('S9','New','10','Rome');"
            " Select * From MISSING;")
    assert ("S9",) in [r[:1] for r in sp2.query("Select * From S;").rows]


def test_self_inheriting_table_created_directly():
    layer = make_layer()
    layer.apply_source(
        "Create Table M (A Int, Primary Key (A), DOUBLE As (A * 2), QUAD As (DOUBLE * 2));"
        " Insert Into M Values (1), (3);")
    assert layer.query("Select * From M Order By A;").rows == [(1, 2, 4), (3, 6, 12)]


def test_sir_over_sir_chain(sp2):
    sp2.apply_source(
        "Create Table BigSupply (S# Char, P# Char, NOTE Char, Primary Key (S#, P#),"
        " I_SP (Select QTY, SNAME From SP Where BigSupply.S# = SP.S# And BigSupply.P# = SP.P#));"
        " Insert Into BigSupply Values ('S1', 'P3', 'rush');")
    rows = sp2.query("Select * From BigSupply;")
    assert rows.rows == [("S1", "P3", "rush", 400, "Smith")]


def test_dependent_views_survive_alter_of_source(sp2):
    sp2.apply_source("Create View Smiths As Select S#, P#, SNAME From SP Where SNAME = 'Smith';")
    sp2.apply_source(fixture_text("sp3_alters.sirsql"))
    assert len(sp2.query("Select * From Smiths;").rows) == 6


@pytest.mark.parametrize("before, alter, columns", [
    ("", "Alter Table S Add NOTE Char;", ["S#", "SNAME", "STATUS", "NOTE"]),
    ("Alter Table S Add NOTE Char;", "Alter Table S Drop NOTE;", ["S#", "SNAME", "STATUS"]),
], ids=["add", "drop"])
def test_a_view_s_recorded_columns_follow_an_alter_of_what_it_reads(tmp_path, before, alter,
                                                                     columns):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source(before)
    layer.apply_source("Create View V As Select * From S; Create View W As Select * From V;")
    layer.apply_source(alter)
    for session in (layer, SirLayer(KernelConnection(location))):
        for view in ("V", "W"):
            assert session.catalog.get(view).column_names == \
                columns[:3] + ["CITY"] + columns[3:]
            rows = session.query(f"Select */(CITY) From {view};")
            assert rows.columns == columns and len(rows.rows) == 5


def test_drop_then_recreate_same_name(sp2):
    sp2.apply_source("Drop Table SP;")
    sp2.apply_source("""
    Create Table SP (S# Char, P# Char, QTY Int, Primary Key (S#, P#),
      I_S (Select SNAME From S Where SP.S# = S#));
    Insert Into SP Values ('S1', 'P1', 5);
    """)
    assert sp2.query("Select * From SP;").rows == [("S1", "P1", 5, "Smith")]


def test_persistent_database_full_cycle(tmp_path):
    location = str(tmp_path / "persist.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source(fixture_text("sp3_alters.sirsql"))
    expected = layer.query("Select * From SP;").rows
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    assert reopened.query("Select * From SP;").rows == expected
    reopened.apply_source("Insert Into SP Values ('S5','P6',10);")
    row = [r for r in reopened.query("Select * From SP;").rows if r[0] == "S5"][0]
    assert row[3] == "Adams"


def test_deep_nesting_raises_parse_error_and_moderate_nesting_runs(sp2):
    with pytest.raises(ParseError, match="nested more than"):
        sp2.query("Select " + "(" * 500 + "1" + ")" * 500 + " From S;")
    rows = sp2.query("Select " + "(" * 50 + "S#" + ")" * 50 + " From S Order By 1;").rows
    assert rows[0] == ("S1",)


def _chain(term, op, operators):
    return f" {op} ".join([term] * (operators + 1))


# kind: the text for a chain of a number of operators, what runs after it at
# the limit (an ALTER recompiles X's chain or probes W), and a query of the
# result (None: the text itself again) with its rows
_TERMS = MAX_OPERATOR_CHAIN + 1
_CHAINS = {
    "select": (lambda ops: f"Select {_chain('1', '+', ops)} From S Where S# = 'S1';",
               "", None, [(_TERMS,)]),
    "or": (lambda ops: "Select S# From S Where " + _chain("S# = 'S1'", "Or", ops - 1) + ";",
           "", None, [("S1",)]),
    "update": (lambda ops: f"Update SP Set QTY = 7 Where {_chain('QTY', '+', ops - 1)} > 0;",
               "", "Select Count(*) From SP Where QTY = 7;", [(12,)]),
    "delete": (lambda ops: f"Delete From SP Where {_chain('QTY', '+', ops - 1)} > 0;",
               "", "Select Count(*) From SP;", [(0,)]),
    "view": (lambda ops: f"Create View W As Select S#, P#, {_chain('QTY', '+', ops)} As T"
             " From SP;", "Alter Table SP Add NOTE Char;",
             "Select T From W Where S# = 'S1' And P# = 'P1';", [(_TERMS * 300,)]),
    "ie": (lambda ops: f"Create Table X (K Int, Primary Key (K), V As ({_chain('K', '+', ops)}));",
           "Insert Into X Values (1); Alter Table X Add NOTE Char;", "Select V From X;",
           [(_TERMS,)]),
}


@pytest.mark.parametrize("kind", list(_CHAINS))
def test_an_operator_chain_runs_at_the_limit_and_is_a_parse_error_past_it(
        tmp_path, capsys, kind):
    make, then, check, rows = _CHAINS[kind]
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source(make(MAX_OPERATOR_CHAIN) + then)
    assert layer.query(check or make(MAX_OPERATOR_CHAIN)).rows == rows
    past = make(MAX_OPERATOR_CHAIN + 1)
    with pytest.raises(ParseError, match=f"chained more than {MAX_OPERATOR_CHAIN} deep") as err:
        layer.apply_source(past)
    last = {"or": "Or", "update": ">", "delete": ">"}.get(kind, "+")
    assert err.value.col - 1 == past.rindex(last)
    layer.conn.close()
    script = tmp_path / "past.sirsql"
    script.write_text(past)
    assert main(["-k", location, "apply", str(script)]) == 3
    if kind in ("select", "or"):
        assert main(["-k", location, "query", past]) == 3
    assert "chained more than" in capsys.readouterr().err


def test_a_list_of_many_arguments_compiles_to_a_view_sqlite_reads(sp2):
    # 250 arguments lower to a 499-term `||` concatenation; 600 lower to 1,199
    # terms, past SQLite's expression depth of 1,000; none is a call SQLite refuses
    def create(arguments):
        sp2.apply_source(f"Create Table X (K Char, Primary Key (K), I_L (Select List("
                         f"{', '.join(['SNAME'] * arguments)}) As L From S Where X.K = S#));")

    create(250)
    sp2.apply_source("Insert Into X Values ('S1');")
    assert sp2.query("Select L From X;").rows == [(", ".join(["Smith"] * 250),)]
    sp2.apply_source("Drop Table X;")
    with pytest.raises(KernelError, match="Expression tree is too large"):
        create(600)
    with pytest.raises(KernelError, match="wrong number of arguments"):
        create(0)
    assert "X" not in sp2.catalog


# --- the statement cache --------------------------------------------------------


def uncached(layer, text):
    return layer.apply_statement(parse(text)[0])


@pytest.fixture
def parses(monkeypatch):
    """The texts the layer parses from here on."""
    seen = []

    def spy(text):
        seen.append(text)
        return parse(text)
    monkeypatch.setattr(sirsql.layer, "parse", spy)
    return seen


def test_repeated_shape_skips_parse_and_binds_new_literals(sp2, parses):
    first = sp2.query("Select S#, QTY From SP Where S# = 'S1' And P# = 'P1';")
    second = sp2.query("Select S#, QTY From SP Where S# = 'S2' And P# = 'P2';")
    assert first.rows == [("S1", 300)] and second.rows == [("S2", 400)]
    assert len(parses) == 1
    text = "Update SP Set QTY = 7 Where S# = 'S4';"
    assert uncached(sp2, text.replace("7", "8")).rowcount == 3
    results = [sp2.apply_source(text.replace("'S4'", f"'S{i}'")) for i in (4, 3, 1)]
    assert [r[0].rowcount for r in results] == [3, 1, 6]
    assert [r[0].statement is None for r in results] == [False, True, True]
    assert sp2.query("Select Sum(QTY) From SP Where S# = 'S4';").rows == [(21,)]


def test_one_cached_text_runs_as_query_and_through_apply_source(sp2, parses):
    sp2.query("Select SNAME From SP Where QTY = 300;")
    [result] = sp2.apply_source("Select SNAME From SP Where QTY = 400;")
    assert result.action == "query" and result.statement is None
    assert sorted(result.rows.rows) == [("Clark",), ("Jones",), ("Smith",)]
    assert len(parses) == 1


@pytest.mark.parametrize("text, other", [
    ("Select S#, QTY From SP Order By 2, 1;", "Select S#, QTY From SP Order By 1, 2;"),
    ("Select SCITY, PCITY, Count(*) From SP Group By 1;",
     "Select SCITY, PCITY, Count(*) From SP Group By 2;"),
    ("Select Top 2 S# From S Order By S#;", "Select Top 3 S# From S Order By S#;"),
    ("Select S# From SP Where QTY < 9223372036854775807;",
     "Select S# From SP Where QTY < 9223372036854775808;"),
    ("Select S# From SP Where QTY > 99999999999999999999;",
     "Select S# From SP Where QTY > 9223372036854775808;"),
    ("Select QTY + 1 From SP Where S# = 'S2';", "Select QTY + 2 From SP Where S# = 'S3';"),
    ("Select - -1 From S;", "Select - -2 From S;"),
    ("Select S# From SP Where QTY > - -300;", "Select S# From SP Where QTY > - -100;"),
    ("Select S#, Round(QTY / 7.1, 2) As r From SP Where QTY >= 300.5;",
     "Select S#, Round(QTY / 7.1, 3) As r From SP Where QTY >= 1.12345678901234567;"),
    ("Select S# From SP Where S# = 'S1' And QTY = '300';",
     "Select S# From SP Where S# = 'S1' And QTY = 300;"),
])
def test_literals_that_stay_inline_keep_their_meaning(sp2, text, other):
    for sql in (text, other, text):
        expected = uncached(sp2, sql).rows
        assert sp2.query(sql) == expected


def test_double_minus_runs(sp2):
    text = "Select - -1 From S Where S# = 'S1';"
    assert sp2.query(text).rows == [(1,)]
    assert uncached(sp2, text).rows.rows == [(1,)]
    assert sp2.query("Select S# From S Where - -STATUS = 10;").rows == [("S2",)]


def test_alter_drop_invalidates_cached_shapes(sp2, parses):
    text = "Select S#, SNAME From SP Where P# = '{}';"
    assert sorted(sp2.query(text.format("P1")).rows) == [("S1", "Smith"), ("S2", "Jones")]
    sp2.apply_source("Alter Table SP Drop I_S;")
    with pytest.raises(KernelError, match="no such column: SNAME"):
        sp2.query(text.format("P2"))
    # the stage the cached SQL read is gone; its name now denotes another IE
    sp2.apply_source("Alter Table SP Add I_S (Select SNAME From S Where SP.S# = S#);")
    rows = sp2.query(text.format("P2")).rows
    assert sorted(rows) == sorted(uncached(sp2, text.format("P2")).rows.rows)
    assert len(rows) == 4
    assert parses.count(text.format("P2")) == 2


@pytest.mark.parametrize("statement", ["Create Index sp_qty On SP (QTY);", "Drop Index sp_s;"])
def test_index_ddl_invalidates_cached_shapes(sp2, parses, statement):
    sp2.apply_source("Create Index sp_s On SP (S#);")
    text = "Select QTY From SP Where S# = 'S1';"
    rows = sp2.query(text).rows
    sp2.apply_source(statement)
    assert sp2.query(text).rows == rows
    assert parses.count(text) == 2


def test_query_on_a_cached_dml_shape_still_raises(sp2):
    sp2.apply_source("Update SP Set QTY = 1 Where S# = 'S9';")
    sp2.apply_source("Update SP Set QTY = 2 Where S# = 'S9';")
    with pytest.raises(InvariantViolation, match="SELECT"):
        sp2.query("Update SP Set QTY = 3 Where S# = 'S1';")
    assert 3 not in sp2.query("Select QTY From SP Where S# = 'S1';").column("QTY")


def test_parse_error_keeps_its_position_on_a_miss(sp2):
    text = "Select S#\nFrom SP\n  Where QTY = 'x' And;"
    with pytest.raises(ParseError) as direct:
        parse(text)
    for run in (sp2.query, sp2.apply_source):
        with pytest.raises(ParseError) as err:
            run(text)
        assert (err.value.line, err.value.col) == (direct.value.line, direct.value.col) == (3, 22)


def test_raw_placeholder_fails_to_parse_even_when_its_shape_is_cached(sp2):
    sp2.query("Select * From S Where S# = 'S1';")
    sp2.apply_source("Update SP Set QTY = 5 Where S# = 'S9';")
    for text in ("Select * From S Where S# = ?;", "Update SP Set QTY = ? Where S# = 'S9';"):
        with pytest.raises(ParseError, match="unexpected character '\\?'"):
            sp2.apply_source(text)
    with pytest.raises(ParseError):
        sp2.query("Select * From S Where S# = ?;")


def test_kernel_error_on_a_hit_names_the_dialect_text(sp2):
    sp2.apply_source("Insert Into S Values ('S7', 'Ng', '10', 'Oslo');")
    text = "Insert Into S Values ('S7', 'Ng', '20', 'Rome');"
    with pytest.raises(KernelError, match="UNIQUE") as err:
        sp2.apply_source(text)
    assert err.value.statement == text


def test_strict_inserts_are_not_cached():
    layer = load_sp2(make_layer(strict_integrity=True))
    layer.apply_source("Insert Into SP Values ('S3', 'P1', 50);")
    with pytest.raises(IaNotComputable):
        layer.apply_source("Insert Into SP Values ('S7', 'P10', 200);")
    assert all(r[0] != "S7" for r in layer.query("Select * From SP;").rows)


def test_more_literals_than_the_kernel_binds_run_inline(sp2, parses):
    sp2.conn.max_params = 2
    for qty in (5, 6):
        sp2.apply_source(f"Insert Into SP Values ('S5', 'P{qty}', {qty});")
    assert sp2.query("Select QTY From SP Where S# = 'S5';").rows == [(5,), (6,)]
    assert len(parses) == 3


# --- the text memo: an exact repeat of a query text skips shape ---


@pytest.fixture
def shapes(monkeypatch):
    """The texts the layer shapes from here on."""
    seen = []

    def spy(text):
        seen.append(text)
        return shape(text)
    monkeypatch.setattr(sirsql.layer, "shape", spy)
    return seen


def test_a_repeated_query_text_is_shaped_at_most_twice(sp2, shapes):
    texts = ["Select * From SP Where S# = 'S1' And P# = 'P2';",
             "Select * From SP Where S# = 'S2' And P# = 'P1';"]
    expected = [uncached(sp2, text).rows.rows for text in texts]
    for _ in range(10):
        for text, rows in zip(texts, expected):
            assert sp2.query(text).rows == rows
            assert sp2.apply_source(text)[0].rows.rows == rows
    # the first text misses; its shape's pattern binds the rest
    assert [shapes.count(text) for text in texts] == [1, 0]
    assert set(sp2._shapes) == set(texts)


def test_a_memoized_text_follows_an_alter_drop_and_re_add(sp2, parses, shapes):
    text = "Select S#, SNAME From SP Where P# = 'P2';"
    for _ in range(3):
        assert len(sp2.query(text).rows) == 4
    assert text in sp2._shapes
    sp2.apply_source("Alter Table SP Drop I_S;")
    with pytest.raises(KernelError, match="no such column: SNAME"):
        sp2.query(text)
    sp2.apply_source("Alter Table SP Add I_S (Select SNAME From S Where SP.S# = S#);")
    for _ in range(3):
        rows = sp2.query(text).rows
        assert sorted(rows) == sorted(uncached(sp2, text).rows.rows)
        assert len(rows) == 4
    assert parses.count(text) == 3 and shapes.count(text) == 1


def test_dml_texts_are_never_memoized(sp2):
    rows = ", ".join(f"('S{i}', 'P9', {i})" for i in range(500))
    texts = [f"Insert Into SP Values {rows};", "Delete From SP Where P# = 'P9';",
             "Update SP Set QTY = 5 Where S# = 'S1' And P# = 'P1';"]
    for _ in range(2):
        assert [sp2.apply_source(text)[0].rowcount for text in texts] == [500, 500, 1]
    assert sp2._shapes == {}


def test_the_memo_holds_at_most_cache_size_texts(sp2):
    sizes = set()
    for i in range(sirsql.layer.CACHE_SIZE + 20):
        sp2.query(f"Select S# From SP Where QTY = {i};")
        sizes.add(len(sp2._shapes))
    # the first text misses; the next 512 fill the memo, and 19 follow the clear
    assert max(sizes) == sirsql.layer.CACHE_SIZE and len(sp2._shapes) == 19


def test_a_never_cached_query_is_not_memoized(sp2, parses):
    text = "Select Top 2 S# From S Order By S#;"
    for _ in range(3):
        assert sp2.query(text).rows == [("S1",), ("S2",)]
    assert parses.count(text) == 3 and sp2._shapes == {}


# --- shape patterns: a new text of a cached shape is bound without shape ---


def test_a_new_text_of_a_cached_shape_is_bound_by_its_pattern(sp2, parses, shapes):
    cases = [
        ["Select S#, P# From SP Where S# = 'S1' And QTY = 300;",
         "Select S#, P# From SP Where S# = 'S2' And QTY = '400';"],    # a string for a number
        ["Select P#, SNAME From SP Where SNAME = 'Smith' Order By P#;",
         "Select P#, SNAME From SP Where SNAME = 300 Order By P#;",     # a number for a string
         "Select P#, SNAME From SP Where SNAME = 'O''Hara' Order By P#;"],
        ["Update SP Set QTY = 5 Where S# = 'S9';", "Update SP Set QTY = 7 Where S# = 'S3';"],
    ]
    for texts in cases:
        for text in texts:
            expected = uncached(sp2, text)
            [result] = sp2.apply_source(text)
            assert (result.action, result.rowcount) == (expected.action, expected.rowcount)
            assert result.rows == expected.rows, text
    # only the first text of each shape is shaped and parsed
    assert shapes == parses == [texts[0] for texts in cases]
    assert sp2.query("Select QTY From SP Where S# = 'S3';").rows == [(7,)]
    # after DDL a text is bound, then parsed, and its shape keeps its one pattern
    alter, text = "Alter Table S Add NOTE Char;", cases[1][0].replace("Smith", "Jones")
    sp2.apply_source(alter)
    assert sp2.query(text) == uncached(sp2, text).rows
    assert shapes[-1] == alter and parses[-2:] == [alter, text]
    assert [len(kept) for kept in sp2._patterns.values()] == [1, 1, 1, 1]


@pytest.mark.parametrize("first, second", [
    # an unbound number stays in the key, so its pattern cannot bind it
    ("Select S# From SP Where QTY > 100;", "Select S# From SP Where QTY > 99999999999999999999;"),
    ("Select S#, QTY As \"q?\" From SP Where QTY = 300;",
     "Select S#, QTY As \"q?\" From SP Where QTY = 400;"),
    ("Select /* ? */ S# From SP Where QTY = 300;", "Select /* ? */ S# From SP Where QTY = 400;"),
    ("Select S# -- ?\n From SP Where QTY = 300;", "Select S# -- ?\n From SP Where QTY = 400;"),
])
def test_a_text_no_pattern_binds_is_shaped(sp2, shapes, first, second):
    for text in (first, second):
        assert sp2.query(text) == uncached(sp2, text).rows
    assert shapes == [first, second]


def test_a_1500_literal_insert_is_bound_by_its_runs(sp2, shapes):
    texts = ["Insert Into SP Values " + ", ".join(f"('S{i}', 'P{n}', {i})" for i in range(500))
             + ";" for n in (7, 8)]
    for text in texts:
        assert sp2.apply_source(text)[0].rowcount == 500
    assert shapes == texts[:1]    # the second text is bound, not shaped
    # a number that cannot be bound is part of another shape
    unbound = texts[0].replace("'P7'", "'P9'").replace("499);", "99999999999999999999);")
    assert sp2.apply_source(unbound)[0].rowcount == 500
    assert shapes == [texts[0], unbound]
    assert sp2.query("Select Count(*) From SP_B Where P# In ('P7', 'P8');").rows == [(1000,)]
    assert sp2.query("Select Count(*) From SP_B Where P# = 'P9';").rows == [(500,)]


def test_a_miss_compiles_no_regex(sp2, shapes, monkeypatch):
    class NoCompile:
        def __getattr__(self, name):
            return getattr(re, name)

        def compile(self, *args, **kwargs):
            raise AssertionError("a regex was compiled")
    monkeypatch.setattr(sirsql.lexer, "re", NoCompile())
    first, second = ("Select S# From SP Where QTY = 300 And P# = 'P1';",
                     "Select S# From SP Where QTY = 400 And P# = 'P2';")
    dml = ["Update SP Set QTY = 5 Where S# = 'S9';", "Update SP Set QTY = 7 Where S# = 'S3';"]
    assert sp2.query(first).rows == [("S1",), ("S2",)]
    assert sp2.query(second).rows == [("S2",)]
    assert [result.rowcount for text in dml for result in sp2.apply_source(text)] == [0, 1]
    assert shapes == [first, dml[0]]
    assert sp2.query("Select QTY From SP Where S# = 'S3';").rows == [(7,)]


def test_patterns_are_few_under_one_prefix_and_cleared_with_the_cache(sp2, shapes):
    for count in range(1, 8):
        sp2.query("Select S# From SP Where QTY In (" + ", ".join(["300"] * count) + ");")
    assert [len(kept) for kept in sp2._patterns.values()] == [sirsql.layer.PREFIX_PATTERNS]
    text = "Select S# From SP Where QTY In (400, 300);"
    assert sp2.query(text) == uncached(sp2, text).rows and text not in shapes
    # each alias is its own shape: 7 shapes and 505 aliases fill the cache,
    # which is cleared with its patterns, and the last 7 aliases follow
    for alias in range(sirsql.layer.CACHE_SIZE):
        sp2.query(f"Select S# As A{alias} From SP Where QTY = 300;")
    assert len(sp2._statements) == 7
    assert [key for kept in sp2._patterns.values() for key, _ in kept] == list(sp2._statements)
