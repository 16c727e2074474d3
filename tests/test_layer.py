from __future__ import annotations

import pytest

import sirsql.layer
from sirsql.errors import IaNotComputable, InvariantViolation, KernelError, ParseError
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
from sirsql.parser import parse

from conftest import fixture_text, load_sp2, make_layer

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
