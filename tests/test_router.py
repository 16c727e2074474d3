from __future__ import annotations

import pytest

from sirsql import nodes as n
from sirsql.errors import (DependentAttributeDrop, IaNotComputable, KernelError, RejectedWrite,
                           UnknownColumn, UnknownRelation)
from sirsql.parser import parse_one
from sirsql.render import render
from sirsql.router import BASE_REWRITE, PASS_THROUGH, REJECTED, route

from conftest import load_sp2, make_layer, write_seed_documents


def test_select_passes_through(sp2):
    routed = route(parse_one("Select * From SP;"), sp2.catalog)
    assert routed.kind == PASS_THROUGH
    assert render(routed.kernel_stmt) == "SELECT * FROM SP;"


def test_select_on_generated_base_passes_through(sp2):
    routed = route(parse_one("Select count(*) From SP_B;"), sp2.catalog)
    assert routed.kind == PASS_THROUGH


def test_select_star_minus_expanded_before_kernel(sp2):
    routed = route(parse_one("Select */QTY From SP;"), sp2.catalog)
    text = render(routed.kernel_stmt)
    assert "*/" not in text
    assert text.startswith('SELECT "S#", "P#", SNAME')


def test_star_minus_qualifies_only_a_name_that_two_sources_hold(sp2):
    text = "Select */(QTY) From SP_B, S Where SP_B.S# = S.S#;"
    assert render(route(parse_one(text), sp2.catalog).kernel_stmt) == (
        'SELECT SP_B."S#", "P#", S."S#", SNAME, STATUS, CITY FROM SP_B, S'
        ' WHERE SP_B."S#" = S."S#";')
    assert sp2.query(text).rows[0] == ("S1", "P1", "S1", "Smith", "20", "London")


@pytest.mark.parametrize("verb, kernel, suppliers", [
    ("Exists", "WHERE Exists (SELECT 1", [("Smith",), ("Jones",), ("Blake",), ("Clark",)]),
    ("Not Exists", "WHERE NOT Exists (SELECT 1", [("Adams",)]),
])
def test_exists_of_a_subquery_reaches_the_kernel(sp2, verb, kernel, suppliers):
    text = f"Select SNAME From S Where {verb} (Select 1 From SP Where SP.S# = S.S#);"
    assert kernel in render(route(parse_one(text), sp2.catalog).kernel_stmt)
    assert sp2.query(text).rows == suppliers


def test_an_ie_item_of_exists_compiles(sp2):
    sp2.apply_source("Create Table Z (K Char, Primary Key (K), I (Select SNAME,"
                     " Exists (Select 1 From SP Where SP.S# = S.S#) As SUPPLIES"
                     " From S Where Z.K = S#));")
    sp2.apply_source("Insert Into Z Values ('S1'), ('S5');")
    assert sp2.query("Select * From Z;").rows == [("S1", "Smith", 1), ("S5", "Adams", 0)]


def test_paper_insert_select_rewrites_to_base(sp2):
    routed = route(parse_one("Insert SP (select 'S9' as S#, 'P1' as P#, 100 as QTY);"),
                   sp2.catalog)
    assert routed.kind == BASE_REWRITE
    assert routed.target == "SP_B"
    assert routed.inserted_columns == ["S#", "P#", "QTY"]
    assert render(routed.kernel_stmt).startswith(
        'INSERT INTO SP_B ("S#", "P#", QTY)')


def test_insert_values_binds_stored_attributes(sp2):
    routed = route(parse_one("Insert Into SP Values ('S9','P9',1);"), sp2.catalog)
    assert routed.kind == BASE_REWRITE
    assert routed.inserted_columns == ["S#", "P#", "QTY"]


def test_insert_wrong_arity(sp2):
    with pytest.raises(UnknownColumn, match="stored attributes"):
        route(parse_one("Insert Into SP Values ('S9','P9');"), sp2.catalog)


def test_insert_naming_inherited_attribute_rejected(sp2):
    routed = route(parse_one("Insert Into SP (S#, P#, QTY, SNAME)"
                             " Values ('S9','P9',1,'x');"), sp2.catalog)
    assert routed.kind == REJECTED
    assert "SNAME" in routed.reason


def test_update_stored_attribute_rewrites(sp2):
    routed = route(parse_one("Update SP set QTY = 250 where S# = 'S1' and P# = 'P1';"),
                   sp2.catalog)
    assert routed.kind == BASE_REWRITE
    assert render(routed.kernel_stmt).startswith("UPDATE SP_B SET QTY = 250")


def test_update_inherited_attribute_rejected(sp2):
    routed = route(parse_one("Update SP set QTY = 250, CITY = 'Paris'"
                             " where S# = 'S1' and P# = 'P1';"), sp2.catalog)
    assert routed.kind == REJECTED
    assert "CITY" in routed.reason


def test_rejected_write_leaves_kernel_state_identical(sp2):
    before = sp2.conn.query("SELECT * FROM SP_B ORDER BY \"S#\", \"P#\"").rows
    with pytest.raises(RejectedWrite):
        sp2.apply_source("Update SP set QTY = 0, SCITY = 'x' where S# = 'S1';")
    after = sp2.conn.query("SELECT * FROM SP_B ORDER BY \"S#\", \"P#\"").rows
    assert after == before


def test_delete_goes_to_base(sp2):
    routed = route(parse_one("Delete SP Where S# = 'S1';"), sp2.catalog)
    assert routed.kind == BASE_REWRITE
    assert render(routed.kernel_stmt) == "DELETE FROM SP_B WHERE \"S#\" = 'S1';"


def test_delete_filtered_on_inherited_uses_key_subquery(sp2):
    routed = route(parse_one("Delete SP Where SNAME = 'Smith';"), sp2.catalog)
    text = render(routed.kernel_stmt)
    assert text.startswith("DELETE FROM SP_B WHERE (\"S#\", \"P#\") IN (SELECT")
    result = sp2.apply_source("Delete SP Where SNAME = 'Smith';")
    assert result[0].rowcount == 6


def test_unknown_relation_rejected(sp2):
    with pytest.raises(UnknownRelation):
        route(parse_one("Delete NOWHERE;"), sp2.catalog)


def test_dml_on_stored_relation_passes_through(sp2):
    routed = route(parse_one("Update S set CITY = 'Oslo' where S# = 'S1';"), sp2.catalog)
    assert routed.kind == PASS_THROUGH


def test_write_then_read_shows_fresh_inherited_values(sp2):
    sp2.apply_source("Update S set CITY = 'Oslo' where S# = 'S1';")
    rows = sp2.query("Select Distinct SCITY From SP Where S# = 'S1';")
    assert rows.rows == [("Oslo",)]


# --- integrity ----------------------------------------------------------------


def test_integrity_clean_on_figure4(sp2):
    assert sp2.check("SP") == []


def test_integrity_flags_duplicate_source_row():
    layer = make_layer()
    layer.apply_source("""
    Create Table S (S# Char, SNAME Char, STATUS Char, CITY Char);
    Create Table SP (S# Char, P# Char, QTY Int, Primary Key (S#, P#),
      I_S (Select SNAME, STATUS, CITY As SCITY From S Where SP.S# = S#));
    Insert Into S Values ('S1','Smith','20','London');
    Insert Into SP Values ('S1','P1',300);
    Insert Into S Values ('S1','Smith','20','London');
    """)
    violations = layer.check("SP")
    assert violations == [("I_S", ("S1", "P1"), 2)]


def test_integrity_audits_only_unproven_join_ies(sp2, monkeypatch):
    sp2.apply_source("""
    Create Table T (S# Char, N Char);
    Alter Table SP Add I_T (Select N From T Where SP.S# = S#);
    Insert Into T Values ('S1', 'x'), ('S1', 'y');
    """)
    audits = []
    query = sp2.conn.query
    monkeypatch.setattr(sp2.conn, "query",
                        lambda sql, *a, **k: audits.append(sql) or query(sql, *a, **k))
    violations = sp2.check("SP")
    # I_S and I_P are key-proven; the stage view of I_T is the last, named SP
    assert len(audits) == 1 and " FROM SP GROUP BY " in audits[0]
    assert {v[0] for v in violations} == {"I_T"} and len(violations) == 6


def test_integrity_counts_matches_over_the_stage_s_left_joins():
    # B matches nothing: an inner join over A and B would hide A's two matches
    layer = make_layer()
    layer.apply_source("""
    Create Table A (K Int, V Char, Primary Key (K, V));
    Create Table B (K Int, W Char, Primary Key (K, W));
    Insert Into A Values (1, 'a'), (1, 'b');
    Insert Into B Values (5, 'x');
    Create Table R (ID Int, F Int, G Int, Primary Key (ID),
      I (Select A.V, B.W From A, B Where R.F = A.K And R.G = B.K));
    Insert Into R Values (10, 1, 2);
    """)
    assert layer.query("Select Count(*) From R;").rows == [(2,)]
    assert layer.check("R") == [("I", (10,), 2)]


def test_integrity_vacuous_for_value_form_only():
    layer = make_layer()
    layer.apply_source(
        "Create Table T (A Int, Primary Key (A), DOUBLED As (A * 2));"
        " Insert Into T Values (1), (2);")
    assert layer.check("T") == []


# --- strict insert mode ----------------------------------------------------------


def test_lenient_mode_permits_null_subtuples(sp2):
    sp2.apply_source("Insert Into SP Values ('S7','P10',200);")
    row = [r for r in sp2.query("Select * From SP;").rows if r[0] == "S7"][0]
    assert row == ("S7", "P10", 200) + (None,) * 7


def test_strict_mode_rolls_back_uncomputable_insert():
    layer = load_sp2(make_layer(strict_integrity=True))
    with pytest.raises(IaNotComputable) as err:
        layer.apply_source("Insert Into SP Values ('S7','P10',200);")
    assert {ie for ie, _ in err.value.failures} == {"I_S", "I_P"}
    assert all(r[0] != "S7" for r in layer.query("Select * From SP;").rows)


def test_strict_mode_message_names_the_first_ten_failures():
    layer = load_sp2(make_layer(strict_integrity=True))
    rows = ", ".join(f"('S{i}','P{i}',1)" for i in range(10, 22))
    with pytest.raises(IaNotComputable) as err:
        layer.apply_source(f"Insert Into SP Values {rows};")
    assert len(err.value.failures) == 24           # I_S and I_P for 12 rows
    message = str(err.value)
    assert message.count(" for key ") == 10
    assert message.endswith("; … and 14 more")


def test_insert_key_conflict_surfaces_kernel_error(sp2):
    # (S4, P4) already exists; the base's primary key rejects the re-insert
    with pytest.raises(KernelError, match="UNIQUE|constraint"):
        sp2.apply_source("Insert SP (select 'S4' as S#, 'P4' as P#, 100 as QTY);")


def test_strict_mode_exempts_value_form_attributes():
    layer = make_layer(strict_integrity=True)
    layer.apply_source(
        "Create Table P (P# Char, WEIGHT Char, WEIGHT_T As (WEIGHT_KG / 1000),"
        " WEIGHT_KG As (Round(WEIGHT / 2.1, 1)), Primary Key (P#));"
        " Insert Into P Values ('P9', NULL);")
    assert layer.query("Select WEIGHT_T, WEIGHT_KG From P;").rows == [(None, None)]


def test_strict_mode_accepts_computable_insert():
    layer = load_sp2(make_layer(strict_integrity=True))
    result = layer.apply_source("Insert Into SP Values ('S3','P1',50);")
    assert result[0].rowcount == 1
    row = [r for r in layer.query("Select * From SP;").rows if r[:2] == ("S3", "P1")][0]
    assert row[3] == "Blake" and row[6] == "Nut"


def test_top_limit_translates_to_kernel_limit(sp2):
    routed = route(parse_one("Select Top 2 S#, QTY From SP Order By QTY Desc;"),
                   sp2.catalog)
    text = render(routed.kernel_stmt)
    assert text.endswith("ORDER BY QTY DESC LIMIT 2;")
    assert len(sp2.query("Select Top 2 S#, QTY From SP Order By QTY Desc;").rows) == 2


def test_full_view_column_order_matches_declaration(sp2):
    assert sp2.query("Select * From SP;").columns == [
        "S#", "P#", "QTY", "SNAME", "STATUS", "SCITY",
        "PNAME", "COLOR", "WEIGHT", "PCITY"]


# --- key-aware prefix pruning -----------------------------------------------------


def routed_sql(layer, text):
    routed = route(parse_one(text), layer.catalog)
    return routed, render(routed.kernel_stmt)


def full_view_rows(layer, text):
    """The statement run as written, every relation on its full view."""
    return sorted(layer.conn.query(render(parse_one(text))).rows)


def test_count_reads_base_and_reports_skipped_ies(sp2):
    routed, sql = routed_sql(sp2, "Select Count(*) From SP;")
    assert routed.kind == BASE_REWRITE
    assert routed.target == "SP_B"
    assert "I_S" in routed.reason and "I_P" in routed.reason
    assert sql == "SELECT Count(*) FROM SP_B SP;"
    assert sp2.query("Select Count(*) From SP;").rows == [(12,)]


def test_a_join_on_a_base_s_whole_key_keeps_the_card(sp2):
    sp2.apply_source("Create Table X (S# Char, P# Char, Primary Key (S#, P#),"
                     " I (Select QTY From SP_B Where X.S# = S# And X.P# = P#));"
                     " Insert Into X Values ('S1', 'P1'), ('S9', 'P1');")
    routed, sql = routed_sql(sp2, "Select Count(*) From X;")
    assert (routed.kind, sql) == (BASE_REWRITE, "SELECT Count(*) FROM X_B X;")
    assert sp2.query("Select Count(*) From X;").rows == [(2,)]


def test_inherited_column_reads_shortest_stage(sp2):
    text = "Select SCITY, Count(*), Avg(QTY) From SP Group By SCITY;"
    routed, sql = routed_sql(sp2, text)
    assert routed.target == "SP_1"
    assert routed.reason == "SP reads SP_1, skipping I_P"
    assert sql.startswith("SELECT SCITY, Count(*), Avg(QTY) FROM SP_1 SP")
    assert sorted(sp2.query(text).rows) == full_view_rows(sp2, text)


def test_grouping_by_a_key_inherited_attribute_aggregates_the_base_first(sp2):
    text = "Select SCITY, Count(*), Sum(QTY) From SP Group By SCITY;"
    routed, sql = routed_sql(sp2, text)
    assert (routed.kind, routed.target) == (BASE_REWRITE, "SP_B")
    assert routed.reason == "SP aggregates SP_B by S# before joining S (I_S)"
    assert sql == ('SELECT S.CITY AS SCITY, SUM(SP_B.agg1) AS "Count(*)",'
                   ' SUM(SP_B.agg2) AS "Sum(QTY)" FROM (SELECT "S#", Count(*) AS agg1,'
                   ' Sum(QTY) AS agg2 FROM SP_B SP GROUP BY "S#") SP_B'
                   ' LEFT JOIN S ON SP_B."S#" = S."S#" GROUP BY S.CITY;')
    result = sp2.query(text)
    assert result.columns == ["SCITY", "Count(*)", "Sum(QTY)"]
    assert sorted(result.rows) == full_view_rows(sp2, text)


_FALLBACK_SCHEMA = (
    "Create Table Y (C Int, W Int, Primary Key (W));"
    " Create Table T1 (K Int, FS Char, Primary Key (K),"
    " I_S (Select CITY As TCITY From S Where T1.FS = S.S# And S.CITY <> 'Rome'));"
    " Create Table T2 (K Int, FK Int, Primary Key (K),"
    " I_Y (Select W From Y Where T2.FK = Y.C));"
    " Create Table T3 (K Int, FS Char, NOTE Char, Primary Key (K),"
    " I_S (Select S.CITY || T3.NOTE As ZC From S Where T3.FS = S.S#));")


@pytest.mark.parametrize("text, target, sql", [
    pytest.param("Select SCITY, Avg(QTY) From SP Group By SCITY;", "SP_1",
                 "SELECT SCITY, Avg(QTY) FROM SP_1 SP GROUP BY SCITY;", id="avg"),
    pytest.param("Select SCITY, Total(QTY), Max(QTY) From SP Group By SCITY;", "SP_1",
                 "SELECT SCITY, Total(QTY), Max(QTY) FROM SP_1 SP GROUP BY SCITY;",
                 id="total"),
    pytest.param("Select SCITY, Count(Distinct P#) From SP Group By SCITY;", "SP_1",
                 'SELECT SCITY, Count(DISTINCT "P#") FROM SP_1 SP GROUP BY SCITY;',
                 id="count-distinct"),
    pytest.param("Select SCITY, Sum(P#) From SP Group By SCITY;", "SP_1",
                 'SELECT SCITY, Sum("P#") FROM SP_1 SP GROUP BY SCITY;', id="sum-char"),
    pytest.param("Select SCITY, Count(*) From SP Where SNAME = 'Smith' Group By SCITY;", "SP_1",
                 "SELECT SCITY, Count(*) FROM SP_1 SP WHERE SNAME = 'Smith' GROUP BY SCITY;",
                 id="where-inherited"),
    pytest.param("Select SCITY, PCITY, Count(*) From SP Group By SCITY, PCITY;", None,
                 "SELECT SCITY, PCITY, Count(*) FROM SP GROUP BY SCITY, PCITY;",
                 id="two-stages"),
    pytest.param("Select SCITY, P#, Count(*) From SP Group By SCITY, P#;", "SP_1",
                 'SELECT SCITY, "P#", Count(*) FROM SP_1 SP GROUP BY SCITY, "P#";',
                 id="group-key-holds-the-key"),
    pytest.param("Select TCITY, Count(*) From T1 Group By TCITY;", None,
                 "SELECT TCITY, Count(*) FROM T1 GROUP BY TCITY;", id="residual-predicate"),
    pytest.param("Select W, Count(*) From T2 Group By W;", None,
                 "SELECT W, Count(*) FROM T2 GROUP BY W;", id="join-not-key-covered"),
    pytest.param("Select ZC, Count(*) From T3 Group By ZC;", None,
                 "SELECT ZC, Count(*) FROM T3 GROUP BY ZC;", id="ie-reads-its-relation"),
    pytest.param("Select SP.*, Count(*) From SP Group By SCITY;", None,
                 "SELECT SP.*, Count(*) FROM SP GROUP BY SCITY;", id="star"),
    pytest.param("Select SCITY, Count(*) From SP, P Where SP.P# = P.P# Group By SCITY;", "SP_1",
                 'SELECT SCITY, Count(*) FROM SP_1 SP, P WHERE SP."P#" = P."P#"'
                 " GROUP BY SCITY;", id="join-with-a-table"),
    pytest.param("Select Distinct SCITY, Count(*) From SP Group By SCITY;", "SP_1",
                 "SELECT DISTINCT SCITY, Count(*) FROM SP_1 SP GROUP BY SCITY;",
                 id="select-distinct"),
    pytest.param("Select SCITY, Count(*) From SP Where S# In (Select S# From S) Group By SCITY;",
                 "SP_1", 'SELECT SCITY, Count(*) FROM SP_1 SP WHERE "S#" IN'
                 ' (SELECT "S#" FROM S) GROUP BY SCITY;', id="subquery"),
    pytest.param("Select SCITY, Count(*) + 1 From SP Group By SCITY;", "SP_1",
                 "SELECT SCITY, Count(*) + 1 FROM SP_1 SP GROUP BY SCITY;",
                 id="unaliased-literal"),
    pytest.param("Select SCITY, SNAME, Count(*) From SP Group By SCITY;", "SP_1",
                 "SELECT SCITY, SNAME, Count(*) FROM SP_1 SP GROUP BY SCITY;",
                 id="ungrouped-inherited"),
    pytest.param("Select Count(*) As SCITY, SCITY As C From SP Group By SCITY Order By SCITY;",
                 "SP_1", "SELECT Count(*) AS SCITY, SCITY AS C FROM SP_1 SP GROUP BY SCITY"
                 " ORDER BY SCITY;", id="order-by-an-alias"),
])
def test_grouped_queries_outside_the_rule_route_as_before(sp2, text, target, sql):
    """Each query breaks one condition of the pre-aggregation rule, so it
    keeps the target and the kernel SQL it had before the rule existed."""
    sp2.apply_source(_FALLBACK_SCHEMA)
    routed, kernel_sql = routed_sql(sp2, text)
    assert (routed.target, kernel_sql) == (target, sql)


def test_last_stage_column_keeps_full_view(sp2):
    routed, sql = routed_sql(sp2, "Select PCITY From SP;")
    assert routed.kind == PASS_THROUGH
    assert sql == "SELECT PCITY FROM SP;"


def test_star_over_relation_keeps_it_whole(sp2):
    text = "Select * From SP Where QTY > (Select Count(*) From SP);"
    routed, _ = routed_sql(sp2, text)
    assert routed.kind == PASS_THROUGH
    routed, _ = routed_sql(sp2, "Select SP.*, QTY From SP;")
    assert routed.kind == PASS_THROUGH


def test_qualifier_matching_any_column_counts(sp2):
    # SNAME is qualified by S, but SP has a column of that name too
    routed, _ = routed_sql(sp2, "Select S.SNAME From S, SP Where S.S# = SP.S#;")
    assert routed.target == "SP_1"


def test_pruned_reference_keeps_alias_for_correlated_subquery(sp2):
    text = ("Select S#, (Select Sum(X.QTY) From SP X Where X.S# = S.S#) As TOTAL"
            " From S Order By S#;")
    routed, sql = routed_sql(sp2, text)
    assert "FROM SP_B X WHERE X.\"S#\" = S.\"S#\"" in sql
    assert sp2.query(text).rows == sp2.conn.query(render(parse_one(text))).rows
    text = "Select SP.QTY From SP Where SP.S# = 'S1' Order By SP.QTY;"
    assert sp2.query(text).rows == [(100,), (100,), (200,), (200,), (300,), (400,)]


def test_view_bodies_stay_on_full_view(sp2):
    sp2.apply_source("Create View V As Select Count(*) As N From SP;")
    assert sp2.explain("V") == ["CREATE VIEW V AS SELECT Count(*) AS N FROM SP;"]
    routed, _ = routed_sql(sp2, "Select N From V;")
    assert routed.kind == PASS_THROUGH


def test_dml_key_filter_stays_on_full_view(sp2):
    _, sql = routed_sql(sp2, "Delete SP Where SNAME = 'Smith';")
    assert "FROM SP WHERE SNAME = 'Smith'" in sql


NOT_PRUNED = {
    "non-key source column": """
        Create Table X (K Int, C Int, V Char, Primary Key (K));
        Create Table R (A Int, Primary Key (A), I_X (Select V From X Where R.A = C));
        Insert Into X Values (1, 1, 'a'), (2, 1, 'b');
        Insert Into R Values (1);
    """,
    "mixed affinity": """
        Create Table X (K Char, V Char, Primary Key (K));
        Create Table R (A Int, Primary Key (A), I_X (Select V From X Where R.A = K));
        Insert Into X Values ('01', 'a'), ('1', 'b');
        Insert Into R Values (1);
    """,
    "source that does not keep its card": """
        Create Table Y (K Int, C Int, W Char, Primary Key (K));
        Create Table X (K Int, C Int, Primary Key (K), I_Y (Select W From Y Where X.C = C));
        Create Table R (A Int, Primary Key (A), I_X (Select W From X Where R.A = K));
        Insert Into Y Values (1, 7, 'a'), (2, 7, 'b');
        Insert Into X Values (1, 7);
        Insert Into R Values (1);
    """,
}


@pytest.mark.parametrize("case", sorted(NOT_PRUNED))
def test_unprovable_join_is_never_pruned(case):
    layer = make_layer()
    layer.apply_source(NOT_PRUNED[case])
    routed, _ = routed_sql(layer, "Select Count(*) From R;")
    assert routed.kind == PASS_THROUGH
    assert layer.query("Select Count(*) From R;").rows == [(2,)]
    assert layer.conn.query("SELECT COUNT(*) FROM R").rows == [(2,)]
    assert layer.conn.query("SELECT COUNT(*) FROM R_B").rows == [(1,)]


def test_source_alter_turns_pruning_off_for_dependents(tmp_path):
    from sirsql.kernel import KernelConnection
    from sirsql.layer import SirLayer
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("""
        Create Table Y (C Int, W Char, Primary Key (C, W));
        Create Table X (N Int, K Int, C Int, V Char, Primary Key (N), Unique (K));
        Create Table R (A Int, Primary Key (A), I_X (Select V From X Where R.A = K));
        Insert Into Y Values (7, 'a'), (7, 'b');
        Insert Into X Values (1, 1, 7, 'a'), (2, 2, 0, 'b'), (3, 3, 0, 'c');
        Insert Into R Values (1), (2), (3);
    """)
    assert routed_sql(layer, "Select Count(*) From R;")[0].kind == BASE_REWRITE
    # dropping the key R joins on would leave R naming a missing column
    with pytest.raises(DependentAttributeDrop, match="R reads through IE I_X .*column: X.K"):
        layer.apply_source("Alter Table X Drop K;")
    # a join on part of Y's key gives X's first row two matches, and R's too
    layer.apply_source("Alter Table X Add I_Y (Select W From Y Where X.C = C);")
    for session in (layer, SirLayer(KernelConnection(location))):
        assert routed_sql(session, "Select Count(*) From R;")[0].kind == PASS_THROUGH
        assert session.query("Select Count(*) From R;").rows == [(4,)]
        assert session.conn.query("SELECT COUNT(*) FROM R_B").rows == [(3,)]
        session.conn.close()


def test_source_gaining_non_key_join_turns_pruning_off():
    layer = make_layer()
    layer.apply_source("""
        Create Table Y (K Int, C Int, W Char, Primary Key (K));
        Create Table X (K Int, C Int, Primary Key (K), I_Y (Select W From Y Where X.K = K));
        Create Table R (A Int, Primary Key (A), I_X (Select W From X Where R.A = K));
        Insert Into Y Values (1, 7, 'a'), (2, 7, 'b');
        Insert Into X Values (1, 7);
        Insert Into R Values (1);
    """)
    assert routed_sql(layer, "Select Count(*) From R;")[0].target == "R_B"
    layer.apply_source("Alter Table X Add I_C (Select K As YK From Y Where X.C = C);")
    assert routed_sql(layer, "Select Count(*) From R;")[0].kind == PASS_THROUGH
    assert layer.query("Select Count(*) From R;").rows == [(2,)]


def test_seed_format_plans_are_upgraded_at_open_and_pruned(tmp_path):
    from sirsql.kernel import KernelConnection
    from sirsql.layer import SirLayer
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    expected = full_view_rows(layer, "Select SCITY, Count(*) From SP Group By SCITY;")
    write_seed_documents(layer)
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    entry = reopened.catalog.get("SP")
    assert [item.stage.kind for item in entry.views] == ["join", "join"]
    assert reopened.catalog.resolve_columns("SP_1")[-1] == "SCITY"
    routed, _ = routed_sql(reopened, "Select Count(*) From SP;")
    assert (routed.kind, routed.target) == (BASE_REWRITE, "SP_B")
    assert reopened.query("Select Count(*) From SP;").rows == [(12,)]
    assert sorted(reopened.query(
        "Select SCITY, Count(*) From SP Group By SCITY;").rows) == expected
    assert reopened.check("SP") == []


def test_count_over_a_deep_key_joined_chain_reads_the_base():
    layer = make_layer()
    layer.apply_source("Create Table R0 (K Int, V Int, Primary Key (K));" + "".join(
        f"Create Table R{i} (K Int, Primary Key (K), V (Select V From R{i - 1}"
        f" Where R{i}.K = R{i - 1}.K));" for i in range(1, 300)))
    layer.apply_source("Insert Into R0 Values (1, 10), (2, 20), (3, 30);")
    layer.apply_source("Insert Into R299 (K) Values (1), (2);")
    routed, _ = routed_sql(layer, "Select Count(*) From R299;")
    assert routed.target == "R299_B"
    assert layer.query("Select Count(*) From R299;").rows == [(2,)]
