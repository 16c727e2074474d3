from __future__ import annotations

import pytest

from sirsql import compile_sir
from sirsql import nodes as n
from sirsql.catalog import scheme_from_ast
from sirsql.compiler import (Sources, canonicalize, canonicalize_all, expand_star_minus,
                             order_ies, rewrite_to_base)
from sirsql.errors import (DependentsExist, IeCycle, IndexOnInheritedAttribute,
                           InvariantViolation, MissingRecursiveJoin, NameCollision,
                           NotRewritable, RecursiveJoinAttributeDrop, UnknownExcludedColumn,
                           TooManyJoins, UnknownIE, UnknownRelation)
from sirsql.parser import parse_one
from sirsql.render import render_source

from conftest import GOLDEN, fixture_text, load_sp2, make_layer


def sp2_layer(with_data=False):
    return load_sp2(make_layer(), with_data=with_data)


def scheme_of(layer, name):
    return layer.catalog.get(name).scheme


def sp_scheme_and_catalog():
    layer = sp2_layer()
    return scheme_of(layer, "SP"), layer.catalog


# --- canonicalize -----------------------------------------------------------


def test_canonicalize_join_form_strips_recursive_predicate():
    scheme, catalog = sp_scheme_and_catalog()
    canon = canonicalize(scheme.ies[0], scheme, catalog)
    assert canon.kind == "join"
    assert canon.join_pairs == [("S", "S#", "S#")]
    assert canon.residual is None
    assert canon.produced_attrs == ["SNAME", "STATUS", "SCITY"]


def test_canonicalize_aggregate_single_item_stays_subquery():
    layer = sp2_layer()
    stmt = parse_one(
        "Create Table X (S# Char, Primary Key (S#),"
        " STATUS (Select Int(SUM(QTY)/100) From SP_B Where X.S# = S#));")
    scheme = scheme_from_ast(stmt)
    canon = canonicalize(scheme.ies[0], scheme, layer.catalog)
    assert canon.kind == "subquery"
    assert canon.produced_attrs == ["STATUS"]
    # text unchanged: same AST as parsed
    assert canon.select is scheme.ies[0].form.select


def test_canonicalize_value_form_flips_to_expr_as_name():
    stmt = parse_one("Create Table P (W Char, Primary Key (W), WEIGHT_T As (WEIGHT_KG/1000));")
    scheme = scheme_from_ast(stmt)
    canon = canonicalize(scheme.ies[0], scheme, None)
    assert canon.kind == "value"
    assert canon.items[0][0] == "WEIGHT_T"
    assert render_source(canon.items[0][1]) is not None


def test_canonicalize_missing_recursive_join():
    layer = sp2_layer()
    stmt = parse_one(
        "Create Table X (A Char, Primary Key (A), I (Select SNAME From S Where SNAME = 'x'));")
    scheme = scheme_from_ast(stmt)
    with pytest.raises(MissingRecursiveJoin):
        canonicalize(scheme.ies[0], scheme, layer.catalog)


@pytest.mark.parametrize("bare, parenthesized", [
    ("X.K = S#", "(X.K = S#)"),
    ("X.K = S# And STATUS > 10", "((X.K = S#)) And STATUS > 10"),
    ("X.K = S# And (STATUS > 20 Or CITY = 'Paris')",
     "(X.K = S#) And (STATUS > 20 Or CITY = 'Paris')"),
], ids=["alone", "with-residual", "with-parenthesized-residual"])
def test_a_parenthesized_recursive_join_compiles_like_the_bare_one(bare, parenthesized):
    plans, rows = [], []
    for where in (bare, parenthesized):
        layer = sp2_layer(with_data=True)
        layer.apply_source(f"Create Table X (K Char, Primary Key (K),"
                           f" I (Select SNAME From S Where {where}));"
                           " Insert Into X Values ('S1'), ('S2'), ('S3'), ('S9');")
        plans.append([item.sql for item in layer.catalog.get("X").plan])
        rows.append(layer.query("Select K, SNAME From X Order By K;").rows)
    assert plans[1] == plans[0]
    assert rows[1] == rows[0] and len({name for _, name in rows[0]}) > 1


@pytest.mark.parametrize("ie", [
    "I (Select Z From NOPE Where X.A = Z)",
    "I (Select SNAME, Z From S, NOPE Where X.A = S# And X.A = Z)",
    "I (Select Count(*) From NOPE Where X.A = Z)",
], ids=["join", "join-second-source", "subquery"])
def test_canonicalize_unknown_relation(ie):
    layer = sp2_layer()
    scheme = scheme_from_ast(parse_one(f"Create Table X (A Char, Primary Key (A), {ie});"))
    with pytest.raises(UnknownRelation, match="NOPE"):
        canonicalize(scheme.ies[0], scheme, layer.catalog)
    with pytest.raises(UnknownRelation, match="NOPE"):
        compile_sir(scheme, layer.catalog)


def test_star_qualifier_is_case_insensitive_and_must_label_a_source(kernel_log):
    layer = sp2_layer()
    layer.apply_source("Create Table D (DK Char, DN Char, Primary Key (DK));")

    def create(star):
        return (f"Create Table R (F Char, Primary Key (F),"
                f" I (Select {star} From D Where R.F = DK));")

    upper, lower = (compile_sir(scheme_from_ast(parse_one(create(star))), layer.catalog)
                    for star in ("D.*", "d.*"))
    assert [item.sql for item in lower.plan] == [item.sql for item in upper.plan]
    assert lower.column_names == ["F", "DK", "DN"]
    sent = kernel_log(layer.conn)
    with pytest.raises(UnknownRelation, match="'Z'"):
        layer.apply_source(create("Z.*"))
    assert sent == [] and "R" not in layer.catalog


@pytest.mark.parametrize("items, where, columns", [
    ("S.*", "X.A = S# And X.B = P#", ["A", "B", "S#", "SNAME", "STATUS", "CITY"]),
    ("*/(P.CITY)", "X.A = S# And P# = 'P1'",
     ["A", "B", "S#", "SNAME", "STATUS", "CITY", "P#", "PNAME", "COLOR", "WEIGHT"]),
])
def test_a_star_column_that_two_sources_hold_reads_its_own_source(items, where, columns):
    layer = sp2_layer(with_data=True)
    layer.apply_source(f"Create Table X (A Char, B Char, Primary Key (A),"
                       f" I (Select {items} From S, P Where {where}));")
    layer.apply_source("Insert Into X Values ('S2', 'P3');")
    result = layer.query("Select * From X;")
    assert result.columns == columns
    assert dict(zip(columns, result.rows[0]))["CITY"] == "Paris"     # S2's city, not P3's


def test_canonicalize_residual_predicates_move_into_join():
    layer = sp2_layer()
    stmt = parse_one(
        "Create Table X (A Char, Primary Key (A),"
        " I (Select SNAME From S Where X.A = S# And STATUS > 10));")
    scheme = scheme_from_ast(stmt)
    canon = canonicalize(scheme.ies[0], scheme, layer.catalog)
    assert canon.kind == "join"
    assert canon.residual is not None


# --- order_ies ---------------------------------------------------------------


def test_order_keeps_declaration_order_without_references():
    scheme, catalog = sp_scheme_and_catalog()
    ordered = order_ies(scheme, canonicalize_all(scheme, catalog))
    assert [c.name for c in ordered] == ["I_S", "I_P"]


def test_order_moves_referenced_value_ie_first():
    layer = sp2_layer()
    stmt = parse_one(
        "Create Table Q (P# Char, WEIGHT Char, Primary Key (P#),"
        " WEIGHT_T As (WEIGHT_KG / 1000), WEIGHT_KG As (Round(WEIGHT / 2.1, 1)));")
    scheme = scheme_from_ast(stmt)
    ordered = order_ies(scheme, canonicalize_all(scheme, layer.catalog))
    assert [c.name for c in ordered] == ["WEIGHT_KG", "WEIGHT_T"]


def test_an_ie_joined_on_another_ies_output_runs_after_it():
    # U's IE I_U1 joins U1 on A0, which I_U2 inherits from U2
    layer = make_layer()
    layer.apply_source(
        "Create Table U1 (A0 Char, A2 Char, Primary Key (A0));"
        " Create Table U2 (A1 Char, A0 Char, Primary Key (A1));"
        " Create Table U (A1 Char, A4 Char, Primary Key (A1, A4),"
        " I_U1 (Select */A0 From U1 Where A0 = U.A0), I_U2 (Select */A1 From U2 Where A1 = U.A1));"
        " Insert Into U1 Values ('x', 'two'); Insert Into U2 Values ('a', 'x');"
        " Insert Into U Values ('a', 'four');")
    assert layer.catalog.get("U").ie_order == ["I_U2", "I_U1"]
    result = layer.query("Select * From U;")
    assert (result.columns, result.rows) == (["A1", "A4", "A2", "A0"], [("a", "four", "two", "x")])


def test_order_detects_forced_two_cycle():
    layer = sp2_layer()
    stmt = parse_one(
        "Create Table Q (K Char, Primary Key (K),"
        " A As (B + 1), B As (A + 1));")
    scheme = scheme_from_ast(stmt)
    with pytest.raises(IeCycle):
        order_ies(scheme, canonicalize_all(scheme, layer.catalog))


# --- expand_star_minus ----------------------------------------------------------


P_COLS = Sources([n.TableName(name="P")], {"P": ["P#", "PNAME", "COLOR", "WEIGHT", "CITY"]}.get)


def _of_p(columns):
    return [n.ColumnRef(name=col, table="P") for col in columns]


def test_star_minus_single_exclusion():
    item = n.StarMinus(excluded=[n.ColumnRef(name="P#", table="P")])
    assert expand_star_minus(item, P_COLS) == _of_p(["PNAME", "COLOR", "WEIGHT", "CITY"])


def test_plain_star_expands_all():
    assert expand_star_minus(n.Star(), P_COLS) == _of_p(["P#", "PNAME", "COLOR", "WEIGHT", "CITY"])


def test_star_minus_list_exclusion():
    item = n.StarMinus(excluded=[n.ColumnRef(name="P#"), n.ColumnRef(name="CITY")])
    assert expand_star_minus(item, P_COLS) == _of_p(["PNAME", "COLOR", "WEIGHT"])


def test_star_minus_unknown_exclusion():
    with pytest.raises(UnknownExcludedColumn):
        expand_star_minus(n.StarMinus(excluded=[n.ColumnRef(name="NOPE")]), P_COLS)


# --- compile_sir golden -----------------------------------------------------------


def test_sp2_plan_matches_golden():
    layer = sp2_layer()
    lines = []
    for name in ("S", "P", "SP"):
        lines.extend(layer.explain(name))
    assert "\n".join(lines) + "\n" == (GOLDEN / "sp2_plan.sql").read_text()


def test_public_compile_sir_spells_list_and_iif_as_the_layer_does():
    layer = sp2_layer()
    text = ("Create Table PS (P# Char, WEIGHT Int, Primary Key (P#),"
            " SUPPLIERS (Select LIST (SP_B.S#, SNAME) From SP_B, S"
            " Where PS.P# = SP_B.P# And S.S# = SP_B.S#),"
            " HEAVY As (IIF (WEIGHT > 15, 'yes', 'no')));")
    compiled = compile_sir(scheme_from_ast(parse_one(text)), layer.catalog)
    layer.apply_source(text)
    assert compiled.plan == layer.catalog.get("PS").plan
    sql = "\n".join(item.sql for item in compiled.plan)
    assert "group_concat(" in sql and "iif(" in sql


def test_sp2_emits_exactly_five_statements():
    layer = sp2_layer()
    total = sum(len(layer.explain(name)) for name in ("S", "P", "SP"))
    assert total == 5


def test_sp3_plans_match_golden():
    layer = sp2_layer(with_data=True)
    layer.apply_source(fixture_text("sp3_alters.sirsql"))
    assert "\n".join(layer.explain("S")) + "\n" == (GOLDEN / "sp3_s_plan.sql").read_text()
    assert "\n".join(layer.explain("P")) + "\n" == (GOLDEN / "sp3_p_plan.sql").read_text()


def test_own_columns_a_join_source_shares_stay_unambiguous():
    # SX stores S# and NOTE, S has an S# of its own and later gains a NOTE
    layer = load_sp2(make_layer())
    layer.apply_source("Create Table SX (S# Char, I_BIG (Select SNAME From S Where SX.S# = S#),"
                       " NOTE Char, Primary Key (S#)); Insert Into SX Values ('S1', 'n');")
    layer.apply_source("Alter Table S Add NOTE Char;")
    assert layer.query("Select * From SX;").rows == [("S1", "Smith", "n")]


def test_zero_ie_plan_is_single_create_table():
    layer = make_layer()
    layer.apply_source("Create Table T (A Char, B Int, Primary Key (A));")
    plan = layer.explain("T")
    assert len(plan) == 1
    assert plan[0].startswith("CREATE TABLE T ")


def test_compile_determinism():
    first = sp2_layer()
    second = sp2_layer()
    for name in ("S", "P", "SP"):
        assert first.explain(name) == second.explain(name)


def test_each_stage_adds_exactly_its_ie_outputs():
    layer = sp2_layer()
    assert layer.conn.introspect("SP_B") == ["S#", "P#", "QTY"]
    assert layer.conn.introspect("SP_1") == [
        "S#", "P#", "QTY", "SNAME", "STATUS", "SCITY"]
    assert layer.conn.introspect("SP") == [
        "S#", "P#", "QTY", "SNAME", "STATUS", "SCITY",
        "PNAME", "COLOR", "WEIGHT", "PCITY"]


def test_some_recursive_join_must_touch_a_stored_attribute():
    layer = make_layer()
    layer.apply_source("Create Table X (K Int, V Int, Primary Key (K));")
    with pytest.raises(InvariantViolation, match="stored attribute"):
        layer.apply_source(
            "Create Table T (A Int, Primary Key (A),"
            " DBL As (A * 2),"
            " I_X (Select V From X Where T.DBL = K));")


def test_name_collision_with_existing_kernel_object():
    layer = sp2_layer()
    layer.conn.execute("CREATE TABLE Z_B (x INT)")  # behind the layer's back
    with pytest.raises(NameCollision):
        layer.apply_source(
            "Create Table Z (A Char, Primary Key (A),"
            " I (Select SNAME From S Where Z.A = S#));")


# --- stage facts -------------------------------------------------------------------


def test_stage_columns_match_kernel_for_consecutive_value_ies():
    layer = make_layer()
    layer.apply_source(
        "Create Table X (K Int, V Char, Primary Key (K));"
        " Create Table R (A Int, Primary Key (A), D As (A*2), T As (A*3),"
        " I_X (Select V From X Where R.A = K));")
    for view, columns in (("R_1", ["A", "D"]), ("R_2", ["A", "D", "T"]),
                          ("R", ["A", "D", "T", "V"])):
        assert layer.catalog.resolve_columns(view) == columns
        assert layer.conn.introspect(view) == columns
    assert [(i.stage.kind, i.stage.ies, i.stage.adds) for i in layer.catalog.get("R").views] == [
        ("value", ["D"], ["D"]), ("value", ["T"], ["T"]), ("join", ["I_X"], ["V"])]


def test_stage_facts_record_join_pairs_per_source(sp3):
    stages = [item.stage for item in sp3.catalog.get("SP").views]
    assert [(s.kind, s.ies, s.adds) for s in stages] == [
        ("join", ["I_S"], ["SNAME", "STATUS", "SCITY"]),
        ("join", ["I_P"], ["PNAME", "COLOR", "WEIGHT", "PCITY"])]
    assert [s.joins for s in stages] == [[["S", [["S#", "S#"]]]], [["P", [["P#", "P#"]]]]]
    assert [(i.name, i.stage.kind) for i in sp3.catalog.get("P").views] == [
        ("P_1", "value"), ("P_2", "value"), ("P", "reorder")]


# --- alter -------------------------------------------------------------------------


def test_alter_example_weight_conversions(sp3):
    assert sp3.conn.introspect("P") == [
        "P#", "PNAME", "COLOR", "WEIGHT", "WEIGHT_T", "WEIGHT_KG", "CITY"]
    row = sp3.query("Select WEIGHT_T, WEIGHT_KG From P Where P# = 'P1';").rows[0]
    assert row == (pytest.approx(0.0057), pytest.approx(5.7))


def test_alter_status_becomes_subquery_over_base(sp3):
    plan = sp3.explain("S")
    assert len(plan) == 3
    assert "SELECT CAST(SUM(QTY) / 100 AS INTEGER) FROM SP_B" in plan[1]
    assert sp3.catalog.get("S").kind == "sir"
    # stored STATUS is gone from the base
    assert sp3.conn.introspect("S_B") == ["S#", "SNAME", "CITY"]


def test_alter_drop_last_ie_reverts_to_stored_table():
    layer = make_layer()
    layer.apply_source("""
    Create Table S (S# Char, SNAME Char, Primary Key (S#));
    Create Table T (K Char, Primary Key (K), I (Select SNAME From S Where T.K = S#));
    Insert Into S Values ('S1', 'Smith');
    Insert Into T Values ('S1');
    """)
    assert layer.catalog.get("T").kind == "sir"
    layer.apply_source("Alter Table T Drop I;")
    entry = layer.catalog.get("T")
    assert entry.kind == "stored"
    assert layer.conn.object_kind("T") == "table"
    assert layer.conn.object_kind("T_B") is None
    assert layer.query("Select * From T;").rows == [("S1",)]


def test_alter_cannot_drop_recursive_join_attribute(sp2):
    with pytest.raises(RecursiveJoinAttributeDrop):
        sp2.apply_source("Alter Table SP Drop S#;")


def test_alter_unknown_target(sp2):
    with pytest.raises(UnknownIE):
        sp2.apply_source("Alter Table SP Drop NOPE;")


@pytest.mark.parametrize("position, before", [
    ("After SCITY", "I_P"),         # an inherited attribute places after its IE
    ("Before COLOR", "I_P"),
    ("Before i_p", "I_P"),          # an IE, matched in any case
    ("After QTY", "I_S"),
])
def test_alter_add_anchors_on_attributes_and_ies(sp2, position, before):
    sp2.apply_source(f"Alter Table SP Add {position} NOTE Char;")
    names = [e.name for e in sp2.catalog.get("SP").scheme.elements]
    assert names[names.index("NOTE") + 1] == before
    with pytest.raises(UnknownIE, match="NOPE"):
        sp2.apply_source("Alter Table SP Add After NOPE NOTE2 Char;")


def test_alter_add_plain_stored_attribute(sp2):
    sp2.apply_source("Alter Table SP Add NOTE Char;")
    assert sp2.conn.introspect("SP_B") == ["S#", "P#", "QTY", "NOTE"]
    # appended after the IAs in the declared order
    assert sp2.conn.introspect("SP")[-1] == "NOTE"
    assert len(sp2.query("Select * From SP;").rows) == 12


def test_star_minus_dependents_recompile_on_alter(sp2):
    sp2.apply_source(
        "Alter Table SP Alter I_P As I_P_ALL (Select */P.P# From P Where SP.P# = P.P#);")
    assert sp2.conn.introspect("SP") == [
        "S#", "P#", "QTY", "SNAME", "STATUS", "SCITY", "PNAME", "COLOR", "WEIGHT", "CITY"]
    sp2.apply_source(fixture_text("sp3_alters.sirsql"))
    # SP inherited P's new attributes automatically
    assert sp2.conn.introspect("SP") == [
        "S#", "P#", "QTY", "SNAME", "STATUS", "SCITY",
        "PNAME", "COLOR", "WEIGHT", "WEIGHT_T", "WEIGHT_KG", "CITY"]
    row = [r for r in sp2.query("Select * From SP;").rows if r[:2] == ("S1", "P1")][0]
    assert row[-3:] == (pytest.approx(0.0057), pytest.approx(5.7), "London")


def test_explicit_list_dependents_not_recompiled(sp2):
    before = sp2.explain("SP")
    sp2.apply_source(fixture_text("sp3_alters.sirsql"))
    assert sp2.explain("SP") == before  # I_S and I_P list columns explicitly
    assert sp2.conn.introspect("SP") == [
        "S#", "P#", "QTY", "SNAME", "STATUS", "SCITY", "PNAME", "COLOR", "WEIGHT", "PCITY"]


# --- drop --------------------------------------------------------------------------


def test_drop_with_dependents_restricted(sp2):
    with pytest.raises(DependentsExist) as err:
        sp2.apply_source("Drop Table S;")
    assert err.value.dependents == ["SP"]


def test_drop_leaf_allowed(sp2):
    sp2.apply_source("Drop Table SP;")
    assert "SP" not in sp2.catalog
    assert sp2.conn.object_kind("SP_B") is None
    assert sp2.conn.object_kind("SP_1") is None


def test_drop_cascade_removes_dependents_first(sp2):
    sp2.apply_source("Drop Table S Cascade;")
    for name in ("S", "SP", "SP_B", "SP_1"):
        assert sp2.conn.object_kind(name) is None
    assert "SP" not in sp2.catalog and "S" not in sp2.catalog
    assert "P" in sp2.catalog


# --- index -------------------------------------------------------------------------


def test_index_lands_on_base(sp2):
    result = sp2.apply_source("Create Index SP_QTY On SP (QTY);")
    assert "SP_B" in sp2.conn.execute(
        "SELECT tbl_name FROM sqlite_master WHERE name = 'SP_QTY'").rows[0]


def test_index_on_inherited_attribute_rejected(sp2):
    with pytest.raises(IndexOnInheritedAttribute):
        sp2.apply_source("Create Index SP_SNAME On SP (SNAME);")


def test_index_on_stored_table_passes_through(sp2):
    sp2.apply_source("Create Index S_CITY On S (CITY);")
    assert sp2.conn.execute(
        "SELECT tbl_name FROM sqlite_master WHERE name = 'S_CITY'").rows[0] == ("S",)


# --- rewrite_to_base ----------------------------------------------------------------


def test_rewrite_references_stored_attributes(sp2):
    ie = parse_one(
        "Alter Table S Alter STATUS As STATUS"
        " (Select Int(SUM(QTY)/100) From SP Where S.S# = S#);").action.replacement
    rewritten = rewrite_to_base(ie, "S", sp2.catalog, ["SP"])
    assert "FROM SP_B" in render_source(rewritten)


def test_rewrite_rejects_inherited_reads(sp2):
    ie = parse_one(
        "Alter Table S Alter STATUS As STATUS"
        " (Select Count(*) From SP Where S.S# = S# And SP.SNAME = 'Smith');"
    ).action.replacement
    with pytest.raises(NotRewritable, match="SNAME"):
        rewrite_to_base(ie, "S", sp2.catalog, ["SP"])


def test_rewrite_list_aggregate_example(sp2):
    ie = parse_one(
        "Alter Table P Add SUPPLIERS (Select LIST (SP.S#, SNAME, QTY) From SP, S"
        " where P.P# = SP.P# And S.S# = SP.S# Order By Qty Desc, SNAME);"
    ).action.items[0]
    rewritten = rewrite_to_base(ie, "P", sp2.catalog, ["SP"])
    text = render_source(rewritten)
    assert "FROM SP_B, S" in text
    assert "SP_B.S#" in text


# --- the kernel's join limit ----------------------------------------------------------


def _join_ies(count: int, first: int = 0) -> str:
    return ", ".join(f"I_{i} (Select SNAME As N{i} From S Where T.K = S#)"
                     for i in range(first, first + count))


def _layer_with_s():
    layer = make_layer()
    layer.apply_source("Create Table S (S# Char, SNAME Char, Primary Key (S#));"
                       " Insert Into S Values ('S1', 'Smith');")
    return layer


def test_a_chain_of_63_join_stages_compiles_and_answers():
    layer = _layer_with_s()
    layer.apply_source(f"Create Table T (K Char, Primary Key (K), {_join_ies(63)});"
                       " Insert Into T (K) Values ('S1');")
    assert layer.query("Select * From T;").rows == [("S1",) + ("Smith",) * 63]


@pytest.mark.parametrize("statement", [
    f"Create Table T (K Char, Primary Key (K), {_join_ies(64)});",
    f"Alter Table T Add {_join_ies(1, first=63)};",
])
def test_a_chain_joining_65_tables_is_refused_before_the_kernel_sees_it(kernel_log, statement):
    layer = _layer_with_s()
    if statement.startswith("Alter"):
        layer.apply_source(f"Create Table T (K Char, Primary Key (K), {_join_ies(63)});")
    sent = kernel_log(layer.conn)
    with pytest.raises(TooManyJoins, match="^T: its view chain joins at least 65 tables"):
        layer.apply_source(statement)
    assert sent == []


def test_alter_add_up_to_64_joined_tables_compiles():
    layer = _layer_with_s()
    layer.apply_source(f"Create Table T (K Char, Primary Key (K), {_join_ies(62)});"
                       f" Alter Table T Add {_join_ies(1, first=62)};"
                       " Insert Into T (K) Values ('S1');")
    assert layer.query("Select N62 From T;").rows == [("Smith",)]
