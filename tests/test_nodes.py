"""The AST: node equality, `transform` sharing what it does not change, and
no pass changing the nodes it is given."""

from __future__ import annotations

import copy

import pytest

from sirsql import nodes as n
from sirsql.catalog import scheme_from_ast, scheme_to_ast
from sirsql.compiler import (alter_steps, apply_alter, compile_sir, rewrite_to_base,
                             substitute_relation)
from sirsql.errors import InvariantViolation, KernelError
from sirsql.parser import parse, parse_one
from sirsql.render import render, render_source
from sirsql.router import route

from conftest import fixture_text


def _sp_scheme() -> n.CreateSirTable:
    return next(s for s in parse(fixture_text("sp2_schema.sirsql")) if s.name == "SP")


# --- Node ------------------------------------------------------------------------


def test_equality_ignores_position_and_warnings():
    select = parse_one("Select S# From S;").select
    assert n.Query(select=select, line=4, col=2, warnings=["w"]) == n.Query(select=select)
    assert parse_one("Select S#\n  From S;") == parse_one("Select S# From S;")
    assert parse_one("Select S# From S;") != parse_one("Select S# From P;")


def test_nodes_of_different_classes_are_unequal():
    assert n.PrimaryKeyClause(columns=["A"]) != n.UniqueClause(columns=["A"])
    assert n.PrimaryKeyClause(columns=["A"]) == n.PrimaryKeyClause(columns=["A"])


def test_init_keeps_calls_and_defaults():
    first, second = n.Select(items=[]), n.Select(items=[])
    assert first.from_ == [] and first.from_ is not second.from_
    assert n.ColumnRef("A", "T") == n.ColumnRef(name="A", table="T")
    assert n.ColumnRef(name="A").table is None
    assert n.DropTable(name="T").mode == "restrict"
    with pytest.raises(TypeError):
        n.Query(n.Select(items=[]), 3)          # a position is keyword-only
    assert repr(n.ColumnRef(name="A")) == "ColumnRef(name='A', table=None)"


def test_replace_shares_the_fields_it_does_not_name():
    stmt = parse_one("Select S# From S Where CITY = 'Paris';")
    select = stmt.select.replace(distinct=True)
    assert select.distinct and not stmt.select.distinct
    assert select.items is stmt.select.items and select.where is stmt.select.where
    moved = stmt.replace(select=select)
    assert (moved.line, moved.col, moved.warnings) == (stmt.line, stmt.col, stmt.warnings)


# --- transform -----------------------------------------------------------------------


def test_identity_transform_returns_the_same_object():
    sp = _sp_scheme()
    assert n.transform(sp, lambda node: node) is sp


def test_transform_copies_only_the_path_to_a_change():
    sp = _sp_scheme()
    i_p = sp.elements[-1]
    target = i_p.form.select.from_[0]
    assert (i_p.name, target.name) == ("I_P", "P")
    renamed = n.transform(sp, lambda node: node.replace(name="P2") if node is target else node)

    old_ids = {id(node) for node in n.walk(sp)}
    copied = [type(node).__name__ for node in n.walk(renamed) if id(node) not in old_ids]
    assert copied == ["CreateSirTable", "IeDecl", "SelectForm", "Select", "TableName"]
    assert all(new is old for new, old in zip(renamed.elements[:-1], sp.elements[:-1]))
    new_select, old_select = renamed.elements[-1].form.select, i_p.form.select
    assert new_select.items is old_select.items
    assert new_select.where is old_select.where
    assert new_select.from_[0] == n.TableName(name="P2") and target.name == "P"
    assert render_source(renamed) == render_source(sp).replace("FROM P WHERE", "FROM P2 WHERE")


def test_substitute_relation_reaches_value_form_pairs():
    stmt = parse_one("Create Table P (P# Char, WEIGHT Int, Primary Key (P#),"
                     " WEIGHT_T As (P.WEIGHT / 1000));")
    ie = stmt.elements[-1]
    before = copy.deepcopy(ie)
    renamed = substitute_relation(ie, "P", "P_B")
    (name, expr), = renamed.form.items
    assert name == "WEIGHT_T" and expr.left == n.ColumnRef(name="WEIGHT", table="P_B")
    assert ie == before and ie.form.items[0][1].left.table == "P"
    assert substitute_relation(ie, "S", "S_B") is ie


def test_walk_and_transform_reach_update_assignments():
    stmt = parse_one("Update SP Set QTY = SP.QTY + 1 Where S# = 'S1';")
    assert n.ColumnRef(name="QTY", table="SP") in list(n.walk(stmt))
    renamed = substitute_relation(stmt, "SP", "SP_B")
    assert renamed.assignments[0][1].left.table == "SP_B"
    assert stmt.assignments[0][1].left.table == "SP"
    assert renamed.where is stmt.where


# --- no pass changes its input -----------------------------------------------------------


SCHEMES = [
    # join-form IEs, star-minus inside one
    "Create Table SPX (S# Char, P# Char, QTY Int, Primary Key (S#, P#),"
    " I_S (Select SNAME, STATUS, CITY As SCITY From S Where SPX.S# = S#),"
    " I_P (Select */P.P# From P Where SPX.P# = P.P#));",
    # value-form IEs out of declared order, one reading the other
    "Create Table PX (P# Char, WEIGHT Char, WEIGHT_T As (WEIGHT_KG / 1000),"
    " WEIGHT_KG As (Round(PX.WEIGHT / 2.1, 1)), CITY Char, Primary Key (P#));",
    # a join IE whose outputs must be reordered, and a key declared inline
    "Create Table SQ (S# Char Primary Key, P# Char, I_S (Select SNAME From S Where SQ.S# = S#),"
    " QTY Int);",
    # an aggregate subquery with LIST
    "Create Table PY (P# Char, Primary Key (P#), SUPPLIERS (Select LIST (SP.S#, QTY)"
    " From SP Where PY.P# = SP.P# Order By QTY Desc));",
    # three consecutive value-form IEs, each reading the one before: one stage each
    "Create Table PW (P# Char, WEIGHT Int, W1 As (PW.WEIGHT * 2), W2 As (W1 + 1),"
    " W3 As (W2 * W1), Primary Key (P#));",
]


@pytest.mark.parametrize("text", SCHEMES)
def test_compile_leaves_its_scheme_unchanged(sp2, text):
    scheme = scheme_from_ast(parse_one(text))
    before = copy.deepcopy(scheme)
    compiled = compile_sir(scheme, sp2.catalog)
    assert scheme == before
    assert compiled.scheme is scheme


@pytest.mark.parametrize("text", [
    "Alter Table SP Add Before QTY NOTE Char, I_X (Select COLOR As C2 From P Where SP.P# = P#);",
    "Alter Table SP Alter I_S As I_S2 (Select SNAME From S Where SP.S# = S#);",
    "Alter Table SP Drop I_P;",
    "Alter Table SP Drop QTY;",
    "Alter Table T Add Before S# NOTE Char;",       # rebuilds the base
    "Alter Table T Add NOTE Char;",                 # extends the base
])
def test_alter_leaves_scheme_and_action_unchanged(sp2, text):
    sp2.apply_source("Create Table T (K Char Primary Key, S# Char,"
                     " I_S (Select SNAME From S Where T.S# = S#));")
    stmt = parse_one(text)
    entry, action = sp2.catalog.get(stmt.name), stmt.action
    scheme_before, action_before = copy.deepcopy(entry.scheme), copy.deepcopy(action)
    scheme = apply_alter(entry, action)
    assert scheme.elements is not entry.scheme.elements
    assert scheme.keys is not entry.scheme.keys
    alter_steps(entry, compile_sir(scheme, sp2.catalog))
    assert entry.scheme == scheme_before
    assert action == action_before


def test_a_refused_apply_alter_leaves_its_inputs_unchanged(sp2):
    entry = sp2.catalog.get("SP")
    action = parse_one("Alter Table SP Add After QTY NOTE Char, K2 Char Primary Key;").action
    scheme_before, action_before = copy.deepcopy(entry.scheme), copy.deepcopy(action)
    with pytest.raises(InvariantViolation, match="primary-key"):
        apply_alter(entry, action)
    assert entry.scheme == scheme_before
    assert action == action_before


@pytest.mark.parametrize("text", [
    "Select */QTY From SP;",
    "Select SCITY, Count(*) From SP Group By SCITY;",
    "Select */CITY From S Where S# In (Select S# From SP Where SCITY = 'London');",
    "Select S#, (Select Sum(X.QTY) From SP X Where X.S# = S.S#) As TOTAL From S;",
    "Insert Into SP (S#, P#, QTY) Values ('S9', 'P1', 5);",
    "Update SP Set QTY = 1 Where SNAME = 'Smith';",
    "Update SP Set QTY = QTY + 1 Where QTY > 100;",
    "Delete From SP Where PNAME = 'Nut';",
])
def test_route_leaves_its_statement_unchanged(sp2, text):
    stmt = parse_one(text)
    before = copy.deepcopy(stmt)
    routed = route(stmt, sp2.catalog)
    render(routed.kernel_stmt)
    assert stmt == before
    assert render_source(stmt) == render_source(before)


def test_rewrite_to_base_leaves_its_ie_unchanged(sp2):
    ie = parse_one("Alter Table P Add SUPPLIERS (Select LIST (SP.S#, SNAME, QTY) From SP, S"
                   " where P.P# = SP.P# And S.S# = SP.S# Order By Qty Desc, SNAME);"
                   ).action.items[0]
    before = copy.deepcopy(ie)
    rewritten = rewrite_to_base(ie, "P", sp2.catalog, ["SP"])
    assert "FROM SP_B, S" in render_source(rewritten)
    assert ie == before


def test_a_refused_alter_leaves_the_catalog_schemes_intact(sp2):
    with pytest.raises(KernelError, match="SNAME"):
        sp2.apply_source("Alter Table S Drop SNAME;")
    for name in ("S", "SP"):
        entry = sp2.catalog.get(name)
        assert render_source(scheme_to_ast(entry.scheme)) == entry.source_text
