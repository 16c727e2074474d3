from __future__ import annotations

import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sirsql
from sirsql import catalog as catalog_module
from sirsql import compiler
from sirsql.catalog import SIR, STORED, Catalog, CatalogEntry, scheme_from_ast
from sirsql.cli import main
from sirsql.errors import (CircularReferenceError, CorruptCatalog, DependentsExist,
                           DuplicateName, InvariantViolation, NameCollision,
                           UnknownRelation)
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
from sirsql.parser import parse_one
from sirsql.render import render, render_source
from sirsql.router import route

from conftest import (SP2_QUERIES, SP3_QUERIES, assert_plans_match_kernel, fixture_text,
                      kernel_state, load_sp2, make_layer, replay_dump, write_four_table_sp2,
                      write_seed_documents)

ALTER_STATUS_OVER_SP = ("Alter Table S Alter STATUS As STATUS"
                        " (Select Int (SUM(QTY)/100) FROM SP WHERE S.S# = S#);")


def test_register_sp2_builds_edges(sp2):
    assert sp2.catalog.dependents_of("S") == ["SP"]
    assert sp2.catalog.dependents_of("P") == ["SP"]
    assert sp2.catalog.dependents_of("SP") == []


def test_stored_only_table_has_no_edges(layer):
    layer.apply_source("Create Table T (A Char, Primary Key (A));")
    assert layer.catalog.dependents_of("T") == []
    assert layer.catalog.get("T").kind == "stored"


def test_circular_reference_rejected_with_cycle_names(sp2):
    with pytest.raises(CircularReferenceError) as err:
        sp2.apply_source(ALTER_STATUS_OVER_SP)
    assert set(err.value.cycle) == {"S", "SP"}


@pytest.mark.parametrize("source, rewrite, cycle", [
    ("SP", False, True), ("SP_1", False, True), ("SP_B", False, False),
    # with rewrite_to_base, a relation reference is rewritten to its base, a
    # stage view reference is not
    ("SP", True, False), ("SP_1", True, True), ("SP_B", True, False)])
def test_a_cycle_through_a_stage_view_is_refused_before_any_kernel_statement(
        source, rewrite, cycle, kernel_log):
    layer = load_sp2(make_layer(rewrite_to_base=rewrite))
    alter = (f"Alter Table S Add I_X (Select Count(*) As N From {source}"
             " Where S.S# = S#);")
    if not cycle:
        layer.apply_source(alter)
        assert layer.query("Select N From S Where S# = 'S1';").rows == [(6,)]
        return
    sent = kernel_log(layer.conn)
    with pytest.raises(CircularReferenceError, match=r"^circular reference: S -> SP -> S$"):
        layer.apply_source(alter)
    assert sent == []


def test_a_cycle_through_a_stage_view_of_a_seed_format_file_is_refused(tmp_path, kernel_log):
    # the open upgrades the seed's plan, so its stage k reads what its first k IEs read
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    write_seed_documents(layer)
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))
    assert [item.stage.kind for item in reopened.catalog.get("SP").views] == ["join", "join"]
    sent = kernel_log(reopened.conn)
    with pytest.raises(CircularReferenceError, match=r"^circular reference: S -> SP -> S$"):
        reopened.apply_source(
            "Alter Table S Add I_X (Select Count(*) As N From SP_1 Where S.S# = S#);")
    assert sent == []


@pytest.mark.parametrize("seed_format", [False, True])
def test_a_stage_view_of_a_seed_format_file_reads_only_its_own_ies(tmp_path, seed_format):
    # SP_1 realizes I_S, which reads S only, so P may read it
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    if seed_format:
        write_seed_documents(layer)
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))
    reopened.apply_source(
        "Alter Table P Add I_X (Select Count(*) As N From SP_1 Where P.P# = P#);")
    assert reopened.query("Select P#, N From P Where P# In ('P1', 'P2', 'P3');").rows == [
        ("P1", 2), ("P2", 4), ("P3", 1)]
    reopened.conn.close()


def test_a_cycle_through_a_user_view_names_each_relation_in_order(sp2):
    sp2.apply_source("Create View V As Select S#, QTY From SP;")
    with pytest.raises(CircularReferenceError,
                       match=r"^circular reference: S -> V -> SP -> S$"):
        sp2.apply_source("Alter Table S Add I_X (Select Count(*) As N From V Where S.S# = S#);")


def test_an_alter_whose_second_reference_closes_the_cycle_names_that_one(sp2):
    # S reads V, then P through V; only SP reads S back
    sp2.apply_source("Create View V As Select P#, COLOR From P;")
    sp2.apply_source("Alter Table S Add I_V (Select Count(*) As NV From V Where S.S# = P#);")
    with pytest.raises(CircularReferenceError, match=r"^circular reference: S -> SP -> S$"):
        sp2.apply_source("Alter Table S Add I_X (Select Count(*) As N From SP Where S.S# = S#);")
    assert sp2.catalog.get("S").references == ["V"]


def test_an_upgrade_cycle_error_names_the_relations_on_the_cycle(tmp_path):
    # P reads SP_1 and SP reads P: the upgrade compiles whole chains
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("Create View V As Select S#, QTY From SP;")
    layer.apply_source("Alter Table P Add I_X (Select Count(*) As N From SP_1 Where P.P# = P#);")
    write_seed_documents(layer)
    layer.conn.close()
    conn = KernelConnection(location)
    with pytest.raises(CorruptCatalog, match="read each other's stages") as err:
        SirLayer(conn)
    conn.close()
    assert set(str(err.value).split(":")[0].split(", ")) == {"P", "SP"}


def test_rejected_mutation_leaves_kernel_and_catalog_unchanged(sp2):
    objects = sp2.conn.object_names()
    snapshot = sp2.catalog.snapshot()
    with pytest.raises(CircularReferenceError):
        sp2.apply_source(ALTER_STATUS_OVER_SP)
    assert sp2.conn.object_names() == objects
    assert sp2.catalog.snapshot() == snapshot


def test_base_reference_tracks_dependency(sp2):
    sp2.apply_source(ALTER_STATUS_OVER_SP.replace("FROM SP ", "FROM SP_B "))
    assert sp2.catalog.dependents_of("SP_B") == ["S"]
    # and S now blocks dropping SP
    assert "S" in sp2.catalog.blocking_dependents("SP")


def test_duplicate_name_rejected(sp2):
    with pytest.raises(DuplicateName):
        sp2.apply_source("Create Table S (X Char, Primary Key (X));")


def test_reserved_name_patterns_rejected(sp2):
    with pytest.raises(NameCollision):
        sp2.apply_source("Create Table FOO_B (X Char, Primary Key (X));")
    with pytest.raises(NameCollision):
        sp2.apply_source("Create Table SP_1 (X Char, Primary Key (X));")
    with pytest.raises(NameCollision):
        sp2.apply_source("Create Table sir_extra (X Char, Primary Key (X));")


def test_key_columns_must_be_stored(layer):
    layer.apply_source("Create Table S (S# Char, SNAME Char, Primary Key (S#));")
    with pytest.raises(InvariantViolation, match="key column"):
        layer.apply_source(
            "Create Table T (A Char, Primary Key (A, SNAME),"
            " I (Select SNAME From S Where T.A = S#));")


def test_sir_requires_primary_key(layer):
    layer.apply_source("Create Table S (S# Char, SNAME Char, Primary Key (S#));")
    with pytest.raises(InvariantViolation, match="primary key"):
        layer.apply_source("Create Table T (A Char, I (Select SNAME From S Where T.A = S#));")


@pytest.mark.parametrize("definition", [
    "U4 (A Int, B Int, Primary Key (B), Primary Key (A))",
    "U3 (A Int Primary Key, B Int Primary Key)",
    "U2 (A Int Primary Key, B Int, Primary Key (B))"])
def test_a_second_primary_key_is_refused_before_any_kernel_statement(layer, definition,
                                                                      kernel_log):
    sent = kernel_log(layer.conn)
    with pytest.raises(InvariantViolation, match="more than one primary key"):
        layer.apply_source(f"Create Table {definition};")
    assert sent == [] and layer.catalog.entries() == []


def test_a_stored_scheme_with_two_primary_keys_still_opens(tmp_path):
    # the refusal is CREATE's; a scheme already stored reads as it always did
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("Create Table U (A Int, B Int, Primary Key (A));"
                       " Insert Into U Values (1, 2);")
    layer.conn.execute("UPDATE sir_relations SET source_text ="
                       " 'CREATE TABLE U (A Int, B Int, PRIMARY KEY (B), PRIMARY KEY (A));'")
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))
    reopened.catalog.audit()
    assert reopened.catalog.get("U").scheme.keys == [["A"], ["B"]]
    assert reopened.query("Select * From U;").rows == [(1, 2)]


# one ALTER in a new process over the file named first; it prints the keys read at open
_ALTER_IN_A_NEW_PROCESS = """
import sys
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
layer = SirLayer(KernelConnection(sys.argv[1]))
print(layer.catalog.get("S").scheme.keys)
layer.apply_source(f"Alter Table S Add C{sys.argv[2]} Char;")
"""


def test_an_inline_primary_key_is_read_once_in_each_new_process(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("Create Table S (S# Char Primary Key, SNAME Char);")
    assert layer.catalog.get("S").scheme.keys == [["S#"]]
    layer.conn.close()
    env = {**os.environ, "PYTHONPATH": str(Path(sirsql.__file__).parents[1])}
    for k in range(3):
        done = subprocess.run([sys.executable, "-c", _ALTER_IN_A_NEW_PROCESS, location, str(k)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "[['S#']]\n")
    reopened = SirLayer(KernelConnection(location))
    entry = reopened.catalog.get("S")
    assert entry.scheme.keys == [["S#"]]
    assert entry.source_text == ("CREATE TABLE S (S# Char, SNAME Char, C0 Char, C1 Char, C2 Char,"
                                 " PRIMARY KEY (S#));")
    assert "UNIQUE" not in entry.plan[0].sql


def test_a_key_stored_twice_reads_once_and_the_next_alter_writes_it_once(tmp_path):
    # what an inline key became after an ALTER in a new process, before keys were deduplicated
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("Create Table S (S# Char Primary Key, SNAME Char);")
    layer.conn.execute("UPDATE sir_relations SET source_text = 'CREATE TABLE S (S# Char PRIMARY KEY,"
                       " SNAME Char, PRIMARY KEY (S#), UNIQUE (S#));'")
    layer.conn.close()
    catalog_module._latest_load = None
    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.get("S").scheme.keys == [["S#"]]
    reopened.apply_source("Alter Table S Add CITY Char;")
    assert reopened.catalog.get("S").source_text == \
        "CREATE TABLE S (S# Char, SNAME Char, CITY Char, PRIMARY KEY (S#));"
    assert "UNIQUE" not in reopened.conn.query(
        "SELECT sql FROM sqlite_master WHERE name = 'S'").rows[0][0]


# a relation of five stages over S-P3: two joins, a value IE over both, one
# of its own stored attributes, and a reorder view, since LBL is declared first
FIVE_STAGES = ("Create Table T (K Int, LBL As (SNAME || '/' || PNAME), S# Char, P# Char,"
               " I_S (Select SNAME From S Where S# = T.S#),"
               " I_P (Select PNAME From P Where P# = T.P#), DBL As (K * 2), Primary Key (K));")


def test_each_base_and_stage_view_resolves_to_the_columns_the_kernel_reports(tmp_path):
    location = str(tmp_path / "db.sqlite")
    writer = load_sp2(SirLayer(KernelConnection(location)))
    writer.apply_source(fixture_text("sp3_alters.sirsql"))
    writer.apply_source(FIVE_STAGES)
    catalog_module._latest_load = None
    cold = SirLayer(KernelConnection(location))
    assert cold.catalog.get("T") is not writer.catalog.get("T")
    for layer in (writer, cold):
        objects = [item.name for entry in layer.catalog.entries() if entry.kind == SIR
                   for item in entry.plan]
        assert objects == ["S_B", "S_1", "S", "P_B", "P_1", "P_2", "P", "SP_B", "SP_1", "SP",
                           "T_B", "T_1", "T_2", "T_3", "T_4", "T"]
        for obj in objects:
            assert layer.catalog.resolve_columns(obj) == layer.conn.introspect(obj), obj
    assert [item.stage.kind for item in cold.catalog.get("T").views] == \
        ["join", "join", "value", "value", "reorder"]


def test_unknown_relation(sp2):
    with pytest.raises(UnknownRelation):
        sp2.catalog.dependents_of("NOWHERE")


def test_fresh_kernel_empty_catalog(conn):
    assert Catalog.load(conn).entries() == []


def test_persist_then_load_round_trip(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source(ALTER_STATUS_OVER_SP.replace("FROM SP ", "FROM SP_B "))
    before = layer.catalog.snapshot()
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == before
    # behavior equivalent too: the loaded catalog routes and explains
    assert reopened.query("Select S#, STATUS From S Order By S#;").rows[0] == ("S1", 13)
    assert reopened.explain("SP") == [item.sql for item in reopened.catalog.get("SP").plan]


def test_a_relation_named_with_a_double_quote_reopens(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    create = ('Create Table [x"y] (K Char, I (Select V From S Where [x"y].K = S.K),'
              ' Primary Key (K));')
    layer.apply_source("Create Table S (K Char, V Char, Primary Key (K));"
                       "Insert Into S Values ('a', 'v');" + create
                       + """Insert Into [x"y] Values ('a');""")
    [[source]] = layer.conn.execute(
        "SELECT source_text FROM sir_relations WHERE name = ?", ['x"y']).rows
    assert source.startswith('CREATE TABLE [x"y] (')
    assert render_source(parse_one(source)) == source
    assert render_source(parse_one(create)) == source
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    reopened.catalog.audit()
    assert reopened.query("""Select K, V From [x"y] Where K = 'a';""").rows == [("a", "v")]
    reopened.apply_source("""Alter Table [x"y] Add W Char;""")
    assert reopened.query("""Select * From [x"y];""").rows == [("a", "v", None)]
    reopened.conn.close()
    SirLayer(KernelConnection(location)).catalog.audit()


def test_a_view_named_with_a_double_quote_follows_an_alter(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("Create Table S (K Char, V Char, Primary Key (K));"
                       """Insert Into S Values ('a', 'v');Create View [a"b] As Select * From S;""")
    assert layer.query("""Select * From [a"b];""").rows == [("a", "v")]
    layer.apply_source("Alter Table S Add NOTE Char;")
    assert [c.name for c in layer.catalog.get('a"b').columns] == ["K", "V", "NOTE"]
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    reopened.catalog.audit()
    rows = reopened.query("""Select * From [a"b];""")
    assert (rows.columns, rows.rows) == (["K", "V", "NOTE"], [("a", "v", None)])


def test_load_detects_missing_kernel_object(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)), with_data=False)
    layer.conn.execute("DROP VIEW SP_1")  # sabotage behind the catalog's back
    layer.conn.close()
    with pytest.raises(CorruptCatalog, match="SP_1"):
        SirLayer(KernelConnection(location))


def test_dependents_in_registration_order(layer):
    layer.apply_source("""
    Create Table S (S# Char, SNAME Char, Primary Key (S#));
    Create Table A (K Char, Primary Key (K), I (Select SNAME From S Where A.K = S#));
    Create Table B (K Char, Primary Key (K), I (Select SNAME From S Where B.K = S#));
    """)
    assert layer.catalog.dependents_of("S") == ["A", "B"]


def test_dependents_order_survives_alter_and_reopen(tmp_path):
    location = str(tmp_path / "deps.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("""
    Create Table A (K Int, X Int, Primary Key (K));
    Create Table B (K Int, Primary Key (K), X (Select X From A Where B.K = A.K));
    Create Table C (K Int, Primary Key (K), X (Select X From A Where C.K = A.K));
    Alter Table B Add W Int;
    """)
    assert layer.catalog.dependents_of("A") == ["B", "C"]
    with pytest.raises(DependentsExist, match="dependents exist: B, C$"):
        layer.apply_source("Drop Table A;")
    layer.conn.close()
    assert SirLayer(KernelConnection(location)).catalog.dependents_of("A") == ["B", "C"]


def _chain(order) -> Catalog:
    """Entries R0..R1999, each reading the one before it, registered in
    `order`; deeper than the interpreter's recursion limit."""
    catalog = Catalog()
    for i in order:
        catalog.attach(CatalogEntry(name=f"R{i}", kind=STORED, scheme=None, columns=[],
                                    references=[f"R{i - 1}"] if i else []))
    return catalog


def test_check_acyclic_walks_a_deep_chain():
    catalog = _chain(range(2000))
    catalog.check_acyclic("R2000", ["R1999"])
    with pytest.raises(CircularReferenceError):
        catalog.check_acyclic("R0", ["R1999"])


@pytest.mark.parametrize("order", [range(2000), range(1999, -1, -1)],
                         ids=["chain-order", "reverse-order"])
def test_transitive_dependents_of_a_deep_chain_come_in_dependency_order(order):
    catalog = _chain(order)
    assert catalog.transitive_dependents("R0") == [f"R{i}" for i in range(1, 2000)]
    assert catalog.transitive_dependents("R1500") == [f"R{i}" for i in range(1501, 2000)]
    assert catalog.transitive_dependents("R1999") == []


def test_transitive_dependents_put_each_relation_after_what_it_reads(layer):
    layer.apply_source("""
    Create Table A (K Char, Primary Key (K));
    Create Table S (K Char, SV Char, Primary Key (K));
    Create Table B (K Char, Primary Key (K), I_S (Select SV From S Where B.K = S.K));
    Create Table C (K Char, Primary Key (K), I_B (Select */K From B_B Where C.K = B_B.K));
    Alter Table A Add I_B (Select SV As BV From B Where A.K = B.K);
    Create View V As Select * From S;
    """)
    # A was registered before S and B but reads B; C reads B's base
    assert layer.catalog.transitive_dependents("S") == ["B", "A", "C", "V"]
    assert layer.catalog.transitive_dependents("B") == ["A", "C"]
    assert layer.catalog.transitive_dependents("A") == []


def _graph_steps(seed: int) -> list[str]:
    """A DDL sequence over S-P2: relations reading a base, a stage view and
    (with `*`) a dimension, a view, seeded ALTER ADDs and DROPs on the two
    dimensions S and P, an ALTER that `rewrite_to_base` rewrites to read
    SP_B, one that makes P, registered first, read the later Z, and a
    DROP ... CASCADE."""
    rng, added = random.Random(seed), []
    steps = [fixture_text("sp2_schema.sirsql"),
             "Create Table X (S# Char, P# Char, Primary Key (S#, P#),"
             " I (Select QTY From SP_B Where X.S# = SP_B.S# And X.P# = SP_B.P#));",
             "Create Table Y (S# Char, P# Char, Primary Key (S#, P#),"
             " I (Select SNAME From SP_1 Where Y.S# = SP_1.S# And Y.P# = SP_1.P#));",
             "Create Table Z (K Char, F Char, Primary Key (K), I (Select */S# From S Where Z.F = S#));",
             "Create View V As Select * From Z;",
             "Create Table W (K Char, Primary Key (K), I (Select */K From Z Where W.K = Z.K));"]
    for i in range(4):
        if added and rng.random() < 0.5:
            dim, column = added.pop(rng.randrange(len(added)))
            steps.append(f"Alter Table {dim} Drop {column};")
        else:
            added.append((rng.choice("SP"), f"N{i}"))
            steps.append(f"Alter Table {added[-1][0]} Add {added[-1][1]} Char;")
    return steps + [ALTER_STATUS_OVER_SP, "Drop Table Z Cascade;", steps[3],
                    "Alter Table P Add I_Z (Select F As ZF From Z Where P.P# = Z.K);"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_dependency_graph_after_each_ddl_equals_a_fresh_session_s(tmp_path, seed):
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location), rewrite_to_base=True)
    for step in _graph_steps(seed):
        layer.apply_source(step)
        fresh = SirLayer(KernelConnection(location))
        for entry in fresh.catalog.entries():
            assert layer.catalog.dependents_of(entry.name) == \
                fresh.catalog.dependents_of(entry.name), (step, entry.name)
            assert layer.catalog.transitive_dependents(entry.name) == \
                fresh.catalog.transitive_dependents(entry.name), (step, entry.name)
        fresh.conn.close()
    # S reads SP_B, so it counts as a reader of SP, registered after it;
    # P reads the Z created after it
    assert layer.catalog.dependents_of("SP") == ["S", "X", "Y"]
    assert layer.catalog.transitive_dependents("S") == ["Z", "P", "SP", "X", "Y"]


def test_a_reader_registered_before_the_owner_of_what_it_reads_counts_for_it():
    catalog = Catalog()
    catalog._reverse()
    catalog.attach(CatalogEntry(name="A", kind=STORED, scheme=None, columns=[],
                                references=["X_B"]))
    owner = compiler.compile_sir(scheme_from_ast(parse_one(
        "Create Table X (K Int, Primary Key (K), V As (K + 1));")), catalog)
    catalog.attach(owner)
    assert catalog.dependents_of("X") == ["A"]
    catalog.detach("X")
    catalog.attach(owner)
    scratch = catalog.copy()
    scratch.detach("X")
    assert scratch.transitive_dependents("A") == []
    assert catalog.dependents_of("X_B") == catalog.dependents_of("X") == ["A"]
    assert catalog.transitive_dependents("X") == ["A"]


def test_the_dependency_graph_is_built_at_most_once_a_ddl(tmp_path, monkeypatch):
    location = str(tmp_path / "db.sqlite")
    SirLayer(KernelConnection(location)).apply_source(_catalog_source(300))
    builds = []
    reverse = Catalog._reverse

    def counted(catalog):
        if catalog._readers is None:
            builds.append(catalog)
        return reverse(catalog)

    monkeypatch.setattr(Catalog, "_reverse", counted)
    layer = SirLayer(KernelConnection(location))
    assert builds == []
    # the CREATE checks for a cycle along what each relation reads
    for statement, most in [
            ("Create Table N (A Int, Primary Key (A), I (Select */K From D Where N.A = K));", 0),
            ("Alter Table D Add NOTE Char;", 1), ("Alter Table D Drop NOTE;", 1),
            ("Drop Table N;", 1)]:
        builds.clear()
        layer.apply_source(statement)
        assert len(builds) <= most, statement
    # the DROP's change drops the map; the next reader builds it again
    builds.clear()
    assert layer.catalog.dependents_of("D") == [f"R{i}" for i in range(1, 300, 3)]
    assert layer.catalog.dependents_of("R1") == ["V3"]
    assert len(builds) == 1


def test_drop_cascade_drops_an_earlier_registered_reader_first(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("""
    Create Table A (K Char, Primary Key (K));
    Create Table B (K Char, BV Char, Primary Key (K));
    Create Table C (K Char, Primary Key (K), I_B (Select BV From B Where C.K = B.K));
    Alter Table A Add I_C (Select */K From C Where A.K = C.K);
    Create Table D (K Char, Primary Key (K));
    """)
    result = layer.apply_source("Drop Table B Cascade;")[0]
    assert result.objects == ["A", "A_B", "C", "C_B", "B"]
    assert [entry.name for entry in layer.catalog.entries()] == ["D"]
    assert layer.conn.query("SELECT name FROM sir_relations").rows == [("D",)]
    assert layer.conn.query("SELECT name FROM sqlite_master WHERE name NOT LIKE 'sir_%'"
                            " AND name NOT LIKE 'sqlite_%'").rows == [("D",)]
    layer.conn.close()
    assert [e.name for e in SirLayer(KernelConnection(location)).catalog.entries()] == ["D"]


def test_view_participates_in_dependency_graph(sp2):
    sp2.apply_source("Create View Smiths As Select * From SP Where SNAME = 'Smith';")
    assert "Smiths" in sp2.catalog.dependents_of("SP")
    entry = sp2.catalog.get("Smiths")
    assert entry.kind == "view"
    assert entry.column_names[:3] == ["S#", "P#", "QTY"]


def test_kernel_object_count_invariant(sp2):
    for entry in sp2.catalog.entries():
        if entry.kind == "sir":
            views = [i for i in entry.plan if i.kind == "view"]
            assert len(entry.kernel_objects) == 1 + len(views)


def _catalog_source(size: int) -> str:
    """`size` relations: a dimension D, then in turn a relation with an IE
    over D, a stored table and a view over the relation two before it."""
    lines = ["Create Table D (K Int, NAME Char, Primary Key (K));"]
    for i in range(1, size):
        if i % 3 == 1:
            lines.append(f"Create Table R{i} (A Int, Primary Key (A),"
                         f" I (Select NAME From D Where R{i}.A = K));")
        elif i % 3 == 2:
            lines.append(f"Create Table T{i} (A Int, B Char, Primary Key (A));")
        else:
            lines.append(f"Create View V{i} As Select * From R{i - 2};")
    return "\n".join(lines)


def test_load_sends_a_fixed_number_of_statements(tmp_path, kernel_log):
    counts = []
    for size in (3, 60):
        location = str(tmp_path / f"db{size}.sqlite")
        layer = SirLayer(KernelConnection(location))
        layer.apply_source(_catalog_source(size))
        before = layer.catalog.snapshot()
        layer.conn.close()

        conn = KernelConnection(location)
        sent = kernel_log(conn)
        loaded = Catalog.load(conn)
        counts.append(len(sent))
        conn.close()
        assert len(loaded.entries()) == size
        assert loaded.snapshot() == before
    # the schema version, sqlite_master and sir_relations
    assert counts == [3, 3]


def _built(layer) -> set[str]:
    """The relations whose columns or plan the session has built."""
    return {entry.name for entry in layer.catalog.entries()
            if {"columns", "plan"} & vars(entry).keys()}


def test_an_open_builds_only_the_relations_a_statement_reads(tmp_path):
    source = _catalog_source(300) + """
    Create Table W (A Int, Primary Key (A), I_R (Select */A From R1 Where W.A = R1.A));"""
    creating = SirLayer(KernelConnection(str(tmp_path / "creating.sqlite")))
    creating.apply_source(source)
    location = str(tmp_path / "reopened.sqlite")
    SirLayer(KernelConnection(location)).apply_source(source)

    reopened = SirLayer(KernelConnection(location))
    assert len(reopened.catalog.entries()) == 301 and _built(reopened) == set()
    assert reopened.query("Select Count(*) From R1;").rows == [(0,)]
    # R1's chain; of D, the source its join stage reads, only the scheme's key
    assert _built(reopened) == {"R1"}
    # W stars over R1, so it is recompiled; the view V3 reads R1 and is probed
    alter = "Alter Table R1 Add NOTE Char;"
    assert [(r.action, r.objects) for r in reopened.apply_source(alter)] == \
        [(r.action, r.objects) for r in creating.apply_source(alter)]
    assert _built(reopened) <= {"R1", "D", "W", "V3"}
    assert kernel_state(reopened.conn) == kernel_state(creating.conn)
    assert reopened.catalog.audit() is None and creating.catalog.audit() is None
    assert reopened.catalog.snapshot() == creating.catalog.snapshot()
    assert reopened.query("Select * From W;").columns == ["A", "NAME", "NOTE"]


def test_an_entry_built_directly_keeps_its_fields_and_defaults():
    assert [(p.name, p.default is p.empty)
            for p in inspect.signature(CatalogEntry).parameters.values()] == [
        ("name", True), ("kind", True), ("scheme", True), ("columns", True),
        ("plan", False), ("references", False), ("source_text", False)]
    first, second = (CatalogEntry(name="R", kind=STORED, scheme=None, columns=[])
                     for _ in range(2))
    assert (first.plan, first.references, first.ie_order, first.source_text) == ([], [], [], "")
    assert first.plan is not second.plan and first.references is not second.references
    with pytest.raises(TypeError, match="scheme"):
        CatalogEntry(name="R", kind=STORED, columns=[])


# the faults `Catalog.load` finds without parsing a scheme
_FOUND_AT_OPEN = "kernel object|unreadable plan"


@pytest.mark.parametrize("sabotage, message", [
    ("DROP TABLE P", "^P: kernel object 'P'"),
    ("DROP TABLE SP_B", "^SP: kernel object 'SP_B'"),
    ("UPDATE sir_relations SET plan = 'not json' WHERE name = 'SP'", "^SP: unreadable plan"),
    # one row holding two documents is not JSON
    ("UPDATE sir_relations SET plan = plan || ', {}' WHERE name = 'S'", "^S: unreadable plan"),
    ("UPDATE sir_relations SET plan = '[[\"SP_B\", \"table\", \"\", {}, 1]]'"
     " WHERE name = 'SP'", "^SP: unreadable plan"),
    ("UPDATE sir_relations SET source_text = 'Create Tabel P' WHERE name = 'P'",
     "^P: unparseable source text"),
    ("UPDATE sir_relations SET source_text = 'Select * From S;' WHERE name = 'P'",
     "^P: source text is not a table"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[0]',"
     " json('[\"SP_B\", \"table\", \"\", {}, 1]')) WHERE name = 'SP'", "^SP: unreadable plan"),
    # a plan row's third field is its stage facts, and no row has a fourth
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[0]',"
     " json('[\"SP_B\", \"table\", 5]')) WHERE name = 'SP'", "^SP: unreadable plan"),
    ("UPDATE sir_relations SET plan = json_insert(plan, '$.plan[1][#]', 1) WHERE name = 'SP'",
     "^SP: unreadable plan"),
    # stage facts without a stage's fields, or with another field
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[1][2]',"
     " json('{\"kind\": \"join\"}')) WHERE name = 'SP'", "^SP: unreadable plan"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[1][2].cost', 1) WHERE name = 'SP'",
     "^SP: unreadable plan"),
    # stage facts realizing an IE the scheme does not declare
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[1][2].ies', json('[\"I_X\"]'))"
     " WHERE name = 'SP'", "^SP: recorded IEs"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[0][0]', 5) WHERE name = 'SP'",
     "^SP: unreadable plan"),
    # a view's row records its columns
    ("UPDATE sir_relations SET plan = json_remove(plan, '$.columns') WHERE name = 'V'",
     "^V: unreadable plan"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.columns[1]', json('[\"SNAME\"]'))"
     " WHERE name = 'V'", "^V: unreadable plan"),
])
def test_load_rejects_each_kind_of_corruption(tmp_path, sabotage, message, capsys):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)), with_data=False)
    layer.apply_source("Create View V As Select S#, SNAME From S;")
    conn = layer.conn
    conn.execute(sabotage)  # behind the catalog's back
    conn.close()
    if re.search(_FOUND_AT_OPEN, message):
        with pytest.raises(CorruptCatalog, match=message):
            SirLayer(KernelConnection(location))
    else:
        # a fault in a scheme's source text surfaces when the scheme is first
        # read, and one in the stage facts' IEs when the columns are: routing
        # Count(*) reads the schemes of SP and its sources, and expanding
        # */QTY reads SP's columns
        reopened = SirLayer(KernelConnection(location))
        with pytest.raises(CorruptCatalog, match=message):
            reopened.query("Select Count(*) From SP;")
            reopened.query("Select */QTY From SP;")
    assert main(["-k", location, "check", "--catalog"]) == 2
    assert re.search(message, capsys.readouterr().err.removeprefix("error: "))


def test_corrupt_scheme_raises_on_every_read(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)), with_data=False)
    layer.conn.execute("UPDATE sir_relations SET source_text = 'Create Tabel P' WHERE name = 'P'")
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))
    for _ in range(2):
        with pytest.raises(CorruptCatalog, match="^P: unparseable source text"):
            reopened.query("Select Count(*) From SP;")
    with pytest.raises(CorruptCatalog, match="^P: unparseable source text"):
        reopened.catalog.get("P").scheme


def test_check_catalog_passes_a_sound_catalog(tmp_path, capsys):
    location = str(tmp_path / "db.sqlite")
    load_sp2(SirLayer(KernelConnection(location))).conn.close()
    assert main(["-k", location, "check", "--catalog"]) == 0
    assert capsys.readouterr().out == "ok: 3 relations\n"


def test_alter_through_other_case_round_trips(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("Alter Table sp Add NOTE Char; Alter Table p Add Before WEIGHT GRADE Int;")
    before = layer.catalog.snapshot()
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == before
    assert reopened.catalog.get("SP").column_names[-1] == "NOTE"
    assert reopened.catalog.get("P").column_names[3:5] == ["GRADE", "WEIGHT"]
    assert len(reopened.query("Select * From SP;").rows) == 12


def test_owner_of_object_follows_attach_detach_and_copy(sp2):
    catalog = sp2.catalog
    sp = catalog.get("SP")
    assert catalog.owner_of_object("sp_b") is sp
    assert catalog.owner_of_object("SP_1") is sp
    assert catalog.owner_of_object("SP") is None      # a relation's own name
    assert catalog.owner_of_object("S") is None

    scratch = catalog.copy()
    scratch.detach("SP")
    assert scratch.owner_of_object("SP_B") is None
    assert catalog.owner_of_object("SP_B") is sp

    sp2.apply_source("Alter Table SP Add NOTE Char;")
    assert catalog.get("SP") is not sp
    assert catalog.owner_of_object("SP_B") is catalog.get("SP")
    sp2.apply_source("Drop Table SP;")
    assert catalog.owner_of_object("SP_B") is None
    assert catalog.owner_of_object("SP_1") is None


def test_reaches_follows_references(sp2):
    sp2.apply_source("Create View V As Select * From SP;")
    assert sp2.catalog.reaches("V", "s")
    assert sp2.catalog.reaches("SP", "P")
    assert sp2.catalog.reaches("S", "S")
    assert not sp2.catalog.reaches("S", "SP")
    assert not sp2.catalog.reaches("SP", "V")


# --- lazy schemes: a scheme is parsed when it is first read ---


@pytest.fixture
def parsed(monkeypatch):
    """Names of the relations whose scheme the catalog parses, in order."""
    names = []
    real = catalog_module.parse_one

    def counting(text):
        stmt = real(text)
        names.append(getattr(stmt, "name", text))
        return stmt
    monkeypatch.setattr(catalog_module, "parse_one", counting)
    return names


def _sp3_session(location: str) -> SirLayer:
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source(fixture_text("sp3_alters.sirsql"))
    return layer


def test_open_and_explain_parse_no_scheme(tmp_path, parsed, capsys):
    location = str(tmp_path / "sp3.sqlite")
    _sp3_session(location).conn.close()
    layer = SirLayer(KernelConnection(location))
    assert len(layer.catalog.entries()) == 3
    assert layer.explain("SP")[0].startswith("CREATE TABLE")
    assert main(["-k", location, "explain", "SP"]) == 0
    assert "CREATE VIEW" in capsys.readouterr().out
    assert parsed == []
    # columns are derived from the schemes
    layer.catalog.snapshot()
    assert sorted(parsed) == ["P", "S", "SP"]


def test_routing_parses_only_the_schemes_it_reads(tmp_path, parsed):
    location = str(tmp_path / "sp3.sqlite")
    _sp3_session(location).conn.close()
    layer = SirLayer(KernelConnection(location))
    assert len(layer.query("Select * From SP;").rows) == 12    # passes through
    assert parsed == []
    assert layer.query("Select Count(*) From SP;").rows == [(12,)]
    # SP's chain, and the keys of the sources its join stages read
    assert sorted(parsed) == ["P", "S", "SP"]
    layer.query("Select Count(*) From SP;")
    layer.query("Select S#, PNAME From SP Where QTY > 100;")
    assert sorted(parsed) == ["P", "S", "SP"]


ROUTED = [
    "Select Count(*) From SP;",
    "Select S#, SNAME From SP;",
    "Select PNAME, SCITY From SP Where S# = 'S1';",
    "Select * From SP Where QTY > 100;",
    "Select S#, STATUS From S;",
    "Select Count(*) From P;",
    "Insert Into SP (S#, P#, QTY) Values ('S9', 'P9', 1);",
    "Update SP Set QTY = 1 Where SNAME = 'Smith';",
    "Delete From SP Where PCITY = 'Paris';",
]


def _routes(layer):
    out = []
    for text in ROUTED:
        routed = route(parse_one(text), layer.catalog)
        out.append((routed.kind, routed.target, routed.reason, render(routed.kernel_stmt)))
    return out


def test_reopened_catalog_matches_and_routes_alike(tmp_path):
    location = str(tmp_path / "sp3.sqlite")
    layer = _sp3_session(location)
    snapshot, routes = layer.catalog.snapshot(), _routes(layer)
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    assert _routes(reopened) == routes
    assert reopened.catalog.snapshot() == snapshot


def _star_schema(dims: int = 2, rels: int = 4) -> str:
    """`dims` dimensions D<j>, and relations R<i> inheriting every column
    but the key of two of them through `*/K` IEs."""
    lines = [f"Create Table D{j} (D{j}_K Char, D{j}_NAME Char, D{j}_N Int, Primary Key (D{j}_K));"
             for j in range(dims)]
    for i in range(rels):
        a, b = i % dims, (i + 1) % dims
        lines.append(
            f"Create Table R{i} (R{i}_K Char, R{i}_F1 Char, R{i}_F2 Char, Primary Key (R{i}_K),"
            f" I_1 (Select */D{a}_K From D{a} Where R{i}.R{i}_F1 = D{a}_K),"
            f" I_2 (Select */D{b}_K From D{b} Where R{i}.R{i}_F2 = D{b}_K));")
    lines.append("Create View V As Select * From R0;")
    return "\n".join(lines)


def test_alter_cascade_on_a_reopened_session_writes_the_samekernel_state(tmp_path):
    alters = ["Alter Table D0 Add D0_X Char;", "Alter Table D1 Drop D1_N;",
              "Alter Table D0 Drop D0_X;"]
    creating = SirLayer(KernelConnection(str(tmp_path / "creating.sqlite")))
    creating.apply_source(_star_schema())
    location = str(tmp_path / "reopened.sqlite")
    first = SirLayer(KernelConnection(location))
    first.apply_source(_star_schema())
    first.conn.close()
    reopened = SirLayer(KernelConnection(location))
    for alter in alters:
        creating.apply_source(alter)
        reopened.apply_source(alter)
        assert kernel_state(reopened.conn) == kernel_state(creating.conn)
        assert reopened.catalog.snapshot() == creating.catalog.snapshot()
    assert reopened.query("Select * From R1;").columns == \
        ["R1_K", "R1_F1", "R1_F2", "D1_NAME", "D0_NAME", "D0_N"]


# --- catalogs written in the four-table format ---


def _new_format_sp2(location: str) -> SirLayer:
    return load_sp2(SirLayer(KernelConnection(location)))


def _rowid_bases(snapshot: dict, relations: list[str]) -> dict:
    """`snapshot` with the tables of `relations` recorded in the rowid form
    of a file written before bases were key-clustered."""
    out = dict(snapshot)
    for name in relations:
        name, kind, source, columns, plan, refs, order = out[name.casefold()]
        plan = [(obj, k, sql.replace(" WITHOUT ROWID;", ";") if k == "table" else sql, stage)
                for obj, k, sql, stage in plan]
        out[name.casefold()] = (name, kind, source, columns, plan, refs, order)
    return out


def test_four_table_catalog_opens_like_a_new_one(tmp_path, kernel_log):
    legacy_location = str(tmp_path / "legacy.sqlite")
    write_four_table_sp2(legacy_location)
    current = _new_format_sp2(str(tmp_path / "current.sqlite"))

    conn = KernelConnection(legacy_location)
    sent = kernel_log(conn)
    legacy = SirLayer(conn)
    # the three reads, then one upgrade that rewrites the meta rows, probes
    # SP and drops the detail tables; the bases and views stay
    assert sent[:4] == ["PRAGMA user_version", "SELECT name, sql FROM sqlite_master",
                        "SELECT name, kind, source_text, plan FROM sir_relations ORDER BY rowid",
                        "BEGIN IMMEDIATE"] and sent[-1] == "COMMIT"
    assert [s.split(" ")[0] for s in sent[4:-1]] == [
        "PRAGMA", "UPDATE", "UPDATE", "SELECT", "UPDATE", "DROP", "DROP", "DROP", "PRAGMA"]
    assert legacy.conn.query("SELECT name, json_type(plan) FROM sir_relations").rows == \
        [("S", "object"), ("P", "object"), ("SP", "object")]
    assert legacy.conn.query("SELECT name FROM sqlite_master WHERE name LIKE 'sir%'").rows \
        == [("sir_relations",)]
    # the one difference: the legacy bases keep their rowid SQL
    assert legacy.catalog.snapshot() == _rowid_bases(current.catalog.snapshot(),
                                                     ["S", "P", "SP"])
    legacy.catalog.audit()
    for sql in SP2_QUERIES:
        assert legacy.query(sql) == current.query(sql)
    assert legacy.explain("SP") == [current.explain("SP")[0].replace(" WITHOUT ROWID;", ";")] \
        + current.explain("SP")[1:]
    snapshot = legacy.catalog.snapshot()
    conn.close()
    conn = KernelConnection(legacy_location)
    sent = kernel_log(conn)
    assert SirLayer(conn).catalog.snapshot() == snapshot and len(sent) == 3


def test_alter_on_a_four_table_catalog_writes_the_current_form(tmp_path):
    alters = "Alter Table SP Add Before QTY NOTE Char; Alter Table S Add RATING Int;"
    location = str(tmp_path / "legacy.sqlite")
    write_four_table_sp2(location)
    legacy = SirLayer(KernelConnection(location))
    legacy.apply_source(alters)
    legacy.conn.close()
    current = _new_format_sp2(str(tmp_path / "current.sqlite"))
    current.apply_source(alters)

    reopened = SirLayer(KernelConnection(location))
    # S and SP were rebuilt key-clustered; the unaltered P keeps its rowid SQL
    assert reopened.catalog.snapshot() == _rowid_bases(current.catalog.snapshot(), ["P"])
    for sql in SP2_QUERIES:
        assert reopened.query(sql) == current.query(sql)
    # the open upgraded every row, P's too
    assert reopened.conn.query(
        "SELECT name, json_type(plan) FROM sir_relations ORDER BY name").rows == \
        [("P", "object"), ("S", "object"), ("SP", "object")]


# --- files whose meta rows record every relation's columns and IE order -----------

# `sp3_recorded_columns.sql` is the `iterdump()` of S-P3 (S-P2, its rows and
# `sp3_alters.sirsql`) as a release wrote it that recorded each relation's
# columns and IE order in its meta row, beside the stage facts they repeat.


def test_a_file_with_recorded_columns_opens_like_a_fresh_load(tmp_path):
    location = str(tmp_path / "recorded.sqlite")
    replay_dump(location, "sp3_recorded_columns.sql")
    recorded = SirLayer(KernelConnection(location))
    fresh = _new_format_sp2(str(tmp_path / "fresh.sqlite"))
    fresh.apply_source(fixture_text("sp3_alters.sirsql"))
    assert recorded.catalog.snapshot() == fresh.catalog.snapshot()
    for name in ("S", "P", "SP"):
        assert recorded.explain(name) == fresh.explain(name)
    for sql in SP3_QUERIES:
        assert recorded.query(sql) == fresh.query(sql)

    # the first ALTER rewrites the row it touches without the two fields
    for layer in (recorded, fresh):
        layer.apply_source("Alter Table P Add NOTE Char;")
    assert recorded.conn.query(
        "SELECT name, json_type(plan, '$.columns'), json_type(plan, '$.ie_order')"
        " FROM sir_relations ORDER BY name").rows == \
        [("P", None, None), ("S", "array", "array"), ("SP", "array", "array")]
    snapshot = recorded.catalog.snapshot()
    assert snapshot == fresh.catalog.snapshot()
    recorded.conn.close()
    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    for sql in SP3_QUERIES:
        assert reopened.query(sql) == fresh.query(sql)


# --- files written with the fused and collapsed plan shapes -------------------------

# S-P3, plus a LIST subquery, a join with a residual predicate and a star join
# followed by a value IE, each declared out of evaluation order, and a few rows.
# `sp3_skip_collapse.sql` is the `iterdump()` of a file that earlier releases
# wrote from this with `skip_redundant_full_view` (the last stage and the
# reordering fused into one view) and `collapse_value_ies` (consecutive value
# IEs in one stage) on.
SKIP_COLLAPSE_EXTRA = """
Create Table PS (P# Char,
  SUPPLIERS (Select LIST (SP_B.S#, SNAME) From SP_B, S
             Where PS.P# = SP_B.P# And S.S# = SP_B.S# Order By SNAME),
  WEIGHT Int, Primary Key (P#));
Create Table SX (SK Char,
  I_BIG (Select SNAME, CITY As SC From S Where SX.SK = S# And STATUS > 10),
  NOTE Char, Primary Key (SK));
Create Table SY (SK Char,
  I_ALL (Select */S# From S Where SY.SK = S#),
  TWICE As (QTY * 2), QTY Int, Primary Key (SK));
Insert Into PS (P#, WEIGHT) Values ('P1', 12), ('P2', 17), ('P7', 5);
Insert Into SX (SK, NOTE) Values ('S1', 'a'), ('S2', 'b'), ('S9', 'c');
Insert Into SY (SK, QTY) Values ('S1', 3), ('S3', 5), ('S9', 7);
"""
SKIP_COLLAPSE_RELATIONS = ["S", "P", "SP", "PS", "SX", "SY"]


def _skip_collapse_pair(tmp_path) -> tuple[SirLayer, SirLayer]:
    """The flag-written file, and the same statements compiled today."""
    location = str(tmp_path / "flags.sqlite")
    replay_dump(location, "sp3_skip_collapse.sql")
    default = _new_format_sp2(str(tmp_path / "default.sqlite"))
    default.apply_source(fixture_text("sp3_alters.sirsql"))
    default.apply_source(SKIP_COLLAPSE_EXTRA)
    return SirLayer(KernelConnection(location)), default


def _answers(layer: SirLayer) -> list:
    """Rows and counts of every relation, after checking that the kernel
    holds exactly the recorded views and each full view the recorded columns."""
    assert dict(layer.conn.query("SELECT name, sql || ';' FROM sqlite_master"
                                 " WHERE type = 'view'").rows) == \
        {item.name: item.sql for entry in layer.catalog.entries() for item in entry.views}
    out = []
    for name in SKIP_COLLAPSE_RELATIONS:
        rows = layer.query(f"Select * From {name};")
        assert rows.columns == layer.catalog.get(name).column_names
        out.append((rows.columns, sorted(rows.rows, key=repr),
                    layer.query(f"Select Count(*) From {name};").rows))
    return out


def test_a_skip_collapse_file_answers_like_a_default_one(tmp_path, capsys):
    flagged, default = _skip_collapse_pair(tmp_path)
    flagged.catalog.audit()
    # the open recompiled the fused and collapsed chains to the default ones;
    # the bases are the file's
    assert [len(flagged.explain(name)) for name in SKIP_COLLAPSE_RELATIONS] == [3, 4, 3, 3, 3, 4]
    for name in SKIP_COLLAPSE_RELATIONS:
        assert flagged.explain(name)[1:] == default.explain(name)[1:]
    assert flagged.catalog.get("P").views[0].stage.ies == ["WEIGHT_KG"]
    assert _answers(flagged) == _answers(default)
    for name in SKIP_COLLAPSE_RELATIONS:
        count = parse_one(f"Select Count(*) From {name};")
        assert route(count, flagged.catalog).target == f"{name}_B"
        assert flagged.check(name) == []
        for item in flagged.catalog.get(name).views:
            assert flagged.catalog.resolve_columns(item.name) == \
                flagged.conn.introspect(item.name)
    snapshot, location = flagged.catalog.snapshot(), flagged.conn.location
    flagged.conn.close()
    assert main(["-k", location, "check", "--catalog"]) == 0
    assert capsys.readouterr().out == "ok: 6 relations\n"
    assert SirLayer(KernelConnection(location)).catalog.snapshot() == snapshot


def test_a_base_a_rename_quoted_is_rebuilt_with_the_compilers_text(tmp_path, kernel_log):
    """A rename of an earlier release left `CREATE TABLE "P_B" …` in the
    kernel.  The open's upgrade keeps every base and shows the kernel's
    text; the first ALTER rebuilds the base, with its rows and indexes,
    instead of extending that text in place."""
    location = str(tmp_path / "flags.sqlite")
    replay_dump(location, "sp3_skip_collapse.sql")
    conn = KernelConnection(location)
    sent = kernel_log(conn)
    layer = SirLayer(conn)
    assert "BEGIN IMMEDIATE" in sent
    assert not [s for s in sent if s.startswith(("CREATE TABLE", "INSERT", "ALTER"))
                or s.startswith("DROP TABLE") and "IF EXISTS sir_" not in s]
    kernel_text = conn.query("SELECT sql || ';' FROM sqlite_master WHERE name = 'P_B'").rows
    assert layer.explain("P")[0] == kernel_text[0][0]
    assert layer.explain("P")[0].startswith('CREATE TABLE "P_B" (')
    layer.apply_source("Create Index p_city On P (CITY);")
    rows = layer.query("Select * From P_B Order By P#;").rows

    sent.clear()
    layer.apply_source("Alter Table P Add NOTE Char;")
    assert "CREATE TABLE sir_rebuild AS SELECT \"P#\", PNAME, COLOR, WEIGHT, CITY FROM P_B;" \
        in sent
    assert layer.query("Select * From P_B Order By P#;").rows == [row + (None,) for row in rows]
    assert conn.query("SELECT name, tbl_name FROM sqlite_master WHERE name = 'p_city'").rows \
        == [("p_city", "P_B")]
    base = layer.explain("P")[0]
    assert base == compiler._base_table_sql(layer.catalog.get("P").scheme, "P_B")
    assert base.startswith("CREATE TABLE P_B (")
    assert base.endswith(', CITY Char, NOTE Char, PRIMARY KEY ("P#")) WITHOUT ROWID;')
    assert_plans_match_kernel(layer)
    snapshot = layer.catalog.snapshot()
    conn.close()
    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    assert_plans_match_kernel(reopened)


def test_no_plan_document_holds_kernel_sql(sp3):
    """Each plan row is [name, kind], plus the stage facts of a view stage:
    `sqlite_master` alone holds the objects' text."""
    for name, stored in sp3.conn.query("SELECT name, plan FROM sir_relations").rows:
        assert "CREATE" not in stored.upper(), name
        for row in json.loads(stored)["plan"]:
            assert len(row) in (2, 3) and all(isinstance(f, str) for f in row[:2]), name
            assert len(row) == 2 or isinstance(row[2], dict), name
    assert_plans_match_kernel(sp3)


@pytest.mark.parametrize("relation", ["S", "P", "PS", "SX", "SY"])
def test_an_alter_turns_a_fused_or_collapsed_chain_into_the_default_one(tmp_path, relation):
    flagged, default = _skip_collapse_pair(tmp_path)
    alter = f"Alter Table {relation} Add NOTE2 Char;"
    flagged.apply_source(alter)
    default.apply_source(alter)
    assert flagged.explain(relation) == default.explain(relation)
    assert _answers(flagged) == _answers(default)
    snapshot, location = flagged.catalog.snapshot(), flagged.conn.location
    flagged.conn.close()
    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    reopened.catalog.audit()
    assert _answers(reopened) == _answers(default)
