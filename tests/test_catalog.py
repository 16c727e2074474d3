from __future__ import annotations

import pytest

from sirsql.catalog import STORED, Catalog, CatalogEntry
from sirsql.errors import (CircularReferenceError, CorruptCatalog, DependentsExist,
                           DuplicateName, InvariantViolation, NameCollision,
                           UnknownRelation)
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

from conftest import load_sp2

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


def test_load_detects_missing_kernel_object(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)), with_data=False)
    layer.conn.execute("DROP VIEW SP_1")  # sabotage behind the catalog's back
    layer.conn.close()
    with pytest.raises(CorruptCatalog, match="SP_1"):
        SirLayer(KernelConnection(location))


def test_load_detects_tampered_meta_rows(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)), with_data=False)
    layer.conn.execute("DELETE FROM sir_ies WHERE rel = 'SP' AND name = 'I_P'")
    layer.conn.close()
    with pytest.raises(CorruptCatalog):
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


def test_check_acyclic_walks_a_deep_chain():
    catalog = Catalog()
    for i in range(2000):
        catalog.attach(CatalogEntry(name=f"R{i}", kind=STORED, scheme=None, columns=[],
                                    references=[f"R{i - 1}"] if i else []))
    catalog.check_acyclic("R2000", ["R1999"])
    with pytest.raises(CircularReferenceError):
        catalog.check_acyclic("R0", ["R1999"])


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


def test_load_sends_a_fixed_number_of_statements(tmp_path):
    counts = []
    for size in (3, 60):
        location = str(tmp_path / f"db{size}.sqlite")
        layer = SirLayer(KernelConnection(location))
        layer.apply_source(_catalog_source(size))
        before = layer.catalog.snapshot()
        layer.conn.close()

        conn = KernelConnection(location)
        sent = []
        conn._db.set_trace_callback(sent.append)
        loaded = Catalog.load(conn)
        conn._db.set_trace_callback(None)
        conn.close()
        assert len(loaded.entries()) == size
        assert loaded.snapshot() == before
        counts.append(len(sent))
    assert counts[0] == counts[1] <= 6


@pytest.mark.parametrize("sabotage, message", [
    ("DROP TABLE P", "^P: kernel object 'P'"),
    ("DROP TABLE SP_B", "^SP: kernel object 'SP_B'"),
    ("UPDATE sir_relations SET plan = 'not json' WHERE name = 'SP'", "^SP: unreadable plan"),
    ("UPDATE sir_relations SET plan = '[[\"SP_B\", \"table\", \"\", {}, 1]]'"
     " WHERE name = 'SP'", "^SP: unreadable plan"),
    ("UPDATE sir_relations SET source_text = 'Create Tabel P' WHERE name = 'P'",
     "^P: unparseable source text"),
    ("UPDATE sir_relations SET source_text = 'Select * From S;' WHERE name = 'P'",
     "^P: source text is not a table"),
    ("DELETE FROM sir_ies WHERE rel = 'SP'", "^SP: sir_ies rows"),
    ("DELETE FROM sir_attrs WHERE rel = 'P'", "^P: sir_attrs rows"),
    ("DELETE FROM sir_attrs WHERE rel = 'SP' AND NOT is_inherited", "^SP: sir_attrs rows"),
    # meta rows belong to the relation whose name they repeat exactly
    ("UPDATE sir_attrs SET rel = 'sp' WHERE rel = 'SP'", "^SP: sir_attrs rows"),
    ("UPDATE sir_ies SET rel = 'sp' WHERE rel = 'SP'", "^SP: sir_ies rows"),
])
def test_load_rejects_each_kind_of_corruption(tmp_path, sabotage, message):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)), with_data=False)
    layer.conn.execute(sabotage)  # behind the catalog's back
    layer.conn.close()
    with pytest.raises(CorruptCatalog, match=message):
        SirLayer(KernelConnection(location))


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
