"""Files that earlier releases wrote, upgraded once at open.

A meta row in an earlier form (a four-table catalog's plan list, a plan row
holding its object's SQL, a view stage without stage facts) is compiled
again from its source text, in one DDL transaction, when a session opens
the file.  Every dump under `tests/fixtures/` is checked against a fresh
compile here, so a new dump fixture is covered by adding the file.
"""

from __future__ import annotations

import sqlite3
from dataclasses import astuple

import pytest

from sirsql.catalog import VIEW, Catalog, CatalogEntry, ColumnInfo, referenced_relations
from sirsql.cli import main
from sirsql.compiler import compile_sir
from sirsql.errors import CorruptCatalog, KernelError
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
from sirsql.parser import parse_one

from conftest import (COLD_READS, FIXTURES, SP2_QUERIES, SP3_QUERIES, VERSIONS_TRACED,
                      fixture_text, kernel_state, load_sp2, make_layer, replay_dump,
                      write_seed_documents)

DUMPS = sorted(path.name for path in FIXTURES.glob("*.sql"))


def _shape(entry) -> tuple:
    """An entry as `Catalog.snapshot` records it, with the text of each kernel
    object an upgrade keeps masked: a base table's, and a view's."""
    kept = {entry.plan[0].name} if entry.kind != VIEW else {entry.name}
    return (entry.name, entry.kind, entry.source_text, [astuple(c) for c in entry.columns],
            [(i.name, i.kind, None if i.name in kept else i.sql, i.stage) for i in entry.plan],
            [r.casefold() for r in entry.references], list(entry.ie_order))


def _fresh(layer: SirLayer, entry) -> tuple:
    """`_shape` of the entry that compiling its source text today gives: a
    table's compiled against the session's catalog, a view's columns read
    from the kernel and its references from its select."""
    if entry.kind != VIEW:
        return _shape(compile_sir(entry.scheme, layer.catalog))
    select = parse_one(entry.source_text).select
    columns = [ColumnInfo(c, None, False, True, None) for c in layer.conn.introspect(entry.name)]
    return _shape(CatalogEntry(entry.name, VIEW, None, columns, entry.plan,
                               referenced_relations(select), source_text=entry.source_text))


def _sp_sessions() -> dict:
    """Fresh S-P2 and S-P3 sessions, with their rows, by P's columns."""
    sp2 = load_sp2(make_layer())
    sp3 = load_sp2(make_layer())
    sp3.apply_source(fixture_text("sp3_alters.sirsql"))
    return {tuple(sp2.catalog.get("P").column_names): (sp2, SP2_QUERIES),
            tuple(sp3.catalog.get("P").column_names): (sp3, SP3_QUERIES)}


@pytest.mark.parametrize("dump", DUMPS)
def test_each_dump_opens_as_a_fresh_compile_of_its_source_texts(tmp_path, dump, kernel_log):
    location = str(tmp_path / "dump.sqlite")
    replay_dump(location, dump)
    layer = SirLayer(KernelConnection(location))
    layer.catalog.audit()
    assert layer.conn.query("SELECT DISTINCT json_type(plan) FROM sir_relations").rows == \
        [("object",)]
    assert layer.conn.query("SELECT name FROM sqlite_master WHERE name LIKE 'sir%'").rows == \
        [("sir_relations",)]
    for entry in layer.catalog.entries():
        assert _shape(entry) == _fresh(layer, entry), entry.name
    # every dump holds S-P2 or S-P3 and its rows, maybe with more relations
    fresh, queries = _sp_sessions()[tuple(layer.catalog.get("P").column_names)]
    for sql in queries:
        assert layer.query(sql) == fresh.query(sql), sql

    snapshot = layer.catalog.snapshot()
    layer.conn.close()
    conn = KernelConnection(location)
    sent = kernel_log(conn)
    assert SirLayer(conn).catalog.snapshot() == snapshot
    # the process's latest DDL is an in-memory session's, whose catalog
    # vouches for no text of this file
    assert sent == COLD_READS


# S-P3, where S reads SP_B and SP reads S; P reads Z, which is registered
# after it; Y reads the columns of the view V with a star
SEED_EXTRA = """
Create Table Z (ZK Char, ZNOTE Char, Primary Key (ZK));
Insert Into Z Values ('Red', 'warm'), ('Blue', 'cold');
Alter Table P Add I_Z (Select ZNOTE From Z Where P.COLOR = ZK);
Create View V As Select * From S;
Create Table Y (K Char, Primary Key (K), I_V (Select */S# From V Where Y.K = V.S#));
Insert Into Y Values ('S1'), ('S2'), ('S9');
"""
SEED_QUERIES = SP3_QUERIES + ["Select * From P Order By P#;", "Select * From Y Order By K;",
                              "Select * From V Order By S#;"]


def _seed_written(location: str) -> tuple[list, dict, list, int]:
    """A file of S-P3 plus `SEED_EXTRA` with every meta row as the seed wrote
    it; its kernel state, snapshot, answers and DDL version before that
    rewrite."""
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source(fixture_text("sp3_alters.sirsql") + SEED_EXTRA)
    before = kernel_state(layer.conn), layer.catalog.snapshot(), \
        [layer.query(sql) for sql in SEED_QUERIES], layer.catalog.version
    write_seed_documents(layer)
    layer.conn.close()
    return before


def test_a_seed_written_file_upgrades_to_the_rows_it_was_written_from(tmp_path, kernel_log):
    location = str(tmp_path / "seed.sqlite")
    state, snapshot, answers, version = _seed_written(location)
    conn = KernelConnection(location)
    sent = kernel_log(conn)
    layer = SirLayer(conn)
    # only meta rows and the version change: each chain compiles to the
    # views the kernel already holds
    assert kernel_state(conn) == state
    assert not [s for s in sent if s.startswith(("CREATE", "DROP VIEW", "ALTER", "INSERT"))]
    assert conn.versions()[0] == layer.catalog.version == version + 1
    assert layer.catalog.snapshot() == snapshot
    assert [layer.query(sql) for sql in SEED_QUERIES] == answers
    assert [item.stage.kind for item in layer.catalog.get("SP").views] == ["join", "join"]


def test_a_session_that_loses_the_upgrade_race_reloads(tmp_path, kernel_log, monkeypatch):
    location = str(tmp_path / "seed.sqlite")
    _, snapshot, answers, version = _seed_written(location)
    load = Catalog.load

    def load_then_let_another_session_open(conn):
        monkeypatch.setattr(Catalog, "load", load)
        catalog = load(conn)
        SirLayer(KernelConnection(location)).conn.close()     # it upgrades first
        return catalog

    monkeypatch.setattr(Catalog, "load", load_then_let_another_session_open)
    conn = KernelConnection(location)
    sent = kernel_log(conn)
    late = SirLayer(conn)
    # its upgrade found the version moved, rolled back and loaded again
    assert sent[:5] == COLD_READS
    assert sent[-10:] == ["BEGIN IMMEDIATE", *VERSIONS_TRACED, "ROLLBACK"] + COLD_READS
    assert not [s for s in sent if s.startswith(("UPDATE", "CREATE", "DROP"))]
    assert late.catalog.version == version + 1 and late.catalog.snapshot() == snapshot
    assert [late.query(sql) for sql in SEED_QUERIES] == answers


@pytest.mark.parametrize("sabotage, message", [
    ("UPDATE sir_relations SET source_text = 'Create Tabel P' WHERE name = 'P'",
     "^P: unparseable source text"),
    ("UPDATE sir_relations SET source_text = 'Create Table V (A Int);' WHERE name = 'V'",
     "^V: source text is not a view definition"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[0]',"
     " json('[\"SP_B\", \"table\", \"\", {}, 1]')) WHERE name = 'SP'", "^SP: unreadable plan"),
])
def test_an_outdated_row_that_cannot_be_upgraded_fails_the_open(tmp_path, sabotage, message,
                                                                 capsys):
    location = str(tmp_path / "seed.sqlite")
    _seed_written(location)
    conn = KernelConnection(location)
    conn.execute(sabotage)
    state = kernel_state(conn)
    with pytest.raises(CorruptCatalog, match=message):
        SirLayer(conn)
    assert kernel_state(conn) == state
    conn.close()
    assert main(["-k", location, "check", "--catalog"]) == 2
    assert message.lstrip("^") in capsys.readouterr().err


def test_a_failed_probe_of_an_upgrade_raises_the_kernels_error(tmp_path):
    # behind the catalog's back Z loses ZNOTE, which P's kept view stage reads;
    # an upgrade is no ALTER, so its probe's error is not a dependent's refusal
    location = str(tmp_path / "seed.sqlite")
    _seed_written(location)
    conn = KernelConnection(location)
    conn.execute("DROP TABLE Z")
    conn.execute("CREATE TABLE Z (ZK Char, PRIMARY KEY (ZK))")
    state = kernel_state(conn)
    with pytest.raises(KernelError, match="no such column: Z.ZNOTE"):
        SirLayer(conn)
    assert kernel_state(conn) == state


def test_two_relations_that_read_each_others_stages_cannot_be_upgraded(tmp_path):
    # P reads SP_1, which needs only S, but the upgrade compiles whole chains,
    # and SP reads P
    location = str(tmp_path / "seed.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("Alter Table P Add I_X (Select Count(*) As N From SP_1"
                       " Where P.P# = P#);")
    write_seed_documents(layer)
    state = kernel_state(layer.conn)
    layer.conn.close()
    conn = KernelConnection(location)
    with pytest.raises(CorruptCatalog, match="read each other's stages"):
        SirLayer(conn)
    assert kernel_state(conn) == state


# --- a file the session cannot write ---------------------------------------------


def _unwritable(conn: KernelConnection, location: str, how: str):
    """Make `conn` unable to write: read-only, or with the file locked by
    another connection (returned; closing it releases the lock)."""
    if how == "read-only":
        conn.execute("PRAGMA query_only = 1")
        return None
    conn.execute("PRAGMA busy_timeout = 100")
    other = sqlite3.connect(location, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    return other


_REFUSED = {"read-only": "readonly database", "locked": "database is locked"}


@pytest.mark.parametrize("how", ["read-only", "locked"])
@pytest.mark.parametrize("statement", [
    "Create Table U (A Int, Primary Key (A));",
    "Insert Into SP (S#, P#, QTY) Values ('S2', 'P3', 1);"])
def test_a_write_that_cannot_take_the_lock_raises_kernel_error(tmp_path, how, statement):
    location = str(tmp_path / "db.sqlite")
    load_sp2(SirLayer(KernelConnection(location))).conn.close()
    layer = SirLayer(KernelConnection(location), strict_integrity=True)
    state, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    other = _unwritable(layer.conn, location, how)
    with pytest.raises(KernelError, match=_REFUSED[how]):
        layer.apply_source(statement)
    assert kernel_state(layer.conn) == state and layer.catalog.snapshot() == snapshot
    if other is not None:
        other.close()
    layer.conn.execute("PRAGMA query_only = 0")
    layer.apply_source(statement)


@pytest.mark.parametrize("how", ["read-only", "locked"])
def test_an_upgrade_that_cannot_take_the_lock_fails_the_open(tmp_path, how):
    location = str(tmp_path / "seed.sqlite")
    _, snapshot, _, _ = _seed_written(location)
    conn = KernelConnection(location)
    state = kernel_state(conn)
    other = _unwritable(conn, location, how)
    with pytest.raises(KernelError, match=_REFUSED[how]):
        SirLayer(conn)
    assert kernel_state(conn) == state
    if other is not None:
        other.close()
    conn.execute("PRAGMA query_only = 0")
    assert SirLayer(conn).catalog.snapshot() == snapshot
