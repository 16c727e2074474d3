"""Two sessions over one kernel file: a DDL statement never commits over a
catalog that another session's DDL has made stale, and a session opened
while another is alive takes over its entries, loaded or compiled for its
own DDL, only for unchanged rows."""

from __future__ import annotations

import argparse
import gc
import sqlite3
import threading
import weakref

import pytest

from sirsql.catalog import Catalog
from sirsql.cli import EXIT_RUNTIME, cmd_apply
from sirsql.errors import CorruptCatalog, StaleCatalog
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
from sirsql.parser import parse_one

from conftest import SP2_QUERIES, kernel_state, load_sp2


def _two_sessions(tmp_path, extra: str = ""):
    """A file holding S-P2 (and `extra`), and two sessions opened over it."""
    location = str(tmp_path / "db.sqlite")
    creating = load_sp2(SirLayer(KernelConnection(location)))
    creating.apply_source(extra)
    creating.conn.close()
    return location, SirLayer(KernelConnection(location)), SirLayer(KernelConnection(location))


def test_alter_over_a_stale_catalog_is_refused(tmp_path):
    location, a, b = _two_sessions(tmp_path)
    a.apply_source("Alter Table SP Drop I_P;")
    kernel, snapshot = kernel_state(a.conn), a.catalog.snapshot()

    # b's plan still lists SP_1, which a's alter dropped
    with pytest.raises(StaleCatalog):
        b.apply_source("Alter Table SP Add Before QTY NOTE2 Char;")
    assert kernel_state(b.conn) == kernel
    fresh = SirLayer(KernelConnection(location))
    assert fresh.catalog.snapshot() == snapshot
    fresh.catalog.audit()
    assert len(fresh.query("Select * From SP;").rows) == 12
    fresh.apply_source("Alter Table SP Add Before QTY NOTE2 Char;")
    assert fresh.query("Select * From SP;").columns[:4] == ["S#", "P#", "NOTE2", "QTY"]


def test_a_meta_only_alter_makes_the_other_catalog_stale(tmp_path):
    location, a, b = _two_sessions(tmp_path)
    # the renamed IE keeps its select, so SQLite's schema cookie stays put
    cookie = a.conn.query("PRAGMA schema_version").rows[0][0]
    a.apply_source("Alter Table SP Alter I_S As I_S2"
                   " (Select SNAME, STATUS, CITY As SCITY From S Where SP.S# = S#);")
    assert a.conn.query("PRAGMA schema_version").rows[0][0] == cookie
    kernel = kernel_state(a.conn)

    with pytest.raises(StaleCatalog):
        b.apply_source("Alter Table SP Drop I_S;")
    assert kernel_state(b.conn) == kernel
    fresh = SirLayer(KernelConnection(location))
    assert fresh.catalog.get("SP").ie_order == ["I_S2", "I_P"]
    assert fresh.catalog.get("SP").scheme.find_ie("I_S2") is not None


@pytest.mark.parametrize("statement", [
    "Drop Table X;",
    "Create Table T (A Int, Primary Key (A));",
    "Create View V As Select * From S;",
    "Create Index x_a On X (A);",
    "Drop Index x_i;",
])
def test_each_kind_of_ddl_over_a_stale_catalog_is_refused(tmp_path, statement):
    _, a, b = _two_sessions(tmp_path, "Create Table X (A Int, Primary Key (A));"
                                      " Create Index x_i On X (A);")
    a.apply_source("Create Table Y (A Int, Primary Key (A));")
    kernel, snapshot = kernel_state(a.conn), b.catalog.snapshot()
    with pytest.raises(StaleCatalog):
        b.apply_source(statement)
    assert kernel_state(b.conn) == kernel
    assert b.catalog.snapshot() == snapshot


def test_a_sessions_own_ddl_is_never_refused(tmp_path):
    location, a, _ = _two_sessions(tmp_path)
    a.apply_source("""
        Create Table X (A Int, B Int, Primary Key (A));
        Create Index x_b On X (B);
        Alter Table X Add C Char;
        Create Table W (K Int, Primary Key (K), I_X (Select B, C From X Where W.K = A));
        Create Index w_k On W (K);
        Drop Table W;
        Alter Table X Drop C;
        Drop Table X;
    """)
    # data written by another session leaves the schema, and b's catalog, current
    a.apply_source("Insert Into S Values ('S9', 'Nine', '10', 'Rome');")
    b = SirLayer(KernelConnection(location))
    a.apply_source("Insert Into P Values ('P9', 'Pin', 'Red', '1', 'Rome');")
    b.apply_source("Alter Table S Add RATING Int; Create Table Z (A Int, Primary Key (A));")
    assert b.query("Select Count(*) From P;").rows == [(7,)]


def test_cli_apply_exits_1_over_a_stale_catalog(tmp_path, capsys):
    _, a, b = _two_sessions(tmp_path)
    a.apply_source("Alter Table SP Drop I_P;")
    script = tmp_path / "alter.sirsql"
    script.write_text("Alter Table SP Add NOTE Char;\n")
    assert cmd_apply(b, argparse.Namespace(file=str(script), format="table")) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("1: error: the kernel schema changed")


def test_a_catalog_loaded_again_drops_the_statements_cached_before_it(tmp_path):
    """A cached statement is stamped with the DDL version, which a load reads
    from the kernel, so a reloaded catalog routes it again over the new plan."""
    location, a, b = _two_sessions(tmp_path)
    for _ in range(2):      # the second run hits the cache and keeps the text
        assert len(b.query("Select QTY From SP;").rows) == 12
        assert b.query("Select Count(*) From SP;").rows == [(12,)]
    a.apply_source("""
        Create Table X (Q Int, NOTE Char, Primary Key (NOTE));
        Insert Into X Values (300, 'a'), (300, 'b');
        Alter Table SP Add I_X (Select NOTE From X Where SP.QTY = Q);
    """)
    fresh = SirLayer(KernelConnection(location))
    assert len(fresh.query("Select QTY From SP;").rows) == 15
    assert fresh.query("Select Count(*) From SP;").rows == [(15,)]

    b.catalog = Catalog.load(b.conn)
    assert b.catalog.version == a.catalog.version
    assert len(b.query("Select QTY From SP;").rows) == 15
    assert b.query("Select Count(*) From SP;").rows == [(15,)]


# --- entries shared between the sessions of one process ------------------------------


def _meta_rows(conn: KernelConnection) -> dict[str, tuple]:
    return {row[0]: row for row in kernel_state(conn)[1]}


def test_a_later_session_shares_the_entries_of_unchanged_rows_only(tmp_path):
    location, a, b = _two_sessions(tmp_path)
    before, snapshot = _meta_rows(b.conn), b.catalog.snapshot()
    a.apply_source("Alter Table S Add NOTE Char; Alter Table SP Drop I_P;")
    after = _meta_rows(a.conn)
    assert b.catalog.snapshot() == snapshot

    c = SirLayer(KernelConnection(location))
    assert c.catalog.snapshot() == a.catalog.snapshot() != snapshot
    changed = {name for name in after if after[name] != before[name]}
    assert changed == {"S", "SP"}
    for name in after:
        entry = c.catalog.get(name)
        if name in changed:     # a's own entries, which it compiled for its DDL
            assert entry is not b.catalog.get(name) and entry is a.catalog.get(name)
        else:
            assert entry is b.catalog.get(name), name


def test_a_base_changed_under_an_unchanged_row_is_read_again(tmp_path):
    location, a, b = _two_sessions(tmp_path)
    b.explain("SP")
    raw = sqlite3.connect(location)
    raw.execute("ALTER TABLE SP_B ADD COLUMN ZNOTE TEXT")
    raw.commit()
    raw.close()
    c = SirLayer(KernelConnection(location))
    assert c.catalog.get("SP") is not b.catalog.get("SP")
    assert c.catalog.get("S") is b.catalog.get("S")
    assert "ZNOTE" in c.explain("SP")[0] and "ZNOTE" not in b.explain("SP")[0]


def test_the_writers_entries_serve_the_next_open(tmp_path, monkeypatch):
    """The session that built the file from empty, then altered it, serves a
    later open with every entry it compiled, so an ALTER there parses no
    source text."""
    location = str(tmp_path / "db.sqlite")
    writer = load_sp2(SirLayer(KernelConnection(location)))
    writer.apply_source("Create Table D (K Char, N Int, Primary Key (K));"
                        " Create Table R (K Char, FD Char, Primary Key (K),"
                        " I_D (Select */K From D Where R.FD = K));"
                        " Alter Table D Add M Char; Alter Table S Add NOTE Char;")
    reader = SirLayer(KernelConnection(location))
    assert reader.catalog.snapshot() == writer.catalog.snapshot()
    assert all(reader.catalog.get(e.name) is e for e in writer.catalog.entries())
    parses = []
    monkeypatch.setattr("sirsql.catalog.parse_one",
                        lambda text: parses.append(text) or parse_one(text))
    reader.apply_source("Alter Table D Add L Char; Alter Table SP Add I_Q As (QTY + 1);")
    assert parses == []
    assert reader.query("Select * From R;").columns == ["K", "FD", "N", "M", "L"]
    assert reader.query("Select I_Q From SP Where S# = 'S1' And P# = 'P1';").rows == [(301,)]


def _raw(location: str, sql: str):
    raw = sqlite3.connect(location)
    raw.execute(sql)
    raw.commit()
    raw.close()


def test_a_base_extended_behind_the_writers_back_is_read_again(tmp_path):
    """T holds rows over the rebuild bound, so the writer's ALTER extends
    its base by ``ADD COLUMN``; SQLite's edit is the compiled text, and the
    next open takes the writer's entry.  Another ``ADD COLUMN`` on that base
    leaves T's meta row as it was, and the open after it reads T again."""
    location = str(tmp_path / "db.sqlite")
    writer = load_sp2(SirLayer(KernelConnection(location)))
    writer.apply_source("Create Table T (K Int, A Char, Primary Key (K));")
    writer.apply_source("Insert Into T Values " + ", ".join(f"({k}, 'a')" for k in range(100))
                        + ";")
    sent = []
    writer.conn.execute = lambda sql, *args, execute=writer.conn.execute, **kwargs: (
        sent.append(sql), execute(sql, *args, **kwargs))[1]
    writer.apply_source("Alter Table T Add N Char;")
    assert "ALTER TABLE T ADD COLUMN N Char;" in sent
    reader = SirLayer(KernelConnection(location))
    assert reader.catalog.get("T") is writer.catalog.get("T")
    assert reader.explain("T") == [writer.conn.query(
        "SELECT sql FROM sqlite_master WHERE name = 'T'").rows[0][0] + ";"]

    _raw(location, "ALTER TABLE T ADD COLUMN Z TEXT")
    later = SirLayer(KernelConnection(location))
    assert later.catalog.get("T") is not writer.catalog.get("T")
    assert later.catalog.get("S") is writer.catalog.get("S")
    assert "Z TEXT" in later.explain("T")[0] and "Z TEXT" not in writer.explain("T")[0]


def test_a_base_changed_after_the_writers_commit_is_read_again(tmp_path):
    location = str(tmp_path / "db.sqlite")
    writer = load_sp2(SirLayer(KernelConnection(location)))
    writer.apply_source("Alter Table SP Add NOTE Char;")
    _raw(location, "ALTER TABLE SP_B ADD COLUMN ZNOTE TEXT")
    reader = SirLayer(KernelConnection(location))
    assert reader.catalog.get("SP") is not writer.catalog.get("SP")
    assert reader.catalog.get("S") is writer.catalog.get("S")
    assert "ZNOTE" in reader.explain("SP")[0] and "ZNOTE" not in writer.explain("SP")[0]


@pytest.mark.parametrize("sabotage, message", [
    ("UPDATE sir_relations SET plan = '{' WHERE name = 'P'", "^P: unreadable plan"),
    ("DROP VIEW SP_1", "^SP: kernel object 'SP_1' recorded in the catalog is missing"),
])
def test_a_fault_made_while_a_healthy_session_is_open_fails_the_next_open(tmp_path, sabotage,
                                                                            message):
    location, a, b = _two_sessions(tmp_path)
    b.catalog.audit()
    raw = sqlite3.connect(location)
    raw.execute(sabotage)
    raw.commit()
    raw.close()
    with pytest.raises(CorruptCatalog, match=message):
        SirLayer(KernelConnection(location))


def test_no_entry_outlives_the_sessions_holding_it(tmp_path):
    location, a, b = _two_sessions(tmp_path)
    assert b.catalog.get("SP") is a.catalog.get("SP")
    entry, catalog = weakref.ref(b.catalog.get("SP")), weakref.ref(a.catalog)
    a.conn.close()
    b.conn.close()
    del a, b
    gc.collect()
    assert entry() is None and catalog() is None


def test_two_threads_over_shared_entries_answer_like_one(tmp_path):
    """Sessions of two threads share every entry, then build their parts
    (each a `cached_property`) and query at the same time."""
    location, a, b = _two_sessions(tmp_path)
    expected = [a.query(sql).rows for sql in SP2_QUERIES]
    a.conn.close()
    b.conn.close()
    del a, b
    gc.collect()
    for _ in range(10):
        opened, start = threading.Event(), threading.Barrier(2)
        catalogs, answers, failures = [None, None], [None, None], []

        def session(index: int):
            try:
                if index:
                    opened.wait()
                layer = SirLayer(KernelConnection(location))
                catalogs[index] = layer.catalog
                opened.set()
                start.wait()
                layer.catalog.audit()
                answers[index] = [layer.query(sql).rows for sql in SP2_QUERIES]
                layer.conn.close()
            except Exception as exc:        # reported below, in the test's thread
                failures.append(exc)
                start.abort()

        threads = [threading.Thread(target=session, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        first, second = catalogs
        assert all(second.get(e.name) is e for e in first.entries())
        assert answers == [expected, expected]
        del catalogs, first, second
        gc.collect()
