from __future__ import annotations

import sqlite3

import pytest

from sirsql.errors import CapabilityMissing, KernelError, UnknownObject
from sirsql.kernel import KernelConnection, RowSet

from conftest import load_sp2, make_layer


def test_select_one(conn):
    rows = conn.execute("SELECT 1")
    assert isinstance(rows, RowSet)
    assert rows.rows == [(1,)]


def test_malformed_sql_raises_kernel_error(conn):
    with pytest.raises(KernelError):
        conn.execute("SELEKT 1")


def test_error_carries_origin(conn):
    with pytest.raises(KernelError, match="Select broken From SP"):
        conn.execute("SELECT * FROM missing", origin="Select broken From SP;")


def test_count_figure4_base_rows():
    layer = load_sp2(make_layer())
    rows = layer.conn.execute('SELECT count(*) FROM SP_B')
    assert rows.rows == [(12,)]


@pytest.mark.parametrize("version", [(3, 31, 0), (3, 34, 1)])
def test_sqlite_older_than_3_35_is_refused(monkeypatch, version):
    # a strict-integrity INSERT appends RETURNING, which SQLite reads from 3.35
    monkeypatch.setattr(sqlite3, "sqlite_version_info", version)
    with pytest.raises(CapabilityMissing, match="older than 3.35"):
        KernelConnection(":memory:")


def test_probing_is_side_effect_free():
    raw = sqlite3.connect(":memory:")
    baseline = raw.execute("SELECT count(*) FROM sqlite_master").fetchone()
    conn = KernelConnection(":memory:")
    assert conn.execute("SELECT count(*) FROM sqlite_master").rows[0] == baseline
    assert conn._db.total_changes == 0


def test_transaction_rolls_back_failed_plan(conn):
    def work(c):
        c.execute("CREATE TABLE a (x)")
        c.execute("CREATE VIEW b AS SELECT x FROM a")
        c.execute("CREATE TABLE a (y)")  # third statement fails

    with pytest.raises(KernelError):
        conn.within_transaction(work)
    assert conn.object_names() == []


def test_lazy_view_bodies_still_roll_back(conn):
    # the engine accepts a view over a missing table at CREATE time; the
    # failure only surfaces when the view is used, which must still abort
    # the whole transaction
    def work(c):
        c.execute("CREATE TABLE a (x)")
        c.execute("CREATE VIEW broken AS SELECT nope FROM missing_table")
        c.execute("SELECT * FROM broken LIMIT 0")

    with pytest.raises(KernelError):
        conn.within_transaction(work)
    assert conn.object_names() == []


def test_transaction_empty_work_commits(conn):
    assert conn.within_transaction(lambda c: "done") == "done"


def test_a_failed_commit_raises_kernel_error_and_rolls_back(conn):
    conn.execute("PRAGMA foreign_keys = ON")
    conn.execute("CREATE TABLE p (k PRIMARY KEY)")
    conn.execute("CREATE TABLE c (k REFERENCES p (k) DEFERRABLE INITIALLY DEFERRED)")
    with pytest.raises(KernelError, match="FOREIGN KEY constraint failed"):
        conn.within_transaction(lambda c: c.execute("INSERT INTO c VALUES (1)"))
    assert not conn._db.in_transaction
    assert conn.execute("SELECT count(*) FROM c").rows == [(0,)]


class _FailingRollback:
    """A sqlite3 connection whose ROLLBACK fails."""

    def __init__(self, db):
        self.db = db

    def __getattr__(self, name):
        return getattr(self.db, name)

    def execute(self, sql, *args):
        if sql == "ROLLBACK":
            raise sqlite3.OperationalError("cannot rollback")
        return self.db.execute(sql, *args)


def test_a_failed_rollback_does_not_hide_the_error_that_ended_the_work(conn):
    def work(c):
        c.execute("CREATE TABLE a (x)")
        raise ValueError("the work failed")

    conn._db = _FailingRollback(conn._db)
    with pytest.raises(ValueError, match="the work failed"):
        conn.within_transaction(work)
    conn._db = conn._db.db
    conn._db.execute("ROLLBACK")
    assert conn.object_names() == []


def test_nested_transaction_rejected(conn):
    def work(c):
        return c.within_transaction(lambda inner: None)

    with pytest.raises(KernelError, match="already open"):
        conn.within_transaction(work)


def test_sp2_apply_yields_nine_kernel_objects():
    # 5 relations (S, P, SP_B, SP_1, SP) plus the meta-table
    layer = load_sp2(make_layer(), with_data=False)
    assert len(layer.conn.object_names()) == 6


def test_each_statement_commits_plan_and_meta_rows_together():
    # the SP statement alone creates its 3 kernel objects and meta rows in
    # one transaction; sabotaging the last view makes all of them vanish
    layer = make_layer()
    layer.apply_source(
        "Create Table S (S# Char, SNAME Char, Primary Key (S#));")
    with pytest.raises(Exception):
        layer.apply_source(
            "Create Table SP (S# Char, QTY Int, Primary Key (S#),"
            " I_S (Select MISSING_COL From S Where SP.S# = S#));")
    names = layer.conn.object_names()
    assert not any(n.startswith("SP") for n in names)
    assert layer.conn.execute(
        "SELECT count(*) FROM sir_relations WHERE name = 'SP'").rows == [(0,)]


def test_introspect_full_view_column_order():
    layer = load_sp2(make_layer(), with_data=False)
    assert layer.conn.introspect("SP") == [
        "S#", "P#", "QTY", "SNAME", "STATUS", "SCITY",
        "PNAME", "COLOR", "WEIGHT", "PCITY"]
    assert layer.conn.introspect("SP_B") == ["S#", "P#", "QTY"]


def test_introspect_missing_object(conn):
    with pytest.raises(UnknownObject):
        conn.introspect("nowhere")


def test_adapter_adds_no_semantics(conn):
    raw = sqlite3.connect(":memory:")
    statements = [
        "CREATE TABLE t (a INT, b TEXT)",
        "INSERT INTO t VALUES (1, 'x'), (2, NULL)",
    ]
    for sql in statements:
        raw.execute(sql)
        conn.execute(sql)
    query = "SELECT a, b, a * 2 FROM t ORDER BY a"
    assert conn.execute(query).rows == raw.execute(query).fetchall()
