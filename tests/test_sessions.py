"""Two sessions over one kernel file: a DDL statement never commits over a
catalog that another session's DDL has made stale."""

from __future__ import annotations

import argparse

import pytest

from sirsql.cli import EXIT_RUNTIME, cmd_apply
from sirsql.errors import StaleCatalog
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

from conftest import kernel_state, load_sp2


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
])
def test_each_kind_of_ddl_over_a_stale_catalog_is_refused(tmp_path, statement):
    _, a, b = _two_sessions(tmp_path, "Create Table X (A Int, Primary Key (A));")
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
