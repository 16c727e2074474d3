"""How bases are stored: a keyed base is clustered by its key (WITHOUT
ROWID) unless its key is one column declared exactly INTEGER or its
declared row is wider than a twentieth of a page; a base written in the
rowid form keeps it until an ALTER rebuilds it; a rebuilt base keeps its
indexes."""

from __future__ import annotations

import pytest

from sirsql import compiler
from sirsql.errors import IndexedAttributeDrop, KernelError, UnknownObject
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

from conftest import kernel_state, load_sp2, make_layer, write_four_table_sp2


def _tables(conn) -> dict[str, str]:
    return dict(conn.query("SELECT name, sql FROM sqlite_master WHERE type = 'table'"
                           " AND name NOT LIKE 'sir_%'").rows)


def _indexes(conn) -> list[tuple]:
    return conn.query("SELECT name, tbl_name, sql FROM sqlite_master WHERE type = 'index'"
                      " AND name NOT LIKE 'sqlite_%' ORDER BY name").rows


def _clustered(sql: str) -> bool:
    return sql.rstrip(";").endswith(" WITHOUT ROWID")


def _assert_plans_match_kernel(layer):
    """No recorded CREATE TABLE claims a storage form its kernel table lacks."""
    kernel = _tables(layer.conn)
    for entry in layer.catalog.entries():
        for item in entry.plan:
            if item.kind == "table":
                assert _clustered(item.sql) == _clustered(kernel[item.name]), item.name


def _card(layer, name: str) -> int:
    return layer.query(f"Select Count(*) From {name};").rows[0][0]


def test_every_keyed_sp2_base_is_clustered_by_its_key():
    layer = load_sp2(make_layer())
    tables = _tables(layer.conn)
    assert set(tables) == {"S", "P", "SP_B"}
    assert all(_clustered(sql) for sql in tables.values())
    # the key is stored once: no automatic index copies it
    assert not layer.conn.query("SELECT name FROM sqlite_master WHERE type = 'index'"
                                " AND tbl_name IN ('S', 'P', 'SP_B')").rows
    _assert_plans_match_kernel(layer)


@pytest.mark.parametrize("text", [
    "Insert Into SP (S#, P#, QTY) Values (NULL, 'P1', 5);",
    "Insert Into SP (S#, P#, QTY) Values ('S9', 'P1', 5), ('S9', NULL, 5);",
    "Insert Into SP (P#, QTY) Values ('P1', 5);",
])
def test_a_null_key_insert_fails_and_writes_nothing(text):
    layer = load_sp2(make_layer())
    rows = layer.query("Select * From SP_B Order By S#, P#;")
    with pytest.raises(KernelError, match="NOT NULL constraint failed"):
        layer.apply_source(text)
    assert layer.query("Select * From SP_B Order By S#, P#;") == rows
    assert _card(layer, "SP") == _card(layer, "SP_B") == len(rows)


def test_a_single_integer_key_stays_the_rowid_and_auto_assigns():
    layer = load_sp2(make_layer())
    layer.apply_source("Create Table U (ID Integer, NAME Char, Primary Key (ID));"
                       " Create Table T (ID Integer, S# Char, Primary Key (ID),"
                       " I_S (Select SNAME From S Where T.S# = S#));"
                       " Create Table W (ID Int, NAME Char, Primary Key (ID));")
    tables = _tables(layer.conn)
    assert not _clustered(tables["U"]) and not _clustered(tables["T_B"])
    # only a key declared exactly INTEGER is the rowid
    assert _clustered(tables["W"])
    layer.apply_source("Insert Into U (NAME) Values ('a'), ('b');"
                       " Insert Into T (S#) Values ('S1'), ('S2');")
    assert layer.query("Select ID, NAME From U Order By ID;").rows == [(1, "a"), (2, "b")]
    assert layer.query("Select ID, SNAME From T Order By ID;").rows == \
        [(1, "Smith"), (2, "Jones")]
    _assert_plans_match_kernel(layer)


@pytest.mark.parametrize("decls, clustered", [
    ("K Char(8), V Char(188), N Int", True),       # 8 + 188 + 8 = 4096 // 20 bytes
    ("K Char(8), V Char(189), N Int", False),
    ("K Char, V Text, N Int", False),
    ("K Char, V Varchar, N Int", False),
    ("K Char, V Blob, N Int", False),
    ("K Char, V Varchar(40), N Real", True),
])
def test_a_table_declared_wide_keeps_its_rowid(decls, clustered):
    layer = load_sp2(make_layer())
    layer.apply_source(f"Create Table T ({decls}, Primary Key (K));"
                       f" Create Table U ({decls}, Primary Key (K),"
                       f" I_S (Select SNAME From S Where U.K = S#));"
                       " Insert Into T (K, N) Values ('k', 1); Insert Into U (K, N) Values ('S1', 1);")
    tables = _tables(layer.conn)
    assert _clustered(tables["T"]) == _clustered(tables["U_B"]) == clustered
    assert layer.query("Select K, N From T;").rows == [("k", 1)]
    assert layer.query("Select K, SNAME From U;").rows == [("S1", "Smith")]
    _assert_plans_match_kernel(layer)


def test_an_alter_that_widens_a_clustered_base_rebuilds_it_as_a_rowid_table():
    layer = load_sp2(make_layer())
    layer.apply_source("Create Index sp_qty On SP (QTY);")
    rows = layer.query("Select * From SP Order By S#, P#;").rows
    for alter, clustered in (("Alter Table SP Add NOTE Text;", False),
                             ("Alter Table SP Drop NOTE;", True)):
        layer.apply_source(alter)
        assert _clustered(_tables(layer.conn)["SP_B"]) == clustered
        assert ("sp_qty", "SP_B", "CREATE INDEX sp_qty ON SP_B (QTY)") in _indexes(layer.conn)
        assert [row[:len(rows[0])] for row in layer.query(
            "Select * From SP Order By S#, P#;").rows] == rows
        _assert_plans_match_kernel(layer)


def test_an_inline_primary_key_on_a_stored_relation_compiles():
    layer = make_layer()
    layer.apply_source("Create Table T (A Int Primary Key, B Char);"
                       " Insert Into T Values (1, 'x');")
    assert layer.explain("T") == ["CREATE TABLE T (A Int, B Char, PRIMARY KEY (A)) WITHOUT ROWID;"]
    assert layer.query("Select * From T;").rows == [(1, "x")]


def test_an_alter_of_a_rowid_base_rebuilds_it_with_its_rows_and_indexes(tmp_path, kernel_log):
    location = str(tmp_path / "legacy.sqlite")
    write_four_table_sp2(location)
    legacy = SirLayer(KernelConnection(location))
    assert not any(_clustered(sql) for sql in _tables(legacy.conn).values())
    legacy.apply_source("Create Index sp_qty On SP (QTY); Create Unique Index s_name On S (SNAME);")
    rows = {name: legacy.query(f"Select * From {name} Order By 1, 2;") for name in ("S", "SP")}

    # appending a column would extend a base of the current form in place
    legacy.apply_source("Alter Table SP Add NOTE Char; Alter Table S Add RATING Int;")
    tables = _tables(legacy.conn)
    assert _clustered(tables["SP_B"]) and _clustered(tables["S"])
    assert not _clustered(tables["P"])                 # untouched
    assert _indexes(legacy.conn) == [
        ("s_name", "S", "CREATE UNIQUE INDEX s_name ON S (SNAME)"),
        ("sp_qty", "SP_B", "CREATE INDEX sp_qty ON SP_B (QTY)")]
    for name, before in rows.items():
        after = legacy.query(f"Select * From {name} Order By 1, 2;")
        assert [row[:-1] for row in after.rows] == before.rows
        assert {row[-1] for row in after.rows} == {None}
    _assert_plans_match_kernel(legacy)
    snapshot = legacy.catalog.snapshot()
    legacy.conn.close()

    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    _assert_plans_match_kernel(reopened)
    # the next ALTER finds the current form and extends the base in place
    sent = kernel_log(reopened.conn)
    reopened.apply_source("Alter Table SP Add NOTE2 Char;")
    assert "ALTER TABLE SP_B ADD COLUMN NOTE2 Char;" in sent
    assert not [s for s in sent if s.startswith(("CREATE TABLE", "DROP TABLE"))]
    assert _clustered(_tables(reopened.conn)["SP_B"])


def test_a_recompiled_rowid_dependent_keeps_its_recorded_base(tmp_path, monkeypatch):
    location = str(tmp_path / "legacy.sqlite")
    # a file written before bases were key-clustered
    clustered = compiler._base_table_sql
    monkeypatch.setattr(compiler, "_base_table_sql",
                        lambda scheme, name: clustered(scheme, name).replace(" WITHOUT ROWID", ""))
    SirLayer(KernelConnection(location)).apply_source(
        "Create Table D (K Char, V Char, Primary Key (K));"
        " Create Table R (K Char, F Char, Primary Key (K),"
        " I_D (Select */K From D Where R.F = K));"
        " Insert Into D Values ('d', 'v'); Insert Into R Values ('r', 'd');")
    monkeypatch.undo()

    layer = SirLayer(KernelConnection(location))
    layer.apply_source("Alter Table D Add W Char;")
    tables = _tables(layer.conn)
    assert _clustered(tables["D"]) and not _clustered(tables["R_B"])
    assert layer.query("Select * From R;").columns == ["K", "F", "V", "W"]
    _assert_plans_match_kernel(layer)
    snapshot = layer.catalog.snapshot()
    layer.conn.close()
    assert SirLayer(KernelConnection(location)).catalog.snapshot() == snapshot


@pytest.mark.parametrize("alter, base", [
    ("Alter Table SP Add Before QTY NOTE Char;", "SP_B"),
    ("Alter Table T Add Before V W Char;", "T"),
    # a stored relation gaining an IE moves to T_B, and its index with it
    ("Alter Table T Add Before V W Char, I_S (Select SNAME From S Where T.W = S#);", "T_B"),
])
def test_a_rebuilt_base_keeps_its_indexes(alter, base):
    layer = load_sp2(make_layer())
    layer.apply_source("Create Table T (K Char, V Int, Primary Key (K));"
                       " Insert Into T Values ('k', 1);"
                       " Create Index sp_qty On SP (QTY); Create Index t_v On T (V);")
    layer.apply_source(alter)
    table = "T" if base.startswith("T") else "SP"
    name, column = ("t_v", "V") if table == "T" else ("sp_qty", "QTY")
    assert (name, base, f"CREATE INDEX {name} ON {base} ({column})") in _indexes(layer.conn)
    assert layer.query(f"Select {column} From {table};").rows
    _assert_plans_match_kernel(layer)


@pytest.mark.parametrize("alter", [
    "Alter Table SP Drop QTY;",
    "Alter Table SP Alter QTY As Q2 (Select Count(*) As QTY From P Where SP.P# = P#);",
])
def test_an_alter_dropping_an_indexed_column_is_refused(tmp_path, alter):
    layer = load_sp2(SirLayer(KernelConnection(str(tmp_path / "db.sqlite"))))
    layer.apply_source("Create Index sp_qty On SP (QTY);")
    kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    with pytest.raises(IndexedAttributeDrop, match="sp_qty"):
        layer.apply_source(alter)
    assert kernel_state(layer.conn) == kernel
    assert layer.catalog.snapshot() == snapshot


def test_a_dropped_index_lets_its_column_go(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("Create Index sp_qty On SP (QTY);")
    version = layer.conn.ddl_version()
    result, = layer.apply_source("Drop Index SP_QTY;")
    assert (result.action, result.objects) == ("drop index", ["sp_qty"])
    assert layer.conn.ddl_version() == version + 1
    assert _indexes(layer.conn) == []
    layer.apply_source("Alter Table SP Drop QTY;")
    snapshot = layer.catalog.snapshot()
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    reopened.catalog.audit()
    assert reopened.query("Select * From SP;").columns[:3] == ["S#", "P#", "SNAME"]


def test_a_dropped_unique_index_admits_duplicates():
    layer = make_layer()
    layer.apply_source("Create Table T (K Char, V Int, Primary Key (K));"
                       " Create Unique Index t_v On T (V); Insert Into T Values ('a', 1);")
    with pytest.raises(KernelError, match="UNIQUE"):
        layer.apply_source("Insert Into T Values ('b', 1);")
    result, = layer.apply_source("Drop Index T_V;")
    assert (result.action, result.objects) == ("drop index", ["t_v"])
    assert _indexes(layer.conn) == []
    layer.apply_source("Insert Into T Values ('b', 1);")
    assert sorted(layer.query("Select K, V From T;").rows) == [("a", 1), ("b", 1)]


@pytest.mark.parametrize("setup, name", [
    ("", "sp_qty"),
    ("Create Table U (A Int, B Int, Primary Key (A), Unique (B));", "sqlite_autoindex_U_1"),
    ("CREATE TABLE raw (a INT); CREATE INDEX raw_a ON raw (a);", "raw_a"),
], ids=["missing", "automatic", "not-a-relations-table"])
def test_drop_index_refuses_an_index_it_does_not_own(setup, name):
    layer = load_sp2(make_layer())
    if setup.startswith("CREATE"):
        for sql in setup.split("; "):
            layer.conn.execute(sql)                 # behind the catalog's back
    else:
        layer.apply_source(setup)
    kernel, version = kernel_state(layer.conn), layer.conn.ddl_version()
    with pytest.raises(UnknownObject, match=name):
        layer.apply_source(f"Drop Index {name};")
    assert kernel_state(layer.conn) == kernel
    assert layer.conn.ddl_version() == version
