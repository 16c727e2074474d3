"""How bases are stored: a keyed base is clustered by its key (WITHOUT
ROWID) unless its key is one column declared exactly INTEGER or its
declared row is wider than a twentieth of a page; a base written in the
rowid form keeps it until an ALTER rebuilds it; a rebuilt base keeps its
rows and indexes, and each plan holds the kernel's CREATE text."""

from __future__ import annotations

import re

import pytest

from sirsql import compiler
from sirsql.errors import (DependentAttributeDrop, ForeignKeyAttributeDrop,
                           IndexedAttributeDrop, KernelError, NotNullAttributeAdd,
                           UnknownObject)
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

from conftest import (VERSIONS, assert_plans_match_kernel, kernel_state, load_sp2, make_layer,
                      write_four_table_sp2)


def _tables(conn) -> dict[str, str]:
    return dict(conn.query("SELECT name, sql FROM sqlite_master WHERE type = 'table'"
                           " AND name NOT LIKE 'sir_%'").rows)


def _indexes(conn) -> list[tuple]:
    return conn.query("SELECT name, tbl_name, sql FROM sqlite_master WHERE type = 'index'"
                      " AND name NOT LIKE 'sqlite_%' ORDER BY name").rows


def _clustered(sql: str) -> bool:
    return sql.rstrip(";").endswith(" WITHOUT ROWID")


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
    assert_plans_match_kernel(layer)


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
    assert_plans_match_kernel(layer)


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
    assert_plans_match_kernel(layer)


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
        assert_plans_match_kernel(layer)


def test_an_inline_primary_key_on_a_stored_relation_compiles():
    layer = make_layer()
    layer.apply_source("Create Table T (A Int Primary Key, B Char);"
                       " Insert Into T Values (1, 'x');")
    assert layer.explain("T") == ["CREATE TABLE T (A Int, B Char, PRIMARY KEY (A)) WITHOUT ROWID;"]
    assert layer.query("Select * From T;").rows == [(1, "x")]


def test_an_alter_of_a_rowid_base_rebuilds_it_with_its_rows_and_indexes(tmp_path, kernel_log,
                                                                        monkeypatch):
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
    assert_plans_match_kernel(legacy)
    snapshot = legacy.catalog.snapshot()
    legacy.conn.close()

    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    assert_plans_match_kernel(reopened)
    # the next ALTER finds the current form, so only the size probe's bound
    # could rebuild its 12 rows; with the bound at 0 it extends the base in place
    monkeypatch.setattr(compiler, "REBUILD_ROWS_PER_OBJECT", 0)
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
    assert_plans_match_kernel(layer)
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
    assert_plans_match_kernel(layer)


def test_an_attribute_inserted_before_a_key_declared_last_rebuilds_the_base():
    layer = make_layer()
    layer.apply_source("Create Table T (A Char, K Char, Primary Key (K));"
                       " Insert Into T Values ('a', 'k');")
    layer.apply_source("Alter Table T Add Before A N Char;")
    assert layer.query("Select * From T;").rows == [(None, "a", "k")]
    assert_plans_match_kernel(layer)


def test_a_base_moves_to_its_base_name_and_back_with_its_rows_and_indexes(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("Create Table T (K Char, V Int, Primary Key (K));"
                       " Insert Into T Values ('S1', 1), ('S9', 2);"
                       " Create Unique Index t_v On T (V);")
    for alter, base, columns in (
            ("Alter Table T Add I_S (Select SNAME From S Where T.K = S#);", "T_B",
             ["K", "V", "SNAME"]),
            ("Alter Table T Drop I_S;", "T", ["K", "V"])):
        layer.apply_source(alter)
        assert _indexes(layer.conn) == [("t_v", base, f"CREATE UNIQUE INDEX t_v ON {base} (V)")]
        result = layer.query("Select * From T Order By K;")
        assert result.columns == columns
        assert [row[:2] for row in result.rows] == [("S1", 1), ("S9", 2)]
        assert _card(layer, "T") == _card(layer, base) == 2
        assert_plans_match_kernel(layer)
    snapshot = layer.catalog.snapshot()
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    assert_plans_match_kernel(reopened)


def test_the_sp3_alters_record_the_kernels_text(sp3):
    # P and S each gain their first IE, so each base moves to its _B name
    assert set(_tables(sp3.conn)) == {"S_B", "P_B", "SP_B"}
    assert_plans_match_kernel(sp3)
    for name in ("S", "P", "SP"):
        assert _card(sp3, name) == _card(sp3, f"{name}_B") > 0
    # P loses its last IE, so its base moves back to P
    sp3.apply_source("Alter Table P Drop WEIGHT_T; Alter Table P Drop WEIGHT_KG;")
    assert set(_tables(sp3.conn)) == {"S_B", "P", "SP_B"}
    assert_plans_match_kernel(sp3)
    assert _card(sp3, "P") == 6


def test_a_rebuild_keeps_its_rows_beside_a_relation_named_like_a_scratch_table():
    layer = make_layer()
    layer.apply_source("Create Table T (K Int, A Char, B Char, Primary Key (K));"
                       " Create Table T__rebuild (Z Int);"
                       " Insert Into T Values (1, 'a', 'b'), (2, 'c', 'd');"
                       " Insert Into T__rebuild Values (7);")
    layer.apply_source("Alter Table T Drop B;")
    assert layer.query("Select * From T Order By K;").rows == [(1, "a"), (2, "c")]
    assert layer.query("Select * From T__rebuild;").rows == [(7,)]
    assert layer.conn.object_kind("sir_rebuild") is None
    assert_plans_match_kernel(layer)


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


_TYPED_REFUSALS = "Create Table X (K Int, Primary Key (K));" \
    " Create Table R (A Int, FK Int, B Int, Primary Key (A)," \
    " Foreign Key (FK) References X (K));"


_WITH_ROWS = _TYPED_REFUSALS + " Insert Into R Values (1, 7, 2);"
_READ_BY_AN_IE = "Create Table X (K Int, V0 Char, Primary Key (K));" \
    " Create Table R (A Int, FK Int, Primary Key (A), I_X (Select V0 From X Where R.FK = K));" \
    " Insert Into X Values (7, 'v'); Insert Into R Values (1, 7);"


@pytest.mark.parametrize("setup, alter, error, message, sent", [
    (_WITH_ROWS, "Alter Table R Drop FK;", ForeignKeyAttributeDrop,
     "R.FK is named by its foreign key", []),
    (_WITH_ROWS, "Alter Table R Add N Int Not Null;", NotNullAttributeAdd, "R has rows",
     [VERSIONS, compiler.base_size_probe("R")]),
    (_WITH_ROWS, "Alter Table R Add Before B N Int Not Null;", NotNullAttributeAdd,
     "R has rows", [VERSIONS, compiler.base_size_probe("R")]),
    (_READ_BY_AN_IE, "Alter Table X Drop V0;", DependentAttributeDrop,
     r"X: this ALTER removes an attribute R reads through IE I_X \(no such column: X.V0\)", []),
], ids=["foreign-key-drop", "not-null-add-column", "not-null-rebuild", "ie-reads-the-attribute"])
def test_an_alter_the_kernel_would_refuse_is_a_typed_error(tmp_path, kernel_log, setup,
                                                           alter, error, message, sent):
    """Dropping an attribute the relation's foreign key names, or one that
    another relation's IE names, is refused before any kernel statement;
    adding a ``Not Null`` attribute to a relation with rows is refused by the
    one probe that sizes its base inside the transaction, whether it would
    be appended or placed before another attribute."""
    layer = SirLayer(KernelConnection(str(tmp_path / "db.sqlite")))
    layer.apply_source(setup)
    kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    log = kernel_log(layer.conn)
    with pytest.raises(error, match=message):
        layer.apply_source(alter)
    writes = [s for s in log if re.match(r"(ALTER|CREATE|DROP|INSERT|UPDATE)", s)]
    assert [s for s in log if s.startswith(("SELECT", "WITH"))] == sent and not writes
    assert kernel_state(layer.conn) == kernel
    assert layer.catalog.snapshot() == snapshot


_DROPPED_UNDER_AN_IE = "Create Table X (K Int, V0 Char, V1 Char, Primary Key (K)," \
    " KK As (K * 2));"


@pytest.mark.parametrize("alter, ie, column", [
    ("Drop V0", "Select V0 From X Where R.FK = K", "X.V0"),
    ("Drop V0", "Select X.V0 As W From X Where R.FK = X.K", "X.V0"),
    ("Drop V0", "Select Q.V0 As W From X Q Where R.FK = Q.K", "Q.V0"),
    ("Drop V0", "Select V1 From X_B Where R.FK = K And V0 > 'a'", "X_B.V0"),
    ("Drop KK", "Select KK From X Where R.FK = K", "X.KK"),
    ("Alter V0 As V0 (Select Max(V1) As V0 From X Where X.K = K)",
     "Select V0 From X_B Where R.FK = K", "X_B.V0"),
], ids=["unqualified", "qualified", "alias", "base", "inherited", "made-inherited"])
def test_an_ie_naming_what_an_alter_removes_is_refused_before_any_kernel_statement(
        kernel_log, alter, ie, column):
    layer = make_layer()
    layer.apply_source(_DROPPED_UNDER_AN_IE
                       + f" Create Table R (A Int, FK Int, Primary Key (A), I_X ({ie}));")
    snapshot, log = layer.catalog.snapshot(), kernel_log(layer.conn)
    with pytest.raises(DependentAttributeDrop,
                       match=rf"R reads through IE I_X \(no such column: {column}\)$"):
        layer.apply_source(f"Alter Table X {alter};")
    assert log == [] and layer.catalog.snapshot() == snapshot


def test_an_ie_name_that_would_fall_to_its_own_relation_is_refused(kernel_log):
    """The kernel accepts this drop: its probe reads the IE's unqualified V0
    as R's own attribute, which changes what I_X computes.  The static check
    refuses it, naming the attribute the IE read."""
    layer = make_layer()
    layer.apply_source(_DROPPED_UNDER_AN_IE + " Create Table R (A Int, FK Int, V0 Char,"
                       " Primary Key (A), I_X (Select Max(V1) As M From X Where R.FK = K"
                       " And V0 > 'a'));")
    snapshot, log = layer.catalog.snapshot(), kernel_log(layer.conn)
    with pytest.raises(DependentAttributeDrop, match=r"\(no such column: X.V0\)$"):
        layer.apply_source("Alter Table X Drop V0;")
    assert log == [] and layer.catalog.snapshot() == snapshot


@pytest.mark.parametrize("ie, row", [
    ("Select V1, KK From X Where R.FK = K", (5, 1, "b", 2)),
    # after the drop, the kernel reads V0 in the WHERE as the result column V0
    ("Select V1 As V0 From X Where R.FK = K And V0 > 'a'", (5, 1, "b")),
], ids=["kept", "result-alias"])
def test_an_ie_naming_what_an_alter_keeps_lets_it_commit(ie, row):
    layer = make_layer()
    layer.apply_source(_DROPPED_UNDER_AN_IE
                       + f" Create Table R (A Int, FK Int, Primary Key (A), I_X ({ie}));")
    layer.apply_source("Alter Table X Drop V0; Insert Into X Values (1, 'b');"
                       " Insert Into R Values (5, 1);")
    assert layer.query("Select * From R;").rows == [row]


def test_a_not_null_attribute_is_added_to_an_empty_relation(kernel_log):
    layer = make_layer()
    layer.apply_source(_TYPED_REFUSALS)
    log = kernel_log(layer.conn)
    layer.apply_source("Alter Table R Add N Int Not Null;")
    layer.apply_source("Alter Table R Add Before B M Int Not Null;")
    assert log.count(compiler.base_size_probe("R")) == 2
    assert layer.query("Select * From R;").columns == ["A", "FK", "M", "B", "N"]
    with pytest.raises(KernelError, match="NOT NULL"):
        layer.apply_source("Insert Into R (A, FK, B, N) Values (1, 7, 2, 3);")


def test_a_dropped_index_lets_its_column_go(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("Create Index sp_qty On SP (QTY);")
    version = layer.conn.versions()[0]
    result, = layer.apply_source("Drop Index SP_QTY;")
    assert (result.action, result.objects) == ("drop index", ["sp_qty"])
    assert layer.conn.versions()[0] == version + 1
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
    kernel, version = kernel_state(layer.conn), layer.conn.versions()[0]
    with pytest.raises(UnknownObject, match=name):
        layer.apply_source(f"Drop Index {name};")
    assert kernel_state(layer.conn) == kernel
    assert layer.conn.versions()[0] == version
