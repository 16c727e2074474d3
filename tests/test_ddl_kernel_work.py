"""What DDL sends to the kernel: only changed views are re-created, a base
is rebuilt by copying its rows and never renamed, each created or altered
relation is probed once on its final view, each relation keeps one meta row,
maintained through its key, and the cascade stays safe."""

from __future__ import annotations

import json
import re

import pytest

from sirsql.compiler import REBUILD_ROWS_PER_OBJECT, base_size_probe, compile_sir
from sirsql.errors import (DependentAttributeDrop, InvariantViolation, KernelError, NameCollision,
                           NotNullAttributeAdd)
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

from conftest import fixture_text, kernel_state, load_sp2

PROBE = re.compile(r"SELECT \* FROM (\S+) LIMIT 0$")
# the line the trace adds after `base_size_probe("D")` for the pragma it runs
INDEX_LIST_D = "-- PRAGMA index_list='D'"


@pytest.fixture(autouse=True)
def _no_statement_renames(monkeypatch):
    """No statement a test here sends renames a table: a base is reshaped
    by copying its rows (see `compiler._rebuild_steps`)."""
    sent = []
    execute = KernelConnection.execute

    def recording(self, sql, *args, **kwargs):
        sent.append(sql)
        return execute(self, sql, *args, **kwargs)
    monkeypatch.setattr(KernelConnection, "execute", recording)
    yield
    assert sent and not [s for s in sent if "RENAME" in s.upper()]


def _dimension_schema() -> str:
    """A stored dimension D with three `*/K` dependents R0..R2; their
    second IE inherits from another dimension E."""
    lines = ["Create Table D (D_K Char, D_NAME Char, D_N Int, Primary Key (D_K));",
             "Create Table E (E_K Char, E_NAME Char, Primary Key (E_K));"]
    lines += [_dependent(f"R{i}") for i in range(3)]
    return "\n".join(lines)


def _dependent(name: str) -> str:
    return (f"Create Table {name} ({name}_K Char, {name}_F1 Char, {name}_F2 Char,"
            f" Primary Key ({name}_K),"
            f" I_1 (Select */D_K From D Where {name}.{name}_F1 = D_K),"
            f" I_2 (Select */E_K From E Where {name}.{name}_F2 = E_K));")


def _reopened(tmp_path, source: str, name: str = "db") -> SirLayer:
    """A session over a file whose meta-tables already exist at open."""
    location = str(tmp_path / f"{name}.sqlite")
    creating = SirLayer(KernelConnection(location))
    creating.apply_source(source)
    creating.conn.close()
    return SirLayer(KernelConnection(location))


def _views(layer) -> dict[str, str]:
    return {item.name: item.sql for entry in layer.catalog.entries() for item in entry.views}


def _named(sent: list[str], verb: str) -> list[str]:
    return [s.split()[2].rstrip(";") for s in sent if s.startswith(verb)]


def _assert_lean_meta_statements(sent: list[str]):
    meta = [s for s in sent if "sir_" in s]
    assert meta
    assert not [s for s in meta if "lower(" in s]
    assert not [s for s in sent if "IF NOT EXISTS" in s]


def test_alter_add_recreates_only_changed_views_and_probes_each_chain_once(tmp_path,
                                                                           kernel_log):
    layer = _reopened(tmp_path, _dimension_schema())
    before = _views(layer)
    sent = kernel_log(layer.conn)
    layer.apply_source("Alter Table D Add D_X Char;")
    after = _views(layer)

    changed = {name for name, sql in after.items() if before.get(name) != sql}
    assert changed == {"R0_1", "R1_1", "R2_1"}
    assert set(_named(sent, "DROP VIEW")) == changed
    assert set(_named(sent, "CREATE VIEW")) == changed
    assert [PROBE.match(s).group(1) for s in sent if PROBE.match(s)] == ["R0", "R1", "R2"]
    _assert_lean_meta_statements(sent)
    # BEGIN, the DDL version and schema cookie (one statement, traced with
    # the pragma each of its two functions runs), the size probe and its
    # pragma line; D, empty and without an index: DROP, CREATE and its
    # UPDATE; each dependent: DROP, CREATE, probe, UPDATE; the schema cookie
    # read, the DDL version write, COMMIT
    assert len(sent) == 6 + 3 + 3 * 4 + 3
    assert layer.query("Select * From R1;").columns[-1] == "E_NAME"
    assert "D_X" in layer.query("Select * From R1;").columns


def test_a_base_rebuild_copies_its_rows_through_a_scratch_table(tmp_path, kernel_log):
    layer = _reopened(tmp_path, _dimension_schema() + "\nInsert Into D Values ('d', 'n', 1);")
    sent = kernel_log(layer.conn)
    layer.apply_source("Alter Table D Drop D_NAME;")

    assert sent[6:11] == [
        "CREATE TABLE sir_rebuild AS SELECT D_K, D_N FROM D;",
        "DROP TABLE D;",
        "CREATE TABLE D (D_K Char, D_N Int, PRIMARY KEY (D_K)) WITHOUT ROWID;",
        "INSERT INTO D (D_K, D_N) SELECT D_K, D_N FROM sir_rebuild;",
        "DROP TABLE sir_rebuild;"]
    assert _named(sent, "DROP VIEW") == _named(sent, "CREATE VIEW") == ["R0_1", "R1_1", "R2_1"]
    assert [PROBE.match(s).group(1) for s in sent if PROBE.match(s)] == ["R0", "R1", "R2"]
    # BEGIN, the DDL version and schema cookie with their two pragma lines,
    # the index read and its pragma line; the five rebuild statements and
    # D's UPDATE; each dependent: DROP, CREATE, probe, UPDATE; the schema
    # cookie read, the DDL version write, COMMIT
    assert len(sent) == 6 + 6 + 3 * 4 + 3
    assert layer.query("Select * From D;").rows == [("d", 1)]
    assert layer.conn.object_kind("sir_rebuild") is None


def _sized_copies(tmp_path) -> tuple[SirLayer, SirLayer, str]:
    """The dimension schema in two files: D empty in the first, under the
    size probe's bound, and in the second holding as many rows as the bound,
    the fewest that `alter_steps` extends in place; and the rows' VALUES."""
    empty = _reopened(tmp_path, _dimension_schema(), "empty")
    full = _reopened(tmp_path, _dimension_schema(), "full")
    (_, bound, _), = full.conn.query(base_size_probe("D")).rows
    values = ", ".join(f"('d{i}', 'n', {i})" for i in range(bound))
    full.apply_source(f"Insert Into D Values {values};")
    return empty, full, values


def test_an_add_rebuilds_a_base_under_the_size_bound_and_extends_one_over_it(tmp_path,
                                                                             kernel_log):
    empty, full, values = _sized_copies(tmp_path)
    rows = full.query("Select * From D Order By D_N;").rows
    sent = [kernel_log(layer.conn) for layer in (empty, full)]
    for layer in (empty, full):
        layer.apply_source("Alter Table D Add D_X Char;")

    probe = base_size_probe("D")
    # the empty base is created again: no index read, no rows copied
    assert sent[0][4:8] == [
        probe, INDEX_LIST_D, "DROP TABLE D;",
        "CREATE TABLE D (D_K Char, D_NAME Char, D_N Int, D_X Char, PRIMARY KEY (D_K))"
        " WITHOUT ROWID;"]
    assert not [s for s in sent[0] if "sir_rebuild" in s or s.startswith("SELECT il.name")]
    assert sent[1][4:7] == [probe, INDEX_LIST_D, "ALTER TABLE D ADD COLUMN D_X Char;"]
    assert [s for s in sent[1] if s.startswith(("CREATE TABLE", "DROP TABLE"))] == []

    assert kernel_state(empty.conn) == kernel_state(full.conn)
    assert empty.explain("D") == full.explain("D")
    assert empty.catalog.snapshot() == full.catalog.snapshot()
    assert full.query("Select * From D Order By D_N;").rows == [row + (None,) for row in rows]
    empty.apply_source(f"Insert Into D (D_K, D_NAME, D_N) Values {values};")
    for query in ("Select * From D Order By D_N;", "Select * From R0;"):
        assert empty.query(query).rows == full.query(query).rows


def test_each_index_of_a_base_lowers_its_size_bound(tmp_path, kernel_log):
    layer = _reopened(tmp_path, _dimension_schema() + """
    Create Index D_I1 On D (D_NAME);
    Create Index D_I2 On D (D_N);
    Create Unique Index D_I3 On D (D_NAME, D_N);""")
    (objects,), = layer.conn.query("SELECT count(*) FROM sqlite_master").rows
    (_, bound, indexes), = layer.conn.query(base_size_probe("D")).rows
    # a rebuild fills the base and its three indexes
    assert indexes == 3
    assert bound == REBUILD_ROWS_PER_OBJECT * objects // 4
    values = ", ".join(f"('d{i}', 'n', {i})" for i in range(bound))
    layer.apply_source(f"Insert Into D Values {values};")
    # as many rows as the bound, fewer than the bound of a base without indexes
    assert bound < REBUILD_ROWS_PER_OBJECT * objects
    sent = kernel_log(layer.conn)
    layer.apply_source("Alter Table D Add D_X Char;")
    assert sent[4:7] == [base_size_probe("D"), INDEX_LIST_D, "ALTER TABLE D ADD COLUMN D_X Char;"]
    assert len(layer.query("Select * From R0;").rows) == 0
    assert layer.query("Select Count(*) From D Where D_X Is Null;").rows == [(bound,)]


@pytest.mark.parametrize("rows", [0, 1])
def test_a_rebuilt_base_under_the_bound_gets_its_index_back(tmp_path, kernel_log, rows):
    layer = _reopened(tmp_path, _dimension_schema() + "\nCreate Index D_I On D (D_N);"
                      + "\nInsert Into D Values ('d', 'n', 1);" * rows)
    sent = kernel_log(layer.conn)
    layer.apply_source("Alter Table D Add D_X Char;")

    assert sent[4] == base_size_probe("D") and sent[6].startswith("SELECT il.name")
    copies = [s for s in sent if "sir_rebuild" in s]
    assert len(copies) == (0 if rows == 0 else 3)
    assert "CREATE INDEX D_I ON D (D_N);" in sent
    assert layer.conn.indexes("D") == [("D_I", False, ["D_N"])]
    assert layer.query("Select D_K, D_X From D;").rows == [("d", None)] * rows


def test_a_not_null_add_is_refused_by_the_size_probe_only_where_rows_are(tmp_path,
                                                                         kernel_log):
    empty, full, _ = _sized_copies(tmp_path)
    sent = [kernel_log(layer.conn) for layer in (empty, full)]
    with pytest.raises(NotNullAttributeAdd, match="D has rows"):
        full.apply_source("Alter Table D Add D_X Char Not Null;")
    empty.apply_source("Alter Table D Add D_X Char Not Null;")
    assert empty.query("Select * From D;").columns[-1] == "D_X"
    assert [s.count(base_size_probe("D")) for s in sent] == [1, 1]
    assert sent[1][-1] == "ROLLBACK"


def test_create_with_two_ies_probes_its_final_view_once(tmp_path, kernel_log):
    layer = _reopened(tmp_path, _dimension_schema())
    sent = kernel_log(layer.conn)
    layer.apply_source(_dependent("R3"))

    assert not _named(sent, "DROP VIEW")
    assert _named(sent, "CREATE VIEW") == ["R3_1", "R3"]
    assert [PROBE.match(s).group(1) for s in sent if PROBE.match(s)] == ["R3"]
    _assert_lean_meta_statements(sent)
    # BEGIN, the DDL version and schema cookie with their two pragma lines,
    # the base, two views, the probe, one INSERT, the schema cookie read, the
    # DDL version write, COMMIT; SQLite's CREATE checks the names
    assert len(sent) == 1 + 3 + 3 + 1 + 1 + 2 + 1
    assert not [s for s in sent if "sqlite_master" in s]


def test_meta_tables_are_created_until_a_ddl_commits(kernel_log):
    layer = SirLayer(KernelConnection(":memory:"))
    sent = kernel_log(layer.conn)
    with pytest.raises(KernelError):
        # fails after the meta-table was created, so it rolls back
        layer.apply_source("Create Table T (A Int, B Int, Primary Key (A),"
                           " I (Select Count(*) As C From T As X Where T.A = X.A And NOPE = 1));")
    assert len([s for s in sent if "IF NOT EXISTS" in s]) == 1
    sent.clear()
    layer.apply_source("Create Table U (A Int, Primary Key (A));")
    assert len([s for s in sent if "IF NOT EXISTS" in s]) == 1
    sent.clear()
    layer.apply_source("Create Table W (A Int, Primary Key (A));")
    assert not [s for s in sent if "IF NOT EXISTS" in s]


def test_invalid_middle_stage_fails_through_the_final_view_probe(tmp_path, kernel_log,
                                                                 monkeypatch):
    layer = _reopened(tmp_path, "\n".join([
        "Create Table D (D_K Char, D_NAME Char, D_N Int, Primary Key (D_K));",
        "Create Table R (R_K Char, R_F1 Char, Primary Key (R_K),"
        " I_1 (Select */D_K From D Where R.R_F1 = D_K),"
        " TWICE As (D_N * 2), TAG As (R_K || 'x'));",
        "Insert Into D Values ('d1', 'one', 1);",
        "Insert Into R Values ('r1', 'd1');"]))
    assert [item.name for item in layer.catalog.get("R").views] == ["R_1", "R_2", "R"]
    kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    # a statement that fails to prepare is never traced, so the probes are
    # seen where the session attempts them
    attempted = []
    execute = KernelConnection.execute

    def record(self, sql, *args, **kwargs):
        attempted.append(sql)
        return execute(self, sql, *args, **kwargs)

    monkeypatch.setattr(KernelConnection, "execute", record)
    sent = kernel_log(layer.conn)

    with pytest.raises(DependentAttributeDrop, match="R reads through IE I_1 .*column: D_N"):
        layer.apply_source("Alter Table D Drop D_N;")
    # R_2 reads D_N from R_1; its text does not change, so R_2 is not
    # re-created and the probe of the final view R, which fails to prepare
    # (the trace shows no statement after CREATE VIEW R_1), finds the fault
    assert _named(sent, "CREATE VIEW") == ["R_1"]
    assert [sql for sql in attempted if sql.endswith(" LIMIT 0")] == ["SELECT * FROM R LIMIT 0"]
    assert sent[-2].startswith("CREATE VIEW R_1 ") and sent[-1] == "ROLLBACK"
    assert kernel_state(layer.conn) == kernel
    assert layer.catalog.snapshot() == snapshot
    assert layer.query("Select TWICE, TAG From R;").rows == [(2, "r1x")]


def test_base_rebuild_under_unchanged_views_returns_the_rows(tmp_path, kernel_log):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    rows = layer.query("Select * From SP Order By S#, P#;")
    qty = rows.columns.index("QTY")
    expected = [row[:qty] + row[qty + 1:] for row in rows.rows]
    sent = kernel_log(layer.conn)

    layer.apply_source("Alter Table SP Drop QTY;")
    assert "DROP TABLE SP_B;" in sent
    assert not _named(sent, "DROP VIEW") and not _named(sent, "CREATE VIEW")
    after = layer.query("Select * From SP Order By S#, P#;")
    assert after.columns == rows.columns[:qty] + rows.columns[qty + 1:]
    assert after.rows == expected
    snapshot = layer.catalog.snapshot()
    layer.conn.close()

    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    assert reopened.query("Select * From SP Order By S#, P#;").rows == expected


def _meta_counts(conn) -> dict[str, list]:
    """Per stored relation name, matched exactly: its number of
    sir_relations rows, the keys of the document its row holds, and the
    number of references that document records."""
    return {name: [count, sorted(json.loads(document)), references]
            for name, count, document, references in conn.query(
                "SELECT name, count(*), plan, json_array_length(plan, '$.references')"
                " FROM sir_relations GROUP BY name").rows}


def _meta_tables(conn) -> list[tuple]:
    return conn.query("SELECT name FROM sqlite_master WHERE name LIKE 'sir_%'").rows


def test_ddl_in_another_case_keeps_one_set_of_meta_rows(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("alter table sp add NOTE Char; create view v as select s#, qty from sp;")
    # a table's columns and IE order come from its scheme and stage facts;
    # only a view's columns are recorded
    counts = _meta_counts(layer.conn)
    assert counts == {entry.name: [1, ["columns", "plan", "references"] if entry.kind == "view"
                                   else ["plan", "references"], len(entry.references)]
                      for entry in layer.catalog.entries()}
    assert counts["SP"] == [1, ["plan", "references"], 2]
    assert counts["v"] == [1, ["columns", "plan", "references"], 1]
    assert _meta_tables(layer.conn) == [("sir_relations",)]

    layer.apply_source("drop table s cascade;")
    assert _meta_counts(layer.conn) == {"P": [1, ["plan", "references"], 0]}
    snapshot = layer.catalog.snapshot()
    layer.conn.close()
    assert SirLayer(KernelConnection(location)).catalog.snapshot() == snapshot


@pytest.mark.parametrize("schema, alter, broken, message", [
    # R's I_S names SNAME, and R does not star over S, so it is not recompiled;
    # the ALTER does not decide an IE with a nested select, the probe does
    pytest.param("Create Table S (S# Char, SNAME Char, Primary Key (S#));"
                 " Create Table R (K Char, Primary Key (K), I_S (Select SNAME From S"
                 " Where R.K = S# And SNAME In (Select SNAME From S)));",
                 "Alter Table S Drop SNAME;", "R", "no such column: S.SNAME",
                 id="explicit-ie"),
    # R0 is recompiled without D_N; the user view over R0 is not
    pytest.param(_dimension_schema() + "\nCreate View V As Select R0_K, D_N From R0;",
                 "Alter Table D Drop D_N;", "V", "no such column: D_N", id="user-view"),
])
def test_alter_refused_when_a_dependent_left_unchanged_breaks(tmp_path, kernel_log, schema,
                                                              alter, broken, message):
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source(schema)
    kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    sent = kernel_log(layer.conn)

    with pytest.raises(DependentAttributeDrop, match=message):
        layer.apply_source(alter)
    assert [PROBE.match(s).group(1) for s in sent if PROBE.match(s)][-1] == broken
    assert sent[-1] == "ROLLBACK"
    assert kernel_state(layer.conn) == kernel
    assert layer.catalog.snapshot() == snapshot
    layer.conn.close()
    assert SirLayer(KernelConnection(location)).catalog.snapshot() == snapshot


def _diamond(first: str, second: str) -> str:
    """B and A each inherit X through `*`, and A also inherits B's
    attributes beyond X's, so a column X gains reaches A twice."""
    return "\n".join([
        f"Create Table {first} (K Char, Primary Key (K));",
        f"Create Table {second} (K Char, Primary Key (K));",
        "Create Table X (K Char, XV Char, Primary Key (K));",
        "Alter Table B Add I_X (Select */K From X Where B.K = X.K);",
        "Alter Table A Add I_X (Select */K From X Where A.K = X.K),"
        " I_B (Select */(K, XV) From B Where A.K = B.K);",
        "Alter Table B Add BV Char;"])


def test_a_diamond_cascade_is_refused_in_either_registration_order(tmp_path):
    # B reads X and A reads both, so B is recompiled first whichever of A
    # and B was registered first; A then inherits XW from X and from B
    messages = []
    for first, second in (("A", "B"), ("B", "A")):
        location = str(tmp_path / f"{first}{second}.sqlite")
        layer = SirLayer(KernelConnection(location))
        layer.apply_source(_diamond(first, second))
        kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
        with pytest.raises(InvariantViolation) as err:
            layer.apply_source("Alter Table X Add XW Char;")
        messages.append(str(err.value))
        assert kernel_state(layer.conn) == kernel
        assert layer.catalog.snapshot() == snapshot
        layer.apply_source("Alter Table A Add AV Char;")
        layer.conn.close()
    assert messages == ["A: attribute name 'XW' produced more than once"] * 2


def test_a_star_over_a_base_inherits_an_added_attribute(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source("""
    Create Table Y (K Char, YV Char, Primary Key (K));
    Create Table R (K Char, RV Char, Primary Key (K), I_Y (Select */K From Y Where R.K = Y.K));
    Create Table T (K Char, Primary Key (K), I_R (Select */K From R_B Where T.K = R_B.K));
    Insert Into R Values ('k', 'v');
    Insert Into T Values ('k');
    """)
    layer.apply_source("Alter Table R Add RW Char;")
    layer.apply_source("Update R Set RW = 'w';")

    assert layer.catalog.get("T").column_names == ["K", "RV", "RW"]
    assert layer.conn.introspect("T") == ["K", "RV", "RW"]
    assert layer.query("Select * From T;").rows == [("k", "v", "w")]
    snapshot = layer.catalog.snapshot()
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))
    assert reopened.catalog.snapshot() == snapshot
    assert reopened.catalog.get("T").column_names == ["K", "RV", "RW"]
    assert reopened.query("Select * From T;").rows == [("k", "v", "w")]


_STAR_DEPENDENTS = """
Create Table XS (K Char, F Char, Primary Key (K), I_S (Select */S# From S Where XS.F = S#));
Create Table XP (K Char, F Char, Primary Key (K), I_P (Select */(P#, CITY) From P Where XP.F = P#),
  V As (K || F));
Create Table XX (K Char, Primary Key (K), I_X (Select */K From XS Where XX.K = XS.K));
"""


def _assert_chains_match_a_full_compile(layer: SirLayer, alter: str, recompiled: list[str]):
    """`alter` recompiles the view chains of `recompiled`, and each new
    entry equals a full `compile_sir` of its scheme; each stage view's
    columns, as the kernel reports them, are the stored attributes plus
    what the stage facts say the stages up to it add."""
    name = alter.split()[2]
    before = {entry.name: entry for entry in layer.catalog.entries()}
    layer.apply_source(alter)
    assert [dep for dep in layer.catalog.transitive_dependents(name)
            if layer.catalog.get(dep) is not before[dep]] == recompiled
    for dep in recompiled:
        entry = layer.catalog.get(dep)
        full = compile_sir(entry.scheme, layer.catalog)
        assert [(i.name, i.kind, i.sql, i.stage) for i in entry.plan] == \
            [(i.name, i.kind, i.sql, i.stage) for i in full.plan]
        assert entry.columns == full.columns
        assert (entry.references, entry.source_text, entry.ie_order) == \
            (full.references, full.source_text, full.ie_order)
        columns = list(entry.scheme.stored_names)
        for item in entry.views:
            columns += item.stage.adds
            assert layer.conn.introspect(item.name) == \
                (columns if item.stage.kind != "reorder" else entry.column_names)
        assert layer.conn.introspect(dep) == entry.column_names


@pytest.mark.parametrize("reopen", [False, True], ids=["created", "reopened"])
def test_a_chain_only_recompile_equals_a_full_compile(tmp_path, reopen):
    location = str(tmp_path / "sp3.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source(fixture_text("sp3_alters.sirsql") + _STAR_DEPENDENTS)
    if reopen:
        layer.conn.close()
        layer = SirLayer(KernelConnection(location))
    _assert_chains_match_a_full_compile(layer, "Alter Table S Add NOTE Char;", ["XS", "XX"])
    _assert_chains_match_a_full_compile(layer, "Alter Table P Add COST Int;", ["XP"])
    _assert_chains_match_a_full_compile(layer, "Alter Table S Drop NOTE;", ["XS", "XX"])

    dims = _reopened(tmp_path, _dimension_schema(), "dims") if reopen else \
        SirLayer(KernelConnection(str(tmp_path / "dims.sqlite")))
    if not reopen:
        dims.apply_source(_dimension_schema())
    _assert_chains_match_a_full_compile(dims, "Alter Table D Add D_X Char;", ["R0", "R1", "R2"])
    _assert_chains_match_a_full_compile(dims, "Alter Table E Drop E_NAME;", ["R0", "R1", "R2"])


@pytest.mark.parametrize("raw, statement", [
    ("CREATE TABLE r3_b (x)", _dependent("R3")),
    ("CREATE INDEX r3_1 ON D_X (x)", _dependent("R3")),
    ("CREATE TABLE dv (x)", "Create View DV As Select D_K From D;"),
    ("CREATE INDEX dv ON D_X (x)", "Create View DV As Select D_K From D;"),
], ids=["table-over-table", "table-over-index", "view-over-table", "view-over-index"])
def test_a_create_over_a_raw_kernel_object_is_a_name_collision(tmp_path, kernel_log, raw,
                                                               statement):
    """SQLite's own CREATE refuses a name that another object holds in any
    case; the layer then names that object, and nothing changes."""
    layer = _reopened(tmp_path, _dimension_schema())
    layer.conn.execute("CREATE TABLE D_X (x)")
    layer.conn.execute(raw)
    kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    sent = kernel_log(layer.conn)
    name = raw.split()[2]
    with pytest.raises(NameCollision, match=f"kernel object '{name}' already exists"):
        layer.apply_source(statement)
    assert sent[0] == "BEGIN IMMEDIATE" and "ROLLBACK" in sent
    assert kernel_state(layer.conn) == kernel
    assert layer.catalog.snapshot() == snapshot


def test_a_name_lost_through_a_star_cascade_is_refused_and_changes_nothing(tmp_path, kernel_log):
    # Y inherits NOTE through `*` over S; Z's unqualified NOTE reads Y's,
    # and would silently read Z's own NOTE once Y is recompiled without it
    location = str(tmp_path / "db.sqlite")
    layer = SirLayer(KernelConnection(location))
    layer.apply_source(
        "Create Table S (S# Char, SNAME Char, NOTE Char, Primary Key (S#));"
        " Create Table Y (K Char, Primary Key (K), I (Select */S# From S Where Y.K = S.S#));"
        " Create Table Z (K Char, NOTE Char, Primary Key (K),"
        " I_C (Select Count(*) As C From Y Where Z.K = Y.K And NOTE = 'x'));"
        " Insert Into S Values ('s1', 'n', 'y'); Insert Into Y Values ('s1');"
        " Insert Into Z Values ('s1', 'x');")
    kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    sent = kernel_log(layer.conn)

    with pytest.raises(DependentAttributeDrop,
                       match=r"Z reads through IE I_C \(no such column: Y\.NOTE\)"):
        layer.apply_source("Alter Table S Drop NOTE;")
    assert sent == []                   # refused before any kernel statement
    assert kernel_state(layer.conn) == kernel
    assert layer.catalog.snapshot() == snapshot
    assert layer.query("Select * From Z;").rows == [("s1", "x", 0)]


@pytest.mark.parametrize("view", [
    "Create View V As Select S#, S#, SNAME As S# From S;",
    "Create View V As Select STATUS + 1, Upper(SNAME), Count(*) From S Group By STATUS, SNAME;",
    "Create View V As Select SNAME As N, CITY As C From S;",
    "Create View V As Select * From S, P Where S.CITY = P.CITY;",
    "Create View V As Select * From SP Join S On SP.S# = S.S#;",
], ids=["duplicates", "expressions", "aliases", "star-over-comma-join", "star-over-join"])
def test_a_views_columns_from_its_probe_are_the_kernels_table_info(view):
    layer = load_sp2(SirLayer(KernelConnection(":memory:")))
    layer.apply_source(view)
    assert layer.catalog.get("V").column_names == layer.conn.introspect("V")
    layer.apply_source("Alter Table S Add NOTE Char;")
    assert layer.catalog.get("V").column_names == layer.conn.introspect("V")


def test_a_view_dependent_whose_columns_stay_writes_no_meta_row(kernel_log):
    layer = load_sp2(SirLayer(KernelConnection(":memory:")))
    layer.apply_source("Create View KEPT As Select S#, SNAME From SP;"
                       " Create View GROWN As Select * From S;")
    sent = kernel_log(layer.conn)

    layer.apply_source("Alter Table S Add NOTE Char;")
    # SP names what it inherits from S, so its columns stay, and KEPT's
    assert sorted(PROBE.match(s).group(1) for s in sent if PROBE.match(s)) == ["GROWN", "KEPT", "SP"]
    written = [s.rsplit(" WHERE name = ", 1)[1] for s in sent
               if s.startswith("UPDATE sir_relations")]
    assert sorted(written) == ["'GROWN'", "'S'"]
    assert layer.catalog.get("GROWN").column_names[-1] == "NOTE"


def test_a_star_over_a_base_that_the_alter_removes_is_refused_by_the_probe(kernel_log):
    # X loses its only IE, so its base X_B goes; Y's `*` over X_B is not
    # recompiled against a base that no longer exists, and its probe fails
    layer = SirLayer(KernelConnection(":memory:"))
    layer.apply_source(
        "Create Table D (K Char, V Char, Primary Key (K));"
        " Create Table X (K Char, Primary Key (K), I (Select V From D Where X.K = D.K));"
        " Create Table Y (K Char, Primary Key (K), J (Select */K From X_B Where Y.K = X_B.K));")
    kernel, snapshot = kernel_state(layer.conn), layer.catalog.snapshot()
    sent = kernel_log(layer.conn)

    with pytest.raises(DependentAttributeDrop, match="Y reads through IE J .*no such table"):
        layer.apply_source("Alter Table X Drop I;")
    assert sent[-1] == "ROLLBACK"
    assert kernel_state(layer.conn) == kernel
    assert layer.catalog.snapshot() == snapshot


def _scanning_size_probe(base: str) -> str:
    """`base_size_probe` as first written: it counted the base's indexes
    by decoding every `sqlite_master` row."""
    name = base.replace("'", "''")
    indexes = (f"sum(type = 'index' AND tbl_name = '{name}' COLLATE NOCASE"
               " AND sql IS NOT NULL)")
    return (f"WITH m (bound, indexes) AS (SELECT {REBUILD_ROWS_PER_OBJECT} * objects"
            f" / (1 + indexes), indexes FROM (SELECT count(*) AS objects, {indexes} AS indexes"
            f" FROM sqlite_master)) SELECT (SELECT count(*) FROM (SELECT 1 FROM \"{base}\""
            " LIMIT (SELECT bound FROM m))), bound, indexes FROM m")


def test_the_size_probe_counts_what_a_scan_of_sqlite_master_counts(tmp_path):
    layer = _reopened(tmp_path, _dimension_schema() + """
    Create Table R (K Char, V Char, W Int, Primary Key (K), Unique (V),
      I_D (Select D_NAME From D Where R.K = D_K));
    Create Index r_w On R (W);
    Create Index r_vw On R (V, W);
    Create Table N (K Integer, U Int, Primary Key (K), Unique (U));
    Create Index n_u2 On N (U, K);
    Insert Into R Values ('a', 'v', 1), ('b', 'w', 2);
    Insert Into N Values (1, 1);""")
    probed = {}
    for base in ("R_B", "r_B", "D", "E", "N"):
        probed[base], = layer.conn.query(base_size_probe(base)).rows
        assert layer.conn.query(_scanning_size_probe(base)).rows == [probed[base]], base
    (objects,), = layer.conn.query("SELECT count(*) FROM sqlite_master").rows
    bound = REBUILD_ROWS_PER_OBJECT * objects
    assert probed["R_B"] == probed["r_B"] == (2, bound // 3, 2)
    assert probed["D"] == (0, bound, 0)
    assert probed["N"] == (1, bound // 2, 1)
