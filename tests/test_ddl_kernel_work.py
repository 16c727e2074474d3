"""What DDL sends to the kernel: only changed views are re-created, each
created or altered relation is probed once on its final view, meta rows are
maintained through their keys, and the cascade stays safe."""

from __future__ import annotations

import re

import pytest

from sirsql.errors import KernelError
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

from conftest import load_sp2

PROBE = re.compile(r"SELECT \* FROM (\S+) LIMIT 0$")


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


def _reopened(tmp_path, source: str) -> SirLayer:
    """A session over a file whose meta-tables already exist at open."""
    location = str(tmp_path / "db.sqlite")
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


def _kernel_state(layer):
    return [layer.conn.query(sql).rows for sql in (
        "SELECT type, name, sql FROM sqlite_master ORDER BY name",
        "SELECT name, kind, source_text, plan FROM sir_relations ORDER BY rowid",
        "SELECT * FROM sir_attrs ORDER BY rel, ordinal",
        "SELECT * FROM sir_ies ORDER BY rel, ordinal",
        "SELECT * FROM sir_deps ORDER BY rowid")]


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
    # BEGIN, ADD COLUMN, COMMIT; D: UPDATE, 3 DELETEs, 1 INSERT; each
    # dependent: DROP, CREATE, probe, UPDATE, 3 DELETEs, 3 INSERTs
    assert len(sent) == 3 + 5 + 3 * 10
    assert layer.query("Select * From R1;").columns[-1] == "E_NAME"
    assert "D_X" in layer.query("Select * From R1;").columns


def test_create_with_two_ies_probes_its_final_view_once(tmp_path, kernel_log):
    layer = _reopened(tmp_path, _dimension_schema())
    sent = kernel_log(layer.conn)
    layer.apply_source(_dependent("R3"))

    assert not _named(sent, "DROP VIEW")
    assert _named(sent, "CREATE VIEW") == ["R3_1", "R3"]
    assert [PROBE.match(s).group(1) for s in sent if PROBE.match(s)] == ["R3"]
    _assert_lean_meta_statements(sent)
    # the name check, BEGIN, the base, two views, the probe, one INSERT per
    # meta-table, COMMIT
    assert len(sent) == 1 + 1 + 3 + 1 + 4 + 1
    assert len([s for s in sent if "sqlite_master" in s]) == 1


def test_meta_tables_are_created_until_a_ddl_commits(kernel_log):
    layer = SirLayer(KernelConnection(":memory:"))
    sent = kernel_log(layer.conn)
    with pytest.raises(KernelError):
        # fails after the meta-tables were created, so they roll back
        layer.apply_source("Create Table T (A Int, B Int, Primary Key (A),"
                           " I (Select Count(*) As C From T As X Where T.A = X.A And NOPE = 1));")
    assert len([s for s in sent if "IF NOT EXISTS" in s]) == 4
    sent.clear()
    layer.apply_source("Create Table U (A Int, Primary Key (A));")
    assert len([s for s in sent if "IF NOT EXISTS" in s]) == 4
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
    kernel, snapshot = _kernel_state(layer), layer.catalog.snapshot()
    probed = []
    probe = SirLayer._probe_view
    monkeypatch.setattr(SirLayer, "_probe_view",
                        lambda self, conn, name, origin: (probed.append(name),
                                                          probe(self, conn, name, origin)))
    sent = kernel_log(layer.conn)

    with pytest.raises(KernelError, match="no such column: D_N"):
        layer.apply_source("Alter Table D Drop D_N;")
    # R_2 reads D_N from R_1; its text does not change, so R_2 is not
    # re-created and the probe of the final view R, which fails to prepare
    # (the trace shows no statement after CREATE VIEW R_1), finds the fault
    assert _named(sent, "CREATE VIEW") == ["R_1"]
    assert probed == ["R"]
    assert sent[-2].startswith("CREATE VIEW R_1 ") and sent[-1] == "ROLLBACK"
    assert _kernel_state(layer) == kernel
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


def _meta_counts(conn) -> dict[str, tuple]:
    """Per stored relation name: sir_relations, sir_attrs, sir_ies and
    sir_deps row counts, the names matched exactly."""
    counts = {}
    for (name,) in conn.query("SELECT name FROM sir_relations").rows:
        counts[name] = tuple(
            conn.execute(f"SELECT count(*) FROM {table} WHERE {column} = ?", (name,)).rows[0][0]
            for table, column in (("sir_relations", "name"), ("sir_attrs", "rel"),
                                  ("sir_ies", "rel"), ("sir_deps", "src")))
    return counts


def test_ddl_in_another_case_keeps_one_set_of_meta_rows(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)))
    layer.apply_source("alter table sp add NOTE Char;")
    counts = _meta_counts(layer.conn)
    assert counts == {entry.name: (1, len(entry.columns), len(entry.ie_order),
                                   len(entry.references))
                      for entry in layer.catalog.entries()}
    assert counts["SP"] == (1, 11, 2, 2)
    assert layer.conn.query("SELECT count(*) FROM sir_attrs").rows == [(4 + 5 + 11,)]

    layer.apply_source("drop table s cascade;")
    assert _meta_counts(layer.conn) == {"P": (1, 5, 0, 0)}
    for table in ("sir_attrs", "sir_ies", "sir_deps"):
        column = "src" if table == "sir_deps" else "rel"
        assert layer.conn.query(f"SELECT count(*) FROM {table} WHERE {column} <> 'P'").rows \
            == [(0,)]
    snapshot = layer.catalog.snapshot()
    layer.conn.close()
    assert SirLayer(KernelConnection(location)).catalog.snapshot() == snapshot


def test_meta_rows_split_where_the_kernel_binds_fewer_parameters(tmp_path, kernel_log):
    default = load_sp2(SirLayer(KernelConnection(str(tmp_path / "default.sqlite"))),
                       with_data=False)
    location = str(tmp_path / "narrow.sqlite")
    narrow = SirLayer(KernelConnection(location))
    narrow.conn.max_params = 14                 # two sir_attrs rows per INSERT
    sent = kernel_log(narrow.conn)
    load_sp2(narrow, with_data=False)

    sp_attrs = [s for s in sent if s.startswith("INSERT INTO sir_attrs VALUES ('SP'")]
    assert len(sp_attrs) == 5                   # SP's 10 columns
    details = ("SELECT * FROM sir_attrs ORDER BY rel, ordinal",
               "SELECT * FROM sir_ies ORDER BY rel, ordinal",
               "SELECT * FROM sir_deps ORDER BY rowid")
    assert [narrow.conn.query(sql).rows for sql in details] == \
        [default.conn.query(sql).rows for sql in details]
    snapshot = narrow.catalog.snapshot()
    narrow.conn.close()
    assert SirLayer(KernelConnection(location)).catalog.snapshot() == snapshot
