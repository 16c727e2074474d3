from __future__ import annotations

import re

import pytest

from sirsql import catalog as catalog_module
from sirsql.catalog import STORED, Catalog, CatalogEntry
from sirsql.cli import main
from sirsql.errors import (CircularReferenceError, CorruptCatalog, DependentsExist,
                           DuplicateName, InvariantViolation, NameCollision,
                           UnknownRelation)
from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
from sirsql.parser import parse_one
from sirsql.render import render
from sirsql.router import route

from conftest import fixture_text, kernel_state, load_sp2, replay_dump, write_four_table_sp2

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


def test_load_detects_tamperedkernel_state(tmp_path):
    location = str(tmp_path / "db.sqlite")
    layer = load_sp2(SirLayer(KernelConnection(location)), with_data=False)
    layer.conn.execute("UPDATE sir_relations SET plan = json_remove(plan, '$.ie_order[1]')"
                       " WHERE name = 'SP'")
    layer.conn.close()
    reopened = SirLayer(KernelConnection(location))     # SP's scheme is not read at open
    with pytest.raises(CorruptCatalog):
        reopened.catalog.get("SP").scheme


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


# the faults `Catalog.load` finds without parsing a scheme
_FOUND_AT_OPEN = "kernel object|unreadable plan"
# only a catalog in the four-table format has these tables
_FOUR_TABLE_DETAILS = re.compile(r"\bsir_(attrs|ies)\b")


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
    ("DELETE FROM sir_ies WHERE rel = 'SP'", "^SP: recorded IEs"),
    ("DELETE FROM sir_attrs WHERE rel = 'P'", "^P: recorded columns"),
    ("DELETE FROM sir_attrs WHERE rel = 'SP' AND NOT is_inherited", "^SP: recorded columns"),
    # meta rows belong to the relation whose name they repeat exactly
    ("UPDATE sir_attrs SET rel = 'sp' WHERE rel = 'SP'", "^SP: recorded columns"),
    ("UPDATE sir_ies SET rel = 'sp' WHERE rel = 'SP'", "^SP: recorded IEs"),
    # the same faults in the one-row document
    ("UPDATE sir_relations SET plan = json_set(plan, '$.ie_order', json('[]'))"
     " WHERE name = 'SP'", "^SP: recorded IEs"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.columns', json('[]'))"
     " WHERE name = 'P'", "^P: recorded columns"),
    ("UPDATE sir_relations SET plan = json_remove(plan, '$.columns[0]', '$.columns[0]',"
     " '$.columns[0]') WHERE name = 'SP'", "^SP: recorded columns"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.columns[0][0]', 'X')"
     " WHERE name = 'P'", "^P: recorded columns"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.plan[0]',"
     " json('[\"SP_B\", \"table\", \"\", {}, 1]')) WHERE name = 'SP'", "^SP: unreadable plan"),
    ("UPDATE sir_relations SET plan = json_remove(plan, '$.columns') WHERE name = 'SP'",
     "^SP: unreadable plan"),
    ("UPDATE sir_relations SET plan = json_remove(plan, '$.ie_order') WHERE name = 'SP'",
     "^SP: unreadable plan"),
    ("UPDATE sir_relations SET plan = json_set(plan, '$.columns[1]', json('[\"SNAME\"]'))"
     " WHERE name = 'S'", "^S: unreadable plan"),
])
def test_load_rejects_each_kind_of_corruption(tmp_path, sabotage, message, capsys):
    location = str(tmp_path / "db.sqlite")
    if _FOUR_TABLE_DETAILS.search(sabotage):
        write_four_table_sp2(location)
        conn = KernelConnection(location)
    else:
        conn = load_sp2(SirLayer(KernelConnection(location)), with_data=False).conn
    conn.execute(sabotage)  # behind the catalog's back
    conn.close()
    if re.search(_FOUND_AT_OPEN, message):
        with pytest.raises(CorruptCatalog, match=message):
            SirLayer(KernelConnection(location))
    else:
        # a fault in a scheme's source text or meta rows surfaces when the
        # scheme is first read: routing Count(*) reads SP's and its sources'
        reopened = SirLayer(KernelConnection(location))
        with pytest.raises(CorruptCatalog, match=message):
            reopened.query("Select Count(*) From SP;")
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
    layer.catalog.snapshot()
    assert main(["-k", location, "explain", "SP"]) == 0
    assert "CREATE VIEW" in capsys.readouterr().out
    assert parsed == []


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


SP2_QUERIES = ["Select * From SP Order By S#, P#;", "Select Count(*) From SP;",
               "Select SCITY, Count(*) From SP Group By SCITY Order By SCITY;",
               "Select S#, STATUS From S Order By S#;"]


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
    # the three reads of the current format, then one per detail table; no write
    assert len(sent) == 3 + 3
    assert not [s for s in sent if not s.startswith(("SELECT", "PRAGMA"))]
    # the one difference: the untouched legacy bases keep their rowid SQL
    assert legacy.catalog.snapshot() == _rowid_bases(current.catalog.snapshot(),
                                                     ["S", "P", "SP"])
    legacy.catalog.audit()
    for sql in SP2_QUERIES:
        assert legacy.query(sql) == current.query(sql)
    assert legacy.explain("SP") == [current.explain("SP")[0].replace(" WITHOUT ROWID;", ";")] \
        + current.explain("SP")[1:]


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
    # S and SP were rebuilt key-clustered; the untouched P keeps its rowid SQL
    assert reopened.catalog.snapshot() == _rowid_bases(current.catalog.snapshot(), ["P"])
    for sql in SP2_QUERIES:
        assert reopened.query(sql) == current.query(sql)
    # the altered relations' rows are in the current form; P's is untouched
    assert reopened.conn.query(
        "SELECT name, json_type(plan) FROM sir_relations ORDER BY name").rows == \
        [("P", "array"), ("S", "object"), ("SP", "object")]


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
    # the fused and collapsed chains are still what the file holds
    assert [len(flagged.explain(name)) for name in SKIP_COLLAPSE_RELATIONS] == [2, 2, 3, 2, 2, 3]
    assert flagged.catalog.get("P").views[0].stage.ies == ["WEIGHT_KG", "WEIGHT_T"]
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
