from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

# queries over S-P2, and over S-P3 (S-P2 after `sp3_alters.sirsql`)
SP2_QUERIES = ["Select * From SP Order By S#, P#;", "Select Count(*) From SP;",
               "Select SCITY, Count(*) From SP Group By SCITY Order By SCITY;",
               "Select S#, STATUS From S Order By S#;"]
SP3_QUERIES = SP2_QUERIES + ["Select * From P Order By P#;", "Select * From S Order By S#;",
                             "Select Count(*) From S Where STATUS > 2;"]

# what every open and DDL reads first, the DDL version and the schema
# cookie, as sqlite3's trace callback reports it: the statement, then the
# pragma each of its table-valued functions runs
VERSIONS = "SELECT user_version, schema_version FROM pragma_user_version, pragma_schema_version"
VERSIONS_TRACED = [VERSIONS, "-- PRAGMA user_version", "-- PRAGMA schema_version"]
_META_ROWS = "SELECT name, kind, source_text, plan FROM sir_relations ORDER BY rowid"
# the reads of an open whose donor vouches for no kernel text
COLD_READS = VERSIONS_TRACED + ["SELECT name, sql FROM sqlite_master", _META_ROWS]
# the reads of an open whose donor has the file's DDL version and schema cookie
WARM_READS = VERSIONS_TRACED + [_META_ROWS]


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def make_layer(**kwargs) -> SirLayer:
    return SirLayer(KernelConnection(":memory:"), **kwargs)


def load_sp2(layer: SirLayer, with_data: bool = True) -> SirLayer:
    layer.apply_source(fixture_text("sp2_schema.sirsql"))
    if with_data:
        layer.apply_source(fixture_text("sp2_data.sirsql"))
    return layer


def kernel_state(conn: KernelConnection) -> list[list[tuple]]:
    """The kernel objects and the meta rows, for comparing a file before and
    after a statement."""
    return [conn.query(sql).rows for sql in (
        "SELECT type, name, sql FROM sqlite_master ORDER BY name",
        "SELECT name, kind, source_text, plan FROM sir_relations ORDER BY rowid")]


def assert_plans_match_kernel(layer: SirLayer):
    """Each plan item's CREATE text is the kernel's own text of its object,
    so no plan claims a name spelling or a storage form its kernel object
    lacks."""
    kernel = dict(layer.conn.query("SELECT name, sql FROM sqlite_master").rows)
    for entry in layer.catalog.entries():
        for item in entry.plan:
            assert item.sql == kernel[item.name] + ";", item.name


def replay_dump(location: str, fixture: str):
    """Write the file whose `iterdump()` text is the fixture `fixture`."""
    db = sqlite3.connect(location)
    try:
        db.executescript(fixture_text(fixture))
    finally:
        db.close()


def write_seed_documents(layer: SirLayer):
    """Rewrite every meta row of `layer`'s file as the seed wrote it: plan
    rows [name, kind, sql] without stage facts, and the columns and IE order
    recorded.  A session that opens the file upgrades every row."""
    for entry in layer.catalog.entries():
        document = {
            "plan": [[item.name, item.kind, item.sql] for item in entry.plan],
            "columns": [[c.name, c.sql_type, c.is_key, c.is_inherited, c.ie_name]
                        for c in entry.columns],
            "ie_order": entry.ie_order, "references": entry.references}
        layer.conn.execute("UPDATE sir_relations SET plan = ? WHERE name = ?",
                           (json.dumps(document), entry.name))


def write_four_table_sp2(location: str):
    """Write S-P2, data included, as a file in the earlier four-table
    catalog format (`sir_relations` plus `sir_attrs`, `sir_ies` and
    `sir_deps`), replayed from a dump of a file that format's writer made."""
    replay_dump(location, "sp2_four_table.sql")


@pytest.fixture
def conn():
    connection = KernelConnection(":memory:")
    yield connection
    connection.close()


@pytest.fixture
def kernel_log():
    """`kernel_log(conn)` starts recording the SQL statements a
    KernelConnection sends to SQLite, BEGIN and COMMIT included, and returns
    the list they are appended to; recording stops at teardown."""
    watched = []

    def record(connection: KernelConnection) -> list[str]:
        sent: list[str] = []
        connection._db.set_trace_callback(sent.append)
        watched.append(connection)
        return sent

    yield record
    for connection in watched:
        try:
            connection._db.set_trace_callback(None)
        except sqlite3.ProgrammingError:        # closed by the test
            pass


@pytest.fixture
def layer(conn):
    return SirLayer(conn)


@pytest.fixture
def sp2(layer):
    """S-P2 schema loaded with the standard 5/6/12-row contents."""
    return load_sp2(layer)


@pytest.fixture
def sp3(sp2):
    """S-P2 evolved into S-P3: computed WEIGHT_T/WEIGHT_KG and STATUS."""
    sp2.apply_source(fixture_text("sp3_alters.sirsql"))
    return sp2
