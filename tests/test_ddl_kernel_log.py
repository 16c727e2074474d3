"""The kernel statements of DDL, pinned against a golden log.

Each scenario runs dialect statements one at a time and records, for each,
its text, every SQL statement the session sent to SQLite (through sqlite3's
trace callback, BEGIN, COMMIT and ROLLBACK included) and its outcome: the
result's action and kernel objects, or the error's type and message.  A meta
row's `created_at` is masked.  The log covers creates, ALTER cascades, drops,
indexes and the refusals, on a fresh S-P2/S-P3, on the three dump fixtures
and on the start of the `ddl_catalog` benchmark workload.

`PYTHONPATH=src python tests/test_ddl_kernel_log.py` rewrites the golden file.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

from sirsql.kernel import KernelConnection
from sirsql.layer import SirLayer
from sirsql.parser import parse
from sirsql.render import render_source

from conftest import GOLDEN, assert_plans_match_kernel, fixture_text, replay_dump

LOG = GOLDEN / "ddl_kernel_log.txt"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_TIMESTAMP = re.compile(r"'\d{4}-\d\d-\d\dT[0-9:.]+\+00:00'")

REFUSALS = """
Create Table S (S# Char, Primary Key (S#));
Create Table X (K Char, Primary Key (K), I (Select A From NOPE Where X.K = A));
Alter Table SP Add NN Char Not Null;
Alter Table P Drop PNAME;
Create Table Q (QK Char, QA Char, Primary Key (QK));
Insert Into Q Values ('q1', 'a'), ('q2', 'b');
Create View QV As Select QK, QA From Q;
Alter Table Q Drop QA;
Drop Index nope;
Drop Table S;
"""

STARS_AND_DROPS = """
Create Table Y (K Char, Primary Key (K), I (Select */S# From S Where Y.K = S#));
Create View SV As Select * From S;
Create View YV As Select * From Y;
Alter Table S Add NOTE Char;
Alter Table S Drop NOTE;
Create Index sp_qty On SP (QTY);
Create Unique Index y_k On Y (K);
Drop Index sp_qty;
Drop View QV;
Drop Table Y;
Drop View YV;
Drop Table Y;
Drop Table S Cascade;
"""

ON_A_DUMP = """
Alter Table P Add NOTE Char;
Alter Table P Drop NOTE;
Alter Table SP Add QTY2 As (QTY * 2);
Create Index sp_qty On SP (QTY);
Drop Table S Cascade;
"""


class _Log:
    def __init__(self):
        self.lines: list[str] = []
        self.sent: list[str] = []

    def watch(self, conn: KernelConnection) -> KernelConnection:
        conn._db.set_trace_callback(self.sent.append)
        return conn

    def heading(self, title: str):
        self.flush()
        self.lines.append(f"## {title}")

    def flush(self):
        for sql in self.sent:
            self.lines.append("  " + _TIMESTAMP.sub("'<created_at>'", sql).replace("\n", "\\n"))
        self.sent.clear()

    def run(self, layer: SirLayer, text: str):
        """Apply each statement of `text` and record what it sent and did.
        After each statement that succeeds, so after every commit, each plan
        holds the kernel's own texts (`check_plans`)."""
        for stmt in parse(text):
            self.flush()
            self.lines.append("> " + render_source(stmt))
            try:
                result = layer.apply_statement(stmt)
            except Exception as exc:    # every refusal is recorded, not raised
                self.flush()
                self.lines.append(f"! {type(exc).__name__}: {exc}".replace("\n", "\\n"))
            else:
                self.flush()
                self.lines.append(f"= {result.action}: {', '.join(result.objects)}")
                self.check_plans(layer)

    def check_plans(self, layer: SirLayer):
        """`assert_plans_match_kernel`, which a later open that reads no
        kernel text relies on; what it sends is not logged."""
        self.flush()
        assert_plans_match_kernel(layer)
        self.sent.clear()

    def text(self) -> str:
        self.flush()
        return "\n".join(self.lines) + "\n"


def _ddl_catalog_ops(count: int):
    """The benchmark's `ddl_catalog` seed-1 model, and its first `count`
    dialect statements after the setup."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look the module up by name
    spec.loader.exec_module(module)
    model = module.DdlCatalog(1)
    texts = []
    for op in model.ops():
        if op.kind == "apply":
            texts.append(op.text)
            if len(texts) == count:
                return model, texts


def ddl_kernel_log(tmp_path: Path) -> str:
    log = _Log()
    log.heading("S-P2, then S-P3")
    layer = SirLayer(log.watch(KernelConnection(":memory:")))
    log.run(layer, fixture_text("sp2_schema.sirsql"))
    log.run(layer, fixture_text("sp2_data.sirsql"))
    log.run(layer, fixture_text("sp3_alters.sirsql"))
    log.heading("refusals on S-P3")
    log.run(layer, REFUSALS)
    log.heading("a star dependent's recompile, indexes and drops")
    log.run(layer, STARS_AND_DROPS)

    for fixture in ("sp2_four_table.sql", "sp3_recorded_columns.sql", "sp3_skip_collapse.sql"):
        location = str(tmp_path / fixture.replace(".sql", ".sqlite"))
        replay_dump(location, fixture)
        log.heading(f"open {fixture}")
        layer = SirLayer(log.watch(KernelConnection(location)))
        log.check_plans(layer)          # the open upgraded the dump
        log.run(layer, ON_A_DUMP)
        layer.conn.close()

    model, texts = _ddl_catalog_ops(16)
    layer = SirLayer(KernelConnection(":memory:"))
    for text in model.setup_texts():
        layer.apply_source(text)
    log.heading("ddl_catalog seed 1, after its setup")
    log.watch(layer.conn)
    for text in texts:
        log.run(layer, text)
    return log.text()


def test_the_ddl_kernel_log_matches_the_golden_one(tmp_path):
    assert ddl_kernel_log(tmp_path) == LOG.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        LOG.write_text(ddl_kernel_log(Path(scratch)), encoding="utf-8")
