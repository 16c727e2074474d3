"""Adapter for the kernel: SQLite, through sqlite3 (single file or in-memory).

There is one kernel, so there is one spelling of kernel SQL (see `render`).
The adapter adds no semantics of its own: SQL handed to `execute` runs
verbatim, with engine errors wrapped in KernelError carrying the originating
statement.

Opening checks the SQLite version once: 3.35 and later have every feature
the layer relies on (left joins, scalar subqueries, group_concat, iif, and
the RETURNING of a strict-integrity INSERT); an older library raises
CapabilityMissing.

Decimal note: the engine's Round(x, d) is round-half-away-from-zero.

Concurrency: a connection is used only by the thread that opened it; a
call from any other thread fails with KernelError (sqlite3's
ProgrammingError).
"""

from __future__ import annotations

import contextlib
import sqlite3
from dataclasses import dataclass

from .errors import CapabilityMissing, KernelError, UnknownObject


@dataclass
class RowSet:
    columns: list[str]
    rows: list[tuple]

    def __len__(self):
        return len(self.rows)

    def column(self, name: str) -> list:
        idx = [c.casefold() for c in self.columns].index(name.casefold())
        return [row[idx] for row in self.rows]


class KernelConnection:
    """One open kernel database."""

    def __init__(self, location: str = ":memory:"):
        if sqlite3.sqlite_version_info < (3, 35):
            raise CapabilityMissing(f"SQLite {sqlite3.sqlite_version} is older than 3.35")
        self.location = location
        self._db = sqlite3.connect(location)
        self._db.isolation_level = None  # explicit BEGIN/COMMIT
        # the most parameters one statement may bind (Connection.getlimit is 3.11+)
        self.max_params = (self._db.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
                           if hasattr(self._db, "getlimit") else 32766)

    def close(self):
        self._db.close()

    # --- execution ---

    def execute(self, sql: str, params=(), origin=None):
        """Run kernel-dialect SQL.

        Queries return a RowSet; DDL/DML return the affected-row count.
        `origin` is the sirsql-layer statement attached to error reports, or
        a callable producing it, called only when there is an error.
        """
        before = self._db.total_changes
        try:
            cursor = self._db.execute(sql, params)
        except sqlite3.Error as exc:
            if callable(origin):
                origin = origin()
            raise KernelError(f"{type(exc).__name__}: {exc}", origin or sql) from exc
        if cursor.description is not None:
            columns = [d[0] for d in cursor.description]
            return RowSet(columns=columns, rows=cursor.fetchall())
        return self._db.total_changes - before

    def query(self, sql: str, origin: str | None = None) -> RowSet:
        result = self.execute(sql, origin=origin)
        if not isinstance(result, RowSet):
            raise KernelError("statement did not produce rows", origin or sql)
        return result

    # --- transactions ---

    def within_transaction(self, work):
        """Run `work(conn)`; commit everything or roll back everything.  The
        transaction takes the write lock at once (every caller writes), so
        what `work` reads stays current until the commit.  A read-only or
        locked file fails it with KernelError."""
        if self._db.in_transaction:
            raise KernelError("transaction already open on this connection")
        self.execute("BEGIN IMMEDIATE")
        try:
            result = work(self)
            self.execute("COMMIT")
            return result
        except BaseException:
            with contextlib.suppress(sqlite3.Error):    # the error raised is the one reported
                self._db.execute("ROLLBACK")
            raise

    # --- introspection ---

    def ddl_version(self) -> int:
        """The counter that every committed sirsql DDL statement bumps, kept
        in `PRAGMA user_version` (see `SirLayer._apply`)."""
        return self.query("PRAGMA user_version").rows[0][0]

    def indexes(self, table: str) -> list[tuple[str, bool, list[str]]]:
        """The indexes that CREATE INDEX made on `table`, by name: (name,
        unique, column names in index order)."""
        rows = self.execute(
            'SELECT il.name, il."unique", ii.name FROM pragma_index_list(?) AS il,'
            " pragma_index_info(il.name) AS ii WHERE il.origin = 'c'"
            " ORDER BY il.name, ii.seqno", (table,)).rows
        out: dict[str, tuple] = {}
        for name, unique, column in rows:
            out.setdefault(name, (name, bool(unique), []))[2].append(column)
        return list(out.values())

    def object_kind(self, name: str) -> str | None:
        rows = self._db.execute(
            "SELECT type FROM sqlite_master WHERE lower(name) = lower(?)", (name,)).fetchall()
        return rows[0][0] if rows else None

    def object_names(self) -> list[str]:
        rows = self._db.execute(
            "SELECT name FROM sqlite_master WHERE type IN ('table','view') ORDER BY name").fetchall()
        return [r[0] for r in rows]

    def introspect(self, object_name: str) -> list[str]:
        """Ordered column names of a table or view, as the engine reports them."""
        try:
            quoted = object_name.replace('"', '""')
            rows = self._db.execute(f'PRAGMA table_info("{quoted}")').fetchall()
        except sqlite3.Error as exc:
            raise KernelError(f"{type(exc).__name__}: {exc}") from exc
        if not rows:
            raise UnknownObject(f"no table or view named {object_name!r}")
        return [r[1] for r in rows]
