"""The middleware session: executes dialect statements over one kernel DB.

Every DDL statement is one atomic unit: the generated kernel DDL and the
catalog meta-rows commit together or not at all, and the in-memory catalog
is only updated after the commit.  Queries and DML go through the router.

`Catalog.transitive_dependents` alone orders the relations a DDL statement
reaches beyond its own.  An ALTER walks that list once, in dependency order:
a dependent whose IE uses `*` over a relation whose column list the
statement changed (the altered relation always counts, and a star over
`R_B` counts as one over `R`) is recompiled, so it inherits the attributes
added or dropped; every other dependent gets a probe of its final view.
DROP ... CASCADE drops the same list in reverse, the relation last.

A session is used only by the thread that opened its KernelConnection
(sqlite3 refuses calls from any other thread).  Threads that share one
database file each open their own session over their own connection; the
kernel's file locks serialize their writes.  A session loads the catalog
once, at open, and does not see DDL that another session commits later.  A
DDL statement of the session then raises StaleCatalog and changes nothing
(see `_ddl_transaction`); a new session sees the change.  Queries and DML
do not check.

The open fails with CorruptCatalog on an unreadable plan or a missing kernel
object.  It parses no scheme: a relation's scheme is parsed when a statement
first reads it, and a corrupt source text or meta row raises CorruptCatalog
there, on each such statement (`Catalog.audit` reads every scheme).

Query and DML text is cached by shape (`lexer.shape`: literals replaced by
``?``) for one catalog generation: a repeated shape skips parse, route and
render and binds its literals as sqlite3 parameters.  A shape is cached only
when the renderer bound exactly the shape's values, in order and type.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial

from . import nodes as n
from .catalog import (SIR, STORED, VIEW, Catalog, CatalogEntry, ColumnInfo,
                      PlanItem, ie_references, referenced_relations,
                      scheme_from_ast, scheme_to_ast)
from .compiler import (alter_steps, apply_alter, compile_index, compile_sir, plan_drop,
                       recompile_steps, rewrite_to_base)
from .errors import (CircularReferenceError, InvariantViolation, NameCollision,
                     RejectedWrite, StaleCatalog, UnknownObject, UnknownRelation)
from .kernel import KernelConnection, RowSet
from .lexer import shape
from .parser import parse
from .render import quote_ident, render, render_source
from .router import (BASE_REWRITE, REJECTED, check_ie_integrity,
                     enforce_insert_computability, route)


CACHE_SIZE = 512       # shapes per session; the cache is cleared when full
_CACHEABLE = (n.Query, n.Insert, n.Update, n.Delete)


@dataclass
class StatementResult:
    """What one statement did.  `statement` is the parsed statement; it is
    None for a DROP and for a statement served from the statement cache."""

    statement: object
    action: str
    objects: list = field(default_factory=list)     # kernel objects created/dropped
    rowcount: int | None = None
    rows: RowSet | None = None
    warnings: list = field(default_factory=list)


class SirLayer:
    def __init__(self, conn: KernelConnection, *, rewrite_to_base: bool = False,
                 strict_integrity: bool = False):
        self.conn = conn
        self.rewrite_to_base = rewrite_to_base
        self.strict_integrity = strict_integrity
        self.catalog = Catalog.load(conn)
        self._ddl_lock = threading.Lock()
        # shape -> (catalog generation, value count, kernel SQL or None, action);
        # a text whose count differs holds a raw "?", which must fail to parse
        self._statements: dict[str, tuple] = {}

    # --- entry points ---

    def apply_source(self, text: str) -> list[StatementResult]:
        """Parse and execute statements in order, each in its own atomic unit.
        A text holding one query or DML statement goes through the cache."""
        return self._run_text(text, query_only=False)

    def apply_statement(self, stmt) -> StatementResult:
        """Execute a parsed statement, without the statement cache."""
        if isinstance(stmt, n.CreateSirTable):
            return self._create_table(stmt)
        if isinstance(stmt, n.CreateView):
            return self._create_view(stmt)
        if isinstance(stmt, n.AlterTable):
            return self._alter_table(stmt)
        if isinstance(stmt, n.DropTable):
            return self._drop(stmt.name, stmt.mode, expect_view=False)
        if isinstance(stmt, n.DropView):
            return self._drop(stmt.name, "restrict", expect_view=True)
        if isinstance(stmt, n.CreateIndex):
            return self._create_index(stmt)
        if isinstance(stmt, n.DropIndex):
            return self._drop_index(stmt)
        if isinstance(stmt, _CACHEABLE):
            return self._execute(stmt)[0]
        raise InvariantViolation(f"unsupported statement {type(stmt).__name__}")

    def query(self, sql: str) -> RowSet:
        return self._run_text(sql, query_only=True)[0].rows

    def _run_text(self, text: str, query_only: bool) -> list[StatementResult]:
        """Execute dialect text, through the statement cache when it holds one
        query or DML statement."""
        key, values = shape(text)
        hit = self._statements.get(key)
        if hit is not None and hit[:2] == (self.catalog.generation, len(values)):
            sql, action = hit[2:]
            if query_only and action != "query":
                raise InvariantViolation("expected exactly one SELECT statement")
            if sql is not None:
                result = self.conn.execute(sql, values, origin=text)
                if action == "query":
                    return [StatementResult(None, action, rows=result)]
                return [StatementResult(None, action, rowcount=result)]
        stmts = parse(text)
        if len(stmts) != 1 or not isinstance(stmts[0], n.Query if query_only else _CACHEABLE):
            if query_only:
                raise InvariantViolation("expected exactly one SELECT statement")
            return [self.apply_statement(stmt) for stmt in stmts]
        if len(values) > self.conn.max_params:
            return [self.apply_statement(stmts[0])]
        params = []
        result, sql = self._execute(stmts[0], params)
        if list(map(type, params)) != list(map(type, values)) or params != values:
            sql = None
        if len(self._statements) >= CACHE_SIZE:
            self._statements.clear()
        self._statements[key] = (self.catalog.generation, len(values), sql, result.action)
        return [result]

    def explain(self, name: str) -> list[str]:
        """The stored kernel plan of a relation, one DDL statement per entry."""
        return [item.sql for item in self.catalog.get(name).plan]

    def check(self, name: str) -> list[tuple]:
        return check_ie_integrity(self.catalog.get(name), self.catalog, self.conn)

    # --- DDL ---

    def _check_kernel_name_free(self, names: list[str]):
        """Raise NameCollision if the kernel holds an object named like any of
        `names` (case-insensitively); one query for all of them."""
        marks = ", ".join(["lower(?)"] * len(names))
        taken = self.conn.execute(
            f"SELECT name FROM sqlite_master WHERE lower(name) IN ({marks}) LIMIT 1", names)
        if taken.rows:
            raise NameCollision(f"kernel object {taken.rows[0][0]!r} already exists")

    def _probe_view(self, conn, name: str, origin):
        """Prepare a statement over the final view of a created or altered
        relation.  The engine resolves a view body only when a statement uses
        it, and preparing the final view resolves every stage of its chain, so
        a bad or stale stage fails inside this transaction, not at query time."""
        conn.execute(f"SELECT * FROM {quote_ident(name)} LIMIT 0", origin=origin)

    def _ddl_transaction(self, work):
        """Run `work(conn)` in one kernel transaction, after creating the
        meta-table if the session does not know it exists, and bump the DDL
        version (`PRAGMA user_version`) before the commit.  The transaction
        holds the write lock from its start; if the DDL version then differs
        from the catalog's, another session committed DDL since the catalog
        was read, and StaleCatalog rolls back before any work.  The version
        moves even when a DDL changes meta rows only, which leaves SQLite's
        schema cookie as it was."""
        def run(conn):
            if conn.ddl_version() != self.catalog.version:
                raise StaleCatalog("the kernel schema changed since this session read its"
                                   " catalog; open a new session to see the change")
            self.catalog.ensure_meta(conn)
            result = work(conn)
            conn.execute(f"PRAGMA user_version = {self.catalog.version + 1}")
            return result
        result = self.conn.within_transaction(run)
        self.catalog.version += 1
        self.catalog.meta_ready = True
        return result

    def _resolve_references(self, scheme) -> list[str]:
        refs = []
        for ie in scheme.ies:
            for ref in ie_references(ie, scheme.name):
                if self.catalog.resolve_columns(ref) is None:
                    raise UnknownRelation(
                        f"IE {ie.name} in {scheme.name} references unknown relation {ref!r}")
                if ref.casefold() not in {r.casefold() for r in refs}:
                    refs.append(ref)
        return refs

    def _apply_rewrite_to_base(self, scheme):
        """Refuse a reference cycle, or with `rewrite_to_base` rewrite the IE
        references that close it to the referenced relations' bases."""
        refs = self._resolve_references(scheme)
        try:
            self.catalog.check_acyclic(scheme.name, refs)
            return scheme
        except CircularReferenceError:
            if not self.rewrite_to_base:
                raise
        for index, element in enumerate(scheme.elements):
            if not isinstance(element, n.IeDecl):
                continue
            offenders = []
            for ref in ie_references(element, scheme.name):
                if ref in self.catalog and self.catalog.reaches(ref, scheme.name):
                    offenders.append(ref)
            if offenders:
                scheme.elements[index] = rewrite_to_base(
                    element, scheme.name, self.catalog, offenders)
        refs = self._resolve_references(scheme)
        self.catalog.check_acyclic(scheme.name, refs)
        return scheme

    def _entry_from_compiled(self, compiled, kind: str) -> CatalogEntry:
        return CatalogEntry(
            name=compiled.scheme.name, kind=kind, scheme=compiled.scheme,
            columns=compiled.columns, plan=compiled.plan,
            references=compiled.references, ie_order=compiled.ie_order,
            source_text=render_source(scheme_to_ast(compiled.scheme)))

    def _create_table(self, stmt: n.CreateSirTable) -> StatementResult:
        with self._ddl_lock:
            self.catalog.check_name_free(stmt.name)
            scheme = scheme_from_ast(stmt)
            self.catalog.validate_scheme(scheme)
            scheme = self._apply_rewrite_to_base(scheme)
            compiled = compile_sir(scheme, self.catalog)
            self._check_kernel_name_free([i.name for i in compiled.plan])
            entry = self._entry_from_compiled(compiled, SIR if scheme.ies else STORED)

            origin = partial(render_source, stmt)

            def work(conn):
                for item in compiled.plan:
                    conn.execute(item.sql, origin=origin)
                if entry.views:
                    self._probe_view(conn, entry.name, origin)
                self.catalog.persist(entry, conn)

            self._ddl_transaction(work)
            self.catalog.attach(entry)
            return StatementResult(stmt, "create table",
                                   objects=[i.name for i in compiled.plan],
                                   warnings=stmt.warnings)

    def _create_view(self, stmt: n.CreateView) -> StatementResult:
        with self._ddl_lock:
            self.catalog.check_name_free(stmt.name)
            refs = []
            for ref in referenced_relations(stmt.select):
                if self.catalog.resolve_columns(ref) is None:
                    raise UnknownRelation(f"view {stmt.name} references unknown relation {ref!r}")
                refs.append(ref)
            self.catalog.check_acyclic(stmt.name, refs)
            routed = route(n.Query(select=stmt.select), self.catalog, prune=False)
            kernel_stmt = n.CreateView(name=stmt.name, select=routed.kernel_stmt.select)
            sql = render(kernel_stmt)
            self._check_kernel_name_free([stmt.name])

            def work(conn):
                conn.execute(sql, origin=partial(render_source, stmt))
                self._probe_view(conn, stmt.name, partial(render_source, stmt))
                columns = [ColumnInfo(c, None, False, True, None)
                           for c in conn.introspect(stmt.name)]
                entry = CatalogEntry(
                    name=stmt.name, kind=VIEW, scheme=None, columns=columns,
                    plan=[PlanItem(stmt.name, "view", sql)],
                    references=refs, source_text=render_source(stmt))
                self.catalog.persist(entry, conn)
                return entry

            entry = self._ddl_transaction(work)
            self.catalog.attach(entry)
            return StatementResult(stmt, "create view", objects=[stmt.name],
                                   warnings=stmt.warnings)

    def _alter_table(self, stmt: n.AlterTable) -> StatementResult:
        with self._ddl_lock:
            entry = self.catalog.get(stmt.name)
            if entry.kind == VIEW:
                raise InvariantViolation(
                    f"{entry.name} is a view; drop it and recreate (or create a table)")
            new_scheme = apply_alter(entry, stmt.action)
            self.catalog.validate_scheme(new_scheme)
            new_scheme = self._apply_rewrite_to_base(new_scheme)

            scratch = self.catalog.copy()
            scratch.detach(entry.name)
            compiled = compile_sir(new_scheme, scratch)
            new_entry = self._entry_from_compiled(compiled, SIR if new_scheme.ies else STORED)
            scratch.attach(new_entry)

            # (name, new entry or None, maintenance steps) of each dependent,
            # in dependency order; a dependent whose `*` reads a relation whose
            # column list changed is recompiled, so it inherits added or
            # dropped attributes, and every other one is only probed, in case
            # it names what changed
            updates = []
            changed = {entry.name.casefold()}
            for name in self.catalog.transitive_dependents(entry.name):
                dep = scratch.get(name)
                if dep.kind != SIR or not _stars_over(dep, changed, scratch):
                    updates.append((name, None, []))
                    continue
                recompiled = compile_sir(dep.scheme, scratch)
                # its base is not touched, so it keeps the storage form recorded
                recompiled.plan[0] = dep.plan[0]
                new_dep = self._entry_from_compiled(recompiled, SIR)
                scratch.attach(new_dep)
                updates.append((name, new_dep, recompile_steps(dep, recompiled)))
                if new_dep.column_names != dep.column_names:
                    changed.add(name.casefold())

            origin = partial(render_source, stmt)

            def work(conn):
                # a rebuilt base gets the old base's indexes back
                steps = alter_steps(entry, compiled, partial(conn.indexes, entry.plan[0].name))
                for name, new, maintenance in [(entry.name, new_entry, steps)] + updates:
                    for item in maintenance:
                        conn.execute(item.sql, origin=origin)
                    if new is None or new.views:
                        self._probe_view(conn, name, origin)
                    if new is not None:
                        self.catalog.persist_replace(new, conn)

            self._ddl_transaction(work)
            self.catalog.attach(new_entry)
            for _, new, _ in updates:
                if new is not None:
                    self.catalog.attach(new)
            return StatementResult(stmt, "alter table",
                                   objects=[i.name for i in compiled.plan],
                                   warnings=stmt.warnings)

    def _drop(self, name: str, mode: str, expect_view: bool) -> StatementResult:
        with self._ddl_lock:
            plans = plan_drop(name, mode, self.catalog, expect_view=expect_view)
            dropped = []

            def work(conn):
                for entry, steps in plans:
                    for item in steps:
                        conn.execute(item.sql)
                        dropped.append(item.name)
                    self.catalog.persist_remove(entry.name, conn)

            self._ddl_transaction(work)
            for entry, _ in plans:
                self.catalog.detach(entry.name)
            return StatementResult(None, "drop", objects=dropped)

    def _create_index(self, stmt: n.CreateIndex) -> StatementResult:
        with self._ddl_lock:
            plan = compile_index(stmt, self.catalog)

            def work(conn):
                for item in plan:
                    conn.execute(item.sql, origin=partial(render_source, stmt))

            self._ddl_transaction(work)
            return StatementResult(stmt, "create index", objects=[i.name for i in plan])

    def _drop_index(self, stmt: n.DropIndex) -> StatementResult:
        """Drop an index that CREATE INDEX made on a relation's table.  The
        catalog records no index, so the transaction asks the kernel."""
        with self._ddl_lock:
            def work(conn):
                found = conn.execute(
                    "SELECT name, tbl_name FROM sqlite_master WHERE type = 'index'"
                    " AND sql IS NOT NULL AND lower(name) = lower(?)", (stmt.name,)).rows
                if not found or not (found[0][1] in self.catalog
                                     or self.catalog.owner_of_object(found[0][1])):
                    raise UnknownObject(f"no index named {stmt.name!r} on a relation's table")
                conn.execute(render(n.DropIndex(name=found[0][0])),
                             origin=partial(render_source, stmt))
                return found[0][0]

            return StatementResult(stmt, "drop index", objects=[self._ddl_transaction(work)])

    # --- queries and DML ---

    def _execute(self, stmt, params: list | None = None) -> tuple[StatementResult, str | None]:
        """Route, render and run a query or DML statement.  With `params`, its
        literals are bound (see `render`).  Also returns the kernel SQL that a
        statement of the same shape may run again, or None."""
        routed = route(stmt, self.catalog)
        if routed.kind == REJECTED:
            raise RejectedWrite(routed.reason)
        sql = render(routed.kernel_stmt, params)
        bound = params or ()
        origin = partial(render_source, stmt)     # rendered only for an error report

        if isinstance(stmt, n.Query):
            rows = self.conn.execute(sql, bound, origin=origin)
            return StatementResult(stmt, "query", rows=rows, warnings=stmt.warnings), sql
        if (routed.kind == BASE_REWRITE and isinstance(stmt, n.Insert)
                and self.strict_integrity):
            entry = self.catalog.get(stmt.table)
            key_cols = entry.scheme.primary_key() or entry.scheme.stored_names
            returning = ", ".join(quote_ident(c) for c in key_cols)
            returning_sql = sql.rstrip(";") + f" RETURNING {returning}"

            def work(conn):
                result = conn.execute(returning_sql, bound, origin=origin)
                keys = [tuple(row) for row in result.rows] if isinstance(result, RowSet) else []
                enforce_insert_computability(entry, keys, conn)
                return len(keys)

            count = self.conn.within_transaction(work)
            return StatementResult(stmt, "insert", rowcount=count, warnings=stmt.warnings), None
        count = self.conn.execute(sql, bound, origin=origin)
        action = type(stmt).__name__.lower()
        return StatementResult(stmt, action, rowcount=count, warnings=stmt.warnings), sql


def _stars_over(entry: CatalogEntry, relations: set[str], catalog: Catalog) -> bool:
    """Whether an IE of `entry` uses `*` over a relation named in
    `relations` (casefold) or over one of their kernel objects."""
    for ie in entry.scheme.ies:
        if not isinstance(ie.form, n.SelectForm) or not any(
                isinstance(i.expr, (n.Star, n.StarMinus)) for i in ie.form.select.items):
            continue
        for source in ie.form.select.from_:
            if isinstance(source, n.TableName):
                owner = catalog.owner_of_object(source.name) or source
                if owner.name.casefold() in relations:
                    return True
    return False
