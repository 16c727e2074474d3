"""The middleware session: executes dialect statements over one kernel DB.

A DDL method only plans: it turns its statement into a list of steps, one
per relation it touches, each with the relation's name, its kernel items
and its entry after the step, and `SirLayer._apply` alone runs a plan.  In
one kernel transaction each step sends its items, probes its entry's final
view (whose columns are a view's columns) and writes the meta row of an
entry the catalog does not hold, so the statement's kernel DDL and meta
rows commit together or not at all; the in-memory catalog takes the
steps' entries after the commit.  Queries and DML go through the router.

`Catalog.transitive_dependents` alone orders the relations a DDL statement
reaches beyond its own; the graph is rebuilt at first use after a DDL.
An ALTER walks that list once, in dependency order, keeping one map,
`lost`, from each relation whose column list it changes (the altered one
always, and its old base) to the columns it loses.  A dependent whose IE
uses `*` over such a relation (a star over `R_B` counts as one over `R`)
gets its view chain compiled again (`compile_chain`), so it inherits the
attributes added or dropped, keeps its base, references and source text,
and enters `lost` when its columns change.  Every other dependent keeps its
entry and is probed; one whose IE names a column `lost` lists is refused
first.  DROP ... CASCADE drops the same list in reverse, the relation last.

A session is used only by the thread that opened its KernelConnection
(sqlite3 refuses calls from any other thread).  Threads that share one
database file each open their own session over their own connection; the
kernel's file locks serialize their writes.  A session loads the catalog
once, at open, and does not see DDL that another session commits later.  A
DDL statement of the session then raises StaleCatalog and changes nothing
(see `_apply`); a new session sees the change.  Queries and DML do not
check.

The open decodes every meta row that no entry of the process's latest
catalog stands for (`Catalog.load`, which reads no kernel text for those
entries when SQLite's schema cookie has not moved since that catalog's),
fails with CorruptCatalog on an unreadable one or a missing kernel
object, and upgrades the rows an earlier release
wrote in one DDL transaction (`_upgrade`).  It builds no other relation's
columns, plan or scheme: each is built, and a corrupt one raises
CorruptCatalog, when a statement first reads it (`Catalog.audit` reads all).

Query and DML text is cached for one DDL version of the catalog
(`Catalog.version`, which a load reads from the kernel and every committed
DDL bumps; the cache is emptied when it changes): a text that repeats with
new literals skips parse, route and render and binds its literals as
sqlite3 parameters.  A miss cuts its text at the literal tokens the parser
read (`lexer.literal_runs`) and keeps the runs with the kernel SQL and
action under the text's `lexer.literal_prefix`, `PREFIX_PATTERNS` runs at
most per prefix, when the renderer bound exactly those values, in order and
type.  A new text is bound by walking the runs kept under its prefix
(`lexer.bind_runs`).  A query text served from them is kept in a text memo
with its values, so an exact repeat skips the walk; DML text is never kept.
The memo and the runs hold `CACHE_SIZE` entries at most each and are
cleared when full.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Container

from . import nodes as n
from .catalog import (SIR, VIEW, Catalog, CatalogEntry, ColumnInfo, PlanItem, depth_first,
                      ie_references, referenced_relations, scheme_from_ast, scheme_references)
from .compiler import (Sources, alter_steps, apply_alter, base_size_probe, column_refs,
                       compile_chain, compile_index, compile_sir, plan_drop, recompile_steps,
                       rewrite_to_base)
from .errors import (CircularReferenceError, CorruptCatalog, DependentAttributeDrop,
                     InvariantViolation, KernelError, NameCollision, NotNullAttributeAdd,
                     RejectedWrite, StaleCatalog, UnknownObject, UnknownRelation)
from .kernel import KernelConnection, RowSet
from .lexer import bind_runs, literal_prefix, literal_runs
from .parser import parse
from .render import quote_ident, render, render_source
from .router import (BASE_REWRITE, REJECTED, check_ie_integrity,
                     enforce_insert_computability, expand_selects, route)


CACHE_SIZE = 512       # statements per session; the cache is cleared when full
PREFIX_PATTERNS = 4    # statements whose runs are kept under one literal prefix
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


@dataclass
class _Step:
    """What one DDL statement does to one relation, in `SirLayer._apply`."""

    name: str
    items: list | Callable      # kernel PlanItems, or a function of the connection
                                # that returns them inside the transaction
    entry: CatalogEntry | None = None    # its entry after the step; one with a view
                                         # is probed; the catalog's own is not written
    remove: bool = False        # its meta row and entry go


class SirLayer:
    def __init__(self, conn: KernelConnection, *, rewrite_to_base: bool = False,
                 strict_integrity: bool = False):
        self.conn = conn
        self.rewrite_to_base = rewrite_to_base
        self.strict_integrity = strict_integrity
        self.catalog = Catalog.load(conn)
        self._ddl_lock = threading.Lock()
        # query text -> (kernel SQL, action, values), filled on a hit; DML is never kept
        self._memo: dict[str, tuple[str, str, list]] = {}
        # literal prefix -> [(runs, kernel SQL, action)], `_kept` in all
        self._patterns: dict[str, list[tuple[list[str], str, str]]] = {}
        self._kept = 0
        self._version = self.catalog.version     # the DDL version both were filled at
        self._upgrade()

    # --- entry points ---

    def apply_source(self, text: str) -> list[StatementResult]:
        """Parse and execute statements in order, each in its own atomic unit.
        A text holding one query or DML statement goes through the cache."""
        return self._run_text(text, query_only=False)

    def apply_statement(self, stmt) -> StatementResult:
        """Execute a parsed statement, without the statement cache."""
        if isinstance(stmt, _CACHEABLE):
            return self._execute(stmt)[0]
        with self._ddl_lock:
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
        raise InvariantViolation(f"unsupported statement {type(stmt).__name__}")

    def query(self, sql: str) -> RowSet:
        return self._run_text(sql, query_only=True)

    def _run_text(self, text: str, query_only: bool):
        """Execute dialect text, through the statement cache when it holds one
        query or DML statement.  With `query_only` the text must be one query,
        and its RowSet is returned; otherwise the StatementResults.

        A text missing from the text memo is bound by the first runs kept
        under its `literal_prefix` that it walks (`_bind`), and parsed only
        when none does.  A miss parses the text itself, so a ParseError
        keeps its position."""
        if self._version != self.catalog.version:     # a DDL made every entry stale
            self._memo.clear()
            self._patterns.clear()
            self._kept, self._version = 0, self.catalog.version
        known = self._memo.get(text)
        hit = known or self._bind(text)
        if hit is not None:
            sql, action, values = hit
            if query_only and action != "query":
                raise InvariantViolation("expected exactly one SELECT statement")
            result = self.conn.execute(sql, values, origin=text)
            if action != "query":
                return [StatementResult(None, action, rowcount=result)]
            if known is None:
                if len(self._memo) >= CACHE_SIZE:
                    self._memo.clear()
                self._memo[text] = hit
            return result if query_only else [StatementResult(None, action, rows=result)]
        stmts = parse(text)
        if len(stmts) != 1 or not isinstance(stmts[0], n.Query if query_only else _CACHEABLE):
            if query_only:
                raise InvariantViolation("expected exactly one SELECT statement")
            return [self.apply_statement(stmt) for stmt in stmts]
        runs, values = literal_runs(text, stmts[0].literals)
        if len(values) > self.conn.max_params:
            result = self.apply_statement(stmts[0])
            return result.rows if query_only else [result]
        params = []
        result, sql = self._execute(stmts[0], params)
        if sql is not None and runs is not None and params == values \
                and list(map(type, params)) == list(map(type, values)):
            self._keep(text, runs, sql, result.action)
        return result.rows if query_only else [result]

    def _bind(self, text: str) -> tuple[str, str, list] | None:
        """The kernel SQL, action and values of the first runs kept under the
        prefix of `text` that bind it; None when none do."""
        for runs, sql, action in self._patterns.get(literal_prefix(text), ()):
            values = bind_runs(runs, text)
            if values is not None:
                return sql, action, values
        return None

    def _keep(self, text: str, runs: list[str], sql: str, action: str):
        """Keep the runs cut from `text`, with its kernel SQL and action,
        under its prefix, unless `PREFIX_PATTERNS` runs are kept there.  All
        runs are cleared first when `CACHE_SIZE` are kept."""
        if self._kept >= CACHE_SIZE:
            self._patterns.clear()
            self._kept = 0
        kept = self._patterns.setdefault(literal_prefix(text), [])
        if len(kept) < PREFIX_PATTERNS:
            kept.append((runs, sql, action))
            self._kept += 1

    def explain(self, name: str) -> list[str]:
        """The kernel's text of each object of a relation, one per entry."""
        return [item.sql for item in self.catalog.get(name).plan]

    def check(self, name: str) -> list[tuple]:
        return check_ie_integrity(self.catalog.get(name), self.catalog, self.conn)

    # --- DDL ---

    def _create(self, step: _Step, names: list[str], stmt):
        """Apply the plan of a CREATE whose kernel objects are `names`.
        SQLite refuses a name that is taken, and the plan rolls back; only
        then is the kernel asked, and a name it holds (case-insensitively)
        raises NameCollision."""
        try:
            self._apply([step], partial(render_source, stmt))
        except KernelError as exc:
            marks = ", ".join(["lower(?)"] * len(names))
            taken = self.conn.execute(
                f"SELECT name FROM sqlite_master WHERE lower(name) IN ({marks}) LIMIT 1", names)
            if taken.rows:
                raise NameCollision(f"kernel object {taken.rows[0][0]!r} already exists") from exc
            raise

    def _resolve_references(self, scheme) -> list[str]:
        for ie in scheme.ies:
            for ref in ie_references(ie, scheme.name):
                if self.catalog.resolve_columns(ref) is None:
                    raise UnknownRelation(
                        f"IE {ie.name} in {scheme.name} references unknown relation {ref!r}")
        return scheme_references(scheme)

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

    def _apply(self, plan: list[_Step], origin=None, lost=None) -> list[str]:
        """Run a DDL plan in one kernel transaction; return the names of the
        kernel items sent.  The transaction holds the write lock from its
        start, and a DDL version (`PRAGMA user_version`) other than the
        catalog's means another session committed DDL since the catalog was
        read: StaleCatalog then rolls back before any step.  The version is
        bumped before the commit, also when only meta rows change.

        The same statement reads SQLite's schema cookie.  When it is the
        catalog's (`Catalog.cookie`), nothing outside sirsql changed the
        schema since, and the cookie read after the last step, under the
        write lock, is recorded after the commit: the steps' entries have the
        kernel's own texts, and the other entries kept theirs.  Otherwise the
        catalog records no cookie, and the next open reads every text.

        A step whose entry has a view is probed: a statement prepared over
        its final view resolves every stage of its chain, so a bad or stale
        stage fails here, not at query time, and gives a view's columns.  In
        an ALTER, a later step's failed probe is a dependent reading what the
        ALTER removes; `lost` names the relations whose columns change."""
        sent, entered = [], []

        def run(conn):
            version, start = conn.versions()
            if version != self.catalog.version:
                raise StaleCatalog("the kernel schema changed since this session read its"
                                   " catalog; open a new session to see the change")
            self.catalog.ensure_meta(conn)
            for step in plan:
                for item in step.items(conn) if callable(step.items) else step.items:
                    conn.execute(item.sql, origin=origin)
                    sent.append(item.name)
                entry, known = step.entry, step.name in self.catalog
                if entry is not None and entry.views:
                    try:
                        columns = conn.execute(f"SELECT * FROM {quote_ident(step.name)} LIMIT 0",
                                               origin=origin).columns
                    except KernelError as exc:
                        if step is plan[0] or not lost:
                            raise
                        reader = self.catalog.get(step.name)
                        ies = _ies_over(reader, lost, self.catalog)
                        raise DependentAttributeDrop(
                            f"{plan[0].name}: this ALTER removes an attribute"
                            f" {reader.name} reads{f' through IE {ies}' if ies else ''}"
                            f" ({exc.__cause__})") from exc
                    if entry.kind == VIEW and columns != entry.column_names:
                        entry = _view_entry(entry, columns, entry.references)
                if step.remove:
                    self.catalog.persist_remove(step.name, conn)
                    entered.append((step.name, None, None))
                elif entry is not None and not (known and entry is self.catalog.get(step.name)):
                    persist = self.catalog.persist_replace if known else self.catalog.persist
                    entered.append((step.name, entry, persist(entry, conn)))
            cookie = conn.query("PRAGMA schema_version").rows[0][0] \
                if start == self.catalog.cookie else None
            conn.execute(f"PRAGMA user_version = {self.catalog.version + 1}")
            return cookie

        self.catalog.cookie = self.conn.within_transaction(run)
        self.catalog.version += 1
        self.catalog.meta_ready = True
        for name, entry, row in entered:
            if entry is None:
                self.catalog.detach(name)
            else:
                entry.record(row)
                self.catalog.attach(entry)
        self.catalog.serve_next_open()
        return sent

    def _upgrade(self):
        """Upgrade the rows an earlier release wrote (`_LoadedEntry`) in one
        DDL plan that also drops the four-table format's detail tables.  A
        table is compiled again, keeping its base item, after the outdated
        views (columns from a probe), relations and stage views it
        reads (a base needs only a scheme): the order is the postorder of one
        `depth_first` walk from a virtual root ("") over the outdated
        relations, and any order that puts what a relation reads first would
        serve.  A cycle raises CorruptCatalog.  On StaleCatalog, reload."""
        while outdated := {e.name.casefold(): e for e in self.catalog.entries() if e.outdated}:
            catalog, scratch, plan = self.catalog, self.catalog.copy(), []

            def reads(key):
                old = outdated[key]
                for ref in scheme_references(old.scheme) if old.kind != VIEW else ():
                    owner = catalog.owner_of_object(ref) or catalog.get(ref)
                    if owner.name.casefold() in outdated and (
                            owner.kind == VIEW or owner.plan[0].name.casefold() != ref.casefold()):
                        yield owner.name.casefold()

            order, cycle = depth_first("", lambda key: reads(key) if key else outdated)
            if cycle is not None:
                raise CorruptCatalog(f"{', '.join(outdated[key].name for key in cycle)}:"
                                     " cannot be upgraded: they read each other's stages")
            for old in map(outdated.get, order[:-1]):
                entry = compile_sir(old.scheme, scratch, old.plan[0]) if old.kind != VIEW \
                    else _view_entry(old, self.conn.query(f"SELECT * FROM {quote_ident(old.name)}"
                                                          " LIMIT 0").columns,
                                     referenced_relations(old.statement(n.CreateView, "view").select))
                scratch.attach(entry)
                plan.append(_Step(entry.name, recompile_steps(old, entry), entry))
            drops = [PlanItem(table, "step", f"DROP TABLE IF EXISTS {table};")
                     for table in ("sir_attrs", "sir_ies", "sir_deps")]
            try:
                self._apply(plan + [_Step("sir_attrs", drops)])
            except StaleCatalog:
                self.catalog = Catalog.load(self.conn)

    def _create_table(self, stmt: n.CreateSirTable) -> StatementResult:
        if sum(isinstance(e, n.PrimaryKeyClause) or isinstance(e, n.AttributeDecl)
               and e.is_primary_key for e in stmt.elements) > 1:
            raise InvariantViolation(f"{stmt.name}: more than one primary key is declared")
        self.catalog.check_name_free(stmt.name)
        scheme = scheme_from_ast(stmt)
        self.catalog.validate_scheme(scheme)
        scheme = self._apply_rewrite_to_base(scheme)
        entry = compile_sir(scheme, self.catalog)
        self._create(_Step(entry.name, entry.plan, entry), entry.kernel_objects, stmt)
        return StatementResult(stmt, "create table", objects=entry.kernel_objects,
                               warnings=stmt.warnings)

    def _create_view(self, stmt: n.CreateView) -> StatementResult:
        self.catalog.check_name_free(stmt.name)
        refs = []
        for ref in referenced_relations(stmt.select):
            if self.catalog.resolve_columns(ref) is None:
                raise UnknownRelation(f"view {stmt.name} references unknown relation {ref!r}")
            refs.append(ref)
        self.catalog.check_acyclic(stmt.name, refs)
        select = expand_selects(stmt.select, self.catalog)
        item = PlanItem(stmt.name, "view", render(n.CreateView(name=stmt.name, select=select)))
        # `_apply` takes its columns from its probe
        entry = CatalogEntry(stmt.name, VIEW, None, [], [item], refs,
                             source_text=render_source(stmt))
        self._create(_Step(stmt.name, entry.plan, entry), [stmt.name], stmt)
        return StatementResult(stmt, "create view", objects=[stmt.name],
                               warnings=stmt.warnings)

    def _alter_table(self, stmt: n.AlterTable) -> StatementResult:
        entry = self.catalog.get(stmt.name)
        if entry.kind == VIEW:
            raise InvariantViolation(
                f"{entry.name} is a view; drop it and recreate (or create a table)")
        new_scheme = apply_alter(entry, stmt.action)
        self.catalog.validate_scheme(new_scheme)
        new_scheme = self._apply_rewrite_to_base(new_scheme)

        scratch = self.catalog.copy()
        scratch.detach(entry.name)
        new_entry = compile_sir(new_scheme, scratch)
        scratch.attach(new_entry)

        added = stmt.action.items if isinstance(stmt.action, n.AlterAdd) else []
        stored = [i for i in added if isinstance(i, n.AttributeDecl)]
        not_null = [i.name for i in stored if i.not_null]

        def own_items(conn):
            base = entry.plan[0].name
            # an added stored attribute sizes the base: one probe, also for Not Null
            size = conn.query(base_size_probe(base)).rows[0] if stored else None
            if not_null and size[0]:
                raise NotNullAttributeAdd(
                    f"{entry.name} has rows, so the Not Null attribute {not_null[0]}"
                    " cannot be added: every row would hold NULL in it")
            # a rebuilt base gets the old base's indexes back
            return alter_steps(entry, new_entry, partial(conn.indexes, base), size)

        # then each dependent, in dependency order; a dependent whose `*`
        # reads a relation whose column list changed is recompiled, so it
        # inherits added or dropped attributes, and every other one is only
        # probed, in case it names what changed.  One whose IE names an
        # attribute this ALTER removes, also through a recompiled `*`, is
        # refused here, before any kernel statement.
        plan = [_Step(entry.name, own_items, new_entry)]
        # casefold object -> the casefold columns it loses: the relations whose
        # column list changes, and the old base (the relation's own name comes
        # last: it names the old base too when the relation had no IE)
        lost = {entry.plan[0].name.casefold(): _dropped(entry.scheme.stored_names,
                                                        new_scheme.stored_names),
                entry.name.casefold(): _dropped(entry.column_names, new_entry.column_names)}
        for name in self.catalog.transitive_dependents(entry.name):
            dep = scratch.get(name)
            if dep.kind != SIR or not _stars_over(dep, lost, scratch):
                read = dep.kind == SIR and _reads_removed(dep, lost, self.catalog)
                if read:
                    raise DependentAttributeDrop(
                        f"{entry.name}: this ALTER removes an attribute {dep.name} reads"
                        f" through IE {read[0]} (no such column: {read[1]})")
                plan.append(_Step(name, [], dep))
                continue
            # its scheme is unchanged: only its view chain is compiled again
            new_dep = compile_chain(dep, scratch)
            scratch.attach(new_dep)
            plan.append(_Step(name, recompile_steps(dep, new_dep), new_dep))
            if new_dep.column_names != dep.column_names:
                lost[name.casefold()] = _dropped(dep.column_names, new_dep.column_names)

        self._apply(plan, partial(render_source, stmt), lost)
        return StatementResult(stmt, "alter table", objects=new_entry.kernel_objects,
                               warnings=stmt.warnings)

    def _drop(self, name: str, mode: str, expect_view: bool) -> StatementResult:
        plan = [_Step(entry.name, steps, remove=True)
                for entry, steps in plan_drop(name, mode, self.catalog, expect_view)]
        return StatementResult(None, "drop", objects=self._apply(plan))

    def _create_index(self, stmt: n.CreateIndex) -> StatementResult:
        plan = [_Step(stmt.table, compile_index(stmt, self.catalog))]
        return StatementResult(stmt, "create index",
                               objects=self._apply(plan, partial(render_source, stmt)))

    def _drop_index(self, stmt: n.DropIndex) -> StatementResult:
        """Drop an index that CREATE INDEX made on a relation's table.  The
        catalog records no index, so the transaction asks the kernel."""
        def items(conn):
            found = conn.execute(
                "SELECT name, tbl_name FROM sqlite_master WHERE type = 'index'"
                " AND sql IS NOT NULL AND lower(name) = lower(?)", (stmt.name,)).rows
            if not found or not (found[0][1] in self.catalog
                                 or self.catalog.owner_of_object(found[0][1])):
                raise UnknownObject(f"no index named {stmt.name!r} on a relation's table")
            return [PlanItem(found[0][0], "index", render(n.DropIndex(name=found[0][0])))]

        plan = [_Step(stmt.name, items)]
        return StatementResult(stmt, "drop index",
                               objects=self._apply(plan, partial(render_source, stmt)))

    # --- queries and DML ---

    def _execute(self, stmt, params: list | None = None) -> tuple[StatementResult, str | None]:
        """Route, render and run a query or DML statement.  With `params`, its
        literals are bound (see `render`).  Also returns the kernel SQL that a
        text with other literals in their place may run again, or None."""
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


def _view_entry(view: CatalogEntry, names: list[str], references: list[str]) -> CatalogEntry:
    """`view` with `references` and the columns `names` read from the kernel,
    which re-expands a `*` at each use; the catalog records no type, key or IE."""
    return CatalogEntry(view.name, VIEW, None, [ColumnInfo(c, None, False, True, None)
                                                for c in names],
                        view.plan, references, source_text=view.source_text)


def _ies_over(entry: CatalogEntry, relations: Container[str], catalog: Catalog) -> str:
    """The IEs of `entry` that read a relation named in `relations`
    (casefold) or one of its kernel objects, comma-separated."""
    names = []
    for ie in entry.scheme.ies if entry.scheme else []:
        for ref in ie_references(ie, entry.name):
            owner = catalog.owner_of_object(ref)
            if (owner.name if owner else ref).casefold() in relations:
                names.append(ie.name)
                break
    return ", ".join(names)


def _dropped(before: list[str], after: list[str]) -> set[str]:
    """The names in `before` and not in `after`, casefold."""
    return {c.casefold() for c in before} - {c.casefold() for c in after}


def _reads_removed(entry: CatalogEntry, lost: dict[str, set[str]],
                   catalog: Catalog) -> tuple[str, str] | None:
    """The first IE of `entry` whose select names a column that `lost`
    (casefold object name -> the casefold columns an ALTER takes from it)
    lists, with that column qualified as written, or by the object when it
    is unqualified; None when no IE does.  A column counts when each source
    it can name (`Sources.named_by`, with `catalog`'s columns from before
    the ALTER) loses it, unless it is unqualified and a result column takes
    its name.  An IE with a nested select, and whatever this leaves out, is
    left to the probe."""
    for ie in entry.scheme.ies:
        if not isinstance(ie.form, n.SelectForm) \
                or sum(isinstance(node, n.Select) for node in n.walk(ie.form)) != 1:
            continue
        select = ie.form.select
        sources = Sources(select.from_, catalog.resolve_columns)
        # the kernel resolves an unqualified name to a result alias of that name
        aliases = {item.alias.casefold() for item in select.items if item.alias}
        for ref in column_refs(select):
            column = ref.name.casefold()
            if ref.table is None and column in aliases:
                continue
            named = sources.named_by(ref)
            if named and all(column in lost.get(s.table.name.casefold(), ()) for s in named):
                return ie.name, f"{ref.table or named[0].table.name}.{ref.name}"
    return None


def _stars_over(entry: CatalogEntry, relations: Container[str], catalog: Catalog) -> bool:
    """Whether an IE of `entry` uses `*` over a relation of `catalog` named
    in `relations` (casefold) or over one of its kernel objects."""
    for ie in entry.scheme.ies:
        if not isinstance(ie.form, n.SelectForm) or not any(
                isinstance(i.expr, (n.Star, n.StarMinus)) for i in ie.form.select.items):
            continue
        for source in ie.form.select.from_:
            if isinstance(source, n.TableName):
                owner = catalog.owner_of_object(source.name) or source
                if owner.name.casefold() in relations and owner.name in catalog:
                    return True
    return False
