"""The middleware session: executes dialect statements over one kernel DB.

A DDL method only plans: it turns its statement into a list of steps, one
per relation it touches, and `SirLayer._apply` alone runs a plan.  In one
kernel transaction each step sends its kernel items, probes its final view,
reads a view's columns back from the kernel and writes its meta row, so the
statement's kernel DDL and meta rows commit together or not at all; the
in-memory catalog takes the steps' entries after the commit.  Queries and
DML go through the router.

`Catalog.transitive_dependents` alone orders the relations a DDL statement
reaches beyond its own; the graph is rebuilt at first use after a DDL.
An ALTER walks that list once, in dependency order: a dependent whose IE
uses `*` over a relation whose column list the statement changed (the
altered relation always counts, and a star over `R_B` counts as one over
`R`) gets its view chain compiled again (`compile_chain`), so it inherits
the attributes added or dropped, and keeps its base, references and source
text, which its unchanged scheme fixes.  Every other dependent gets a probe
of its final view; a view dependent then has its columns read back from the
kernel, which re-expands a view's `*`, and its meta row rewritten when they
changed.  DROP ... CASCADE drops the same list in reverse, the relation last.

A session is used only by the thread that opened its KernelConnection
(sqlite3 refuses calls from any other thread).  Threads that share one
database file each open their own session over their own connection; the
kernel's file locks serialize their writes.  A session loads the catalog
once, at open, and does not see DDL that another session commits later.  A
DDL statement of the session then raises StaleCatalog and changes nothing
(see `_apply`); a new session sees the change.  Queries and DML do not
check.

The open decodes every meta row, fails with CorruptCatalog on an unreadable
one or a missing kernel object, and upgrades the rows an earlier release
wrote in one DDL transaction (`_upgrade`).  It builds no other relation's
columns, plan or scheme: each is built, and a corrupt one raises
CorruptCatalog, when a statement first reads it (`Catalog.audit` reads all).

Query and DML text is cached by shape (`lexer.shape`: literals replaced by
``?``) for one catalog generation: a repeated shape skips parse, route and
render and binds its literals as sqlite3 parameters.  A shape is cached only
when the renderer bound exactly the shape's values, in order and type.  A
query text served from that cache is kept with its shape and values, so an
exact repeat skips `shape` too; it still passes its shape's generation and
value-count checks.  DML text is never kept.  A cached shape also keeps its
pattern (`lexer.shape_pattern`), which binds a new text of that shape in
about a third of the time `shape` takes.  All three hold `CACHE_SIZE`
entries at most and are cleared when full, the patterns with the shapes.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
from .lexer import bind_pattern, literal_prefix, shape, shape_pattern
from .parser import parse
from .render import quote_ident, render, render_source
from .router import (BASE_REWRITE, REJECTED, check_ie_integrity,
                     enforce_insert_computability, route)


CACHE_SIZE = 512       # shapes per session; the cache is cleared when full
PREFIX_PATTERNS = 4    # shape patterns kept under one literal prefix
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
    probe: bool                 # prepare a statement over its final view
    entry: CatalogEntry | None = None    # its new entry; None keeps the catalog's
    remove: bool = False        # its meta row and entry go


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
        # query text -> its shape and values, filled on a hit; DML is never kept
        self._shapes: dict[str, tuple[str, list]] = {}
        # literal prefix -> [(shape, its pattern)], for the shapes in `_statements`
        self._patterns: dict[str, list[tuple[str, re.Pattern]]] = {}
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

        A text missing from the text memo is bound by the first pattern kept
        under its `literal_prefix` that matches it, and shaped only when none
        does.  A miss parses the text itself, so a ParseError keeps its
        position."""
        known = self._shapes.get(text)
        key, values = known or self._bind(text) or shape(text)
        hit = self._statements.get(key)
        if hit is not None and hit[0] == self.catalog.generation and hit[1] == len(values):
            _, _, sql, action = hit
            if query_only and action != "query":
                raise InvariantViolation("expected exactly one SELECT statement")
            if sql is not None:
                result = self.conn.execute(sql, values, origin=text)
                if action != "query":
                    return [StatementResult(None, action, rowcount=result)]
                if known is None:
                    if len(self._shapes) >= CACHE_SIZE:
                        self._shapes.clear()
                    self._shapes[text] = key, values
                return result if query_only else [StatementResult(None, action, rows=result)]
        stmts = parse(text)
        if len(stmts) != 1 or not isinstance(stmts[0], n.Query if query_only else _CACHEABLE):
            if query_only:
                raise InvariantViolation("expected exactly one SELECT statement")
            return [self.apply_statement(stmt) for stmt in stmts]
        if len(values) > self.conn.max_params:
            result = self.apply_statement(stmts[0])
            return result.rows if query_only else [result]
        params = []
        result, sql = self._execute(stmts[0], params)
        if list(map(type, params)) != list(map(type, values)) or params != values:
            sql = None
        if len(self._statements) >= CACHE_SIZE:
            self._statements.clear()
            self._patterns.clear()
        self._statements[key] = (self.catalog.generation, len(values), sql, result.action)
        if sql is not None:
            self._keep_pattern(key, len(values))
        return result.rows if query_only else [result]

    def _bind(self, text: str) -> tuple[str, list] | None:
        """The shape and values of `text`, from the first pattern kept under
        its prefix that binds it; None when none does."""
        for key, pattern in self._patterns.get(literal_prefix(text), ()):
            values = bind_pattern(pattern, text)
            if values is not None:
                return key, values
        return None

    def _keep_pattern(self, key: str, count: int):
        """Keep the pattern of the shape `key` under its prefix, unless it is
        kept already, `PREFIX_PATTERNS` are, or the shape has none."""
        prefix = literal_prefix(key)
        kept = self._patterns.get(prefix, [])
        if len(kept) < PREFIX_PATTERNS and all(other != key for other, _ in kept):
            pattern = shape_pattern(key, count)
            if pattern is not None:
                self._patterns[prefix] = kept + [(key, pattern)]

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

    def _apply(self, plan: list[_Step], origin=None, changed=frozenset()) -> list[str]:
        """Run a DDL plan in one kernel transaction; return the names of the
        kernel items sent.  The transaction holds the write lock from its
        start, and a DDL version (`PRAGMA user_version`) other than the
        catalog's means another session committed DDL since the catalog was
        read: StaleCatalog then rolls back before any step.  The version is
        bumped before the commit, also when only meta rows change.

        A probe prepares a statement over a final view, which resolves every
        stage of its chain, so a bad or stale stage fails here, not at query
        time.  In an ALTER, a later step's failed probe is a dependent reading
        what the ALTER removes; `changed` (casefold) names the relations
        whose columns the ALTER changes, to name the IEs that read them."""
        sent, entered = [], []

        def run(conn):
            if conn.ddl_version() != self.catalog.version:
                raise StaleCatalog("the kernel schema changed since this session read its"
                                   " catalog; open a new session to see the change")
            self.catalog.ensure_meta(conn)
            for step in plan:
                for item in step.items(conn) if callable(step.items) else step.items:
                    conn.execute(item.sql, origin=origin)
                    sent.append(item.name)
                if step.probe:
                    try:
                        conn.execute(f"SELECT * FROM {quote_ident(step.name)} LIMIT 0",
                                     origin=origin)
                    except KernelError as exc:
                        if step is plan[0] or not changed:
                            raise
                        reader = self.catalog.get(step.name)
                        ies = _ies_over(reader, changed, self.catalog)
                        raise DependentAttributeDrop(
                            f"{plan[0].name}: this ALTER removes an attribute"
                            f" {reader.name} reads{f' through IE {ies}' if ies else ''}"
                            f" ({exc.__cause__})") from exc
                entry, known = step.entry, step.name in self.catalog
                if entry is not None and entry.kind == VIEW:
                    names = conn.introspect(entry.name)
                    if known and names == self.catalog.get(step.name).column_names:
                        continue
                    entry = _view_entry(entry, names, entry.references)
                if step.remove:
                    self.catalog.persist_remove(step.name, conn)
                elif entry is None:
                    continue
                else:
                    (self.catalog.persist_replace if known else self.catalog.persist)(entry, conn)
                entered.append((step.name, entry))
            conn.execute(f"PRAGMA user_version = {self.catalog.version + 1}")

        self.conn.within_transaction(run)
        self.catalog.version += 1
        self.catalog.meta_ready = True
        for name, entry in entered:
            if entry is None:
                self.catalog.detach(name)
            else:
                self.catalog.attach(entry)
        return sent

    def _upgrade(self):
        """Upgrade the rows an earlier release wrote (`_LoadedEntry`) in one
        DDL plan that also drops the four-table format's detail tables.  A
        table is compiled again, keeping its base item, after the outdated
        views (columns read from the kernel), relations and stage views it
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
                    else _view_entry(old, self.conn.introspect(old.name), referenced_relations(
                        old.statement(n.CreateView, "view").select))
                scratch.attach(entry)
                plan.append(_Step(entry.name, recompile_steps(old, entry), bool(entry.views), entry))
            drops = [PlanItem(table, "step", f"DROP TABLE IF EXISTS {table};")
                     for table in ("sir_attrs", "sir_ies", "sir_deps")]
            try:
                self._apply(plan + [_Step("sir_attrs", drops, False)])
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
        self._create(_Step(entry.name, entry.plan, bool(entry.views), entry),
                     entry.kernel_objects, stmt)
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
        routed = route(n.Query(select=stmt.select), self.catalog, prune=False)
        kernel_stmt = n.CreateView(name=stmt.name, select=routed.kernel_stmt.select)
        item = PlanItem(stmt.name, "view", render(kernel_stmt))
        # `_apply` reads its columns from the kernel
        entry = CatalogEntry(stmt.name, VIEW, None, [], [item], refs,
                             source_text=render_source(stmt))
        self._create(_Step(stmt.name, entry.plan, True, entry), [stmt.name], stmt)
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
        # attribute this ALTER removes is refused here, before any kernel
        # statement.
        plan = [_Step(entry.name, own_items, bool(new_entry.views), new_entry)]
        changed = {entry.name.casefold()}
        # (the relation's own name comes last: it names the old base too
        # when the relation had no IE)
        removed = {entry.plan[0].name.casefold(): _dropped(entry.scheme.stored_names,
                                                           new_scheme.stored_names),
                   entry.name.casefold(): _dropped(entry.column_names, new_entry.column_names)}
        for name in self.catalog.transitive_dependents(entry.name):
            dep = scratch.get(name)
            if dep.kind != SIR or not _stars_over(dep, changed, scratch):
                read = dep.kind == SIR and _reads_removed(dep, removed, self.catalog)
                if read:
                    raise DependentAttributeDrop(
                        f"{entry.name}: this ALTER removes an attribute {dep.name} reads"
                        f" through IE {read[0]} (no such column: {read[1]})")
                plan.append(_Step(name, [], True, dep if dep.kind == VIEW else None))
                continue
            # its scheme is unchanged: only its view chain is compiled again
            new_dep = compile_chain(dep, scratch)
            scratch.attach(new_dep)
            plan.append(_Step(name, recompile_steps(dep, new_dep), bool(new_dep.views), new_dep))
            if new_dep.column_names != dep.column_names:
                changed.add(name.casefold())

        self._apply(plan, partial(render_source, stmt), changed)
        return StatementResult(stmt, "alter table", objects=new_entry.kernel_objects,
                               warnings=stmt.warnings)

    def _drop(self, name: str, mode: str, expect_view: bool) -> StatementResult:
        plan = [_Step(entry.name, steps, False, remove=True)
                for entry, steps in plan_drop(name, mode, self.catalog, expect_view)]
        return StatementResult(None, "drop", objects=self._apply(plan))

    def _create_index(self, stmt: n.CreateIndex) -> StatementResult:
        plan = [_Step(stmt.table, compile_index(stmt, self.catalog), False)]
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

        plan = [_Step(stmt.name, items, False)]
        return StatementResult(stmt, "drop index",
                               objects=self._apply(plan, partial(render_source, stmt)))

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


def _view_entry(view: CatalogEntry, names: list[str], references: list[str]) -> CatalogEntry:
    """`view` with `references` and the columns `names` read from the kernel,
    which re-expands a `*` at each use; the catalog records no type, key or IE."""
    return CatalogEntry(view.name, VIEW, None, [ColumnInfo(c, None, False, True, None)
                                                for c in names],
                        view.plan, references, source_text=view.source_text)


def _ies_over(entry: CatalogEntry, relations: set[str], catalog: Catalog) -> str:
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


def _reads_removed(entry: CatalogEntry, removed: dict[str, set[str]],
                   catalog: Catalog) -> tuple[str, str] | None:
    """The first IE of `entry` whose select names a column that `removed`
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
            if named and all(column in removed.get(s.table.name.casefold(), ()) for s in named):
                return ie.name, f"{ref.table or named[0].table.name}.{ref.name}"
    return None


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
