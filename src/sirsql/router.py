"""Route DML and queries against the catalog.

A relation with IEs is addressed by its full view, which carries the
relation's own name in the kernel.  A query executed now reads each such
relation R through the shortest prefix of R's view chain that supplies
every column the statement can name from R: the base R_B when it names
no inherited attribute (``COUNT(*)``, stored columns only), otherwise the
stage that first produces the last inherited attribute it needs.  A prefix
is taken only when every stage it skips provably keeps card(R_B) (see
`Catalog.stage_keeps_card`), so it has the full view's rows.  Any ``*`` over
R keeps R whole, a column name counts for R whatever its qualifier, and R's
name stays as the alias so qualified references still resolve.  View
bodies are routed without pruning: stage names shift on ALTER.

Writes against such a relation are rewritten to its stored base when they
touch stored attributes only, and rejected otherwise: inherited attributes
are never writable under the default policy, and they are never
materialized, so a rewritten write followed by a query always shows
freshly computed values.

WHERE clauses over inherited attributes are evaluated by selecting the
matching base keys through the full view first (one statement, pre-write
state).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import nodes as n
from .catalog import Catalog
from .compiler import conjoin
from .errors import InvariantViolation, RejectedWrite, UnknownColumn, UnknownRelation
from .kernel import KernelConnection
from .render import quote_ident, render

PASS_THROUGH, BASE_REWRITE, REJECTED = "pass_through", "base_rewrite", "rejected"


@dataclass
class RoutedStatement:
    original: object
    kind: str                       # pass_through | base_rewrite | rejected
    kernel_stmt: object = None      # AST to render for the kernel
    target: str | None = None       # base table (or, for queries, chain prefix) read
    reason: str | None = None       # why a write was rejected or a query pruned
    inserted_columns: list | None = None   # stored columns an insert binds


def route(stmt, catalog: Catalog, prune: bool = True) -> RoutedStatement:
    """Classify a parsed statement and rewrite it for the kernel.

    `prune=False` keeps every relation of a query on its full view, for
    selects that are persisted rather than executed now.
    """
    if isinstance(stmt, n.Query):
        return _route_query(stmt, catalog, prune)
    if isinstance(stmt, n.Insert):
        return _route_insert(stmt, catalog)
    if isinstance(stmt, n.Update):
        return _route_update(stmt, catalog)
    if isinstance(stmt, n.Delete):
        return _route_delete(stmt, catalog)
    raise InvariantViolation(f"router does not handle {type(stmt).__name__}")


def _lookup(catalog: Catalog, name: str):
    """Catalog entry for a relation, or None for a bare kernel object."""
    if name in catalog:
        return catalog.get(name)
    if catalog.resolve_columns(name) is not None:
        return None  # generated object (base or stage view): plain kernel relation
    raise UnknownRelation(f"no relation named {name!r}")


def _from_tables(sel: n.Select):
    """The relation references of a select's FROM clause, joins included."""
    for entry in sel.from_:
        stack = [entry]
        while stack:
            item = stack.pop()
            if isinstance(item, n.Join):
                stack.extend([item.left, item.right])
            elif isinstance(item, n.TableName):
                yield item


_STARS = {n.Star, n.StarMinus}


def _route_query(stmt: n.Query, catalog: Catalog, prune: bool) -> RoutedStatement:
    """Expand star-minus items and point each relation at its chain prefix.

    One walk over the statement collects the column names and the selects.
    A select with a star keeps the relations of its FROM clause whole; the
    relations of the other selects are the candidates for a prefix.
    """
    names, selects = set(), []
    column_ref, select_node = n.ColumnRef, n.Select
    for sub in n.walk(stmt.select):
        cls = type(sub)
        if cls is column_ref:
            names.add(sub.name)
        elif cls is select_node:
            selects.append(sub)

    tables, star_selects, star_minus = [], [], []
    for sel in selects:
        kinds = {type(i.expr) for i in sel.items}
        if kinds & _STARS:
            star_selects.append(sel)
            if n.StarMinus in kinds:
                star_minus.append(sel)
        else:
            tables.extend(_from_tables(sel))

    targets, reasons = {}, []
    if prune and tables:
        whole = {t.name.casefold() for sel in star_selects for t in _from_tables(sel)}
        columns = {name.casefold() for name in names}
        for table in tables:
            key = table.name.casefold()
            if key in whole or key in targets:
                continue
            chain = catalog.prefix_chain(table.name)
            if chain is None:
                continue
            need = max((chain.stage_of[c] for c in columns if c in chain.stage_of), default=0)
            last = max(need, chain.floor)
            skipped = [ie for ies in chain.ies[last + 1:] for ie in ies]
            if not skipped:         # only the full view or a column reordering is left
                continue
            targets[key] = chain.objects[last]
            reasons.append(f"{table.name} reads {chain.objects[last]},"
                           f" skipping {', '.join(skipped)}")

    if not targets and not star_minus:
        return RoutedStatement(original=stmt, kind=PASS_THROUGH,
                               kernel_stmt=n.Query(select=stmt.select))

    def swap(node):
        # a relation in `targets` is read by no select with a star, so the
        # FROM clause a star-minus expands over is never swapped
        cls = type(node)
        if cls is n.TableName and node.name.casefold() in targets:
            return n.TableName(name=targets[node.name.casefold()], alias=node.alias or node.name)
        if cls is select_node and any(type(i.expr) is n.StarMinus for i in node.items):
            return node.replace(items=_expand_star_minus_items(node, catalog))
        return node

    return RoutedStatement(original=stmt, kind=BASE_REWRITE if targets else PASS_THROUGH,
                           kernel_stmt=n.Query(select=n.transform(stmt.select, swap)),
                           target=next(iter(targets.values()), None),
                           reason="; ".join(reasons) or None)


def _expand_star_minus_items(sel: n.Select, catalog: Catalog) -> list:
    """A select's items with star-minus replaced by the columns it denotes."""
    from .compiler import expand_star_minus
    col_map = {}
    for table in _from_tables(sel):
        cols = catalog.resolve_columns(table.name)
        if cols is None:
            raise UnknownRelation(
                f"cannot expand star-minus: unknown relation {table.name!r}")
        col_map[table.alias or table.name] = cols
    new_items = []
    for item in sel.items:
        if isinstance(item.expr, n.StarMinus):
            for col in expand_star_minus(item.expr, col_map):
                new_items.append(n.SelectItem(expr=n.ColumnRef(name=col)))
        else:
            new_items.append(item)
    return new_items


def _route_insert(stmt: n.Insert, catalog: Catalog) -> RoutedStatement:
    entry = _lookup(catalog, stmt.table)
    if entry is None or entry.kind != "sir":
        return RoutedStatement(original=stmt, kind=PASS_THROUGH, kernel_stmt=stmt)
    stored = {c.casefold(): c for c in entry.scheme.stored_names}
    inherited = {c.casefold() for c in entry.inherited_names()}

    columns = stmt.columns
    if columns is None and isinstance(stmt.source, n.Select):
        # the paper-style INSERT R (SELECT v AS col, ...) binds by alias
        aliases = [item.alias for item in stmt.source.items]
        if all(aliases):
            columns = aliases
    if columns is None:
        if isinstance(stmt.source, n.ValuesRows):
            arity = len(stmt.source.rows[0])
            if arity != len(stored):
                raise UnknownColumn(
                    f"INSERT into {entry.name} without a column list must supply"
                    f" its {len(stored)} stored attributes, got {arity}")
            columns = entry.scheme.stored_names
        else:
            raise RejectedWrite(
                f"INSERT ... SELECT into {entry.name} needs a column list or"
                " aliases naming stored attributes")
    bound = []
    for col in columns:
        key = col.casefold()
        if key in inherited:
            return RoutedStatement(
                original=stmt, kind=REJECTED,
                reason=f"{entry.name}.{col} is an inherited attribute; it is not writable")
        if key not in stored:
            raise UnknownColumn(f"{entry.name} has no stored attribute {col!r}")
        bound.append(stored[key])
    rewritten = n.Insert(table=entry.plan[0].name, columns=bound, source=stmt.source)
    return RoutedStatement(original=stmt, kind=BASE_REWRITE, kernel_stmt=rewritten,
                           target=entry.plan[0].name, inserted_columns=bound)


def _key_filter(entry, where) -> object:
    """WHERE for the base: keys selected through the full view's predicate."""
    key_cols = entry.scheme.primary_key() or entry.scheme.stored_names
    key_refs = [n.ColumnRef(name=c) for c in key_cols]
    inner = n.Select(items=[n.SelectItem(expr=n.ColumnRef(name=c)) for c in key_cols],
                     from_=[n.TableName(name=entry.name)],
                     where=where)
    operand = key_refs[0] if len(key_refs) == 1 else n.Tuple(items=key_refs)
    return n.InList(operand=operand, items=[n.Subquery(select=inner)])


def _where_touches_inherited(entry, where) -> bool:
    inherited = {c.casefold() for c in entry.inherited_names()}
    for ref in (sub for sub in n.walk(where) if isinstance(sub, n.ColumnRef)):
        if ref.name.casefold() in inherited:
            if ref.table is None or ref.table.casefold() == entry.name.casefold():
                return True
    return False


def _route_update(stmt: n.Update, catalog: Catalog) -> RoutedStatement:
    entry = _lookup(catalog, stmt.table)
    if entry is None or entry.kind != "sir":
        return RoutedStatement(original=stmt, kind=PASS_THROUGH, kernel_stmt=stmt)
    stored = {c.casefold() for c in entry.scheme.stored_names}
    for col, _ in stmt.assignments:
        if col.casefold() not in stored:
            return RoutedStatement(
                original=stmt, kind=REJECTED,
                reason=f"{entry.name}.{col} is not a writable stored attribute"
                       " (inherited attributes cannot be updated)")
    base = entry.plan[0].name
    where = stmt.where
    if where is not None and _where_touches_inherited(entry, where):
        where = _key_filter(entry, where)
    rewritten = n.Update(table=base, assignments=stmt.assignments, where=where)
    return RoutedStatement(original=stmt, kind=BASE_REWRITE, kernel_stmt=rewritten, target=base)


def _route_delete(stmt: n.Delete, catalog: Catalog) -> RoutedStatement:
    entry = _lookup(catalog, stmt.table)
    if entry is None or entry.kind != "sir":
        return RoutedStatement(original=stmt, kind=PASS_THROUGH, kernel_stmt=stmt)
    base = entry.plan[0].name
    where = stmt.where
    if where is not None and _where_touches_inherited(entry, where):
        where = _key_filter(entry, where)
    rewritten = n.Delete(table=base, where=where)
    return RoutedStatement(original=stmt, kind=BASE_REWRITE, kernel_stmt=rewritten, target=base)


# --- integrity checks -------------------------------------------------------


def check_ie_integrity(entry, catalog: Catalog, conn: KernelConnection) -> list[tuple]:
    """Rows whose recursive join matches more than one source tuple.

    For each join-form IE the check counts matches per base key against the
    stage the IE reads (everything produced before it), returning
    (ie_name, key_values, match_count) for every count above one.  IEs whose
    stage provably keeps the card (`Catalog.stage_keeps_card`) cannot match
    twice and are not audited.
    """
    from .compiler import canonicalize, substitute_relation

    if entry.kind != "sir":
        raise InvariantViolation(f"{entry.name} is not a relation with IEs")
    violations = []
    key_cols = entry.scheme.primary_key() or entry.scheme.stored_names
    views = entry.views
    produced: list[str] = []
    for ie in entry.scheme.ies:
        canon = canonicalize(ie, entry.scheme, catalog, produced_so_far=produced)
        produced.extend(canon.produced_attrs)
        if canon.kind != "join":
            continue
        located = entry.ie_stage(ie.name)
        if located is None:
            # plans persisted without stage facts: one stage per IE in order
            pos = [i.casefold() for i in entry.ie_order].index(ie.name.casefold()) + 1
        else:
            pos, stage = located
            if catalog.stage_keeps_card(entry, stage):
                continue
        prev = entry.plan[0].name if pos == 1 else views[pos - 2].name
        key_items = [n.SelectItem(expr=n.ColumnRef(name=c, table=prev)) for c in key_cols]
        count_item = n.SelectItem(expr=n.Call(func="COUNT", args=[], star=True), alias="n")
        sources = [substitute_relation(t, entry.name, prev) for t in canon.sources]
        preds = []
        for label, src_col, encl_col in canon.join_pairs:
            preds.append(n.Binary(op="=",
                                  left=n.ColumnRef(name=encl_col, table=prev),
                                  right=n.ColumnRef(name=src_col, table=label)))
        if canon.residual is not None:
            preds.append(substitute_relation(canon.residual, entry.name, prev))
        select = n.Select(items=key_items + [count_item],
                          from_=[n.TableName(name=prev)] + sources,
                          where=conjoin(preds),
                          group_by=[n.ColumnRef(name=c, table=prev) for c in key_cols])
        sql = render(n.Query(select=select)).rstrip(";")
        rows = conn.query(f"SELECT * FROM ({sql}) WHERE n > 1")
        for row in rows.rows:
            violations.append((ie.name, tuple(row[:-1]), row[-1]))
    return violations


def enforce_insert_computability(entry, inserted_keys: list[tuple],
                                 conn: KernelConnection) -> None:
    """Strict-integrity mode: the just-inserted rows must have every
    select-form inherited attribute computed (non-NULL).  Runs inside the
    insert's transaction; raising rolls the insert back.

    Value-form attributes are exempt: arithmetic over NULL inputs is
    legitimate NULL propagation, not a failed inheritance.  The form is the
    kind the compiler recorded for the IE's stage; an IE without recorded
    facts is checked.
    """
    from .errors import IaNotComputable

    def value_form(ie_name):
        located = entry.ie_stage(ie_name)
        return located is not None and located[1].kind == "value"

    checked = [c for c in entry.columns if c.is_inherited and not value_form(c.ie_name)]
    if not checked or not inserted_keys:
        return
    key_cols = entry.scheme.primary_key() or entry.scheme.stored_names
    key_list = ", ".join(quote_ident(c) for c in key_cols)
    operand = f"({key_list})" if len(key_cols) > 1 else key_list
    placeholders = ", ".join(
        "(" + ", ".join("?" for _ in key_cols) + ")" if len(key_cols) > 1 else "?"
        for _ in inserted_keys)
    params = [v for key in inserted_keys for v in (key if len(key_cols) > 1 else key[:1])]
    cols = ", ".join(quote_ident(c.name) for c in checked)
    sql = (f"SELECT {key_list}, {cols} FROM {quote_ident(entry.name)}"
           f" WHERE {operand} IN ({placeholders})")
    rows = conn.execute(sql, tuple(params))
    failures = []
    for row in rows.rows:
        key = tuple(row[:len(key_cols)])
        for offset, col in enumerate(checked):
            if row[len(key_cols) + offset] is None:
                failures.append((col.ie_name, key))
    if failures:
        raise IaNotComputable(sorted(set(failures)))
