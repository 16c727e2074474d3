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

A GROUP BY over an inherited attribute that one key-joined stage adds
aggregates the base first (eager aggregation; see `_pre_aggregate` for the
rule).  The attribute is a function of the stage's enclosing columns, so
R_B is grouped by them into partial aggregates, the stage's own join runs
once per group, and an outer GROUP BY combines the partials.  For S-P3,
``Select SCITY, Count(*), Sum(QTY) From SP Group By SCITY`` runs as

    SELECT S.CITY AS SCITY, SUM(SP_B.agg1) AS "Count(*)", SUM(SP_B.agg2)
    AS "Sum(QTY)" FROM (SELECT "S#", Count(*) AS agg1, Sum(QTY) AS agg2
    FROM SP_B SP GROUP BY "S#") SP_B LEFT JOIN S ON SP_B."S#" = S."S#"
    GROUP BY S.CITY

with the reason ``SP aggregates SP_B by S# before joining S (I_S)``.  Any
other query is routed as above.  Only sums over INTEGER-affinity columns
are split: a sum adds its values in another order, so a non-integer REAL
value stored in an Int column can round differently, and an integer
overflow can be raised or not, as any change of plan already allows
(SQLite 3.40 sums in scan order).

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
from itertools import count

from . import nodes as n
from .catalog import Catalog, type_affinity
from .compiler import Sources, _stage_select, canonicalize, expand_star_minus
from .errors import InvariantViolation, RejectedWrite, UnknownColumn, UnknownRelation
from .kernel import KernelConnection
from .render import quote_ident, render

PASS_THROUGH, BASE_REWRITE, REJECTED = "pass_through", "base_rewrite", "rejected"


@dataclass
class RoutedStatement:
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
    relations of the other selects are the candidates for a prefix, each
    needing the names left unqualified or qualified by one of its FROM terms.
    """
    if prune and stmt.select.group_by:
        routed = _pre_aggregate(stmt, catalog)
        if routed is not None:
            return routed
    names, qualified, selects = set(), {}, []     # qualified: casefold qualifier -> names
    column_ref, select_node = n.ColumnRef, n.Select
    for sub in n.walk(stmt.select):
        cls = type(sub)
        if cls is column_ref:
            (qualified.setdefault(sub.table.casefold(), set()) if sub.table else names).add(
                sub.name.casefold())
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
        for table in tables:
            key = table.name.casefold()
            if key in whole or key in targets:
                continue
            chain = catalog.prefix_chain(table.name)
            if chain is None:
                continue
            columns = names.union(*(qualified.get(q.casefold(), ()) for t in tables
                                    if t.name.casefold() == key for q in (t.name, t.alias) if q))
            need = max((chain.stage_of[c] for c in columns if c in chain.stage_of), default=0)
            last, plan = max(need, chain.floor), catalog.get(table.name).plan
            skipped = [ie for item in plan[last + 1:] for ie in item.stage.ies]
            if not skipped:         # only the full view or a column reordering is left
                continue
            targets[key] = plan[last].name
            reasons.append(f"{table.name} reads {plan[last].name},"
                           f" skipping {', '.join(skipped)}")

    if not targets and not star_minus:
        return RoutedStatement(kind=PASS_THROUGH, kernel_stmt=n.Query(select=stmt.select))

    def swap(node):
        # a relation in `targets` is read by no select with a star, so the
        # FROM clause a star-minus expands over is never swapped
        cls = type(node)
        if cls is n.TableName and node.name.casefold() in targets:
            return n.TableName(name=targets[node.name.casefold()], alias=node.alias or node.name)
        if cls is select_node and any(type(i.expr) is n.StarMinus for i in node.items):
            return node.replace(items=_expand_star_minus_items(node, catalog))
        return node

    return RoutedStatement(kind=BASE_REWRITE if targets else PASS_THROUGH,
                           kernel_stmt=n.Query(select=n.transform(stmt.select, swap)),
                           target=next(iter(targets.values()), None),
                           reason="; ".join(reasons) or None)


# an aggregate the base is pre-aggregated by -> the one combining its partials
_COMBINE = {"COUNT": "SUM", "SUM": "SUM", "MIN": "MIN", "MAX": "MAX"}
_NOT_EAGER = {n.Subquery, n.Star, n.StarMinus}


class _NotEager(Exception):
    """The query is outside the rule of `_pre_aggregate`."""


def _pre_aggregate(stmt: n.Query, catalog: Catalog) -> RoutedStatement | None:
    """The query grouped by an attribute that one key-joined stage adds,
    rewritten to group the base by that stage's enclosing columns first, or
    None when the rule below does not hold.

    One relation R is read, every stage of its chain keeps card(R_B), and
    the statement has no ``*``, DISTINCT or subquery.  The GROUP BY items
    are columns of R, and those that are inherited come from one join stage
    whose IE has no residual predicate, joins on stored attributes and
    selects columns of its sources only: they are then functions of the
    enclosing columns.  WHERE names stored attributes.  Every other column
    is a GROUP BY column or the argument of ``COUNT``, ``MIN``, ``MAX`` or
    an INTEGER-affinity ``SUM`` over a stored attribute (``COUNT(*)`` too;
    no DISTINCT and no other function).  The inner group key (the enclosing
    columns and the stored GROUP BY columns) holds no declared key of R, or
    the inner GROUP BY would reduce nothing.  Each output column keeps the
    name SQLite gives it over the view chain.
    """
    sel = stmt.select
    if sel.distinct or len(sel.from_) != 1 or type(sel.from_[0]) is not n.TableName:
        return None
    table = sel.from_[0]
    chain = catalog.prefix_chain(table.name)
    if chain is None or chain.floor or any(type(sub) in _NOT_EAGER for sub in n.walk(sel)):
        return None
    entry, label = catalog.get(table.name), (table.alias or table.name).casefold()
    scheme, base = entry.scheme, entry.plan[0].name

    def column(ref, stored=False) -> str:
        """The casefold column of R (a stored one if `stored`) that `ref` names."""
        key = ref.name.casefold()
        if (ref.table is not None and ref.table.casefold() != label) \
                or key not in chain.stage_of or (stored and chain.stage_of[key]):
            raise _NotEager
        return key

    if any(type(ref) is not n.ColumnRef for ref in sel.group_by):
        return None
    try:
        group = [column(ref) for ref in sel.group_by]
        stages = {chain.stage_of[key] for key in group} - {0}
        if len(stages) != 1:
            return None
        stage = entry.views[stages.pop() - 1].stage
        if stage.kind != "join" or len(stage.ies) != 1:
            return None
        cie = canonicalize(scheme.find_ie(stage.ies[0]), scheme, catalog)
        if cie.residual is not None or cie.sources.get(base) is not None or any(
                type(sub) is n.Subquery or type(sub) is n.ColumnRef
                and (sub.table is None or cie.sources.get(sub.table) is None)
                for sub in n.walk(cie.select_items)):
            return None
        encl = list(dict.fromkeys(column(n.ColumnRef(name=encl), stored=True)
                                  for _, _, encl in cie.join_pairs))
        keys = list(dict.fromkeys(encl + [key for key in group if not chain.stage_of[key]]))
        if any({c.casefold() for c in key} <= set(keys) for key in scheme.keys):
            return None
        for ref in n.walk(sel.where):
            if type(ref) is n.ColumnRef:
                column(ref, stored=True)

        outer = _stage_select(cie, base, scheme.name)
        produced = dict(zip((a.casefold() for a in cie.produced_attrs), outer.items[1:]))
        key_names = [scheme.find_attr(key).name for key in keys]
        partials, made = [], {}     # made: the references to partials, kept by id
        names = (f"agg{i}" for i in count(1) if f"agg{i}" not in keys)

        def group_item(ref) -> n.SelectItem:
            key = column(ref)
            if key not in group:
                raise _NotEager
            if key in produced:
                return produced[key]
            return n.SelectItem(expr=n.ColumnRef(name=scheme.find_attr(key).name, table=base))

        def combine(node):
            if type(node) is not n.Call:
                return node
            func = node.func.upper()
            arg = node.args[0] if len(node.args) == 1 else None
            if func not in _COMBINE or node.distinct or (node.star and func != "COUNT") \
                    or (not node.star and type(arg) is not n.ColumnRef):
                raise _NotEager
            if arg is not None:
                attr = scheme.find_attr(column(arg, stored=True))
                if func == "SUM" and type_affinity(attr.sql_type) != "INTEGER":
                    raise _NotEager
            name = next((name for call, name in partials if call == node), None)
            if name is None:
                name = next(names)
                partials.append((node, name))
            ref = n.ColumnRef(name=name, table=base)
            made[id(ref)] = ref
            return n.Call(func=_COMBINE[func], args=[ref])

        def rewrite(expr):
            expr = n.transform(expr, combine)
            return n.transform(expr, lambda node: group_item(node).expr
                               if type(node) is n.ColumnRef and id(node) not in made else node)

        items = []
        for item in sel.items:
            if item.alias is None and type(item.expr) is n.ColumnRef:
                items.append(group_item(item.expr))
            elif item.alias is None and any(type(sub) is n.Literal for sub in n.walk(item.expr)):
                return None     # its name holds a literal that a cached shape would rebind
            else:
                items.append(n.SelectItem(expr=rewrite(item.expr),
                                          alias=item.alias or render(item.expr)))
        aliases = {item.alias.casefold() for item in sel.items if item.alias}
        if any(type(o.expr) is n.ColumnRef and o.expr.table is None
               and o.expr.name.casefold() in aliases for o in sel.order_by):
            return None         # ORDER BY names a result column first
        order_by = [o.replace(expr=rewrite(o.expr)) for o in sel.order_by]
        group_by = [group_item(ref).expr for ref in sel.group_by]
    except _NotEager:
        return None

    inner = n.Select(
        items=[n.SelectItem(expr=n.ColumnRef(name=c)) for c in key_names]
        + [n.SelectItem(expr=call, alias=name) for call, name in partials],
        from_=[n.TableName(name=base, alias=table.alias or table.name)],
        where=sel.where, group_by=[n.ColumnRef(name=c) for c in key_names])
    derived = n.DerivedTable(select=inner, alias=base)
    from_ = n.transform(outer.from_, lambda node: derived if node == n.TableName(name=base)
                        else node)
    kernel = sel.replace(items=items, from_=from_, where=None, group_by=group_by,
                         order_by=order_by)
    return RoutedStatement(
        kind=BASE_REWRITE, kernel_stmt=n.Query(select=kernel), target=base,
        reason=f"{entry.name} aggregates {base} by {', '.join(key_names[:len(encl)])}"
               f" before joining {', '.join(t.name for t in cie.sources.tables)} ({cie.name})")


def _expand_star_minus_items(sel: n.Select, catalog: Catalog) -> list:
    """A select's items with star-minus replaced by the columns it denotes;
    a name that more than one source holds keeps its source's qualifier."""
    sources = Sources(_from_tables(sel), catalog.resolve_columns)
    new_items = []
    for item in sel.items:
        if isinstance(item.expr, n.StarMinus):
            for ref in expand_star_minus(item.expr, sources):
                bare = n.ColumnRef(name=ref.name)
                new_items.append(n.SelectItem(
                    expr=ref if len(sources.named_by(bare)) > 1 else bare))
        else:
            new_items.append(item)
    return new_items


def _route_insert(stmt: n.Insert, catalog: Catalog) -> RoutedStatement:
    entry = _lookup(catalog, stmt.table)
    if entry is None or entry.kind != "sir":
        return RoutedStatement(kind=PASS_THROUGH, kernel_stmt=stmt)
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
                kind=REJECTED,
                reason=f"{entry.name}.{col} is an inherited attribute; it is not writable")
        if key not in stored:
            raise UnknownColumn(f"{entry.name} has no stored attribute {col!r}")
        bound.append(stored[key])
    rewritten = n.Insert(table=entry.plan[0].name, columns=bound, source=stmt.source)
    return RoutedStatement(kind=BASE_REWRITE, kernel_stmt=rewritten,
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
        return RoutedStatement(kind=PASS_THROUGH, kernel_stmt=stmt)
    stored = {c.casefold() for c in entry.scheme.stored_names}
    for col, _ in stmt.assignments:
        if col.casefold() not in stored:
            return RoutedStatement(
                kind=REJECTED,
                reason=f"{entry.name}.{col} is not a writable stored attribute"
                       " (inherited attributes cannot be updated)")
    base = entry.plan[0].name
    where = stmt.where
    if where is not None and _where_touches_inherited(entry, where):
        where = _key_filter(entry, where)
    rewritten = n.Update(table=base, assignments=stmt.assignments, where=where)
    return RoutedStatement(kind=BASE_REWRITE, kernel_stmt=rewritten, target=base)


def _route_delete(stmt: n.Delete, catalog: Catalog) -> RoutedStatement:
    entry = _lookup(catalog, stmt.table)
    if entry is None or entry.kind != "sir":
        return RoutedStatement(kind=PASS_THROUGH, kernel_stmt=stmt)
    base = entry.plan[0].name
    where = stmt.where
    if where is not None and _where_touches_inherited(entry, where):
        where = _key_filter(entry, where)
    rewritten = n.Delete(table=base, where=where)
    return RoutedStatement(kind=BASE_REWRITE, kernel_stmt=rewritten, target=base)


# --- integrity checks -------------------------------------------------------


def check_ie_integrity(entry, catalog: Catalog, conn: KernelConnection) -> list[tuple]:
    """Rows whose recursive join matches more than one source tuple.

    For each join stage, in declared IE order, the check counts the rows of
    the stage view per base key (``SELECT keys, count(*) AS n FROM <stage
    view> GROUP BY keys HAVING n > 1``), returning (ie_name, key_values,
    match_count) for every count above one.  The stage's kind is the one the
    compiler recorded; a stage that provably keeps the card
    (`Catalog.stage_keeps_card`) cannot match twice and is not audited.
    """
    if entry.kind != "sir":
        raise InvariantViolation(f"{entry.name} is not a relation with IEs")
    keys = ", ".join(map(quote_ident, entry.scheme.primary_key() or entry.scheme.stored_names))
    violations = []
    for ie in entry.scheme.ies:
        pos, stage = entry.ie_stage(ie.name)
        if stage.kind != "join" or catalog.stage_keeps_card(entry, stage):
            continue
        view = quote_ident(entry.views[pos - 1].name)
        rows = conn.query(f"SELECT {keys}, count(*) AS n FROM {view} GROUP BY {keys} HAVING n > 1")
        violations.extend((ie.name, tuple(row[:-1]), row[-1]) for row in rows.rows)
    return violations


def enforce_insert_computability(entry, inserted_keys: list[tuple],
                                 conn: KernelConnection) -> None:
    """Strict-integrity mode: the just-inserted rows must have every
    select-form inherited attribute computed (non-NULL).  Runs inside the
    insert's transaction; raising rolls the insert back.

    Value-form attributes are exempt: arithmetic over NULL inputs is
    legitimate NULL propagation, not a failed inheritance.  The form is the
    kind the compiler recorded for the IE's stage.
    """
    from .errors import IaNotComputable

    checked = [c for c in entry.columns
               if c.is_inherited and entry.ie_stage(c.ie_name)[1].kind != "value"]
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
