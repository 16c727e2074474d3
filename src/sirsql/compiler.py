"""Compile relations with inheritance expressions into kernel DDL plans.

A relation R with stored attributes B and IEs I_1..I_n becomes:

    CREATE TABLE R_B (...)            -- the stored base
    CREATE VIEW R_1 AS SELECT R_B.*, <I_1 outputs> ...
    ...
    CREATE VIEW R AS ...              -- full view, columns in declared order

Each IE is first rewritten to a canonical form: recursive inner-join
predicates become left joins against the previous stage (JoinForm); a
single aggregate-valued select stays as a scalar subquery (SubqueryForm);
``NAME AS (expr)`` becomes ``expr AS NAME`` (ValueForm).  Left joins keep
the stage's row count equal to the base's; any non-recursive predicates
from the IE's WHERE are folded into the last join's ON clause for the
same reason.

Plans are pure data; identical scheme yields byte-identical text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import nodes as n
from .catalog import (Catalog, CatalogEntry, ColumnInfo, PlanItem, SirScheme,
                      StageFacts, ie_references, type_affinity)
from .errors import (IeCycle, IndexedAttributeDrop, IndexOnInheritedAttribute,
                     InvariantViolation, MissingRecursiveJoin, NotRewritable,
                     RecursiveJoinAttributeDrop, UnknownExcludedColumn, UnknownIE,
                     UnknownRelation)
from .render import quote_ident, render, render_source

AGGREGATES = {"SUM", "COUNT", "AVG", "MIN", "MAX", "TOTAL", "LIST", "GROUP_CONCAT"}


@dataclass
class CanonicalIE:
    name: str
    kind: str                   # 'join' | 'subquery' | 'value'
    produced_attrs: list
    # join form
    select_items: list = field(default_factory=list)
    sources: list = field(default_factory=list)        # TableName entries from F'
    join_pairs: list = field(default_factory=list)     # (source_label, source_col, enclosing_col)
    residual: object = None
    # subquery form
    select: object = None
    # value form
    items: list = field(default_factory=list)          # (name, expr)


@dataclass
class CompiledSir:
    scheme: SirScheme
    plan: list                  # PlanItem
    columns: list               # ColumnInfo
    ie_order: list
    references: list


# --- small AST helpers -------------------------------------------------------


def substitute_relation(node, old: str, new: str):
    """`node` with every direct reference to relation `old` renamed to `new`.
    Only the nodes on a path to a renamed one are new (see `n.transform`).

    Alias-qualified references are left alone; only FROM entries naming `old`
    and column qualifiers spelled `old` are touched.
    """
    old = old.casefold()

    def rename(sub):
        if isinstance(sub, n.TableName) and sub.name.casefold() == old:
            return sub.replace(name=new)
        if isinstance(sub, n.ColumnRef) and sub.table and sub.table.casefold() == old:
            return sub.replace(table=new)
        return sub

    return n.transform(node, rename)


def conjuncts(expr) -> list:
    """Flatten a WHERE tree into top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, n.Binary) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    if isinstance(expr, n.Paren):
        inner = conjuncts(expr.inner)
        if len(inner) > 1:
            return inner
    return [expr]


def conjoin(parts: list):
    expr = None
    for part in parts:
        expr = part if expr is None else n.Binary(op="AND", left=expr, right=part)
    return expr


def contains_aggregate(expr) -> bool:
    return any(isinstance(sub, n.Call) and sub.func.upper() in AGGREGATES
               for sub in n.walk(expr))


def column_refs(node) -> list[n.ColumnRef]:
    return [sub for sub in n.walk(node) if isinstance(sub, n.ColumnRef)]


# --- star-minus ---------------------------------------------------------------


def expand_star_minus(item, source_columns: dict[str, list[str]]) -> list[str]:
    """Column names the item denotes, in catalog order.

    `source_columns` maps each source relation (by alias or name) to its
    ordered column list.  Plain star returns everything; star-minus drops
    the excluded names and insists each one resolves.
    """
    if isinstance(item, n.Star):
        if item.qualifier:
            if item.qualifier not in source_columns:
                raise UnknownRelation(f"star qualifier {item.qualifier!r} is not a source")
            return list(source_columns[item.qualifier])
        out = []
        for cols in source_columns.values():
            out.extend(cols)
        return out
    excluded: set[tuple] = set()
    for ref in item.excluded:
        if ref.table is not None:
            match = None
            for label, cols in source_columns.items():
                if label.casefold() == ref.table.casefold():
                    match = (label, cols)
                    break
            if match is None:
                raise UnknownExcludedColumn(
                    f"excluded column {ref.table}.{ref.name}: unknown relation {ref.table!r}")
            if ref.name.casefold() not in {c.casefold() for c in match[1]}:
                raise UnknownExcludedColumn(
                    f"excluded column {ref.name!r} is not a column of {ref.table}")
            excluded.add((match[0].casefold(), ref.name.casefold()))
        else:
            hits = [label for label, cols in source_columns.items()
                    if ref.name.casefold() in {c.casefold() for c in cols}]
            if not hits:
                raise UnknownExcludedColumn(f"excluded column {ref.name!r} not found in sources")
            for label in hits:
                excluded.add((label.casefold(), ref.name.casefold()))
    out = []
    for label, cols in source_columns.items():
        for col in cols:
            if (label.casefold(), col.casefold()) not in excluded:
                out.append(col)
    return out


# --- canonicalization ----------------------------------------------------------


def _source_label(table: n.TableName) -> str:
    return table.alias or table.name


def _source_column_map(sources, scheme, catalog, produced_so_far):
    """Ordered {source label -> column list}; self references resolve to what
    the previous stages expose (stored attributes plus already-produced IAs)."""
    col_map = {}
    for table in sources:
        if table.name.casefold() == scheme.name.casefold():
            cols = scheme.stored_names + produced_so_far
        else:
            cols = catalog.resolve_columns(table.name)
        col_map[_source_label(table)] = cols
    return col_map


def canonicalize(ie: n.IeDecl, scheme: SirScheme, catalog: Catalog,
                 produced_so_far: list[str] | None = None) -> CanonicalIE:
    """Rewrite one IE into its canonical form.

    Value expressions flip to ``expr AS name``; an aggregate-valued single
    select is kept verbatim as a scalar subquery; anything else must carry
    at least one recursive equijoin, which moves from WHERE into join pairs.
    """
    produced_so_far = produced_so_far or []
    if isinstance(ie.form, n.ValueForm):
        return CanonicalIE(name=ie.name, kind="value",
                           produced_attrs=[name for name, _ in ie.form.items],
                           items=list(ie.form.items))

    select = ie.form.select
    sources = []
    for entry in select.from_:
        if isinstance(entry, n.TableName):
            sources.append(entry)
        else:
            raise InvariantViolation(
                f"IE {ie.name}: explicit JOIN syntax inside an IE is not supported;"
                " write recursive predicates in WHERE")
    for table in sources:
        if table.name.casefold() != scheme.name.casefold() \
                and catalog.resolve_columns(table.name) is None:
            raise UnknownRelation(
                f"IE {ie.name} in {scheme.name} references unknown relation {table.name!r}")

    if len(select.items) == 1 and not isinstance(select.items[0].expr, (n.Star, n.StarMinus)) \
            and contains_aggregate(select.items[0].expr):
        produced = [select.items[0].alias or ie.name]
        return CanonicalIE(name=ie.name, kind="subquery", produced_attrs=produced,
                           select=select)

    col_map = _source_column_map(sources, scheme, catalog, produced_so_far)
    labels = {label.casefold(): label for label in col_map}

    def owning_source(ref: n.ColumnRef) -> str | None:
        if ref.table is not None:
            return labels.get(ref.table.casefold())
        hits = [label for label, cols in col_map.items()
                if ref.name.casefold() in {c.casefold() for c in cols}]
        return hits[0] if len(hits) == 1 else None

    join_pairs, residual = [], []
    for pred in conjuncts(select.where):
        pair = None
        if isinstance(pred, n.Binary) and pred.op == "=" \
                and isinstance(pred.left, n.ColumnRef) and isinstance(pred.right, n.ColumnRef):
            left, right = pred.left, pred.right
            for encl, other in ((left, right), (right, left)):
                if encl.table and encl.table.casefold() == scheme.name.casefold() \
                        and encl.table.casefold() not in labels:
                    source = owning_source(other)
                    if source is not None:
                        pair = (source, other.name, encl.name)
                        break
        if pair is not None:
            join_pairs.append(pair)
        else:
            residual.append(pred)

    if not join_pairs:
        raise MissingRecursiveJoin(
            f"IE {ie.name} in {scheme.name} has no recursive equijoin predicate"
            f" referencing {scheme.name}")

    # expand stars and qualify plain column items so the generated join is
    # unambiguous whatever the previous stage already contains
    select_items, produced = [], []
    for item in select.items:
        if isinstance(item.expr, (n.Star, n.StarMinus)):
            if isinstance(item.expr, n.Star) and item.expr.qualifier:
                scoped = {item.expr.qualifier: col_map.get(item.expr.qualifier, [])}
            else:
                scoped = col_map
            for col in expand_star_minus(item.expr, scoped):
                owner = owning_source(n.ColumnRef(name=col))
                select_items.append(n.SelectItem(expr=n.ColumnRef(name=col, table=owner)))
                produced.append(col)
            continue
        expr = item.expr
        if isinstance(expr, n.ColumnRef):
            name = item.alias or expr.name
            if expr.table is None:
                owner = owning_source(expr)
                if owner is not None:
                    expr = n.ColumnRef(name=expr.name, table=owner)
        else:
            if item.alias is None:
                raise InvariantViolation(
                    f"IE {ie.name}: expression select items must be named with AS")
            name = item.alias
        select_items.append(n.SelectItem(expr=expr, alias=item.alias))
        produced.append(name)

    return CanonicalIE(name=ie.name, kind="join", produced_attrs=produced,
                       select_items=select_items, sources=sources,
                       join_pairs=join_pairs, residual=conjoin(residual))


def canonicalize_all(scheme: SirScheme, catalog: Catalog) -> list[CanonicalIE]:
    out, produced = [], []
    for ie in scheme.ies:
        canon = canonicalize(ie, scheme, catalog, produced_so_far=produced)
        produced.extend(canon.produced_attrs)
        out.append(canon)
    return out


# --- ordering -------------------------------------------------------------------


def order_ies(scheme: SirScheme, canon: list[CanonicalIE], catalog: Catalog) -> list[CanonicalIE]:
    """Topological evaluation order: an IE reading another's output runs later.

    Ties keep declaration order.  References counted are column names that
    the IE's own sources cannot satisfy, plus anything qualified with the
    relation's own name.
    """
    produced_by = {}
    for cie in canon:
        for attr in cie.produced_attrs:
            produced_by[attr.casefold()] = cie.name

    def external_refs(cie: CanonicalIE):
        if cie.kind == "value":
            exprs = [expr for _, expr in cie.items]
            sources = []
        elif cie.kind == "subquery":
            exprs = [cie.select]
            sources = [t for t in cie.select.from_ if isinstance(t, n.TableName)]
        else:
            exprs = [i.expr for i in cie.select_items] + ([cie.residual] if cie.residual else [])
            sources = cie.sources
        own_cols: set[str] = set()
        for table in sources:
            if table.name.casefold() != scheme.name.casefold():
                own_cols |= {c.casefold() for c in catalog.resolve_columns(table.name)}
        refs = set()
        for expr in exprs:
            for ref in column_refs(expr):
                key = ref.name.casefold()
                if ref.table is not None:
                    if ref.table.casefold() == scheme.name.casefold():
                        refs.add(key)
                    continue
                if key not in own_cols:
                    refs.add(key)
        return refs

    index = {cie.name.casefold(): i for i, cie in enumerate(canon)}
    pending = {cie.name.casefold(): set() for cie in canon}
    for cie in canon:
        for ref in external_refs(cie):
            owner = produced_by.get(ref)
            if owner and owner.casefold() != cie.name.casefold():
                pending[cie.name.casefold()].add(owner.casefold())

    ordered, done = [], set()
    remaining = list(canon)
    while remaining:
        ready = [cie for cie in remaining if pending[cie.name.casefold()] <= done]
        if not ready:
            names = [cie.name for cie in remaining]
            raise IeCycle(f"IEs reference each other's outputs: {', '.join(names)}")
        nxt = min(ready, key=lambda cie: index[cie.name.casefold()])
        ordered.append(nxt)
        done.add(nxt.name.casefold())
        remaining.remove(nxt)
    return ordered


def _lower_list_calls(select: n.Select) -> n.Select:
    """Rewrite LIST(a, b, ...) with the select's ORDER BY into a string
    aggregation over an ordered derived table, so element order survives on
    kernels whose aggregate ignores outer ordering."""
    if len(select.items) != 1:
        return select
    expr = select.items[0].expr
    if not (isinstance(expr, n.Call) and expr.func.upper() == "LIST"):
        return select
    sep = n.Literal(text=", ", kind="string")
    concat = None
    for arg in expr.args:
        piece = arg
        concat = piece if concat is None else n.Binary(
            op="||", left=n.Binary(op="||", left=concat, right=sep), right=piece)
    inner = n.Select(
        items=[n.SelectItem(expr=concat, alias="list_item")],
        from_=select.from_, where=select.where,
        group_by=select.group_by, order_by=select.order_by)
    agg = n.Call(func="LIST",
                 args=[n.ColumnRef(name="list_item"), n.Literal(text="; ", kind="string")])
    return n.Select(items=[n.SelectItem(expr=agg, alias=select.items[0].alias)],
                    from_=[n.DerivedTable(select=inner, alias="list_src")])


# --- plan emission ----------------------------------------------------------


def _stage_select(cie: CanonicalIE, prev: str, scheme_name: str) -> n.Select:
    """The SELECT body of the view stage realizing one canonical IE over the
    previous stage `prev`."""
    if cie.kind == "join":
        from_entry: object = n.TableName(name=prev)
        sources = [substitute_relation(t, scheme_name, prev) for t in cie.sources]
        pair_by_label: dict[str, list] = {}
        for label, src_col, encl_col in cie.join_pairs:
            pair_by_label.setdefault(label.casefold(), []).append((src_col, encl_col))
        residual = substitute_relation(cie.residual, scheme_name, prev) \
            if cie.residual is not None else None
        for pos, source in enumerate(sources):
            label = _source_label(cie.sources[pos])
            preds = []
            for src_col, encl_col in pair_by_label.get(label.casefold(), []):
                preds.append(n.Binary(
                    op="=",
                    left=n.ColumnRef(name=encl_col, table=prev),
                    right=n.ColumnRef(name=src_col, table=label)))
            if pos == len(sources) - 1 and residual is not None:
                preds.append(residual)
            on = conjoin(preds) or n.Binary(op="=", left=n.Literal(text="1", kind="number"),
                                            right=n.Literal(text="1", kind="number"))
            from_entry = n.Join(left=from_entry, kind="left", right=source, on=on)
        items = [n.SelectItem(expr=n.Star(qualifier=prev))]
        items += [substitute_relation(i, scheme_name, prev) for i in cie.select_items]
        return n.Select(items=items, from_=[from_entry])
    if cie.kind == "subquery":
        select = substitute_relation(cie.select, scheme_name, prev)
        select = _lower_list_calls(select)
        item = n.SelectItem(expr=n.Subquery(select=select), alias=cie.produced_attrs[0])
        return n.Select(items=[n.SelectItem(expr=n.Star(qualifier=prev)), item],
                        from_=[n.TableName(name=prev)])
    items = [n.SelectItem(expr=n.Star(qualifier=prev))]
    for name, expr in cie.items:
        expr = substitute_relation(expr, scheme_name, prev)
        items.append(n.SelectItem(expr=expr, alias=name))
    return n.Select(items=items, from_=[n.TableName(name=prev)])


def _stage_facts(cie: CanonicalIE) -> StageFacts:
    joins = []
    if cie.kind == "join":
        for table in cie.sources:
            label = _source_label(table).casefold()
            joins.append([table.name, [[src_col, encl_col]
                                       for pair_label, src_col, encl_col in cie.join_pairs
                                       if pair_label.casefold() == label]])
    return StageFacts(kind=cie.kind, ies=[cie.name],
                      adds=list(cie.produced_attrs), joins=joins)


_CLUSTERED = " WITHOUT ROWID;"

# SQLite advises WITHOUT ROWID only for rows under about a twentieth of a
# page (4 KB by default): a wider row leaves fewer rows on each B-tree page,
# the table no longer has a narrow key index to count or scan keys from, and
# a row over about 1 KB spills to an overflow page
_CLUSTERED_ROW_BYTES = 4096 // 20


def _declared_width(attr: n.AttributeDecl) -> float:
    """The bytes a value of `attr` takes by its declared type: a string
    type's length argument (``Char(40)``), 1 for a plain ``Char`` (SQL's
    ``CHAR`` is ``CHAR(1)``), 8 for a number, and no bound for any other
    type (``Text``, ``Varchar``, ``Blob``)."""
    affinity = type_affinity(attr.sql_type)
    if affinity == "TEXT":
        if attr.type_args:
            return float(attr.type_args[0])
        return 1 if attr.sql_type.upper() in ("CHAR", "CHARACTER") else math.inf
    return 8 if affinity != "BLOB" else math.inf


def _base_table_sql(scheme: SirScheme, name: str) -> str:
    """The kernel CREATE TABLE holding a relation's stored attributes under
    `name`: the relation itself when it has no IEs, its base ``R_B``, or the
    table a base rebuild fills.

    A keyed table is clustered by its primary key (``WITHOUT ROWID``), so a
    key lookup or a recursive join is one B-tree descent and the key is
    stored once.  Two kinds of keyed table keep their rowid.  A key of one
    column declared exactly ``INTEGER`` already is the rowid, and it
    auto-assigns a key when none is inserted.  A table whose declared row
    (the `_declared_width` of its stored attributes) exceeds
    `_CLUSTERED_ROW_BYTES` would be slower and larger clustered.  A table
    with no key has nothing to cluster by."""
    elements: list = [a.replace(is_primary_key=False) for a in scheme.stored_attrs]
    if scheme.keys:
        elements.append(n.PrimaryKeyClause(columns=list(scheme.keys[0])))
        for extra in scheme.keys[1:]:
            elements.append(n.UniqueClause(columns=list(extra)))
    elements.extend(scheme.foreign_keys)
    sql = render(n.CreateSirTable(name=name, elements=elements))
    key = scheme.primary_key()
    if not key or sum(map(_declared_width, scheme.stored_attrs)) > _CLUSTERED_ROW_BYTES:
        return sql
    if len(key) == 1:
        attr = scheme.find_attr(key[0])
        if attr.sql_type.upper() == "INTEGER" and not attr.type_args:
            return sql
    return sql.removesuffix(";") + _CLUSTERED


def declared_order(scheme: SirScheme, canon: list[CanonicalIE]) -> list[str]:
    produced = {cie.name.casefold(): cie.produced_attrs for cie in canon}
    order = []
    for element in scheme.elements:
        if isinstance(element, n.AttributeDecl):
            order.append(element.name)
        else:
            order.extend(produced[element.name.casefold()])
    return order


def build_columns(scheme: SirScheme, canon: list[CanonicalIE]) -> list[ColumnInfo]:
    key = {c.casefold() for c in scheme.primary_key()}
    produced = {cie.name.casefold(): cie.produced_attrs for cie in canon}
    columns = []
    for element in scheme.elements:
        if isinstance(element, n.AttributeDecl):
            columns.append(ColumnInfo(element.name, element.sql_type,
                                      element.name.casefold() in key, False, None))
        else:
            for attr in produced[element.name.casefold()]:
                columns.append(ColumnInfo(attr, None, False, True, element.name))
    seen = set()
    for col in columns:
        if col.name.casefold() in seen:
            raise InvariantViolation(
                f"{scheme.name}: attribute name {col.name!r} produced more than once")
        seen.add(col.name.casefold())
    return columns


def compile_sir(scheme: SirScheme, catalog: Catalog) -> CompiledSir:
    """Emit the kernel plan for one relation: base table plus view chain.

    The chain has one view per IE, in evaluation order; the last carries
    the relation's name, unless evaluation order differs from declared
    order, when one more view restores the declared column order.  With
    zero IEs the plan is a single plain CREATE TABLE under the relation's
    own name.
    """
    catalog.validate_scheme(scheme)

    if not scheme.ies:
        sql = _base_table_sql(scheme, scheme.name)
        return CompiledSir(scheme=scheme, plan=[PlanItem(scheme.name, "table", sql)],
                           columns=build_columns(scheme, []), ie_order=[], references=[])

    canon = canonicalize_all(scheme, catalog)
    ordered = order_ies(scheme, canon, catalog)

    # at least one IE's recursive join must match a stored attribute
    select_like = [c for c in canon if c.kind in ("join", "subquery")]
    if select_like:
        stored = {a.casefold() for a in scheme.stored_names}
        def touches_stored(cie):
            if cie.kind == "join":
                return any(encl.casefold() in stored for _, _, encl in cie.join_pairs)
            return any(ref.table and ref.table.casefold() == scheme.name.casefold()
                       and ref.name.casefold() in stored
                       for ref in column_refs(cie.select))
        if not any(touches_stored(c) for c in select_like):
            raise InvariantViolation(
                f"{scheme.name}: no IE's recursive join matches a stored attribute")

    columns = build_columns(scheme, canon)
    declared = declared_order(scheme, canon)

    chain_cols = list(scheme.stored_names)
    for cie in ordered:
        chain_cols.extend(cie.produced_attrs)
    in_declared_order = [c.casefold() for c in chain_cols] == [c.casefold() for c in declared]

    base_name = f"{scheme.name}_B"
    items = [PlanItem(base_name, "table", _base_table_sql(scheme, base_name))]

    def add_view(name: str, select: n.Select, stage: StageFacts):
        items.append(PlanItem(name, "view",
                              render(n.CreateView(name=name, select=select)), stage))

    prev = base_name
    for pos, cie in enumerate(ordered, start=1):
        last = pos == len(ordered) and in_declared_order
        stage_name = scheme.name if last else f"{scheme.name}_{pos}"
        add_view(stage_name, _stage_select(cie, prev, scheme.name), _stage_facts(cie))
        prev = stage_name

    if not in_declared_order:
        reorder = n.Select(items=[n.SelectItem(expr=n.ColumnRef(name=c)) for c in declared],
                           from_=[n.TableName(name=prev)])
        add_view(scheme.name, reorder, StageFacts(kind="reorder", ies=[], adds=[]))

    references = []
    for ie in scheme.ies:
        for ref in ie_references(ie, scheme.name):
            if ref.casefold() not in {r.casefold() for r in references}:
                references.append(ref)
    return CompiledSir(scheme=scheme, plan=items, columns=columns,
                       ie_order=[c.name for c in ordered], references=references)


# --- alter ---------------------------------------------------------------------


def _attr_signature(scheme: SirScheme, base: PlanItem):
    """What decides whether a base can be kept: its stored attributes, keys
    and foreign keys, and the storage form its recorded CREATE TABLE names
    (a file written before bases were key-clustered holds rowid tables)."""
    return ([(a.name.casefold(), a.sql_type.upper(), tuple(a.type_args), a.not_null)
             for a in scheme.stored_attrs],
            [tuple(c.casefold() for c in key) for key in scheme.keys],
            [render_source(fk) for fk in scheme.foreign_keys],
            base.sql.endswith(_CLUSTERED))


def apply_alter(entry: CatalogEntry, action) -> SirScheme:
    """The entry's scheme after an ALTER action; raises before anything is
    planned.  The new scheme has lists of its own and shares its nodes with
    the entry's scheme and `action`.  A position anchor may name a stored
    attribute, an IE, or an attribute an IE produces (the entry's columns
    record which)."""
    old = entry.scheme
    scheme = SirScheme(name=old.name, elements=list(old.elements),
                       keys=[list(key) for key in old.keys],
                       foreign_keys=list(old.foreign_keys))
    if isinstance(action, n.AlterAdd):
        slot = len(scheme.elements)
        if action.position is not None:
            where, anchor = action.position
            anchors = {c.name.casefold(): c.ie_name or c.name for c in entry.columns}
            anchors.update((e.name.casefold(), e.name) for e in scheme.elements)
            owner = anchors.get(anchor.casefold())
            if owner is None:
                raise UnknownIE(f"{scheme.name}: no attribute or IE named {anchor!r}")
            index = next(i for i, e in enumerate(scheme.elements)
                         if e.name.casefold() == owner.casefold())
            slot = index if where == "before" else index + 1
        for offset, item in enumerate(action.items):
            if isinstance(item, n.AttributeDecl) and item.is_primary_key:
                raise InvariantViolation(
                    f"{scheme.name}: cannot add a primary-key column with ALTER")
            scheme.elements.insert(slot + offset, item)
        return scheme
    if isinstance(action, n.AlterIe):
        for index, element in enumerate(scheme.elements):
            if element.name.casefold() == action.target.casefold():
                scheme.elements[index] = action.replacement
                if isinstance(element, n.AttributeDecl):
                    # a stored attribute became inherited; keys may not keep it
                    for key in scheme.keys:
                        if any(c.casefold() == element.name.casefold() for c in key):
                            raise InvariantViolation(
                                f"{scheme.name}: cannot replace key attribute"
                                f" {element.name!r} with an IE")
                return scheme
        raise UnknownIE(f"{scheme.name}: no attribute or IE named {action.target!r}")
    if isinstance(action, n.AlterDrop):
        for index, element in enumerate(scheme.elements):
            if element.name.casefold() != action.target.casefold():
                continue
            if isinstance(element, n.AttributeDecl):
                _check_attr_droppable(scheme, element.name)
                scheme.keys = [key for key in scheme.keys
                               if all(c.casefold() != element.name.casefold() for c in key)]
            del scheme.elements[index]
            return scheme
        raise UnknownIE(f"{scheme.name}: no attribute or IE named {action.target!r}")
    raise InvariantViolation(f"unsupported ALTER action {type(action).__name__}")


def _check_attr_droppable(scheme: SirScheme, attr: str):
    """An attribute serving a recursive join in any of the relation's own IEs
    cannot be dropped."""
    for ie in scheme.ies:
        for ref in column_refs(ie):
            if ref.table and ref.table.casefold() == scheme.name.casefold() \
                    and ref.name.casefold() == attr.casefold():
                raise RecursiveJoinAttributeDrop(
                    f"{scheme.name}.{attr} serves a recursive join in IE {ie.name}")


def alter_steps(entry: CatalogEntry, compiled: CompiledSir,
                read_indexes=lambda: ()) -> list[PlanItem]:
    """Maintenance DDL turning the entry's current kernel objects into the
    newly compiled ones.  Only views whose SQL changed, or that are new or
    gone, are dropped or created (see `_view_diff`); the base table is
    renamed, extended in place, or rebuilt as needed so stored data
    survives.  A rebuild re-creates the old base's indexes; only a rebuild
    calls `read_indexes`, which lists them as `KernelConnection.indexes`
    does."""
    steps, creates = _view_diff(entry.plan, compiled.plan)
    old_base = entry.plan[0].name
    new_base = compiled.plan[0].name
    if _rebuilds_base(entry, compiled):
        steps.extend(_rebuild_steps(entry, compiled, old_base, new_base, read_indexes()))
        return steps + creates
    if old_base.casefold() != new_base.casefold():
        steps.append(PlanItem(new_base, "step", f"ALTER TABLE {quote_ident(old_base)}"
                                                f" RENAME TO {quote_ident(new_base)};"))
    for attr in compiled.scheme.stored_attrs[len(entry.scheme.stored_attrs):]:
        decl = attr.replace(is_primary_key=False)
        steps.append(PlanItem(new_base, "step",
                              f"ALTER TABLE {quote_ident(new_base)} ADD COLUMN {render(decl)};"))
    return steps + creates


def _rebuilds_base(entry: CatalogEntry, compiled: CompiledSir) -> bool:
    """Whether the base must be rebuilt: its storage form, keys or foreign
    keys change, or its stored attributes change other than by new ones
    appended at the end."""
    old_attrs, *old_rest = _attr_signature(entry.scheme, entry.plan[0])
    new_attrs, *new_rest = _attr_signature(compiled.scheme, compiled.plan[0])
    return old_rest != new_rest or new_attrs[:len(old_attrs)] != old_attrs


def _rebuild_steps(entry, compiled, old_base, new_base, indexes) -> list[PlanItem]:
    common = [a.name for a in compiled.scheme.stored_attrs
              if entry.scheme.find_attr(a.name) is not None]
    cols = ", ".join(quote_ident(c) for c in common)
    temp = new_base if old_base.casefold() != new_base.casefold() else f"{new_base}__rebuild"
    steps = [PlanItem(temp, "step", _base_table_sql(compiled.scheme, temp))]
    if common:
        steps.append(PlanItem(temp, "step", f"INSERT INTO {quote_ident(temp)} ({cols})"
                                            f" SELECT {cols} FROM {quote_ident(old_base)};"))
    steps.append(PlanItem(old_base, "step", f"DROP TABLE {quote_ident(old_base)};"))
    if temp != new_base:
        steps.append(PlanItem(new_base, "step",
                     f"ALTER TABLE {quote_ident(temp)} RENAME TO {quote_ident(new_base)};"))
    kept = {c.casefold() for c in common}
    for name, unique, columns in indexes:
        lost = [c for c in columns if c.casefold() not in kept]
        if lost:
            raise IndexedAttributeDrop(
                f"{compiled.scheme.name}.{lost[0]} is indexed by {name};"
                f" the ALTER would leave the index without its column")
        index = n.CreateIndex(name=name, table=new_base, columns=columns, unique=unique)
        steps.append(PlanItem(name, "step", render(index)))
    return steps


def _view_diff(old_plan: list[PlanItem], new_plan: list[PlanItem]):
    """DROP VIEW steps for the old views whose SQL the new plan lacks, last
    first, and CREATE VIEW steps for the new views whose SQL the old plan
    lacks.  A view's SQL holds its name, so a view kept by name and text is
    not touched: SQLite reads a view's body, `*` included, each time a
    statement uses it, so a kept view sees a changed or rebuilt input."""
    old_sql = {item.sql for item in old_plan if item.kind == "view"}
    new_sql = {item.sql for item in new_plan if item.kind == "view"}
    drops = [PlanItem(item.name, "step", f"DROP VIEW {quote_ident(item.name)};")
             for item in reversed(old_plan) if item.kind == "view" and item.sql not in new_sql]
    creates = [PlanItem(item.name, "step", item.sql)
               for item in new_plan if item.kind == "view" and item.sql not in old_sql]
    return drops, creates


def recompile_steps(entry: CatalogEntry, compiled: CompiledSir) -> list[PlanItem]:
    """Drop and create the views of a dependent's chain whose SQL changed;
    its base and its unchanged views are untouched."""
    drops, creates = _view_diff(entry.plan, compiled.plan)
    return drops + creates


# --- drop ------------------------------------------------------------------------


def plan_drop(name: str, mode: str, catalog: Catalog,
              expect_view: bool | None = None) -> list[tuple[CatalogEntry, list]]:
    """Relations to drop, each with its DROP statements: the relation and,
    with CASCADE, its transitive dependents, in reverse dependency order."""
    from .errors import DependentsExist
    entry = catalog.get(name)
    if expect_view is True and entry.kind != "view":
        raise InvariantViolation(f"{name} is not a view; use DROP TABLE")
    if expect_view is False and entry.kind == "view":
        raise InvariantViolation(f"{name} is a view; use DROP VIEW")
    dependents = catalog.blocking_dependents(name)
    if dependents and mode != "cascade":
        raise DependentsExist(name, dependents)

    result = []
    for rel in reversed([entry.name] + catalog.transitive_dependents(name)):
        rel_entry = catalog.get(rel)
        steps = []
        for item in reversed(rel_entry.plan):
            verb = "DROP VIEW" if item.kind == "view" else "DROP TABLE"
            steps.append(PlanItem(item.name, "step", f"{verb} {quote_ident(item.name)};"))
        result.append((rel_entry, steps))
    return result


# --- index -------------------------------------------------------------------------


def compile_index(stmt: n.CreateIndex, catalog: Catalog) -> list[PlanItem]:
    """Indexes apply to the stored base only."""
    entry = catalog.get(stmt.table)
    if entry.kind == "view":
        raise InvariantViolation(f"cannot index view {entry.name}")
    table = entry.plan[0].name
    if entry.kind == "sir":
        stored = {c.casefold() for c in entry.scheme.stored_names}
        for col in stmt.columns:
            if col.casefold() not in stored:
                raise IndexOnInheritedAttribute(
                    f"{entry.name}.{col} is inherited; indexes apply to stored attributes only")
    ast = n.CreateIndex(name=stmt.name, table=table, columns=stmt.columns, unique=stmt.unique)
    return [PlanItem(stmt.name, "index", render(ast))]


# --- rewrite to base -----------------------------------------------------------------


def rewrite_to_base(ie: n.IeDecl, enclosing: str, catalog: Catalog,
                    offenders: list[str]) -> n.IeDecl:
    """Replace references that close a cycle by the referenced relation's base.

    Allowed only when the IE touches nothing but stored attributes of each
    offending relation; otherwise the base simply lacks the column.
    """
    new_ie = ie
    for offender in offenders:
        entry = catalog.get(offender)
        if entry.kind != "sir":
            raise NotRewritable(
                f"IE {ie.name}: {offender} has no stored base to rewrite to")
        stored = {c.casefold() for c in entry.scheme.stored_names}
        inherited = {c.casefold() for c in entry.inherited_names()}
        labels = {offender.casefold()}
        for sub in n.walk(new_ie):
            if isinstance(sub, n.TableName) and sub.name.casefold() == offender.casefold():
                if sub.alias:
                    labels.add(sub.alias.casefold())
        bad = []
        for ref in column_refs(new_ie):
            if ref.table is not None and ref.table.casefold() in labels:
                if ref.name.casefold() not in stored:
                    bad.append(f"{ref.table}.{ref.name}")
            elif ref.table is None and ref.name.casefold() in inherited \
                    and ref.name.casefold() not in stored:
                # unqualified and only satisfiable by the full view
                others = _other_sources_with(new_ie, ref.name, offender, catalog)
                if not others:
                    bad.append(ref.name)
        for sub in n.walk(new_ie):
            if isinstance(sub, (n.Star, n.StarMinus)):
                if isinstance(sub, n.Star) and sub.qualifier \
                        and sub.qualifier.casefold() not in labels:
                    continue
                if inherited:
                    bad.append("*")
        if bad:
            raise NotRewritable(
                f"IE {ie.name} reads inherited attributes of {offender}"
                f" ({', '.join(sorted(set(bad)))}); its base {offender}_B lacks them")
        base = entry.plan[0].name
        new_ie = substitute_relation(new_ie, offender, base)
    return new_ie


def _other_sources_with(ie: n.IeDecl, column: str, excluded: str, catalog: Catalog) -> list[str]:
    out = []
    for sub in n.walk(ie):
        if isinstance(sub, n.TableName) and sub.name.casefold() != excluded.casefold():
            cols = catalog.resolve_columns(sub.name) or []
            if column.casefold() in {c.casefold() for c in cols}:
                out.append(sub.name)
    return out
