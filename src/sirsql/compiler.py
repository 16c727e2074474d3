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
from .catalog import (SIR, STORED, Catalog, CatalogEntry, PlanItem, SirScheme, StageFacts,
                      scheme_columns, scheme_references, scheme_to_ast, type_affinity)
from .errors import (ForeignKeyAttributeDrop, IeCycle, IndexedAttributeDrop,
                     IndexOnInheritedAttribute, InvariantViolation, MissingRecursiveJoin,
                     NotRewritable, RecursiveJoinAttributeDrop, UnknownExcludedColumn,
                     UnknownIE, UnknownRelation)
from .render import quote_ident, render, render_source

AGGREGATES = {"SUM", "COUNT", "AVG", "MIN", "MAX", "TOTAL", "LIST", "GROUP_CONCAT"}


# --- the names a select uses -----------------------------------------------------


def _source_label(table: n.TableName) -> str:
    return table.alias or table.name


@dataclass(eq=False)
class Source:
    """One FROM entry of a select and the columns of what it reads."""
    table: n.TableName
    columns: list
    folded: set                 # the columns, casefold


class Sources:
    """The resolver for the names one select uses: its FROM entries by
    casefold label (alias, else name), each with the ordered columns that
    `columns_of` gives for the relation it names.  A relation that
    `columns_of` maps to None, or a star qualifier that labels no entry, is
    an `UnknownRelation`."""

    def __init__(self, tables, columns_of):
        self.tables = list(tables)          # in FROM order, as written
        self._by_label: dict[str, Source] = {}
        for table in self.tables:
            columns = columns_of(table.name)
            if columns is None:
                raise UnknownRelation(f"no relation named {table.name!r}")
            self._by_label[_source_label(table).casefold()] = Source(
                table, columns, {c.casefold() for c in columns})

    def __iter__(self):
        return iter(self._by_label.values())

    def get(self, label: str) -> Source | None:
        return self._by_label.get(label.casefold())

    def star(self, qualifier: str | None) -> list[Source]:
        """The sources a star reads: all of them, or the one its qualifier labels."""
        if qualifier is None:
            return list(self)
        source = self.get(qualifier)
        if source is None:
            raise UnknownRelation(f"star qualifier {qualifier!r} is not a source")
        return [source]

    def named_by(self, ref: n.ColumnRef) -> list[Source]:
        """The sources `ref` can name: the one its qualifier labels, or each
        one holding its unqualified name."""
        if ref.table is not None:
            source = self.get(ref.table)
            return [source] if source is not None else []
        key = ref.name.casefold()
        return [source for source in self if key in source.folded]


@dataclass
class CanonicalIE:
    name: str
    kind: str                   # 'join' | 'subquery' | 'value'
    produced_attrs: list
    # join and subquery form: the select's FROM entries
    sources: Sources = field(default_factory=lambda: Sources([], None))
    # join form
    select_items: list = field(default_factory=list)
    join_pairs: list = field(default_factory=list)     # (source_label, source_col, enclosing_col)
    residual: object = None
    # subquery form
    select: object = None
    # value form
    items: list = field(default_factory=list)          # (name, expr)


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


def expand_star_minus(item, sources: Sources) -> list[n.ColumnRef]:
    """The columns the item denotes, in catalog order, each qualified with
    the label of the source it comes from.

    A star returns the columns of every source, or of the one its qualifier
    labels; star-minus drops the excluded names and insists each one
    resolves.
    """
    if isinstance(item, n.Star):
        return [n.ColumnRef(name=col, table=_source_label(source.table))
                for source in sources.star(item.qualifier) for col in source.columns]
    excluded: set[tuple] = set()
    for ref in item.excluded:
        named = sources.named_by(ref)
        if ref.table is not None:
            if not named:
                raise UnknownExcludedColumn(
                    f"excluded column {ref.table}.{ref.name}: unknown relation {ref.table!r}")
            if ref.name.casefold() not in named[0].folded:
                raise UnknownExcludedColumn(
                    f"excluded column {ref.name!r} is not a column of {ref.table}")
        elif not named:
            raise UnknownExcludedColumn(f"excluded column {ref.name!r} not found in sources")
        excluded.update((source, ref.name.casefold()) for source in named)
    return [n.ColumnRef(name=col, table=_source_label(source.table))
            for source in sources for col in source.columns
            if (source, col.casefold()) not in excluded]


# --- canonicalization ----------------------------------------------------------


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
    if not all(isinstance(entry, n.TableName) for entry in select.from_):
        raise InvariantViolation(
            f"IE {ie.name}: explicit JOIN syntax inside an IE is not supported;"
            " write recursive predicates in WHERE")

    def columns_of(name):
        # the relation's own name reads what the previous stages expose
        if name.casefold() == scheme.name.casefold():
            return scheme.stored_names + produced_so_far
        return catalog.resolve_columns(name)

    sources = Sources(select.from_, columns_of)
    if len(select.items) == 1 and not isinstance(select.items[0].expr, (n.Star, n.StarMinus)) \
            and contains_aggregate(select.items[0].expr):
        produced = [select.items[0].alias or ie.name]
        return CanonicalIE(name=ie.name, kind="subquery", produced_attrs=produced,
                           sources=sources, select=select)

    def owner(ref: n.ColumnRef) -> str | None:
        named = sources.named_by(ref)
        return _source_label(named[0].table) if len(named) == 1 else None

    join_pairs, residual = [], []
    for pred in conjuncts(select.where):
        pair, test = None, pred
        while isinstance(test, n.Paren):    # a residual keeps its parentheses
            test = test.inner
        if isinstance(test, n.Binary) and test.op == "=" \
                and isinstance(test.left, n.ColumnRef) and isinstance(test.right, n.ColumnRef):
            left, right = test.left, test.right
            for encl, other in ((left, right), (right, left)):
                if encl.table and encl.table.casefold() == scheme.name.casefold() \
                        and sources.get(encl.table) is None:
                    source = owner(other)
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
            for ref in expand_star_minus(item.expr, sources):
                select_items.append(n.SelectItem(expr=ref))
                produced.append(ref.name)
            continue
        expr = item.expr
        if isinstance(expr, n.ColumnRef):
            name = item.alias or expr.name
            if expr.table is None and (label := owner(expr)) is not None:
                expr = n.ColumnRef(name=expr.name, table=label)
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


def order_ies(scheme: SirScheme, canon: list[CanonicalIE]) -> list[CanonicalIE]:
    """Topological evaluation order: an IE reading another's output runs later.

    Ties keep declaration order.  References counted are column names that
    no source of the IE other than the relation itself holds, plus anything
    qualified with the relation's own name.
    """
    own = scheme.name.casefold()
    produced_by = {}
    for cie in canon:
        for attr in cie.produced_attrs:
            produced_by[attr.casefold()] = cie.name

    def external_refs(cie: CanonicalIE):
        if cie.kind == "value":
            exprs = [expr for _, expr in cie.items]
        elif cie.kind == "subquery":
            exprs = [cie.select]
        else:
            exprs = [i.expr for i in cie.select_items] + ([cie.residual] if cie.residual else [])
        refs = set()
        for expr in exprs:
            for ref in column_refs(expr):
                if ref.table is not None:
                    if ref.table.casefold() == own:
                        refs.add(ref.name.casefold())
                elif all(source.table.name.casefold() == own
                         for source in cie.sources.named_by(ref)):
                    refs.add(ref.name.casefold())
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
        pair_by_label: dict[str, list] = {}
        for label, src_col, encl_col in cie.join_pairs:
            pair_by_label.setdefault(label.casefold(), []).append((src_col, encl_col))
        residual = substitute_relation(cie.residual, scheme_name, prev) \
            if cie.residual is not None else None
        for pos, table in enumerate(cie.sources.tables):
            label = _source_label(table)
            preds = []
            for src_col, encl_col in pair_by_label.get(label.casefold(), []):
                preds.append(n.Binary(
                    op="=",
                    left=n.ColumnRef(name=encl_col, table=prev),
                    right=n.ColumnRef(name=src_col, table=label)))
            if pos == len(cie.sources.tables) - 1 and residual is not None:
                preds.append(residual)
            on = conjoin(preds) or n.Binary(op="=", left=n.Literal(text="1", kind="number"),
                                            right=n.Literal(text="1", kind="number"))
            source = substitute_relation(table, scheme_name, prev)
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
        for table in cie.sources.tables:
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
    `name`: the relation itself when it has no IEs, or its base ``R_B``.

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


def compile_sir(scheme: SirScheme, catalog: Catalog, base: PlanItem | None = None) -> CatalogEntry:
    """The catalog entry of one relation: its kernel plan, a base table (or
    `base`, kept) plus the view chain that `compile_chain` builds, and the
    parts the scheme alone fixes, the references and the source text.  With
    zero IEs the plan is a single plain CREATE TABLE under its own name."""
    catalog.validate_scheme(scheme)
    base_name = f"{scheme.name}_B" if scheme.ies else scheme.name
    return compile_chain(CatalogEntry(
        name=scheme.name, kind=SIR if scheme.ies else STORED, scheme=scheme, columns=[],
        plan=[base or PlanItem(base_name, "table", _base_table_sql(scheme, base_name))],
        references=scheme_references(scheme),
        source_text=render_source(scheme_to_ast(scheme))), catalog)


def compile_chain(entry: CatalogEntry, catalog: Catalog) -> CatalogEntry:
    """A new entry: `entry` with its view chain, columns and IE order compiled
    from its scheme against `catalog`.  Its base item (`plan[0]`), references
    and source text are kept: the scheme alone fixes them, so an ALTER
    cascade recompiles a star dependent, whose scheme it does not change,
    through this alone.

    The chain has one view per IE, in evaluation order; the last carries
    the relation's name, unless evaluation order differs from declared
    order, when one more view restores the declared column order.
    """
    scheme = entry.scheme
    canon = canonicalize_all(scheme, catalog)
    ordered = order_ies(scheme, canon)

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

    stages = [_stage_facts(cie) for cie in ordered]
    columns = scheme_columns(scheme, stages)
    chain_cols = scheme.stored_names + [attr for stage in stages for attr in stage.adds]
    in_declared_order = [c.casefold() for c in chain_cols] == [c.name.casefold() for c in columns]

    items = [entry.plan[0]]

    def add_view(name: str, select: n.Select, stage: StageFacts):
        items.append(PlanItem(name, "view",
                              render(n.CreateView(name=name, select=select)), stage))

    prev = entry.plan[0].name
    for pos, (cie, stage) in enumerate(zip(ordered, stages), start=1):
        last = pos == len(ordered) and in_declared_order
        stage_name = scheme.name if last else f"{scheme.name}_{pos}"
        add_view(stage_name, _stage_select(cie, prev, scheme.name), stage)
        prev = stage_name

    if not in_declared_order:
        reorder = n.Select(items=[n.SelectItem(expr=n.ColumnRef(name=c.name)) for c in columns],
                           from_=[n.TableName(name=prev)])
        add_view(scheme.name, reorder, StageFacts(kind="reorder", ies=[], adds=[]))

    return CatalogEntry(name=entry.name, kind=entry.kind, scheme=scheme, columns=columns,
                        plan=items, references=entry.references,
                        ie_order=[c.name for c in ordered], source_text=entry.source_text)


# --- alter ---------------------------------------------------------------------


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
    """An attribute serving a recursive join in any of the relation's own IEs,
    or named by one of its foreign keys, cannot be dropped."""
    for ie in scheme.ies:
        for ref in column_refs(ie):
            if ref.table and ref.table.casefold() == scheme.name.casefold() \
                    and ref.name.casefold() == attr.casefold():
                raise RecursiveJoinAttributeDrop(
                    f"{scheme.name}.{attr} serves a recursive join in IE {ie.name}")
    for fk in scheme.foreign_keys:
        if any(c.casefold() == attr.casefold() for c in fk.columns):
            raise ForeignKeyAttributeDrop(
                f"{scheme.name}.{attr} is named by its foreign key"
                f" referencing {fk.ref_table}")


# Rows per kernel object under which a base is rebuilt, not extended: a rebuild
# copies each row twice, about 1 µs a row, and after ADD COLUMN SQLite reloads
# its whole schema, about 7 µs an object (SQLite 3.40)
REBUILD_ROWS_PER_OBJECT = 7


def base_size_probe(base: str) -> str:
    """One row: the base's rows, counted no further than the bound under
    which `alter_steps` rebuilds it rather than extend it; that bound; and
    the indexes that CREATE INDEX made on the base.  A rebuild also fills
    those indexes, so the bound is the rows per kernel object over one more
    than them.  The probe reads ``sqlite_master`` once: SQLite (3.35 on)
    materializes a CTE that is read twice; an older one reads it twice."""
    name = base.replace("'", "''")
    indexes = (f"sum(type = 'index' AND tbl_name = '{name}' COLLATE NOCASE"
               " AND sql IS NOT NULL)")
    return (f"WITH m (bound, indexes) AS (SELECT {REBUILD_ROWS_PER_OBJECT} * objects"
            f" / (1 + indexes), indexes FROM (SELECT count(*) AS objects, {indexes} AS indexes"
            f" FROM sqlite_master)) SELECT (SELECT count(*) FROM (SELECT 1 FROM {quote_ident(base)}"
            " LIMIT (SELECT bound FROM m))), bound, indexes FROM m")


def alter_steps(entry: CatalogEntry, compiled: CatalogEntry,
                read_indexes=lambda: (), size: tuple | None = None) -> list[PlanItem]:
    """Maintenance DDL turning the entry's current kernel objects into the
    newly compiled ones.  Only views whose SQL changed, or that are new or
    gone, are dropped or created (see `_view_diff`); the base table is
    extended in place by ``ADD COLUMN``, or rebuilt (see `_rebuild_steps`)
    where `_rebuilds_base` says so or where `size`, the row that
    `base_size_probe` read, puts it under its bound, so stored data
    survives.  A base that `size` counts empty is created again without
    copying rows.  A rebuild re-creates the old base's indexes: only a
    rebuild calls `read_indexes`, which lists them as
    `KernelConnection.indexes` does, and not when `size` counts none."""
    steps, creates = _view_diff(entry.plan, compiled.plan)
    rows, bound, indexes = size or (None, None, None)
    if rows is not None and rows < bound or _rebuilds_base(entry, compiled):
        kept = read_indexes() if indexes != 0 else ()
        return steps + _rebuild_steps(entry, compiled, kept, rows == 0) + creates
    base = entry.plan[0].name
    for attr in compiled.scheme.stored_attrs[len(entry.scheme.stored_attrs):]:
        decl = attr.replace(is_primary_key=False)
        steps.append(PlanItem(base, "step",
                              f"ALTER TABLE {quote_ident(base)} ADD COLUMN {render(decl)};"))
    return steps + creates


def _rebuilds_base(entry: CatalogEntry, compiled: CatalogEntry) -> bool:
    """Whether the base must be rebuilt whatever its rows: its name or
    storage form changes, its stored attributes change other than by
    appending, or the kernel's text of it is not the compiler's for them and
    the new keys (an earlier release's rowid table or quoted name).  SQLite's
    ``ADD COLUMN`` edit of the compiler's text is the compiled text."""
    base, new, scheme = entry.plan[0], compiled.plan[0], compiled.scheme
    attrs = entry.scheme.stored_attrs
    kept = SirScheme(scheme.name, attrs, scheme.keys, scheme.foreign_keys)
    return scheme.stored_attrs[:len(attrs)] != attrs \
        or base.name.casefold() != new.name.casefold() \
        or base.sql.endswith(_CLUSTERED) != new.sql.endswith(_CLUSTERED) \
        or base.sql != _base_table_sql(kept, base.name)


def _rebuild_steps(entry, compiled, indexes, empty: bool = False) -> list[PlanItem]:
    """Re-create the base from its compiled CREATE TABLE, with the rows of
    the columns it keeps and the old base's indexes.  An `empty` base is
    dropped and created.  A base that changes name (``T`` to ``T_B`` on a
    first IE, and back) is filled from the old one, which is then dropped;
    one that keeps its name goes through the scratch table ``sir_rebuild``
    (the ``sir_`` prefix is reserved).  No step renames a table: a rename
    makes SQLite re-check the whole schema."""
    old, new = entry.plan[0].name, compiled.plan[0].name
    common = [a.name for a in compiled.scheme.stored_attrs
              if entry.scheme.find_attr(a.name) is not None]
    cols = ", ".join(quote_ident(c) for c in common)
    fill = f"INSERT INTO {quote_ident(new)} ({cols}) SELECT {cols} FROM"
    drop = f"DROP TABLE {quote_ident(old)};"
    if empty:
        sql = [drop, compiled.plan[0].sql]
    elif old.casefold() != new.casefold():
        sql = [compiled.plan[0].sql, f"{fill} {quote_ident(old)};", drop]
    else:
        sql = [f"CREATE TABLE sir_rebuild AS SELECT {cols} FROM {quote_ident(old)};", drop,
               compiled.plan[0].sql, f"{fill} sir_rebuild;", "DROP TABLE sir_rebuild;"]
    steps = [PlanItem(new, "step", text) for text in sql]
    kept = {c.casefold() for c in common}
    for name, unique, columns in indexes:
        lost = [c for c in columns if c.casefold() not in kept]
        if lost:
            raise IndexedAttributeDrop(
                f"{compiled.scheme.name}.{lost[0]} is indexed by {name};"
                f" the ALTER would leave the index without its column")
        index = n.CreateIndex(name=name, table=new, columns=columns, unique=unique)
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


def recompile_steps(entry: CatalogEntry, compiled: CatalogEntry) -> list[PlanItem]:
    """Drop and create the views of a dependent's chain whose SQL changed;
    its base and its unchanged views are untouched."""
    drops, creates = _view_diff(entry.plan, compiled.plan)
    return drops + creates


# --- drop ------------------------------------------------------------------------


def plan_drop(name: str, mode: str, catalog: Catalog,
              expect_view: bool) -> list[tuple[CatalogEntry, list]]:
    """Relations to drop, each with its DROP statements: the relation and,
    with CASCADE, its transitive dependents, in reverse dependency order.
    `expect_view` says whether the statement was DROP VIEW."""
    from .errors import DependentsExist
    entry = catalog.get(name)
    if expect_view != (entry.kind == "view"):
        raise InvariantViolation(f"{name} is not a view; use DROP TABLE" if expect_view
                                 else f"{name} is a view; use DROP VIEW")
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
        # every FROM entry of the IE, nested selects included; the enclosing
        # relation, not yet in the catalog when created, holds no column
        sources = Sources([sub for sub in n.walk(new_ie) if isinstance(sub, n.TableName)],
                          lambda name: catalog.resolve_columns(name) or [])

        def offends(source: Source) -> bool:
            return source.table.name.casefold() == offender.casefold()

        bad = []
        for ref in column_refs(new_ie):
            named = sources.named_by(ref)
            if ref.table is not None:
                if any(map(offends, named)) and ref.name.casefold() not in stored:
                    bad.append(f"{ref.table}.{ref.name}")
            elif ref.name.casefold() in inherited and ref.name.casefold() not in stored \
                    and all(map(offends, named)):
                # unqualified and only satisfiable by the full view
                bad.append(ref.name)
        if inherited and any(
                isinstance(sub, n.StarMinus) or isinstance(sub, n.Star)
                and (sub.qualifier is None or any(map(offends, sources.star(sub.qualifier))))
                for sub in n.walk(new_ie)):
            bad.append("*")
        if bad:
            raise NotRewritable(
                f"IE {ie.name} reads inherited attributes of {offender}"
                f" ({', '.join(sorted(set(bad)))}); its base {offender}_B lacks them")
        base = entry.plan[0].name
        new_ie = substitute_relation(new_ie, offender, base)
    return new_ie
