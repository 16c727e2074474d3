"""Relation catalog: schemes, dependency graph, and meta-table persistence.

The catalog mirrors, in memory, one meta-table kept inside the kernel
database (reserved prefix ``sir_``), one row per relation:

    sir_relations(name, kind, created_at, source_text, plan)

`plan` is a JSON object: "plan" lists [name, kind] per kernel object
(the view stages of a relation with IEs add their `StageFacts`), and
"references" the relations the entry reads.  A view's "columns" lists
[name, sql_type, is_key, is_inherited, ie_name] per column.  A table records
neither its columns, which `scheme_columns` derives from the scheme in the
source text and the stage facts, nor its IE order, the stages' IEs in order.
It holds no SQL: the load reads each object's text from `sqlite_master`.
Extra "columns" and "ie_order" keys, which earlier releases wrote, are
ignored; a row in any other earlier form is `outdated` (see `_LoadedEntry`),
and the session upgrades it at open (`SirLayer._upgrade`).

A session reads the meta-table once, at open (`Catalog.load`), and builds
a relation's scheme, plan and columns only when a statement first reads
them (`_LoadedEntry`).  From the catalog of the process's latest open or
committed DDL, while alive, it takes over each entry, loaded or compiled,
that stands for an identical row whose objects keep their texts, as built
so far; it decodes and checks every other row.

Meta rows are written inside the same kernel transaction as the DDL they
describe; the in-memory mirror is updated only after the commit, so any
failure leaves both the kernel and the catalog unchanged.  Every DDL also
bumps the kernel's `PRAGMA user_version` in its transaction, and the
catalog records that version as it was read, so a DDL can tell whether
another session's DDL committed since.

A catalog over a file also records SQLite's schema cookie (`PRAGMA
schema_version`), which any connection's schema change moves: at that
cookie each entry's kernel objects had exactly its plan's texts.  A load
reads it with the DDL version; a DDL of the session reads it again before
its commit, and records none when the cookie had moved outside sirsql since
the catalog's.  A later open that reads the same file, DDL version and
cookie as its donor's needs no kernel text to take the donor's entries.

Concurrency: a catalog belongs to one session and is used only by the
thread that opened the session's KernelConnection.  A thread that needs
the catalog opens its own session over its own connection.  Entries are
shared, though: between a catalog and the scratch copy an ALTER compiles
against (`Catalog.copy`), and between the catalogs of sessions that read
or wrote the same rows, whatever their threads.  No code changes an entry
that a session's catalog holds; a DDL enters a new entry in its place.  A
loaded entry builds each part from its own row and kernel texts alone, so
two threads that first read a part at once both get that part's value.
"""

from __future__ import annotations

import datetime
import json
import os
import re
import weakref
from dataclasses import MISSING, astuple, dataclass, field, fields
from functools import cached_property

from . import nodes as n
from .errors import (CircularReferenceError, CorruptCatalog, DuplicateName,
                     InvariantViolation, NameCollision, UnknownRelation)
from .parser import parse_one

_BASE_SUFFIX = re.compile(r"_B$", re.IGNORECASE)
_STAGE_PATTERN = re.compile(r"^(.+)_(\d+)$")

STORED, VIEW, SIR = "stored", "view", "sir"


@dataclass
class SirScheme:
    """A relation definition: ordered stored attributes and IEs plus keys."""

    name: str
    elements: list                      # AttributeDecl | IeDecl, declared order
    keys: list = field(default_factory=list)          # list of column-name lists, primary first
    foreign_keys: list = field(default_factory=list)  # ForeignKeyClause

    @property
    def stored_attrs(self) -> list[n.AttributeDecl]:
        return [e for e in self.elements if isinstance(e, n.AttributeDecl)]

    @property
    def ies(self) -> list[n.IeDecl]:
        return [e for e in self.elements if isinstance(e, n.IeDecl)]

    @property
    def stored_names(self) -> list[str]:
        return [a.name for a in self.stored_attrs]

    def primary_key(self) -> list[str]:
        return self.keys[0] if self.keys else []

    def find_ie(self, name: str) -> n.IeDecl | None:
        for ie in self.ies:
            if ie.name.casefold() == name.casefold():
                return ie
        return None

    def find_attr(self, name: str) -> n.AttributeDecl | None:
        for attr in self.stored_attrs:
            if attr.name.casefold() == name.casefold():
                return attr
        return None


def scheme_from_ast(stmt: n.CreateSirTable) -> SirScheme:
    """The scheme a CREATE TABLE declares.  Its primary key (an inline
    marker before a PRIMARY KEY clause) comes first; a key equal to one
    already listed is skipped."""
    elements, keys, fks = [], [], []
    inline_pk = [e.name for e in stmt.elements
                 if isinstance(e, n.AttributeDecl) and e.is_primary_key]
    for element in stmt.elements:
        if isinstance(element, n.PrimaryKeyClause):
            keys.insert(0, list(element.columns))
        elif isinstance(element, n.UniqueClause):
            keys.append(list(element.columns))
        elif isinstance(element, n.ForeignKeyClause):
            fks.append(element)
        else:
            elements.append(element)
    if inline_pk:
        keys.insert(0, inline_pk)
    keys = [key for pos, key in enumerate(keys) if key not in keys[:pos]]
    return SirScheme(name=stmt.name, elements=elements, keys=keys, foreign_keys=fks)


def scheme_to_ast(scheme: SirScheme) -> n.CreateSirTable:
    """The CREATE TABLE of a scheme: its elements, each attribute without
    an inline PRIMARY KEY marker, then its keys as clauses and its foreign
    keys.  It writes every key clause the kernel and the source text hold."""
    elements = [e.replace(is_primary_key=False) if isinstance(e, n.AttributeDecl)
                and e.is_primary_key else e for e in scheme.elements]
    if scheme.keys:
        elements.append(n.PrimaryKeyClause(columns=list(scheme.keys[0])))
        for extra in scheme.keys[1:]:
            elements.append(n.UniqueClause(columns=list(extra)))
    elements.extend(scheme.foreign_keys)
    return n.CreateSirTable(name=scheme.name, elements=elements)


@dataclass
class ColumnInfo:
    name: str
    sql_type: str | None
    is_key: bool
    is_inherited: bool
    ie_name: str | None


@dataclass
class StageFacts:
    """What the compiler knows about one view stage of a relation's chain.

    kind is the canonical form of the IEs the stage realizes ('join',
    'subquery', 'value') or 'reorder' for the view that only restores the
    declared column order.  For join stages, `joins` lists each joined
    source as [relation, [[source column, enclosing column], ...]], the
    recursive-join pairs matched against that source.  The compiler writes
    one IE per stage; `ies` stays a list, the form the meta rows record.
    """

    kind: str
    ies: list                   # IE names realized, in evaluation order
    adds: list                  # columns the stage adds to its input
    joins: list = field(default_factory=list)


@dataclass
class PlanItem:
    name: str
    kind: str       # 'table' | 'view'
    sql: str        # the CREATE text, as the kernel holds it, plus ';'
    stage: StageFacts | None = None   # view stages of a relation with IEs


def _document(entry) -> str:
    """The JSON stored in an entry's `sir_relations.plan` field.  A stage's
    facts are its fields in declaration order (`vars`, no copy)."""
    document = {"plan": [[i.name, i.kind, vars(i.stage)] if i.stage else [i.name, i.kind]
                         for i in entry.plan],
                "references": entry.references}
    if entry.kind == VIEW:
        document["columns"] = [[c.name, c.sql_type, c.is_key, c.is_inherited, c.ie_name]
                               for c in entry.columns]
    return json.dumps(document)


def scheme_columns(scheme: SirScheme, stages: list[StageFacts]) -> list[ColumnInfo]:
    """A relation's columns in declared order, from its scheme and the facts
    of its view stages: each stored attribute, with its type and key flag,
    and what each IE adds: a value IE its items, any other IE what its stage
    adds.  Raises InvariantViolation for a name produced twice."""
    adds = {stage.ies[0].casefold(): stage.adds for stage in stages if len(stage.ies) == 1}
    key = {c.casefold() for c in scheme.primary_key()}
    columns, seen = [], set()
    for element in scheme.elements:
        if isinstance(element, n.AttributeDecl):
            columns.append(ColumnInfo(element.name, element.sql_type,
                                      element.name.casefold() in key, False, None))
        else:
            names = [name for name, _ in element.form.items] \
                if isinstance(element.form, n.ValueForm) else adds[element.name.casefold()]
            columns.extend(ColumnInfo(name, None, False, True, element.name) for name in names)
    for col in columns:
        if col.name.casefold() in seen:
            raise InvariantViolation(
                f"{scheme.name}: attribute name {col.name!r} produced more than once")
        seen.add(col.name.casefold())
    return columns


# the fields a plan row's stage facts may hold, and those it must hold
_STAGE_FIELDS = {f.name for f in fields(StageFacts)}
_STAGE_NEEDS = {f.name for f in fields(StageFacts) if f.default_factory is MISSING}


def _plan_row(raw) -> tuple:
    """The name, kind and stage facts (or None) of a plan row; raises
    ValueError for a row of another shape, or stage facts with fields other
    than a stage's."""
    if len(raw) == 2:
        name, kind = raw
        return name, kind, None
    if len(raw) != 3 or not (isinstance(raw[2], dict)
                             and _STAGE_NEEDS <= raw[2].keys() <= _STAGE_FIELDS):
        raise ValueError(f"plan row for {raw[0]!r} is not [name, kind] plus stage facts")
    return tuple(raw)


class _KernelText(dict):
    """The text of each kernel object (`sqlite_master.sql`) by its name as
    the kernel spells it.  A name spelled otherwise is looked up casefolded,
    in a map built on the first such miss; None if the kernel lacks it."""

    _folded = None

    def __missing__(self, name: str) -> str | None:
        if self._folded is None:
            self._folded = {key.casefold(): sql for key, sql in self.items()}
        return self._folded.get(name.casefold())


@dataclass
class PrefixChain:
    """How a query may read a relation through a prefix of its view chain.

    The prefix ending at stage k is `plan[k]` of the relation's entry (0 the
    base), holding the stored attributes plus what stages 1..k add.  Every
    stage after `floor` provably keeps card(R_B), so any prefix ending at or
    after `floor` has the full view's rows; with a floor of 0 the relation
    keeps card(R_B) (`Catalog.keeps_card`).
    """

    stage_of: dict              # casefold column -> index of the stage producing it
    floor: int


def type_affinity(sql_type: str | None) -> str:
    """SQLite's column affinity for a declared type name (datatype3 §3.1)."""
    name = (sql_type or "").upper()
    if "INT" in name:
        return "INTEGER"
    if "CHAR" in name or "CLOB" in name or "TEXT" in name:
        return "TEXT"
    if not name or "BLOB" in name:
        return "BLOB"
    if "REAL" in name or "FLOA" in name or "DOUB" in name:
        return "REAL"
    return "NUMERIC"


@dataclass
class CatalogEntry:
    name: str
    kind: str                            # stored | view | sir
    scheme: SirScheme | None             # None for a view
    columns: list                        # ColumnInfo, full declared order
    plan: list = field(default_factory=list)          # PlanItem; definitional DDL
    references: list = field(default_factory=list)    # relation names this entry reads
    source_text: str = ""
    outdated = False        # its meta row is an earlier release's (see `_LoadedEntry`)
    _meta_row, _objects, _texts = None, (), ()      # the row it stands for (see `holds`)

    @property
    def kernel_objects(self) -> list[str]:
        return [item.name for item in self.plan]

    @property
    def views(self) -> list[PlanItem]:
        return [item for item in self.plan if item.kind == "view"]

    @property
    def ie_order(self) -> list[str]:
        """The IE names in evaluation order: those its view stages realize, in
        chain order (none for a table, a user view or an outdated row)."""
        return [ie for item in self.plan if item.stage for ie in item.stage.ies]

    def ie_stage(self, ie_name: str) -> tuple[int, StageFacts] | None:
        """1-based position and facts of the view stage realizing an IE."""
        key = ie_name.casefold()
        for pos, item in enumerate(self.views, start=1):
            if key in {i.casefold() for i in item.stage.ies}:
                return pos, item.stage
        return None

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def inherited_names(self) -> list[str]:
        return [c.name for c in self.columns if c.is_inherited]

    def record(self, row: tuple):
        """Record `row`, the meta row that a committed DDL wrote for this new
        entry, and its plan's texts, which are the kernel's own (without ';'):
        the schema cookie that DDL's catalog then records vouches for them."""
        self._meta_row, self._objects = row, self.kernel_objects
        self._texts = [item.sql.removesuffix(";") for item in self.plan]

    def holds(self, row: tuple, kernel: _KernelText | None) -> bool:
        """Whether this entry is what `row` and `kernel` would load: it stands
        for `row` (loaded from it, or `record`ed) and its objects keep their
        texts.  With no `kernel`, an unmoved schema cookie vouches for the
        texts, and only the row is compared."""
        return row == self._meta_row and (
            kernel is None or self._texts == list(map(kernel.__getitem__, self._objects)))


class _LoadedEntry(CatalogEntry):
    """An entry as `Catalog.load` read it from its meta row.  Its scheme,
    plan and columns are built the first time each is read, and
    kept; a build that raises keeps nothing, so every read raises.  A view's
    columns are read from the row, a table's derived (`scheme_columns`).

    It keeps its meta row and the kernel's text of each of its objects,
    which is all that it is built from, and not the rest of the session's
    `sqlite_master`.  So `holds` can tell whether a later open's row and
    kernel would build the same entry, and that open takes this one as it
    is, with the parts already built (`Catalog.load`).

    A row is `outdated` when an earlier release wrote it: a plan list alone
    (the four-table format), a plan row holding its object's SQL third, or a
    view stage of a relation with IEs without stage facts.  Only its kernel
    objects are read from it, for `SirLayer._upgrade` to compile it again."""

    def __init__(self, row: tuple, kernel: _KernelText):
        name, kind, source_text, stored = row
        self.name, self.kind, self.source_text, self._meta_row = name, kind, source_text, row
        document = json.loads(stored)
        rows = document if isinstance(document, list) else document["plan"]
        # such a release wrote every row [name, kind, sql], maybe with stage facts
        old = isinstance(document, list) or len(rows[0]) > 2 and isinstance(rows[0][2], str)
        self._rows = [_plan_row(raw[:2] if old and len(raw) <= 4 else raw) for raw in rows]
        self._objects = [obj for obj, _, _ in self._rows]
        self._texts = list(map(kernel.__getitem__, self._objects))    # each object's text
        if None in self._texts:
            raise CorruptCatalog(f"{name}: kernel object {self._objects[self._texts.index(None)]!r}"
                                 " recorded in the catalog is missing")
        self.outdated = old or kind == SIR and any(
            facts is None for _, obj_kind, facts in self._rows if obj_kind == "view")
        self.references = [] if self.outdated else document["references"]
        if kind not in (STORED, SIR):
            self.scheme = None
            self._columns = [] if self.outdated else document["columns"]
            if not set(map(len, self._columns)) <= {5}:
                raise ValueError("a column row does not hold 5 fields")

    def statement(self, node_type=n.CreateSirTable, what="table"):
        """The statement in the source text, a `node_type`; raises CorruptCatalog."""
        try:
            stmt = parse_one(self.source_text)
        except Exception as exc:
            raise CorruptCatalog(f"{self.name}: unparseable source text: {exc}") from exc
        if not isinstance(stmt, node_type):
            raise CorruptCatalog(f"{self.name}: source text is not a {what} definition")
        return stmt

    @cached_property
    def scheme(self) -> SirScheme:
        """The scheme in the source text; raises CorruptCatalog."""
        return scheme_from_ast(self.statement())

    @cached_property
    def plan(self) -> list[PlanItem]:
        """The plan rows, each with the kernel's text of its object."""
        return [PlanItem(name, kind, sql + ";", StageFacts(**facts) if facts is not None else None)
                for (name, kind, facts), sql in zip(self._rows, self._texts)]

    @cached_property
    def columns(self) -> list[ColumnInfo]:
        """A view's columns as its row records them, or a table's in declared
        order once its stages' IEs are checked against the declared ones;
        raises CorruptCatalog."""
        if self.scheme is None:
            return [ColumnInfo(col, sql_type, bool(key), bool(inherited), ie)
                    for col, sql_type, key, inherited, ie in self._columns]
        if {i.casefold() for i in self.ie_order} != {ie.name.casefold() for ie in self.scheme.ies}:
            raise CorruptCatalog(f"{self.name}: recorded IEs do not match the declared IEs")
        return scheme_columns(self.scheme, [item.stage for item in self.views])


# a weak reference to the donor of the next `Catalog.load` (`serve_next_open`)
_latest_load = None


def referenced_relations(node) -> list[str]:
    """Relation names read by a select or expression, in first-use order."""
    seen, out = set(), []
    for sub in n.walk(node):
        if isinstance(sub, n.TableName):
            key = sub.name.casefold()
            if key not in seen:
                seen.add(key)
                out.append(sub.name)
    return out


def ie_references(ie: n.IeDecl, enclosing: str) -> list[str]:
    """Relations an IE inherits from, excluding self-inheritance."""
    refs = []
    if isinstance(ie.form, n.SelectForm):
        refs = referenced_relations(ie.form.select)
    else:
        for _, expr in ie.form.items:
            refs.extend(referenced_relations(expr))
    out, seen = [], set()
    for ref in refs:
        key = ref.casefold()
        if key == enclosing.casefold() or key in seen:
            continue
        seen.add(key)
        out.append(ref)
    return out


def scheme_references(scheme: SirScheme) -> list[str]:
    """What a scheme's IEs read, each once, in first-use order: the
    references of its entry."""
    refs = {}
    for ref in (ref for ie in scheme.ies for ref in ie_references(ie, scheme.name)):
        refs.setdefault(ref.casefold(), ref)
    return list(refs.values())


def depth_first(start, successors) -> tuple[list, list | None]:
    """Walk a graph depth first from `start`, visiting the nodes that
    `successors(node)` yields in the order it yields them, on an explicit
    stack, so a long chain needs no recursion.  Return the postorder of the
    nodes reached (`start` last) and the first cycle met: the stack from
    the target of the first back edge to the node that closed it, or None."""
    postorder, cycle = [], None
    stack, on_stack = [(start, iter(successors(start)))], {start: True}    # node -> on the stack
    while stack:
        node, pending = stack[-1]
        succ = next(pending, None)
        if succ is None:
            stack.pop()
            on_stack[node] = False
            postorder.append(node)
        elif succ not in on_stack:
            on_stack[succ] = True
            stack.append((succ, iter(successors(succ))))
        elif on_stack[succ] and cycle is None:
            path = [key for key, _ in stack]
            cycle = path[path.index(succ):]
    return postorder, cycle


class Catalog:
    """In-memory mirror of the meta-tables, plus the dependency graph."""

    def __init__(self):
        # casefold name -> entry, in registration order (an entry entered again
        # under its name keeps its place)
        self._entries: dict[str, CatalogEntry] = {}
        # casefold generated object -> its entry and its index in the entry's
        # plan: 0 the base R_B, k the view of stage k (`_register`)
        self._owners: dict[str, tuple[CatalogEntry, int]] = {}
        # what is built from the current entries; dropped on attach/detach
        self._keeps_card: dict[str, bool] = {}
        self._chains: dict[str, PrefixChain | None] = {}
        self._readers: dict[str, dict[str, None]] | None = None     # see _reverse
        # the kernel holds the meta-table: the load saw it, or a DDL of this
        # session committed it; `ensure_meta` then sends nothing
        self.meta_ready = False
        # the kernel's DDL version that the entries reflect (see SirLayer._apply)
        self.version = 0
        # the absolute path of the file the entries were read from or written
        # to, and SQLite's schema cookie at which each entry's kernel objects
        # had exactly its plan's texts; None when unknown, as for a database
        # without a file
        self.location, self.cookie = None, None

    # --- lookups ---

    def __contains__(self, name: str) -> bool:
        return name.casefold() in self._entries

    def get(self, name: str) -> CatalogEntry:
        entry = self._entries.get(name.casefold())
        if entry is None:
            raise UnknownRelation(f"no relation named {name!r}")
        return entry

    def entries(self) -> list[CatalogEntry]:
        return list(self._entries.values())

    def owner_of_object(self, name: str) -> CatalogEntry | None:
        """Entry whose kernel plan produced the named object, if any; a
        relation's own name maps to nothing."""
        owned = self._owners.get(name.casefold())
        return owned[0] if owned else None

    def resolve_columns(self, name: str) -> list[str] | None:
        """Columns of a registered relation or of a generated kernel object:
        the object at index k of its owner's plan holds the stored attributes
        plus what stages 1..k add (none for the base)."""
        key = name.casefold()
        if key in self._entries:
            return self._entries[key].column_names
        owner, index = self._owners.get(key, (None, 0))
        if owner is None or owner.scheme is None:
            return None
        return owner.scheme.stored_names + [
            c for item in owner.plan[1:index + 1] for c in item.stage.adds]

    # --- cardinality proofs ---

    def keeps_card(self, name: str) -> bool:
        """Whether relation `name` provably has exactly one row per row of its
        stored base.  A stored relation or a generated base always does, a
        user view never does, a relation with IEs does when every stage of
        its chain does.  Memoised until the next attach or detach.

        One `depth_first` walk over the join sources not yet proved marks
        each relation it reaches False, then proves them in postorder, so a
        source is proved before what joins it and a source still on the walk's
        stack (a cycle) proves nothing."""
        key = name.casefold()
        if key not in self._keeps_card:
            postorder, _ = depth_first(key, lambda node: [
                s for s in self._card_sources(node) if s not in self._keeps_card])
            self._keeps_card.update(dict.fromkeys(postorder, False))
            for node in postorder:
                self._keeps_card[node] = self._card_rule(node)
        return self._keeps_card[key]

    def _card_sources(self, key: str) -> list[str]:
        """The relations joined by the recorded stages of `key`, itself excepted."""
        entry = self._entries.get(key)
        if entry is None or entry.kind != SIR:
            return []
        return [source.casefold() for item in entry.views if item.stage.kind == "join"
                for source, _ in item.stage.joins if source.casefold() != key]

    def _card_rule(self, key: str) -> bool:
        """`keeps_card` of `key` once its join sources are proved: true for a
        stored relation and a generated base (index 0 of its owner's plan),
        and for a relation with IEs whose `prefix_chain` has floor 0."""
        entry = self._entries.get(key)
        if entry is None:
            return key in self._owners and self._owners[key][1] == 0
        if entry.kind == STORED:
            return True
        return entry.kind == SIR and self.prefix_chain(key).floor == 0

    def stage_keeps_card(self, entry: CatalogEntry, stage: StageFacts) -> bool:
        """Whether a view stage of `entry` provably keeps its input's row count.

        Value, subquery and reorder stages always do.  A join stage does when
        each joined source keeps its own card and the stage's recursive-join
        pairs cover a declared key of that source, counting only pairs that
        join two stored attributes of the same type affinity (an Int column
        compared with a Char key holding '01' and '1' matches both).
        """
        if stage.kind != "join":
            return True
        for source, pairs in stage.joins:
            if source.casefold() == entry.name.casefold() or not self.keeps_card(source):
                return False
            scheme = self._scheme_of(source)
            matched = set()
            for src_col, encl_col in pairs:
                src_attr = scheme.find_attr(src_col)
                encl_attr = entry.scheme.find_attr(encl_col)
                if src_attr is not None and encl_attr is not None \
                        and type_affinity(src_attr.sql_type) == type_affinity(encl_attr.sql_type):
                    matched.add(src_col.casefold())
            if not any(all(c.casefold() in matched for c in key) for key in scheme.keys):
                return False
        return True

    def _scheme_of(self, name: str) -> SirScheme:
        """Scheme declaring the stored attributes of a card-keeping relation."""
        entry = self._entries.get(name.casefold()) or self.owner_of_object(name)
        return entry.scheme

    def prefix_chain(self, name: str) -> PrefixChain | None:
        """The view chain of a relation with IEs, for prefix routing and card
        proofs; None for any other relation.  Memoised until the next attach
        or detach, so each stage is proved once per change."""
        key = name.casefold()
        if key in self._chains:
            return self._chains[key]
        entry = self._entries.get(key)
        chain = None
        if entry is not None and entry.kind == SIR:
            stage_of = {c.casefold(): 0 for c in entry.scheme.stored_names}
            floor = 0
            for pos, item in enumerate(entry.views, start=1):
                stage_of.update((c.casefold(), pos) for c in item.stage.adds)
                if not self.stage_keeps_card(entry, item.stage):
                    floor = pos
            chain = PrefixChain(stage_of=stage_of, floor=floor)
        self._chains[key] = chain
        return chain

    def _reverse(self) -> dict[str, dict[str, None]]:
        """The reverse dependency map: casefold name -> the entries reading
        it, in registration order, as an ordered set.  An entry reads each
        relation or kernel object it references, and counts as a reader of
        the relation owning each such kernel object (`R_B`, a stage view).
        Like the card proofs, it is built from the entries at its first use
        after each change (`_changed`); queries never read it."""
        if self._readers is None:
            readers: dict[str, dict[str, None]] = {}
            for key, entry in self._entries.items():
                for ref in entry.references:
                    ref = ref.casefold()
                    readers.setdefault(ref, {})[key] = None
                    if ref in self._owners:
                        readers.setdefault(self._owners[ref][0].name.casefold(), {})[key] = None
            self._readers = readers
        return self._readers

    def dependents_of(self, name: str) -> list[str]:
        """The relations reading relation or kernel object `name`, in
        registration order; those reading a relation's kernel objects count."""
        key = name.casefold()
        if key not in self._entries and self.owner_of_object(name) is None:
            raise UnknownRelation(f"no relation named {name!r}")
        return [self._entries[reader].name for reader in self._reverse().get(key, ())]

    def blocking_dependents(self, name: str) -> list[str]:
        """The relations other than itself that read a relation or any kernel
        object it generates."""
        entry = self.get(name)
        return [dep for dep in self.dependents_of(entry.name) if dep != entry.name]

    def transitive_dependents(self, name: str) -> list[str]:
        """Every relation that reads relation `name` or one of its kernel
        objects, directly or through other relations, in dependency order:
        each comes after every relation in the list that it reads; beyond
        that, the readers of one relation keep registration order.

        The list is the reverse postorder of one `depth_first` walk over the
        reverse map (`_reverse`) that visits each relation's readers last
        first, so it takes time linear in the relations and references it
        reaches."""
        reverse = self._reverse()
        # readers last first, so that the reversed postorder keeps registration order
        postorder, _ = depth_first(self.get(name).name.casefold(),
                                   lambda key: reversed(reverse.get(key, ())))
        return [self._entries[key].name for key in reversed(postorder[:-1])]

    # --- validation ---

    def check_name_free(self, name: str):
        key = name.casefold()
        if key in self._entries:
            raise DuplicateName(f"relation {name!r} already exists")
        if key.startswith("sir_"):
            raise NameCollision(f"{name!r}: the sir_ prefix is reserved for meta-tables")
        if _BASE_SUFFIX.search(name):
            raise NameCollision(f"{name!r}: names ending in _B are reserved for base tables")
        stage = _STAGE_PATTERN.match(name)
        if stage and stage.group(1).casefold() in self._entries \
                and self._entries[stage.group(1).casefold()].kind == SIR:
            raise NameCollision(f"{name!r} matches a view-stage name of {stage.group(1)}")

    def validate_scheme(self, scheme: SirScheme):
        if not scheme.stored_attrs:
            raise InvariantViolation(f"{scheme.name}: at least one stored attribute is required")
        names = set()
        for element in scheme.elements:
            key = element.name.casefold()
            if key in names:
                raise InvariantViolation(f"{scheme.name}: duplicate name {element.name!r}")
            names.add(key)
        stored = {a.casefold() for a in scheme.stored_names}
        for key_cols in scheme.keys:
            for col in key_cols:
                if col.casefold() not in stored:
                    raise InvariantViolation(
                        f"{scheme.name}: key column {col!r} is not a stored attribute")
        if scheme.ies and not scheme.keys:
            raise InvariantViolation(
                f"{scheme.name}: a relation with IEs needs a primary key (its base must be duplicate-free)")

    def reaches(self, start: str, goal: str) -> bool:
        """Whether `goal` is `start` or a relation `start` reads, directly or
        through other relations."""
        return goal.casefold() in depth_first(start.casefold(), self._reads)[0]

    def check_acyclic(self, name: str, references: list[str]):
        """Raise CircularReferenceError if `name` reading `references` closes
        a cycle.  One `depth_first` walk starts at `name`, goes to its
        references other than itself, in order, and from there along what
        each reads (`_reads`); its first back edge is the cycle named in the
        error, a kernel object by its relation."""
        key = name.casefold()
        refs = [ref.casefold() for ref in references if ref.casefold() != key]
        _, cycle = depth_first(key, lambda node: refs if node == key else self._reads(node))
        if cycle is not None:
            raise CircularReferenceError([
                name if c == key else (self._entries.get(c) or self._owners[c][0]).name
                for c in cycle])

    def _reads(self, key: str) -> list[str]:
        """What relation or kernel object `key` (casefold) reads, casefold: a
        relation its references, a base nothing, and the view at index k of
        its owner's plan what the IEs of stages 1..k reference."""
        owner, index = self._owners.get(key, (None, 0))
        if not index:
            entry = self._entries.get(key)      # no relation is named as a base
            return [ref.casefold() for ref in entry.references] if entry is not None else []
        ies = {ie.casefold() for item in owner.plan[1:index + 1] for ie in item.stage.ies}
        return [ref.casefold() for ie in owner.scheme.ies if ie.name.casefold() in ies
                for ref in ie_references(ie, owner.name)]

    # --- persistence ---

    META_DDL = """CREATE TABLE IF NOT EXISTS sir_relations (
        name TEXT PRIMARY KEY, kind TEXT NOT NULL, created_at TEXT NOT NULL,
        source_text TEXT NOT NULL, plan TEXT NOT NULL)"""

    def ensure_meta(self, conn):
        """Create the meta-table unless `meta_ready` says it exists."""
        if not self.meta_ready:
            conn.execute(self.META_DDL)

    def persist(self, entry: CatalogEntry, conn) -> tuple:
        """Write an entry's meta row in the DDL's transaction; return it as `load` reads it."""
        row = (entry.name, entry.kind, entry.source_text, _document(entry))
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        conn.execute(
            "INSERT INTO sir_relations (name, kind, created_at, source_text, plan)"
            " VALUES (?, ?, ?, ?, ?)", (*row[:2], now, *row[2:]))
        return row

    def persist_replace(self, entry: CatalogEntry, conn) -> tuple:
        """Rewrite an entry's meta row after an alteration, matched by its name
        exactly as stored (the primary key), and return it as `persist` does."""
        row = (entry.name, entry.kind, entry.source_text, _document(entry))
        conn.execute(
            "UPDATE sir_relations SET kind = ?, source_text = ?, plan = ? WHERE name = ?",
            (*row[1:], row[0]))
        return row

    def persist_remove(self, name: str, conn):
        """Delete the meta row of the relation stored under `name`."""
        conn.execute("DELETE FROM sir_relations WHERE name = ?", (name,))

    def copy(self) -> "Catalog":
        """Shallow working copy for what-if compilation during alters; it
        builds its own reverse dependency map if it is asked for one."""
        clone = Catalog()
        clone._entries = dict(self._entries)
        clone._owners = dict(self._owners)
        return clone

    def _changed(self):
        """The entries changed: no proof or reverse map still holds."""
        self._keeps_card.clear()
        self._chains.clear()
        self._readers = None

    # --- in-memory mutation (after the kernel commit) ---

    def attach(self, entry: CatalogEntry):
        """Enter `entry` in place of any entry of the same name."""
        self._register(entry, entry.kernel_objects)
        self._changed()

    def detach(self, name: str):
        """Remove the entry named `name`, if there is one."""
        key = name.casefold()
        self._forget_entry(key)
        self._entries.pop(key, None)
        self._changed()

    def _register(self, entry: CatalogEntry, objects: list[str]):
        """Enter `entry`, whose kernel objects are `objects` in plan order, in
        place of any entry of the same name (which keeps its place in
        registration order), and record each generated object's index in the
        plan; the caller then calls `_changed`."""
        key = entry.name.casefold()
        self._forget_entry(key)
        self._entries[key] = entry
        for index, name in enumerate(objects):
            folded = name.casefold()
            if folded != key:
                self._owners[folded] = entry, index

    def _forget_entry(self, key: str):
        """Drop the generated objects of the entry named `key`."""
        if key in self._entries:
            for item in self._entries[key].plan:
                self._owners.pop(item.name.casefold(), None)

    # --- loading ---

    @classmethod
    def load(cls, conn) -> "Catalog":
        """Rebuild the catalog with two or three queries, whatever the number
        of relations.  Both header counters come first, in one statement
        (`KernelConnection.versions`), so DDL that another session commits
        during the load leaves the catalog looking stale, never current, and
        its schema cookie never newer than the rows and texts it vouches for.

        A row is served by the entry, loaded or compiled, that the donor (the
        catalog of the process's latest load or committed DDL, while alive)
        holds under its name, when it `holds` the identical row: such an
        entry is what decoding the row would build, and no session changes
        an entry once built.  When the donor has the same file, DDL version
        and schema cookie, no kernel object can have changed its text since
        the donor saw it, so `sqlite_master` is read only for a row that
        must be decoded, and the donor's `meta_ready` is taken over.
        Otherwise `sqlite_master` is read second, and a donor's entry serves
        only when each of its objects keeps its text.  Every other row's
        document is decoded here, and CorruptCatalog raised for one that is
        not JSON, lacks its plan, references or a view's columns, holds a
        plan row, its stage facts or a column row of the wrong shape, or
        names a kernel object that `sqlite_master` lacks.  Nothing else is
        built, so an unparseable source text, or stage facts that realize
        other IEs than it declares, raise CorruptCatalog when first read, on
        every read."""
        def kernel_texts():
            return _KernelText(conn.query("SELECT name, sql FROM sqlite_master").rows)

        catalog = cls()
        catalog.version, cookie = conn.versions()
        if conn.location not in (":memory:", ""):       # a file other connections may open
            # absolute: the same relative path opened from elsewhere is another file
            catalog.location, catalog.cookie = os.path.abspath(conn.location), cookie
        donor = _latest_load() if _latest_load is not None else None
        trusted = donor is not None and catalog.cookie is not None and (
            (donor.location, donor.version, donor.cookie)
            == (catalog.location, catalog.version, catalog.cookie))
        kernel = None if trusted else kernel_texts()
        catalog.meta_ready = donor.meta_ready if trusted else "sir_relations" in kernel
        if not catalog.meta_ready:
            return catalog
        rows = conn.query(
            "SELECT name, kind, source_text, plan FROM sir_relations ORDER BY rowid").rows
        shared = donor._entries if donor is not None else {}
        for row in rows:
            entry = shared.get(row[0].casefold()) if shared else None
            if entry is None or not entry.holds(row, None if trusted else kernel):
                if kernel is None:
                    kernel = kernel_texts()
                try:
                    entry = _LoadedEntry(row, kernel)
                except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
                    raise CorruptCatalog(f"{row[0]}: unreadable plan: {exc}") from exc
            catalog._register(entry, entry._objects)
        catalog.serve_next_open()
        return catalog

    def serve_next_open(self):
        """Make this catalog the donor of the process's next `load`."""
        global _latest_load
        _latest_load = weakref.ref(self)

    def audit(self):
        """Read every entry's plan, columns and scheme; raises CorruptCatalog
        for the first relation whose source text or meta rows are corrupt."""
        for entry in self.entries():
            _ = entry.plan, entry.columns, entry.scheme

    def snapshot(self):
        """Structure suitable for equality comparison across persist/load."""
        return {
            key: (entry.name, entry.kind, entry.source_text,
                  [astuple(c) for c in entry.columns],
                  [(i.name, i.kind, i.sql, i.stage) for i in entry.plan],
                  [r.casefold() for r in entry.references],
                  entry.ie_order)
            for key, entry in self._entries.items()
        }
