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

A session reads the meta-table once, at open (`Catalog.load`): it decodes
and checks every row, and builds a relation's scheme, plan and columns only
when a statement first reads them (`_LoadedEntry`).

Meta rows are written inside the same kernel transaction as the DDL they
describe; the in-memory mirror is updated only after the commit, so any
failure leaves both the kernel and the catalog unchanged.  Every DDL also
bumps the kernel's `PRAGMA user_version` in its transaction, and the
catalog records that version as it was read, so a DDL can tell whether
another session's DDL committed since.

Concurrency: a catalog belongs to one session and is used only by the
thread that opened the session's KernelConnection.  A thread that needs
the catalog opens its own session over its own connection.
"""

from __future__ import annotations

import datetime
import json
import re
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
    return SirScheme(name=stmt.name, elements=elements, keys=keys, foreign_keys=fks)


def scheme_to_ast(scheme: SirScheme) -> n.CreateSirTable:
    elements = list(scheme.elements)
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
    name, kind, *rest = raw
    if len(rest) > 1 or rest and not (isinstance(rest[0], dict)
                                      and _STAGE_NEEDS <= rest[0].keys() <= _STAGE_FIELDS):
        raise ValueError(f"plan row for {name!r} is not [name, kind] plus stage facts")
    return name, kind, rest[0] if rest else None


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

    `objects[k]` is the kernel object holding the stored attributes plus
    the outputs of stages 1..k (0 is the base, the last one the full view);
    `ies[k]` names the IEs stage k realizes.  Every stage after `floor`
    provably keeps card(R_B), so any prefix ending at or after `floor`
    has the full view's rows.
    """

    objects: list
    ies: list
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
    ie_order: list = field(default_factory=list)      # IE names in evaluation order
    source_text: str = ""
    outdated = False        # its meta row is an earlier release's (see `_LoadedEntry`)

    @property
    def kernel_objects(self) -> list[str]:
        return [item.name for item in self.plan]

    @property
    def views(self) -> list[PlanItem]:
        return [item for item in self.plan if item.kind == "view"]

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


class _LoadedEntry(CatalogEntry):
    """An entry as `Catalog.load` read it from its meta row.  Its scheme,
    plan, IE order and columns are built the first time each is read, and
    kept; a build that raises keeps nothing, so every read raises.  A view's
    columns are read from the row, a table's derived (`scheme_columns`).

    A row is `outdated` when an earlier release wrote it: a plan list alone
    (the four-table format), a plan row holding its object's SQL third, or a
    view stage of a relation with IEs without stage facts.  Only its kernel
    objects are read from it, for `SirLayer._upgrade` to compile it again."""

    def __init__(self, name: str, kind: str, source_text: str, document,
                 kernel: _KernelText):
        self.name, self.kind, self.source_text, self._kernel = name, kind, source_text, kernel
        rows = document if isinstance(document, list) else document["plan"]
        # such a release wrote every row [name, kind, sql], maybe with stage facts
        old = isinstance(document, list) or len(rows[0]) > 2 and isinstance(rows[0][2], str)
        self._rows = [_plan_row(raw[:2] if old and len(raw) <= 4 else raw) for raw in rows]
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
        return [PlanItem(name, kind, self._kernel[name] + ";",
                         StageFacts(**facts) if facts is not None else None)
                for name, kind, facts in self._rows]

    @cached_property
    def ie_order(self) -> list[str]:
        return [ie for item in self.views if item.stage for ie in item.stage.ies]

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
        self._owners: dict[str, CatalogEntry] = {}    # casefold generated object -> entry
        # bumped by attach/detach; a session's statement cache is keyed on it
        self.generation = 0
        # what is built from the current entries; dropped on attach/detach
        self._keeps_card: dict[str, bool] = {}
        self._chains: dict[str, PrefixChain | None] = {}
        self._readers: dict[str, dict[str, None]] | None = None     # see _reverse
        # the kernel holds the meta-table: the load saw it, or a DDL of this
        # session committed it; `ensure_meta` then sends nothing
        self.meta_ready = False
        # the kernel's DDL version that the entries reflect (see SirLayer._apply)
        self.version = 0

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
        return self._owners.get(name.casefold())

    def resolve_columns(self, name: str) -> list[str] | None:
        """Columns of a registered relation or of a generated kernel object."""
        key = name.casefold()
        if key in self._entries:
            return self._entries[key].column_names
        owner = self.owner_of_object(name)
        if owner is None or owner.scheme is None:
            return None
        if _BASE_SUFFIX.search(name):
            return owner.scheme.stored_names
        # a stage view carries the stored attrs plus what each stage up to
        # and including it adds
        columns = list(owner.scheme.stored_names)
        for item in owner.views:
            columns.extend(item.stage.adds)
            if item.name.casefold() == key:
                return columns
        return None

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
        """`keeps_card` of `key` once its join sources are proved."""
        entry = self._entries.get(key)
        if entry is None:
            owner = self.owner_of_object(key)
            return owner is not None and owner.plan[0].name.casefold() == key
        if entry.kind == STORED:
            return True
        return entry.kind == SIR and all(
            self.stage_keeps_card(entry, item.stage) for item in entry.views)

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
        """The view chain of a relation with IEs, for prefix routing; None for
        any other relation."""
        key = name.casefold()
        if key in self._chains:
            return self._chains[key]
        entry = self._entries.get(key)
        chain = None
        if entry is not None and entry.kind == SIR:
            stage_of = {c.casefold(): 0 for c in entry.scheme.stored_names}
            objects, ies, floor = [entry.plan[0].name], [[]], 0
            for pos, item in enumerate(entry.views, start=1):
                stage_of.update((c.casefold(), pos) for c in item.stage.adds)
                objects.append(item.name)
                ies.append(item.stage.ies)
                if not self.stage_keeps_card(entry, item.stage):
                    floor = pos
            chain = PrefixChain(objects=objects, ies=ies, stage_of=stage_of, floor=floor)
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
                    owner = self._owners.get(ref)
                    if owner is not None:
                        readers.setdefault(owner.name.casefold(), {})[key] = None
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
                name if c == key else (self._entries.get(c) or self._owners[c]).name
                for c in cycle])

    def _reads(self, key: str) -> list[str]:
        """What relation or kernel object `key` (casefold) reads, casefold: a
        relation its references, a base nothing, and a stage view ``R_k``
        what the IEs of stages 1..k reference."""
        owner = self._owners.get(key)
        if owner is None or owner.plan[0].name.casefold() == key:
            entry = self._entries.get(key)      # no relation is named as a base
            return [ref.casefold() for ref in entry.references] if entry is not None else []
        ies = set()
        for item in owner.views:
            ies.update(ie.casefold() for ie in item.stage.ies)
            if item.name.casefold() == key:
                return [ref.casefold() for ie in owner.scheme.ies if ie.name.casefold() in ies
                        for ref in ie_references(ie, owner.name)]
        return []

    # --- persistence ---

    META_DDL = """CREATE TABLE IF NOT EXISTS sir_relations (
        name TEXT PRIMARY KEY, kind TEXT NOT NULL, created_at TEXT NOT NULL,
        source_text TEXT NOT NULL, plan TEXT NOT NULL)"""

    def ensure_meta(self, conn):
        """Create the meta-table unless `meta_ready` says it exists."""
        if not self.meta_ready:
            conn.execute(self.META_DDL)

    def persist(self, entry: CatalogEntry, conn):
        """Write an entry's meta row; call inside the DDL's transaction."""
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        conn.execute(
            "INSERT INTO sir_relations (name, kind, created_at, source_text, plan)"
            " VALUES (?, ?, ?, ?, ?)",
            (entry.name, entry.kind, now, entry.source_text, _document(entry)))

    def persist_replace(self, entry: CatalogEntry, conn):
        """Rewrite an entry's meta row after an alteration.  The row is matched
        by the entry's name exactly as stored, so the primary key serves it."""
        conn.execute(
            "UPDATE sir_relations SET kind = ?, source_text = ?, plan = ? WHERE name = ?",
            (entry.kind, entry.source_text, _document(entry), entry.name))

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
        """The entries changed: a new generation, and no proof or reverse
        map still holds."""
        self.generation += 1
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
        """Enter `entry`, whose kernel objects are `objects`, in place of any
        entry of the same name (which keeps its place in registration order);
        the caller then calls `_changed`."""
        key = entry.name.casefold()
        self._forget_entry(key)
        self._entries[key] = entry
        for name in objects:
            if name.casefold() != key:
                self._owners[name.casefold()] = entry

    def _forget_entry(self, key: str):
        """Drop the generated objects of the entry named `key`."""
        if key in self._entries:
            for item in self._entries[key].plan:
                self._owners.pop(item.name.casefold(), None)

    # --- loading ---

    @classmethod
    def load(cls, conn) -> "Catalog":
        """Rebuild the catalog with three queries, whatever the number of
        relations.  The DDL version is read first, so DDL that another
        session commits during the load leaves the catalog looking stale,
        never current.

        Every row's document is decoded here (see `_LoadedEntry`), and
        CorruptCatalog raised for one that is not JSON, lacks its plan,
        references or a view's columns, holds a plan row, its stage facts or
        a column row of the wrong shape, or names a kernel object that
        `sqlite_master` lacks.  Nothing else is built, so an unparseable
        source text, or stage facts that realize other IEs than it declares,
        raise CorruptCatalog when first read, on every read."""
        catalog = cls()
        catalog.version = conn.ddl_version()
        kernel = _KernelText(conn.query("SELECT name, sql FROM sqlite_master").rows)
        catalog.meta_ready = "sir_relations" in kernel
        if not catalog.meta_ready:
            return catalog
        rows = conn.query(
            "SELECT name, kind, source_text, plan FROM sir_relations ORDER BY rowid").rows
        for name, kind, source_text, stored in rows:
            try:
                entry = _LoadedEntry(name, kind, source_text, json.loads(stored), kernel)
                objects = [obj for obj, _, _ in entry._rows]
                for obj in objects:
                    if kernel[obj] is None:
                        raise CorruptCatalog(f"{name}: kernel object {obj!r} recorded in"
                                             " the catalog is missing")
            except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
                raise CorruptCatalog(f"{name}: unreadable plan: {exc}") from exc
            catalog._register(entry, objects)
        catalog._changed()
        return catalog

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
                  list(entry.ie_order))
            for key, entry in self._entries.items()
        }
