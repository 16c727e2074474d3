"""Relation catalog: schemes, dependency graph, and meta-table persistence.

The catalog mirrors, in memory, one meta-table kept inside the kernel
database (reserved prefix ``sir_``), one row per relation:

    sir_relations(name, kind, created_at, source_text, plan)

`plan` is a JSON object: "plan" lists [name, kind, sql] per kernel object
(the view stages of a relation with IEs add their `StageFacts`), "columns"
[name, sql_type, is_key, is_inherited, ie_name] per column in declared
order, "ie_order" the IE names in evaluation order, and "references" the
relations the entry reads.  In a catalog written in the earlier four-table
format `plan` is the list alone, and `_legacy_details` reads the rest from
`sir_attrs`, `sir_ies` and `sir_deps`; a DDL that rewrites such a relation
writes its row in the current form, and detail rows no relation uses are
ignored.

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
from collections import defaultdict
from dataclasses import asdict, dataclass, field

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
    one IE per stage, but `ies` stays a list: files written by earlier
    releases hold stages realizing several value IEs, and final views
    fused with the reordering.
    """

    kind: str
    ies: list                   # IE names realized, in evaluation order
    adds: list                  # columns the stage adds to its input
    joins: list = field(default_factory=list)


@dataclass
class PlanItem:
    name: str
    kind: str       # 'table' | 'view'
    sql: str
    stage: StageFacts | None = None   # view stages of a relation with IEs


def _document(entry) -> str:
    """The JSON stored in an entry's `sir_relations.plan` field."""
    return json.dumps({
        "plan": [[i.name, i.kind, i.sql] + ([asdict(i.stage)] if i.stage else [])
                 for i in entry.plan],
        "columns": [[c.name, c.sql_type, c.is_key, c.is_inherited, c.ie_name]
                    for c in entry.columns],
        "ie_order": entry.ie_order, "references": entry.references})


def _plan_item(raw) -> PlanItem:
    """A persisted plan row; rows written before stage facts existed have
    three fields and load without them."""
    name, kind, sql, *rest = raw
    if len(rest) > 1:
        raise ValueError(f"plan row for {name!r} has {len(raw)} fields")
    return PlanItem(name, kind, sql, StageFacts(**rest[0]) if rest else None)


def _legacy_details(conn, objects: set[str]) -> dict[str, dict]:
    """The columns, IE order and references of relations stored in the
    four-table format, read from `sir_attrs`, `sir_ies` and `sir_deps` when
    the kernel holds them, keyed by the relation name exactly as stored."""
    details = defaultdict(lambda: {"columns": [], "ie_order": [], "references": []})
    if {"sir_attrs", "sir_ies", "sir_deps"} <= objects:
        for rel, *column in conn.query(
                "SELECT rel, name, sql_type, is_key, is_inherited, ie_name FROM sir_attrs"
                " ORDER BY rel, ordinal").rows:
            details[rel]["columns"].append(column)
        for rel, ie_name in conn.query("SELECT rel, name FROM sir_ies ORDER BY rel, ordinal").rows:
            details[rel]["ie_order"].append(ie_name)
        for src, dst in conn.query("SELECT src, dst FROM sir_deps ORDER BY rowid").rows:
            details[src]["references"].append(dst)
    return details


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


_UNPARSED = object()    # the scheme of a loaded entry before its first read


class _LazyScheme:
    """`CatalogEntry.scheme`, assigned like a plain attribute.  An entry
    loaded from the meta-table holds `_UNPARSED` until the scheme is first
    read; that read parses the entry's source text (`_parsed_scheme`) and
    keeps the result.  A failed parse keeps nothing, so every read raises."""

    def __get__(self, entry, owner=None):
        if entry is None:
            raise AttributeError("scheme")      # no class default: the field stays required
        scheme = entry.__dict__["_scheme"]
        if scheme is _UNPARSED:
            scheme = entry.__dict__["_scheme"] = _parsed_scheme(entry)
        return scheme

    def __set__(self, entry, scheme):
        entry.__dict__["_scheme"] = scheme


def _parsed_scheme(entry) -> SirScheme:
    """The scheme in a loaded entry's source text, checked against the
    entry's recorded IE order and columns; raises CorruptCatalog."""
    name = entry.name
    try:
        stmt = parse_one(entry.source_text)
    except Exception as exc:
        raise CorruptCatalog(f"{name}: unparseable source text: {exc}") from exc
    if not isinstance(stmt, n.CreateSirTable):
        raise CorruptCatalog(f"{name}: source text is not a table definition")
    scheme = scheme_from_ast(stmt)
    if {i.casefold() for i in entry.ie_order} != {ie.name.casefold() for ie in scheme.ies}:
        raise CorruptCatalog(f"{name}: recorded IEs do not match the declared IEs")
    declared = {a.name.casefold() for a in scheme.stored_attrs}
    if declared != {c.casefold() for c in entry.stored_names()}:
        raise CorruptCatalog(f"{name}: recorded columns do not match the declared scheme")
    return scheme


@dataclass
class CatalogEntry:
    name: str
    kind: str                            # stored | view | sir
    scheme: SirScheme | None = _LazyScheme()     # required; None for a view
    columns: list                        # ColumnInfo, full declared order
    plan: list = field(default_factory=list)          # PlanItem; definitional DDL
    references: list = field(default_factory=list)    # relation names this entry reads
    ie_order: list = field(default_factory=list)      # IE names in evaluation order
    source_text: str = ""

    @property
    def kernel_objects(self) -> list[str]:
        return [item.name for item in self.plan]

    @property
    def views(self) -> list[PlanItem]:
        return [item for item in self.plan if item.kind == "view"]

    def stages_recorded(self) -> bool:
        """Whether every view stage carries compiler facts (plans persisted
        before the facts existed do not, and are never pruned)."""
        return self.kind == SIR and all(item.stage is not None for item in self.views)

    def ie_stage(self, ie_name: str) -> tuple[int, StageFacts] | None:
        """1-based position and facts of the view stage realizing an IE."""
        key = ie_name.casefold()
        for pos, item in enumerate(self.views, start=1):
            if item.stage is not None and key in {i.casefold() for i in item.stage.ies}:
                return pos, item.stage
        return None

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def inherited_names(self) -> list[str]:
        return [c.name for c in self.columns if c.is_inherited]

    def stored_names(self) -> list[str]:
        return [c.name for c in self.columns if not c.is_inherited]


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


class Catalog:
    """In-memory mirror of the meta-tables, plus the dependency graph."""

    def __init__(self):
        self._entries: dict[str, CatalogEntry] = {}   # casefold name -> entry
        self._order: list[str] = []                   # registration order (casefold)
        self._owners: dict[str, CatalogEntry] = {}    # casefold generated object -> entry
        # bumped by attach/detach; a session's statement cache is keyed on it
        self.generation = 0
        # route-time proofs against the current entries; cleared on attach/detach
        self._keeps_card: dict[str, bool] = {}
        self._chains: dict[str, PrefixChain | None] = {}
        self._graph_maps: tuple[dict, dict] | None = None     # see _graph
        # the kernel holds the meta-table: the load saw it, or a DDL of this
        # session committed it; `ensure_meta` then sends nothing
        self.meta_ready = False
        # the kernel's DDL version that the entries reflect (see SirLayer._ddl_transaction)
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
        return [self._entries[key] for key in self._order]

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
        if owner.stages_recorded():
            # a stage view carries the stored attrs plus what each stage up
            # to and including it adds
            columns = list(owner.scheme.stored_names)
            for item in owner.views:
                columns.extend(item.stage.adds)
                if item.name.casefold() == key:
                    return columns
            return None
        stage = _STAGE_PATTERN.match(name)
        if stage:
            # plans persisted without stage facts: stage k carries the outputs
            # of the first k IEs in evaluation order
            upto = int(stage.group(2))
            produced = []
            for ie_name in owner.ie_order[:upto]:
                produced.extend(c.name for c in owner.columns if c.ie_name == ie_name)
            return owner.scheme.stored_names + produced
        return None

    # --- cardinality proofs ---

    def keeps_card(self, name: str) -> bool:
        """Whether relation `name` provably has exactly one row per row of its
        stored base.  A stored relation or a generated base always does, a
        user view never does, a relation with IEs does when every stage of
        its chain does.  Memoised until the next attach or detach.

        The join sources of a relation are proved before it, depth first on
        an explicit stack, so a long chain of relations needs no recursion."""
        key = name.casefold()
        stack = [] if key in self._keeps_card else [key]
        while stack:
            node = stack[-1]
            self._keeps_card.setdefault(node, False)    # a self reference proves nothing
            unproved = next((s for s in self._card_sources(node) if s not in self._keeps_card),
                            None)
            if unproved is None:
                stack.pop()
                self._keeps_card[node] = self._card_rule(node)
            else:
                stack.append(unproved)
        return self._keeps_card[key]

    def _card_sources(self, key: str) -> list[str]:
        """The relations joined by the recorded stages of `key`, itself excepted."""
        entry = self._entries.get(key)
        if entry is None or not entry.stages_recorded():
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
        return entry.kind == SIR and entry.stages_recorded() and all(
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
        any other relation and for plans persisted without stage facts."""
        key = name.casefold()
        if key in self._chains:
            return self._chains[key]
        entry = self._entries.get(key)
        chain = None
        if entry is not None and entry.stages_recorded():
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

    def _graph(self) -> tuple[dict[str, list[str]], dict[str, dict[str, None]]]:
        """The dependency graph from the entries' references, in registration
        order: casefold name -> the names it references, and casefold name ->
        the names of the relations reading it, as an ordered set.  A relation
        reading a kernel object (`R_B`, a stage view) also counts as a reader
        of the object's relation.  Kept until the next attach or detach."""
        if self._graph_maps is None:
            forward = {key: [ref.casefold() for ref in self._entries[key].references]
                       for key in self._order}
            reverse: dict[str, dict[str, None]] = {}
            for key, refs in forward.items():
                for ref in refs:
                    owner = self._owners.get(ref)
                    for target in (ref, owner.name.casefold()) if owner else (ref,):
                        reverse.setdefault(target, {})[key] = None
            self._graph_maps = forward, reverse
        return self._graph_maps

    def dependents_of(self, name: str) -> list[str]:
        """The relations reading relation or kernel object `name`, in
        registration order; those reading a relation's kernel objects count."""
        key = name.casefold()
        if key not in self._entries and self.owner_of_object(name) is None:
            raise UnknownRelation(f"no relation named {name!r}")
        return [self._entries[reader].name for reader in self._graph()[1].get(key, ())]

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

        The list is the reverse postorder of one depth-first walk over the
        reverse map, on an explicit stack, so it takes time linear in the
        relations and references it reaches."""
        reverse = self._graph()[1]

        def readers(key):
            # last first, so that the reversed postorder keeps registration order
            return reversed(reverse.get(key, ()))

        start = self.get(name).name.casefold()
        postorder, seen = [], {start}
        stack = [(start, readers(start))]
        while stack:
            key, pending = stack[-1]
            reader = next(pending, None)
            if reader is None:
                postorder.append(stack.pop()[0])
            elif reader not in seen:
                seen.add(reader)
                stack.append((reader, readers(reader)))
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
        adjacency = self._graph()[0]
        goal = goal.casefold()
        frontier, seen = [start.casefold()], set()
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            if node not in seen:
                seen.add(node)
                frontier.extend(adjacency.get(node, ()))
        return False

    def check_acyclic(self, name: str, references: list[str]):
        """Raise CircularReferenceError if adding name->references closes a cycle."""
        adjacency = dict(self._graph()[0])
        key = name.casefold()
        adjacency[key] = [r.casefold() for r in references if r.casefold() != key]

        # depth first from `key`, on an explicit stack: path[i] is being
        # visited through the successor iterator pending[i]
        path, pending = [key], [iter(adjacency.get(key, ()))]
        done: set[str] = set()
        while path:
            succ = next(pending[-1], None)
            if succ is None:
                done.add(path.pop())
                pending.pop()
            elif succ in path:
                cycle = path[path.index(succ):]
                raise CircularReferenceError(
                    [self._entries[c].name if c in self._entries else c for c in cycle])
            elif succ not in done:
                path.append(succ)
                pending.append(iter(adjacency.get(succ, ())))

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
        """Shallow working copy for what-if compilation during alters."""
        clone = Catalog()
        clone._entries = dict(self._entries)
        clone._order = list(self._order)
        clone._owners = dict(self._owners)
        return clone

    def _changed(self):
        """The entries changed: a new generation, and no proof still holds."""
        self.generation += 1
        self._keeps_card.clear()
        self._chains.clear()
        self._graph_maps = None

    # --- in-memory mutation (after the kernel commit) ---

    def attach(self, entry: CatalogEntry):
        key = entry.name.casefold()
        if key not in self._entries:
            self._order.append(key)
        else:
            self._forget_entry(key)
        self._entries[key] = entry
        for item in entry.plan:
            if item.name.casefold() != key:
                self._owners[item.name.casefold()] = entry
        self._changed()

    def detach(self, name: str):
        key = name.casefold()
        self._forget_entry(key)
        self._entries.pop(key, None)
        if key in self._order:
            self._order.remove(key)
        self._changed()

    def _forget_entry(self, key: str):
        """Drop the generated objects of the entry named `key`."""
        if key in self._entries:
            for item in self._entries[key].plan:
                self._owners.pop(item.name.casefold(), None)

    # --- loading ---

    @classmethod
    def load(cls, conn) -> "Catalog":
        """Rebuild the catalog with three queries, whatever the number of
        relations (relations in the four-table format add three).  The DDL
        version is read first, so DDL that another session commits during the
        load leaves the catalog looking stale, never current.

        Raises CorruptCatalog here on an unreadable plan or a missing kernel
        object.  A relation's scheme is parsed from its source text when it is
        first read (see `_LazyScheme`), so an unparseable source text, or
        recorded columns or IEs that disagree with it, raise CorruptCatalog at
        that read, on every read; `audit` reads them all."""
        catalog = cls()
        catalog.version = conn.ddl_version()
        objects = {row[0].casefold() for row in conn.query("SELECT name FROM sqlite_master").rows}
        catalog.meta_ready = "sir_relations" in objects
        if not catalog.meta_ready:
            return catalog
        relations = conn.query(
            "SELECT name, kind, source_text, plan FROM sir_relations ORDER BY rowid")
        legacy = None
        for name, kind, source_text, stored in relations.rows:
            try:
                document = json.loads(stored)
                if isinstance(document, list):
                    legacy = _legacy_details(conn, objects) if legacy is None else legacy
                    document = {"plan": document, **legacy[name]}
                entry = CatalogEntry(
                    name=name, kind=kind, scheme=_UNPARSED if kind in (STORED, SIR) else None,
                    columns=[ColumnInfo(col, sql_type, bool(is_key), bool(is_inherited), ie_name)
                             for col, sql_type, is_key, is_inherited, ie_name
                             in document["columns"]],
                    plan=[_plan_item(item) for item in document["plan"]],
                    references=document["references"], ie_order=document["ie_order"],
                    source_text=source_text)
            except (TypeError, ValueError, KeyError) as exc:
                raise CorruptCatalog(f"{name}: unreadable plan: {exc}") from exc
            for item in entry.plan:
                if item.name.casefold() not in objects:
                    raise CorruptCatalog(
                        f"{name}: kernel object {item.name!r} recorded in the catalog is missing")
            catalog.attach(entry)
        return catalog

    def audit(self):
        """Read every entry's scheme; raises CorruptCatalog for the first
        relation whose source text or meta rows are corrupt."""
        for entry in self.entries():
            _ = entry.scheme

    def snapshot(self):
        """Structure suitable for equality comparison across persist/load."""
        return {
            key: (entry.name, entry.kind, entry.source_text,
                  [(c.name, c.sql_type, c.is_key, c.is_inherited, c.ie_name)
                   for c in entry.columns],
                  [(i.name, i.kind, i.sql, i.stage) for i in entry.plan],
                  [r.casefold() for r in entry.references],
                  list(entry.ie_order))
            for key, entry in self._entries.items()
        }
