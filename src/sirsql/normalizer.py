"""Schema design toolkit: dependencies, normal-form checks, decompositions.

A relation with inherited attributes is judged against a normal form by its
stored projection alone.  The decomposition operators therefore split the
stored attributes exactly as the classic lossless decompositions do, but
additionally plant an IE on one output (or both, for the multivalued case)
that inherits the moved attributes back, so queries keep seeing the whole
original relation without explicit joins.

The pipeline starts from a single universal scheme and repeatedly splits
whatever still violates 4NF, taking multivalued dependencies first; taking
functional dependencies first instead is supported to demonstrate that it
multiplies stored values (Heath-first mode).

Everything here is pure and deterministic; attribute order in the input
scheme breaks every tie.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import combinations, count

from . import nodes as n
from .catalog import depth_first
from .errors import CircularReferenceError, NoProgress, NotApplicable, ParseError, SchemaMismatch
from .render import render_source


# --- dependencies -----------------------------------------------------------


@dataclass(frozen=True)
class FunctionalDependency:
    lhs: tuple
    rhs: tuple

    def __str__(self):
        return f"{', '.join(self.lhs)} -> {', '.join(self.rhs)}"


@dataclass(frozen=True)
class MultivaluedDependency:
    lhs: tuple
    branch: tuple

    def __str__(self):
        return f"{', '.join(self.lhs)} ->> {', '.join(self.branch)}"


def attribute_closure(attrs, fds) -> set:
    """Least fixpoint of `attrs` under the FDs (case-insensitive names)."""
    closure = {a.casefold() for a in attrs}
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if {a.casefold() for a in fd.lhs} <= closure:
                rhs = {a.casefold() for a in fd.rhs}
                if not rhs <= closure:
                    closure |= rhs
                    changed = True
    return closure


# --- drafts -------------------------------------------------------------------


@dataclass
class DraftIE:
    """An IE generated by a decomposition, kept structural so that renaming
    a scheme later fixes every reference to it."""

    name: str
    source: str                 # scheme the IE selects from
    produced: list              # attribute names it creates
    join_cols: list             # equated on source.c = <enclosing>.c
    exclude: list | None = None  # star-minus exclusions; None = explicit list

    def to_decl(self, enclosing: str) -> n.IeDecl:
        if self.exclude is not None:
            items = [n.SelectItem(expr=n.StarMinus(
                excluded=[n.ColumnRef(name=c) for c in self.exclude]))]
        else:
            items = [n.SelectItem(expr=n.ColumnRef(name=c)) for c in self.produced]
        where = None
        for col in self.join_cols:
            pred = n.Binary(op="=", left=n.ColumnRef(name=col),
                            right=n.ColumnRef(name=col, table=enclosing))
            where = pred if where is None else n.Binary(op="AND", left=where, right=pred)
        select = n.Select(items=items, from_=[n.TableName(name=self.source)], where=where)
        return n.IeDecl(name=self.name, form=n.SelectForm(select=select))


@dataclass
class SchemeDraft:
    name: str
    stored: list                # ordered stored subset
    ies: list = field(default_factory=list)     # DraftIE
    keys: list = field(default_factory=list)
    types: dict = field(default_factory=dict)   # attr casefold -> sql type

    def stored_set(self):
        return frozenset(a.casefold() for a in self.stored)

    def inherited(self) -> list:
        return [a for ie in self.ies for a in ie.produced]


def make_universal(name: str, attributes, types=None) -> SchemeDraft:
    return SchemeDraft(name=name, stored=list(attributes),
                       types={k.casefold(): v for k, v in (types or {}).items()})


@dataclass
class DecompositionStep:
    kind: str                   # 'heath' | 'fagin'
    input: SchemeDraft          # snapshot before the split
    dependency: object
    outputs: tuple              # (split_off, residual) drafts (live objects)
    created_ies: list           # DraftIE added by this step
    notes: list = field(default_factory=list)


# --- normal forms ----------------------------------------------------------------


def _ordered_subsets(attrs):
    """Nonempty subsets, smallest first, ties by attribute position."""
    for size in range(1, len(attrs) + 1):
        yield from combinations(attrs, size)


def _violating_fd(draft: SchemeDraft, fds):
    """Smallest-lhs projected FD violating BCNF on the stored subset, with the
    largest rhs of directly dependent attributes, or None.

    The rhs keeps only direct dependents: anything another stored dependent
    determines in turn belongs to a later split, which also reproduces the
    classic transitive-chain decompositions.
    """
    stored = [a.casefold() for a in draft.stored]
    stored_set = set(stored)
    for lhs in _ordered_subsets(draft.stored):
        closure = attribute_closure(lhs, fds)
        dependents = (closure & stored_set) - {a.casefold() for a in lhs}
        if not dependents:
            continue
        if closure >= stored_set:
            continue  # superkey: nothing to fix
        direct = set(dependents)
        for x in sorted(dependents):
            transitive = attribute_closure([x], fds) - {x}
            direct -= transitive & dependents
        rhs_set = direct or dependents
        rhs = [a for a in draft.stored if a.casefold() in rhs_set]
        return FunctionalDependency(lhs=tuple(lhs), rhs=tuple(rhs))
    return None


def _violating_mvd(draft: SchemeDraft, mvds, fds):
    """First declared MVD that is nontrivial on the draft's stored subset and
    whose lhs is not a superkey."""
    stored_set = draft.stored_set()
    for mvd in mvds:
        lhs = {a.casefold() for a in mvd.lhs}
        branch = {a.casefold() for a in mvd.branch} & stored_set
        if not lhs <= stored_set or not branch:
            continue
        complement = stored_set - lhs - branch
        if not complement:
            continue
        if attribute_closure(mvd.lhs, fds) >= stored_set:
            continue
        return mvd
    return None


def is_bcnf(draft: SchemeDraft, fds) -> bool:
    """Restated BCNF: the stored projection has no nontrivial FD with a
    non-superkey lhs.  Exhaustive over lhs subsets (desk-scale schemes)."""
    return _violating_fd(draft, fds) is None


def is_4nf(draft: SchemeDraft, fds, mvds) -> bool:
    return is_bcnf(draft, fds) and _violating_mvd(draft, mvds, fds) is None


def candidate_key(stored, fds) -> list:
    """First minimal key of the stored attribute list, by (size, position)."""
    stored_set = {a.casefold() for a in stored}
    for subset in _ordered_subsets(stored):
        if attribute_closure(subset, fds) >= stored_set:
            return list(subset)
    return list(stored)


# --- decompositions -----------------------------------------------------------------


def _ie_name(source: str, taken) -> str:
    base = f"I_{source}"
    name, k = base, 1
    while name.casefold() in taken:
        k += 1
        name = f"{base}{k}"
    return name


def heath_decompose(draft: SchemeDraft, fd: FunctionalDependency,
                    fds=None, split_name: str | None = None) -> DecompositionStep:
    """Split on A -> B: stored(A, B) moves out, and the residual keeps A and
    the rest plus an IE inheriting B back from the new scheme."""
    fds = fds if fds is not None else [fd]
    lhs = {a.casefold() for a in fd.lhs}
    rhs = {a.casefold() for a in fd.rhs}
    stored_set = draft.stored_set()
    if not lhs <= stored_set or not rhs <= stored_set:
        raise NotApplicable(f"{fd}: attributes outside {draft.name}'s stored subset")
    if not rhs - lhs:
        raise NotApplicable(f"{fd}: trivial dependency")
    if attribute_closure(fd.lhs, fds) >= stored_set:
        raise NotApplicable(f"{fd}: lhs is already a superkey of {draft.name}")

    before = copy.deepcopy(draft)
    a_cols = [a for a in draft.stored if a.casefold() in lhs]
    b_cols = [a for a in draft.stored if a.casefold() in rhs - lhs]
    c_cols = [a for a in draft.stored if a.casefold() not in lhs | rhs]

    closure_a = attribute_closure(fd.lhs, fds)
    moved_ies = [ie for ie in draft.ies
                 if {p.casefold() for p in ie.produced} <= closure_a
                 and {c.casefold() for c in ie.join_cols} <= lhs]
    split = SchemeDraft(
        name=split_name or f"{draft.name}1",
        stored=a_cols + b_cols,
        ies=copy.deepcopy(moved_ies),
        keys=[list(a_cols)],
        types={k: v for k, v in draft.types.items()})

    taken = {ie.name.casefold() for ie in draft.ies}
    exclusions = list(a_cols) + [p for ie in moved_ies for p in ie.produced]
    inherited_back = DraftIE(
        name=_ie_name(split.name, taken), source=split.name,
        produced=list(b_cols), join_cols=list(a_cols),
        exclude=exclusions)
    residual_stored = a_cols + c_cols
    residual = draft
    residual.stored = residual_stored
    residual.ies = residual.ies + [inherited_back]
    residual.keys = [candidate_key(residual_stored, fds)]
    split.keys = [candidate_key(split.stored, fds)]

    return DecompositionStep(kind="heath", input=before, dependency=fd,
                             outputs=(split, residual), created_ies=[inherited_back])


def fagin_decompose(draft: SchemeDraft, mvd: MultivaluedDependency,
                    fds=(), split_name: str | None = None) -> DecompositionStep:
    """Split on A ->> B | C into stored(A, B) and stored(A, C); each side
    additionally inherits the subset of the other side that A determines
    functionally (possibly empty)."""
    lhs = {a.casefold() for a in mvd.lhs}
    stored_set = draft.stored_set()
    branch = {a.casefold() for a in mvd.branch} & stored_set
    if not lhs <= stored_set or not branch:
        raise NotApplicable(f"{mvd}: attributes outside {draft.name}'s stored subset")
    complement = stored_set - lhs - branch
    if not complement:
        raise NotApplicable(f"{mvd}: trivial on {draft.name}")

    before = copy.deepcopy(draft)
    a_cols = [a for a in draft.stored if a.casefold() in lhs]
    b_cols = [a for a in draft.stored if a.casefold() in branch]
    c_cols = [a for a in draft.stored if a.casefold() in complement]

    closure_a = attribute_closure(mvd.lhs, fds)
    b_prime = [a for a in b_cols if a.casefold() in closure_a]
    c_prime = [a for a in c_cols if a.casefold() in closure_a]

    split = SchemeDraft(name=split_name or f"{draft.name}1",
                        stored=a_cols + b_cols,
                        types=dict(draft.types))
    residual = draft
    residual.stored = a_cols + c_cols
    residual.ies = list(residual.ies)

    created, notes = [], []
    if c_prime:
        ie = DraftIE(name=_ie_name(residual.name, set()), source=residual.name,
                     produced=list(c_prime), join_cols=list(a_cols))
        split.ies.append(ie)
        created.append(ie)
    if b_prime:
        taken = {ie.name.casefold() for ie in residual.ies}
        ie = DraftIE(name=_ie_name(split.name, taken), source=split.name,
                     produced=list(b_prime), join_cols=list(a_cols))
        residual.ies.append(ie)
        created.append(ie)
    if b_prime and c_prime:
        notes.append("both sides inherit functionally dependent attributes;"
                     " the schemes reference each other and cannot both keep"
                     " their IEs in one acyclic database")
    split.keys = [candidate_key(split.stored, fds)]
    residual.keys = [candidate_key(residual.stored, fds)]

    return DecompositionStep(kind="fagin", input=before, dependency=mvd,
                             outputs=(split, residual), created_ies=created,
                             notes=notes)


def rename(draft: SchemeDraft, new_name: str, all_drafts) -> None:
    """Rename a draft and update every reference to it (IE sources and the
    I_<name> convention)."""
    old = draft.name
    draft.name = new_name
    for other in list(all_drafts) + [draft]:
        for ie in other.ies:
            if ie.source.casefold() == old.casefold():
                ie.source = new_name
                if ie.name.casefold() == f"i_{old}".casefold():
                    ie.name = f"I_{new_name}"


# --- the pipeline ---------------------------------------------------------------------


def normalize(universal: SchemeDraft, fds, mvds, heath_first: bool = False,
              name_hints: dict | None = None, max_steps: int = 50):
    """Decompose until every draft passes 4NF; returns (drafts, steps).

    Multivalued dependencies are taken first by default; `heath_first`
    forces functional splits first, demonstrating the stored-value blowup.
    Each split is named after the draft it splits plus the first number
    that makes a name no draft holds (``U1``, ``U2``, ...); `name_hints`
    maps frozensets of stored attribute names (casefolded) to the names the
    resulting schemes should take instead.
    """
    hints = {frozenset(k): v for k, v in (name_hints or {}).items()}
    drafts = [copy.deepcopy(universal)]
    steps: list[DecompositionStep] = []

    def apply_hints():
        for draft in drafts:
            wanted = hints.get(draft.stored_set())
            if wanted and draft.name != wanted:
                rename(draft, wanted, drafts)

    apply_hints()
    while True:
        if len(steps) > max_steps:
            raise NoProgress(f"no 4NF fixpoint after {max_steps} steps")
        target = None
        for draft in drafts:
            if not is_4nf(draft, fds, mvds):
                target = draft
                break
        if target is None:
            return drafts, steps

        mvd = _violating_mvd(target, mvds, fds)
        fd = _violating_fd(target, fds)
        use_mvd = mvd is not None and (not heath_first or fd is None)
        position = drafts.index(target)
        before_sets = {d.stored_set() for d in drafts}
        taken = {d.name.casefold() for d in drafts}
        split_name = next(name for name in (f"{target.name}{k}" for k in count(1))
                          if name.casefold() not in taken)
        if use_mvd:
            step = fagin_decompose(target, mvd, fds, split_name)
        else:
            if fd is None:
                raise NoProgress(
                    f"{target.name} violates 4NF but no declared dependency applies")
            step = heath_decompose(target, fd, fds, split_name)
        split, residual = step.outputs
        drafts[position:position + 1] = [split, residual]
        apply_hints()
        steps.append(step)
        if {d.stored_set() for d in drafts} == before_sets:
            raise NoProgress(f"step on {step.input.name} did not change the scheme")


# --- instance-level checks --------------------------------------------------------------


def _project(columns, rows, onto):
    index = {c.casefold(): i for i, c in enumerate(columns)}
    missing = [c for c in onto if c.casefold() not in index]
    if missing:
        raise SchemaMismatch(f"instance lacks columns {missing}")
    picks = [index[c.casefold()] for c in onto]
    return {tuple(row[p] for p in picks) for row in rows}


def lossless_check(step: DecompositionStep, instance) -> bool:
    """Brute-force: project the instance onto each output's stored attributes,
    natural-join the projections on their shared attributes, and compare with
    the original rows as sets."""
    columns = list(instance.columns)
    rows = list(instance.rows)
    input_stored = step.input.stored
    if {c.casefold() for c in columns} != {c.casefold() for c in input_stored}:
        raise SchemaMismatch(
            f"instance columns {columns} do not match {step.input.name}'s stored"
            f" attributes {input_stored}")
    left_cols = step.outputs[0].stored
    right_cols = step.outputs[1].stored
    left = _project(columns, rows, left_cols)
    right = _project(columns, rows, right_cols)
    shared = [c for c in left_cols
              if c.casefold() in {x.casefold() for x in right_cols}]
    li = [i for i, c in enumerate(left_cols) if c.casefold() in {s.casefold() for s in shared}]
    ri = [i for i, c in enumerate(right_cols) if c.casefold() in {s.casefold() for s in shared}]
    joined = set()
    by_key = {}
    for row in right:
        by_key.setdefault(tuple(row[i] for i in ri), []).append(row)
    order = left_cols + [c for c in right_cols
                         if c.casefold() not in {x.casefold() for x in left_cols}]
    rpos = {c.casefold(): i for i, c in enumerate(right_cols)}
    for lrow in left:
        key = tuple(lrow[i] for i in li)
        for rrow in by_key.get(key, ()):
            merged = list(lrow) + [rrow[rpos[c.casefold()]] for c in order[len(left_cols):]]
            joined.add(tuple(merged))
    original = _project(columns, rows, order)
    return joined == original


def stored_value_count(schemes, instance) -> int:
    """Total stored values after projecting the instance onto every scheme's
    stored attributes and deduplicating."""
    total = 0
    for scheme in schemes:
        projected = _project(instance.columns, instance.rows, scheme.stored)
        total += len(projected) * len(scheme.stored)
    return total


# --- input/output ------------------------------------------------------------------------


def parse_dependency_file(text: str):
    """Parse the decompose input: a RELATION header, optional NAME hints,
    and one dependency per line (``A, B -> C`` or ``A ->> B | C``)."""
    universal = None
    fds, mvds = [], []
    hints = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("--"):
            continue
        upper = line.upper()
        if upper.startswith("RELATION "):
            name, attrs, types = _parse_header(line[len("RELATION "):], lineno)
            universal = make_universal(name, attrs, types)
        elif upper.startswith("NAME "):
            name, attrs, _ = _parse_header(line[len("NAME "):], lineno)
            hints[frozenset(a.casefold() for a in attrs)] = name
        elif "->>" in line:
            lhs, _, rest = line.partition("->>")
            branch, _, complement = rest.partition("|")
            mvds.append(MultivaluedDependency(
                lhs=tuple(_split_attrs(lhs)), branch=tuple(_split_attrs(branch))))
            if complement.strip() and universal is not None:
                declared = set(_split_attrs(complement.casefold()))
                expected = ({a.casefold() for a in universal.stored}
                            - {a.casefold() for a in _split_attrs(lhs)}
                            - {a.casefold() for a in _split_attrs(branch)})
                if {a.casefold() for a in declared} != expected:
                    raise ParseError(
                        f"complement on line {lineno} does not equal the remaining attributes")
        elif "->" in line:
            lhs, _, rhs = line.partition("->")
            fds.append(FunctionalDependency(
                lhs=tuple(_split_attrs(lhs)), rhs=tuple(_split_attrs(rhs))))
        else:
            raise ParseError(f"unrecognized dependency line {lineno}: {raw!r}")
    if universal is None:
        raise ParseError("missing RELATION header")
    return universal, fds, mvds, hints


def _split_attrs(text: str) -> list:
    return [a.strip().strip('"') for a in text.split(",") if a.strip()]


def _parse_header(text: str, lineno: int):
    text = text.strip()
    open_paren = text.find("(")
    if open_paren == -1 or not text.endswith(")"):
        raise ParseError(f"bad scheme header on line {lineno}: {text!r}")
    name = text[:open_paren].strip().strip('"')
    attrs, types = [], {}
    for piece in text[open_paren + 1:-1].split(","):
        words = piece.strip().split()
        if not words:
            continue
        attrs.append(words[0])
        if len(words) > 1:
            types[words[0].casefold()] = " ".join(words[1:])
    return name, attrs, types


def draft_to_ast(draft: SchemeDraft) -> n.CreateSirTable:
    elements: list = []
    for attr in draft.stored:
        elements.append(n.AttributeDecl(
            name=attr, sql_type=draft.types.get(attr.casefold(), "Char")))
    if draft.keys and draft.keys[0]:
        elements.append(n.PrimaryKeyClause(columns=list(draft.keys[0])))
    for ie in draft.ies:
        elements.append(ie.to_decl(draft.name))
    return n.CreateSirTable(name=draft.name, elements=elements)


def drafts_to_sirsql(drafts) -> str:
    """CREATE TABLE statements for the final drafts, referenced schemes
    first: the postorder of one `depth_first` walk over the drafts in order
    and, from each, the drafts its IEs read.  CircularReferenceError when
    drafts read each other (a split whose two sides inherit from each
    other), as no order of the statements would apply."""
    by_name = {d.name.casefold(): d for d in drafts}

    def reads(key):
        if key is None:
            return list(by_name)
        return [s for s in (ie.source.casefold() for ie in by_name[key].ies) if s in by_name]

    postorder, cycle = depth_first(None, reads)
    if cycle is not None:
        raise CircularReferenceError([by_name[key].name for key in cycle])
    return "\n".join(render_source(draft_to_ast(by_name[key])) for key in postorder[:-1]) + "\n"


def render_trace(steps) -> str:
    lines = []
    for index, step in enumerate(steps, start=1):
        verb = "multivalued split" if step.kind == "fagin" else "functional split"
        split, residual = step.outputs
        lines.append(f"{index}. {verb} of {step.input.name} on {step.dependency}")
        lines.append(f"   -> {split.name} ({', '.join(split.stored)}"
                     + (f" + inherited {', '.join(split.inherited())}" if split.ies else "")
                     + ")")
        lines.append(f"   -> {residual.name} ({', '.join(residual.stored)}"
                     + (f" + inherited {', '.join(residual.inherited())}" if residual.ies else "")
                     + ")")
        for note in step.notes:
            lines.append(f"   note: {note}")
    if not lines:
        return "already in 4NF; nothing to decompose\n"
    return "\n".join(lines) + "\n"
