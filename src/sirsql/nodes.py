"""AST node types for the sirsql dialect.

Every node class derives from `Node`.  Equality ignores a statement's source
position, parse warnings and literal tokens, so round trips
(parse(render(parse(s))) == parse(s)) hold whatever the layout.  A node is
not changed once the parser has returned it: a rewrite goes through
`transform`, which copies only the nodes on a path to a change and shares
the rest with its input.  `walk` and `transform` are the only code that
lists a node's children.
"""

from __future__ import annotations

from operator import is_not

_LIST = object()        # the default of a list field: each node gets a fresh list
_SEQUENCES = (list, tuple)


class Node:
    """A subclass declares its fields as annotations with optional defaults,
    and gets `_fields`, ``__init__``, ``__eq__``, ``__repr__`` and `replace`.
    A class made with ``meta=True`` declares keyword-only fields outside equality."""

    _fields: tuple = ()         # compared, in declaration order
    _meta: tuple = ()           # keyword-only, not compared
    _defaults: dict = {}

    def __init_subclass__(cls, meta: bool = False):
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = dict(cls._defaults)
        for name in own:
            if name in cls.__dict__:
                cls._defaults[name] = cls.__dict__[name]
                delattr(cls, name)
        if meta:
            cls._meta += own
        else:
            cls._fields += own
        cls.__init__ = _make_init(cls)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields + self._meta)
        return f"{type(self).__name__}({args})"

    def replace(self, **changes):
        """A new node with `changes` applied; the other fields are shared."""
        values = {f: getattr(self, f) for f in self._fields + self._meta}
        return type(self)(**{**values, **changes})


def _make_init(cls):
    """Compile an ``__init__`` with one assignment per field: a loop over
    the fields would make a node cost more than twice as much to build."""
    env, params, body = {"_LIST": _LIST}, [], []
    for name in cls._fields + cls._meta:
        value = name
        if name not in cls._defaults:
            params.append(name)
        elif cls._defaults[name] == []:
            params.append(f"{name}=_LIST")
            value = f"[] if {name} is _LIST else {name}"
        else:
            env[f"_{name}"] = cls._defaults[name]
            params.append(f"{name}=_{name}")
        body.append(f"\n    self.{name} = {value}")
    if cls._meta:
        params.insert(len(cls._fields), "*")
    exec(f"def __init__(self, {', '.join(params)}):{''.join(body)}", env)
    return env["__init__"]


# --- expressions -----------------------------------------------------------

class Literal(Node):
    text: str          # lexeme as written, preserved for deterministic rendering
    kind: str          # 'number' | 'string' | 'null'

class ColumnRef(Node):
    name: str
    table: str | None = None

class Call(Node):
    func: str
    args: list
    star: bool = False          # COUNT(*)
    distinct: bool = False

class Unary(Node):
    op: str
    operand: object

class Binary(Node):
    op: str                     # =, <>, <, <=, >, >=, +, -, *, /, %, ||, AND, OR, LIKE
    left: object
    right: object

class IsNull(Node):
    operand: object
    negated: bool = False

class InList(Node):
    operand: object
    items: list                 # expressions, or a single Subquery
    negated: bool = False

class Paren(Node):
    inner: object

class Subquery(Node):
    select: "Select"

class Tuple(Node):
    """Row value, e.g. (a, b) IN (...); built by rewrites, not by the grammar."""
    items: list


# --- select ----------------------------------------------------------------

class Star(Node):
    qualifier: str | None = None

class StarMinus(Node):
    excluded: list              # list of ColumnRef; non-empty

class SelectItem(Node):
    expr: object                # expression | Star | StarMinus
    alias: str | None = None

class TableName(Node):
    name: str
    alias: str | None = None

class DerivedTable(Node):
    """FROM (SELECT ...) alias; built by rewrites, not by the grammar."""
    select: "Select"
    alias: str

class Join(Node):
    left: object                # TableName | Join | DerivedTable
    kind: str                   # 'inner' | 'left' | 'right'
    right: object
    on: object                  # expression

class OrderItem(Node):
    expr: object
    descending: bool = False

class Select(Node):
    items: list
    from_: list = []            # TableName | Join entries (comma list)
    where: object = None
    group_by: list = []
    order_by: list = []
    distinct: bool = False
    limit: str | None = None    # numeric lexeme from TOP n / LIMIT n


# --- schema elements -------------------------------------------------------

class AttributeDecl(Node):
    name: str
    sql_type: str
    type_args: list = []        # numeric lexemes, e.g. Decimal(10,2)
    is_primary_key: bool = False
    not_null: bool = False

class SelectForm(Node):
    select: Select

class ValueForm(Node):
    items: list                 # list of (name, expression)

class IeDecl(Node):
    name: str
    form: object                # SelectForm | ValueForm

class PrimaryKeyClause(Node):
    columns: list

class UniqueClause(Node):
    columns: list

class ForeignKeyClause(Node):
    columns: list
    ref_table: str
    ref_columns: list


# --- statements ------------------------------------------------------------

class _Positioned(Node, meta=True):
    """A statement's start in the source, the parser's warnings about it and
    the literal tokens (STRING and NUMBER) it was read from, in order."""
    line: int = 0
    col: int = 0
    warnings: list = []
    literals: list = []

class CreateSirTable(_Positioned):
    name: str
    elements: list              # AttributeDecl | IeDecl | key clauses, in source order

    @property
    def attributes(self):
        return [e for e in self.elements if isinstance(e, AttributeDecl)]

    @property
    def ies(self):
        return [e for e in self.elements if isinstance(e, IeDecl)]

    @property
    def is_sir(self):
        return bool(self.ies)

class CreateView(_Positioned):
    name: str
    select: Select

class AlterAdd(Node):
    position: tuple | None      # ('before'|'after', attr) or None
    items: list                 # AttributeDecl | IeDecl

class AlterIe(Node):
    target: str                 # existing IE or attribute name
    replacement: IeDecl

class AlterDrop(Node):
    target: str

class AlterTable(_Positioned):
    name: str
    action: object              # AlterAdd | AlterIe | AlterDrop

class DropTable(_Positioned):
    name: str
    mode: str = "restrict"      # 'restrict' | 'cascade'

class DropView(_Positioned):
    name: str

class CreateIndex(_Positioned):
    name: str
    table: str
    columns: list
    unique: bool = False

class DropIndex(_Positioned):
    name: str

class Query(_Positioned):
    select: Select

class Insert(_Positioned):
    table: str
    columns: list | None        # explicit column list or None
    source: object              # ValuesRows | Select

class ValuesRows(Node):
    rows: list                  # list of list of expressions

class Update(_Positioned):
    table: str
    assignments: list           # list of (column, expression)
    where: object = None

class Delete(_Positioned):
    table: str
    where: object = None


def walk(node):
    """Yield `node` and every node below it, depth-first in field order.
    Lists and tuples are looked into, such as the ``(name, expr)`` pairs of
    `ValueForm.items` and `Update.assignments`."""
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Node):
            yield item
            stack.extend(reversed([getattr(item, f) for f in item._fields]))
        elif type(item) in _SEQUENCES:
            stack.extend(reversed(item))


def transform(node, fn):
    """`node` rebuilt bottom-up: the children of each node are transformed
    first, then `fn` gets the node (a copy if a child changed) and returns it
    or its replacement.  Lists and tuples are reached as `walk` reaches them.
    A node, list or tuple in which nothing changed is returned as it is, so
    only the nodes on a path to a change are copied."""
    if isinstance(node, Node):
        changes = {}
        for name in node._fields:
            child = getattr(node, name)
            new = transform(child, fn)
            if new is not child:
                changes[name] = new
        return fn(node.replace(**changes) if changes else node)
    if type(node) in _SEQUENCES:
        new = [transform(item, fn) for item in node]
        if any(map(is_not, new, node)):
            return new if type(node) is list else tuple(new)
    return node
