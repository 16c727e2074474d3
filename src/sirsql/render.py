"""Render AST fragments back to SQL text.

The one kernel is SQLite, so kernel text has one spelling.  Two modes share
one walker:

* kernel mode (`render`) emits SQLite text.  It refuses dialect-only
  constructs (IE declarations, star-minus, CREATE TABLE with IEs) with
  UnrenderableNode -- those must be compiled away first -- quotes
  identifiers with ``"..."``, writes INT as a CAST, LIST and IIF as
  group_concat and iif, and TOP as a trailing LIMIT.
* source mode (`render_source`) emits sirsql dialect text, lossless enough
  that re-parsing yields an equal AST.  Used for catalog persistence and
  round-trip checks.

Output is deterministic: the same AST always yields byte-identical text.

Given a `params` list, kernel mode binds literals: it writes ``?`` and
appends the value, except for numbers `literal_value` keeps inline and where
the engine reads the literal's text (ORDER BY and GROUP BY take an integer as
a column number; an unaliased select item is named after its text).
"""

from __future__ import annotations

import re

from . import nodes as n
from .errors import UnrenderableNode
from .lexer import literal_value

_PLAIN_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_PLAIN_IDENT_SOURCE = re.compile(r"^[A-Za-z_][A-Za-z0-9_#$]*$")

_RESERVED = {
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "HAVING", "AS", "ON",
    "JOIN", "LEFT", "RIGHT", "INNER", "OUTER", "AND", "OR", "NOT", "IN",
    "IS", "NULL", "LIKE", "CREATE", "TABLE", "VIEW", "INDEX", "DROP",
    "ALTER", "ADD", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "PRIMARY", "KEY", "UNIQUE", "FOREIGN", "REFERENCES", "DISTINCT",
    "LIMIT", "TOP", "CASCADE", "RESTRICT", "CAST", "DESC", "ASC", "UNION",
    "DEFAULT", "CHECK", "CONSTRAINT", "EXISTS", "BETWEEN", "CASE", "WHEN",
    "THEN", "ELSE", "END", "TO", "TRANSACTION",
}

# dialect function -> the kernel's name for it
_KERNEL_FUNCS = {"LIST": "group_concat", "IIF": "iif"}


def quote_ident(name: str) -> str:
    """A kernel identifier, quoted only when it is not a plain word."""
    if _PLAIN_IDENT.match(name) and name.upper() not in _RESERVED:
        return name
    return '"' + name.replace('"', '""') + '"'


def render(node, params: list | None = None) -> str:
    """Kernel-dialect text for a statement or fragment; with `params`, the
    bindable literals are written as ``?`` and their values appended to it."""
    return _Renderer(source=False, params=params).render(node)


def render_source(node) -> str:
    """sirsql dialect text; round-trips through the parser."""
    return _Renderer(source=True).render(node)


class _Renderer:
    def __init__(self, source: bool, params: list | None = None):
        self.source = source
        self.params = params

    def render(self, node) -> str:
        method = getattr(self, "_" + type(node).__name__, None)
        if method is None:
            raise UnrenderableNode(f"cannot render {type(node).__name__}")
        return method(node)

    def ident(self, name: str) -> str:
        if not self.source:
            return quote_ident(name)
        if _PLAIN_IDENT_SOURCE.match(name) and name.upper() not in _RESERVED:
            return name
        return f'"{name}"'

    def inline(self, node) -> str:
        """`node` with every literal in it written out, not bound."""
        params, self.params = self.params, None
        text = self.render(node)
        self.params = params
        return text

    # --- expressions ---

    def _Literal(self, node):
        if self.params is not None and node.kind != "null":
            value = node.text if node.kind == "string" else literal_value(node.text)
            if value is not None:
                self.params.append(value)
                return "?"
        if node.kind == "string":
            return "'" + node.text.replace("'", "''") + "'"
        if node.kind == "null":
            return "NULL"
        return node.text

    def _ColumnRef(self, node):
        if node.table:
            return f"{self.ident(node.table)}.{self.ident(node.name)}"
        return self.ident(node.name)

    def _Call(self, node):
        func = node.func
        upper = func.upper()
        if not self.source:
            if upper == "INT":
                if len(node.args) != 1:
                    raise UnrenderableNode("integer cast takes one argument")
                return f"CAST({self.render(node.args[0])} AS INTEGER)"
            func = _KERNEL_FUNCS.get(upper, func)
        if node.star:
            return f"{func}(*)"
        inner = ", ".join(self.render(a) for a in node.args)
        if node.distinct:
            inner = "DISTINCT " + inner
        return f"{func}({inner})"

    def _Unary(self, node):
        if node.op == "NOT":
            return f"NOT {self.render(node.operand)}"
        operand = self.render(node.operand)
        if node.op == "-" and operand.startswith("-"):
            return f"- {operand}"       # "--" would open a comment
        return f"{node.op}{operand}"

    def _Binary(self, node):
        return f"{self.render(node.left)} {node.op} {self.render(node.right)}"

    def _IsNull(self, node):
        verb = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{self.render(node.operand)} {verb}"

    def _InList(self, node):
        verb = "NOT IN" if node.negated else "IN"
        if len(node.items) == 1 and isinstance(node.items[0], n.Subquery):
            inner = self._select_text(node.items[0].select)
        else:
            inner = ", ".join(self.render(i) for i in node.items)
        return f"{self.render(node.operand)} {verb} ({inner})"

    def _Paren(self, node):
        return f"({self.render(node.inner)})"

    def _Subquery(self, node):
        return f"({self._select_text(node.select)})"

    def _Tuple(self, node):
        return "(" + ", ".join(self.render(i) for i in node.items) + ")"

    # --- select ---

    def _Star(self, node):
        if node.qualifier:
            return f"{self.ident(node.qualifier)}.*"
        return "*"

    def _StarMinus(self, node):
        if not self.source:
            raise UnrenderableNode("star-minus must be expanded before kernel rendering")
        if not node.excluded:
            raise UnrenderableNode("star-minus with empty exclusion list")
        if len(node.excluded) == 1:
            return f"*/{self.render(node.excluded[0])}"
        return "*/(" + ", ".join(self.render(e) for e in node.excluded) + ")"

    def _SelectItem(self, node):
        if not node.alias:
            return self.inline(node.expr)
        return f"{self.render(node.expr)} AS {self.ident(node.alias)}"

    def _TableName(self, node):
        text = self.ident(node.name)
        if node.alias:
            text += f" {self.ident(node.alias)}"
        return text

    def _DerivedTable(self, node):
        return f"({self._select_text(node.select)}) {self.ident(node.alias)}"

    def _Join(self, node):
        verbs = {"inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN"}
        return (f"{self.render(node.left)} {verbs[node.kind]} {self.render(node.right)}"
                f" ON {self.render(node.on)}")

    def _select_text(self, sel: n.Select) -> str:
        if not sel.items:
            raise UnrenderableNode("select list is empty")
        parts = ["SELECT"]
        if sel.distinct:
            parts.append("DISTINCT")
        if sel.limit is not None and self.source:
            parts.append(f"TOP {sel.limit}")
        parts.append(", ".join(self.render(i) for i in sel.items))
        if sel.from_:
            parts.append("FROM " + ", ".join(self.render(t) for t in sel.from_))
        if sel.where is not None:
            parts.append("WHERE " + self.render(sel.where))
        if sel.group_by:
            parts.append("GROUP BY " + ", ".join(self.inline(e) for e in sel.group_by))
        if sel.order_by:
            rendered = []
            for item in sel.order_by:
                rendered.append(self.inline(item.expr) + (" DESC" if item.descending else ""))
            parts.append("ORDER BY " + ", ".join(rendered))
        if sel.limit is not None and not self.source:
            parts.append(f"LIMIT {sel.limit}")
        return " ".join(parts)

    def _Select(self, node):
        return self._select_text(node)

    # --- statements ---

    def _Query(self, node):
        return self._select_text(node.select) + ";"

    def _CreateView(self, node):
        return f"CREATE VIEW {self.ident(node.name)} AS {self._select_text(node.select)};"

    def _CreateSirTable(self, node):
        if node.ies and not self.source:
            raise UnrenderableNode(
                f"table {node.name} has inheritance expressions; compile it first")
        elements = ", ".join(self.render(e) for e in node.elements)
        return f"CREATE TABLE {self.ident(node.name)} ({elements});"

    def _AttributeDecl(self, node):
        text = f"{self.ident(node.name)} {node.sql_type}"
        if node.type_args:
            text += "(" + ", ".join(node.type_args) + ")"
        if node.is_primary_key:
            text += " PRIMARY KEY"
        if node.not_null:
            text += " NOT NULL"
        return text

    def _PrimaryKeyClause(self, node):
        return "PRIMARY KEY (" + ", ".join(self.ident(c) for c in node.columns) + ")"

    def _UniqueClause(self, node):
        return "UNIQUE (" + ", ".join(self.ident(c) for c in node.columns) + ")"

    def _ForeignKeyClause(self, node):
        text = "FOREIGN KEY (" + ", ".join(self.ident(c) for c in node.columns) + ")"
        text += f" REFERENCES {self.ident(node.ref_table)}"
        if node.ref_columns:
            text += " (" + ", ".join(self.ident(c) for c in node.ref_columns) + ")"
        return text

    def _IeDecl(self, node):
        if not self.source:
            raise UnrenderableNode("IE declarations cannot reach the kernel")
        if isinstance(node.form, n.SelectForm):
            return f"{self.ident(node.name)} ({self._select_text(node.form.select)})"
        items = node.form.items
        if len(items) == 1 and items[0][0] == node.name:
            return f"{self.ident(node.name)} AS ({self.render(items[0][1])})"
        body = ", ".join(f"{self.render(expr)} AS {self.ident(name)}" for name, expr in items)
        return f"{self.ident(node.name)} ({body})"

    def _AlterTable(self, node):
        head = f"ALTER TABLE {self.ident(node.name)}"
        action = node.action
        if isinstance(action, n.AlterAdd):
            pos = ""
            if action.position:
                pos = f" {action.position[0].upper()} {self.ident(action.position[1])}"
            items = ", ".join(self.render(i) for i in action.items)
            return f"{head} ADD{pos} {items};"
        if isinstance(action, n.AlterIe):
            return f"{head} ALTER {self.ident(action.target)} AS {self.render(action.replacement)};"
        return f"{head} DROP {self.ident(action.target)};"

    def _DropTable(self, node):
        suffix = " CASCADE" if node.mode == "cascade" else ""
        return f"DROP TABLE {self.ident(node.name)}{suffix};"

    def _DropView(self, node):
        return f"DROP VIEW {self.ident(node.name)};"

    def _DropIndex(self, node):
        return f"DROP INDEX {self.ident(node.name)};"

    def _CreateIndex(self, node):
        unique = "UNIQUE " if node.unique else ""
        cols = ", ".join(self.ident(c) for c in node.columns)
        return (f"CREATE {unique}INDEX {self.ident(node.name)}"
                f" ON {self.ident(node.table)} ({cols});")

    def _Insert(self, node):
        text = f"INSERT INTO {self.ident(node.table)}"
        if node.columns:
            text += " (" + ", ".join(self.ident(c) for c in node.columns) + ")"
        if isinstance(node.source, n.ValuesRows):
            rows = ", ".join(
                "(" + ", ".join(self.render(v) for v in row) + ")"
                for row in node.source.rows)
            return f"{text} VALUES {rows};"
        return f"{text} {self._select_text(node.source)};"

    def _Update(self, node):
        sets = ", ".join(f"{self.ident(c)} = {self.render(e)}" for c, e in node.assignments)
        text = f"UPDATE {self.ident(node.table)} SET {sets}"
        if node.where is not None:
            text += " WHERE " + self.render(node.where)
        return text + ";"

    def _Delete(self, node):
        text = f"DELETE FROM {self.ident(node.table)}"
        if node.where is not None:
            text += " WHERE " + self.render(node.where)
        return text + ";"
