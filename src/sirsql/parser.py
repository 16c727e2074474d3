"""Recursive-descent parser for the sirsql dialect.

The grammar is a fixed SQL subset extended with inheritance expressions
(IEs) in CREATE TABLE / ALTER TABLE and the star-minus select item
``*/A`` or ``*/(A1, ..., An)``.  Each match_* method starts on the first
token of its fragment and leaves the cursor one past the last token.
"""

from __future__ import annotations

from . import nodes as n
from .errors import ParseError
from .lexer import EOF, IDENT, NUMBER, OP, STRING, Token, tokenize

_JOIN_KINDS = {"JOIN": "inner", "INNER": "inner", "LEFT": "left", "RIGHT": "right"}

# words that terminate an expression / cannot begin an alias
_CLAUSE_WORDS = {
    "FROM", "WHERE", "GROUP", "ORDER", "HAVING", "ON", "AND", "OR", "NOT",
    "AS", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "VALUES", "SET",
    "LIMIT", "TOP", "DESC", "ASC", "BY", "IN", "IS", "LIKE", "NULL",
    "SELECT", "DISTINCT", "UNION", "CASCADE", "RESTRICT",
}

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_LITERALS = (STRING, NUMBER)

# Nesting levels an expression may have: each parenthesis, subquery, function
# call, IN list and prefix operator opens one.  A level costs up to a dozen
# Python frames here and more in the later passes, so the limit keeps every
# pass well inside the interpreter's default recursion limit of 1000.
MAX_EXPRESSION_DEPTH = 64
# Operators an expression may chain on one path: a binary operator, IS
# [NOT] NULL or [NOT] IN takes what stands on its left as its operand, so
# `1 + 1 + 1` or `A = 1 Or A = 2 Or A = 3` is a tree as deep as its chain,
# which the later passes walk one call a level.  With the levels above,
# the limit keeps route, `n.transform` and render inside the default
# recursion limit; node equality, three frames a level, holds a chain at
# the limit and overflows near 250.
MAX_OPERATOR_CHAIN = 200


def parse(source: str) -> list:
    """Parse UTF-8 source into a list of statements, preserving order."""
    return Parser(tokenize(source)).parse_statements()


def parse_one(source: str):
    stmts = Parser(tokenize(source)).parse_statements()
    if len(stmts) != 1:
        raise ParseError(f"expected exactly one statement, got {len(stmts)}")
    return stmts[0]


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.height = 0     # operators on the longest path of what was just read
        self.warnings: list[str] = []

    # --- cursor helpers ---

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.tokens[self.pos + ahead]
        except IndexError:
            return self.tokens[-1]      # EOF

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_word(self, *words: str) -> bool:
        """Whether the current token is one of `words`, given in upper case."""
        tok = self.peek()
        return tok.kind == IDENT and not tok.quoted and tok.value.upper() in words

    def accept_word(self, word: str) -> bool:
        if self.at_word(word):
            self.advance()
            return True
        return False

    def expect_word(self, *words: str) -> Token:
        for word in words:
            if self.at_word(word):
                return self.advance()
        tok = self.peek()
        raise ParseError(f"unexpected {tok.value!r}" if tok.kind != EOF else "unexpected end of input",
                         tok.line, tok.col, expected=set(words))

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok.kind == OP and tok.value == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind == OP and tok.value == op:
            return self.advance()
        raise ParseError(f"unexpected {tok.value!r}" if tok.kind != EOF else "unexpected end of input",
                         tok.line, tok.col, expected={op})

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col, expected={kind})
        return self.advance()

    def expect_name(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != IDENT:
            raise ParseError(f"expected {what}, got {tok.value!r}" if tok.kind != EOF
                             else f"expected {what}, got end of input",
                             tok.line, tok.col, expected={IDENT})
        self.advance()
        return tok.value

    # --- statements ---

    def parse_statements(self) -> list:
        statements = []
        while self.peek().kind != EOF:
            if self.accept_op(";"):
                continue
            first, start = self.pos, self.peek()
            self.warnings = []
            stmt = self.match_statement()
            stmt.line, stmt.col = start.line, start.col
            stmt.warnings = self.warnings
            stmt.literals = [tok for tok in self.tokens[first:self.pos] if tok.kind in _LITERALS]
            if self.peek().kind == EOF:
                raise ParseError("unterminated statement (missing ';')", start.line, start.col)
            self.expect_op(";")
            statements.append(stmt)
        return statements

    def match_statement(self):
        tok = self.peek()
        if tok.matches("CREATE"):
            return self.match_create()
        if tok.matches("ALTER"):
            return self.match_alter()
        if tok.matches("DROP"):
            return self.match_drop()
        if tok.matches("SELECT"):
            return n.Query(select=self.match_select())
        if tok.matches("INSERT"):
            return self.match_insert()
        if tok.matches("UPDATE"):
            return self.match_update()
        if tok.matches("DELETE"):
            return self.match_delete()
        raise ParseError(f"unexpected {tok.value!r}" if tok.kind != EOF else "unexpected end of input",
                         tok.line, tok.col,
                         expected={"CREATE", "ALTER", "DROP", "SELECT", "INSERT", "UPDATE", "DELETE"})

    # --- CREATE ---

    def match_create(self):
        self.expect_word("CREATE")
        kind = self.expect_word("TABLE", "VIEW", "UNIQUE", "INDEX").value.upper()
        if kind == "TABLE":
            return self.match_create_table()
        if kind == "VIEW":
            name = self.expect_name("view name")
            self.expect_word("AS")
            return n.CreateView(name=name, select=self.match_select())
        unique = kind == "UNIQUE"
        if unique:
            self.expect_word("INDEX")
        name = self.expect_name("index name")
        self.expect_word("ON")
        table = self.expect_name("table name")
        self.expect_op("(")
        columns = self.match_name_list()
        self.expect_op(")")
        return n.CreateIndex(name=name, table=table, columns=columns, unique=unique)

    def match_create_table(self):
        name = self.expect_name("table name")
        self.expect_op("(")
        elements = []
        seen = {}
        while True:
            element = self.match_table_element()
            if isinstance(element, (n.AttributeDecl, n.IeDecl)):
                key = element.name.casefold()
                if key in seen:
                    tok = self.peek()
                    raise ParseError(f"duplicate attribute or IE name {element.name!r} in table {name}",
                                     tok.line, tok.col)
                seen[key] = element
            elements.append(element)
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return n.CreateSirTable(name=name, elements=elements)

    def match_table_element(self):
        if self.at_word("PRIMARY"):
            self.advance()
            self.expect_word("KEY")
            self.expect_op("(")
            cols = self.match_name_list()
            self.expect_op(")")
            return n.PrimaryKeyClause(columns=cols)
        if self.at_word("UNIQUE"):
            self.advance()
            self.expect_op("(")
            cols = self.match_name_list()
            self.expect_op(")")
            return n.UniqueClause(columns=cols)
        if self.at_word("FOREIGN"):
            self.advance()
            self.expect_word("KEY")
            self.expect_op("(")
            cols = self.match_name_list()
            self.expect_op(")")
            self.expect_word("REFERENCES")
            ref = self.expect_name("referenced table")
            ref_cols = []
            if self.accept_op("("):
                ref_cols = self.match_name_list()
                self.expect_op(")")
            return n.ForeignKeyClause(columns=cols, ref_table=ref, ref_columns=ref_cols)
        name = self.expect_name("attribute or IE name")
        if self.at_word("AS"):
            # NAME As (value-expression)
            self.advance()
            self.expect_op("(")
            expr = self.match_expression()
            self.expect_op(")")
            ie = n.IeDecl(name=name, form=n.ValueForm(items=[(name, expr)]))
            self.skip_trailing_from(ie)
            return ie
        if self.peek().kind == OP and self.peek().value == "(" and self.peek(1).matches("SELECT"):
            # NAME (SELECT ...)
            self.advance()
            select = self.match_select()
            self.expect_op(")")
            ie = n.IeDecl(name=name, form=n.SelectForm(select=select))
            self.skip_trailing_from(ie)
            return ie
        return self.match_attribute_tail(name)

    def skip_trailing_from(self, ie):
        # Some declarations append a stray "FROM <rel>" after the IE's closing
        # parenthesis; it carries no meaning here, so we drop it with a warning.
        if self.at_word("FROM"):
            self.advance()
            rel = self.expect_name("relation name")
            self.warnings.append(f"ignored trailing 'FROM {rel}' after IE {ie.name}")

    def match_attribute_tail(self, name: str) -> n.AttributeDecl:
        sql_type = self.expect_name("type name")
        type_args = []
        if self.accept_op("("):
            while True:
                type_args.append(self.expect_kind(NUMBER).value)
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        decl = n.AttributeDecl(name=name, sql_type=sql_type, type_args=type_args)
        while True:
            if self.at_word("PRIMARY"):
                self.advance()
                self.expect_word("KEY")
                decl.is_primary_key = True
            elif self.at_word("NOT"):
                self.advance()
                self.expect_word("NULL")
                decl.not_null = True
            else:
                break
        return decl

    # --- ALTER ---

    def match_alter(self):
        self.expect_word("ALTER")
        self.expect_word("TABLE")
        name = self.expect_name("table name")
        if self.accept_word("ADD"):
            position = None
            if self.at_word("AFTER") or self.at_word("BEFORE"):
                where = self.advance().value.lower()
                position = (where, self.expect_name("attribute name"))
            items = []
            while True:
                item = self.match_table_element()
                if not isinstance(item, (n.AttributeDecl, n.IeDecl)):
                    tok = self.peek()
                    raise ParseError("ALTER ... ADD takes attribute or IE declarations",
                                     tok.line, tok.col)
                items.append(item)
                if not self.accept_op(","):
                    break
            return n.AlterTable(name=name, action=n.AlterAdd(position=position, items=items))
        if self.accept_word("ALTER"):
            target = self.expect_name("attribute or IE name")
            self.expect_word("AS")
            tok = self.peek()
            replacement = self.match_table_element()
            if not isinstance(replacement, n.IeDecl):
                raise ParseError("ALTER ... ALTER ... AS takes an IE declaration",
                                 tok.line, tok.col)
            return n.AlterTable(name=name, action=n.AlterIe(target=target, replacement=replacement))
        if self.accept_word("DROP"):
            target = self.expect_name("attribute or IE name")
            return n.AlterTable(name=name, action=n.AlterDrop(target=target))
        tok = self.peek()
        raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col,
                         expected={"ADD", "ALTER", "DROP"})

    # --- DROP ---

    def match_drop(self):
        self.expect_word("DROP")
        kind = self.expect_word("TABLE", "VIEW", "INDEX").value.upper()
        if kind == "VIEW":
            return n.DropView(name=self.expect_name("view name"))
        if kind == "INDEX":
            return n.DropIndex(name=self.expect_name("index name"))
        name = self.expect_name("table name")
        mode = "restrict"
        if self.accept_word("CASCADE"):
            mode = "cascade"
        elif self.accept_word("RESTRICT"):
            mode = "restrict"
        return n.DropTable(name=name, mode=mode)

    # --- DML ---

    def match_insert(self):
        self.expect_word("INSERT")
        self.accept_word("INTO")
        table = self.expect_name("table name")
        columns = None
        if self.peek().kind == OP and self.peek().value == "(" and not self.peek(1).matches("SELECT"):
            self.advance()
            columns = self.match_name_list()
            self.expect_op(")")
        if self.accept_word("VALUES"):
            rows = []
            while True:
                self.expect_op("(")
                row = [self.match_expression()]
                while self.accept_op(","):
                    row.append(self.match_expression())
                self.expect_op(")")
                rows.append(row)
                if not self.accept_op(","):
                    break
            return n.Insert(table=table, columns=columns, source=n.ValuesRows(rows=rows))
        if self.accept_op("("):
            select = self.match_select()
            self.expect_op(")")
            return n.Insert(table=table, columns=columns, source=select)
        if self.at_word("SELECT"):
            return n.Insert(table=table, columns=columns, source=self.match_select())
        tok = self.peek()
        raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col,
                         expected={"VALUES", "SELECT"})

    def match_update(self):
        self.expect_word("UPDATE")
        table = self.expect_name("table name")
        self.expect_word("SET")
        assignments = []
        while True:
            col = self.expect_name("column name")
            self.expect_op("=")
            assignments.append((col, self.match_expression()))
            if not self.accept_op(","):
                break
        where = self.match_expression() if self.accept_word("WHERE") else None
        return n.Update(table=table, assignments=assignments, where=where)

    def match_delete(self):
        self.expect_word("DELETE")
        self.accept_word("FROM")
        table = self.expect_name("table name")
        where = self.match_expression() if self.accept_word("WHERE") else None
        return n.Delete(table=table, where=where)

    # --- SELECT ---

    def match_select(self) -> n.Select:
        self.expect_word("SELECT")
        distinct = bool(self.accept_word("DISTINCT"))
        limit = None
        if self.accept_word("TOP"):
            limit = self.expect_kind(NUMBER).value
        items = [self.match_select_item()]
        while self.accept_op(","):
            items.append(self.match_select_item())
        from_ = []
        if self.accept_word("FROM"):
            from_.append(self.match_table_ref())
            while self.accept_op(","):
                from_.append(self.match_table_ref())
        where = self.match_expression() if self.accept_word("WHERE") else None
        group_by = []
        if self.accept_word("GROUP"):
            self.expect_word("BY")
            group_by.append(self.match_expression())
            while self.accept_op(","):
                group_by.append(self.match_expression())
        order_by = []
        if self.accept_word("ORDER"):
            self.expect_word("BY")
            while True:
                expr = self.match_expression()
                descending = False
                if self.accept_word("DESC"):
                    descending = True
                else:
                    self.accept_word("ASC")
                order_by.append(n.OrderItem(expr=expr, descending=descending))
                if not self.accept_op(","):
                    break
        if self.accept_word("LIMIT"):
            limit = self.expect_kind(NUMBER).value
        return n.Select(items=items, from_=from_, where=where, group_by=group_by,
                        order_by=order_by, distinct=distinct, limit=limit)

    def match_select_item(self) -> n.SelectItem:
        tok = self.peek()
        if tok.kind == OP and tok.value == "*":
            self.advance()
            if self.accept_op("/"):
                excluded = []
                if self.accept_op("("):
                    excluded.append(self.match_column_ref())
                    while self.accept_op(","):
                        excluded.append(self.match_column_ref())
                    self.expect_op(")")
                else:
                    excluded.append(self.match_column_ref())
                return n.SelectItem(expr=n.StarMinus(excluded=excluded))
            return n.SelectItem(expr=n.Star())
        # qualified star: T.*
        if (tok.kind == IDENT and self.peek(1).kind == OP and self.peek(1).value == "."
                and self.peek(2).kind == OP and self.peek(2).value == "*"):
            self.advance()
            self.advance()
            self.advance()
            return n.SelectItem(expr=n.Star(qualifier=tok.value))
        expr = self.match_expression()
        alias = None
        if self.accept_word("AS"):
            alias = self.expect_name("alias")
        return n.SelectItem(expr=expr, alias=alias)

    def match_column_ref(self) -> n.ColumnRef:
        first = self.expect_name("column name")
        if self.accept_op("."):
            return n.ColumnRef(name=self.expect_name("column name"), table=first)
        return n.ColumnRef(name=first)

    def match_table_ref(self):
        """A FROM entry read from height 0, as `match_expression` reads an
        expression.  Each JOIN is an operator over what stands on its left
        and its table; the entry is then as high as the taller of that and
        the JOIN's ON expression."""
        before, self.height = self.height, 0
        ref = self.match_table_primary()
        while self.at_word("JOIN", "INNER", "LEFT", "RIGHT"):
            tok = self.peek()
            below = self.advance_operator()
            kind = tok.value.lower()
            if kind in ("left", "right"):
                self.accept_word("OUTER")
            if kind != "join":
                self.expect_word("JOIN")
            right = self.match_table_primary()
            self.rise(tok, below)
            self.expect_word("ON")
            on = self.match_expression()
            ref = n.Join(left=ref, kind="inner" if kind == "join" else kind, right=right, on=on)
        self.height = max(before, self.height)
        return ref

    def match_table_primary(self) -> n.TableName:
        name = self.expect_name("relation name")
        alias = None
        if self.accept_word("AS"):
            alias = self.expect_name("alias")
        elif (self.peek().kind == IDENT
              and self.peek().value.upper() not in _CLAUSE_WORDS):
            alias = self.advance().value
        return n.TableName(name=name, alias=alias)

    def match_name_list(self) -> list[str]:
        names = [self.expect_name("name")]
        while self.accept_op(","):
            names.append(self.expect_name("name"))
        return names

    # --- expressions (precedence climbing) ---

    def descend(self, tok: Token):
        """Open one expression nesting level at `tok`; the caller closes it
        with `self.depth -= 1`.  A ParseError ends the parse, so a level left
        open by one is never read."""
        if self.depth == MAX_EXPRESSION_DEPTH:
            raise ParseError(f"expression nested more than {MAX_EXPRESSION_DEPTH} levels deep",
                             tok.line, tok.col)
        self.depth += 1

    def advance_operator(self) -> int:
        """Advance past an operator; return the height of its left operand
        and start its right operand at height 0."""
        self.advance()
        below, self.height = self.height, 0
        return below

    def rise(self, tok: Token, below: int):
        """Set the height to that of the operator at `tok` over operands of
        heights `below` and the current one; ParseError past
        `MAX_OPERATOR_CHAIN`."""
        self.height = max(below, self.height) + 1
        if self.height > MAX_OPERATOR_CHAIN:
            raise ParseError(f"operators chained more than {MAX_OPERATOR_CHAIN} deep",
                             tok.line, tok.col)

    def match_expression(self):
        """An expression read from height 0; the height is then the larger of
        its own and the one before, so the height of a call, an IN list or
        a subquery is that of its tallest expression."""
        before, self.height = self.height, 0
        expr = self.match_or()
        self.height = max(before, self.height)
        return expr

    def match_or(self):
        left = self.match_and()
        while (tok := self.peek()).matches("OR"):
            below = self.advance_operator()
            left = n.Binary(op="OR", left=left, right=self.match_and())
            self.rise(tok, below)
        return left

    def match_and(self):
        left = self.match_not()
        while (tok := self.peek()).matches("AND"):
            below = self.advance_operator()
            left = n.Binary(op="AND", left=left, right=self.match_not())
            self.rise(tok, below)
        return left

    def match_not(self):
        if self.at_word("NOT"):
            self.descend(self.advance())
            operand = self.match_not()
            self.depth -= 1
            return n.Unary(op="NOT", operand=operand)
        return self.match_comparison()

    def match_comparison(self):
        left = self.match_additive()
        while True:
            tok = self.peek()
            if tok.kind == OP and tok.value in _COMPARISONS:
                below = self.advance_operator()
                left = n.Binary(op=tok.value, left=left, right=self.match_additive())
            elif tok.matches("LIKE"):
                below = self.advance_operator()
                left = n.Binary(op="LIKE", left=left, right=self.match_additive())
            elif tok.matches("IS"):
                below = self.advance_operator()
                negated = bool(self.accept_word("NOT"))
                self.expect_word("NULL")
                left = n.IsNull(operand=left, negated=negated)
            elif tok.matches("IN") or (tok.matches("NOT") and self.peek(1).matches("IN")):
                negated = tok.matches("NOT")
                below = self.advance_operator()
                if negated:
                    self.expect_word("IN")
                self.descend(self.expect_op("("))
                if self.at_word("SELECT"):
                    items = [n.Subquery(select=self.match_select())]
                else:
                    items = [self.match_expression()]
                    while self.accept_op(","):
                        items.append(self.match_expression())
                self.expect_op(")")
                self.depth -= 1
                left = n.InList(operand=left, items=items, negated=negated)
            else:
                return left
            self.rise(tok, below)

    def match_additive(self):
        left = self.match_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == OP and tok.value in ("+", "-", "||"):
                below = self.advance_operator()
                left = n.Binary(op=tok.value, left=left, right=self.match_multiplicative())
                self.rise(tok, below)
            else:
                return left

    def match_multiplicative(self):
        left = self.match_unary()
        while True:
            tok = self.peek()
            if tok.kind == OP and tok.value in ("*", "/", "%"):
                below = self.advance_operator()
                left = n.Binary(op=tok.value, left=left, right=self.match_unary())
                self.rise(tok, below)
            else:
                return left

    def match_unary(self):
        tok = self.peek()
        if tok.kind == OP and tok.value in ("-", "+"):
            self.descend(self.advance())
            operand = self.match_unary()
            self.depth -= 1
            return n.Unary(op=tok.value, operand=operand)
        return self.match_primary()

    def match_primary(self):
        tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            return n.Literal(text=tok.value, kind="number")
        if tok.kind == STRING:
            self.advance()
            return n.Literal(text=tok.value, kind="string")
        if tok.matches("NULL"):
            self.advance()
            return n.Literal(text="NULL", kind="null")
        if tok.kind == OP and tok.value == "(":
            self.descend(self.advance())
            if self.at_word("SELECT"):
                node = n.Subquery(select=self.match_select())
            else:
                node = n.Paren(inner=self.match_expression())
            self.expect_op(")")
            self.depth -= 1
            return node
        if tok.kind == IDENT:
            # function call: IDENT (
            if self.peek(1).kind == OP and self.peek(1).value == "(" and not tok.quoted:
                func = self.advance().value
                self.advance()  # (
                if self.accept_op("*"):
                    self.expect_op(")")
                    return n.Call(func=func, args=[], star=True)
                self.descend(tok)
                distinct = bool(self.accept_word("DISTINCT"))
                args = []
                if not self.accept_op(")"):
                    if self.at_word("SELECT"):
                        args.append(n.Subquery(select=self.match_select()))
                    else:
                        args.append(self.match_expression())
                    while self.accept_op(","):
                        args.append(self.match_expression())
                    self.expect_op(")")
                self.depth -= 1
                return n.Call(func=func, args=args, distinct=distinct)
            self.advance()
            if self.accept_op("."):
                return n.ColumnRef(name=self.expect_name("column name"), table=tok.value)
            return n.ColumnRef(name=tok.value)
        raise ParseError(f"unexpected {tok.value!r}" if tok.kind != EOF else "unexpected end of input",
                         tok.line, tok.col,
                         expected={"expression"})
