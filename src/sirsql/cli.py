"""Command-line tool and REPL over one kernel database.

Exit codes: 0 success, 1 query/runtime failure, 2 DDL/semantic failure,
3 parse failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import CorruptCatalog, ParseError, SirSqlError, StaleCatalog
from .kernel import KernelConnection, RowSet
from .layer import SirLayer
from .lexer import OP, tokenize

EXIT_OK, EXIT_RUNTIME, EXIT_SEMANTIC, EXIT_PARSE = 0, 1, 2, 3


def format_rows(rows: RowSet, fmt: str = "table") -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows.columns)
        for row in rows.rows:
            writer.writerow(["" if v is None else v for v in row])
        return out.getvalue()
    if fmt == "json-lines":
        lines = [json.dumps(dict(zip(rows.columns, row)), default=str)
                 for row in rows.rows]
        return "\n".join(lines) + ("\n" if lines else "")
    # aligned table; NULL spelled out
    cells = [[("NULL" if v is None else str(v)) for v in row] for row in rows.rows]
    widths = [len(c) for c in rows.columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(parts):
        return "  ".join(part.ljust(widths[i]) for i, part in enumerate(parts)).rstrip()
    out = [line(rows.columns), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirsql",
        description="SQL dialect with inherited attributes, compiled onto an embedded kernel")
    parser.add_argument("--kernel", "-k", default=None,
                        help="kernel database location (default: $SIRSQL_KERNEL or :memory:)")
    parser.add_argument("--format", choices=["table", "csv", "json-lines"], default="table")
    parser.add_argument("--rewrite-to-base", action="store_true",
                        help="auto-rewrite cycle-closing IE references to the base table")
    parser.add_argument("--strict-integrity", action="store_true",
                        help="inserts commit only if every select-form IA computes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="execute a .sirsql script")
    p_apply.add_argument("file")

    p_query = sub.add_parser("query", help="run one SELECT")
    p_query.add_argument("sql")

    p_explain = sub.add_parser("explain", help="print the kernel's text of a relation's objects")
    p_explain.add_argument("relation")

    p_dec = sub.add_parser("decompose", help="normalize a universal scheme")
    p_dec.add_argument("file")
    p_dec.add_argument("--heath-first", action="store_true",
                       help="take functional splits before multivalued ones (demonstrably sub-optimal)")
    p_dec.add_argument("--output", "-o", default=None,
                       help="write the generated schema here instead of stdout")

    p_check = sub.add_parser("check", help="report recursive-join match-count violations"
                             " of a relation, or audit the whole catalog")
    target = p_check.add_mutually_exclusive_group(required=True)
    target.add_argument("relation", nargs="?")
    target.add_argument("--catalog", action="store_true",
                        help="parse every relation's scheme and check it against its meta rows")

    sub.add_parser("repl", help="interactive shell")
    return parser


def open_layer(args) -> SirLayer:
    location = args.kernel or os.environ.get("SIRSQL_KERNEL") or ":memory:"
    return SirLayer(KernelConnection(location), rewrite_to_base=args.rewrite_to_base,
                    strict_integrity=args.strict_integrity)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "decompose":
            return cmd_decompose(args)
        layer = open_layer(args)
        if args.command == "apply":
            return cmd_apply(layer, args)
        if args.command == "query":
            return cmd_query(layer, args)
        if args.command == "explain":
            return cmd_explain(layer, args)
        if args.command == "check":
            return cmd_check(layer, args)
        if args.command == "repl":
            return repl(layer, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SirSqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


def _describe(result) -> str:
    if result.rows is not None:
        return f"{len(result.rows)} rows"
    if result.objects:
        return "objects: " + ", ".join(result.objects)
    if result.rowcount is not None:
        return f"{result.rowcount} rows affected"
    return "ok"


def cmd_apply(layer: SirLayer, args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    try:
        from .parser import parse
        statements = parse(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for index, stmt in enumerate(statements, start=1):
        try:
            result = layer.apply_statement(stmt)
        except SirSqlError as exc:
            print(f"{index}: error: {exc}", file=sys.stderr)
            # refused for another session's DDL, not for the statement itself
            return EXIT_RUNTIME if isinstance(exc, StaleCatalog) else EXIT_SEMANTIC
        for warning in result.warnings:
            print(f"{index}: warning: {warning}", file=sys.stderr)
        print(f"{index}: ok {result.action}: {_describe(result)}")
        if result.rows is not None:
            print(format_rows(result.rows, args.format), end="")
    if statements:
        print(f"kernel objects: {len(layer.conn.object_names())}")
    return EXIT_OK


def cmd_query(layer: SirLayer, args) -> int:
    try:
        rows = layer.query(args.sql)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CorruptCatalog:
        raise                       # a catalog fault exits 2 through main
    except SirSqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(format_rows(rows, args.format), end="")
    return EXIT_OK


def cmd_explain(layer: SirLayer, args) -> int:
    for sql in layer.explain(args.relation):
        print(sql)
    return EXIT_OK


def cmd_check(layer: SirLayer, args) -> int:
    if args.catalog:
        layer.catalog.audit()       # CorruptCatalog exits 2 through main
        print(f"ok: {len(layer.catalog.entries())} relations")
        return EXIT_OK
    violations = layer.check(args.relation)
    if not violations:
        print("ok")
        return EXIT_OK
    for ie_name, key, count in violations:
        print(f"{ie_name}: key {key} matches {count} tuples")
    return EXIT_RUNTIME


def cmd_decompose(args) -> int:
    # imported here: no other command needs the normalizer
    from .normalizer import drafts_to_sirsql, normalize, parse_dependency_file, render_trace

    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    try:
        universal, fds, mvds, hints = parse_dependency_file(text)
        drafts, steps = normalize(universal, fds, mvds,
                                  heath_first=args.heath_first, name_hints=hints)
        schema = drafts_to_sirsql(drafts)
    except SirSqlError as exc:  # bad input, no 4NF fixpoint, a reference cycle: semantic failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(schema)
    else:
        print(schema, end="")
    print(render_trace(steps), end="")
    return EXIT_OK


HELP = """\
Statements end with ';'.  Dot commands:
  .schema [NAME]   show declared relations
  .explain NAME    show a relation's kernel plan
  .check NAME      run the recursive-join match-count check
  .help            this text
  .quit            leave
"""


def repl(layer: SirLayer, args) -> int:
    buffer = ""
    interactive = sys.stdin.isatty()
    while True:
        prompt = "sirsql> " if not buffer else "   ...> "
        try:
            line = input(prompt if interactive else "")
        except EOFError:
            if buffer.strip():
                print(f"error: incomplete statement at end of input: {buffer.strip()}",
                      file=sys.stderr)
            break
        if not buffer and line.strip().startswith("."):
            try:
                _dot_command(layer, args, line.strip())
            except EOFError:
                break
            continue
        buffer += line + "\n"
        state = _buffer_state(buffer)
        if state == "more":
            continue
        text, buffer = buffer, ""
        if state == "empty":
            continue
        try:
            for result in layer.apply_source(text):
                for warning in result.warnings:
                    print(f"warning: {warning}", file=sys.stderr)
                if result.rows is not None:
                    print(format_rows(result.rows, args.format), end="")
                else:
                    print(f"ok {result.action}: {_describe(result)}")
        except SirSqlError as exc:
            print(f"error: {exc}", file=sys.stderr)
    return EXIT_OK


def _buffer_state(text: str) -> str:
    """What the REPL does with the text typed so far, read as the lexer reads
    it: "more" while a string, quoted identifier or comment is open or the
    last token is not ';', "empty" when it holds only blanks and comments,
    "run" otherwise."""
    try:
        tokens = tokenize(text)
    except ParseError as exc:
        # more input can close an open literal or comment, never mend a stray character
        return "more" if str(exc).startswith("unterminated") else "run"
    if len(tokens) == 1:
        return "empty"
    last = tokens[-2]
    return "run" if last.kind == OP and last.value == ";" else "more"


def _dot_command(layer: SirLayer, args, line: str):
    parts = line.split()
    command, rest = parts[0], parts[1:]
    try:
        if command in (".quit", ".exit"):
            raise EOFError
        if command == ".help":
            print(HELP, end="")
        elif command == ".schema":
            entries = layer.catalog.entries()
            if rest:
                entries = [layer.catalog.get(rest[0])]
            for entry in entries:
                print(entry.source_text)
        elif command == ".explain" and rest:
            for sql in layer.explain(rest[0]):
                print(sql)
        elif command == ".check" and rest:
            violations = layer.check(rest[0])
            if not violations:
                print("ok")
            for ie_name, key, count in violations:
                print(f"{ie_name}: key {key} matches {count} tuples")
        else:
            print(f"unknown command {line!r}; try .help", file=sys.stderr)
    except EOFError:
        raise
    except SirSqlError as exc:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
