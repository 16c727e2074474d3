"""Spans at sirsql's module boundaries, recorded from outside the program.

`Tracer.install()` wraps the public functions each module exposes (listed in
TARGETS).  `layer.py`, `catalog.py` and `compiler.py` bind some of them into
their own namespaces with `from .x import y`, so every loaded sirsql module
that holds the original function gets the wrapper, not only the defining
one.  `uninstall()` puts the originals back.

Each span records its name, start, end, parent and the operation (one
dialect statement, session open or CLI run) it belongs to.  Spans stay in
memory until `dump()` writes them out.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module under sirsql, attribute); the span is named "<module>.<function>"
TARGETS = [
    ("parser", "parse"), ("parser", "parse_one"),
    ("router", "route"),
    ("render", "render"), ("render", "render_source"),
    ("compiler", "compile_sir"), ("compiler", "alter_steps"),
    ("compiler", "recompile_steps"), ("compiler", "plan_drop"),
    ("catalog", "Catalog.load"), ("catalog", "Catalog.persist"),
    ("catalog", "Catalog.persist_replace"), ("catalog", "Catalog.persist_remove"),
    ("catalog", "Catalog.resolve_columns"), ("catalog", "Catalog.check_acyclic"),
    ("kernel", "KernelConnection.execute"), ("kernel", "KernelConnection.query"),
    ("kernel", "KernelConnection.within_transaction"),
    ("kernel", "KernelConnection.object_kind"),
    ("layer", "SirLayer.apply_statement"), ("layer", "SirLayer.apply_source"),
    ("layer", "SirLayer.query"),
]
ROOT = "op"
VM_TICK = 1000          # sqlite3 VM instructions per progress-handler call
PLANNED = ("SELECT", "INSERT", "UPDATE", "DELETE")


def _note(name):
    """What a span keeps of its call besides timing, by span name."""
    if name in ("parser.parse", "parser.parse_one"):
        return lambda args, result: len(args[0])
    if name == "router.route":
        return lambda args, result: result.kind
    if name == "render.render":
        return lambda args, result: len(result)
    if name == "kernel.execute":
        return lambda args, result: len(result.rows) if hasattr(result, "rows") else 0
    if name in ("compiler.alter_steps", "compiler.recompile_steps"):
        return lambda args, result: len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []         # (sid, parent, op, name, start_ns, end_ns, self_ns, note)
        self.op_classes = []    # op id -> operation class
        self.first_sql = {}     # operation class -> first kernel query or DML it ran
        self._stack = []        # open spans: [sid, start_ns, child_ns]
        self._ticks = [0]       # progress-handler calls so far
        self._op_ticks = 0      # ... when the current operation began
        self._restore = []
        self.active = True      # off while the benchmark checks results
        self._planned = False

    # --- spans ---

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([sid, time.perf_counter_ns(), 0])

    def _close(self, name, note):
        end = time.perf_counter_ns()
        sid, start, child = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans[sid] = (sid, parent, len(self.op_classes) - 1, name, start, end,
                           duration - child, note)

    def begin_op(self, cls: str, planned: bool):
        """Start an operation; `planned` ones have their kernel SQL kept for
        EXPLAIN QUERY PLAN (dialect queries and DML, not DDL)."""
        self._planned = planned and cls not in self.first_sql
        self.op_classes.append(cls)
        self._open()
        self._op_ticks = self._ticks[0]

    def end_op(self):
        self._close(ROOT, self._ticks[0] - self._op_ticks)

    def _wrap(self, name, fn):
        note = _note(name)
        capture = name == "kernel.execute"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(name, note(args, result) if note and result is not None else None)
                if capture and self._planned and len(args) == 2:
                    self._capture(args[1])
        traced.__wrapped__ = fn
        return traced

    def _capture(self, sql):
        if sql.lstrip()[:6].upper() in PLANNED:
            self.first_sql[self.op_classes[-1]] = sql
            self._planned = False

    # --- installation ---

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "sirsql" or key.startswith("sirsql."))]
        for module_name, attr in TARGETS:
            module = sys.modules[f"sirsql.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    self._patch(owner, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(owner, method, self._wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for holder in modules:
                if vars(holder).get(attr) is original:
                    self._patch(holder, attr, wrapped)
        # count VM instructions on every kernel connection opened from now on
        kernel = sys.modules["sirsql.kernel"].KernelConnection
        init = kernel.__init__

        def counted_init(conn, *args, **kwargs):
            init(conn, *args, **kwargs)
            self.watch(conn)
        self._patch(kernel, "__init__", counted_init)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def watch(self, conn):
        ticks = self._ticks

        def tick():
            ticks[0] += 1
        conn._db.set_progress_handler(tick, VM_TICK)

    def uninstall(self, *conns):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        for conn in conns:
            conn._db.set_progress_handler(None, 0)

    # --- output ---

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"op_classes": self.op_classes,
                                  "fields": ["sid", "parent", "op", "name", "start_ns",
                                             "end_ns"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span[:6]) + "\n")

    def layer_metrics(self, cli_runs: list) -> tuple[dict, dict]:
        """Per-layer metrics (name -> (value, unit)) and self ms by class and layer."""
        classes = self.op_classes
        statement = [c not in ("open", "cli") for c in classes]
        n_ops = max(1, len(classes))
        n_stmt = max(1, sum(statement))
        alters = {i for i, c in enumerate(classes) if c == "alter"}
        layer_ns = defaultdict(int)
        name_ns = defaultdict(int)
        by_class = defaultdict(lambda: defaultdict(int))
        calls = defaultdict(int)
        notes = defaultdict(int)
        route_kinds = defaultdict(int)
        op_ns = stmt_ns = stmt_self = ticks = 0
        load_ns = loads = load_queries = load_parse = persist_ns = 0
        kernel_stmt_calls = transactions = 0
        alter_compiles = alter_steps = 0
        parse_bytes = parse_calls = 0
        in_load = [False] * len(self.spans)
        for sid, parent, op, name, start, end, self_ns, note in self.spans:
            cls = classes[op]
            in_load[sid] = name == "catalog.load" or (parent >= 0 and in_load[parent])
            if name == ROOT:
                op_ns += end - start
                ticks += note
                if statement[op]:
                    stmt_ns += end - start
                by_class[cls]["bench"] += self_ns
                continue
            layer = name.split(".")[0]
            layer_ns[layer] += self_ns
            name_ns[name] += self_ns
            by_class[cls][layer] += self_ns
            calls[name] += 1
            if statement[op]:
                stmt_self += self_ns
            if isinstance(note, int):
                notes[name] += note
            if name == "router.route":
                route_kinds[note] += 1
            elif name == "catalog.load":
                loads += 1
                load_ns += end - start
            elif name.startswith("catalog.persist"):
                persist_ns += end - start
            if name in ("kernel.execute", "kernel.object_kind"):
                if in_load[sid]:
                    load_queries += 1
                if statement[op]:
                    kernel_stmt_calls += 1
            if name == "kernel.within_transaction" and statement[op]:
                transactions += 1
            if layer == "parser" and in_load[sid]:
                load_parse += self_ns
            if name == "parser.parse" and not in_load[sid]:
                parse_bytes += note or 0
                parse_calls += 1
            if op in alters:
                if name == "compiler.compile_sir":
                    alter_compiles += 1
                elif name in ("compiler.alter_steps", "compiler.recompile_steps"):
                    alter_steps += note or 0
        ms = 1e-6
        per_op = lambda ns: ns * ms / n_ops
        n_alter = max(1, len(alters))
        metrics = {
            "parser.parse_ms": (per_op(layer_ns["parser"]), "ms"),
            "parser.share": (layer_ns["parser"] / max(1, op_ns), "share"),
            "parser.bytes_per_stmt": (parse_bytes / max(1, parse_calls), "bytes"),
            "router.route_ms": (per_op(layer_ns["router"]), "ms"),
            "router.pass_through": (route_kinds["pass_through"], "count"),
            "router.base_rewrite": (route_kinds["base_rewrite"], "count"),
            "router.rejected": (route_kinds["rejected"], "count"),
            "render.render_ms": (per_op(name_ns["render.render"]), "ms"),
            "render.source_ms": (per_op(name_ns["render.render_source"]), "ms"),
            "render.source_calls": (calls["render.render_source"] / n_ops, "count"),
            "render.kernel_sql_bytes": (notes["render.render"] / n_ops, "bytes"),
            "kernel.execute_ms": (per_op(layer_ns["kernel"]), "ms"),
            "kernel.rows_fetched": (notes["kernel.execute"] / n_ops, "count"),
            "kernel.vm_steps_k": (ticks * VM_TICK / 1000 / n_ops, "ksteps"),
            "kernel.stmts_per_dialect_stmt": (kernel_stmt_calls / n_stmt, "count"),
            "kernel.transactions": (transactions / n_stmt, "count"),
            "catalog.load_ms": (load_ns * ms / max(1, loads), "ms"),
            "catalog.load_kernel_queries": (load_queries / max(1, loads), "count"),
            "catalog.load_parse_ms": (load_parse * ms / max(1, loads), "ms"),
            "catalog.resolve_ms": (per_op(name_ns["catalog.resolve_columns"]), "ms"),
            "catalog.persist_ms": (per_op(persist_ns), "ms"),
            "compiler.compile_ms": (per_op(layer_ns["compiler"]), "ms"),
            "compiler.compiles_per_alter": (alter_compiles / n_alter, "count"),
            "compiler.steps_per_alter": (alter_steps / n_alter, "count"),
            "layer.self_ms": (per_op(layer_ns["layer"]), "ms"),
            "cli.import_ms": (_median([r["import_ms"] for r in cli_runs]), "ms"),
            "cli.main_ms": (_median([r["main_ms"] for r in cli_runs]), "ms"),
            "trace.op_ms": (op_ns * ms / n_ops, "ms"),
            "trace.accounted_share": (stmt_self / max(1, stmt_ns), "share"),
        }
        counts = Counter(classes)
        breakdown = {cls: {layer: round(ns * ms / counts[cls], 4) for layer, ns in sorted(v.items())}
                     for cls, v in sorted(by_class.items())}
        return metrics, breakdown


def _median(values):
    return statistics.median(values) if values else 0.0
