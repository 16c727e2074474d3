"""Randomized property suites, each at least 100 cases with a fixed seed."""

from __future__ import annotations

import random
import re
import sqlite3
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirsql import catalog
from sirsql.catalog import scheme_to_ast
from sirsql.errors import CircularReferenceError, KernelError, ParseError, SirSqlError
from sirsql.kernel import KernelConnection, RowSet
from sirsql.layer import SirLayer, StatementResult
from sirsql.lexer import (NUMBER, STRING, bind_runs, literal_prefix, literal_runs, literal_value,
                          tokenize)
from sirsql.normalizer import (FunctionalDependency, MultivaluedDependency,
                               SchemeDraft, attribute_closure, drafts_to_sirsql,
                               heath_decompose, is_bcnf, lossless_check, make_universal,
                               normalize)
from sirsql.parser import parse, parse_one
from sirsql.render import render, render_source
from sirsql.router import route

from conftest import assert_plans_match_kernel, make_layer

CASES = 100


# --- random SIR schemes and instances ------------------------------------------


def random_sir_case(rng: random.Random):
    """A source table, a relation inheriting from it, and random contents.

    Sources carry unique keys so the at-most-one-match rule holds by
    construction; some foreign keys deliberately dangle to exercise null
    sub-tuples.
    """
    payload = [f"V{i}" for i in range(rng.randint(1, 3))]
    schema = [
        f"Create Table X (K Int, {', '.join(c + ' Int' for c in payload)},"
        f" Primary Key (K));"]
    ies = [f"I_X (Select {', '.join(payload)} From X Where R.FK = K)"]
    if rng.random() < 0.5:
        ies.append("DBL As (A * 2)")
    if rng.random() < 0.3:
        ies.append(f"AGG (Select Count(*) From X Where R.FK = X.K And K >= 0)")
    schema.append(
        "Create Table R (A Int, FK Int, "
        + ", ".join(ies) + ", Primary Key (A));")

    source_keys = rng.sample(range(1, 40), rng.randint(0, 10))
    x_rows = [(k, *[k * 10 + i for i in range(len(payload))]) for k in source_keys]
    r_rows = []
    for a in range(rng.randint(0, 12)):
        fk = rng.randint(1, 45)  # may or may not exist in X
        r_rows.append((a, fk))
    return schema, x_rows, r_rows


def apply_case(layer, schema, x_rows, r_rows):
    for stmt in schema:
        layer.apply_source(stmt)
    for row in x_rows:
        values = ", ".join(str(v) for v in row)
        layer.apply_source(f"Insert Into X Values ({values});")
    for a, fk in r_rows:
        layer.apply_source(f"Insert Into R Values ({a}, {fk});")


def test_cardinality_equals_base_on_random_schemes():
    rng = random.Random(20240811)
    for _ in range(CASES):
        schema, x_rows, r_rows = random_sir_case(rng)
        layer = make_layer()
        apply_case(layer, schema, x_rows, r_rows)
        full = layer.query("Select count(*) From R;").rows[0][0]
        base = layer.query("Select count(*) From R_B;").rows[0][0]
        assert full == base == len(r_rows)
        layer.conn.close()


def test_compile_determinism_on_random_schemes():
    rng1 = random.Random(77)
    rng2 = random.Random(77)
    for _ in range(CASES):
        schema1, _, _ = random_sir_case(rng1)
        schema2, _, _ = random_sir_case(rng2)
        first, second = make_layer(), make_layer()
        for stmt in schema1:
            first.apply_source(stmt)
        for stmt in schema2:
            second.apply_source(stmt)
        assert first.explain("R") == second.explain("R")
        assert first.explain("X") == second.explain("X")
        first.conn.close()
        second.conn.close()


def test_random_schemes_answer_like_a_hand_computed_model():
    rng = random.Random(4242)
    for _ in range(CASES):
        schema, x_rows, r_rows = random_sir_case(rng)
        payload = schema[0].count(" Int") - 1                # X's columns besides K
        x_by_key = {row[0]: row[1:] for row in x_rows}
        expected = []
        for a, fk in r_rows:
            row = (a, fk) + x_by_key.get(fk, (None,) * payload)
            if "DBL" in schema[1]:
                row += (a * 2,)
            if "AGG" in schema[1]:
                row += (int(fk in x_by_key),)
            expected.append(row)
        layer = make_layer()
        apply_case(layer, schema, x_rows, r_rows)
        assert sorted(layer.query("Select * From R;").rows) == sorted(expected)
        layer.conn.close()


def test_pruned_queries_match_full_view_on_random_schemes():
    """Count(*), stored-only projections and groupings on an inherited
    attribute read a chain prefix, yet return what the full view returns."""
    rng = random.Random(5150)
    for _ in range(CASES):
        schema, x_rows, r_rows = random_sir_case(rng)
        queries = ["Select Count(*) From R;", "Select A, FK From R;",
                   "Select V0, Count(*), Sum(A) From R Group By V0;"]
        if "DBL" in schema[1]:
            queries.append("Select DBL, Count(*) From R Group By DBL;")
        layer = make_layer()
        apply_case(layer, schema, x_rows, r_rows)
        for text in queries:
            stmt = parse_one(text)
            if text in queries[:2]:     # every stage is key-proven: these read R_B
                assert route(stmt, layer.catalog).target == "R_B", text
            full = layer.conn.query(render(stmt)).rows
            assert sorted(layer.query(text).rows, key=repr) == sorted(full, key=repr), text
        layer.conn.close()


_PARTIALS = ["Count(*)", "Count(FK)", "Sum(A)", "Sum(R.FK)", "Min(A)", "Max(A)", "Min(FK)",
             "Max(FK) As TOP"]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=CASES, derandomize=True, deadline=None)
def test_grouped_queries_pre_aggregate_the_base_like_the_full_view(seed):
    """Grouped by V0, which the key-joined I_X adds, a query groups R_B by
    FK first, yet returns the full view's rows and column names: keys that
    match nothing in X, NULL ones included, form the NULL group, and a WHERE
    on stored attributes runs before the inner GROUP BY.  The second literal
    runs the cached shape."""
    rng = random.Random(seed)
    schema, x_rows, r_rows = random_sir_case(rng)
    layer = make_layer()
    apply_case(layer, schema, x_rows, r_rows)
    for a in range(rng.randint(0, 3)):
        layer.apply_source(f"Insert Into R Values ({100 + a}, Null);")
    group = rng.choice(["V0", "V0, FK", "FK, V0", "R.V0"])
    aggs = ", ".join(rng.sample(_PARTIALS, rng.randint(1, 4)))
    where = rng.choice(["", " Where A > {}", " Where FK < {} Or A = 3",
                        " Where R.FK Is Not Null And A >= {}"])
    order = rng.choice(["", " Order By V0 Desc", " Order By 2", " Order By Count(*), 1"])
    template = f"Select {group}, {aggs} From R{where} Group By {group}{order};"
    for value in rng.sample(range(-2, 14), 2):
        text = template.format(value)
        stmt = parse_one(text)
        assert route(stmt, layer.catalog).reason == \
            "R aggregates R_B by FK before joining X (I_X)", text
        full, result = layer.conn.query(render(stmt)), layer.query(text)
        assert result.columns == full.columns, text
        assert sorted(result.rows, key=repr) == sorted(full.rows, key=repr), text
    layer.conn.close()


_ADDED_TYPES = ["Int", "Integer", "Char", "Char(5)", "Char(300)", "Text", "Decimal(10, 2)"]


def random_alter(rng: random.Random, layer) -> str:
    """An ALTER … ADD or DROP over `random_sir_case`'s X or R: a stored
    attribute appended (what ``ADD COLUMN`` serves) or inserted before
    another, a value IE, or the drop of any element but the first.  Some
    are refused with a typed error: the drop of a recursive-join attribute,
    of a column that R's IE reads (`DependentAttributeDrop`) or of the last
    attribute, and a ``Not Null`` column added to a table with rows
    (`NotNullAttributeAdd`)."""
    table = rng.choice(["X", "R"])
    scheme = layer.catalog.get(table).scheme
    name = f"N{rng.randint(0, 999)}"
    roll = rng.random()
    if roll < 0.4:
        not_null = " Not Null" if rng.random() < 0.1 else ""
        return f"Alter Table {table} Add {name} {rng.choice(_ADDED_TYPES)}{not_null};"
    if roll < 0.5:
        return f"Alter Table {table} Add Before {scheme.stored_names[-1]} {name} Char;"
    if roll < 0.7:
        return f"Alter Table {table} Add {name} As ({scheme.stored_names[0]} + 1);"
    return f"Alter Table {table} Drop {rng.choice(scheme.elements[1:] or scheme.elements).name};"


def test_plans_hold_the_kernels_text_under_random_alters(tmp_path):
    """Every plan item's SQL is `sqlite_master.sql` plus ';', in the session
    after each ALTER and after a reopen: a base is extended by ``ADD COLUMN``
    only when it holds the compiler's text, and SQLite's edit of that text
    is the compiler's text for the new scheme."""
    rng = random.Random(1717)
    for case in range(CASES):
        schema, x_rows, r_rows = random_sir_case(rng)
        if rng.random() < 0.3:      # a single INTEGER key is the rowid
            schema[0] = schema[0].replace("K Int,", "K Integer,")
        if rng.random() < 0.3:
            schema[0] = schema[0].replace("Primary Key (K)", "Primary Key (K), Unique (V0)")
        if rng.random() < 0.3:
            schema[1] = schema[1].replace("Primary Key (A)",
                                          "Primary Key (A), Foreign Key (FK) References X (K)")
        location = str(tmp_path / f"{case}.sqlite")
        layer = SirLayer(KernelConnection(location))
        apply_case(layer, schema, x_rows, r_rows)
        for _ in range(6):
            text = random_alter(rng, layer)
            try:
                layer.apply_source(text)
            except SirSqlError as exc:      # every refusal is typed, none the kernel's
                assert not isinstance(exc, KernelError), text
                assert "NOT NULL" not in str(exc), text
                assert "foreign key definition" not in str(exc), text
            assert_plans_match_kernel(layer)
        snapshot = layer.catalog.snapshot()
        layer.conn.close()
        reopened = SirLayer(KernelConnection(location))
        assert reopened.catalog.snapshot() == snapshot
        assert_plans_match_kernel(reopened)
        reopened.conn.close()


def _rendered_schemes(layer) -> list[str]:
    return [render_source(scheme_to_ast(entry.scheme)) for entry in layer.catalog.entries()
            if entry.scheme is not None]


def test_random_alters_leave_the_entries_another_session_shares_alone(tmp_path):
    """A session opened while another is alive takes over that session's
    entries; no ALTER that the later session runs or refuses changes what
    the earlier one reads."""
    rng = random.Random(4242)
    for case in range(CASES):
        schema, x_rows, r_rows = random_sir_case(rng)
        location = str(tmp_path / f"{case}.sqlite")
        creating = SirLayer(KernelConnection(location))
        apply_case(creating, schema, x_rows, r_rows)
        creating.conn.close()
        held = SirLayer(KernelConnection(location))
        snapshot, schemes = held.catalog.snapshot(), _rendered_schemes(held)
        active = SirLayer(KernelConnection(location))
        assert all(active.catalog.get(e.name) is e for e in held.catalog.entries())
        for _ in range(6):
            text = random_alter(rng, active)
            try:
                active.apply_source(text)
            except SirSqlError:
                pass
            assert held.catalog.snapshot() == snapshot, text
            assert _rendered_schemes(held) == schemes, text
        held.conn.close()
        active.conn.close()


def _recording(layer) -> list:
    """The (SQL, parameters) of each statement `layer` sends from now on."""
    sent, execute = [], layer.conn.execute

    def record(sql, params=(), origin=None):
        sent.append((sql, tuple(params)))
        return execute(sql, params, origin)

    layer.conn.execute = record
    return sent


def _outcome(layer, text):
    try:
        layer.apply_source(text)
        return None
    except SirSqlError as exc:
        return type(exc).__name__, str(exc)


def _inline_keys(schema: list[str]) -> list[str]:
    """`random_sir_case`'s statements with each key declared on its column
    (``K Int Primary Key``) in place of a ``Primary Key (K)`` clause."""
    return [re.sub(r"\((\w+) Int(.*), Primary Key \(\1\)\);$", r"(\1 Int Primary Key\2);", stmt)
            for stmt in schema]


def test_a_writers_entries_build_what_a_cold_load_builds(tmp_path):
    """After random DDL, a session that takes over the writer's compiled
    entries and one that decodes every row (no donor) hold equal snapshots,
    and send byte-identical kernel statements for the next random ALTER, so
    an entry compiled from a statement builds what parsing its source text
    builds.  Every other case declares its keys inline."""
    rng = random.Random(5151)
    for case in range(CASES):
        schema, x_rows, r_rows = random_sir_case(rng)
        if case % 2:
            schema = _inline_keys(schema)
            assert all("Primary Key (" not in stmt for stmt in schema)
        location, copy = (str(tmp_path / f"{case}{side}.sqlite") for side in "ab")
        writer = SirLayer(KernelConnection(location))
        apply_case(writer, schema, x_rows, r_rows)
        for _ in range(rng.randint(0, 4)):
            _outcome(writer, random_alter(rng, writer))
        with sqlite3.connect(copy) as target:
            writer.conn._db.backup(target)
        warm = SirLayer(KernelConnection(location))
        assert all(warm.catalog.get(e.name) is e for e in writer.catalog.entries())
        catalog._latest_load = None
        cold = SirLayer(KernelConnection(copy))
        assert not any(cold.catalog.get(e.name) is e for e in writer.catalog.entries())
        assert warm.catalog.snapshot() == cold.catalog.snapshot()
        text = random_alter(rng, warm)
        warm_sent, cold_sent = _recording(warm), _recording(cold)
        assert _outcome(warm, text) == _outcome(cold, text), text
        assert warm_sent == cold_sent, text
        assert warm.catalog.snapshot() == cold.catalog.snapshot(), text
        for layer in (writer, warm, cold):
            layer.conn.close()


# --- the statement cache against the uncached path ----------------------------------


def random_statement(rng: random.Random, payload: list, extra: list) -> str:
    """A query, DML or ALTER over `random_sir_case`'s R and X.  The templates
    are few and the literals many, so shapes repeat with new values."""
    a, k, v = rng.randint(-2, 14), rng.randint(0, 45), rng.randint(0, 400)
    col = rng.choice(payload + extra + ["A", "FK"])
    roll = rng.random()
    if roll < 0.08:
        if extra and rng.random() < 0.5:
            return f"Alter Table R Drop {extra.pop()};"
        name = f"E{rng.randint(0, 99)}"
        extra.append(name)
        return rng.choice([f"Alter Table R Add {name} As (A + {a});",
                           f"Alter Table R Add {name} (Select Max(K) From X Where K <= R.A);",
                           f"Alter Table R Add Before FK {name} Int;"])
    if roll < 0.35:
        return rng.choice([
            f"Insert Into R Values ({a}, {k});",
            f"Insert Into R (A, FK) Values ({a}, {k}), ({a + 20}, '{k}');",
            f"Insert Into X (K, {payload[0]}) Values ({k}, {v});",
            f"Update R Set FK = {k} Where A = {a};",
            f"Update R Set FK = FK + {a} Where {payload[0]} > {v};",
            f"Delete From R Where A = {a} Or FK = {k};",
            f"Delete From R Where {col} < {v} And A > {a};",
            f"Delete From X Where K = {k};",
        ])
    return rng.choice([
        f"Select * From R Where A = {a};",
        f"Select A, FK From R Where FK >= {k} Order By A;",
        f"Select {col}, Count(*) From R Where A < {a} Group By {col};",
        f"Select A + {a} From R;",
        f"Select A, A * {v}.5 As s, '{a}' As t From R Where {col} Is Not Null;",
        f"Select K From X Where K In ({k}, {a}, {v}) Order By 1;",
        f"Select Count(*) From R Where {col} > {v} Or A = - -{k};",
        f"Select Top {rng.randint(1, 4)} A From R Order By A Desc;",
        f"Select A From R Where FK = '{k}' -- '{a}'\n;",
        f"Select /* {a} */ A, {payload[-1]} From R Where A In (Select K From X Where K > {a});",
    ])


def outcome(run, text):
    """What running `text` did, comparable between the two paths."""
    try:
        results = run(text)
    except SirSqlError as exc:
        return type(exc).__name__
    out = []
    for result in results:
        rows = result.rows
        out.append((result.action, result.rowcount,
                    rows and (rows.columns, sorted(rows.rows, key=repr))))
    return out


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=CASES, derandomize=True, deadline=None)
def test_cached_execution_matches_uncached_on_random_schemes(seed):
    """`query` and `apply_source` (cached) against `apply_statement` (uncached)
    on a twin session, with DML and ALTERs between the statements; some query
    texts come again verbatim, so the text memo serves them."""
    rng = random.Random(seed)
    schema, x_rows, r_rows = random_sir_case(rng)
    payload = [c for c in ("V0", "V1", "V2") if c in schema[0]]
    cached, plain = make_layer(), make_layer()
    for layer in (cached, plain):
        apply_case(layer, schema, x_rows, r_rows)

    def uncached(text):
        return [plain.apply_statement(stmt) for stmt in parse(text)]

    def query(text):
        return [StatementResult(None, "query", rows=cached.query(text))]

    extra, queries = [], []
    for _ in range(30):
        if queries and rng.random() < 0.3:
            text = rng.choice(queries)      # verbatim, across the DML and ALTERs since
        else:
            text = random_statement(rng, payload, extra)
            if text.startswith("Select"):
                queries.append(text)
        expected = outcome(uncached, text)
        if text.startswith("Select") and rng.random() < 0.5:
            assert outcome(query, text) == expected, text
        else:
            assert outcome(cached.apply_source, text) == expected, text
    for layer in (cached, plain):
        layer.conn.close()


# --- literal runs against the lexer ------------------------------------------------


_literal_pieces = st.one_of(
    st.text(alphabet="ab' -1/*é\n", max_size=8).map(lambda t: "'" + t.replace("'", "''") + "'"),
    st.integers(0, 2**70).map(str),
    st.tuples(st.integers(0, 10**18), st.integers(0, 10**18)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.integers(0, 999).map(lambda i: f".{i}"),
)
_pieces = st.one_of(
    st.sampled_from(["Select", "From", "R001_K", "S#", "P#1", "x$1", "_9", "Größe", "名前",
                     "été2", "T", "e5", "\"a 1 'b' -- 2\"", "[x 2.5]", "\"\"", "[]"]),
    _literal_pieces,
    st.sampled_from(["-- 7 'c'\n", "/* 8 'd' -- */", "--\n", "/**/"]),
    st.sampled_from(["(", ")", ",", ";", "=", "-", "+", "*", "/", ".", "<=", "||", "%"]),
)


@given(pieces=st.lists(st.tuples(_pieces, st.sampled_from(["", " ", "\n"])), max_size=20))
@settings(max_examples=CASES * 3, derandomize=True)
def test_literal_runs_cut_a_text_at_the_lexers_literals(pieces):
    """Each token's offsets are where its line and column put it, and
    `literal_runs` cuts the text at its string literals and bindable
    numbers, with their values."""
    text = "".join(piece + sep for piece, sep in pieces)
    try:
        tokens = tokenize(text)
    except ParseError:
        return
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    expected, cut, end = [], [], 0
    for tok in tokens:
        assert tok.start == line_starts[tok.line - 1] + tok.col - 1
        if tok.kind == STRING:
            expected.append(tok.value)
            width = len(tok.value.replace("'", "''")) + 2
        elif tok.kind == NUMBER and literal_value(tok.value) is not None:
            expected.append(literal_value(tok.value))
            width = len(tok.value)
        else:
            continue
        assert tok.end == tok.start + width
        cut.append(text[end:tok.start])
        end = tok.end
    runs, values = literal_runs(text, tokens)
    assert values == expected and list(map(type, values)) == list(map(type, expected))
    assert runs is None or runs == cut + [text[end:]]


_open_pieces = st.sampled_from(["'open", "'''", '"open', "[open", "/* open", "*/", "²", "١", "Ⅻ",
                                "\r\n", "?", "]"])
_border_pieces = st.sampled_from([".", "T.", "x", "#", "\"a?b\"", "[?]", "/* ? */", "-- ?\n"])
_MUTATIONS = ["", "'", "''", "0", "7.", ".5", "x", "#", "?", " ", "-", "/*", "*/", "\n", '"', "]"]


@given(pieces=st.lists(st.tuples(st.one_of(_pieces, _literal_pieces, _border_pieces),
                                 st.sampled_from(["", " ", "\n"])), max_size=8),
       fills=st.lists(st.one_of(_literal_pieces, _open_pieces), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=CASES * 3, derandomize=True)
def test_literal_runs_bind_exactly_the_texts_cut_into_them(pieces, fills, seed):
    """The runs cut from a text that tokenizes bind another text exactly
    when `literal_runs` cuts that text, as `tokenize` reads it, into the
    same runs, and then with the same values; they bind no text that
    `tokenize` refuses.  The other texts have other literals (or pieces
    that are none) in the gaps, or are mutated a character or two at a
    time, across literal borders too."""
    text = "".join(piece + sep for piece, sep in pieces)
    try:
        runs, values = literal_runs(text, tokenize(text))
    except ParseError:
        return
    if runs is None:
        return
    rng = random.Random(seed)
    fills += ["'a'", "'it''s'", "5", "12.5", ".5", "99999999999999999999"]
    others = [text] + [runs[0] + "".join(rng.choice(fills) + run for run in runs[1:])
                       for _ in range(4)]
    for _ in range(6):
        start = rng.randrange(len(text) + 1)
        end = min(len(text), start + rng.choice([0, 0, 1, 2]))
        others.append(text[:start] + rng.choice(_MUTATIONS) + text[end:])
    for other in others:
        bound = bind_runs(runs, other)
        try:
            other_runs, other_values = literal_runs(other, tokenize(other))
        except ParseError:
            assert bound is None, other
            continue
        if bound is None:
            assert other_runs != runs, other
        else:
            assert (other_runs, other_values) == (runs, bound), other
            assert list(map(type, bound)) == list(map(type, other_values))
            assert literal_prefix(other) == literal_prefix(text)
    assert bind_runs(runs, text) == values


# --- normalization losslessness ---------------------------------------------------


EX8_ATTRS = ["EMAIL", "S#", "SNAME", "STATUS", "SCITY",
             "P#", "PNAME", "COLOR", "WEIGHT", "PCITY", "QTY"]
EX8_FDS = [
    FunctionalDependency(("EMAIL",), ("S#",)),
    FunctionalDependency(("S#",), ("SNAME", "STATUS", "SCITY")),
    FunctionalDependency(("P#",), ("PNAME", "COLOR", "WEIGHT", "PCITY")),
    FunctionalDependency(("S#", "P#"), ("QTY",)),
]
EX8_MVDS = [MultivaluedDependency(("S#",), ("EMAIL",))]


def random_ex8_instance(rng: random.Random) -> RowSet:
    """Rows satisfying the declared FDs (attribute values are functions of
    their determinants) and the MVD (emails x supplies per supplier)."""
    rows = []
    for s in range(1, rng.randint(2, 5)):
        supplier = f"S{s}"
        emails = [f"{supplier}@{k}" for k in range(rng.randint(1, 3))]
        supplied = rng.sample(range(1, 7), rng.randint(1, 4))
        for email in emails:
            for p in supplied:
                part = f"P{p}"
                rows.append((email, supplier, f"N{s}", str(s * 7 % 40), f"C{s}",
                             part, f"PN{p}", f"COL{p % 3}", str(p * 3), f"PC{p}",
                             (s * 31 + p * 7) % 500))
    return RowSet(columns=list(EX8_ATTRS), rows=rows)


def random_ex8_instance_two_emails() -> RowSet:
    """Deterministic instance with exactly two emails per supplier."""
    rows = []
    for s in range(1, 5):
        supplier = f"S{s}"
        for email in (f"{supplier}@a", f"{supplier}@b"):
            for p in range(1, 4):
                part = f"P{p}"
                rows.append((email, supplier, f"N{s}", str(s), f"C{s}",
                             part, f"PN{p}", "Red", str(p), f"PC{p}", s * 100 + p))
    return RowSet(columns=list(EX8_ATTRS), rows=rows)


def project_instance(instance: RowSet, onto) -> RowSet:
    index = {c.casefold(): i for i, c in enumerate(instance.columns)}
    picks = [index[c.casefold()] for c in onto]
    rows = sorted({tuple(row[i] for i in picks) for row in instance.rows})
    return RowSet(columns=list(onto), rows=rows)


@pytest.mark.parametrize("heath_first", [False, True])
def test_every_normalize_step_is_lossless_on_satisfying_instances(heath_first):
    universal = make_universal("U", EX8_ATTRS)
    _, steps = normalize(universal, EX8_FDS, EX8_MVDS, heath_first=heath_first)
    rng = random.Random(9091)
    for _ in range(CASES):
        instance = random_ex8_instance(rng)
        for step in steps:
            projected = project_instance(instance, step.input.stored)
            assert lossless_check(step, projected), str(step.dependency)


# --- restated BCNF against the classic oracle ---------------------------------------


def oracle_closure(attrs, fds):
    out = set(attrs)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if set(lhs) <= out and not set(rhs) <= out:
                out |= set(rhs)
                changed = True
    return out


def classic_bcnf(stored, fds):
    """Textbook check on the stored projection: project the dependencies onto
    the stored attributes by closure, then require every nontrivial projected
    determinant to be a superkey."""
    stored = list(stored)
    projected = []
    for size in range(1, len(stored) + 1):
        for lhs in combinations(stored, size):
            rhs = oracle_closure(lhs, fds) & set(stored) - set(lhs)
            if rhs:
                projected.append((lhs, rhs))
    for lhs, rhs in projected:
        if not oracle_closure(lhs, [(l, r) for l, r in projected]) >= set(stored):
            return False
    return True


def random_dependency_case(rng: random.Random):
    attrs = [f"A{i}" for i in range(rng.randint(3, 6))]
    fds = []
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.sample(attrs, rng.randint(1, 2)))
        remaining = [a for a in attrs if a not in lhs]
        if not remaining:
            continue
        rhs = tuple(rng.sample(remaining, rng.randint(1, min(2, len(remaining)))))
        fds.append((lhs, rhs))
    stored = rng.sample(attrs, rng.randint(2, len(attrs)))
    stored = [a for a in attrs if a in stored]  # keep declaration order
    return attrs, fds, stored


def test_restated_bcnf_matches_classic_oracle():
    rng = random.Random(31415)
    checked_true = checked_false = 0
    for _ in range(CASES * 2):
        _, raw_fds, stored = random_dependency_case(rng)
        fds = [FunctionalDependency(tuple(l), tuple(r)) for l, r in raw_fds]
        draft = SchemeDraft(name="T", stored=stored)
        lowered = [(tuple(x.casefold() for x in l), tuple(x.casefold() for x in r))
                   for l, r in raw_fds]
        expected = classic_bcnf([s.casefold() for s in stored], lowered)
        assert is_bcnf(draft, fds) == expected
        checked_true += expected
        checked_false += not expected
    assert checked_true > 10 and checked_false > 10  # both outcomes exercised


# --- hypothesis: closure algebra and the Heath guarantee ------------------------------


attr_names = st.sampled_from(["A", "B", "C", "D", "E"])
fd_strategy = st.lists(
    st.tuples(st.sets(attr_names, min_size=1, max_size=2),
              st.sets(attr_names, min_size=1, max_size=2)),
    max_size=4).map(lambda fds: [FunctionalDependency(tuple(sorted(l)), tuple(sorted(r)))
                                 for l, r in fds])


@given(start=st.sets(attr_names, max_size=3), fds=fd_strategy)
@settings(max_examples=CASES, derandomize=True)
def test_closure_contains_input_and_is_idempotent(start, fds):
    closure = attribute_closure(start, fds)
    assert {a.casefold() for a in start} <= closure
    assert attribute_closure(closure, fds) == closure


@given(small=st.sets(attr_names, max_size=2), extra=st.sets(attr_names, max_size=2),
       fds=fd_strategy)
@settings(max_examples=CASES, derandomize=True)
def test_closure_is_monotone(small, extra, fds):
    assert attribute_closure(small, fds) <= attribute_closure(small | extra, fds)


@given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12),
       c_values=st.lists(st.integers(0, 3), min_size=1, max_size=4))
@settings(max_examples=CASES, derandomize=True)
def test_heath_step_lossless_whenever_fd_holds(rows, c_values):
    # build ABC rows where B is a function of A (the FD holds by construction)
    seen = {}
    table = []
    for a, b in rows:
        b = seen.setdefault(a, b)
        for c in c_values:
            table.append((a, b, c))
    abc = make_universal("ABC", ["A", "B", "C"])
    fd = FunctionalDependency(("A",), ("B",))
    try:
        step = heath_decompose(abc, fd, [fd])
    except Exception:
        return
    instance = RowSet(columns=["A", "B", "C"], rows=sorted(set(table)))
    assert lossless_check(step, instance)


@st.composite
def dependency_sets(draw):
    """A universal relation of 3 to 7 attributes, up to five FDs over it and,
    half the time, one MVD."""
    attrs = [f"A{i}" for i in range(draw(st.integers(3, 7)))]
    side = st.lists(st.sampled_from(attrs), min_size=1, max_size=2, unique=True).map(tuple)
    fds = draw(st.lists(st.builds(FunctionalDependency, side, side), max_size=5))
    mvds = []
    if draw(st.booleans()):
        lhs = draw(st.sampled_from(attrs))
        rest = [a for a in attrs if a != lhs]
        branch = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=len(rest), unique=True))
        mvds.append(MultivaluedDependency((lhs,), tuple(branch)))
    return attrs, fds, mvds


@given(case=dependency_sets())
@settings(max_examples=CASES, derandomize=True, deadline=None)
def test_a_decomposition_names_each_scheme_once_and_stores_every_attribute(case):
    """The schemes `normalize` returns have distinct names, store every
    universal attribute between them, and `drafts_to_sirsql` emits them as a
    schema that applies, or raises CircularReferenceError when a split noted
    that its two sides read each other, which no acyclic schema holds."""
    attrs, fds, mvds = case
    drafts, steps = normalize(make_universal("U", attrs), fds, mvds)
    names = [d.name.casefold() for d in drafts]
    assert len(set(names)) == len(names)
    try:
        schema = drafts_to_sirsql(drafts)
    except CircularReferenceError:
        assert any(step.notes for step in steps)
        return
    layer = make_layer()
    layer.apply_source(schema)
    stored = {a.casefold() for entry in layer.catalog.entries() for a in entry.scheme.stored_names}
    assert stored == {a.casefold() for a in attrs}
    assert sorted(entry.name.casefold() for entry in layer.catalog.entries()) == sorted(names)
