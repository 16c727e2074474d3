"""Randomized property suites, each at least 100 cases with a fixed seed."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirsql.errors import ParseError, SirSqlError
from sirsql.kernel import RowSet
from sirsql.layer import StatementResult
from sirsql.lexer import NUMBER, STRING, literal_value, shape, tokenize
from sirsql.normalizer import (FunctionalDependency, MultivaluedDependency,
                               SchemeDraft, attribute_closure, heath_decompose,
                               is_bcnf, lossless_check, make_universal, normalize)
from sirsql.parser import parse, parse_one
from sirsql.render import render
from sirsql.router import route

from conftest import make_layer

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
    on a twin session, with DML and ALTERs between the statements."""
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

    extra = []
    for _ in range(30):
        text = random_statement(rng, payload, extra)
        expected = outcome(uncached, text)
        if text.startswith("Select") and rng.random() < 0.5:
            assert outcome(query, text) == expected, text
        else:
            assert outcome(cached.apply_source, text) == expected, text
    for layer in (cached, plain):
        layer.conn.close()


# --- the shape pass against the lexer ----------------------------------------------


_pieces = st.one_of(
    st.sampled_from(["Select", "From", "R001_K", "S#", "P#1", "x$1", "_9", "Größe", "名前",
                     "été2", "T", "e5", "\"a 1 'b' -- 2\"", "[x 2.5]", "\"\"", "[]"]),
    st.text(alphabet="ab' -1/*é\n", max_size=8).map(lambda t: "'" + t.replace("'", "''") + "'"),
    st.integers(0, 2**70).map(str),
    st.tuples(st.integers(0, 10**18), st.integers(0, 10**18)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.integers(0, 999).map(lambda i: f".{i}"),
    st.sampled_from(["-- 7 'c'\n", "/* 8 'd' -- */", "--\n", "/**/"]),
    st.sampled_from(["(", ")", ",", ";", "=", "-", "+", "*", "/", ".", "<=", "||", "%"]),
)


@given(pieces=st.lists(st.tuples(_pieces, st.sampled_from(["", " ", "\n"])), max_size=20))
@settings(max_examples=CASES * 3, derandomize=True)
def test_shape_values_are_the_lexers_literals(pieces):
    text = "".join(piece + sep for piece, sep in pieces)
    try:
        tokens = tokenize(text)
    except ParseError:
        return
    expected = []
    for tok in tokens:
        if tok.kind == STRING:
            expected.append(tok.value)
        elif tok.kind == NUMBER and literal_value(tok.value) is not None:
            expected.append(literal_value(tok.value))
    key, values = shape(text)
    assert values == expected and list(map(type, values)) == list(map(type, expected))
    assert key.count("?") == len(values)


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
        attrs, raw_fds, stored = random_dependency_case(rng)
        fds = [FunctionalDependency(tuple(l), tuple(r)) for l, r in raw_fds]
        draft = SchemeDraft(name="T", attributes=attrs, stored=stored)
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
