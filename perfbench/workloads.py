"""Seeded workload generators and the models that check their results.

Nothing here imports sirsql: a workload produces dialect text (and a few
non-statement operations such as opening a session or running the CLI),
keeps its own model of what the database must contain, and checks each
result against that model.  The same seed always yields the same text.

Each workload exposes:

    setup_texts()   dialect statements that build the kernel from empty
    ops()           endless iterator of Op, generated one at a time so that
                    write operations can update the model as they are issued
    final_checks    list of (dialect query, check) run after the timed loop
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

CITIES = ["London", "Paris", "Athens", "Oslo", "Rome", "Lisbon", "Vienna", "Prague",
          "Madrid", "Dublin", "Berlin", "Warsaw", "Riga", "Tallinn", "Sofia", "Zagreb",
          "Bern", "Brussels", "Bergen", "Porto", "Turin", "Lyon", "Krakow", "Gdansk",
          "Malmo", "Aarhus", "Tampere", "Graz", "Brno", "Kaunas", "Split", "Varna",
          "Seville", "Cork", "Leeds", "Nantes", "Bremen", "Basel", "Ghent", "Utrecht"]
COLORS = ["Red", "Green", "Blue", "Black", "White", "Yellow"]
SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "be", "do"]

# schema of the paper's Supplier-Part example (S-P2) and its S-P3 alterations
SP2_SCHEMA = [
    "Create Table S (S# Char, SNAME Char, STATUS Char, CITY Char, Primary Key (S#));",
    "Create Table P (P# Char, PNAME Char, COLOR Char, WEIGHT Char, CITY Char,"
    " Primary Key (P#));",
    "Create Table SP (S# Char, P# Char, QTY Int, Primary Key (S#, P#),"
    " I_S (Select SNAME, STATUS, CITY As SCITY From S Where SP.S# = S#),"
    " I_P (Select PNAME, COLOR, WEIGHT, CITY As PCITY From P Where SP.P# = P#));",
]
SP3_ALTERS = [
    "Alter Table P Add After WEIGHT WEIGHT_T As (WEIGHT_KG / 1000),"
    " WEIGHT_KG As (Round(WEIGHT / 2.1, 1));",
    "Alter Table S Alter STATUS As STATUS"
    " (Select Int(SUM(QTY) / 100) From SP_B Where S.S# = S#);",
]
INSERT_BATCH = 500


@dataclass
class Op:
    """One timed operation and the check of its result.

    kind: "query" (SirLayer.query), "apply" (SirLayer.apply_source),
    "open" (a new session on the kernel) or "cli" (the CLI, argv in text).
    check(result) returns None when the result matches the model, else a
    description of the mismatch.  followups are (query, check) pairs run
    untimed right after the operation.
    """

    cls: str
    kind: str
    text: str
    check: Callable
    followups: list = field(default_factory=list)


def _rows_equal(expected: list, columns: list | None = None):
    def check(rows):
        if columns is not None and list(rows.columns) != columns:
            return f"columns {rows.columns} != {columns}"
        if sorted(rows.rows, key=repr) != sorted(expected, key=repr):
            return f"rows {rows.rows[:3]}... != {expected[:3]}..."
        return None
    return check


def _rowcount(expected: int):
    def check(results):
        got = [r.rowcount for r in results]
        return None if got == [expected] else f"rowcount {got} != [{expected}]"
    return check


def _zipf_sampler(rng: random.Random, items: list, exponent: float):
    """Draw from items with Zipf weights over a seeded popularity order."""
    ranked = list(items)
    rng.shuffle(ranked)
    cum = list(itertools.accumulate(1.0 / (rank ** exponent)
                                    for rank in range(1, len(ranked) + 1)))
    total = cum[-1]
    return lambda: ranked[bisect.bisect_left(cum, rng.random() * total)]


def _values(rows) -> str:
    return ", ".join("(" + ", ".join(_lit(v) for v in row) + ")" for row in rows)


def _lit(value) -> str:
    return str(value) if isinstance(value, int) else "'" + value.replace("'", "''") + "'"


def _blocks(rng: random.Random, table: list):
    """Endless stream over [(count, value), ...]: each block holds every value
    exactly `count` times in seeded order, so a short run keeps the mix."""
    block = [v for count, v in table for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


# --- the Supplier-Part data set ---------------------------------------------------


class SupplierParts:
    """Model of S, P and SP: stored values plus everything the views compute."""

    def __init__(self, seed: int, n_s: int, n_p: int, n_sp: int, computed: bool):
        rng = random.Random(seed)
        self.computed = computed        # S-P3: WEIGHT_T/WEIGHT_KG and computed STATUS
        self.s = {}                     # S# -> (SNAME, STATUS, CITY)
        self.p = {}                     # P# -> (PNAME, COLOR, WEIGHT, CITY)
        for i in range(n_s):
            name = rng.choice(SYLLABLES) + rng.choice(SYLLABLES) + f"{i:04d}"
            self.s[f"S{i:04d}"] = (name.capitalize(), str(rng.randrange(1, 8) * 10),
                                   rng.choice(CITIES))
        for i in range(n_p):
            self.p[f"P{i:04d}"] = (rng.choice(SYLLABLES).capitalize() + f"{i:04d}",
                                   rng.choice(COLORS), str(rng.randrange(10, 40)),
                                   rng.choice(CITIES))
        self.s_keys = list(self.s)
        self.p_keys = list(self.p)
        self.sp = {}                    # (S#, P#) -> QTY
        self.keys = []                  # SP keys in a deterministic order
        self._pos = {}                  # SP key -> index in self.keys
        self.by_s = {s: set() for s in self.s}
        while len(self.sp) < n_sp:
            key = (rng.choice(self.s_keys), rng.choice(self.p_keys))
            if key not in self.sp:
                self.add(key, rng.randrange(1, 1000))

    # -- mutation (the model of what the kernel must hold) --

    def add(self, key, qty):
        self.sp[key] = qty
        self._pos[key] = len(self.keys)
        self.keys.append(key)
        self.by_s[key[0]].add(key[1])

    def remove(self, key):
        del self.sp[key]
        index = self._pos.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[index] = last
            self._pos[last] = index
        self.by_s[key[0]].discard(key[1])

    def fresh_key(self, rng):
        while True:
            key = (rng.choice(self.s_keys), rng.choice(self.p_keys))
            if key not in self.sp:
                return key

    # -- derived values --

    def status(self, s):
        if not self.computed:
            return self.s[s][1]
        parts = self.by_s[s]
        return sum(self.sp[(s, p)] for p in parts) // 100 if parts else None

    def s_row(self, s):
        name, _, city = self.s[s]
        return (s, name, self.status(s), city)

    def p_row(self, p):
        name, color, weight, city = self.p[p]
        if not self.computed:
            return (p, name, color, weight, city)
        kg = round(int(weight) / 2.1, 1)
        return (p, name, color, weight, kg / 1000, kg, city)

    def sp_row(self, key):
        s, p = key
        sname, _, scity = self.s[s]
        pname, color, weight, pcity = self.p[p]
        return (s, p, self.sp[key], sname, self.status(s), scity, pname, color, weight, pcity)

    def total_qty(self):
        return sum(self.sp.values())

    # -- text --

    def setup_texts(self) -> list[str]:
        texts = list(SP2_SCHEMA)
        for table, rows in (("S", [(k,) + v for k, v in self.s.items()]),
                            ("P", [(k,) + v for k, v in self.p.items()]),
                            ("SP", [k + (self.sp[k],) for k in self.keys])):
            for i in range(0, len(rows), INSERT_BATCH):
                texts.append(f"Insert Into {table} Values {_values(rows[i:i + INSERT_BATCH])};")
        if self.computed:
            texts.extend(SP3_ALTERS)
        return texts

    def card_checks(self) -> list:
        """card(SP) = card(SP_B) = the model's, and Sum(QTY) matches."""
        card, total = len(self.sp), self.total_qty()
        return [
            ("Select Count(*), Sum(QTY) From SP;", _rows_equal([(card, total)])),
            ("Select Count(*) From SP_B;", _rows_equal([(card,)])),
        ]


SP_COLUMNS = ["S#", "P#", "QTY", "SNAME", "STATUS", "SCITY", "PNAME", "COLOR", "WEIGHT", "PCITY"]


def _point_lookups(model: SupplierParts, pick_sp, pick_s, pick_p):
    """Op factories for key lookups on SP, S and P (Select *, so inherited and
    computed values are included)."""
    p_cols = (["P#", "PNAME", "COLOR", "WEIGHT", "WEIGHT_T", "WEIGHT_KG", "CITY"]
              if model.computed else ["P#", "PNAME", "COLOR", "WEIGHT", "CITY"])

    def sp():
        s, p = key = pick_sp()
        return Op("point", "query", f"Select * From SP Where S# = '{s}' And P# = '{p}';",
                  _rows_equal([model.sp_row(key)], SP_COLUMNS))

    def s():
        key = pick_s()
        return Op("point_s", "query", f"Select * From S Where S# = '{key}';",
                  _rows_equal([model.s_row(key)], ["S#", "SNAME", "STATUS", "CITY"]))

    def p():
        key = pick_p()
        return Op("point_p", "query", f"Select * From P Where P# = '{key}';",
                  _rows_equal([model.p_row(key)], p_cols))

    return sp, s, p


# --- point_read ----------------------------------------------------------------------


class PointRead:
    """S-P3 at S=2,000, P=2,000, SP=60,000; Zipf-distributed key lookups plus a
    few filters over an inherited attribute or a single-supplier range."""

    primary, secondary = "point", "filter"
    zipf_exponent = 1.1

    def __init__(self, seed: int, n_s=2000, n_p=2000, n_sp=60_000):
        self.model = SupplierParts(seed, n_s, n_p, n_sp, computed=True)
        self.rng = random.Random(seed * 7919 + 1)
        self.final_checks = self.model.card_checks()

    def setup_texts(self):
        return self.model.setup_texts()

    def ops(self):
        m, rng = self.model, self.rng
        sp, s, p = _point_lookups(m, _zipf_sampler(rng, m.keys, self.zipf_exponent),
                                  _zipf_sampler(rng, m.s_keys, self.zipf_exponent),
                                  _zipf_sampler(rng, m.p_keys, self.zipf_exponent))
        for make in _blocks(rng, [(152, sp), (19, s), (19, p),
                                  (6, self.filter_name), (4, self.filter_range)]):
            yield make()

    def filter_name(self):
        m = self.model
        s = self.rng.choice(m.s_keys)
        rows = [m.sp_row((s, p)) for p in m.by_s[s]]
        return Op("filter", "query", f"Select * From SP Where SNAME = '{m.s[s][0]}';",
                  _rows_equal(rows, SP_COLUMNS))

    def filter_range(self):
        m, rng = self.model, self.rng
        s = rng.choice(m.s_keys)
        lo, hi = sorted(rng.sample(m.p_keys, 2))
        rows = [(s, p, m.sp[(s, p)]) for p in m.by_s[s] if lo <= p < hi]
        return Op("filter", "query",
                  f"Select S#, P#, QTY From SP Where S# = '{s}' And P# >= '{lo}' And P# < '{hi}';",
                  _rows_equal(rows, ["S#", "P#", "QTY"]))


# --- scan_agg ------------------------------------------------------------------------


class ScanAgg:
    """The point_read data set under counts, groupings over inherited
    attributes, the aggregate IE on S.STATUS and projected full scans."""

    primary, secondary = "count", "agg"

    def __init__(self, seed: int, n_s=2000, n_p=2000, n_sp=60_000):
        self.model = SupplierParts(seed, n_s, n_p, n_sp, computed=True)
        self.rng = random.Random(seed * 7919 + 2)
        self.final_checks = self.model.card_checks()

    def setup_texts(self):
        return self.model.setup_texts()

    def ops(self):
        m, rng = self.model, self.rng
        card = len(m.sp)
        groups = {}
        for (s, p), qty in m.sp.items():
            count, total = groups.get(m.s[s][2], (0, 0))
            groups[m.s[s][2]] = (count + 1, total + qty)
        groups = [(city, count, total) for city, (count, total) in groups.items()]
        statuses = [(s, m.status(s)) for s in m.s_keys]
        digest = _digest((s, p, qty, m.p[p][0]) for (s, p), qty in m.sp.items())

        def count():
            return Op("count", "query", "Select Count(*) From SP;", _rows_equal([(card,)]))

        def agg():
            return Op("agg", "query", "Select SCITY, Count(*), Sum(QTY) From SP Group By SCITY;",
                      _rows_equal(groups))

        def status():
            return Op("status", "query", "Select S#, STATUS From S;",
                      _rows_equal(statuses, ["S#", "STATUS"]))

        def scan():
            return Op("scan", "query", "Select S#, P#, QTY, PNAME From SP;",
                      _digest_check(digest, ["S#", "P#", "QTY", "PNAME"]))

        for make in _blocks(rng, [(8, count), (8, agg), (2, status), (2, scan)]):
            yield make()


def _digest(rows) -> tuple:
    count = total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return count, total


def _digest_check(expected: tuple, columns: list):
    def check(rows):
        if list(rows.columns) != columns:
            return f"columns {rows.columns} != {columns}"
        got = _digest(rows.rows)
        return None if got == expected else f"(count, digest) {got} != {expected}"
    return check


# --- write_mix -----------------------------------------------------------------------


class WriteMix:
    """S-P2 with SP starting at 20,000 rows: single-row writes by key, 500-row
    inserts, range deletes that keep the table near its starting size, writes
    with inherited-attribute predicates, and key lookups for half the ops."""

    primary, secondary = "bulk_insert", "point"

    def __init__(self, seed: int, n_s=2000, n_p=2000, n_sp=20_000):
        self.model = SupplierParts(seed, n_s, n_p, n_sp, computed=False)
        self.rng = random.Random(seed * 7919 + 3)

    @property
    def final_checks(self):
        m = self.model
        rows = [k + (q,) for k, q in m.sp.items()]
        return m.card_checks() + [("Select S#, P#, QTY From SP_B;", _rows_equal(rows))]

    def setup_texts(self):
        return self.model.setup_texts()

    def ops(self):
        m, rng = self.model, self.rng
        sp, s, p = _point_lookups(m, lambda: rng.choice(m.keys),
                                  lambda: rng.choice(m.s_keys), lambda: rng.choice(m.p_keys))
        for make in _blocks(rng, [
                (40, sp), (5, s), (5, p),
                (12, self.insert_one), (12, self.update_one), (12, self.delete_one),
                (6, self.update_inherited), (4, self.delete_inherited),
                (2, self.insert_bulk), (2, self.delete_range)]):
            yield make()

    def insert_one(self):
        key = self.model.fresh_key(self.rng)
        qty = self.rng.randrange(1, 1000)
        self.model.add(key, qty)
        return Op("write", "apply", f"Insert Into SP Values {_values([key + (qty,)])};",
                  _rowcount(1))

    def update_one(self):
        key = self.rng.choice(self.model.keys)
        qty = self.rng.randrange(1, 1000)
        self.model.sp[key] = qty
        return Op("write", "apply",
                  f"Update SP Set QTY = {qty} Where S# = '{key[0]}' And P# = '{key[1]}';",
                  _rowcount(1))

    def delete_one(self):
        key = self.rng.choice(self.model.keys)
        self.model.remove(key)
        return Op("write", "apply", f"Delete From SP Where S# = '{key[0]}' And P# = '{key[1]}';",
                  _rowcount(1))

    def update_inherited(self):
        m = self.model
        s = self.rng.choice(m.s_keys)
        hits = [(s, p) for p in m.by_s[s] if m.sp[(s, p)] < 500]
        for key in hits:
            m.sp[key] += 1
        return Op("write_inherited", "apply",
                  f"Update SP Set QTY = QTY + 1 Where SNAME = '{m.s[s][0]}' And QTY < 500;",
                  _rowcount(len(hits)))

    def delete_inherited(self):
        m = self.model
        s = self.rng.choice(m.s_keys)
        hits = [(s, p) for p in m.by_s[s] if m.sp[(s, p)] < 200]
        for key in hits:
            m.remove(key)
        return Op("write_inherited", "apply",
                  f"Delete From SP Where SNAME = '{m.s[s][0]}' And QTY < 200;",
                  _rowcount(len(hits)))

    def insert_bulk(self):
        m, rng = self.model, self.rng
        rows = []
        for _ in range(INSERT_BATCH):
            key = m.fresh_key(rng)
            qty = rng.randrange(1, 1000)
            m.add(key, qty)
            rows.append(key + (qty,))
        return Op("bulk_insert", "apply", f"Insert Into SP Values {_values(rows)};",
                  _rowcount(len(rows)))

    def delete_range(self):
        # removes about as many rows as one bulk insert adds
        m, rng = self.model, self.rng
        width = max(1, round(INSERT_BATCH * len(m.s_keys) / max(1, len(m.sp))))
        first = rng.randrange(0, len(m.s_keys) - width + 1)
        lo, hi = m.s_keys[first], m.s_keys[first + width - 1]
        hits = [k for k in m.keys if lo <= k[0] <= hi]
        for key in hits:
            m.remove(key)
        return Op("bulk_delete", "apply", f"Delete From SP Where S# >= '{lo}' And S# <= '{hi}';",
                  _rowcount(len(hits)))


# --- ddl_catalog ---------------------------------------------------------------------


class DdlCatalog:
    """100 stored dimension tables and 300 relations with two */K select-form
    IEs each; every dimension has the same number of dependents so that the
    cascade size of an ALTER does not depend on which dimension is drawn."""

    primary, secondary = "open", "alter"

    def __init__(self, seed: int, n_dims=100, n_rels=300):
        rng = random.Random(seed)
        self.rng = rng
        self.dims = {}                  # name -> [(column, type)], key first
        for j in range(n_dims):
            d = f"D{j:03d}"
            self.dims[d] = [(f"{d}_K", "Char"), (f"{d}_" + rng.choice(SYLLABLES).upper(), "Char"),
                            (f"{d}_N", "Int")]
        fan_out = 2 * n_rels // n_dims
        slots = [d for d in self.dims for _ in range(fan_out)]
        while True:
            rng.shuffle(slots)
            pairs = [(slots[2 * i], slots[2 * i + 1]) for i in range(n_rels)]
            if all(a != b for a, b in pairs):
                break
        self.rels = {f"R{i:03d}": pair for i, pair in enumerate(pairs)}
        self.serial = itertools.count()
        self.final_checks = []

    def dependents(self, dim):
        return [r for r, pair in self.rels.items() if dim in pair]

    def rel_columns(self, rel):
        a, b = self.rels[rel]
        return ([f"{rel}_K", f"{rel}_F1", f"{rel}_F2"]
                + [c for c, _ in self.dims[a][1:]] + [c for c, _ in self.dims[b][1:]])

    def create_text(self, rel):
        a, b = self.rels[rel]
        return (f"Create Table {rel} ({rel}_K Char, {rel}_F1 Char, {rel}_F2 Char,"
                f" Primary Key ({rel}_K),"
                f" I_1 (Select */{a}_K From {a} Where {rel}.{rel}_F1 = {a}_K),"
                f" I_2 (Select */{b}_K From {b} Where {rel}.{rel}_F2 = {b}_K));")

    def setup_texts(self):
        texts = []
        for d, cols in self.dims.items():
            decls = ", ".join(f"{c} {t}" for c, t in cols)
            texts.append(f"Create Table {d} ({decls}, Primary Key ({cols[0][0]}));")
        texts.extend(self.create_text(r) for r in self.rels)
        return texts

    def columns_followup(self, rel):
        expected = self.rel_columns(rel)

        def check(rows):
            return None if list(rows.columns) == expected else \
                f"{rel} columns {rows.columns} != {expected}"
        return (f"Select * From {rel} Where {rel}_K = 'none';", check)

    def ops(self):
        # a session open before each round of DDL, a CLI cold start every third
        rng = self.rng
        while True:
            for _ in range(3):
                yield Op("open", "open", "", self.check_open)
                yield from self.ddl_round()
            rel = rng.choice(sorted(self.rels))
            yield Op("cli", "cli", f"explain {rel}", self.explain_check(rel))

    def check_open(self, layer):
        n = len(layer.catalog.entries())
        want = len(self.dims) + len(self.rels)
        return None if n == want else f"catalog has {n} relations, model {want}"

    def explain_check(self, rel):
        base, columns = f"{rel}_B", self.rel_columns(rel)

        def check(stdout):
            lines = stdout.strip().splitlines()
            if not lines or base not in lines[0] or not lines[0].startswith("CREATE TABLE"):
                return f"explain {rel}: first line {lines[:1]}"
            if not lines[-1].startswith("CREATE VIEW") or any(c not in stdout for c in columns):
                return f"explain {rel}: view chain lacks the model's columns"
            return None
        return check

    def ddl_round(self):
        rng = self.rng
        rel = f"Z{next(self.serial):05d}"
        self.rels[rel] = tuple(rng.sample(sorted(self.dims), 2))
        yield Op("create", "apply", self.create_text(rel), self.objects_check([f"{rel}_B", rel]),
                 [self.columns_followup(rel)])
        dim = rng.choice(sorted(self.dims))
        column = f"{dim}_X{next(self.serial)}"
        self.dims[dim].append((column, "Char"))
        followups = [self.columns_followup(r) for r in self.dependents(dim)]
        yield Op("alter", "apply", f"Alter Table {dim} Add {column} Char;",
                 self.objects_check([dim]), followups)
        self.dims[dim].pop()
        followups = [self.columns_followup(r) for r in self.dependents(dim)]
        yield Op("alter_drop", "apply", f"Alter Table {dim} Drop {column};",
                 self.objects_check([dim]), followups)
        del self.rels[rel]
        yield Op("drop", "apply", f"Drop Table {rel};", self.objects_check([rel, f"{rel}_B"]))

    @staticmethod
    def objects_check(required):
        def check(results):
            objects = [o.casefold() for r in results for o in r.objects]
            missing = [o for o in required if o.casefold() not in objects]
            return f"kernel objects {objects} lack {missing}" if missing else None
        return check


WORKLOADS = {
    "point_read": PointRead,
    "scan_agg": ScanAgg,
    "write_mix": WriteMix,
    "ddl_catalog": DdlCatalog,
}
