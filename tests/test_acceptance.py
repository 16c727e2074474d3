"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import pytest

from sirsql.cli import format_rows
from sirsql.errors import CircularReferenceError, RejectedWrite
from sirsql.kernel import RowSet
from sirsql.normalizer import (make_universal, normalize, stored_value_count)

from conftest import GOLDEN, fixture_text, load_sp2, make_layer
import test_properties as props


def verdict(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


ALTER_STATUS_OVER_SP = ("Alter Table S Alter STATUS As STATUS"
                        " (Select Int (SUM(QTY)/100) FROM SP WHERE S.S# = S#);")
ALTER_STATUS_OVER_BASE = ALTER_STATUS_OVER_SP.replace("FROM SP ", "FROM SP_B ")


def test_acceptance_1_figure4_reproduction():
    layer = load_sp2(make_layer())
    rows = layer.query("Select * From SP;")
    assert rows.columns == ["S#", "P#", "QTY", "SNAME", "STATUS", "SCITY",
                            "PNAME", "COLOR", "WEIGHT", "PCITY"]
    assert len(rows.rows) == 12
    canonical = format_rows(RowSet(columns=rows.columns, rows=sorted(rows.rows)), "table")
    assert canonical == (GOLDEN / "figure4_sp.txt").read_text(encoding="utf-8")
    verdict(1, "S-P2 full view reproduces the 12x10 reference content byte-exactly")


def test_acceptance_2_query_equivalence():
    layer = load_sp2(make_layer())
    q1 = layer.query("Select P#, PNAME, QTY From SP Where SNAME = 'Smith';")
    q2 = layer.query(
        "Select SP_B.P#, PNAME, QTY From S, SP_B, P"
        " Where SNAME = 'Smith' And S.S# = SP_B.S# And SP_B.P# = P.P#;")
    assert sorted(q1.rows) == sorted(q2.rows)
    assert len(q1.rows) == 6
    assert sorted(q1.rows) == [("P1", "Nut", 300), ("P2", "Bolt", 200),
                               ("P3", "Screw", 400), ("P4", "Screw", 200),
                               ("P5", "Cam", 100), ("P6", "Cog", 100)]
    verdict(2, "query through the inheriting relation equals the explicit 3-way join")


def test_acceptance_3_golden_ddl():
    layer = load_sp2(make_layer(), with_data=False)
    plans = []
    for name in ("S", "P", "SP"):
        plans.extend(layer.explain(name))
    assert len(plans) == 5
    assert "\n".join(plans) + "\n" == (GOLDEN / "sp2_plan.sql").read_text(encoding="utf-8")
    # shape assertions: two plain tables, base, join stage against S, full view against P
    assert plans[0].startswith("CREATE TABLE S ")
    assert plans[1].startswith("CREATE TABLE P ")
    assert plans[2].startswith("CREATE TABLE SP_B ")
    assert "LEFT JOIN S" in plans[3] and plans[3].startswith("CREATE VIEW SP_1 ")
    assert "LEFT JOIN P" in plans[4] and plans[4].startswith("CREATE VIEW SP ")

    layer.apply_source(fixture_text("sp3_alters.sirsql"))
    s_plan = layer.explain("S")
    assert "\n".join(s_plan) + "\n" == (GOLDEN / "sp3_s_plan.sql").read_text(encoding="utf-8")
    assert len(s_plan) == 3
    assert "(SELECT CAST(SUM(QTY) / 100 AS INTEGER) FROM SP_B" in s_plan[1]
    p_plan = layer.explain("P")
    assert "\n".join(p_plan) + "\n" == (GOLDEN / "sp3_p_plan.sql").read_text(encoding="utf-8")
    assert len(p_plan) == 4
    assert "WEIGHT_KG" in p_plan[1] and "WEIGHT_T" in p_plan[2]
    assert p_plan[3] == ("CREATE VIEW P AS SELECT \"P#\", PNAME, COLOR, WEIGHT,"
                         " WEIGHT_T, WEIGHT_KG, CITY FROM P_2;")
    verdict(3, "compiled DDL matches the golden plans (5 statements for S-P2;"
               " subquery and value-form chains for S-P3)")


def test_acceptance_4_computed_status():
    layer = load_sp2(make_layer())
    layer.apply_source(ALTER_STATUS_OVER_BASE)
    rows = layer.query("Select S#, STATUS From S Order By S#;")
    assert rows.rows == [("S1", 13), ("S2", 7), ("S3", 2), ("S4", 9), ("S5", None)]
    verdict(4, "computed STATUS yields 13/7/2/9 and NULL for the idle supplier")


def test_acceptance_5_virtual_attributes():
    layer = load_sp2(make_layer())
    layer.apply_source(
        "Alter Table P Add After WEIGHT WEIGHT_T As ( WEIGHT_KG / 1000),"
        " WEIGHT_KG As (Round (WEIGHT / 2.1,1));")
    rows = layer.query("Select * From P Where P# = 'P1';")
    assert rows.columns == ["P#", "PNAME", "COLOR", "WEIGHT",
                            "WEIGHT_T", "WEIGHT_KG", "CITY"]
    row = rows.rows[0]
    assert row[5] == pytest.approx(5.7, abs=1e-12)
    assert row[4] == pytest.approx(0.0057, abs=1e-15)
    verdict(5, "virtual attributes compute 0.0057 t / 5.7 kg in declared order")


def test_acceptance_6_null_subtuples():
    layer = load_sp2(make_layer())
    layer.apply_source("Insert Into SP Values ('S7','P10',200);")
    rows = [r for r in layer.query("Select * From SP;").rows if r[0] == "S7"]
    assert rows == [("S7", "P10", 200) + (None,) * 7]
    verdict(6, "unmatched insert shows the row with seven NULL inherited values")


def test_acceptance_7_circular_reference_gate():
    layer = load_sp2(make_layer())
    with pytest.raises(CircularReferenceError) as err:
        layer.apply_source(ALTER_STATUS_OVER_SP)
    assert set(err.value.cycle) == {"S", "SP"}
    layer.apply_source(ALTER_STATUS_OVER_BASE)
    manual = layer.query("Select S#, SNAME, STATUS, CITY From S Order By S#;").rows

    auto = load_sp2(make_layer(rewrite_to_base=True))
    auto.apply_source(ALTER_STATUS_OVER_SP)
    assert auto.query("Select S#, SNAME, STATUS, CITY From S Order By S#;").rows == manual
    verdict(7, "cycle rejected with [S, SP]; base form succeeds; auto-rewrite matches it")


def test_acceptance_8_normalizer_example():
    from test_normalizer import (EX8_ATTRS, EX8_FDS, EX8_HINTS, EX8_MVDS,
                                 final_shapes)
    u = make_universal("U", EX8_ATTRS)
    fagin_drafts, _ = normalize(u, EX8_FDS, EX8_MVDS, name_hints=EX8_HINTS)
    shapes = final_shapes(fagin_drafts)
    assert set(shapes) == {"S", "P", "SE", "SP"}
    assert shapes["SE"] == (("S#", "EMAIL"), ("EMAIL",),
                            (("I_SP", "SP", ("SNAME", "STATUS", "SCITY")),))
    assert shapes["SP"] == (("P#", "S#", "QTY"), ("P#", "S#"),
                            (("I_S", "S", ("SNAME", "STATUS", "SCITY")),
                             ("I_P", "P", ("PNAME", "COLOR", "WEIGHT", "PCITY"))))

    heath_drafts, _ = normalize(u, EX8_FDS, EX8_MVDS, heath_first=True,
                                name_hints=EX8_HINTS)
    heath_shapes = final_shapes(heath_drafts)
    assert set(heath_shapes) == {"S'", "SE", "P", "SP'"}
    assert heath_shapes["S'"][0] == ("EMAIL", "SNAME", "STATUS", "SCITY")

    instance = props.random_ex8_instance_two_emails()
    assert stored_value_count(fagin_drafts, instance) \
        < stored_value_count(heath_drafts, instance)
    verdict(8, "Fagin-first yields {S, P, SE, SP}; Heath-first yields the"
               " sub-optimal {S', SE, P, SP'} with strictly more stored values")


def test_acceptance_9_property_suites():
    props.test_cardinality_equals_base_on_random_schemes()
    props.test_every_normalize_step_is_lossless_on_satisfying_instances(False)
    props.test_every_normalize_step_is_lossless_on_satisfying_instances(True)
    props.test_compile_determinism_on_random_schemes()
    props.test_random_schemes_answer_like_a_hand_computed_model()
    props.test_restated_bcnf_matches_classic_oracle()
    verdict(9, "cardinality, losslessness, determinism, hand-computed answers and"
               " BCNF-oracle suites all hold over 100+ seeded cases each")


def test_acceptance_10_write_policy():
    layer = load_sp2(make_layer())
    result = layer.apply_source("Update SP set QTY = 250 where S# = 'S1' and P# = 'P1';")
    assert result[0].rowcount == 1
    assert layer.query("Select QTY From SP Where S# = 'S1' And P# = 'P1';").rows == [(250,)]

    before = layer.conn.query('SELECT * FROM SP_B ORDER BY "S#", "P#"').rows
    with pytest.raises(RejectedWrite):
        layer.apply_source(
            "Update SP set QTY = 250, CITY = 'Paris' where S# = 'S1' and P# = 'P1';")
    assert layer.conn.query('SELECT * FROM SP_B ORDER BY "S#", "P#"').rows == before

    result = layer.apply_source("Delete SP Where S# = 'S1';")
    assert result[0].rowcount == 6
    assert len(layer.query("Select * From SP;").rows) == 6
    verdict(10, "stored update succeeds; inherited write rejected bit-identically;"
                " delete removes exactly the six matching base rows")
