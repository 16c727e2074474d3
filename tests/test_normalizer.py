from __future__ import annotations

import pytest

from sirsql.errors import CircularReferenceError, NotApplicable, ParseError, SchemaMismatch
from sirsql.kernel import RowSet
from sirsql.normalizer import (FunctionalDependency,
                               MultivaluedDependency, SchemeDraft, attribute_closure,
                               candidate_key, drafts_to_sirsql, fagin_decompose,
                               heath_decompose, is_4nf, is_bcnf, lossless_check,
                               make_universal, normalize, parse_dependency_file,
                               render_trace, stored_value_count)
from sirsql.parser import parse

from conftest import fixture_text, make_layer

FD = FunctionalDependency
MVD = MultivaluedDependency

EX8_FDS = [
    FD(("EMAIL",), ("S#",)),
    FD(("S#",), ("SNAME", "STATUS", "SCITY")),
    FD(("P#",), ("PNAME", "COLOR", "WEIGHT", "PCITY")),
    FD(("S#", "P#"), ("QTY",)),
]
EX8_MVDS = [MVD(("S#",), ("EMAIL",))]
EX8_ATTRS = ["EMAIL", "S#", "SNAME", "STATUS", "SCITY",
             "P#", "PNAME", "COLOR", "WEIGHT", "PCITY", "QTY"]
EX8_HINTS = {
    frozenset({"s#", "email"}): "SE",
    frozenset({"s#", "sname", "status", "scity"}): "S",
    frozenset({"p#", "pname", "color", "weight", "pcity"}): "P",
    frozenset({"s#", "p#", "qty"}): "SP",
    frozenset({"email", "sname", "status", "scity"}): "S'",
    frozenset({"p#", "email", "qty"}): "SP'",
}


# --- closure -------------------------------------------------------------------


def test_closure_supplier_key():
    assert attribute_closure(["S#"], EX8_FDS) == {"s#", "sname", "status", "scity"}


def test_closure_empty_fds_is_identity():
    assert attribute_closure(["A", "B"], []) == {"a", "b"}


def test_closure_two_step_fixpoint():
    fds = [FD(("EMAIL",), ("S#",)), FD(("S#",), ("SNAME",))]
    assert attribute_closure(["EMAIL"], fds) == {"email", "s#", "sname"}


# --- normal forms ----------------------------------------------------------------


def draft(stored, inherited=(), name="T"):
    d = SchemeDraft(name=name, stored=list(stored))
    if inherited:
        from sirsql.normalizer import DraftIE
        d.ies = [DraftIE(name="I_X", source="X", produced=list(inherited),
                         join_cols=[stored[0]])]
    return d


SP_FDS = [FD(("S#",), ("SNAME",)), FD(("S#", "P#"), ("QTY",))]


def test_sp_base_is_bcnf():
    assert is_bcnf(draft(["S#", "P#", "QTY"]), SP_FDS)


def test_stored_sname_breaks_bcnf():
    assert not is_bcnf(draft(["S#", "SNAME", "P#", "QTY"]), SP_FDS)


def test_inherited_sname_restores_bcnf():
    assert is_bcnf(draft(["S#", "P#", "QTY"], inherited=["SNAME"]), SP_FDS)


def test_4nf_checks_declared_mvds():
    u = draft(EX8_ATTRS)
    assert not is_4nf(u, EX8_FDS, EX8_MVDS)
    se = draft(["S#", "EMAIL"])
    assert is_4nf(se, EX8_FDS, EX8_MVDS)


def test_candidate_key_of_universal():
    assert candidate_key(EX8_ATTRS, EX8_FDS) == ["EMAIL", "P#"]


# --- heath ---------------------------------------------------------------------


def test_heath_on_supplier_fd():
    sp = SchemeDraft(name="SP", stored=list(EX8_ATTRS[1:]))
    step = heath_decompose(sp, FD(("S#",), ("SNAME", "STATUS", "SCITY")),
                           EX8_FDS, split_name="S")
    split, residual = step.outputs
    assert split.stored == ["S#", "SNAME", "STATUS", "SCITY"]
    assert split.keys == [["S#"]]
    assert residual.stored == ["S#", "P#", "PNAME", "COLOR", "WEIGHT", "PCITY", "QTY"]
    ie = residual.ies[0]
    assert ie.source == "S"
    assert ie.produced == ["SNAME", "STATUS", "SCITY"]
    assert ie.exclude == ["S#"]  # star-minus over the split scheme


def test_heath_generic_abc():
    abc = make_universal("ABC", ["A", "B", "C"])
    step = heath_decompose(abc, FD(("A",), ("B",)), [FD(("A",), ("B",))])
    split, residual = step.outputs
    assert split.stored == ["A", "B"]
    assert residual.stored == ["A", "C"]
    assert residual.ies[0].produced == ["B"]


def test_heath_superkey_lhs_not_applicable():
    abc = make_universal("ABC", ["A", "B", "C"])
    fds = [FD(("A",), ("B", "C"))]
    with pytest.raises(NotApplicable):
        heath_decompose(abc, FD(("A",), ("B", "C")), fds)


# --- fagin ---------------------------------------------------------------------


def test_fagin_example8_first_step():
    u = make_universal("U", EX8_ATTRS)
    step = fagin_decompose(u, EX8_MVDS[0], EX8_FDS, split_name="SE")
    split, residual = step.outputs
    assert split.stored == ["S#", "EMAIL"]
    ie = split.ies[0]
    assert ie.produced == ["SNAME", "STATUS", "SCITY"]   # C' as computed
    assert residual.ies == []                             # B' empty: no IE back
    assert residual.stored == ["S#", "SNAME", "STATUS", "SCITY",
                               "P#", "PNAME", "COLOR", "WEIGHT", "PCITY", "QTY"]


def test_fagin_without_fds_creates_no_ies():
    u = make_universal("U", ["A", "B", "C"])
    step = fagin_decompose(u, MVD(("A",), ("B",)), [])
    split, residual = step.outputs
    assert split.stored == ["A", "B"] and residual.stored == ["A", "C"]
    assert split.ies == [] and residual.ies == []


def test_fagin_trivial_not_applicable():
    u = make_universal("U", ["A", "B"])
    with pytest.raises(NotApplicable):
        fagin_decompose(u, MVD(("A",), ("B",)), [])


def test_fagin_both_sides_inheriting_is_noted():
    u = make_universal("U", ["A", "B", "C"])
    fds = [FD(("A",), ("B",)), FD(("A",), ("C",))]
    # not a realistic 4NF scenario, but the symmetric formulas must apply
    step = fagin_decompose(u, MVD(("A",), ("B",)), fds)
    assert len(step.created_ies) == 2
    assert step.notes


# --- normalize -----------------------------------------------------------------


def final_shapes(drafts):
    return {d.name: (tuple(d.stored), tuple(d.keys[0]),
                     tuple((ie.name, ie.source, tuple(ie.produced)) for ie in d.ies))
            for d in drafts}


def test_normalize_example8_fagin_first():
    u = make_universal("U", EX8_ATTRS)
    drafts, steps = normalize(u, EX8_FDS, EX8_MVDS, name_hints=EX8_HINTS)
    shapes = final_shapes(drafts)
    assert set(shapes) == {"SE", "S", "P", "SP"}
    assert shapes["S"] == (("S#", "SNAME", "STATUS", "SCITY"), ("S#",), ())
    assert shapes["P"] == (("P#", "PNAME", "COLOR", "WEIGHT", "PCITY"), ("P#",), ())
    assert shapes["SE"] == (("S#", "EMAIL"), ("EMAIL",),
                            (("I_SP", "SP", ("SNAME", "STATUS", "SCITY")),))
    assert shapes["SP"] == (("P#", "S#", "QTY"), ("P#", "S#"),
                            (("I_S", "S", ("SNAME", "STATUS", "SCITY")),
                             ("I_P", "P", ("PNAME", "COLOR", "WEIGHT", "PCITY"))))
    assert [s.kind for s in steps] == ["fagin", "heath", "heath"]
    assert all(is_4nf(d, EX8_FDS, EX8_MVDS) for d in drafts)


def test_normalize_example8_heath_first_is_suboptimal_shape():
    u = make_universal("U", EX8_ATTRS)
    drafts, steps = normalize(u, EX8_FDS, EX8_MVDS, heath_first=True, name_hints=EX8_HINTS)
    shapes = final_shapes(drafts)
    assert set(shapes) == {"SE", "S'", "P", "SP'"}
    assert shapes["SE"] == (("EMAIL", "S#"), ("EMAIL",), ())
    assert shapes["S'"] == (("EMAIL", "SNAME", "STATUS", "SCITY"), ("EMAIL",),
                            (("I_SE", "SE", ("S#",)),))
    assert shapes["SP'"][0] == ("P#", "EMAIL", "QTY")
    ies = dict((name, (src, cols)) for name, src, cols in shapes["SP'"][2])
    assert ies["I_SE"] == ("SE", ("S#",))
    assert ies["I_S'"] == ("S'", ("SNAME", "STATUS", "SCITY"))
    assert ies["I_P"] == ("P", ("PNAME", "COLOR", "WEIGHT", "PCITY"))
    assert all(s.kind == "heath" for s in steps)


def test_final_drafts_cover_the_universal_attributes():
    u = make_universal("U", EX8_ATTRS)
    for heath_first in (False, True):
        drafts, _ = normalize(u, EX8_FDS, EX8_MVDS, heath_first=heath_first,
                              name_hints=EX8_HINTS)
        universe = {a.casefold() for a in EX8_ATTRS}
        for d in drafts:
            assert is_4nf(d, EX8_FDS, EX8_MVDS)
            assert d.stored_set() <= universe
        covered = set().union(*(d.stored_set() for d in drafts))
        assert covered == universe


def test_each_split_takes_a_name_no_draft_holds():
    universal, fds, mvds, hints = parse_dependency_file(
        "RELATION U (A0 Char, A1 Char, A2 Char, A3 Char, A4 Char)\nA3 -> A0\nA0 -> A3, A1\n")
    drafts, _ = normalize(universal, fds, mvds, name_hints=hints)
    assert sorted(d.name for d in drafts) == ["U", "U1", "U2"]
    layer = make_layer()
    layer.apply_source(drafts_to_sirsql(drafts))
    assert layer.query("Select * From U;").columns == ["A0", "A2", "A4", "A3", "A1"]


def test_a_split_whose_sides_read_each_other_is_refused():
    universal, fds, mvds, hints = parse_dependency_file(fixture_text("mutual_split.deps"))
    drafts, steps = normalize(universal, fds, mvds, name_hints=hints)
    assert steps[0].notes and len(steps[0].created_ies) == 2
    with pytest.raises(CircularReferenceError) as err:
        drafts_to_sirsql(drafts)
    assert err.value.cycle == ["U1", "U"]


def test_normalize_already_4nf_returns_unchanged():
    u = make_universal("SP", ["S#", "P#", "QTY"])
    drafts, steps = normalize(u, SP_FDS[1:], [])
    assert steps == []
    assert drafts[0].stored == ["S#", "P#", "QTY"]
    assert "already in 4NF" in render_trace(steps)


def test_normalize_step_budget_safety_valve():
    from sirsql.errors import NoProgress
    u = make_universal("U", EX8_ATTRS)
    with pytest.raises(NoProgress):
        normalize(u, EX8_FDS, EX8_MVDS, max_steps=0)


def test_normalize_output_parses_and_is_topologically_ordered():
    universal, fds, mvds, hints = parse_dependency_file(fixture_text("ex8.deps"))
    drafts, _ = normalize(universal, fds, mvds, name_hints=hints)
    text = drafts_to_sirsql(drafts)
    statements = parse(text)
    names = [s.name for s in statements]
    assert names.index("SP") > names.index("S")
    assert names.index("SE") > names.index("SP")


# --- lossless ------------------------------------------------------------------


def heath_step_abc():
    abc = make_universal("ABC", ["A", "B", "C"])
    return heath_decompose(abc, FD(("A",), ("B",)), [FD(("A",), ("B",))])


def test_lossless_on_fd_satisfying_instance():
    step = heath_step_abc()
    instance = RowSet(columns=["A", "B", "C"],
                      rows=[(1, "x", 10), (1, "x", 20), (2, "y", 10)])
    assert lossless_check(step, instance)


def test_fagin_lossless_vs_violating_instance():
    u = make_universal("U", ["A", "B", "C"])
    step = fagin_decompose(u, MVD(("A",), ("B",)), [])
    satisfying = RowSet(columns=["A", "B", "C"],
                        rows=[(1, "b1", "c1"), (1, "b1", "c2"),
                              (1, "b2", "c1"), (1, "b2", "c2")])
    assert lossless_check(step, satisfying)
    violating = RowSet(columns=["A", "B", "C"],
                       rows=[(1, "b1", "c1"), (1, "b2", "c2")])
    assert not lossless_check(step, violating)


def test_lossless_empty_instance():
    assert lossless_check(heath_step_abc(), RowSet(columns=["A", "B", "C"], rows=[]))


def test_lossless_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        lossless_check(heath_step_abc(), RowSet(columns=["A", "B"], rows=[]))


# --- stored value count ------------------------------------------------------------


def test_single_scheme_counts_rows_times_columns():
    scheme = make_universal("T", ["A", "B"])
    instance = RowSet(columns=["A", "B"], rows=[(1, 2), (3, 4), (5, 6)])
    assert stored_value_count([scheme], instance) == 6


def test_projection_deduplicates():
    scheme = make_universal("K", ["S#"])
    rows = [(s, p) for s in ("S1", "S2", "S3", "S4") for p in ("P1", "P2", "P3")]
    instance = RowSet(columns=["S#", "P#"], rows=rows)
    assert stored_value_count([scheme], instance) == 4


def test_fagin_first_beats_heath_first_with_two_emails_each():
    u = make_universal("U", EX8_ATTRS)
    fagin_drafts, _ = normalize(u, EX8_FDS, EX8_MVDS, name_hints=EX8_HINTS)
    heath_drafts, _ = normalize(u, EX8_FDS, EX8_MVDS, heath_first=True,
                                name_hints=EX8_HINTS)
    rows = []
    for i in (1, 2, 3):
        supplier = f"S{i}"
        for email in (f"{supplier}@a", f"{supplier}@b"):
            for j in (1, 2):
                part = f"P{j}"
                rows.append((email, supplier, f"N{i}", "20", "London",
                             part, f"PN{j}", "Red", "12", "Paris", 100 * j))
    instance = RowSet(columns=EX8_ATTRS, rows=rows)
    assert stored_value_count(fagin_drafts, instance) \
        < stored_value_count(heath_drafts, instance)


# --- dependency file parsing ----------------------------------------------------------


def test_parse_dependency_file_fixture():
    universal, fds, mvds, hints = parse_dependency_file(fixture_text("ex8.deps"))
    assert universal.name == "U"
    assert universal.stored == EX8_ATTRS
    assert universal.types["qty"] == "Int"
    assert len(fds) == 4 and len(mvds) == 1
    assert hints[frozenset({"email", "sname", "status", "scity"})] == "S'"


def test_parse_dependency_file_requires_header():
    with pytest.raises(ParseError):
        parse_dependency_file("A -> B\n")


def test_parse_dependency_file_rejects_bad_complement():
    text = "RELATION U (A, B, C)\nA ->> B | A\n"
    with pytest.raises(ParseError, match="complement"):
        parse_dependency_file(text)
