from __future__ import annotations

import argparse
import io
import json
import re
from pathlib import Path

import pytest

from sirsql.cli import build_parser, format_rows, main
from sirsql.kernel import KernelConnection, RowSet

from conftest import FIXTURES


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "cli.sqlite")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def apply_sp2(db, capsys, with_data=True):
    code, out, err = run(["-k", db, "apply", str(FIXTURES / "sp2_schema.sirsql")], capsys)
    assert code == 0, err
    if with_data:
        code, out, err = run(["-k", db, "apply", str(FIXTURES / "sp2_data.sirsql")], capsys)
        assert code == 0, err


def test_apply_reports_objects(db, capsys):
    code, out, err = run(["-k", db, "apply", str(FIXTURES / "sp2_schema.sirsql")], capsys)
    assert code == 0
    assert "objects: SP_B, SP_1, SP" in out
    assert out.count("ok create table") == 3
    # 5 relations plus the reserved meta-table
    assert out.splitlines()[-1] == "kernel objects: 6"


def test_apply_empty_file(db, tmp_path, capsys):
    empty = tmp_path / "empty.sirsql"
    empty.write_text("-- nothing here\n")
    code, out, err = run(["-k", db, "apply", str(empty)], capsys)
    assert code == 0 and out == ""


def test_apply_parse_error_exits_3(db, tmp_path, capsys):
    bad = tmp_path / "bad.sirsql"
    bad.write_text("Create Tabel X;")
    code, out, err = run(["-k", db, "apply", str(bad)], capsys)
    assert code == 3
    assert "parse error" in err


def test_apply_circular_schema_exits_2(db, tmp_path, capsys):
    apply_sp2(db, capsys, with_data=False)
    bad = tmp_path / "circ.sirsql"
    bad.write_text(
        "Alter Table S Alter STATUS As STATUS"
        " (Select Int (SUM(QTY)/100) FROM SP WHERE S.S# = S#);")
    code, out, err = run(["-k", db, "apply", str(bad)], capsys)
    assert code == 2
    assert "S" in err and "SP" in err


def test_apply_aborts_at_first_failure(db, tmp_path, capsys):
    apply_sp2(db, capsys, with_data=False)
    script = tmp_path / "multi.sirsql"
    script.write_text(
        "Insert Into S Values ('S1','Smith','20','London');\n"
        "Drop Table MISSING;\n"
        "Insert Into S Values ('S2','Jones','10','Paris');\n")
    code, out, err = run(["-k", db, "apply", str(script)], capsys)
    assert code == 2
    code, out, err = run(["-k", db, "query", "Select count(*) From S;"], capsys)
    assert "1" in out.splitlines()[-1]


def test_query_table_format(db, capsys):
    apply_sp2(db, capsys)
    code, out, err = run(
        ["-k", db, "query", "Select P#, QTY From SP Where SNAME = 'Smith' Order By P#;"],
        capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["P#", "QTY"]
    assert len(lines) == 8  # header + rule + 6 rows


def test_query_csv_and_json_formats(db, capsys):
    apply_sp2(db, capsys)
    code, out, _ = run(["-k", db, "--format", "csv", "query",
                        "Select S#, STATUS From S Where S# = 'S1';"], capsys)
    assert out == "S#,STATUS\nS1,20\n"
    code, out, _ = run(["-k", db, "--format", "json-lines", "query",
                        "Select S#, QTY From SP Where P# = 'P3';"], capsys)
    assert json.loads(out) == {"S#": "S1", "QTY": 400}


def test_query_unknown_relation_exits_1(db, capsys):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = run(["-k", db, "query", "Select * From NOWHERE;"], capsys)
    assert code == 1


def test_query_nested_too_deep_exits_3(db, capsys):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = run(
        ["-k", db, "query", "Select " + "(" * 500 + "1" + ")" * 500 + " From S;"], capsys)
    assert code == 3
    assert "nested more than" in err


def test_query_reading_a_corrupt_scheme_exits_2(db, capsys):
    apply_sp2(db, capsys, with_data=False)
    conn = KernelConnection(db)
    conn.execute("UPDATE sir_relations SET source_text = 'Create Tabel P' WHERE name = 'P'")
    conn.close()
    # the open parses no scheme; routing Count(*) reads P's, and a catalog fault exits 2
    code, out, err = run(["-k", db, "query", "Select Count(*) From SP;"], capsys)
    assert code == 2
    assert err.startswith("error: P: unparseable source text")


def test_explain_prints_stored_plan(db, capsys):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = run(["-k", db, "explain", "SP"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("CREATE TABLE SP_B")
    assert "LEFT JOIN S" in lines[1]
    assert "LEFT JOIN P" in lines[2]


def test_explain_stored_table_single_statement(db, capsys):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = run(["-k", db, "explain", "S"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1


def test_explain_unknown_relation_exits_2(db, capsys):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = run(["-k", db, "explain", "NOWHERE"], capsys)
    assert code == 2


def test_check_ok_and_violation(db, tmp_path, capsys):
    script = tmp_path / "dup.sirsql"
    script.write_text("""
    Create Table S (S# Char, SNAME Char);
    Create Table SP (S# Char, P# Char, QTY Int, Primary Key (S#, P#),
      I_S (Select SNAME From S Where SP.S# = S#));
    Insert Into S Values ('S1','Smith');
    Insert Into SP Values ('S1','P1',300);
    """)
    run(["-k", db, "apply", str(script)], capsys)
    code, out, err = run(["-k", db, "check", "SP"], capsys)
    assert (code, out) == (0, "ok\n")
    dup = tmp_path / "dup2.sirsql"
    dup.write_text("Insert Into S Values ('S1','Smith');")
    run(["-k", db, "apply", str(dup)], capsys)
    code, out, err = run(["-k", db, "check", "SP"], capsys)
    assert code == 1
    assert "I_S" in out and "2" in out


def test_decompose_fixture(db, tmp_path, capsys):
    code, out, err = run(["decompose", str(FIXTURES / "ex8.deps")], capsys)
    assert code == 0
    for name in ("CREATE TABLE S ", "CREATE TABLE P ", "CREATE TABLE SP ",
                 "CREATE TABLE SE "):
        assert name in out
    assert "multivalued split" in out
    # generated schema must itself apply cleanly
    schema = tmp_path / "gen.sirsql"
    schema.write_text(out[:out.index("1. multivalued")])
    code, out2, err = run(["-k", db, "apply", str(schema)], capsys)
    assert code == 0, err


def test_decompose_heath_first_variant(capsys):
    code, out, err = run(["decompose", "--heath-first", str(FIXTURES / "ex8.deps")], capsys)
    assert code == 0
    assert 'CREATE TABLE "S\'" ' in out
    assert 'CREATE TABLE "SP\'" ' in out
    assert "functional split" in out and "multivalued" not in out


def test_decompose_already_4nf(tmp_path, capsys):
    deps = tmp_path / "flat.deps"
    deps.write_text("RELATION T (A, B, C)\n")
    code, out, err = run(["decompose", str(deps)], capsys)
    assert code == 0
    assert "CREATE TABLE T (A Char, B Char, C Char);" in out
    assert "already in 4NF" in out


def test_decompose_bad_input_exits_2(tmp_path, capsys):
    deps = tmp_path / "bad.deps"
    deps.write_text("A -> B\n")  # missing RELATION header
    code, out, err = run(["decompose", str(deps)], capsys)
    assert code == 2
    assert "error" in err


def test_repl_matches_one_shot_results(db, tmp_path, capsys, monkeypatch):
    apply_sp2(db, capsys)
    script = "Select P#, QTY From SP Where SNAME = 'Smith' Order By P#;\n.quit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code = main(["-k", db, "repl"])
    repl_out = capsys.readouterr().out
    code, oneshot_out, _ = run(
        ["-k", db, "query", "Select P#, QTY From SP Where SNAME = 'Smith' Order By P#;"],
        capsys)
    assert repl_out == oneshot_out


def test_repl_dot_commands(db, capsys, monkeypatch):
    apply_sp2(db, capsys, with_data=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(".schema SP\n.explain SP\n.check SP\n.quit\n"))
    code = main(["-k", db, "repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CREATE TABLE SP (" in out          # declared scheme
    assert "CREATE TABLE SP_B" in out          # plan
    assert "ok" in out                          # check


def test_repl_error_does_not_end_session(db, capsys, monkeypatch):
    apply_sp2(db, capsys, with_data=False)
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("Select * From MISSING;\nSelect 1 As one From S;\n"))
    code = main(["-k", db, "repl"])
    captured = capsys.readouterr()
    assert code == 0
    assert "error" in captured.err
    assert "one" in captured.out


def repl_run(db, script, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code = main(["-k", db, "repl"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repl_comment_with_a_quote_does_not_swallow_later_lines(db, capsys, monkeypatch):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = repl_run(
        db, "-- it's a note\nSelect 1 As one From S;\n.quit\nSelect 2 As two From S;\n",
        capsys, monkeypatch)
    assert code == 0 and err == ""
    assert "one" in out and "two" not in out


def test_repl_quoted_identifier_with_a_quote_ends_its_statement(db, capsys, monkeypatch):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = repl_run(
        db, 'Select 1 As "it\'s" From S;\nSelect 2 As two From S;\n', capsys, monkeypatch)
    assert code == 0 and err == ""
    assert "it's" in out and "two" in out


def test_repl_semicolon_in_a_block_comment_does_not_end_a_statement(db, capsys, monkeypatch):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = repl_run(
        db, "Select /* ; */ 1 As one\n/* a comment\nspanning; lines */ From S\n;\n",
        capsys, monkeypatch)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "one"


def test_repl_string_spanning_lines_is_read_to_its_end(db, capsys, monkeypatch):
    apply_sp2(db, capsys)
    code, out, err = repl_run(db, "Select 'a;\nb' As v From S Where S# = 'S1';\n.quit\n",
                              capsys, monkeypatch)
    assert code == 0 and err == ""
    assert out.splitlines()[2:4] == ["a;", "b"]


def test_repl_reports_an_unfinished_statement_at_end_of_input(db, capsys, monkeypatch):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = repl_run(db, "Select 1 As one From S;\nSelect 2 As two\nFrom S\n",
                              capsys, monkeypatch)
    assert code == 0
    assert "one" in out and "two" not in out
    assert err == "error: incomplete statement at end of input: Select 2 As two\nFrom S\n"


def test_repl_reports_a_stray_character_at_once(db, capsys, monkeypatch):
    apply_sp2(db, capsys, with_data=False)
    code, out, err = repl_run(db, "Select 1 ? 2\nSelect 2 As two From S;\n",
                              capsys, monkeypatch)
    assert code == 0
    assert err.startswith("error: unexpected character '?' at line 1")
    assert "two" in out


def test_format_rows_null_rendering():
    rows = RowSet(columns=["A", "B"], rows=[(1, None)])
    assert "NULL" in format_rows(rows, "table")
    assert format_rows(rows, "csv") == "A,B\n1,\n"
    assert json.loads(format_rows(rows, "json-lines")) == {"A": 1, "B": None}


def test_env_var_kernel_location(db, capsys, monkeypatch):
    monkeypatch.setenv("SIRSQL_KERNEL", db)
    code, out, err = run(["apply", str(FIXTURES / "sp2_schema.sirsql")], capsys)
    assert code == 0
    code, out, err = run(["explain", "SP"], capsys)
    assert code == 0 and "CREATE TABLE SP_B" in out


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {flag for action in parser._actions if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings}


def test_readme_cli_flags_table_matches_the_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## CLI flags", 1)[1].split("\n\n")[1]
    listed = {flag for row in table.splitlines() if row.startswith("| `")
              for flag in re.findall(r"`(-[^`]+)`", row.split("|")[1])}
    parser = build_parser()
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices.values()
    accepted = _options(parser).union(*map(_options, subcommands))
    assert _options(parser) <= listed
    assert listed <= accepted


@pytest.mark.parametrize("flag", ["--skip-redundant-full-view", "--collapse-value-ies"])
def test_removed_plan_shape_flags_are_refused(db, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-k", db, flag, "apply", str(FIXTURES / "sp2_schema.sirsql")])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not Path(db).exists()
