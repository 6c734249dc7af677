"""CLI tests (driven in-process via main())."""

import pytest

from repro.cli import main


def test_generate_university(capsys):
    code = main(
        [
            "generate",
            "--university",
            "--fk", "teaches.id",
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "datasets:" in out
    assert "instructor" in out


def test_mutants_listing(capsys):
    code = main(
        [
            "mutants",
            "--university",
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "total: 2 mutants" in out


def test_mutants_full_outer(capsys):
    code = main(
        [
            "mutants",
            "--university",
            "--full-outer",
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        ]
    )
    assert code == 0
    assert "total: 3 mutants" in capsys.readouterr().out


def test_evaluate_reports_kills(capsys):
    code = main(
        [
            "evaluate",
            "--university",
            "--fk", "teaches.id",
            "--trials", "5",
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "killed: 1" in out
    assert "missed (non-equivalent!): 0" in out


def test_schema_file(tmp_path, capsys):
    ddl = tmp_path / "schema.sql"
    ddl.write_text(
        "CREATE TABLE r (a INT PRIMARY KEY);"
        "CREATE TABLE s (a INT REFERENCES r(a), b INT);"
    )
    code = main(
        [
            "generate",
            "--schema", str(ddl),
            "SELECT * FROM r, s WHERE r.a = s.a",
        ]
    )
    assert code == 0
    assert "r(a)" in capsys.readouterr().out


def test_parse_error_is_reported(capsys):
    code = main(["generate", "--university", "SELECT FROM WHERE"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_table_is_reported(capsys):
    code = main(["generate", "--university", "SELECT * FROM nope"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_export_writes_sql_files(tmp_path, capsys):
    out_dir = tmp_path / "fixtures"
    code = main(
        [
            "export",
            "--university",
            "--fk", "teaches.id",
            "--out", str(out_dir),
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        ]
    )
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["dataset_00_original.sql", "dataset_01_eqclass.sql"]
    text = (out_dir / "dataset_01_eqclass.sql").read_text()
    assert text.startswith("--")
    assert "INSERT INTO instructor" in text
    # FK-safe order: instructor rows precede teaches rows.
    assert text.index("INSERT INTO instructor") < text.index(
        "INSERT INTO teaches"
    )


def test_workload_command(tmp_path, capsys):
    source = tmp_path / "queries.sql"
    source.write_text(
        "-- name: teaching\n"
        "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id;\n"
        "-- name: credits\n"
        "SELECT c.title FROM course c WHERE c.credits > 3;\n"
    )
    out_dir = tmp_path / "fixtures"
    code = main(
        [
            "workload",
            "--university",
            "--fk", "teaches.id",
            "--out", str(out_dir),
            str(source),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "workload: 2 queries" in out
    assert list(out_dir.iterdir())


def test_workload_workers_match_sequential(tmp_path, capsys):
    source = tmp_path / "queries.sql"
    source.write_text(
        "-- name: teaching\n"
        "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id;\n"
        "-- name: credits\n"
        "SELECT c.title FROM course c WHERE c.credits > 3;\n"
    )
    outputs = []
    for workers in ("1", "2"):
        assert main(
            ["workload", "--university", "--workers", workers, str(source)]
        ) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["generate", "mutants", "evaluate"])
def test_only_workload_takes_workers(command, capsys):
    """Fan-out is per query, so single-query commands have no --workers."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--university", "--workers", "2", "SELECT * FROM instructor"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_workload_file_parser():
    from repro.cli import parse_workload_file

    queries = parse_workload_file(
        "-- name: a\nSELECT 1 FROM t;\n\n-- NAME: b\nSELECT 2\nFROM s;\n"
    )
    assert queries == {"a": "SELECT 1 FROM t", "b": "SELECT 2\nFROM s"}


def test_workload_without_sections_errors(tmp_path, capsys):
    source = tmp_path / "queries.sql"
    source.write_text("SELECT * FROM t;")
    code = main(["workload", "--university", str(source)])
    assert code == 1


def test_no_unfold_flag(capsys):
    code = main(
        [
            "generate",
            "--university",
            "--no-unfold",
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id",
        ]
    )
    assert code == 0


def test_input_db_flag(capsys):
    code = main(
        [
            "generate",
            "--university",
            "--input-db",
            "SELECT * FROM instructor i WHERE i.salary > 70000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    # Values come from the bundled sample database (real names, not
    # synthesised symbols like name~1), though columns mix across rows
    # (domain mode does not force whole tuples — Section VI-A).
    assert "name~" not in out
    assert "Srinivasan" in out or "Crick" in out or "Katz" in out
