"""DDL parser tests."""

import pytest

from repro.errors import ParseError, SchemaError
from repro.schema.ddl import parse_ddl
from repro.schema.types import SqlType


def test_single_table():
    schema = parse_ddl("CREATE TABLE t (a INT, b VARCHAR(10))")
    t = schema.table("t")
    assert t.column_names == ["a", "b"]
    assert t.column("a").sqltype is SqlType.INT
    assert t.column("b").sqltype is SqlType.VARCHAR


def test_inline_primary_key():
    schema = parse_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    assert schema.table("t").primary_key == ("a",)
    assert not schema.table("t").column("a").nullable


def test_table_level_primary_key():
    schema = parse_ddl("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))")
    assert schema.table("t").primary_key == ("a", "b")


def test_not_null():
    schema = parse_ddl("CREATE TABLE t (a INT NOT NULL, b INT)")
    assert not schema.table("t").column("a").nullable
    assert schema.table("t").column("b").nullable


def test_inline_references():
    schema = parse_ddl(
        "CREATE TABLE r (a INT PRIMARY KEY);"
        "CREATE TABLE s (a INT REFERENCES r(a))"
    )
    fks = schema.table("s").foreign_keys
    assert len(fks) == 1
    assert fks[0].ref_table == "r"


def test_inline_references_defaults_to_same_column():
    schema = parse_ddl(
        "CREATE TABLE r (a INT PRIMARY KEY);"
        "CREATE TABLE s (a INT REFERENCES r)"
    )
    assert schema.table("s").foreign_keys[0].ref_columns == ("a",)


def test_table_level_foreign_key():
    schema = parse_ddl(
        "CREATE TABLE r (x INT, y INT, PRIMARY KEY (x, y));"
        "CREATE TABLE s (p INT, q INT, "
        "FOREIGN KEY (p, q) REFERENCES r (x, y))"
    )
    fk = schema.table("s").foreign_keys[0]
    assert fk.columns == ("p", "q")
    assert fk.ref_columns == ("x", "y")


def test_multiple_statements_with_semicolons():
    schema = parse_ddl(
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT); CREATE TABLE c (z INT);"
    )
    assert sorted(schema.table_names) == ["a", "b", "c"]


def test_numeric_precision_accepted():
    schema = parse_ddl("CREATE TABLE t (a NUMERIC(8, 2), b CHAR(1), c DECIMAL(3))")
    assert schema.table("t").column("a").sqltype is SqlType.NUMERIC


@pytest.mark.parametrize(
    "name,expected",
    [
        ("INTEGER", SqlType.INT), ("TEXT", SqlType.VARCHAR),
        ("REAL", SqlType.FLOAT), ("DATE", SqlType.DATE),
    ],
)
def test_type_aliases(name, expected):
    schema = parse_ddl(f"CREATE TABLE t (a {name})")
    assert schema.table("t").column("a").sqltype is expected


def test_keyword_as_column_name():
    # "year" is a lexer keyword but a legal column name.
    schema = parse_ddl("CREATE TABLE t (year INT, date INT)")
    assert schema.table("t").column_names == ["year", "date"]


def test_duplicate_pk_rejected():
    with pytest.raises(SchemaError):
        parse_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)")


def test_missing_type_rejected():
    with pytest.raises(ParseError):
        parse_ddl("CREATE TABLE t (a, b INT)")


def test_unbalanced_parens_rejected():
    with pytest.raises(ParseError):
        parse_ddl("CREATE TABLE t (a INT")


def test_deep_nesting_is_a_parse_error():
    # The DDL grammar nests two deep; hostile nesting must not recurse.
    depth = 3000
    with pytest.raises(ParseError):
        parse_ddl("CREATE TABLE t " + "(" * depth + "a INT" + ")" * depth)


def test_fk_validation_happens():
    with pytest.raises(SchemaError):
        parse_ddl("CREATE TABLE s (a INT REFERENCES nowhere(a))")


def test_university_like_ddl_end_to_end():
    schema = parse_ddl(
        """
        CREATE TABLE department (
            dept_name VARCHAR(20) PRIMARY KEY,
            budget    NUMERIC(12,2)
        );
        CREATE TABLE instructor (
            id        INT PRIMARY KEY,
            name      VARCHAR(20) NOT NULL,
            dept_name VARCHAR(20) REFERENCES department(dept_name),
            salary    NUMERIC(8,2)
        );
        """
    )
    assert schema.referencing("department", "dept_name") == {
        ("instructor", "dept_name")
    }
