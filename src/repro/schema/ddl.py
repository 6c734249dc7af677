"""Parser for a small CREATE TABLE DDL subset.

Supports the constructs the paper's schemas need::

    CREATE TABLE course (
        course_id VARCHAR(8) PRIMARY KEY,
        title     VARCHAR(50) NOT NULL,
        dept_name VARCHAR(20) REFERENCES department(dept_name),
        credits   NUMERIC(2,0)
    );
    CREATE TABLE prereq (
        course_id  VARCHAR(8),
        prereq_id  VARCHAR(8),
        PRIMARY KEY (course_id, prereq_id),
        FOREIGN KEY (course_id) REFERENCES course (course_id),
        FOREIGN KEY (prereq_id) REFERENCES course (course_id)
    );

Reuses the SQL lexer; statement separators are semicolons.
"""

from __future__ import annotations

from repro.errors import ParseError, SchemaError
from repro.memo import Memo
from repro.schema.catalog import Column, ForeignKey, Schema, Table
from repro.schema.types import SqlType
from repro.sql.lexer import Token, TokenKind, tokenize

_TYPE_KEYWORDS = {
    "INT", "INTEGER", "VARCHAR", "CHAR", "NUMERIC", "DECIMAL",
    "FLOAT", "REAL", "DATE", "TEXT",
}


class _DdlParser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept(self, kind: TokenKind, value: str | None = None) -> Token | None:
        if self._current.matches(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, value: str | None = None) -> Token:
        token = self._accept(kind, value)
        if token is None:
            want = value or kind.name
            raise ParseError(
                f"expected {want} but found {self._current.value!r}", self._current
            )
        return token

    def _name(self) -> str:
        """Accept an identifier, or a keyword used as a name (e.g. ``year``)."""
        token = self._current
        if token.kind in (TokenKind.IDENT, TokenKind.KEYWORD):
            self._advance()
            return token.value.lower()
        raise ParseError(f"expected name, found {token.value!r}", token)

    def parse_tables(self) -> list[Table]:
        tables = []
        while not self._current.matches(TokenKind.EOF):
            tables.append(self._create_table())
            self._accept(TokenKind.OP, ";")
        return tables

    def _create_table(self) -> Table:
        self._expect(TokenKind.KEYWORD, "CREATE")
        self._expect(TokenKind.KEYWORD, "TABLE")
        table_name = self._name()
        self._expect(TokenKind.OP, "(")
        columns: list[Column] = []
        primary_key: tuple[str, ...] = ()
        foreign_keys: list[ForeignKey] = []
        while True:
            if self._accept(TokenKind.KEYWORD, "PRIMARY"):
                self._expect(TokenKind.KEYWORD, "KEY")
                if primary_key:
                    raise SchemaError(f"duplicate PRIMARY KEY on {table_name}")
                primary_key = tuple(self._column_name_list())
            elif self._accept(TokenKind.KEYWORD, "FOREIGN"):
                self._expect(TokenKind.KEYWORD, "KEY")
                cols = tuple(self._column_name_list())
                self._expect(TokenKind.KEYWORD, "REFERENCES")
                ref_table = self._name()
                ref_cols = cols
                if self._current.matches(TokenKind.OP, "("):
                    ref_cols = tuple(self._column_name_list())
                foreign_keys.append(
                    ForeignKey(table_name, cols, ref_table, ref_cols)
                )
            else:
                column, inline_pk, inline_fk = self._column_def(table_name)
                columns.append(column)
                if inline_pk:
                    if primary_key:
                        raise SchemaError(f"duplicate PRIMARY KEY on {table_name}")
                    primary_key = (column.name,)
                if inline_fk is not None:
                    foreign_keys.append(inline_fk)
            if not self._accept(TokenKind.OP, ","):
                break
        self._expect(TokenKind.OP, ")")
        return Table(table_name, columns, primary_key, foreign_keys)

    def _column_name_list(self) -> list[str]:
        self._expect(TokenKind.OP, "(")
        names = [self._name()]
        while self._accept(TokenKind.OP, ","):
            names.append(self._name())
        self._expect(TokenKind.OP, ")")
        return names

    def _column_def(self, table_name: str):
        col_name = self._name()
        type_token = self._current
        if type_token.value.upper() not in _TYPE_KEYWORDS:
            raise ParseError(
                f"expected column type, found {type_token.value!r}", type_token
            )
        self._advance()
        sqltype = SqlType.from_sql(type_token.value)
        if self._accept(TokenKind.OP, "("):  # length/precision — recorded nowhere
            self._expect(TokenKind.NUMBER)
            if self._accept(TokenKind.OP, ","):
                self._expect(TokenKind.NUMBER)
            self._expect(TokenKind.OP, ")")
        nullable = True
        inline_pk = False
        inline_fk: ForeignKey | None = None
        while True:
            if self._accept(TokenKind.KEYWORD, "NOT"):
                self._expect(TokenKind.KEYWORD, "NULL")
                nullable = False
            elif self._accept(TokenKind.KEYWORD, "PRIMARY"):
                self._expect(TokenKind.KEYWORD, "KEY")
                inline_pk = True
                nullable = False
            elif self._accept(TokenKind.KEYWORD, "REFERENCES"):
                ref_table = self._name()
                ref_cols = (col_name,)
                if self._current.matches(TokenKind.OP, "("):
                    ref_cols = tuple(self._column_name_list())
                inline_fk = ForeignKey(table_name, (col_name,), ref_table, ref_cols)
            else:
                break
        return Column(col_name, sqltype, nullable=nullable), inline_pk, inline_fk


def parse_ddl(ddl: str, allow_nullable_fks: bool = False) -> Schema:
    """Parse CREATE TABLE statements into a validated :class:`Schema`."""
    parser = _DdlParser(tokenize(ddl))
    return Schema(parser.parse_tables(), allow_nullable_fks=allow_nullable_fks)


#: DDL text -> parsed schema, for :func:`as_schema`.  A classroom sends
#: one schema text with every submission; parsing it would be most of
#: the cost of a service cache hit.
_SCHEMAS = Memo(32, name="schema")


def as_schema(schema: Schema | str) -> Schema:
    """Accept a parsed schema or raw DDL text.

    DDL text is parsed only the first time its exact text is seen (the
    last 32 texts are memoized in :data:`_SCHEMAS`; a text that fails to
    parse is not), so every caller handed the same text shares one
    :class:`Schema` and whatever is derived and cached on it.  Schemas
    are validated at construction and never mutated afterwards.
    """
    if not isinstance(schema, str):
        return schema
    parsed = _SCHEMAS.get(schema)
    if parsed is None:
        parsed = parse_ddl(schema)
        _SCHEMAS.put(schema, parsed)
    return parsed


def to_ddl(schema: Schema) -> str:
    """Render a schema back to CREATE TABLE text :func:`parse_ddl` accepts.

    The inverse direction of :func:`parse_ddl` — needed wherever a
    schema must travel as text, e.g. a ``POST /v1/jobs`` body for the
    generation service.  Round-trip property:
    ``parse_ddl(to_ddl(schema))`` equals ``schema`` table for table
    (columns, types, nullability, keys).
    """
    statements = []
    for table in schema.tables:
        lines = []
        for column in table.columns:
            parts = [f"    {column.name} {column.sqltype.value}"]
            if not column.nullable and column.name not in table.primary_key:
                parts.append("NOT NULL")
            lines.append(" ".join(parts))
        if table.primary_key:
            lines.append(f"    PRIMARY KEY ({', '.join(table.primary_key)})")
        for fk in table.foreign_keys:
            lines.append(
                f"    FOREIGN KEY ({', '.join(fk.columns)}) "
                f"REFERENCES {fk.ref_table} ({', '.join(fk.ref_columns)})"
            )
        body = ",\n".join(lines)
        statements.append(f"CREATE TABLE {table.name} (\n{body}\n);")
    return "\n".join(statements)
