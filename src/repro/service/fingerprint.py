"""Canonical content-addressing of ``(schema, query, config)``.

The grading workload (Chandra et al., PAPERS.md) submits the *same*
query in hundreds of spellings: different identifier case, whitespace,
table aliases, literal formatting.  A cache keyed on raw SQL text would
miss almost all of them; this module computes a fingerprint over a
canonical form so equivalent spellings collide on one key.

Canonicalization of a query (see :func:`canonical_query`):

* parse + reprint through the repo's own parser and printer, which
  normalizes whitespace, keyword case, ``!=`` → ``<>``, redundant
  parentheses and literal formatting (``1.50`` → ``1.5``);
* lower-case every identifier (the library compares identifiers
  case-insensitively everywhere else);
* rename table bindings positionally (``t1``, ``t2``, ... in FROM-clause
  order, pre-order across subqueries) and rewrite every qualified
  column reference accordingly, so the choice of alias names never
  affects the fingerprint.  Select-list aliases are *kept* (lower-cased):
  they name output columns, which are semantically significant.

What is deliberately **not** normalized: conjunct order, join order and
select-item order.  Reordering them preserves SQL semantics but changes
the order in which Algorithm 1 derives dataset specs — and the cache
contract is that a fingerprint hit returns a byte-identical suite, so
anything that changes generator output must change the fingerprint.

Schemas canonicalize to a sorted-tables rendering (column order
preserved — it is load-bearing for ``SELECT *`` and CSV round-trips) and
configs to a stable field rendering that **excludes** the knobs
documented to never change generated bytes: the observability switches
``trace``, ``metrics``, ``journal_path``.  :func:`exact_scope` is the other
content address: the same digest over the *exact* rendered SQL.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.schema.catalog import Schema
from repro.schema.ddl import as_schema
from repro.sql.ast import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FromItem,
    InSubquery,
    Join,
    NullTest,
    Query,
    SelectItem,
    Star,
    TableRef,
)
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql

__all__ = [
    "canonical_query",
    "canonical_schema",
    "canonical_config",
    "canonical_request",
    "exact_scope",
    "ExactScope",
    "fingerprint",
    "fingerprint_parts",
]

#: Version tag mixed into every digest; bump on any canonicalization
#: change so stale persisted cache entries can never be confused with
#: fresh ones.  v3: ``SearchConfig`` lost its delta-solve switch.  v4:
#: ``GenConfig`` lost its pool deadline and its two retry-ladder knobs.
#: Each changed every rendered config, and with it every digest.
_VERSION = "xdata-fp-v4"

#: GenConfig fields excluded from the fingerprint: observability
#: attaches artefacts and never changes datasets.
_CONFIG_EXCLUDED = frozenset({"trace", "metrics", "journal_path"})


class _Renamer:
    """Positional canonical renaming of table bindings, scope-aware.

    One instance per :func:`canonical_query` call; the counter is global
    across nested subquery scopes so canonical aliases are unique and
    deterministic under pre-order traversal.
    """

    def __init__(self) -> None:
        self._count = 0

    def rewrite_query(self, query: Query, outer: dict[str, str]) -> Query:
        scope = dict(outer)
        from_items = tuple(
            self._collect(item, scope) for item in query.from_items
        )
        from_items = tuple(
            self._rename_from(item, scope) for item in from_items
        )
        return Query(
            select_items=tuple(
                SelectItem(
                    self._expr(item.expr, scope),
                    item.alias.lower() if item.alias else None,
                )
                for item in query.select_items
            ),
            from_items=from_items,
            where=tuple(self._predicate(p, scope) for p in query.where),
            group_by=tuple(self._expr(c, scope) for c in query.group_by),
            distinct=query.distinct,
            having=tuple(self._comparison(h, scope) for h in query.having),
        )

    # -- pass 1: assign canonical names to every binding in the scope --

    def _collect(self, item: FromItem, scope: dict[str, str]) -> FromItem:
        if isinstance(item, TableRef):
            self._count += 1
            canonical = f"t{self._count}"
            scope[item.binding.lower()] = canonical
            return item
        if isinstance(item, Join):
            self._collect(item.left, scope)
            self._collect(item.right, scope)
            return item
        raise TypeError(f"unexpected FROM item {item!r}")

    # -- pass 2: rewrite with the complete scope in hand ---------------

    def _rename_from(self, item: FromItem, scope: dict[str, str]) -> FromItem:
        if isinstance(item, TableRef):
            return TableRef(
                item.name.lower(), scope[item.binding.lower()]
            )
        if isinstance(item, Join):
            return Join(
                kind=item.kind,
                left=self._rename_from(item.left, scope),
                right=self._rename_from(item.right, scope),
                condition=tuple(
                    self._predicate(c, scope) for c in item.condition
                ),
                natural=item.natural,
            )
        raise TypeError(f"unexpected FROM item {item!r}")

    def _expr(self, expr: Expr, scope: dict[str, str]) -> Expr:
        if isinstance(expr, ColumnRef):
            table = None
            if expr.table is not None:
                table = scope.get(expr.table.lower(), expr.table.lower())
            return ColumnRef(table, expr.column.lower())
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op,
                self._expr(expr.left, scope),
                self._expr(expr.right, scope),
            )
        if isinstance(expr, Aggregate):
            return Aggregate(
                expr.func, self._expr(expr.arg, scope), expr.distinct
            )
        if isinstance(expr, Star):
            if expr.table is None:
                return expr
            return Star(scope.get(expr.table.lower(), expr.table.lower()))
        return expr  # Literal

    def _comparison(self, pred: Comparison, scope: dict[str, str]) -> Comparison:
        return Comparison(
            pred.op,
            self._expr(pred.left, scope),
            self._expr(pred.right, scope),
        )

    def _predicate(self, pred, scope: dict[str, str]):
        if isinstance(pred, NullTest):
            return NullTest(self._expr(pred.expr, scope), pred.negated)
        if isinstance(pred, Exists):
            return Exists(self.rewrite_query(pred.query, scope))
        if isinstance(pred, InSubquery):
            return InSubquery(
                self._expr(pred.expr, scope),
                self.rewrite_query(pred.query, scope),
            )
        return self._comparison(pred, scope)


def canonical_query(query: Query | str) -> str:
    """The canonical SQL text of a query (see the module docstring).

    Accepts a parsed :class:`~repro.sql.ast.Query` or raw SQL text.
    Equivalent spellings (identifier case, whitespace, alias names,
    literal formatting, redundant parentheses) canonicalize to the same
    text; anything that changes generator output does not.
    """
    if isinstance(query, str):
        query = parse_query(query)
    return to_sql(_Renamer().rewrite_query(query, {}))


def canonical_schema(schema: Schema | str) -> str:
    """A deterministic rendering of a schema (or raw DDL text).

    Tables are sorted by name; column order is preserved (it decides
    ``SELECT *`` expansion and fixture round-trips); foreign keys are
    sorted.  The catalog already lower-cases every identifier.  Raw DDL
    text goes through the parse memo of
    :func:`~repro.schema.ddl.as_schema`, and the rendering is memoized on
    the (construction-validated, never mutated) schema instance, so a
    repeated DDL text costs neither a parse nor a render.
    """
    schema = as_schema(schema)
    rendering = getattr(schema, "_canon_memo", None)
    if rendering is None:
        rendering = _render_schema(schema)
        schema._canon_memo = rendering
    return rendering


def _render_schema(schema: Schema) -> str:
    parts: list[str] = [f"nullable_fks={schema.allow_nullable_fks}"]
    for table in sorted(schema.tables, key=lambda t: t.name):
        columns = ",".join(
            f"{c.name}:{c.sqltype.name}:{'null' if c.nullable else 'notnull'}"
            # Value domains steer the solver's choice of string values,
            # so they are part of the content address.
            + (f":domain{list(c.domain)!r}" if c.domain else "")
            for c in table.columns
        )
        fks = ";".join(
            f"({','.join(fk.columns)})->{fk.ref_table}"
            f"({','.join(fk.ref_columns)})"
            for fk in sorted(
                table.foreign_keys, key=lambda f: (f.columns, f.ref_table)
            )
        )
        parts.append(
            f"table {table.name}({columns})"
            f" pk({','.join(table.primary_key)}) fk[{fks}]"
        )
    return "\n".join(parts)


def _render_value(value) -> str:
    """A stable rendering of one config field value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{f.name}={_render_value(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    # A Database (GenConfig.input_db): digest its full content through
    # the CSV round-trip renderer so equal instances hash equally.
    from repro.engine.database import Database

    if isinstance(value, Database):
        from repro.engine.export import to_csv_map

        tables = to_csv_map(value, include_empty=True)
        body = "|".join(f"{name}={tables[name]}" for name in sorted(tables))
        return f"db[{canonical_schema(value.schema)}::{body}]"
    return repr(value)


def canonical_config(config=None) -> str:
    """A stable rendering of a :class:`~repro.core.generator.GenConfig`.

    ``None`` renders as the default config, so ``config=None`` and
    ``GenConfig()`` fingerprint identically.  Fields in
    :data:`_CONFIG_EXCLUDED` are dropped: by their own contracts they
    never change generated bytes.
    """
    from repro.core.generator import GenConfig

    config = config or GenConfig()
    parts = [
        f"{f.name}={_render_value(getattr(config, f.name))}"
        for f in dataclasses.fields(config)
        if f.name not in _CONFIG_EXCLUDED
    ]
    return " ".join(parts)


def fingerprint(schema: Schema | str, query: Query | str, config=None) -> str:
    """The content address of one generation request (sha-256 hex).

    Two requests share a fingerprint exactly when their canonical forms
    agree — same schema content, same canonical query text, same
    result-affecting config — which is the suite cache's guarantee that
    a hit may be served in place of a solve.
    """
    return canonical_request(schema, query, canonical_config(config))[1]


def canonical_request(
    schema: Schema | str, query: Query | str, config_canon: str
) -> tuple[str, str]:
    """``(canonical SQL, fingerprint)`` of one request.

    Canonicalizes the query once for both: the SQL text is what gets
    solved, the fingerprint what gets cached.  ``config_canon`` is the
    :func:`canonical_config` rendering, which callers with a fixed
    config (a session, the job queue's default) render once.
    """
    sql = canonical_query(query)
    return sql, fingerprint_parts(canonical_schema(schema), sql, config_canon)


class ExactScope(str):
    """An :func:`exact_scope` digest, a type apart from :func:`fingerprint`."""

    __slots__ = ()


def exact_scope(schema: Schema, query_sql: str, config) -> ExactScope:
    """Content address of one generation request over the *exact*
    rendered SQL of its analyzed query, not its :func:`canonical_query`:
    alias renamings give identical datasets (one :func:`fingerprint`)
    but different slot *names*, and the generator's skeleton and
    declaration memos, which accept only this type, hold slot-name-
    addressed state (DESIGN.md §5j)."""
    return ExactScope(fingerprint_parts(
        canonical_schema(schema), query_sql, canonical_config(config)
    ))


def fingerprint_parts(schema_canon: str, query_canon: str, config_canon: str) -> str:
    """Digest pre-canonicalized parts."""
    digest = hashlib.sha256()
    for part in (_VERSION, schema_canon, query_canon, config_canon):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()
