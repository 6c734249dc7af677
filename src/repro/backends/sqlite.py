"""SQLite execution backend: an independent oracle for kill checking.

The backend renders the catalog as SQLite DDL (PK/FK/NOT NULL enforced
with ``PRAGMA foreign_keys=ON``), loads generated datasets through the
export module's INSERT path, and executes *plans* — the same trees the
engine runs, including join-order mutants that never existed as SQL text
— by printing them back to SQLite SQL with a small dialect shim:

* Division is rendered as ``(CAST(l AS REAL) / r)`` because the engine
  divides exactly (``fractions.Fraction``) while SQLite truncates
  INTEGER/INTEGER; canonical 12-significant-digit quantisation in
  :func:`repro.testing.killcheck.result_signature` absorbs the
  remaining REAL-vs-exact difference (AVG, float accumulation order).
* NATURAL joins are rendered as explicit ``ON`` equi-conjunctions with
  ``COALESCE`` output columns, mirroring the engine's coalescing rules
  exactly instead of trusting SQLite's NATURAL resolution.
* RIGHT and FULL joins are rewritten (mirrored LEFT; LEFT ∪ anti-join)
  when the linked SQLite predates native support (3.39) — or always,
  with ``force_join_rewrites=True``, which the conformance tests use to
  exercise the rewrite path on modern SQLite too.
* Result ordering is irrelevant: kill checks compare name-aligned bags,
  so SQLite's NULL placement under ORDER BY never enters the picture.

Known semantic gaps (documented in DESIGN.md §5f): SQLite compares
numbers with text by storage class where the engine raises; a bare
non-grouped select column picks an arbitrary row where the engine picks
the group's first; integer SUM overflows at 64 bits where the engine
has bignums.  The conformance grammar stays inside the common subset.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, replace

from repro.backends.base import BackendCapabilities, BackendError
from repro.engine.database import Database
from repro.engine.executor import _unique_names
from repro.engine.export import _sql_literal, to_insert_script
from repro.engine.plan import (
    AggregateNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    plan_fingerprint,
)
from repro.engine.relation import Relation
from repro.engine.values import normalize_value
from repro.errors import ExecutionError, IntegrityError
from repro.memo import Memo
from repro.schema.catalog import ForeignKey, Schema
from repro.schema.types import SqlType
from repro.sql.ast import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expr,
    JoinKind,
    Literal,
    NullTest,
    SelectItem,
    Star,
)

#: SQLite grew native RIGHT/FULL OUTER JOIN in 3.39.0 (2022-06-25).
NATIVE_OUTER_JOINS = sqlite3.sqlite_version_info >= (3, 39, 0)

_TYPE_MAP = {
    SqlType.INT: "INTEGER",
    SqlType.VARCHAR: "TEXT",
    SqlType.NUMERIC: "NUMERIC",
    SqlType.FLOAT: "REAL",
    # DATE values are integer-backed throughout the generator.
    SqlType.DATE: "INTEGER",
}


def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def declarable_foreign_key(schema: Schema, fk: ForeignKey) -> bool:
    """SQLite requires the parent columns to be the parent's PK (or a
    UNIQUE index, which this catalog never declares)."""
    parent_pk = schema.table(fk.ref_table).primary_key
    return set(fk.ref_columns) == set(parent_pk) and len(fk.ref_columns) == len(
        parent_pk
    )


def undeclarable_foreign_keys(schema: Schema) -> list[ForeignKey]:
    """FKs the DDL cannot declare (engine checks them; SQLite will not)."""
    return [
        fk for fk in schema.foreign_keys() if not declarable_foreign_key(schema, fk)
    ]


def schema_to_sqlite_ddl(schema: Schema) -> str:
    """Render the catalog as SQLite CREATE TABLE statements.

    Tables with a primary key are created ``WITHOUT ROWID`` — this
    defeats the INTEGER-PRIMARY-KEY rowid alias (under which SQLite
    silently auto-assigns NULL key values instead of rejecting them, as
    the engine does) and enforces PK NOT NULL + uniqueness directly.
    """
    statements: list[str] = []
    for table in schema.tables:
        pk = set(table.primary_key)
        lines: list[str] = []
        for column in table.columns:
            parts = [_q(column.name), _TYPE_MAP[column.sqltype]]
            if not column.nullable or column.name in pk:
                parts.append("NOT NULL")
            lines.append(" ".join(parts))
        if table.primary_key:
            cols = ", ".join(_q(c) for c in table.primary_key)
            lines.append(f"PRIMARY KEY ({cols})")
        for fk in table.foreign_keys:
            if not declarable_foreign_key(schema, fk):
                continue
            # Order the pairs by the parent PK so the FK matches its index.
            parent_pk = list(schema.table(fk.ref_table).primary_key)
            pairs = sorted(
                fk.column_pairs(), key=lambda p: parent_pk.index(p[1])
            )
            child = ", ".join(_q(c) for c, _ in pairs)
            parent = ", ".join(_q(r) for _, r in pairs)
            lines.append(
                f"FOREIGN KEY ({child}) REFERENCES {_q(fk.ref_table)} ({parent})"
            )
        suffix = " WITHOUT ROWID" if table.primary_key else ""
        body = ",\n  ".join(lines)
        statements.append(f"CREATE TABLE {_q(table.name)} (\n  {body}\n){suffix};")
    return "\n".join(statements)


def _schema_ddl(schema: Schema) -> str:
    """:func:`schema_to_sqlite_ddl`, memoized on the schema instance
    (schemas are validated at construction and never mutated, as
    :func:`repro.service.fingerprint.canonical_schema` relies on too)."""
    ddl = getattr(schema, "_sqlite_ddl_memo", None)
    if ddl is None:
        ddl = schema._sqlite_ddl_memo = schema_to_sqlite_ddl(schema)
    return ddl


#: DDL text -> an empty in-memory database holding exactly that schema;
#: an evicted one is closed, and a forked child starts empty.  Templates
#: are shared by all threads, so every backup holds the memo's lock.
_TEMPLATES = Memo(
    32, on_evict=sqlite3.Connection.close, name="sqlite_template", fork_safe=False
)


def _clone_schema(ddl: str) -> sqlite3.Connection:
    """A fresh ``:memory:`` connection holding the tables of ``ddl``.

    The ``CREATE TABLE`` script runs once per DDL text, into a template
    database; each new connection is a page copy of that template
    (``Connection.backup``), which costs a small fraction of re-running
    the script.  ``PRAGMA foreign_keys`` is per connection, so the
    caller turns it on in the clone.
    """
    conn = sqlite3.connect(":memory:")
    try:
        with _TEMPLATES.lock:
            template = _TEMPLATES.get(ddl)
            if template is None:
                template = sqlite3.connect(":memory:", check_same_thread=False)
                try:
                    template.executescript(ddl)
                except sqlite3.Error:
                    template.close()
                    raise
                _TEMPLATES.put(ddl, template)
            template.backup(conn)
    except sqlite3.Error:
        conn.close()
        raise
    return conn


# ---------------------------------------------------------------------------
# Plan -> SQLite SQL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Col:
    """One output column of a rendered FROM subtree.

    Mirrors :class:`repro.engine.frame.FrameCol` — ``binding`` is None
    for NATURAL-join coalesced columns, ``sources`` the (binding, name)
    pairs it answers for — plus ``sql``, the expression that reads the
    column in the current scope.
    """

    binding: str | None
    name: str
    sources: tuple[tuple[str, str], ...]
    sql: str

    def answers(self, binding: str, name: str) -> bool:
        if self.binding is not None:
            return self.binding == binding and self.name == name
        return (binding, name) in self.sources

    @property
    def output_name(self) -> str:
        return self.name if self.binding is None else f"{self.binding}.{self.name}"


def _resolve(cols: list[_Col], binding: str | None, name: str) -> _Col:
    """Mirror of ``Frame.resolve``: same lookups, same error cases."""
    name = name.lower()
    if binding is not None:
        binding = binding.lower()
        matches = [c for c in cols if c.answers(binding, name)]
    else:
        matches = [c for c in cols if c.name == name]
        if len(matches) > 1:
            coalesced = [c for c in matches if c.binding is None]
            if len(coalesced) == 1:
                return coalesced[0]
    if not matches:
        target = f"{binding}.{name}" if binding else name
        raise ExecutionError(f"column {target!r} not found in frame")
    if len(matches) > 1:
        target = f"{binding}.{name}" if binding else name
        raise ExecutionError(f"ambiguous column reference {target!r}")
    return matches[0]


class _PlanPrinter:
    """Renders one plan tree as a single SQLite SELECT statement."""

    def __init__(self, schema: Schema, native_right: bool, native_full: bool):
        self.schema = schema
        self.native_right = native_right
        self.native_full = native_full
        self._fresh = 0

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"_{prefix}{self._fresh}"

    # -- expressions --------------------------------------------------------

    def scalar(self, expr: Expr, cols: list[_Col]) -> str:
        if isinstance(expr, Literal):
            return _sql_literal(expr.value)
        if isinstance(expr, ColumnRef):
            return _resolve(cols, expr.table, expr.column).sql
        if isinstance(expr, BinaryOp):
            left = self.scalar(expr.left, cols)
            right = self.scalar(expr.right, cols)
            if expr.op == "/":
                # Engine division is exact; SQLite INT/INT truncates.
                return f"(CAST({left} AS REAL) / {right})"
            return f"({left} {expr.op} {right})"
        if isinstance(expr, Aggregate):
            raise ExecutionError("aggregate used outside an aggregation context")
        if isinstance(expr, Star):
            raise ExecutionError("* is only valid in a select list or COUNT(*)")
        raise ExecutionError(f"cannot render expression {expr!r}")

    def select_expr(self, expr: Expr, cols: list[_Col]) -> str:
        """An expression in aggregation context (may mix aggregates)."""
        if isinstance(expr, Aggregate):
            if isinstance(expr.arg, Star):
                if expr.func != "COUNT":
                    raise ExecutionError(f"{expr.func}(*) is not valid SQL")
                return "COUNT(*)"
            arg = self.scalar(expr.arg, cols)
            distinct = "DISTINCT " if expr.distinct else ""
            return f"{expr.func}({distinct}{arg})"
        if isinstance(expr, BinaryOp):
            left = self.select_expr(expr.left, cols)
            right = self.select_expr(expr.right, cols)
            if expr.op == "/":
                return f"(CAST({left} AS REAL) / {right})"
            return f"({left} {expr.op} {right})"
        return self.scalar(expr, cols)

    def predicate(
        self, pred, cols: list[_Col], aggregated: bool = False
    ) -> str:
        if isinstance(pred, NullTest):
            inner = self.scalar(pred.expr, cols)
            keyword = "IS NOT NULL" if pred.negated else "IS NULL"
            return f"({inner} {keyword})"
        assert isinstance(pred, Comparison), pred
        render = self.select_expr if aggregated else self.scalar
        left = render(pred.left, cols)
        right = render(pred.right, cols)
        return f"({left} {pred.op} {right})"

    def conjunction(
        self, preds, cols: list[_Col], aggregated: bool = False
    ) -> str | None:
        if not preds:
            return None
        return " AND ".join(self.predicate(p, cols, aggregated) for p in preds)

    # -- FROM subtrees ------------------------------------------------------

    def render_from(self, node: PlanNode) -> tuple[str, list[_Col]]:
        if isinstance(node, ScanNode):
            table = self.schema.table(node.table)
            cols = [
                _Col(
                    node.binding,
                    name,
                    ((node.binding, name),),
                    f"{_q(node.binding)}.{_q(name)}",
                )
                for name in table.column_names
            ]
            return f"{_q(node.table)} AS {_q(node.binding)}", cols
        if isinstance(node, SelectNode):
            return self._render_filtered(node)
        if isinstance(node, JoinNode):
            return self._render_join(node)
        raise ExecutionError(f"unexpected plan node in FROM tree: {node!r}")

    def _derived(
        self, select_body: str, cols: list[_Col], prefix: str
    ) -> tuple[str, list[_Col]]:
        """Wrap a SELECT body as a derived table, remapping the columns."""
        alias = self.fresh(prefix)
        out = [
            replace(c, sql=f"{_q(alias)}.{_q(f'x{i}')}")
            for i, c in enumerate(cols)
        ]
        return f"({select_body}) AS {_q(alias)}", out

    def _select_items(self, cols: list[_Col]) -> str:
        return ", ".join(f"{c.sql} AS {_q(f'x{i}')}" for i, c in enumerate(cols))

    def _render_filtered(self, node: SelectNode) -> tuple[str, list[_Col]]:
        """A SelectNode *inside* a join tree becomes a derived table —
        its predicates must filter before the enclosing (outer) join."""
        child_sql, cols = self.render_from(node.child)
        where = self.conjunction(node.predicates, cols)
        body = f"SELECT {self._select_items(cols)} FROM {child_sql}"
        if where:
            body += f" WHERE {where}"
        return self._derived(body, cols, "q")

    def _render_join(self, node: JoinNode) -> tuple[str, list[_Col]]:
        left_sql, lcols = self.render_from(node.left)
        right_sql, rcols = self.render_from(node.right)
        if node.natural:
            return self._render_natural(node, left_sql, lcols, right_sql, rcols)
        cols = lcols + rcols
        condition = self.conjunction(node.condition, cols)
        if node.kind is JoinKind.CROSS:
            return f"({left_sql} CROSS JOIN {right_sql})", cols
        on = condition or "1=1"
        if node.kind is JoinKind.INNER:
            return f"({left_sql} JOIN {right_sql} ON {on})", cols
        if node.kind is JoinKind.LEFT:
            return f"({left_sql} LEFT JOIN {right_sql} ON {on})", cols
        if node.kind is JoinKind.RIGHT:
            if self.native_right:
                return f"({left_sql} RIGHT JOIN {right_sql} ON {on})", cols
            # Mirrored LEFT join; column references are explicit, so only
            # the FROM-clause side order changes.
            return f"({right_sql} LEFT JOIN {left_sql} ON {on})", cols
        assert node.kind is JoinKind.FULL, node.kind
        if self.native_full:
            return f"({left_sql} FULL JOIN {right_sql} ON {on})", cols
        anti_cols = [replace(c, sql="NULL") for c in lcols] + rcols
        return self._render_full_rewrite(
            left_sql, lcols, right_sql, rcols, on, cols, anti_cols
        )

    def _render_natural(
        self,
        node: JoinNode,
        left_sql: str,
        lcols: list[_Col],
        right_sql: str,
        rcols: list[_Col],
    ) -> tuple[str, list[_Col]]:
        """NATURAL joins: explicit ON conjunction + COALESCE coalescing.

        Matches the engine's ``_natural_join``: common columns (in left
        header order) first, then the left rest, then the right rest.
        ``COALESCE(l, r)`` reproduces "the coalesced value comes from
        whichever side survived" for every join kind (matched rows agree;
        padded rows are NULL on the dead side).
        """
        right_names = {c.name for c in rcols}
        common: list[str] = []
        for c in lcols:
            if c.name in right_names and c.name not in common:
                common.append(c.name)
        pairs = [
            (_resolve(lcols, None, name), _resolve(rcols, None, name))
            for name in common
        ]
        condition = (
            " AND ".join(f"({lc.sql} = {rc.sql})" for lc, rc in pairs)
            if pairs
            else "1=1"
        )
        coalesced = [
            _Col(None, lc.name, lc.sources + rc.sources,
                 f"COALESCE({lc.sql}, {rc.sql})")
            for lc, rc in pairs
        ]
        left_common = {id(lc) for lc, _ in pairs}
        right_common = {id(rc) for _, rc in pairs}
        left_rest = [c for c in lcols if id(c) not in left_common]
        right_rest = [c for c in rcols if id(c) not in right_common]
        cols = coalesced + left_rest + right_rest
        kind = node.kind
        if kind in (JoinKind.INNER, JoinKind.CROSS):
            return f"({left_sql} JOIN {right_sql} ON {condition})", cols
        if kind is JoinKind.LEFT:
            return f"({left_sql} LEFT JOIN {right_sql} ON {condition})", cols
        if kind is JoinKind.RIGHT:
            if self.native_right:
                return (
                    f"({left_sql} RIGHT JOIN {right_sql} ON {condition})",
                    cols,
                )
            return f"({right_sql} LEFT JOIN {left_sql} ON {condition})", cols
        assert kind is JoinKind.FULL, kind
        if self.native_full:
            return f"({left_sql} FULL JOIN {right_sql} ON {condition})", cols
        # Anti-join branch: unmatched right rows keep right-side values in
        # the coalesced columns and NULL-pad the left rest.
        anti_cols = (
            [replace(c, sql=rc.sql) for c, (_, rc) in zip(coalesced, pairs)]
            + [replace(c, sql="NULL") for c in left_rest]
            + right_rest
        )
        return self._render_full_rewrite(
            left_sql, lcols, right_sql, rcols, condition, cols, anti_cols
        )

    def _render_full_rewrite(
        self,
        left_sql: str,
        lcols: list[_Col],
        right_sql: str,
        rcols: list[_Col],
        on: str,
        cols: list[_Col],
        anti_cols: list[_Col],
    ) -> tuple[str, list[_Col]]:
        """FULL JOIN on a SQLite without one: LEFT JOIN ∪ right anti-join.

        ``cols`` are the output columns as seen over ``left LEFT JOIN
        right``; ``anti_cols`` the same columns as seen from the
        right-only branch (left side NULL-padded).  Binding aliases may
        repeat across the two branches — each UNION arm is its own scope.
        """
        matched = (
            f"SELECT {self._select_items(cols)} "
            f"FROM {left_sql} LEFT JOIN {right_sql} ON {on}"
        )
        anti = (
            f"SELECT {self._select_items(anti_cols)} FROM {right_sql} "
            f"WHERE NOT EXISTS (SELECT 1 FROM {left_sql} WHERE {on})"
        )
        return self._derived(f"{matched} UNION ALL {anti}", cols, "fj")

    # -- whole plans --------------------------------------------------------

    def render_plan(self, plan: PlanNode) -> tuple[str, list[str]]:
        """Render ``plan`` to (SQL text, engine-style output names).

        The SELECT list uses positional aliases (``AS "c0"``, ...); the
        engine-compatible column names are attached to the result
        relation on the Python side so both backends name columns
        identically (qualified names for star columns, ``str(expr)`` or
        the alias otherwise, ``#2``-suffixed duplicates).
        """
        final = None
        node = plan
        if isinstance(node, (ProjectNode, AggregateNode)):
            final, node = node, node.child
        predicates: list = []
        while isinstance(node, SelectNode):
            predicates = list(node.predicates) + predicates
            node = node.child
        from_sql, cols = self.render_from(node)
        where = self.conjunction(predicates, cols)

        distinct = False
        group_by: list[str] = []
        having: str | None = None
        if final is None:
            items = [(c.output_name, c.sql) for c in cols]
        elif isinstance(final, ProjectNode):
            items = self._project_items(final.items, cols)
            distinct = final.distinct
        else:
            assert isinstance(final, AggregateNode)
            items = []
            for item in final.items:
                if isinstance(item.expr, Star):
                    raise ExecutionError("SELECT * cannot be mixed with GROUP BY")
                items.append(
                    (item.alias or str(item.expr),
                     self.select_expr(item.expr, cols))
                )
            group_by = [
                _resolve(cols, ref.table, ref.column).sql
                for ref in final.group_by
            ]
            having = self.conjunction(final.having, cols, aggregated=True)

        names = _unique_names([name for name, _ in items])
        select_list = ", ".join(
            f"{sql} AS {_q(f'c{i}')}" for i, (_, sql) in enumerate(items)
        )
        sql = "SELECT "
        if distinct:
            sql += "DISTINCT "
        sql += f"{select_list} FROM {from_sql}"
        if where:
            sql += f" WHERE {where}"
        if group_by:
            sql += " GROUP BY " + ", ".join(group_by)
        if having:
            sql += f" HAVING {having}"
        return sql, names

    def _project_items(
        self, select_items: tuple[SelectItem, ...], cols: list[_Col]
    ) -> list[tuple[str, str]]:
        """Mirror of the executor's ``_expand_items`` star expansion."""
        items: list[tuple[str, str]] = []
        for item in select_items:
            expr = item.expr
            if isinstance(expr, Star):
                if expr.table:
                    binding = expr.table.lower()
                    selected = [
                        c
                        for c in cols
                        if c.binding == binding
                        or (
                            c.binding is None
                            and any(b == binding for b, _ in c.sources)
                        )
                    ]
                    if not selected:
                        raise ExecutionError(f"no columns for {expr.table}.*")
                else:
                    selected = cols
                items.extend((c.output_name, c.sql) for c in selected)
            else:
                items.append(
                    (item.alias or str(expr), self.scalar(expr, cols))
                )
        return items


#: Rendered statements the :data:`_RENDERED` memo keeps.  One entry (the
#: SELECT text, its output names and a key that shares the schema's DDL
#: string) retains about 0.9 KB on average (tracemalloc over the
#: seed-1234 perfbench campaign, which renders 193 statements), so a
#: full memo holds about 1.8 MB.
RENDER_MEMO_SIZE = 2048

#: ``(SQLite DDL, native RIGHT, native FULL, plan fingerprint)`` -> the
#: rendered ``(sql, names)``.  The SQL depends on the catalog only
#: through the DDL text (column lists for star expansion and NATURAL
#: coalescing), and on the plan only through its structure, so every
#: backend instance, case and conformance run shares one rendering.
_RENDERED = Memo(RENDER_MEMO_SIZE, name="sqlite_render")


def _rendered(
    schema: Schema, native_right: bool, native_full: bool, plan: PlanNode
) -> tuple[str, tuple[str, ...]]:
    """``_PlanPrinter.render_plan``, once per key of :data:`_RENDERED`
    (the names become a tuple: every caller shares the value)."""
    key = (_schema_ddl(schema), native_right, native_full, plan_fingerprint(plan))
    rendered = _RENDERED.get(key)
    if rendered is None:
        printer = _PlanPrinter(schema, native_right, native_full)
        sql, names = printer.render_plan(plan)
        rendered = (sql, tuple(names))
        _RENDERED.put(key, rendered)
    return rendered


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


@dataclass
class SqliteHandle:
    """An opaque execution handle: the connection plus its catalog.

    The plan printer needs per-table column lists, which live on the
    :class:`Schema`, so the handle carries it alongside the connection.
    """

    conn: sqlite3.Connection
    schema: Schema


class SqliteBackend:
    """Executes plans on the Python stdlib ``sqlite3`` module.

    Args:
        force_join_rewrites: Render RIGHT/FULL joins through the
            compatibility rewrites even when the linked SQLite supports
            them natively (used by tests to exercise the rewrite path).
    """

    name = "sqlite"

    def __init__(self, force_join_rewrites: bool = False):
        self.force_join_rewrites = force_join_rewrites
        native = NATIVE_OUTER_JOINS and not force_join_rewrites
        self._native_right = native
        self._native_full = native
        self._last_schema: Schema | None = None

    def capabilities(self) -> BackendCapabilities:
        # Rewrites cover the gaps, so the effective surface is complete.
        return BackendCapabilities()

    def load(self, db: Database) -> SqliteHandle:
        """Load ``db`` into a fresh in-memory SQLite database.

        The tables come from a per-DDL template (:func:`_clone_schema`),
        so a campaign or conformance run renders and executes its
        schema's ``CREATE TABLE`` script once, not once per dataset.
        ``PRAGMA foreign_keys=ON`` is set on the clone before the rows
        go in through the export module's INSERT script, so SQLite
        checks every PK, FK and NOT NULL constraint as the rows load:
        a violation raises :class:`~repro.errors.IntegrityError`.
        """
        try:
            conn = _clone_schema(_schema_ddl(db.schema))
        except sqlite3.Error as exc:
            raise BackendError(f"sqlite load failed: {exc}") from exc
        try:
            conn.execute("PRAGMA foreign_keys=ON")
            script = to_insert_script(db, quote_identifiers=True)
            if script:
                conn.executescript(script)
        except sqlite3.IntegrityError as exc:
            conn.close()
            raise IntegrityError(
                f"sqlite rejected the dataset: {exc}", violations=[str(exc)]
            ) from exc
        except sqlite3.Error as exc:
            conn.close()
            raise BackendError(f"sqlite load failed: {exc}") from exc
        self._last_schema = db.schema
        return SqliteHandle(conn, db.schema)

    def execute(self, handle: SqliteHandle, plan: PlanNode) -> Relation:
        sql, names = _rendered(
            handle.schema, self._native_right, self._native_full, plan
        )
        try:
            cursor = handle.conn.execute(sql)
            fetched = cursor.fetchall()
        except sqlite3.Error as exc:
            raise BackendError(
                f"sqlite execution failed: {exc}\nsql: {sql}"
            ) from exc
        rows = [tuple(normalize_value(v) for v in row) for row in fetched]
        return Relation(names, rows)

    def sql_of(self, plan: PlanNode, schema: Schema | None = None) -> str:
        """The SELECT statement this backend runs for ``plan``.

        Defaults to the schema of the most recently loaded dataset
        (diagnostics path: :class:`BackendDisagreement` rendering).
        """
        schema = schema or self._last_schema
        if schema is None:
            raise BackendError("sql_of needs a schema (load a dataset first)")
        return _rendered(
            schema, self._native_right, self._native_full, plan
        )[0]

    def close(self, handle: SqliteHandle) -> None:
        handle.conn.close()
