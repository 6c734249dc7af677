"""Attribute bookkeeping: occurrences, qualified attributes, value pools.

An *occurrence* is one use of a base table in the FROM clause, identified
by its binding (alias, or the table name when unaliased) — the paper's
"distinct name".  A qualified attribute is an ``Attr(binding, column)``
pair; equivalence classes, predicates and nullification targets are all
expressed over these.

The :class:`PoolAssigner` computes, for VARCHAR columns, which columns
share a value universe: two columns belong to the same pool when they are
linked by a foreign key or compared by the query.  String interning is per
pool, so equality constraints between interned codes are meaningful and
cross-pool comparisons fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CatalogError
from repro.schema.catalog import Schema
from repro.schema.types import SqlType


@dataclass(frozen=True, order=True)
class Attr:
    """A qualified attribute: (binding, column)."""

    binding: str
    column: str

    def __str__(self) -> str:
        return f"{self.binding}.{self.column}"


@dataclass(frozen=True)
class Occurrence:
    """One use of a base table in the FROM clause."""

    binding: str
    table: str


class PoolAssigner:
    """Assigns a shared value pool to every (table, column) of the schema.

    Pools are computed over *schema tables and columns* (not occurrences):
    columns linked by foreign keys always share a pool, and the analyzer
    adds query-induced links (columns compared to each other) before pools
    are frozen.  Numeric columns all live in the single ``int`` universe
    and have no pool.
    """

    def __init__(self, schema: Schema):
        self._schema = schema
        self._parent: dict[tuple[str, str], tuple[str, str]] = {}
        # Memoized per-column answers; every dataset spec re-declares the
        # same variables, so these are asked thousands of times per query.
        # Invalidated on link() — the analyzer adds links before any
        # ProblemSpace consults the pools.
        self._pref_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        #: Prepared slot-variable declarations (kind, pool, preferred),
        #: keyed by variable name — every base declaration build of a
        #: query redoes the same domain munging (see ProblemSpace.var).
        self._decl_cache: dict[str, tuple] = {}
        #: Declared VarInfo per variable name.  Valid across the sibling
        #: declaration builds of one query: they intern the same values
        #: in the same order (warm-table replay), so the preferred codes
        #: are identical by construction.
        self._info_cache: dict[str, object] = {}
        for fk in schema.foreign_keys():
            for col, ref_col in fk.column_pairs():
                self.link((fk.table, col), (fk.ref_table, ref_col))

    def _find(self, key: tuple[str, str]) -> tuple[str, str]:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        root = self._find(parent)
        self._parent[key] = root
        return root

    def link(self, a: tuple[str, str], b: tuple[str, str]) -> None:
        """Record that two columns are compared / FK-linked."""
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra
            self._pref_cache.clear()
            self._decl_cache.clear()
            self._info_cache.clear()

    def pool_of(self, table: str, column: str) -> str:
        """The pool identifier for a VARCHAR column."""
        root = self._find((table.lower(), column.lower()))
        return f"{root[0]}.{root[1]}"

    def preferred_values(self, table: str, column: str) -> tuple[str, ...]:
        """Union of enumerated domains across the column's pool members."""
        cache_key = (table.lower(), column.lower())
        cached = self._pref_cache.get(cache_key)
        if cached is not None:
            return cached
        root = self._find(cache_key)
        values: list[str] = []
        seen: set[str] = set()
        for key in list(self._parent) + [(table.lower(), column.lower())]:
            if self._find(key) != root:
                continue
            table_name, col_name = key
            if not self._schema.has_table(table_name):
                continue
            schema_table = self._schema.table(table_name)
            if not schema_table.has_column(col_name):
                continue
            for value in schema_table.column(col_name).domain:
                if value not in seen:
                    seen.add(value)
                    values.append(value)
        result = tuple(values)
        self._pref_cache[cache_key] = result
        return result


def column_type(schema: Schema, table: str, column: str) -> SqlType:
    """Declared type of ``table.column`` (raises CatalogError if absent)."""
    schema_table = schema.table(table)
    if not schema_table.has_column(column):
        raise CatalogError(f"no column {column!r} in table {table}")
    return schema_table.column(column).sqltype
