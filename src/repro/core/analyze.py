"""Query analysis: occurrence naming, qualification, classification.

This implements the preprocessing step of Algorithm 1:

1. every base-table occurrence gets a distinct binding;
2. every column reference is fully qualified against the catalog;
3. equi-join conjuncts are folded into *equivalence classes* of attributes
   (Section IV-B, Fig. 2) and dropped from the predicate list;
4. remaining predicates are classified as selections (single occurrence)
   or other join predicates (non-equi, or expression joins);
5. NATURAL join conditions are derived from common column names;
6. aggregation structure (GROUP BY attributes, aggregated attributes) is
   extracted and validated against the paper's query class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attrs import Attr, Occurrence, PoolAssigner, column_type
from repro.errors import CatalogError, UnsupportedSqlError
from repro.schema.catalog import Schema
from repro.schema.types import SqlType
from repro.sql.ast import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expr,
    FromItem,
    Join,
    JoinKind,
    Literal,
    NullTest,
    Query,
    SelectItem,
    Star,
    TableRef,
    comparison_columns,
)


@dataclass(frozen=True)
class PredInfo:
    """A classified, fully qualified predicate conjunct."""

    pred: Comparison
    bindings: frozenset[str]
    source: str  # 'where' or 'on'

    def __str__(self) -> str:
        return str(self.pred)


@dataclass
class AggInfo:
    """One aggregate in the select list."""

    agg: Aggregate
    attr: Attr | None  # None for COUNT(*)


@dataclass
class HavingInfo:
    """One HAVING conjunct, normalised to ``aggregate op constant``.

    Attributes:
        pred: The qualified conjunct as written.
        agg: The aggregate side.
        attr: The aggregated attribute (None for COUNT(*)).
        op: Comparison operator with the aggregate on the left.
        constant: The integer constant on the right.
    """

    pred: Comparison
    agg: Aggregate
    attr: Attr | None
    op: str
    constant: int


@dataclass
class NullTestInfo:
    """One IS [NOT] NULL conjunct.

    Attributes:
        pred: The qualified null test.
        attr: The tested attribute.
        position: Index of the conjunct in the query's WHERE list.
    """

    pred: "NullTest"
    attr: Attr
    position: int


@dataclass
class AnalyzedQuery:
    """The canonical representation the generator and mutator work on."""

    query: Query  # fully qualified
    schema: Schema
    occurrences: dict[str, Occurrence]
    eq_classes: list[tuple[Attr, ...]]
    selections: list[PredInfo]
    other_joins: list[PredInfo]
    group_by: list[Attr]
    aggregates: list[AggInfo]
    has_outer_joins: bool
    pools: PoolAssigner
    natural_conditions: list[Comparison] = field(default_factory=list)
    #: Raw equi-join conjuncts as attribute pairs, before transitive
    #: merging — kept for the equivalence-class ablation study.
    raw_equijoins: list[tuple[Attr, Attr]] = field(default_factory=list)
    #: Constrained-aggregation conjuncts (the HAVING extension).
    having: list[HavingInfo] = field(default_factory=list)
    #: IS [NOT] NULL conjuncts (the A6-lifting extension).
    null_tests: list[NullTestInfo] = field(default_factory=list)

    @property
    def bindings(self) -> list[str]:
        return list(self.occurrences)

    def table_of(self, binding: str) -> str:
        return self.occurrences[binding].table

    def attr_type(self, attr: Attr) -> SqlType:
        return column_type(self.schema, self.table_of(attr.binding), attr.column)


class _UnionFind:
    def __init__(self):
        self._parent: dict[Attr, Attr] = {}

    def find(self, item: Attr) -> Attr:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: Attr, b: Attr) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra

    def classes(self) -> list[tuple[Attr, ...]]:
        groups: dict[Attr, list[Attr]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return [tuple(sorted(members)) for _, members in sorted(groups.items())
                if len(members) > 1]


def analyze_query(query: Query, schema: Schema) -> AnalyzedQuery:
    """Run the Algorithm 1 preprocessing over a parsed query."""
    if query.has_subquery_predicates:
        raise UnsupportedSqlError(
            "subquery predicates must be decorrelated first; see "
            "repro.core.decorrelate (the generator does this automatically)"
        )
    occurrences = _collect_occurrences(query, schema)
    pools = PoolAssigner(schema)
    resolver = _Resolver(occurrences, schema)

    # Gather all predicate conjuncts, qualified.  Null tests (the
    # A6-lifting extension) are split off and validated separately.
    where_preds = []
    null_tests: list[NullTestInfo] = []
    for position, pred in enumerate(query.where):
        if isinstance(pred, NullTest):
            qualified_ref = resolver.qualify_column(pred.expr)
            qualified = NullTest(qualified_ref, pred.negated)
            null_tests.append(
                NullTestInfo(
                    qualified,
                    Attr(qualified_ref.table, qualified_ref.column),
                    position,
                )
            )
        else:
            where_preds.append(resolver.qualify_pred(pred))
    on_preds: list[Comparison] = []
    natural_conds: list[Comparison] = []
    has_outer = False
    for item in query.from_items:
        item_on, item_natural, item_outer = _collect_join_conditions(
            item, resolver, schema
        )
        on_preds.extend(item_on)
        natural_conds.extend(item_natural)
        has_outer = has_outer or item_outer

    qualified_query = _qualify_query(query, resolver)

    uf = _UnionFind()
    selections: list[PredInfo] = []
    other_joins: list[PredInfo] = []
    raw_equijoins: list[tuple[Attr, Attr]] = []
    tagged = [(p, "where") for p in where_preds] + [
        (p, "on") for p in on_preds + natural_conds
    ]
    for pred, source in tagged:
        _typecheck_comparison(pred, resolver)
        bindings = frozenset(_pred_bindings(pred))
        _link_pools(pred, resolver, pools)
        if len(bindings) <= 1:
            selections.append(PredInfo(pred, bindings, source))
            continue
        if (
            pred.op == "="
            and isinstance(pred.left, ColumnRef)
            and isinstance(pred.right, ColumnRef)
        ):
            left = Attr(pred.left.table, pred.left.column)
            right = Attr(pred.right.table, pred.right.column)
            uf.union(left, right)
            raw_equijoins.append(tuple(sorted((left, right))))
            continue
        other_joins.append(PredInfo(pred, bindings, source))

    _validate_null_tests(
        null_tests, resolver, has_outer,
        selections + other_joins, uf,
    )

    group_by = [
        Attr(col.table, col.column)
        for col in (resolver.qualify_column(c) for c in query.group_by)
    ]
    aggregates = _collect_aggregates(qualified_query, resolver)
    having = _collect_having(qualified_query, resolver)
    if aggregates and query.distinct:
        raise UnsupportedSqlError("SELECT DISTINCT with aggregation is unsupported")

    return AnalyzedQuery(
        query=qualified_query,
        schema=schema,
        occurrences=occurrences,
        eq_classes=uf.classes(),
        selections=selections,
        other_joins=other_joins,
        group_by=group_by,
        aggregates=aggregates,
        has_outer_joins=has_outer,
        pools=pools,
        natural_conditions=natural_conds,
        raw_equijoins=raw_equijoins,
        having=having,
        null_tests=null_tests,
    )


# ---------------------------------------------------------------------------
# Occurrence collection
# ---------------------------------------------------------------------------


def _collect_occurrences(query: Query, schema: Schema) -> dict[str, Occurrence]:
    occurrences: dict[str, Occurrence] = {}

    def walk(item: FromItem) -> None:
        if isinstance(item, TableRef):
            binding = item.binding.lower()
            table = item.name.lower()
            if not schema.has_table(table):
                raise CatalogError(f"unknown table {table!r}")
            if binding in occurrences:
                raise CatalogError(
                    f"duplicate binding {binding!r}; alias repeated occurrences"
                )
            occurrences[binding] = Occurrence(binding, table)
        elif isinstance(item, Join):
            walk(item.left)
            walk(item.right)

    for item in query.from_items:
        walk(item)
    return occurrences


class _Resolver:
    """Qualifies column references against the occurrence set."""

    def __init__(self, occurrences: dict[str, Occurrence], schema: Schema):
        self._occurrences = occurrences
        self._schema = schema

    def table_of(self, binding: str) -> str:
        try:
            return self._occurrences[binding.lower()].table
        except KeyError:
            raise CatalogError(f"unknown table or alias {binding!r}") from None

    def attr_type(self, binding: str, column: str) -> SqlType:
        return column_type(self._schema, self.table_of(binding), column)

    def qualify_column(self, ref: ColumnRef) -> ColumnRef:
        if ref.table is not None:
            binding = ref.table.lower()
            table = self.table_of(binding)
            if not self._schema.table(table).has_column(ref.column):
                raise CatalogError(
                    f"no column {ref.column!r} in {table} (binding {binding})"
                )
            return ColumnRef(binding, ref.column.lower())
        candidates = [
            binding
            for binding, occ in self._occurrences.items()
            if self._schema.table(occ.table).has_column(ref.column)
        ]
        if not candidates:
            raise CatalogError(f"unknown column {ref.column!r}")
        if len(candidates) > 1:
            raise CatalogError(
                f"ambiguous column {ref.column!r}: matches {candidates}"
            )
        return ColumnRef(candidates[0], ref.column.lower())

    def qualify_expr(self, expr: Expr) -> Expr:
        if isinstance(expr, ColumnRef):
            return self.qualify_column(expr)
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op, self.qualify_expr(expr.left), self.qualify_expr(expr.right)
            )
        if isinstance(expr, Aggregate):
            if isinstance(expr.arg, Star):
                return expr
            return Aggregate(expr.func, self.qualify_expr(expr.arg), expr.distinct)
        if isinstance(expr, Star):
            if expr.table is not None:
                self.table_of(expr.table)  # validate
                return Star(expr.table.lower())
            return expr
        return expr

    def qualify_pred(self, pred):
        if isinstance(pred, NullTest):
            return NullTest(self.qualify_column(pred.expr), pred.negated)
        return Comparison(
            pred.op, self.qualify_expr(pred.left), self.qualify_expr(pred.right)
        )


def _qualify_query(query: Query, resolver: _Resolver) -> Query:
    items = tuple(
        SelectItem(resolver.qualify_expr(item.expr), item.alias)
        for item in query.select_items
    )
    where = tuple(resolver.qualify_pred(p) for p in query.where)
    group_by = tuple(resolver.qualify_column(c) for c in query.group_by)

    def qualify_from(item: FromItem) -> FromItem:
        if isinstance(item, TableRef):
            return TableRef(item.name.lower(), item.alias.lower() if item.alias else None)
        assert isinstance(item, Join)
        return Join(
            item.kind,
            qualify_from(item.left),
            qualify_from(item.right),
            tuple(resolver.qualify_pred(p) for p in item.condition),
            item.natural,
        )

    return Query(
        select_items=items,
        from_items=tuple(qualify_from(f) for f in query.from_items),
        where=where,
        group_by=group_by,
        distinct=query.distinct,
        having=tuple(resolver.qualify_pred(p) for p in query.having),
    )


# ---------------------------------------------------------------------------
# Join-condition collection (including NATURAL derivation)
# ---------------------------------------------------------------------------


def _visible_attrs(item: FromItem, resolver: _Resolver, schema: Schema):
    """Visible (name -> representative Attr) map of a FROM subtree."""
    if isinstance(item, TableRef):
        binding = item.binding.lower()
        table = schema.table(resolver.table_of(binding))
        return {col: Attr(binding, col) for col in table.column_names}
    assert isinstance(item, Join)
    left = _visible_attrs(item.left, resolver, schema)
    right = _visible_attrs(item.right, resolver, schema)
    merged = dict(left)
    for name, attr in right.items():
        if name not in merged:
            merged[name] = attr
        elif not item.natural:
            # Keep the left representative; qualified references still work.
            pass
    return merged


def _collect_join_conditions(item: FromItem, resolver: _Resolver, schema: Schema):
    """(qualified ON conjuncts, derived NATURAL conjuncts, has_outer)."""
    on_preds: list[Comparison] = []
    natural: list[Comparison] = []
    has_outer = False

    def walk(node: FromItem):
        nonlocal has_outer
        if isinstance(node, TableRef):
            return
        assert isinstance(node, Join)
        walk(node.left)
        walk(node.right)
        if node.kind.is_outer:
            has_outer = True
        for pred in node.condition:
            on_preds.append(resolver.qualify_pred(pred))
        if node.natural:
            left_vis = _visible_attrs(node.left, resolver, schema)
            right_vis = _visible_attrs(node.right, resolver, schema)
            common = sorted(set(left_vis) & set(right_vis))
            if not common:
                raise UnsupportedSqlError(
                    "NATURAL join with no common columns is a cross product"
                )
            for name in common:
                la, ra = left_vis[name], right_vis[name]
                natural.append(
                    Comparison(
                        "=",
                        ColumnRef(la.binding, la.column),
                        ColumnRef(ra.binding, ra.column),
                    )
                )

    walk(item)
    return on_preds, natural, has_outer


# ---------------------------------------------------------------------------
# Classification helpers
# ---------------------------------------------------------------------------


def _pred_bindings(pred: Comparison) -> set[str]:
    bindings: set[str] = set()

    def walk(expr: Expr):
        if isinstance(expr, ColumnRef):
            bindings.add(expr.table)
        elif isinstance(expr, BinaryOp):
            walk(expr.left)
            walk(expr.right)

    walk(pred.left)
    walk(pred.right)
    return bindings


def _expr_kind(expr: Expr, resolver: _Resolver) -> str:
    """'num', 'str', or 'mixed' type of an expression."""
    if isinstance(expr, Literal):
        return "str" if isinstance(expr.value, str) else "num"
    if isinstance(expr, ColumnRef):
        sqltype = resolver.attr_type(expr.table, expr.column)
        return "str" if sqltype.is_textual else "num"
    if isinstance(expr, BinaryOp):
        left = _expr_kind(expr.left, resolver)
        right = _expr_kind(expr.right, resolver)
        if left == "num" and right == "num":
            return "num"
        raise UnsupportedSqlError(
            f"arithmetic over non-numeric operands in {expr}"
        )
    raise UnsupportedSqlError(f"unsupported expression in predicate: {expr}")


def _typecheck_comparison(pred: Comparison, resolver: _Resolver) -> None:
    left = _expr_kind(pred.left, resolver)
    right = _expr_kind(pred.right, resolver)
    if left != right:
        raise UnsupportedSqlError(
            f"type mismatch in comparison {pred} ({left} vs {right})"
        )
    # Order comparisons on strings are supported: the solver's symbol
    # interning is rank-preserving, so `name > 'M'` becomes an integer
    # atom whose order agrees with the engine's lexicographic compare.


def _link_pools(pred: Comparison, resolver: _Resolver, pools: PoolAssigner) -> None:
    refs = [
        expr
        for expr in (pred.left, pred.right)
        if isinstance(expr, ColumnRef)
        and resolver.attr_type(expr.table, expr.column).is_textual
    ]
    if len(refs) == 2:
        pools.link(
            (resolver.table_of(refs[0].table), refs[0].column),
            (resolver.table_of(refs[1].table), refs[1].column),
        )


def _validate_null_tests(
    null_tests: list["NullTestInfo"],
    resolver: _Resolver,
    has_outer: bool,
    other_preds: list[PredInfo],
    uf: "_UnionFind",
) -> None:
    """Enforce the IS NULL extension's supported envelope.

    Generation pushes selections to base-table scans, which is only sound
    for null tests when (a) the query has no outer joins (a null test over
    a padded column is a join-level predicate, not a scan-level one) and
    (b) the tested column carries no other constraint in the query.  A
    positive IS NULL on a NOT NULL column is a provably empty query and
    is rejected outright.
    """
    if not null_tests:
        return
    if has_outer:
        raise UnsupportedSqlError(
            "IS NULL combined with outer joins is not supported: the test "
            "would apply to padded rows, not base data"
        )
    constrained_attrs: set[Attr] = set()
    for info in other_preds:
        for ref in comparison_columns(info.pred):
            constrained_attrs.add(Attr(ref.table, ref.column))
    for attr in list(uf._parent):
        constrained_attrs.add(attr)
    for info in null_tests:
        schema_table = resolver._schema.table(resolver.table_of(info.attr.binding))
        column = schema_table.column(info.attr.column)
        if not info.pred.negated and not column.nullable:
            raise UnsupportedSqlError(
                f"{info.pred} can never hold: {info.attr} is NOT NULL"
            )
        if info.attr in constrained_attrs:
            raise UnsupportedSqlError(
                f"{info.pred}: the column also appears in another predicate "
                f"or join condition, which is outside the supported envelope"
            )


_HAVING_FLIP = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _collect_having(query: Query, resolver: _Resolver) -> list["HavingInfo"]:
    """Validate and normalise HAVING conjuncts to ``aggregate op const``.

    The supported shape for the constrained-aggregation extension: one
    side a numeric aggregate over a plain column (or COUNT(*)), the other
    an integer literal.
    """
    out: list[HavingInfo] = []
    for pred in query.having:
        if not isinstance(pred, Comparison):
            raise UnsupportedSqlError("HAVING must be a conjunction of comparisons")
        left, right, op = pred.left, pred.right, pred.op
        if isinstance(right, Aggregate) and isinstance(left, Literal):
            left, right = right, left
            op = _HAVING_FLIP[op]
        if not (isinstance(left, Aggregate) and isinstance(right, Literal)):
            raise UnsupportedSqlError(
                f"unsupported HAVING conjunct {pred}: expected "
                f"aggregate op integer-constant"
            )
        if not isinstance(right.value, int):
            raise UnsupportedSqlError(
                f"HAVING constants must be integers, got {right.value!r}"
            )
        if isinstance(left.arg, Star):
            attr = None
        elif isinstance(left.arg, ColumnRef):
            attr = Attr(left.arg.table, left.arg.column)
            if resolver.attr_type(attr.binding, attr.column).is_textual and (
                left.func in ("SUM", "AVG")
            ):
                raise UnsupportedSqlError(
                    f"{left.func} over a string attribute in HAVING"
                )
            if resolver.attr_type(attr.binding, attr.column).is_textual:
                raise UnsupportedSqlError(
                    "HAVING over string aggregates is unsupported; compare "
                    "COUNT instead"
                )
        else:
            raise UnsupportedSqlError(
                f"HAVING aggregates must be over plain columns: {pred}"
            )
        out.append(HavingInfo(pred, left, attr, op, right.value))
    return out


def _collect_aggregates(query: Query, resolver: _Resolver) -> list[AggInfo]:
    aggregates: list[AggInfo] = []

    def walk(expr: Expr):
        if isinstance(expr, Aggregate):
            if isinstance(expr.arg, Star):
                aggregates.append(AggInfo(expr, None))
            elif isinstance(expr.arg, ColumnRef):
                aggregates.append(
                    AggInfo(expr, Attr(expr.arg.table, expr.arg.column))
                )
            else:
                raise UnsupportedSqlError(
                    f"aggregates over expressions are unsupported: {expr}"
                )
        elif isinstance(expr, BinaryOp):
            walk(expr.left)
            walk(expr.right)

    for item in query.select_items:
        walk(item.expr)
    return aggregates
