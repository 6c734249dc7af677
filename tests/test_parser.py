"""Unit tests for the SQL parser."""

import pytest

from repro.errors import ParseError, UnsupportedSqlError
from repro.sql.ast import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Comparison,
    Join,
    JoinKind,
    Literal,
    Star,
    TableRef,
    query_table_refs,
)
from repro.sql.parser import MAX_NESTING, parse_query


class TestSelectList:
    def test_star(self):
        q = parse_query("SELECT * FROM t")
        assert isinstance(q.select_items[0].expr, Star)
        assert q.select_items[0].expr.table is None

    def test_qualified_star(self):
        q = parse_query("SELECT t.* FROM t")
        assert q.select_items[0].expr == Star("t")

    def test_column_list(self):
        q = parse_query("SELECT a, b, c FROM t")
        assert [str(i.expr) for i in q.select_items] == ["a", "b", "c"]

    def test_qualified_columns(self):
        q = parse_query("SELECT t.a FROM t")
        assert q.select_items[0].expr == ColumnRef("t", "a")

    def test_alias_with_as(self):
        q = parse_query("SELECT a AS x FROM t")
        assert q.select_items[0].alias == "x"

    def test_alias_without_as(self):
        q = parse_query("SELECT a x FROM t")
        assert q.select_items[0].alias == "x"

    def test_arithmetic_in_select(self):
        q = parse_query("SELECT a + 1 FROM t")
        expr = q.select_items[0].expr
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"

    def test_distinct_flag(self):
        assert parse_query("SELECT DISTINCT a FROM t").distinct
        assert not parse_query("SELECT ALL a FROM t").distinct
        assert not parse_query("SELECT a FROM t").distinct


class TestAggregates:
    @pytest.mark.parametrize("func", ["MIN", "MAX", "SUM", "AVG", "COUNT"])
    def test_plain_aggregates(self, func):
        q = parse_query(f"SELECT {func}(a) FROM t")
        agg = q.select_items[0].expr
        assert isinstance(agg, Aggregate)
        assert agg.func == func
        assert not agg.distinct

    def test_distinct_aggregate(self):
        agg = parse_query("SELECT SUM(DISTINCT a) FROM t").select_items[0].expr
        assert agg.distinct

    def test_count_star(self):
        agg = parse_query("SELECT COUNT(*) FROM t").select_items[0].expr
        assert isinstance(agg.arg, Star)

    def test_sum_star_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT SUM(*) FROM t")

    def test_aggregate_over_expression(self):
        agg = parse_query("SELECT SUM(a + 1) FROM t").select_items[0].expr
        assert isinstance(agg.arg, BinaryOp)

    def test_query_has_aggregates_property(self):
        assert parse_query("SELECT SUM(a) FROM t").has_aggregates
        assert parse_query("SELECT SUM(a) + 1 FROM t").has_aggregates
        assert not parse_query("SELECT a FROM t").has_aggregates


class TestFromClause:
    def test_single_table(self):
        q = parse_query("SELECT * FROM instructor")
        ref = q.from_items[0]
        assert ref == TableRef("instructor", None)
        assert ref.binding == "instructor"

    def test_alias(self):
        ref = parse_query("SELECT * FROM instructor i").from_items[0]
        assert ref.alias == "i"
        assert ref.binding == "i"

    def test_alias_with_as(self):
        ref = parse_query("SELECT * FROM instructor AS i").from_items[0]
        assert ref.alias == "i"

    def test_comma_list(self):
        q = parse_query("SELECT * FROM a, b, c")
        assert len(q.from_items) == 3

    def test_inner_join_with_on(self):
        q = parse_query("SELECT * FROM a JOIN b ON a.x = b.x")
        join = q.from_items[0]
        assert isinstance(join, Join)
        assert join.kind is JoinKind.INNER
        assert len(join.condition) == 1

    def test_inner_keyword_optional(self):
        q = parse_query("SELECT * FROM a INNER JOIN b ON a.x = b.x")
        assert q.from_items[0].kind is JoinKind.INNER

    @pytest.mark.parametrize(
        "sql_kind,kind",
        [
            ("LEFT OUTER JOIN", JoinKind.LEFT),
            ("LEFT JOIN", JoinKind.LEFT),
            ("RIGHT OUTER JOIN", JoinKind.RIGHT),
            ("RIGHT JOIN", JoinKind.RIGHT),
            ("FULL OUTER JOIN", JoinKind.FULL),
            ("FULL JOIN", JoinKind.FULL),
        ],
    )
    def test_outer_joins(self, sql_kind, kind):
        q = parse_query(f"SELECT * FROM a {sql_kind} b ON a.x = b.x")
        assert q.from_items[0].kind is kind

    def test_cross_join_has_no_on(self):
        q = parse_query("SELECT * FROM a CROSS JOIN b")
        join = q.from_items[0]
        assert join.kind is JoinKind.CROSS
        assert join.condition == ()

    def test_natural_join(self):
        q = parse_query("SELECT * FROM a NATURAL JOIN b")
        join = q.from_items[0]
        assert join.natural
        assert join.kind is JoinKind.INNER

    def test_natural_full_outer_join(self):
        q = parse_query("SELECT * FROM a NATURAL FULL OUTER JOIN b")
        assert q.from_items[0].kind is JoinKind.FULL
        assert q.from_items[0].natural

    def test_natural_join_with_on_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM a NATURAL JOIN b ON a.x = b.x")

    def test_join_without_on_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM a JOIN b")

    def test_chained_joins_left_associative(self):
        q = parse_query(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        )
        outer = q.from_items[0]
        assert isinstance(outer.left, Join)
        assert isinstance(outer.right, TableRef)

    def test_parenthesised_join_tree(self):
        q = parse_query(
            "SELECT * FROM a JOIN (b JOIN c ON b.y = c.y) ON a.x = b.x"
        )
        outer = q.from_items[0]
        assert isinstance(outer.right, Join)

    def test_multi_condition_on_clause(self):
        q = parse_query("SELECT * FROM a JOIN b ON a.x = b.x AND a.y = b.y")
        assert len(q.from_items[0].condition) == 2

    def test_table_refs_flattened_in_order(self):
        q = parse_query("SELECT * FROM a, b JOIN c ON b.x = c.x, d")
        assert [r.name for r in query_table_refs(q)] == ["a", "b", "c", "d"]


class TestWhereClause:
    def test_single_comparison(self):
        q = parse_query("SELECT * FROM t WHERE a = 5")
        assert q.where == (Comparison("=", ColumnRef(None, "a"), Literal(5)),)

    def test_and_chain_flattened(self):
        q = parse_query("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3")
        assert len(q.where) == 3

    @pytest.mark.parametrize("op", ["=", "<", ">", "<=", ">=", "<>"])
    def test_all_comparison_operators(self, op):
        q = parse_query(f"SELECT * FROM t WHERE a {op} 5")
        assert q.where[0].op == op

    def test_bang_equals_becomes_diamond(self):
        assert parse_query("SELECT * FROM t WHERE a != 5").where[0].op == "<>"

    def test_string_literal(self):
        q = parse_query("SELECT * FROM t WHERE a = 'CS'")
        assert q.where[0].right == Literal("CS")

    def test_negative_literal(self):
        q = parse_query("SELECT * FROM t WHERE a = -5")
        assert q.where[0].right == Literal(-5)

    def test_arithmetic_condition(self):
        q = parse_query("SELECT * FROM t, s WHERE t.a = s.b + 10")
        right = q.where[0].right
        assert isinstance(right, BinaryOp)
        assert right.op == "+"

    def test_precedence_mul_over_add(self):
        q = parse_query("SELECT * FROM t WHERE a = b + c * 2")
        right = q.where[0].right
        assert right.op == "+"
        assert isinstance(right.right, BinaryOp)
        assert right.right.op == "*"

    def test_parenthesised_expression(self):
        q = parse_query("SELECT * FROM t WHERE a = (b + c) * 2")
        right = q.where[0].right
        assert right.op == "*"


class TestGroupBy:
    def test_group_by_single(self):
        q = parse_query("SELECT a, COUNT(b) FROM t GROUP BY a")
        assert q.group_by == (ColumnRef(None, "a"),)

    def test_group_by_qualified(self):
        q = parse_query("SELECT t.a, COUNT(b) FROM t GROUP BY t.a")
        assert q.group_by == (ColumnRef("t", "a"),)

    def test_group_by_multiple(self):
        q = parse_query("SELECT a, b, COUNT(c) FROM t GROUP BY a, b")
        assert len(q.group_by) == 2


class TestRejections:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t WHERE a = 1 OR b = 2",
            "SELECT * FROM t WHERE NOT a = 1",
            "SELECT * FROM t WHERE a IN (1, 2)",
            "SELECT * FROM t WHERE a BETWEEN 1 AND 2",
            "SELECT * FROM t WHERE a LIKE 'x%'",
            "SELECT * FROM t UNION SELECT * FROM s",
            "SELECT * FROM (SELECT * FROM t)",
            "SELECT * FROM t WHERE a = (SELECT MAX(b) FROM s)",
            "SELECT * FROM t ORDER BY a",
        ],
    )
    def test_unsupported_constructs(self, sql):
        with pytest.raises(UnsupportedSqlError):
            parse_query(sql)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t garbage extra ,")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a WHERE a = 1")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_query("")

    def test_semicolon_accepted(self):
        parse_query("SELECT * FROM t;")

    def test_double_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM t; SELECT * FROM s")


#: Hostile shapes, each nested far past MAX_NESTING (3,000 levels).
_DEEP = 3000
_HOSTILE = {
    "parenthesised table": "SELECT * FROM " + "(" * _DEEP + "t" + ")" * _DEEP,
    "parenthesised operand": (
        "SELECT * FROM t WHERE " + "(" * _DEEP + "t.a" + ")" * _DEEP + " > 1"
    ),
    "unary minus": "SELECT * FROM t WHERE t.a > " + "- " * _DEEP + "1",
    "operator chain": "SELECT * FROM t WHERE t.a > " + " + ".join(["1"] * _DEEP),
    "join chain": "SELECT * FROM t x0" + "".join(
        f" JOIN t x{i} ON x{i}.a = x0.a" for i in range(1, _DEEP)
    ),
    "nested EXISTS": (
        "SELECT * FROM t WHERE "
        + "EXISTS (SELECT * FROM t WHERE " * _DEEP + "t.a = 1" + ")" * _DEEP
    ),
    "nested aggregates": "SELECT " + "SUM(" * _DEEP + "t.a" + ")" * _DEEP + " FROM t",
}


class TestNestingLimit:
    """Hostile nesting ends in a ParseError, never a RecursionError."""

    @pytest.mark.parametrize("sql", _HOSTILE.values(), ids=_HOSTILE.keys())
    def test_deep_nesting_is_a_parse_error(self, sql):
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_query(sql)

    def test_limit_is_on_tree_depth(self):
        # Query, comparison, one level per operator, leaf: n terms make
        # a tree n + 2 deep.
        def chain(terms):
            return "SELECT * FROM t WHERE t.a > " + " + ".join(["t.b"] * terms)

        parse_query(chain(MAX_NESTING - 2))
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_query(chain(MAX_NESTING - 1))

    def test_canonical_text_of_a_query_at_the_limit_parses(self):
        # The printer parenthesises every operator, so canonical text has
        # more parentheses than the input; it must still be accepted.
        from repro.service.fingerprint import canonical_query

        sql = "SELECT * FROM t WHERE t.a > " + " + ".join(["t.b"] * (MAX_NESTING - 2))
        canonical = canonical_query(sql)
        assert canonical.count("(") == MAX_NESTING - 3
        assert canonical_query(canonical) == canonical
