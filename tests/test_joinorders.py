"""Join-order space: shape enumeration, node conditions, plan building."""

import pytest

from repro.core.analyze import analyze_query
from repro.core.joinorders import (
    JoinGraph,
    LeafShape,
    NodeShape,
    enumerate_shapes,
    node_conditions,
    shape_nodes,
    shape_to_plan,
)
from repro.engine.executor import execute_plan
from repro.engine.plan import compile_query
from repro.errors import GenerationError
from repro.sql.parser import parse_query
from repro.testing.killcheck import result_signature


def analyze(sql, schema):
    return analyze_query(parse_query(sql), schema)


CHAIN3 = (
    "SELECT * FROM instructor i, teaches t, course c "
    "WHERE i.id = t.id AND t.course_id = c.course_id"
)


class TestEnumeration:
    def test_single_relation_one_leaf(self, uni_schema):
        shapes = enumerate_shapes(analyze("SELECT * FROM instructor", uni_schema))
        assert shapes == [LeafShape("instructor")]

    def test_two_relations_one_shape(self, uni_schema):
        aq = analyze(
            "SELECT * FROM instructor i, teaches t WHERE i.id = t.id", uni_schema
        )
        shapes = enumerate_shapes(aq)
        assert len(shapes) == 1
        assert isinstance(shapes[0], NodeShape)

    def test_chain_of_three_two_shapes(self, uni_schema):
        """((i t) c) and (i (t c)) — Catalan(2) = 2 for a chain."""
        shapes = enumerate_shapes(analyze(CHAIN3, uni_schema))
        assert len(shapes) == 2

    def test_shared_attribute_allows_extra_shape(self, uni_schema):
        """Fig. 2: one equivalence class over 3 relations joins any pair."""
        aq = analyze(
            "SELECT * FROM teaches t, course c, prereq p "
            "WHERE t.course_id = c.course_id AND c.course_id = p.course_id",
            uni_schema,
        )
        shapes = enumerate_shapes(aq)
        assert len(shapes) == 3  # {tc}p, {tp}c, {cp}t

    def test_chain_of_four_catalan(self, uni_schema):
        aq = analyze(
            "SELECT * FROM instructor i, teaches t, course c, department d "
            "WHERE i.id = t.id AND t.course_id = c.course_id "
            "AND c.dept_name = d.dept_name",
            uni_schema,
        )
        assert len(enumerate_shapes(aq)) == 5  # Catalan(3)

    def test_no_cross_products_introduced(self, uni_schema):
        shapes = enumerate_shapes(analyze(CHAIN3, uni_schema))
        aq = analyze(CHAIN3, uni_schema)
        for shape in shapes:
            for node in shape_nodes(shape):
                assert node_conditions(aq, node), "node without a condition"

    def test_cap_enforced(self, uni_schema):
        aq = analyze(CHAIN3, uni_schema)
        with pytest.raises(GenerationError):
            enumerate_shapes(aq, cap=1)


class TestJoinGraph:
    def test_connectivity(self, uni_schema):
        graph = JoinGraph(analyze(CHAIN3, uni_schema))
        assert graph.connected(frozenset({"i", "t"}))
        assert graph.connected(frozenset({"i", "t", "c"}))
        assert not graph.connected(frozenset({"i", "c"}))

    def test_joinable_requires_cross_condition(self, uni_schema):
        graph = JoinGraph(analyze(CHAIN3, uni_schema))
        assert graph.joinable(frozenset({"i"}), frozenset({"t"}))
        assert graph.joinable(frozenset({"i", "t"}), frozenset({"c"}))
        assert not graph.joinable(frozenset({"i"}), frozenset({"c"}))


class TestConditions:
    def test_derived_condition_on_reordered_tree(self, uni_schema):
        """Equivalence class supplies A.x = C.x for the (t p) join."""
        aq = analyze(
            "SELECT * FROM teaches t, course c, prereq p "
            "WHERE t.course_id = c.course_id AND c.course_id = p.course_id",
            uni_schema,
        )
        node = NodeShape(LeafShape("t"), LeafShape("p"))
        conditions = node_conditions(aq, node)
        assert len(conditions) == 1
        rendered = str(conditions[0])
        assert "t.course_id" in rendered and "p.course_id" in rendered


class TestPlans:
    def test_all_inner_shapes_equal_original(self, uni_db):
        """Every join order of an inner query gives the original result."""
        aq = analyze(CHAIN3, uni_db.schema)
        baseline = result_signature(
            execute_plan(compile_query(aq.query), uni_db)
        )
        for shape in enumerate_shapes(aq):
            plan = shape_to_plan(aq, shape)
            assert result_signature(execute_plan(plan, uni_db)) == baseline

    def test_selections_pushed_to_leaves(self, uni_db):
        sql = (
            "SELECT * FROM instructor i, teaches t "
            "WHERE i.id = t.id AND i.salary > 70000"
        )
        aq = analyze(sql, uni_db.schema)
        baseline = result_signature(
            execute_plan(compile_query(aq.query), uni_db)
        )
        for shape in enumerate_shapes(aq):
            plan = shape_to_plan(aq, shape)
            assert result_signature(execute_plan(plan, uni_db)) == baseline

    def test_aggregate_on_top(self, uni_db):
        sql = (
            "SELECT i.dept_name, COUNT(t.course_id) "
            "FROM instructor i, teaches t WHERE i.id = t.id "
            "GROUP BY i.dept_name"
        )
        aq = analyze(sql, uni_db.schema)
        baseline = result_signature(
            execute_plan(compile_query(aq.query), uni_db)
        )
        for shape in enumerate_shapes(aq):
            assert (
                result_signature(execute_plan(shape_to_plan(aq, shape), uni_db))
                == baseline
            )


#: Queries whose equivalence classes put two members in one binding:
#: no join applies their equality, so a leaf selection must.
SAME_BINDING_CLASSES = [
    (
        "SELECT * FROM instructor i, teaches t "
        "WHERE i.id = t.id AND i.salary = t.id"
    ),
    (
        "SELECT * FROM instructor i, teaches t, advisor a "
        "WHERE i.id = t.id AND a.i_id = i.id AND a.s_id = t.id"
    ),
    (
        "SELECT t.course_id, COUNT(*) FROM instructor i, teaches t, course c "
        "WHERE i.id = t.id AND t.course_id = c.course_id "
        "AND t.sec_id = i.id GROUP BY t.course_id"
    ),
]


class TestSameBindingClassMembers:
    """An equality between two class members of one binding is applied
    by every join order, as the written query applies it."""

    def test_dropped_predicate_instance(self, uni_schema_nofk):
        from repro.engine.database import Database

        aq = analyze(SAME_BINDING_CLASSES[0], uni_schema_nofk)
        db = Database(uni_schema_nofk)
        db.insert_rows("instructor", [(1, "a", "CS", 5)])
        db.insert_rows("teaches", [(1, 10, 1, "Fall", 2009)])
        assert execute_plan(compile_query(aq.query), db).rows == []
        for shape in enumerate_shapes(aq):
            assert execute_plan(shape_to_plan(aq, shape), db).rows == []

    @pytest.mark.parametrize("sql", SAME_BINDING_CLASSES)
    def test_inner_plans_return_the_original_bag(self, uni_schema_nofk, sql):
        """The planner only reorders inner joins, so on random legal
        instances every INNER plan returns the written query's bag."""
        import random

        from repro.core.joinorders import ShapePlanner
        from repro.testing.equivalence import random_database

        aq = analyze(sql, uni_schema_nofk)
        planner = ShapePlanner(aq)
        plans = [planner.plan(shape) for shape in enumerate_shapes(aq)]
        original = compile_query(aq.query)
        rng = random.Random(11)
        nonempty = 0
        for _ in range(60):
            db = random_database(uni_schema_nofk, rng, value_range=3)
            expected = result_signature(execute_plan(original, db))
            nonempty += bool(sum(expected[1].values()))
            for plan in plans:
                assert result_signature(execute_plan(plan, db)) == expected
        assert nonempty > 0
