"""Mutation-space tests: join-type, comparison, aggregate mutants."""

import pytest

from repro.core.analyze import analyze_query
from repro.datasets import UNIVERSITY_QUERIES
from repro.engine.executor import execute_plan
from repro.engine.plan import compile_query
from repro.mutation import enumerate_mutants
from repro.mutation.jointype import (
    join_mutants,
    plan_canonical,
)
from repro.sql.parser import parse_query
from repro.testing.killcheck import result_signature


def analyze(sql, schema):
    return analyze_query(parse_query(sql), schema)


TWO = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"
CHAIN3 = (
    "SELECT * FROM instructor i, teaches t, course c "
    "WHERE i.id = t.id AND t.course_id = c.course_id"
)


class TestJoinMutants:
    def test_two_relations_two_mutants(self, uni_schema_nofk):
        mutants = join_mutants(analyze(TWO, uni_schema_nofk))
        assert len(mutants) == 2  # LEFT and RIGHT (full excluded by default)

    def test_full_outer_included_on_request(self, uni_schema_nofk):
        mutants = join_mutants(analyze(TWO, uni_schema_nofk), include_full=True)
        assert len(mutants) == 3

    def test_chain3_mutant_count(self, uni_schema_nofk):
        """2 shapes x 2 nodes x 2 outer kinds, deduplicated."""
        mutants = join_mutants(analyze(CHAIN3, uni_schema_nofk))
        assert len(mutants) == 8

    def test_mirror_mutants_deduplicated(self, uni_schema_nofk):
        """A LEFT join and the mirrored RIGHT join are one mutant."""
        mutants = join_mutants(analyze(TWO, uni_schema_nofk))
        canonicals = {m.canonical for m in mutants}
        assert len(canonicals) == len(mutants)
        # Both surviving canonicals are LEFT joins after normalisation.
        assert all(" L " in c for c in canonicals)

    def test_reordered_tree_mutants_present(self, uni_schema_nofk):
        """Fig. 2(d): the intended query joining A with C directly."""
        sql = (
            "SELECT * FROM teaches t, course c, prereq p "
            "WHERE t.course_id = c.course_id AND c.course_id = p.course_id"
        )
        mutants = join_mutants(analyze(sql, uni_schema_nofk))
        assert any(
            "(p L t)" in m.canonical or "(t L p)" in m.canonical
            for m in mutants
        )

    def test_single_relation_no_join_mutants(self, uni_schema_nofk):
        assert join_mutants(analyze("SELECT * FROM course", uni_schema_nofk)) == []

    def test_mutant_plans_execute(self, uni_db):
        aq = analyze(CHAIN3, uni_db.schema)
        for mutant in join_mutants(aq):
            execute_plan(mutant.plan, uni_db)  # no exception

    def test_outer_query_mutates_written_tree_only(self, uni_schema_nofk):
        sql = (
            "SELECT i.id, t.id FROM instructor i "
            "LEFT OUTER JOIN teaches t ON i.id = t.id"
        )
        aq = analyze(sql, uni_schema_nofk)
        mutants = join_mutants(aq)
        # LEFT -> INNER, LEFT -> RIGHT (mirrored), deduplicated.
        assert 1 <= len(mutants) <= 3
        descriptions = {m.description for m in mutants}
        assert any("JOIN" in d for d in descriptions)

    def test_inner_mutant_of_outer_join_differs(self, uni_db):
        sql = (
            "SELECT i.id, t.id FROM instructor i "
            "LEFT OUTER JOIN teaches t ON i.id = t.id"
        )
        aq = analyze(sql, uni_db.schema)
        original = result_signature(
            execute_plan(compile_query(aq.query), uni_db)
        )
        inner_mutant = next(
            m for m in join_mutants(aq) if "-> JOIN" in m.description
        )
        mutated = result_signature(execute_plan(inner_mutant.plan, uni_db))
        assert mutated != original  # sample db has non-teaching instructors


class TestCanonical:
    def test_inner_children_sorted(self, uni_schema_nofk):
        aq = analyze(TWO, uni_schema_nofk)
        from repro.core.joinorders import enumerate_shapes, shape_to_plan

        shape = enumerate_shapes(aq)[0]
        assert plan_canonical(shape_to_plan(aq, shape)) == "(i J t)"

    def test_right_normalised_to_left(self, uni_schema_nofk):
        from repro.core.joinorders import ShapePlanner, enumerate_shapes, shape_nodes
        from repro.engine.plan import replace_node
        from repro.sql.ast import JoinKind

        aq = analyze(TWO, uni_schema_nofk)
        shape = enumerate_shapes(aq)[0]
        planner = ShapePlanner(aq)
        join = planner.subtree(shape_nodes(shape)[0])
        right = replace_node(
            planner.plan(shape), join, join.with_kind(JoinKind.RIGHT)
        )
        canonical = plan_canonical(right)
        assert " L " in canonical


class TestComparisonMutants:
    def test_numeric_selection_five_mutants(self, uni_schema_nofk):
        space = enumerate_mutants(
            "SELECT * FROM instructor i WHERE i.salary > 100",
            uni_schema_nofk,
            include_join=False,
        )
        assert len(space.by_kind("comparison")) == 5

    def test_string_selection_five_mutants(self, uni_schema_nofk):
        """Strings carry the full operator space (ordered interning)."""
        space = enumerate_mutants(
            "SELECT * FROM instructor i WHERE i.dept_name = 'CS'",
            uni_schema_nofk,
            include_join=False,
        )
        assert len(space.by_kind("comparison")) == 5

    def test_join_conjuncts_not_mutated(self, uni_schema_nofk):
        space = enumerate_mutants(TWO, uni_schema_nofk, include_join=False)
        assert space.by_kind("comparison") == []

    def test_mutants_execute_differently_when_expected(self, uni_db):
        space = enumerate_mutants(
            "SELECT i.id FROM instructor i WHERE i.salary > 70000",
            uni_db.schema,
            include_join=False,
        )
        original = result_signature(
            execute_plan(compile_query(space.analyzed.query), uni_db)
        )
        ge_mutant = next(
            m for m in space.mutants if "'i.salary >= 70000'" in m.description
        )
        # salary 70000 is not in the sample db, so >= agrees with > there;
        # the mutant still runs fine.
        execute_plan(ge_mutant.plan, uni_db)


class TestAggregateMutants:
    def test_numeric_aggregate_seven_mutants(self, uni_schema_nofk):
        space = enumerate_mutants(
            "SELECT SUM(i.salary) FROM instructor i",
            uni_schema_nofk,
        )
        assert len(space.by_kind("aggregate")) == 7

    def test_string_aggregate_three_mutants(self, uni_schema_nofk):
        space = enumerate_mutants(
            "SELECT MIN(i.name) FROM instructor i",
            uni_schema_nofk,
        )
        assert len(space.by_kind("aggregate")) == 3

    def test_count_star_not_mutated(self, uni_schema_nofk):
        space = enumerate_mutants(
            "SELECT COUNT(*) FROM instructor", uni_schema_nofk
        )
        assert space.by_kind("aggregate") == []

    def test_distinct_variant_is_a_mutant(self, uni_schema_nofk):
        space = enumerate_mutants(
            "SELECT SUM(i.salary) FROM instructor i", uni_schema_nofk
        )
        descriptions = {m.description for m in space.by_kind("aggregate")}
        assert "SUM(i.salary) -> SUM(DISTINCT i.salary)" in descriptions


class TestSpace:
    def test_combined_space(self, uni_schema_nofk):
        sql = (
            "SELECT i.dept_name, SUM(i.salary) "
            "FROM instructor i, teaches t "
            "WHERE i.id = t.id AND i.salary > 100 "
            "GROUP BY i.dept_name"
        )
        space = enumerate_mutants(sql, uni_schema_nofk)
        assert space.by_kind("join")
        assert space.by_kind("comparison")
        assert space.by_kind("aggregate")
        assert len(space) == sum(
            len(space.by_kind(k)) for k in ("join", "comparison", "aggregate")
        )

    def test_schema_required_for_sql_input(self):
        with pytest.raises(ValueError):
            enumerate_mutants("SELECT * FROM t")


# ---------------------------------------------------------------------------
# Path-copied mutant space == the naive full-rebuild space
# ---------------------------------------------------------------------------
#
# A reference enumeration that builds every mutant from scratch, the way
# the space was first written: one whole tree per (shape, node, kind),
# a full rebuild of the written tree per outer-join victim, and a
# recompiled query per comparison, NULL-test, aggregate and
# join-condition mutant.  ``enumerate_mutants`` path-copies one shared
# plan instead; the two must agree mutant for mutant.


def _ref_shape_plan(aq, shape, flip):
    """The INNER plan of ``shape`` with ``flip = (node, kind)`` applied,
    every node built fresh."""
    from repro.core.joinorders import LeafShape, node_conditions
    from repro.engine.plan import (
        AggregateNode, JoinNode, ProjectNode, ScanNode, SelectNode,
    )
    from repro.sql.ast import ColumnRef, Comparison, JoinKind

    def build(node):
        if isinstance(node, LeafShape):
            plan = ScanNode(aq.occurrences[node.binding].table, node.binding)
            selections = [
                info.pred for info in aq.selections
                if info.bindings == frozenset({node.binding})
            ]
            selections += [
                info.pred for info in aq.null_tests
                if info.attr.binding == node.binding
            ]
            for ec in aq.eq_classes:
                members = sorted(a for a in ec if a.binding == node.binding)
                selections += [
                    Comparison(
                        "=", ColumnRef(node.binding, members[0].column),
                        ColumnRef(node.binding, other.column),
                    )
                    for other in members[1:]
                ]
            return SelectNode(plan, tuple(selections)) if selections else plan
        kind = flip[1] if node is flip[0] else JoinKind.INNER
        return JoinNode(
            kind, build(node.left), build(node.right),
            tuple(node_conditions(aq, node)),
        )

    query = aq.query
    tree = build(shape)
    if aq.group_by or aq.aggregates or query.having:
        return AggregateNode(
            tree, tuple(query.group_by), tuple(query.select_items),
            tuple(query.having),
        )
    return ProjectNode(tree, tuple(query.select_items), query.distinct)


def _ref_rebuild(node, victim, kind):
    """A full copy of ``node`` with ``victim``'s join kind changed."""
    from dataclasses import fields, replace

    from repro.engine.plan import JoinNode, ScanNode

    if isinstance(node, ScanNode):
        return ScanNode(node.table, node.binding)
    changes = {
        f.name: _ref_rebuild(getattr(node, f.name), victim, kind)
        for f in fields(node) if f.name in ("left", "right", "child")
    }
    if node is victim:
        changes["kind"] = kind
    return replace(node, **changes)


def _ref_canonical(plan):
    from repro.engine.plan import JoinNode, ScanNode
    from repro.sql.ast import JoinKind

    if isinstance(plan, ScanNode):
        return plan.binding
    if not isinstance(plan, JoinNode):
        return _ref_canonical(plan.child)
    left, right, kind = _ref_canonical(plan.left), _ref_canonical(plan.right), plan.kind
    if kind is JoinKind.RIGHT:
        kind, left, right = JoinKind.LEFT, right, left
    if kind in (JoinKind.INNER, JoinKind.FULL, JoinKind.CROSS) and right < left:
        left, right = right, left
    symbol = {JoinKind.INNER: "J", JoinKind.LEFT: "L", JoinKind.FULL: "F",
              JoinKind.CROSS: "X"}[kind]
    return f"({left} {symbol} {right})"


def _ref_join_mutants(aq, include_full):
    from repro.core.joinorders import enumerate_shapes, shape_nodes
    from repro.mutation.jointype import ALL_TARGETS, DEFAULT_TARGETS
    from repro.sql.ast import JoinKind, Star

    targets = ALL_TARGETS if include_full else DEFAULT_TARGETS
    if len(aq.occurrences) < 2:
        return []
    found = {}
    star = any(isinstance(i.expr, Star) for i in aq.query.select_items)
    if aq.has_outer_joins or (aq.natural_conditions and star):
        base = compile_query(aq.query)
        joins = []

        def collect(node):
            if hasattr(node, "kind"):
                joins.append(node)
                collect(node.left)
                collect(node.right)
            elif hasattr(node, "child"):
                collect(node.child)

        collect(base)
        for victim in joins:
            if victim.kind is JoinKind.CROSS:
                continue
            kinds = (set(targets) | {JoinKind.INNER}) - {victim.kind}
            for kind in sorted(kinds, key=lambda k: k.value):
                plan = _ref_rebuild(base, victim, kind)
                canonical = _ref_canonical(plan)
                if canonical != _ref_canonical(base) and canonical not in found:
                    found[canonical] = (
                        "join", f"{victim.kind.value} -> {kind.value}", plan
                    )
        return list(found.values())
    for shape in enumerate_shapes(aq):
        for node in shape_nodes(shape):
            for kind in targets:
                plan = _ref_shape_plan(aq, shape, (node, kind))
                left = ",".join(sorted(node.left.bindings))
                right = ",".join(sorted(node.right.bindings))
                found.setdefault(
                    _ref_canonical(plan),
                    ("join", f"[{left}] {kind.value} [{right}]", plan),
                )
    return list(found.values())


def _ref_query(query, **changes):
    from dataclasses import replace

    return compile_query(replace(query, **changes))


def _ref_swap(expr, old, new):
    from repro.sql.ast import BinaryOp

    if expr is old:
        return new
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, _ref_swap(expr.left, old, new), _ref_swap(expr.right, old, new)
        )
    return expr


def _ref_space(aq, include_full):
    """(kind, description, plan) of every mutant, built from scratch, in
    ``enumerate_mutants(aq, include_full, include_join_conditions=True)``
    order."""
    from repro.mutation.aggregate import NUMERIC_SPACE, STRING_SPACE
    from repro.mutation.comparison import _is_conjunct_textual
    from repro.mutation.joincond import _compatible_columns, _equijoin_positions
    from repro.sql.ast import COMPARISON_OPS, Aggregate, ColumnRef, Comparison, SelectItem

    query = aq.query
    where, having = list(query.where), list(query.having)

    def with_where(position, pred):
        return _ref_query(query, where=tuple(where[:position] + [pred] + where[position + 1:]))

    out = _ref_join_mutants(aq, include_full)
    selections = {str(info.pred) for info in aq.selections}
    for position, pred in enumerate(where):
        if str(pred) not in selections:
            continue
        for op in COMPARISON_OPS:
            if op != pred.op:
                mutated = pred.with_op(op)
                out.append(("comparison", f"where[{position}]: '{pred}' -> '{mutated}'",
                            with_where(position, mutated)))
    for position, pred in enumerate(having):
        for op in COMPARISON_OPS:
            if op != pred.op:
                mutated = pred.with_op(op)
                changed = tuple(having[:position] + [mutated] + having[position + 1:])
                out.append(("comparison", f"having[{position}]: '{pred}' -> '{mutated}'",
                            _ref_query(query, having=changed)))
    for info in aq.null_tests:
        flipped = info.pred.flipped()
        out.append(("nulltest", f"where[{info.position}]: '{info.pred}' -> '{flipped}'",
                    with_where(info.position, flipped)))
    for info in aq.aggregates:
        if info.attr is None:
            continue
        space = STRING_SPACE if aq.attr_type(info.attr).is_textual else NUMERIC_SPACE
        for func, distinct in space:
            if (func, distinct) != (info.agg.func, info.agg.distinct):
                new = Aggregate(func, info.agg.arg, distinct)
                items = tuple(SelectItem(_ref_swap(i.expr, info.agg, new), i.alias)
                              for i in query.select_items)
                out.append(("aggregate", f"{info.agg} -> {new}",
                            _ref_query(query, select_items=items)))
    for info in aq.having:
        if info.attr is None:
            continue
        for func, distinct in NUMERIC_SPACE:
            if (func, distinct) != (info.agg.func, info.agg.distinct):
                new = Aggregate(func, info.agg.arg, distinct)
                changed = tuple(
                    Comparison(p.op, _ref_swap(p.left, info.agg, new),
                               _ref_swap(p.right, info.agg, new))
                    for p in having
                )
                out.append(("aggregate", f"having: {info.agg} -> {new}",
                            _ref_query(query, having=changed)))
    for position in _equijoin_positions(aq):
        pred = where[position]
        for side in ("left", "right"):
            ref = getattr(pred, side)
            for other in _compatible_columns(aq, ref.table, ref.column):
                column = ColumnRef(ref.table, other)
                mutated = (Comparison(pred.op, column, pred.right) if side == "left"
                           else Comparison(pred.op, pred.left, column))
                out.append(("joincond-wrong", f"where[{position}]: '{pred}' -> '{mutated}'",
                            with_where(position, mutated)))
    for position in _equijoin_positions(aq):
        out.append(("joincond-missing", f"where[{position}]: dropped '{where[position]}'",
                    _ref_query(query, where=tuple(where[:position] + where[position + 1:]))))
    return out


def _assert_space_matches_reference(aq, include_full):
    from repro.engine.plan import plan_fingerprint

    space = enumerate_mutants(
        aq, include_full_outer=include_full, include_join_conditions=True
    )
    expected = _ref_space(aq, include_full)
    assert [(m.kind, m.description) for m in space.mutants] == [
        (kind, description) for kind, description, _ in expected
    ]
    for mutant, (_, _, plan) in zip(space.mutants, expected):
        assert mutant.plan == plan, mutant
        assert plan_fingerprint(mutant.plan) == plan_fingerprint(plan), mutant
    assert space.original_plan == compile_query(aq.query)


class TestPathCopiedSpace:
    @pytest.mark.parametrize("include_full", [False, True])
    def test_table12_jobs_match_full_rebuild(self, table12_jobs, include_full):
        for schema, sql in table12_jobs:
            _assert_space_matches_reference(analyze(sql, schema), include_full)

    @pytest.mark.parametrize("include_full", [False, True])
    def test_conformance_seeds_match_full_rebuild(self, uni_schema, include_full):
        import random

        from repro.errors import XDataError
        from repro.testing.conformance import sample_conformance_query

        checked = 0
        for seed in range(200):
            sql = sample_conformance_query(random.Random(seed), uni_schema)
            try:
                aq = analyze(sql, uni_schema)
            except XDataError:
                continue
            _assert_space_matches_reference(aq, include_full)
            checked += 1
        assert checked > 150

    def test_mutants_keep_having_under_outer_joins(self, uni_schema_nofk):
        """Every mutant differs from the query in one node: an outer-join
        flip or a dropped join conjunct leaves HAVING in place."""
        sql = (
            "SELECT i.dept_name, COUNT(t.course_id) FROM instructor i "
            "LEFT OUTER JOIN teaches t ON i.id = t.id, advisor a "
            "WHERE a.i_id = i.id GROUP BY i.dept_name HAVING COUNT(t.course_id) > 1"
        )
        space = enumerate_mutants(
            sql, uni_schema_nofk, include_join_conditions=True
        )
        assert space.by_kind("join") and space.by_kind("joincond-missing")
        for mutant in space.mutants:
            assert mutant.plan.having, mutant

    def test_q4_join_mutants_allocate_only_their_path(self, table12_jobs):
        """Across Q4's 200 join mutants, structurally equal subtrees off
        the flipped join's root path are one object, and every node
        beyond those is on some mutant's own root-to-flip path."""
        from repro.engine.plan import JoinNode, ScanNode, plan_fingerprint
        from repro.sql.ast import JoinKind

        q4 = UNIVERSITY_QUERIES["Q4"]["sql"]
        schema = next(s for s, sql in table12_jobs if sql == q4)
        mutants = enumerate_mutants(q4, schema).by_kind("join")
        assert len(mutants) == 200

        def nodes(plan):
            yield plan
            if isinstance(plan, JoinNode):
                yield from nodes(plan.left)
                yield from nodes(plan.right)
            elif not isinstance(plan, ScanNode):
                yield from nodes(plan.child)

        def flipped_path(plan):
            path = []
            while True:
                path.append(plan)
                if isinstance(plan, JoinNode) and plan.kind is not JoinKind.INNER:
                    return path
                below = [plan.left, plan.right] if isinstance(plan, JoinNode) else [plan.child]
                plan = next(
                    child for child in below
                    if any(isinstance(n, JoinNode) and n.kind is not JoinKind.INNER
                           for n in nodes(child))
                )

        every, off_path, off_path_structures, path_nodes = set(), set(), set(), 0
        for mutant in mutants:
            path = {id(node) for node in flipped_path(mutant.plan)}
            path_nodes += len(path)
            for node in nodes(mutant.plan):
                every.add(id(node))
                if id(node) not in path:
                    off_path.add(id(node))
                    off_path_structures.add(plan_fingerprint(node))
        assert len(off_path) == len(off_path_structures)
        assert len(every) == len(off_path) + path_nodes

    def test_non_join_mutants_share_the_original_from_tree(self, uni_schema_nofk):
        sql = (
            "SELECT i.dept_name, SUM(i.salary) FROM instructor i, teaches t "
            "WHERE i.id = t.id AND i.salary > 100 GROUP BY i.dept_name "
            "HAVING SUM(i.salary) > 10"
        )
        space = enumerate_mutants(sql, uni_schema_nofk)
        from_tree = space.original_plan.child.child
        others = [m for m in space.mutants if m.kind != "join"]
        assert {m.kind for m in others} == {"comparison", "aggregate"}
        for mutant in others:
            assert mutant.plan.child.child is from_tree, mutant
