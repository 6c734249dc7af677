"""Shared plan-rewriting helpers for mutant construction.

Every helper takes the original query's compiled plan
(:func:`repro.engine.plan.compile_query`: the select list or
aggregation on top, over the WHERE filter, over the FROM tree) and
path-copies the one node it changes, so a mutant shares every other
subtree with the original.
"""

from __future__ import annotations

from repro.engine.plan import AggregateNode, PlanNode, SelectNode, replace_node
from repro.sql.ast import (
    Aggregate,
    BinaryOp,
    Comparison,
    Expr,
    SelectItem,
)


def _where(plan: PlanNode) -> SelectNode:
    """The WHERE filter of a compiled query plan."""
    select = plan.child
    assert isinstance(select, SelectNode), "the query has no WHERE clause"
    return select


def replace_where_conjuncts(plan: PlanNode, predicates: tuple) -> PlanNode:
    """``plan`` with its WHERE conjunction replaced by ``predicates``
    (no filter at all when they are empty)."""
    select = _where(plan)
    if not predicates:
        return replace_node(plan, select, select.child)
    return replace_node(plan, select, SelectNode(select.child, predicates))


def replace_where_conjunct(plan: PlanNode, position: int, pred) -> PlanNode:
    """``plan`` with WHERE conjunct ``position`` replaced by ``pred``."""
    where = list(_where(plan).predicates)
    where[position] = pred
    return replace_where_conjuncts(plan, tuple(where))


def _replace_aggregate_node(plan: PlanNode, items, having) -> PlanNode:
    # The aggregation is the plan's root: its path is itself.
    assert isinstance(plan, AggregateNode)
    return AggregateNode(plan.child, plan.group_by, items, having)


def replace_having_conjunct(
    plan: PlanNode, position: int, pred: Comparison
) -> PlanNode:
    """``plan`` with HAVING conjunct ``position`` replaced by ``pred``."""
    having = list(plan.having)
    having[position] = pred
    return _replace_aggregate_node(plan, plan.items, tuple(having))


def replace_aggregate(expr: Expr, old: Aggregate, new: Aggregate) -> Expr:
    """Replace one aggregate node inside an expression tree (by identity)."""
    if expr is old:
        return new
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            replace_aggregate(expr.left, old, new),
            replace_aggregate(expr.right, old, new),
        )
    return expr


def replace_select_aggregate(
    plan: PlanNode, old: Aggregate, new: Aggregate
) -> PlanNode:
    """``plan`` with one select-list aggregate swapped."""
    items = tuple(
        SelectItem(replace_aggregate(item.expr, old, new), item.alias)
        for item in plan.items
    )
    return _replace_aggregate_node(plan, items, plan.having)


def replace_having_aggregate(
    plan: PlanNode, old: Aggregate, new: Aggregate
) -> PlanNode:
    """``plan`` with one HAVING-clause aggregate swapped."""
    having = tuple(
        Comparison(
            pred.op,
            replace_aggregate(pred.left, old, new),
            replace_aggregate(pred.right, old, new),
        )
        for pred in plan.having
    )
    return _replace_aggregate_node(plan, plan.items, having)
