"""Join-order space: all join trees equivalent to the given query.

Section II defines join-type mutations over *every* relational-algebra
tree derivable from the FROM clause, with attribute equivalence classes
supplying derived join conditions (Fig. 2: ``A.x = B.x AND B.x = C.x``
admits the tree ``(A join C) join B`` because ``A.x = C.x`` is implied).

For inner-join queries we enumerate every unordered binary tree whose
internal nodes join *connected* sub-sets of the join graph (no cross
products are introduced), assign each node the equivalence-class and
residual join conditions that first become applicable there, and push
selections to the leaves (equivalent for inner joins, and the placement
the paper mutates under).

Queries containing outer joins are not freely reorderable; for those the
space is the written join tree only (mutated node by node), matching the
paper's experimental treatment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.analyze import AnalyzedQuery
from repro.engine.plan import (
    AggregateNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SelectNode,
)
from repro.errors import GenerationError
from repro.sql.ast import ColumnRef, Comparison, JoinKind


# ---------------------------------------------------------------------------
# Shape trees
# ---------------------------------------------------------------------------


class Shape:
    """Marker base for join-tree shapes (bindings only, no join types)."""

    __slots__ = ()


@dataclass(frozen=True)
class LeafShape(Shape):
    binding: str

    @property
    def bindings(self) -> frozenset[str]:
        return frozenset({self.binding})


@dataclass(frozen=True)
class NodeShape(Shape):
    left: Shape
    right: Shape

    @property
    def bindings(self) -> frozenset[str]:
        return self.left.bindings | self.right.bindings


def shape_nodes(shape: Shape) -> list[NodeShape]:
    """All internal nodes of a shape, outermost first."""
    if isinstance(shape, LeafShape):
        return []
    assert isinstance(shape, NodeShape)
    return [shape] + shape_nodes(shape.left) + shape_nodes(shape.right)


# ---------------------------------------------------------------------------
# Join graph + enumeration
# ---------------------------------------------------------------------------


class JoinGraph:
    """Connectivity structure over query bindings."""

    def __init__(self, aq: AnalyzedQuery):
        self.aq = aq
        self.nodes = list(aq.bindings)
        self._adjacent: dict[str, set[str]] = {b: set() for b in self.nodes}
        groups: list[frozenset[str]] = []
        for ec in aq.eq_classes:
            groups.append(frozenset(attr.binding for attr in ec))
        for pred in aq.other_joins:
            groups.append(pred.bindings)
        for group in groups:
            for a, b in itertools.combinations(sorted(group), 2):
                self._adjacent[a].add(b)
                self._adjacent[b].add(a)

    def connected(self, subset: frozenset[str]) -> bool:
        if not subset:
            return False
        seen = {next(iter(subset))}
        frontier = list(seen)
        while frontier:
            node = frontier.pop()
            for other in self._adjacent[node]:
                if other in subset and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return seen == subset

    def joinable(self, left: frozenset[str], right: frozenset[str]) -> bool:
        """True when a join condition is available across the two sides."""
        union = left | right
        for ec in self.aq.eq_classes:
            members = {attr.binding for attr in ec}
            if members & left and members & right:
                return True
        for pred in self.aq.other_joins:
            if (
                pred.bindings <= union
                and pred.bindings & left
                and pred.bindings & right
            ):
                return True
        return False


def enumerate_shapes(aq: AnalyzedQuery, cap: int = 20000) -> list[Shape]:
    """All unordered join-tree shapes over the query's join graph.

    Raises:
        GenerationError: If the shape count exceeds ``cap`` (documented
            guard; the benchmark queries stay far below it).
    """
    graph = JoinGraph(aq)
    order = sorted(graph.nodes)
    memo: dict[frozenset[str], list[Shape]] = {}

    def trees(subset: frozenset[str]) -> list[Shape]:
        if subset in memo:
            return memo[subset]
        members = sorted(subset)
        if len(members) == 1:
            memo[subset] = [LeafShape(members[0])]
            return memo[subset]
        result: list[Shape] = []
        anchor = members[0]
        rest = members[1:]
        # Every unordered split: the anchor stays on the left side.
        for size in range(0, len(rest)):
            for combo in itertools.combinations(rest, size):
                left = frozenset({anchor, *combo})
                right = subset - left
                if not right:
                    continue
                if not graph.connected(left) or not graph.connected(right):
                    continue
                if not graph.joinable(left, right):
                    continue
                for lt in trees(left):
                    for rt in trees(right):
                        result.append(NodeShape(lt, rt))
                        if len(result) > cap:
                            raise GenerationError(
                                f"join-order space exceeds cap of {cap} trees"
                            )
        memo[subset] = result
        return result

    return trees(frozenset(order))


# ---------------------------------------------------------------------------
# Conditions per node
# ---------------------------------------------------------------------------


def node_conditions(aq: AnalyzedQuery, node: NodeShape) -> list[Comparison]:
    """Join conditions first applicable at ``node``.

    For each equivalence class straddling the node, one representative
    equality; every deeper straddle got its own equality lower down, so
    the conjunction over the whole tree implies the full class.
    """
    return _conditions(aq, node.left.bindings, node.right.bindings)


def _conditions(
    aq: AnalyzedQuery, left: frozenset[str], right: frozenset[str]
) -> list[Comparison]:
    union = left | right
    conditions: list[Comparison] = []
    for ec in aq.eq_classes:
        left_members = sorted(a for a in ec if a.binding in left)
        right_members = sorted(a for a in ec if a.binding in right)
        if left_members and right_members:
            la, ra = left_members[0], right_members[0]
            conditions.append(
                Comparison(
                    "=",
                    ColumnRef(la.binding, la.column),
                    ColumnRef(ra.binding, ra.column),
                )
            )
    for pred in aq.other_joins:
        if (
            pred.bindings <= union
            and pred.bindings & left
            and pred.bindings & right
        ):
            conditions.append(pred.pred)
    return conditions


def _leaf_equalities(aq: AnalyzedQuery, binding: str) -> list[Comparison]:
    """Equalities between members of one equivalence class that sit in
    ``binding``: its min member equals each other one.

    No join applies them — a join equates only the min member of each
    side — so without them a query like ``... WHERE i.id = t.id AND
    i.salary = t.id`` would lose ``i.salary = t.id`` in every join
    order.  With them, each binding's members are equal at its leaf and
    the joins equate the bindings, so every join order applies the
    whole class.
    """
    equalities: list[Comparison] = []
    for ec in aq.eq_classes:
        members = sorted(a for a in ec if a.binding == binding)
        equalities.extend(
            Comparison(
                "=",
                ColumnRef(binding, members[0].column),
                ColumnRef(binding, other.column),
            )
            for other in members[1:]
        )
    return equalities


# ---------------------------------------------------------------------------
# Shape -> plan
# ---------------------------------------------------------------------------


class ShapePlanner:
    """Compiles shapes into INNER plans that share one subtree per shape node.

    :func:`enumerate_shapes` shares sub-shape objects across the trees
    it returns, so memoizing by shape object builds each distinct
    subtree — its scan, its pushed-down selections, its join
    conditions — once for the whole join-order space; the plans of
    different shapes hold the same node objects wherever their shapes
    do.  Memo keys are object ids, with the shape kept alive beside its
    value, so a shape's recursive dataclass hash is never computed.
    """

    def __init__(self, aq: AnalyzedQuery):
        self.aq = aq
        self._nodes: dict[int, tuple[Shape, PlanNode, frozenset[str]]] = {}
        query = aq.query
        self._aggregate = bool(aq.group_by or aq.aggregates or query.having)

    def _build(self, shape: Shape) -> tuple[Shape, PlanNode, frozenset[str]]:
        memo = self._nodes.get(id(shape))
        if memo is not None:
            return memo
        aq = self.aq
        if isinstance(shape, LeafShape):
            binding = shape.binding
            plan: PlanNode = ScanNode(aq.occurrences[binding].table, binding)
            bindings = frozenset({binding})
            selections = [
                info.pred for info in aq.selections if info.bindings == bindings
            ]
            selections.extend(
                info.pred for info in aq.null_tests if info.attr.binding == binding
            )
            selections.extend(_leaf_equalities(aq, binding))
            if selections:
                plan = SelectNode(plan, tuple(selections))
        else:
            assert isinstance(shape, NodeShape)
            _, left, left_bindings = self._build(shape.left)
            _, right, right_bindings = self._build(shape.right)
            bindings = left_bindings | right_bindings
            plan = JoinNode(
                JoinKind.INNER, left, right,
                tuple(_conditions(aq, left_bindings, right_bindings)),
            )
        memo = self._nodes[id(shape)] = (shape, plan, bindings)
        return memo

    def subtree(self, shape: Shape) -> PlanNode:
        """The shared INNER join tree of ``shape`` (no select list)."""
        return self._build(shape)[1]

    def bindings(self, shape: Shape) -> frozenset[str]:
        """``shape.bindings``, memoized with the subtree."""
        return self._build(shape)[2]

    def plan(self, shape: Shape) -> PlanNode:
        """The executable plan: the shared join tree under the query's
        select list or aggregation."""
        tree = self.subtree(shape)
        query = self.aq.query
        if self._aggregate:
            return AggregateNode(
                tree,
                tuple(query.group_by),
                tuple(query.select_items),
                tuple(query.having),
            )
        return ProjectNode(tree, tuple(query.select_items), query.distinct)


def shape_to_plan(aq: AnalyzedQuery, shape: Shape) -> PlanNode:
    """Compile a shape into an executable plan, every join INNER.

    Selections are pushed to the leaves; the select list / aggregation
    of the analyzed query goes on top.  Join-type mutants are this plan
    with one join path-copied to another kind
    (:func:`repro.mutation.jointype.join_mutants_inner`).
    """
    return ShapePlanner(aq).plan(shape)
