"""Join-type mutants over the join-order space.

For inner-join queries every unordered join tree of the join graph is
enumerated (:mod:`repro.core.joinorders`); each internal node is flipped
to LEFT, RIGHT and (optionally) FULL outer join, one node at a time.
Mutants are deduplicated by a canonical form in which symmetric operators
(inner and full joins) order their children lexicographically and RIGHT
joins are rewritten as mirrored LEFT joins — mirror-image expressions are
the same mutant.

Queries whose FROM clause already contains outer joins are not freely
reorderable; their space is the written join tree with each node's type
replaced by the three alternatives (the paper's experimental treatment of
mixed inner/outer queries).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyze import AnalyzedQuery
from repro.core.joinorders import ShapePlanner, enumerate_shapes, shape_nodes
from repro.engine.plan import (
    JoinNode,
    PlanNode,
    ScanNode,
    compile_query,
    replace_node,
)
from repro.sql.ast import JoinKind

#: Join types introduced by a single mutation (the paper's experiments
#: ignore the mutation to full outer join; pass ``include_full=True`` to
#: include it).
DEFAULT_TARGETS = (JoinKind.LEFT, JoinKind.RIGHT)
ALL_TARGETS = (JoinKind.LEFT, JoinKind.RIGHT, JoinKind.FULL)


@dataclass(frozen=True)
class JoinMutant:
    """One join-type mutant.

    ``result_class`` is set for the join-order space only (see
    :attr:`repro.mutation.space.Mutant.result_class`).
    """

    plan: PlanNode
    description: str
    canonical: str
    result_class: tuple | None = None


#: Canonical join symbol per kind (RIGHT is rewritten to LEFT first).
_SYMBOLS = {
    JoinKind.INNER: "J",
    JoinKind.LEFT: "L",
    JoinKind.FULL: "F",
    JoinKind.CROSS: "X",
}
_SYMMETRIC = (JoinKind.INNER, JoinKind.FULL, JoinKind.CROSS)
_CANONICAL_ATTR = "_join_canonical"


def plan_canonical(plan: PlanNode) -> str:
    """Canonical string of a plan modulo join commutativity.

    INNER, CROSS and FULL joins are symmetric: children are sorted.  A
    RIGHT join is a mirrored LEFT join.  Conditions are derived from the
    node's binding sets, so they don't participate in identity.
    Memoized per node, like the structural fingerprint: a path-copied
    mutant computes the canonical form of its new path only.
    """
    cached = plan.__dict__.get(_CANONICAL_ATTR)
    if cached is not None:
        return cached
    if isinstance(plan, ScanNode):
        canonical = plan.binding
    elif isinstance(plan, JoinNode):
        left = plan_canonical(plan.left)
        right = plan_canonical(plan.right)
        kind = plan.kind
        if kind is JoinKind.RIGHT:
            kind = JoinKind.LEFT
            left, right = right, left
        if kind in _SYMMETRIC and right < left:
            left, right = right, left
        canonical = f"({left} {_SYMBOLS[kind]} {right})"
    else:
        canonical = plan_canonical(plan.child)
    object.__setattr__(plan, _CANONICAL_ATTR, canonical)
    return canonical


def _result_class(
    left: tuple[str, ...], right: tuple[str, ...], kind: JoinKind
) -> tuple[tuple[str, ...], tuple[str, ...], JoinKind]:
    """The result class of flipping an INNER join of ``left`` and
    ``right`` (sorted binding tuples) to ``kind``: RIGHT over (A, B) is
    LEFT over (B, A), and FULL sorts its two sides."""
    if kind is JoinKind.RIGHT:
        return right, left, JoinKind.LEFT
    if kind is JoinKind.FULL and right < left:
        return right, left, kind
    return left, right, kind


def join_mutants_inner(
    aq: AnalyzedQuery,
    include_full: bool = False,
    tree_cap: int = 20000,
) -> list[JoinMutant]:
    """All deduplicated single join-type mutants over all join orders.

    Each shape's INNER plan is built once from subtrees shared across
    the whole space (:class:`ShapePlanner`); a mutant is that plan with
    one join path-copied to another kind.  Each mutant carries the
    :func:`_result_class` of its flipped node.
    """
    targets = ALL_TARGETS if include_full else DEFAULT_TARGETS
    planner = ShapePlanner(aq)
    mutants: dict[str, JoinMutant] = {}
    for shape in enumerate_shapes(aq, cap=tree_cap):
        plan = planner.plan(shape)
        for node in shape_nodes(shape):
            join = planner.subtree(node)
            left = tuple(sorted(planner.bindings(node.left)))
            right = tuple(sorted(planner.bindings(node.right)))
            for kind in targets:
                mutant = replace_node(plan, join, join.with_kind(kind))
                canonical = plan_canonical(mutant)
                if canonical not in mutants:
                    mutants[canonical] = JoinMutant(
                        mutant,
                        f"[{','.join(left)}] {kind.value} [{','.join(right)}]",
                        canonical,
                        _result_class(left, right, kind),
                    )
    return list(mutants.values())


def _joins(plan: PlanNode) -> list[JoinNode]:
    """The join nodes of a plan, outermost first, left before right."""
    if isinstance(plan, ScanNode):
        return []
    if isinstance(plan, JoinNode):
        return [plan] + _joins(plan.left) + _joins(plan.right)
    return _joins(plan.child)


def join_mutants_outer(
    aq: AnalyzedQuery,
    include_full: bool = False,
    original: PlanNode | None = None,
) -> list[JoinMutant]:
    """Single-node join-type mutants of the written (outer-join) tree.

    Each mutant is ``original`` (the compiled query, compiled here when
    not given) with one join path-copied to another kind.
    """
    targets = ALL_TARGETS if include_full else DEFAULT_TARGETS
    base = original if original is not None else compile_query(aq.query)
    written = plan_canonical(base)
    mutants: dict[str, JoinMutant] = {}
    for victim in _joins(base):
        if victim.kind is JoinKind.CROSS:
            continue
        kinds = set(targets) | {JoinKind.INNER}
        kinds.discard(victim.kind)
        for kind in sorted(kinds, key=lambda k: k.value):
            plan = replace_node(base, victim, victim.with_kind(kind))
            canonical = plan_canonical(plan)
            if canonical == written:
                continue
            if canonical not in mutants:
                mutants[canonical] = JoinMutant(
                    plan, f"{victim.kind.value} -> {kind.value}", canonical
                )
    return list(mutants.values())


def join_mutants(
    aq: AnalyzedQuery,
    include_full: bool = False,
    tree_cap: int = 20000,
    original: PlanNode | None = None,
) -> list[JoinMutant]:
    """The join-type mutant space appropriate for the query.

    ``original`` is the compiled query that outer-join mutants are
    path-copied from (compiled here when not given).
    """
    from repro.sql.ast import Star

    if len(aq.occurrences) < 2:
        return []
    star_select = any(
        isinstance(item.expr, Star) for item in aq.query.select_items
    )
    if aq.has_outer_joins or (aq.natural_conditions and star_select):
        # Outer joins are not freely reorderable; NATURAL joins under
        # SELECT * coalesce common columns, which reordered plans would
        # not — either way, mutate the written tree only.
        return join_mutants_outer(aq, include_full, original)
    return join_mutants_inner(aq, include_full, tree_cap)
