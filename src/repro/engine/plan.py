"""Physical-ish plan trees and compilation from the SQL AST.

Plans are what the engine executes.  The original query compiles to a plan
via :func:`compile_query`; join-type mutants (which pick *different join
trees* of the same query, per Section II) are constructed directly as plan
trees by :mod:`repro.mutation.jointype`, so the executor is the single
source of truth for SQL semantics in kill checking.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import UnsupportedSqlError
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    FromItem,
    Join,
    JoinKind,
    Query,
    SelectItem,
    TableRef,
)


class PlanNode:
    """Marker base class for plan nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Scan a base table under a binding (alias)."""

    table: str
    binding: str


@dataclass(frozen=True)
class SelectNode(PlanNode):
    """Filter rows by a conjunction of comparisons."""

    child: PlanNode
    predicates: tuple[Comparison, ...]


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Join two inputs.

    Attributes:
        kind: INNER / LEFT / RIGHT / FULL / CROSS.
        condition: ON conjunction (empty for CROSS and NATURAL joins).
        natural: NATURAL join — the condition is derived from common column
            names at execution time and common columns are coalesced.
    """

    kind: JoinKind
    left: PlanNode
    right: PlanNode
    condition: tuple[Comparison, ...] = ()
    natural: bool = False

    def with_kind(self, kind: JoinKind) -> "JoinNode":
        """This join with a different join type (a join-type mutation)."""
        return _carry_fields(
            self, JoinNode(kind, self.left, self.right, self.condition, self.natural)
        )


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Evaluate a select list per row (no aggregation)."""

    child: PlanNode
    items: tuple[SelectItem, ...]
    distinct: bool = False


@dataclass(frozen=True)
class AggregateNode(PlanNode):
    """GROUP BY + aggregate evaluation, with optional HAVING filtering."""

    child: PlanNode
    group_by: tuple[ColumnRef, ...]
    items: tuple[SelectItem, ...]
    having: tuple[Comparison, ...] = ()


def _compile_from_item(item: FromItem) -> PlanNode:
    if isinstance(item, TableRef):
        return ScanNode(item.name.lower(), item.binding.lower())
    if isinstance(item, Join):
        return JoinNode(
            item.kind,
            _compile_from_item(item.left),
            _compile_from_item(item.right),
            item.condition,
            item.natural,
        )
    raise UnsupportedSqlError(f"cannot compile FROM item {item!r}")


def compile_query(query: Query) -> PlanNode:
    """Compile a parsed query into an executable plan.

    Comma-separated FROM items become cross joins under the WHERE filter,
    which matches SQL semantics for inner queries; explicit join trees are
    preserved node for node so outer-join placement is respected.
    """
    if query.has_subquery_predicates:
        raise UnsupportedSqlError(
            "subquery predicates cannot be executed directly; decorrelate "
            "the query first (repro.core.decorrelate)"
        )
    plans = [_compile_from_item(item) for item in query.from_items]
    plan = plans[0]
    for other in plans[1:]:
        plan = JoinNode(JoinKind.CROSS, plan, other)
    if query.where:
        plan = SelectNode(plan, tuple(query.where))
    if query.group_by or query.has_aggregates or query.having:
        return AggregateNode(
            plan,
            tuple(query.group_by),
            tuple(query.select_items),
            tuple(query.having),
        )
    return ProjectNode(plan, tuple(query.select_items), query.distinct)


# ---------------------------------------------------------------------------
# Path copying
# ---------------------------------------------------------------------------


def _path_to(plan: PlanNode, target: PlanNode) -> list[tuple[PlanNode, str]] | None:
    """``(ancestor, child field)`` pairs on the path from the root to
    ``target``, nearest ancestor first; ``None`` if it is not below."""
    if plan is target:
        return []
    if isinstance(plan, JoinNode):
        fields = ("left", "right")
    elif isinstance(plan, ScanNode):
        return None
    else:
        fields = ("child",)
    for name in fields:
        below = _path_to(getattr(plan, name), target)
        if below is not None:
            below.append((plan, name))
            return below
    return None


def _with_child(node: PlanNode, name: str, child: PlanNode) -> PlanNode:
    """A copy of ``node`` with its ``name`` child replaced."""
    if isinstance(node, JoinNode):
        if name == "left":
            copy = JoinNode(node.kind, child, node.right, node.condition, node.natural)
        else:
            copy = JoinNode(node.kind, node.left, child, node.condition, node.natural)
    elif isinstance(node, SelectNode):
        copy = SelectNode(child, node.predicates)
    elif isinstance(node, ProjectNode):
        copy = ProjectNode(child, node.items, node.distinct)
    else:
        assert isinstance(node, AggregateNode)
        copy = AggregateNode(child, node.group_by, node.items, node.having)
    return _carry_fields(node, copy)


def replace_node(
    plan: PlanNode, target: PlanNode, replacement: PlanNode
) -> PlanNode:
    """``plan`` with the node ``target`` (found by identity) replaced.

    Path copying: only the ancestors of ``target`` are rebuilt, each
    around its one new child; every subtree off the root-to-target path
    is the very object ``plan`` holds.  This is how every mutant is
    built — a mutant differs from its base plan in one node, so it
    allocates one path, and the per-node memos of the shared subtrees
    (fingerprints, cache-key specs) are computed once for
    the whole mutant batch.  Sharing is safe because plan nodes are
    frozen and every memo stashed on a node is derived from its content.

    Raises:
        ValueError: If ``target`` is not a node of ``plan``.
    """
    path = _path_to(plan, target)
    if path is None:
        raise ValueError(f"{target!r} is not a node of the plan")
    node = replacement
    for ancestor, name in path:
        node = _with_child(ancestor, name, node)
    return node


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------

#: Memoized reprs of a node's own expression fields (everything but its
#: children and join kind) — the costly part of both its fingerprint and
#: the executor's cache-key spec.
_FIELDS_ATTR = "_fields_repr"


def node_fields_repr(node: PlanNode) -> tuple[str, ...]:
    """The ``repr`` of each of a node's own fields, memoized per node.

    Frozen AST dataclasses have a deterministic, complete ``repr``, so
    equal fields give equal strings.  A copy that holds the very same
    field objects — a path copy's ancestors, a join flipped by
    :meth:`JoinNode.with_kind` — inherits the memo instead of repeating
    the recursive ``repr``.
    """
    cached = node.__dict__.get(_FIELDS_ATTR)
    if cached is not None:
        return cached
    if isinstance(node, ScanNode):
        fields = (node.table, node.binding)
    elif isinstance(node, SelectNode):
        fields = (repr(node.predicates),)
    elif isinstance(node, JoinNode):
        fields = (repr(node.condition), repr(node.natural))
    elif isinstance(node, ProjectNode):
        fields = (repr(node.items), repr(node.distinct))
    elif isinstance(node, AggregateNode):
        fields = (repr(node.group_by), repr(node.items), repr(node.having))
    else:
        raise TypeError(f"unexpected plan node {node!r}")
    object.__setattr__(node, _FIELDS_ATTR, fields)
    return fields


def _carry_fields(source: PlanNode, copy: PlanNode) -> PlanNode:
    """Hand ``source``'s field-repr memo to a copy sharing its fields.

    Computed here if ``source`` has none yet: every copy of one node
    then shares a single ``repr`` pass.
    """
    object.__setattr__(copy, _FIELDS_ATTR, node_fields_repr(source))
    return copy


#: Cached-fingerprint attribute name.  Plan nodes are frozen dataclasses
#: (no ``__slots__``), so the digest is stashed on the instance dict with
#: ``object.__setattr__`` — mutants share subtree objects with the
#: original plan, and a shared subtree is fingerprinted exactly once.
_FP_ATTR = "_structural_fingerprint"

_FP_SEP = "\x1f"


def _fingerprint_parts(node: PlanNode) -> list[str]:
    """The canonical token list for one node (children by fingerprint).

    Every semantic field participates: expression fields (predicates,
    join conditions, select items, group-by columns, HAVING conjuncts)
    are frozen AST dataclasses whose ``repr`` is deterministic and
    complete, so any single-field mutation — join kind, comparison
    operator, aggregate function, flipped NULL test — lands in the
    stream and changes the digest.
    """
    fields = node_fields_repr(node)
    if isinstance(node, ScanNode):
        return ["Scan", *fields]
    if isinstance(node, SelectNode):
        return ["Select", plan_fingerprint(node.child), *fields]
    if isinstance(node, JoinNode):
        return [
            "Join",
            node.kind.name,
            plan_fingerprint(node.left),
            plan_fingerprint(node.right),
            *fields,
        ]
    if isinstance(node, ProjectNode):
        return ["Project", plan_fingerprint(node.child), *fields]
    if isinstance(node, AggregateNode):
        return ["Aggregate", plan_fingerprint(node.child), *fields]
    raise TypeError(f"cannot fingerprint plan node {node!r}")


def plan_fingerprint(plan: PlanNode) -> str:
    """A stable structural fingerprint of a plan subtree (hex string).

    Two plans have equal fingerprints iff they are structurally equal —
    same node kinds, same children, same semantic fields.  The digest is
    content-based (never identity-based), so the recompiled plan of a
    comparison mutant shares the fingerprints of every subtree it left
    unchanged even though the objects are fresh.  Fingerprints are
    memoized per node instance, which makes re-fingerprinting a mutant
    batch (and sorting it) cheap.
    """
    cached = plan.__dict__.get(_FP_ATTR)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(
        _FP_SEP.join(_fingerprint_parts(plan)).encode(), digest_size=16
    ).hexdigest()
    object.__setattr__(plan, _FP_ATTR, digest)
    return digest




def plan_scans(plan: PlanNode) -> list[ScanNode]:
    """All scan leaves of a plan, left to right."""
    if isinstance(plan, ScanNode):
        return [plan]
    if isinstance(plan, SelectNode):
        return plan_scans(plan.child)
    if isinstance(plan, JoinNode):
        return plan_scans(plan.left) + plan_scans(plan.right)
    if isinstance(plan, (ProjectNode,)):
        return plan_scans(plan.child)
    if isinstance(plan, AggregateNode):
        return plan_scans(plan.child)
    raise TypeError(f"unexpected plan node {plan!r}")
