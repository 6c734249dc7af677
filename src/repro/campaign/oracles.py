"""Campaign oracles: dual-execution plus backend-free self-checks.

An *oracle* looks at one case — original plan, mutation space, generated
datasets — and either stays silent or vetoes it by raising
:class:`~repro.backends.BackendDisagreement`.  Three oracles ship:

* **cross-check** — the dual-execution differential oracle of DESIGN.md
  §5f: every plan runs on the engine (on the batch subplan cache, the
  path grading uses) and on SQLite and the result bags must agree.  Skips (rather than vetoes) constructs the SQLite printer
  cannot mirror, so the campaign keeps probing them with the
  self-checks below.
* **duplicate-sensitivity** — transformation self-check in the mold of
  Zhang & Wu (PAPERS.md): rewrite the plan with duplicate-sensitivity-
  preserving transformations (conjunct reorder, filter idempotence,
  filter splitting, inner-join commutation — all bag-semantics-
  preserving under SQL's three-valued logic) and require the *same
  backend* to return the same bag for original and transform.
* **join-identity** — set-theoretic self-check after Lyu et al.
  (PAPERS.md): for every join in the plan, the four variants of one
  join node satisfy ``FULL = INNER ⊎ left-dangling ⊎ right-dangling``,
  giving the bag containments ``INNER ⊆ LEFT ⊆ FULL``,
  ``INNER ⊆ RIGHT ⊆ FULL`` and the inclusion–exclusion count
  ``|FULL| = |LEFT| + |RIGHT| − |INNER|`` — checked on the bare join
  (identities do not survive a WHERE filter above the join, so the
  oracle isolates the node).

Self-check oracles need no second backend, which is exactly what keeps
the campaign useful where the SQLite mirror gives up.  Every oracle
knows how to minimize its own disagreement (the predicate preserved
during dataset shrinking differs per oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol, runtime_checkable

from repro.backends import BackendCapabilityError, BackendDisagreement
from repro.engine.database import Database
from repro.engine.plan import JoinNode, PlanNode, ProjectNode, SelectNode
from repro.engine.subplan import SubplanCache
from repro.mutation.space import MutationSpace
from repro.sql.ast import JoinKind, SelectItem, Star
from repro.testing.killcheck import attached_subplan_cache, result_signature
from repro.testing.minimize import minimize_dataset

__all__ = [
    "CrossCheckOracle",
    "DuplicateSensitivityOracle",
    "JoinIdentityOracle",
    "Oracle",
    "OracleContext",
    "OracleOutcome",
    "build_oracles",
]


@dataclass
class OracleContext:
    """Everything an oracle may look at for one case.

    ``reference`` is ``None`` when no second backend is available —
    self-check oracles ignore it, the cross-check oracle then skips.
    """

    space: MutationSpace
    databases: list[Database]
    primary: object
    reference: object | None = None
    label: str = "case"


@dataclass
class OracleOutcome:
    """What one oracle did for one case (it did not veto)."""

    oracle: str
    executions: int = 0
    checks: int = 0
    skipped: str | None = None


@runtime_checkable
class Oracle(Protocol):
    """The oracle protocol: silent pass, skip, or veto-by-raise."""

    name: str

    def check(self, ctx: OracleContext) -> OracleOutcome:
        """Run the oracle; raises :class:`BackendDisagreement` to veto."""
        ...

    def minimize(self, exc: BackendDisagreement, ctx: OracleContext) -> Database:
        """Shrink ``exc.dataset`` while the disagreement still reproduces."""
        ...


# ---------------------------------------------------------------------------
# cross-check (dual execution)
# ---------------------------------------------------------------------------


@dataclass
class CrossCheckOracle:
    """Dual-execution over the whole mutation space (DESIGN.md §5f)."""

    name: str = "cross-check"

    def check(self, ctx: OracleContext) -> OracleOutcome:
        from repro.testing.conformance import cross_check_space

        outcome = OracleOutcome(self.name)
        if ctx.reference is None:
            outcome.skipped = "no reference backend"
            return outcome
        try:
            outcome.executions = cross_check_space(
                ctx.space, ctx.databases, ctx.primary, ctx.reference,
                ctx.label,
            )
        except BackendCapabilityError as exc:
            # The reference cannot mirror this construct; the self-check
            # oracles still cover the case.
            outcome.skipped = f"{type(exc).__name__}: {exc}"
            return outcome
        outcome.checks = outcome.executions
        return outcome

    def minimize(self, exc: BackendDisagreement, ctx: OracleContext) -> Database:
        from repro.testing.conformance import minimize_disagreement

        return minimize_disagreement(exc, ctx.primary, ctx.reference)


# ---------------------------------------------------------------------------
# duplicate-sensitivity-preserving transformations
# ---------------------------------------------------------------------------


def _rebuild(node: PlanNode, transform) -> PlanNode:
    """Apply ``transform`` bottom-up over a plan tree."""
    if isinstance(node, SelectNode):
        rebuilt = SelectNode(_rebuild(node.child, transform), node.predicates)
    elif isinstance(node, JoinNode):
        rebuilt = JoinNode(
            node.kind,
            _rebuild(node.left, transform),
            _rebuild(node.right, transform),
            node.condition,
            node.natural,
        )
    elif isinstance(node, ProjectNode):
        rebuilt = ProjectNode(
            _rebuild(node.child, transform), node.items, node.distinct
        )
    elif hasattr(node, "child"):
        rebuilt = type(node)(
            **{
                **{f: getattr(node, f) for f in node.__dataclass_fields__},
                "child": _rebuild(node.child, transform),
            }
        )
    else:
        rebuilt = node
    return transform(rebuilt)


def _reorder_conjuncts(node: PlanNode) -> PlanNode:
    """Reverse every filter/ON conjunction (AND is commutative in 3VL)."""

    def transform(n: PlanNode) -> PlanNode:
        if isinstance(n, SelectNode) and len(n.predicates) > 1:
            return SelectNode(n.child, tuple(reversed(n.predicates)))
        if isinstance(n, JoinNode) and len(n.condition) > 1:
            return JoinNode(
                n.kind, n.left, n.right, tuple(reversed(n.condition)),
                n.natural,
            )
        return n

    return _rebuild(node, transform)


def _duplicate_filters(node: PlanNode) -> PlanNode:
    """σ_p(R) -> σ_p(σ_p(R)): filters are idempotent and duplicate-
    preserving, so the bag must not change."""

    def transform(n: PlanNode) -> PlanNode:
        if isinstance(n, SelectNode):
            return SelectNode(SelectNode(n.child, n.predicates), n.predicates)
        return n

    return _rebuild(node, transform)


def _split_filters(node: PlanNode) -> PlanNode:
    """σ_{p1 AND p2}(R) -> σ_{p1}(σ_{p2}(R)) — conjunction splitting."""

    def transform(n: PlanNode) -> PlanNode:
        if isinstance(n, SelectNode) and len(n.predicates) > 1:
            child = n.child
            for pred in reversed(n.predicates):
                child = SelectNode(child, (pred,))
            return child
        return n

    return _rebuild(node, transform)


def _commute_inner_joins(node: PlanNode) -> PlanNode:
    """Swap the inputs of non-natural INNER/CROSS joins.  Result columns
    are binding-qualified, so the name-aligned bag comparison is
    side-agnostic; NATURAL joins are excluded because coalescing the
    shared columns is order-sensitive for outer kinds."""

    def transform(n: PlanNode) -> PlanNode:
        if (
            isinstance(n, JoinNode)
            and n.kind in (JoinKind.INNER, JoinKind.CROSS)
            and not n.natural
        ):
            return JoinNode(n.kind, n.right, n.left, n.condition, n.natural)
        return n

    return _rebuild(node, transform)


#: label -> plan transformation; each preserves the result bag exactly.
_TRANSFORMS = {
    "conjunct-reorder": _reorder_conjuncts,
    "filter-idempotence": _duplicate_filters,
    "filter-split": _split_filters,
    "join-commute": _commute_inner_joins,
}


def duplicate_sensitivity_transforms(
    plan: PlanNode,
) -> Iterator[tuple[str, PlanNode]]:
    """Yield ``(label, transformed_plan)`` pairs that actually changed."""
    for label, transform in _TRANSFORMS.items():
        transformed = transform(plan)
        if transformed != plan:
            yield label, transformed


@dataclass
class DuplicateSensitivityOracle:
    """Same-backend equivalence under bag-preserving rewrites.

    ``mutant_budget`` bounds how many mutants (beyond the original) are
    transformed per dataset — the transforms are cheap but the mutant
    space is large, and the original plan is the primary target.
    """

    name: str = "duplicate-sensitivity"
    mutant_budget: int = 4

    def _plans(self, ctx: OracleContext) -> list[tuple[str, PlanNode]]:
        plans = [("original query", ctx.space.original_plan)]
        for mutant in ctx.space.mutants[: self.mutant_budget]:
            plans.append((f"mutant [{mutant.kind}] {mutant.description}",
                          mutant.plan))
        return plans

    def check(self, ctx: OracleContext) -> OracleOutcome:
        outcome = OracleOutcome(self.name)
        backend = ctx.primary
        # The transforms depend on the plan only, so they are derived
        # once per case; the case's plans and transforms share one batch
        # subplan cache, as the cross-check's mutants do.
        checks = [
            (what, plan, transforms)
            for what, plan in self._plans(ctx)
            if (transforms := list(duplicate_sensitivity_transforms(plan)))
        ]
        cache = SubplanCache()
        for _, plan, transforms in checks:
            cache.register(plan)
            for _, transformed in transforms:
                cache.register(transformed)
        with attached_subplan_cache((backend,), cache):
            for db in ctx.databases:
                handle = backend.load(db)
                try:
                    for what, plan, transforms in checks:
                        base = backend.execute(handle, plan)
                        outcome.executions += 1
                        for label, transformed in transforms:
                            out = backend.execute(handle, transformed)
                            outcome.executions += 1
                            outcome.checks += 1
                            if result_signature(out) != result_signature(base):
                                raise BackendDisagreement(
                                    f"{ctx.label}: {what} under "
                                    f"duplicate-sensitivity transform "
                                    f"[{label}]",
                                    "",
                                    db,
                                    {"original": base, label: out},
                                    plan=transformed,
                                    oracle=self.name,
                                )
                finally:
                    backend.close(handle)
                    cache.drop_dataset(db)
        return outcome

    def minimize(self, exc: BackendDisagreement, ctx: OracleContext) -> Database:
        # ``exc.plan`` is the transformed plan; recover the base plan it
        # was derived from by re-running the transform on the originals.
        pairs = [
            (plan, transformed)
            for _, plan in self._plans(ctx)
            for _, transformed in duplicate_sensitivity_transforms(plan)
            if transformed == exc.plan
        ]
        if not pairs:
            return exc.dataset

        base_plan, transformed_plan = pairs[0]

        def still_disagrees(db: Database) -> bool:
            # A cache per candidate: the split reproduces on the path it
            # was found on, and no entry outlives the candidate.
            with attached_subplan_cache((ctx.primary,), SubplanCache()):
                handle = ctx.primary.load(db)
                try:
                    a = ctx.primary.execute(handle, base_plan)
                    b = ctx.primary.execute(handle, transformed_plan)
                    return result_signature(a) != result_signature(b)
                finally:
                    ctx.primary.close(handle)

        return minimize_dataset(exc.dataset, still_disagrees)


# ---------------------------------------------------------------------------
# set-theoretic inner-join identities
# ---------------------------------------------------------------------------

_STAR_ITEMS = (SelectItem(Star(), None),)

_VARIANTS = (
    ("inner", JoinKind.INNER),
    ("left", JoinKind.LEFT),
    ("right", JoinKind.RIGHT),
    ("full", JoinKind.FULL),
)


def _plan_joins(node: PlanNode) -> list[JoinNode]:
    """Every non-CROSS join node in ``node``, pre-order."""
    out: list[JoinNode] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, JoinNode):
            if current.kind is not JoinKind.CROSS:
                out.append(current)
            stack.extend((current.right, current.left))
        elif hasattr(current, "child"):
            stack.append(current.child)
    return out


def _bag_contains(outer, inner) -> bool:
    """Does bag ``outer`` contain bag ``inner`` (multiplicity-aware)?"""
    return all(outer[key] >= count for key, count in inner.items())


@dataclass
class JoinIdentityOracle:
    """Inclusion–exclusion and containment over join-kind variants."""

    name: str = "join-identity"
    #: Bound on join nodes checked per plan (campaign queries are small;
    #: the cap guards pathological evolved plans).
    join_budget: int = 4

    def _violation(
        self, backend, handle, join: JoinNode
    ) -> tuple[str, dict] | None:
        """Check one join node; returns (description, results) or None."""
        results = {}
        for label, kind in _VARIANTS:
            plan = ProjectNode(join.with_kind(kind), _STAR_ITEMS)
            results[label] = backend.execute(handle, plan)
        sigs = {
            label: result_signature(rel) for label, rel in results.items()
        }
        counts = {label: len(rel) for label, rel in results.items()}
        if counts["full"] != (
            counts["left"] + counts["right"] - counts["inner"]
        ):
            return (
                f"|FULL|={counts['full']} != |LEFT|={counts['left']} + "
                f"|RIGHT|={counts['right']} - |INNER|={counts['inner']}",
                results,
            )
        for small, big in (
            ("inner", "left"), ("inner", "right"),
            ("left", "full"), ("right", "full"),
        ):
            if sigs[small][0] != sigs[big][0]:
                return (f"{small}/{big} column sets differ", results)
            if not _bag_contains(sigs[big][1], sigs[small][1]):
                return (f"{small.upper()} ⊄ {big.upper()} as bags", results)
        return None

    def check(self, ctx: OracleContext) -> OracleOutcome:
        outcome = OracleOutcome(self.name)
        joins = _plan_joins(ctx.space.original_plan)[: self.join_budget]
        if not joins:
            outcome.skipped = "no join nodes"
            return outcome
        backend = ctx.primary
        for db in ctx.databases:
            handle = backend.load(db)
            try:
                for index, join in enumerate(joins):
                    violation = self._violation(backend, handle, join)
                    outcome.executions += len(_VARIANTS)
                    outcome.checks += 1
                    if violation is not None:
                        description, results = violation
                        raise BackendDisagreement(
                            f"{ctx.label}: join-identity violation at "
                            f"join[{index}]: {description}",
                            "",
                            db,
                            results,
                            plan=ProjectNode(join, _STAR_ITEMS),
                            oracle=self.name,
                        )
            finally:
                backend.close(handle)
        return outcome

    def minimize(self, exc: BackendDisagreement, ctx: OracleContext) -> Database:
        # ``exc.plan`` wraps the join node whose identity broke.
        join = exc.plan.child if isinstance(exc.plan, ProjectNode) else None
        if not isinstance(join, JoinNode):
            return exc.dataset

        def still_violates(db: Database) -> bool:
            handle = ctx.primary.load(db)
            try:
                return self._violation(ctx.primary, handle, join) is not None
            finally:
                ctx.primary.close(handle)

        return minimize_dataset(exc.dataset, still_violates)


#: Registry: oracle name -> factory (the campaign config names oracles).
ORACLES = {
    "cross-check": CrossCheckOracle,
    "duplicate-sensitivity": DuplicateSensitivityOracle,
    "join-identity": JoinIdentityOracle,
}


def build_oracles(names) -> list[Oracle]:
    """Instantiate oracles by name, preserving registry order."""
    unknown = set(names) - set(ORACLES)
    if unknown:
        raise ValueError(f"unknown oracles: {sorted(unknown)}")
    return [ORACLES[name]() for name in ORACLES if name in set(names)]
