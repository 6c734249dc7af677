"""The combined mutation space for a query."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analyze import AnalyzedQuery, analyze_query
from repro.engine.plan import PlanNode, compile_query
from repro.mutation.aggregate import aggregate_mutants
from repro.mutation.comparison import comparison_mutants
from repro.mutation.jointype import join_mutants
from repro.mutation.util import replace_where_conjunct
from repro.schema.catalog import Schema
from repro.sql.ast import Query
from repro.sql.parser import parse_query


@dataclass(frozen=True)
class Mutant:
    """One executable mutant.

    Attributes:
        kind: 'join', 'comparison' or 'aggregate'.
        plan: Executable plan of the mutant.
        description: Human-readable description of the single mutation.
        result_class: For a mutant of the inner join-order space, the
            ``(A, B, kind)`` of its flipped join: the binding sets of
            the two sides and the outer kind, with RIGHT over (A, B)
            written as LEFT over (B, A) and FULL's sides sorted.
            Mutants of one class return the same name-aligned bag on
            every dataset, so the kill check executes one per class
            (DESIGN.md §5g).  ``None`` — a class of its own — for every
            other mutant: written outer-join trees, comparison,
            NULL-test, aggregate and join-condition mutants.

            Why the class is exact: every join-order plan pushes
            selections to the leaves, and a join's condition is
            ``_conditions(aq, left, right)`` — per equivalence class,
            the min member on each side, plus the straddling
            ``other_joins`` — a function of its two binding sets.  An
            all-INNER subtree over bindings X is σ(×X): per class its
            equalities form a spanning tree over the min members of X's
            bindings, so their conjunction is "all non-NULL and equal"
            whatever the tree's shape (``=`` is transitive: the analyzer
            rejects mixed-type comparisons, and values compare exactly),
            and each ``other_join`` is applied once.  Above the flipped
            node N, the nodes and the subtrees over C = all − A − B
            form an inner tree over N's output plus C; contracting N to
            one leaf whose member of class E is min((A ∪ B) ∩ E), the
            same spanning argument holds, NULL-padded rows included.
            So the result is σ_Θ((T_A ⟗ T_B) × ×C) under the query's
            own select list or aggregation, fixed by (A, B, kind).
    """

    kind: str
    plan: PlanNode
    description: str
    result_class: tuple | None = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.description}"


@dataclass
class MutationSpace:
    """All mutants of a query, grouped by kind.

    ``original_plan`` is the original query's plan, compiled once per
    space (when not given) and shared by every suite and dataset
    evaluated against it.  :func:`enumerate_mutants` builds every mutant
    by path-copying this plan (or, for inner-join queries, each join
    order's plan), so the kill check's original run and its mutants
    share subtree objects.
    """

    analyzed: AnalyzedQuery
    mutants: list[Mutant] = field(default_factory=list)
    original_plan: PlanNode | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.original_plan is None:
            self.original_plan = compile_query(self.analyzed.query)

    def by_kind(self, kind: str) -> list[Mutant]:
        """Mutants of one kind ('join', 'comparison', 'aggregate', ...)."""
        return [m for m in self.mutants if m.kind == kind]

    def __len__(self) -> int:
        return len(self.mutants)


def enumerate_mutants(
    query: str | Query | AnalyzedQuery,
    schema: Schema | None = None,
    include_full_outer: bool = False,
    include_join: bool = True,
    include_comparison: bool = True,
    include_aggregate: bool = True,
    include_join_conditions: bool = False,
    tree_cap: int = 20000,
) -> MutationSpace:
    """Enumerate the mutation space of Section II for ``query``.

    ``include_full_outer`` matches the paper's experimental choice of
    ignoring mutations *to* full outer join when False (the default).
    ``include_join_conditions`` adds the wrong-attribute and
    missing-conjunct extension space (:mod:`repro.mutation.joincond`),
    which is outside the paper's evaluated space and off by default.
    """
    if isinstance(query, AnalyzedQuery):
        aq = query
    else:
        parsed = parse_query(query) if isinstance(query, str) else query
        if schema is None:
            raise ValueError("schema is required unless an AnalyzedQuery is given")
        aq = analyze_query(parsed, schema)
    space = MutationSpace(aq)
    original = space.original_plan
    if include_join:
        for m in join_mutants(aq, include_full_outer, tree_cap, original):
            space.mutants.append(
                Mutant("join", m.plan, m.description, m.result_class)
            )
    if include_comparison:
        for m in comparison_mutants(aq, original):
            space.mutants.append(Mutant("comparison", m.plan, m.description))
        for info in aq.null_tests:
            flipped = info.pred.flipped()
            space.mutants.append(
                Mutant(
                    "nulltest",
                    replace_where_conjunct(original, info.position, flipped),
                    f"where[{info.position}]: '{info.pred}' -> '{flipped}'",
                )
            )
    if include_aggregate:
        for m in aggregate_mutants(aq, original):
            space.mutants.append(Mutant("aggregate", m.plan, m.description))
    if include_join_conditions:
        from repro.mutation.joincond import (
            missing_conjunct_mutants,
            wrong_attribute_mutants,
        )

        for m in wrong_attribute_mutants(aq, original):
            space.mutants.append(Mutant("joincond-wrong", m.plan, m.description))
        for m in missing_conjunct_mutants(aq, original):
            space.mutants.append(
                Mutant("joincond-missing", m.plan, m.description)
            )
    return space
