"""The combined mutation space for a query.

:func:`enumerate_mutants` builds each space once per process: a bounded
memo keyed by the exact analyzed query hands every later call the same
immutable :class:`MutationSpace`, with its compiled plans, the memos
stashed on their nodes and its result classes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.analyze import AnalyzedQuery, analyze_query
from repro.engine.plan import PlanNode, compile_query, plan_fingerprint
from repro.memo import Memo
from repro.mutation.aggregate import aggregate_mutants
from repro.mutation.comparison import comparison_mutants
from repro.mutation.jointype import join_mutants
from repro.mutation.util import replace_where_conjunct
from repro.schema.catalog import Schema
from repro.sql.ast import Query
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql


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
            selections to the leaves, each leaf equates its own members
            of every equivalence class, and a join's condition is
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


def mutant_order(mutants: Sequence[Mutant]) -> list[int]:
    """Indices of ``mutants`` in cache-friendly evaluation order.

    Fingerprint-sorted order clusters structurally similar plans —
    sibling join-type mutants, comparison mutants over the same join
    tree — so each dataset's warm-cache window is maximised.  The
    returned indices always cover every mutant exactly once; outcome
    lists stay in the original mutant order regardless.
    """
    return sorted(
        range(len(mutants)), key=lambda i: plan_fingerprint(mutants[i].plan)
    )


def result_classes(
    mutants: Sequence[Mutant], grouped: bool = True
) -> list[tuple[int, tuple[int, ...]]]:
    """``(representative, members)`` per result class of ``mutants``.

    Mutants with equal :attr:`Mutant.result_class` form one class,
    represented by its first member; a mutant whose class is ``None`` is
    a class of its own.  Representatives come in the fingerprint-sorted
    order of :func:`mutant_order`, and only they are fingerprinted:
    executing the representatives and copying each verdict to its
    members gives every mutant its exhaustive verdict.
    ``grouped=False`` makes every mutant a class of its own — the
    uncached reference, which executes them all.  A space keeps its
    grouped classes (:attr:`MutationSpace.result_classes`).
    """
    if not grouped:
        return [(i, (i,)) for i in mutant_order(mutants)]
    members: dict[object, list[int]] = {}
    for index, mutant in enumerate(mutants):
        key = index if mutant.result_class is None else mutant.result_class
        members.setdefault(key, []).append(index)
    classes = [(group[0], tuple(group)) for group in members.values()]
    classes.sort(key=lambda entry: plan_fingerprint(mutants[entry[0]].plan))
    return classes


@dataclass(frozen=True)
class MutationSpace:
    """All mutants of a query, grouped by kind.

    ``original_plan`` is the original query's plan, compiled once per
    space (when not given) and shared by every suite and dataset
    evaluated against it.  :func:`enumerate_mutants` builds every mutant
    by path-copying this plan (or, for inner-join queries, each join
    order's plan), so the kill check's original run and its mutants
    share subtree objects.

    A space is immutable — ``mutants`` is a tuple and the fields cannot
    be reassigned — because :func:`enumerate_mutants` hands one space to
    every caller that asks for the same query.
    """

    analyzed: AnalyzedQuery
    mutants: tuple[Mutant, ...] = ()
    original_plan: PlanNode | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.mutants, tuple):
            object.__setattr__(self, "mutants", tuple(self.mutants))
        if self.original_plan is None:
            object.__setattr__(
                self, "original_plan", compile_query(self.analyzed.query)
            )

    @cached_property
    def result_classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The grouped :func:`result_classes` of the mutants, computed on
        first use and kept on the space, so a memoized space sorts its
        representatives once per process."""
        return tuple(result_classes(self.mutants))

    def by_kind(self, kind: str) -> list[Mutant]:
        """Mutants of one kind ('join', 'comparison', 'aggregate', ...)."""
        return [m for m in self.mutants if m.kind == kind]

    def __len__(self) -> int:
        return len(self.mutants)


#: Plans the :data:`_SPACES` memo keeps: each space weighs its mutants
#: plus its original plan.  Once an evaluate has warmed their plan
#: memos, tracemalloc put the retained cost at 1.6-2.1 KB per plan
#: (grade-table12's 16 spaces, 606 plans: 1.25 MB; Table II's Q6,
#: 3,073 plans: 5.1 MB), so the memo holds about 8 MB at most.
SPACE_MEMO_PLANS = 4096

#: ``(schema, exact analyzed SQL, enumeration switches)`` -> its
#: :class:`MutationSpace`.  Keyed by the exact rendered SQL of the
#: analyzed query, not its canonical form: an alias respelling has
#: other bindings in its plans and descriptions, so it gets its own
#: entry (the lesson of the §5j skeleton memos).  The schema is keyed
#: by identity, as the catalog is never mutated once built.
_SPACES = Memo(
    SPACE_MEMO_PLANS, size=lambda space: len(space) + 1, name="mutation_space"
)


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

    Memoized per process (:data:`_SPACES`): a repeated query — the same
    rendered SQL over the same schema object, with the same switches —
    gets the space built by its first call, whichever entry point (SQL
    text, AST or :class:`AnalyzedQuery`) either call used.
    """
    if isinstance(query, AnalyzedQuery):
        aq = query
    else:
        parsed = parse_query(query) if isinstance(query, str) else query
        if schema is None:
            raise ValueError("schema is required unless an AnalyzedQuery is given")
        aq = analyze_query(parsed, schema)
    key = (
        aq.schema, to_sql(aq.query), include_full_outer,
        include_join, include_comparison, include_aggregate,
        include_join_conditions, tree_cap,
    )
    space = _SPACES.get(key)
    if space is None:
        space = _build_space(
            aq, include_full_outer, include_join, include_comparison,
            include_aggregate, include_join_conditions, tree_cap,
        )
        _SPACES.put(key, space)
    return space


def _build_space(
    aq: AnalyzedQuery,
    include_full_outer: bool,
    include_join: bool,
    include_comparison: bool,
    include_aggregate: bool,
    include_join_conditions: bool,
    tree_cap: int,
) -> MutationSpace:
    """The uncached body of :func:`enumerate_mutants`."""
    original = compile_query(aq.query)
    mutants: list[Mutant] = []
    if include_join:
        for m in join_mutants(aq, include_full_outer, tree_cap, original):
            mutants.append(Mutant("join", m.plan, m.description, m.result_class))
    if include_comparison:
        for m in comparison_mutants(aq, original):
            mutants.append(Mutant("comparison", m.plan, m.description))
        for info in aq.null_tests:
            flipped = info.pred.flipped()
            mutants.append(
                Mutant(
                    "nulltest",
                    replace_where_conjunct(original, info.position, flipped),
                    f"where[{info.position}]: '{info.pred}' -> '{flipped}'",
                )
            )
    if include_aggregate:
        for m in aggregate_mutants(aq, original):
            mutants.append(Mutant("aggregate", m.plan, m.description))
    if include_join_conditions:
        from repro.mutation.joincond import (
            missing_conjunct_mutants,
            wrong_attribute_mutants,
        )

        for m in wrong_attribute_mutants(aq, original):
            mutants.append(Mutant("joincond-wrong", m.plan, m.description))
        for m in missing_conjunct_mutants(aq, original):
            mutants.append(Mutant("joincond-missing", m.plan, m.description))
    return MutationSpace(aq, tuple(mutants), original)
