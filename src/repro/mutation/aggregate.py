"""Aggregation-operator mutants (Section II).

The operator space is MAX, MIN, SUM, AVG, COUNT, SUM(DISTINCT),
AVG(DISTINCT) and COUNT(DISTINCT); one aggregate at a time is replaced by
each of the others.  MIN(DISTINCT)/MAX(DISTINCT) coincide with MIN/MAX
and are not separate members.  For string-typed attributes only MIN, MAX,
COUNT and COUNT(DISTINCT) are valid, so the space shrinks accordingly.
COUNT(*) has no aggregated attribute and is outside the space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyze import AnalyzedQuery
from repro.engine.plan import PlanNode, compile_query
from repro.mutation.util import replace_having_aggregate, replace_select_aggregate
from repro.sql.ast import Aggregate

#: (func, distinct) pairs of the mutation space, numeric attributes.
NUMERIC_SPACE = (
    ("MIN", False),
    ("MAX", False),
    ("SUM", False),
    ("AVG", False),
    ("COUNT", False),
    ("SUM", True),
    ("AVG", True),
    ("COUNT", True),
)

#: The space for string-typed attributes.
STRING_SPACE = (
    ("MIN", False),
    ("MAX", False),
    ("COUNT", False),
    ("COUNT", True),
)


@dataclass(frozen=True)
class AggregateMutant:
    """One aggregation-operator mutant."""

    plan: PlanNode
    description: str


def aggregate_mutants(
    aq: AnalyzedQuery, original: PlanNode | None = None
) -> list[AggregateMutant]:
    """All single aggregation-operator mutants of the select list and
    HAVING clause (Section II: "an aggregation operator can occur in the
    select clause of the query or in the having clause").

    Each mutant is ``original`` (the compiled query, compiled here when
    not given) with its aggregation node replaced.
    """
    plan = original if original is not None else compile_query(aq.query)
    out: list[AggregateMutant] = []
    for info in aq.aggregates:
        if info.attr is None:  # COUNT(*)
            continue
        numeric = not aq.attr_type(info.attr).is_textual
        space = NUMERIC_SPACE if numeric else STRING_SPACE
        agg = info.agg
        for func, distinct in space:
            if (func, distinct) == (agg.func, agg.distinct):
                continue
            replacement = Aggregate(func, agg.arg, distinct)
            out.append(
                AggregateMutant(
                    replace_select_aggregate(plan, agg, replacement),
                    f"{agg} -> {replacement}",
                )
            )
    for having in aq.having:
        if having.attr is None:  # COUNT(*)
            continue
        agg = having.agg
        for func, distinct in NUMERIC_SPACE:
            if (func, distinct) == (agg.func, agg.distinct):
                continue
            replacement = Aggregate(func, agg.arg, distinct)
            out.append(
                AggregateMutant(
                    replace_having_aggregate(plan, agg, replacement),
                    f"having: {agg} -> {replacement}",
                )
            )
    return out
