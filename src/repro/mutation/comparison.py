"""Comparison-operator mutants (Section II / Section V-E).

Any single occurrence of a comparison operator in a WHERE-clause
*selection* conjunct (the paper's ``A.x op val`` form — conjuncts over a
single relation occurrence) is replaced by each of the other operators.
Join conjuncts are covered by the join-type mutation space instead; their
operator mutations change the join condition itself and are outside the
space killComparisonOperators targets (Section V-E).  String-typed
conjuncts only admit ``=`` and ``<>`` in this library, so they contribute
one mutant each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyze import AnalyzedQuery
from repro.engine.plan import PlanNode, compile_query
from repro.sql.ast import COMPARISON_OPS, Comparison
from repro.mutation.util import replace_having_conjunct, replace_where_conjunct

#: Strings support the full operator space: interning is rank-preserving.
STRING_OPS = COMPARISON_OPS


@dataclass(frozen=True)
class ComparisonMutant:
    """One comparison-operator mutant."""

    plan: PlanNode
    description: str


def comparison_mutants(
    aq: AnalyzedQuery, original: PlanNode | None = None
) -> list[ComparisonMutant]:
    """All single comparison-operator mutants of selection conjuncts.

    Each mutant is ``original`` (the compiled query, compiled here when
    not given) with its WHERE filter or aggregation path-copied.
    """
    original = original if original is not None else compile_query(aq.query)
    selection_preds = {id(info.pred) for info in aq.selections}
    selection_strs = {str(info.pred) for info in aq.selections}
    out: list[ComparisonMutant] = []
    query = aq.query
    for position, pred in enumerate(query.where):
        if id(pred) not in selection_preds and str(pred) not in selection_strs:
            continue
        textual = _is_conjunct_textual(aq, position)
        ops = STRING_OPS if textual else COMPARISON_OPS
        for op in ops:
            if op == pred.op:
                continue
            out.append(
                ComparisonMutant(
                    replace_where_conjunct(original, position, pred.with_op(op)),
                    f"where[{position}]: '{pred}' -> '{pred.with_op(op)}'",
                )
            )
    # HAVING conjuncts (constrained-aggregation extension): aggregates
    # are numeric, so all six operators apply.
    for position, pred in enumerate(query.having):
        for op in COMPARISON_OPS:
            if op == pred.op:
                continue
            out.append(
                ComparisonMutant(
                    replace_having_conjunct(original, position, pred.with_op(op)),
                    f"having[{position}]: '{pred}' -> '{pred.with_op(op)}'",
                )
            )
    return out


def _is_conjunct_textual(aq: AnalyzedQuery, position: int) -> bool:
    from repro.core.attrs import Attr
    from repro.sql.ast import ColumnRef, Literal

    pred: Comparison = aq.query.where[position]
    for side in (pred.left, pred.right):
        if isinstance(side, ColumnRef):
            if aq.attr_type(Attr(side.table, side.column)).is_textual:
                return True
        if isinstance(side, Literal) and isinstance(side.value, str):
            return True
    return False
