"""Join-condition mutants: wrong attribute and missing conjunct.

The paper's introduction lists "missing joins conditions" and wrong
attributes among common query errors (Fig. 2(d) is an intended query
that joins different attributes), but its evaluated mutation space covers
join *types* only.  This module extends the space in the spirit of the
paper's remark that the constraint-based approach "makes it possible to
add support for other mutation types":

* **wrong-attribute mutants** — one side of an equi-join conjunct is
  replaced by a different type-compatible column of the same relation
  (``t.course_id = c.course_id`` -> ``t.sec_id = c.course_id``);
* **missing-conjunct mutants** — one WHERE-clause equi-join conjunct is
  dropped entirely (the forgotten-join-condition error).

Generation support lives in :mod:`repro.core.kill_joincond`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyze import AnalyzedQuery
from repro.engine.plan import PlanNode, compile_query
from repro.mutation.util import replace_where_conjunct, replace_where_conjuncts
from repro.sql.ast import ColumnRef, Comparison


@dataclass(frozen=True)
class JoinCondMutant:
    """One join-condition mutant."""

    plan: PlanNode
    description: str


def _compatible_columns(aq: AnalyzedQuery, binding: str, column: str) -> list[str]:
    """Other columns of the binding's table with a comparable type."""
    table = aq.schema.table(aq.table_of(binding))
    original = table.column(column).sqltype
    out = []
    for other in table.columns:
        if other.name == column.lower():
            continue
        same_family = (
            other.sqltype.is_textual == original.is_textual
        )
        if same_family:
            out.append(other.name)
    return out


def _equijoin_positions(aq: AnalyzedQuery) -> list[int]:
    """WHERE positions holding two-column equi-join conjuncts."""
    positions = []
    for index, pred in enumerate(aq.query.where):
        if (
            isinstance(pred, Comparison)
            and pred.op == "="
            and isinstance(pred.left, ColumnRef)
            and isinstance(pred.right, ColumnRef)
            and pred.left.table != pred.right.table
        ):
            positions.append(index)
    return positions


def wrong_attribute_mutants(
    aq: AnalyzedQuery, original: PlanNode | None = None
) -> list[JoinCondMutant]:
    """Replace one side of an equi-join conjunct with a sibling column.

    Each mutant is ``original`` (the compiled query, compiled here when
    not given) with its WHERE filter path-copied.
    """
    original = original if original is not None else compile_query(aq.query)
    out: list[JoinCondMutant] = []
    query = aq.query
    for position in _equijoin_positions(aq):
        pred = query.where[position]
        for side in ("left", "right"):
            ref: ColumnRef = getattr(pred, side)
            for other in _compatible_columns(aq, ref.table, ref.column):
                replacement = ColumnRef(ref.table, other)
                if side == "left":
                    mutated_pred = Comparison(pred.op, replacement, pred.right)
                else:
                    mutated_pred = Comparison(pred.op, pred.left, replacement)
                out.append(
                    JoinCondMutant(
                        replace_where_conjunct(original, position, mutated_pred),
                        f"where[{position}]: '{pred}' -> '{mutated_pred}'",
                    )
                )
    return out


def missing_conjunct_mutants(
    aq: AnalyzedQuery, original: PlanNode | None = None
) -> list[JoinCondMutant]:
    """Drop one equi-join conjunct (the forgotten-join error).

    Each mutant is ``original`` (the compiled query, compiled here when
    not given) with its WHERE filter path-copied, or removed when the
    dropped conjunct was its only one.
    """
    original = original if original is not None else compile_query(aq.query)
    out: list[JoinCondMutant] = []
    query = aq.query
    for position in _equijoin_positions(aq):
        pred = query.where[position]
        where = tuple(
            p for index, p in enumerate(query.where) if index != position
        )
        out.append(
            JoinCondMutant(
                replace_where_conjuncts(original, where),
                f"where[{position}]: dropped '{pred}'",
            )
        )
    return out
