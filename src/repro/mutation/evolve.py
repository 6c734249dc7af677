"""Seeded query evolution for the fuzzing campaign (DESIGN.md §5i).

The mutation space of Section II enumerates *every* single mutant of a
query for kill checking; the campaign needs the same edit vocabulary as
a *sampler* — draw one structural edit at random and keep the result as
a new corpus member.  The operators here reuse the mutation machinery's
AST rewrites (:mod:`repro.mutation.util`) but return SQL text via the
printer, because the campaign corpus stores queries as text (the
campaign journal is JSON, and workers re-parse anyway).

Every operator is a pure function of ``(rng, query)``; evolution is
therefore deterministic for a given corpus state and RNG state, which
is what makes a SIGKILLed campaign replayable from its journal.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.sql.ast import (
    COMPARISON_OPS,
    Comparison,
    FromItem,
    Join,
    JoinKind,
    Literal,
    NullTest,
    Query,
)
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql

__all__ = ["evolve_query", "evolution_operators"]

#: Join kinds the campaign evolves between (CROSS stays CROSS: giving a
#: comma join an ON clause needs a condition the operator cannot invent).
_EVOLVABLE_KINDS = (JoinKind.INNER, JoinKind.LEFT, JoinKind.RIGHT,
                    JoinKind.FULL)


def _is_constant_conjunct(pred) -> bool:
    """A selection-style conjunct: comparison with a literal side."""
    return isinstance(pred, Comparison) and (
        isinstance(pred.left, Literal) or isinstance(pred.right, Literal)
    )


def _flip_comparison_op(rng: random.Random, query: Query) -> Query | None:
    """Swap the operator of one constant comparison conjunct."""
    positions = [
        i for i, p in enumerate(query.where) if _is_constant_conjunct(p)
    ]
    if not positions:
        return None
    position = rng.choice(positions)
    pred = query.where[position]
    op = rng.choice([o for o in COMPARISON_OPS if o != pred.op])
    where = list(query.where)
    where[position] = pred.with_op(op)
    return replace(query, where=tuple(where))


def _tweak_constant(rng: random.Random, query: Query) -> Query | None:
    """Nudge one numeric literal in a WHERE conjunct."""
    candidates = []
    for i, pred in enumerate(query.where):
        if not isinstance(pred, Comparison):
            continue
        for side in ("left", "right"):
            expr = getattr(pred, side)
            if isinstance(expr, Literal) and isinstance(
                expr.value, (int, float)
            ) and not isinstance(expr.value, bool):
                candidates.append((i, side, expr))
    if not candidates:
        return None
    position, side, literal = rng.choice(candidates)
    value = literal.value
    step = rng.choice((-1, 1)) * max(1, abs(value) // 10)
    new = Literal(value + step)
    pred = query.where[position]
    mutated = Comparison(
        pred.op,
        new if side == "left" else pred.left,
        new if side == "right" else pred.right,
    )
    where = list(query.where)
    where[position] = mutated
    return replace(query, where=tuple(where))


def _flip_null_test(rng: random.Random, query: Query) -> Query | None:
    """IS NULL <-> IS NOT NULL on one conjunct."""
    positions = [
        i for i, p in enumerate(query.where) if isinstance(p, NullTest)
    ]
    if not positions:
        return None
    position = rng.choice(positions)
    where = list(query.where)
    where[position] = where[position].flipped()
    return replace(query, where=tuple(where))


def _drop_conjunct(rng: random.Random, query: Query) -> Query | None:
    """Remove one selection conjunct (never a join condition — dropping
    a column-to-column equality from a comma join would explode the
    cross product the campaign worker then has to execute)."""
    positions = [
        i for i, p in enumerate(query.where)
        if _is_constant_conjunct(p) or isinstance(p, NullTest)
    ]
    if not positions:
        return None
    position = rng.choice(positions)
    where = [p for i, p in enumerate(query.where) if i != position]
    return replace(query, where=tuple(where))


def _joins_of(item: FromItem) -> int:
    return (
        1 + _joins_of(item.left) + _joins_of(item.right)
        if isinstance(item, Join)
        else 0
    )


def _rekind_nth_join(item: FromItem, target: list[int],
                     kind: JoinKind) -> FromItem:
    """Rebuild ``item`` with join number ``target[0]`` (pre-order) rekinded."""
    if not isinstance(item, Join):
        return item
    index = target[0]
    target[0] += 1
    left = _rekind_nth_join(item.left, target, kind)
    right = _rekind_nth_join(item.right, target, kind)
    new_kind = kind if index == 0 else item.kind
    if index == 0:
        target[0] = -10**9  # mark done; later joins keep their kind
    return Join(new_kind, left, right, item.condition, item.natural)


def _change_join_kind(rng: random.Random, query: Query) -> Query | None:
    """Rewrite one explicit join's kind (the join-type mutation, applied
    as an evolution step rather than enumerated)."""
    join_counts = [_joins_of(item) for item in query.from_items]
    total = sum(join_counts)
    if total == 0:
        return None
    pick = rng.randrange(total)
    new_kind = rng.choice(_EVOLVABLE_KINDS)
    items = []
    for item, count in zip(query.from_items, join_counts):
        if 0 <= pick < count:
            items.append(_rekind_nth_join(item, [-pick], new_kind))
        else:
            items.append(item)
        pick -= count
    return replace(query, from_items=tuple(items))


#: Operator name -> function; order is part of the deterministic
#: evolution contract (replayed RNG draws index into it).
_OPERATORS = {
    "flip-comparison-op": _flip_comparison_op,
    "tweak-constant": _tweak_constant,
    "flip-null-test": _flip_null_test,
    "drop-conjunct": _drop_conjunct,
    "change-join-kind": _change_join_kind,
}


def evolution_operators() -> tuple[str, ...]:
    """Names of the available evolution operators, in draw order."""
    return tuple(_OPERATORS)


def evolve_query(
    rng: random.Random, sql: str, steps: int = 1
) -> tuple[str, list[str]] | None:
    """Apply up to ``steps`` random evolution operators to ``sql``.

    Returns ``(new_sql, applied_operator_names)``, or ``None`` when the
    query does not parse or no operator applied (e.g. a bare
    ``SELECT *`` with nothing to edit).  The result is re-printed
    through :func:`repro.sql.printer.to_sql`, so it always re-parses.
    """
    try:
        query = parse_query(sql)
    except Exception:
        return None
    applied: list[str] = []
    names = list(_OPERATORS)
    for _ in range(max(1, steps)):
        order = rng.sample(names, len(names))
        for name in order:
            mutated = _OPERATORS[name](rng, query)
            if mutated is not None:
                query = mutated
                applied.append(name)
                break
    if not applied:
        return None
    return to_sql(query), applied
