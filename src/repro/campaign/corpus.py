"""Campaign corpus: the evolving population of queries under test.

The corpus is the campaign's working set.  Each round the driver draws
parents from it, evolves children via
:func:`repro.mutation.evolve.evolve_query`, and admits a child only if
it exhibits a *feature* no current member has — a coarse structural
coverage signal (join kinds, predicate shapes, table combinations,
aggregation) that keeps the population diverse instead of drifting into
thousands of near-identical constant tweaks.

Everything here is plain data: queries are SQL text and features are
strings.  The corpus is never written out: a resumed campaign rebuilds
the exact population, and the features of evicted members with it, by
replaying its journal (:mod:`repro.campaign.checkpoint`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.sql.ast import (
    Comparison,
    Join,
    NullTest,
    Query,
    TableRef,
)
from repro.sql.parser import parse_query

__all__ = ["Corpus", "CorpusItem", "query_features"]


def _from_features(item, features: set[str]) -> list[str]:
    """Collect table names (pre-order) while recording join features."""
    if isinstance(item, Join):
        features.add(f"join:{item.kind.name.lower()}")
        if item.natural:
            features.add("join:natural")
        return _from_features(item.left, features) + _from_features(
            item.right, features
        )
    if isinstance(item, TableRef):
        return [item.name]
    return []


def query_features(sql: str) -> frozenset[str]:
    """Structural coverage features of one query.

    Parse failures yield the empty set (the driver then rejects the
    query outright — an unparseable corpus member is useless).
    """
    try:
        query: Query = parse_query(sql)
    except Exception:
        return frozenset()
    features: set[str] = set()
    tables: list[str] = []
    for item in query.from_items:
        tables.extend(_from_features(item, features))
    features.add("tables:" + "+".join(sorted(set(tables))))
    features.add(f"width:{len(tables)}")
    for pred in query.where:
        if isinstance(pred, NullTest):
            features.add("pred:null-test")
        elif isinstance(pred, Comparison):
            features.add(f"pred:cmp{pred.op}")
    if query.group_by:
        features.add("group-by")
    if query.having is not None:
        features.add("having")
    if query.distinct:
        features.add("distinct")
    for sel in query.select_items:
        func = getattr(sel.expr, "func", None)
        if func is not None:
            features.add(f"agg:{str(func).upper()}")
    return frozenset(features)


@dataclass
class CorpusItem:
    """One corpus member with its provenance."""

    sql: str
    #: Seed-case index that founded this lineage.
    origin: int
    #: Evolution steps separating this member from its founder.
    generation: int = 0
    #: Cases run against this member (drives parent selection decay).
    trials: int = 0
    features: frozenset[str] = frozenset()


@dataclass
class Corpus:
    """Feature-novelty corpus with bounded size.

    ``max_size`` is the backpressure bound: once full, admitting a new
    member evicts the most-trialled one (it has had its chances), so
    corpus memory stays O(max_size) no matter how long the campaign
    runs.
    """

    max_size: int = 256
    items: list[CorpusItem] = field(default_factory=list)
    _seen_features: set[str] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.items)

    def admit(self, sql: str, origin: int, generation: int = 0) -> bool:
        """Add ``sql`` if it brings an unseen feature; report admission."""
        features = query_features(sql)
        if not features:
            return False
        if generation > 0 and not (features - self._seen_features):
            return False
        if any(item.sql == sql for item in self.items):
            return False
        self.items.append(
            CorpusItem(sql, origin, generation, features=features)
        )
        self._seen_features |= features
        if len(self.items) > self.max_size:
            stalest = max(
                range(len(self.items)), key=lambda i: self.items[i].trials
            )
            del self.items[stalest]
        return True

    def pick_parent(self, rng: random.Random) -> CorpusItem:
        """Draw a parent, biased toward less-trialled members."""
        if not self.items:
            raise ValueError("empty corpus")
        a, b = rng.choice(self.items), rng.choice(self.items)
        return a if a.trials <= b.trials else b
