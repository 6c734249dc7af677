"""Memoized subplan results shared across a mutant batch (DESIGN.md §5g).

Every mutant differs from the original query in exactly one plan node,
so when a kill check runs a mutant batch over one dataset, almost every
subtree evaluation is a repeat: sibling join-type mutants share
everything below (and beside) the mutated join, comparison and NULL-test
mutants share the whole join tree under the mutated selection, and
aggregate mutants share the grouped partition itself.  The cache keys
each intermediate result by ``(structural fingerprint, dataset)`` so the
executor computes each distinct subtree once per dataset and replays it
for every mutant that contains it.

Entry kinds live side by side, namespaced by key prefix:

* **frames** (``F:``) — the :class:`~repro.engine.frame.Frame` produced
  by a pipeline subtree (scan / select / join), keyed by the subtree's
  :func:`~repro.engine.plan.plan_fingerprint` — a structural hit skips
  the whole subtree without touching its children;
* **join kernels** (``K`` / ``KN``) — the kind-independent matching
  pass of a join (matched rows + per-side match flags), keyed by the
  *content* ids of both input frames plus the condition
  (:meth:`SubplanCache.intern_content`), so the INNER/LEFT/RIGHT/FULL
  variants of one join — the join-type mutation axis — pay for the
  O(|L|·|R|) pairwise pass once, even across structurally different
  plans whose inputs happen to coincide;
* **predicate masks** (``M``) — per-conjunct TRUE-row index sets over a
  select's child content, so a comparison/NULL-test mutant evaluates
  only its mutated conjunct and intersects the rest;
* **group partitions** (``G``) — the GROUP BY partition of an
  aggregate's child, keyed by (child content, group-by columns), shared
  by every aggregate-function and HAVING mutant over the same grouping;
* **final relations** (``R``) — the projected/aggregated
  :class:`~repro.engine.relation.Relation`, keyed by (child content,
  output spec): mutants whose final input content matched share one
  result object, and the kill checker's per-object signature memo then
  collapses their verdict comparisons to identity checks.

Entries are held per dataset and dropped with :meth:`drop_dataset` when
the batch moves on, so peak memory is one dataset's working set.  All
cached values are treated as immutable by the executor (frames are
read-only once built; kernel row lists are copied before padding).

Counters (``hits`` / ``misses`` / ``bytes``) follow the §5e metrics
conventions (``bytes`` is a running total) and surface as
``xdata_subplan_cache_*`` counters when a
kill check runs under metrics (see :func:`repro.api.evaluate`).
``peak_bytes`` in :meth:`SubplanCache.stats` is the largest working set
stored between two drops — what a batch that drops each dataset when
done with it needed in memory at once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

__all__ = ["SubplanCache", "SUBPLAN_COUNTER_PREFIX", "estimate_entry_bytes"]

#: Metrics-counter prefix for cache traffic (§5e reconciliation).
SUBPLAN_COUNTER_PREFIX = "xdata_subplan_cache_"


def estimate_entry_bytes(value) -> int:
    """Shallow byte estimate of a cached entry (rows + row tuples).

    Deliberately does not recurse into cell values — rows share value
    objects with the dataset relations, so counting them would double
    charge.  Good enough for the ``bytes`` counter's job: showing the
    cache's working set is bounded and dataset-sized.
    """
    rows = getattr(value, "rows", None)
    if rows is None and isinstance(value, tuple):
        # Kernel entries: (rows, left_matched, right_matched, ...).
        rows = value[0] if value and isinstance(value[0], list) else None
    if rows is None and isinstance(value, dict):
        # Group partitions: key -> row list.
        total = sys.getsizeof(value)
        for group_rows in value.values():
            total += sys.getsizeof(group_rows)
        return total
    if rows is None:
        return sys.getsizeof(value)
    # Rows of one entry are near-uniform in width, and the counter only
    # needs order-of-magnitude fidelity — CPython list/tuple header
    # arithmetic on the first row's width beats a getsizeof pass per
    # store on the hot path.
    count = len(rows)
    width = len(rows[0]) if count and isinstance(rows[0], tuple) else 0
    return 56 + 8 * count + count * (56 + 8 * width)


@dataclass
class SubplanCache:
    """Per-dataset memo of subplan results, with §5e-style counters.

    The cache is scoped to one kill-check batch (one ``evaluate_suite``
    call, one conformance case, one workload matrix); callers drop each
    dataset's entries once its mutant batch is done.  Counters are
    cumulative across the whole batch.
    """

    #: dataset key (``id(db)``) -> {namespaced fingerprint -> value}.
    _by_dataset: dict[int, dict[str, object]] = field(
        default_factory=dict, repr=False
    )
    hits: int = 0
    misses: int = 0
    #: Shallow size estimate of everything ever stored (monotonic, per
    #: the counter convention; live size shrinks on ``drop_dataset``).
    bytes_stored: int = 0
    #: The most bytes stored between two consecutive ``drop_dataset``
    #: calls: the peak live working set of a batch that drops each
    #: dataset when done with it.  Kept up at the drops, off the hot path.
    peak_bytes: int = 0
    #: ``bytes_stored`` at the last drop.
    _mark: int = field(default=0, repr=False)
    #: One-slot memo of the last dataset's entry dict — kill-check
    #: batches probe the same dataset thousands of times in a row.
    _last_id: int | None = field(default=None, repr=False)
    _last_entry: dict | None = field(default=None, repr=False)

    def _entry(self, db) -> dict:
        """The live entry dict for ``db`` (created on first touch).

        The executor's hottest probe sites use this handle directly and
        maintain ``hits``/``misses``/``bytes_stored`` inline, skipping
        the :meth:`get`/:meth:`put` method dispatch per probe.
        """
        ident = id(db)
        if ident == self._last_id:
            return self._last_entry
        entry = self._by_dataset.get(ident)
        if entry is None:
            entry = self._by_dataset[ident] = {}
        self._last_id = ident
        self._last_entry = entry
        return entry

    def get(self, db, key: str):
        """The cached value for ``key`` on dataset ``db``, else ``None``."""
        value = self._entry(db).get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, db, key: str, value) -> None:
        """Store ``value`` for ``key`` on dataset ``db``."""
        self._entry(db)[key] = value
        self.bytes_stored += estimate_entry_bytes(value)

    def intern_content(self, db, key) -> int:
        """Intern a content key (header + rows) to a small dataset-local id.

        Content-equal frames — an outer-join variant whose padding added
        no rows, say — map to the same id even when their plans differ
        structurally, so downstream caches keyed by input *content*
        (join kernels, group partitions, projected results) share work
        the structural fingerprint cannot see.  The id is only
        meaningful within one dataset; callers memoize it on the frame
        object, which never outlives its dataset's batch.
        """
        entry = self._entry(db)
        table = entry.get("__content_ids__")
        if table is None:
            table = entry["__content_ids__"] = {}
        ident = table.get(key)
        if ident is None:
            ident = table[key] = len(table)
        return ident

    def seen(self, db, key: str) -> bool:
        """Record ``key`` for ``db``; True when it was already recorded.

        A bookkeeping probe (mask-worthiness heuristics), deliberately
        outside the hit/miss counters so it never skews the hit rate.
        """
        entry = self._entry(db)
        if key in entry:
            return True
        entry[key] = True
        return False

    def drop_dataset(self, db) -> None:
        """Release every entry cached for ``db`` (end of its batch)."""
        self._by_dataset.pop(id(db), None)
        self._last_id = None
        self._last_entry = None
        self.peak_bytes = self._live_peak()
        self._mark = self.bytes_stored

    def clear(self) -> None:
        self._by_dataset.clear()
        self._last_id = None
        self._last_entry = None
        self.peak_bytes = self._live_peak()
        self._mark = self.bytes_stored

    def _live_peak(self) -> int:
        """``peak_bytes`` counting the batch stored since the last drop."""
        return max(self.peak_bytes, self.bytes_stored - self._mark)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict[str, int]:
        """Counter deltas under the §5e naming convention."""
        return {
            SUBPLAN_COUNTER_PREFIX + "hits_total": self.hits,
            SUBPLAN_COUNTER_PREFIX + "misses_total": self.misses,
            SUBPLAN_COUNTER_PREFIX + "bytes_total": self.bytes_stored,
        }

    def stats(self) -> dict:
        """A plain-dict summary for reports and benchmark JSON."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes": self.bytes_stored,
            "peak_bytes": self._live_peak(),
            "hit_rate": round(self.hit_rate, 4),
        }
