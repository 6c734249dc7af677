"""Memoized subplan results shared across a mutant batch (DESIGN.md §5g).

Every mutant differs from the original query in exactly one plan node,
so when a kill check runs a mutant batch over one dataset, almost every
subtree evaluation is a repeat: sibling join-type mutants share
everything below (and beside) the mutated join, comparison and NULL-test
mutants share the whole join tree under the mutated selection, and
aggregate mutants share the grouped partition itself.

**Slots.**  On first sight the cache hash-conses each plan node by its
:func:`~repro.engine.plan.plan_fingerprint` to an integer *slot*
(:meth:`SubplanCache.register`); structurally equal subtrees of
different mutants share one slot.  Per dataset, a slot's value — the
:class:`~repro.engine.frame.Frame` of a scan / select / join, or the
:class:`~repro.engine.relation.Relation` of a projection/aggregation
root — is computed once and then read by index, so a mutant's
execution computes only the slots it does not share.  The registry
holds every node it has seen, which keeps each node's ``id`` valid as a
lookup key for the batch.

**Content-keyed entries** live beside the slot table, keyed by the
*content* ids of input frames — a dataset-local id per distinct (header,
row bag), so content-equal frames from different plans share one id —
and plans that differ structurally but whose inputs coincide share work
the fingerprint cannot see:

* **join kernels** (``K`` / ``KN``) — the kind-independent matching
  pass of a join (matched rows + per-side match flags), keyed by both
  input contents plus the condition, so the INNER/LEFT/RIGHT/FULL
  variants of one join — the join-type mutation axis — pay for the
  O(|L|·|R|) pairwise pass once;
* **joined frames** (``JF`` / ``JFN``) and **selected frames**
  (``SF``) — an operator's output keyed by input content and its own
  spec, so mutants that reach one join over content-equal inputs share
  one output frame object;
* **predicate masks** (``M``) — per-conjunct TRUE-row index sets over a
  select's child content, so a comparison/NULL-test mutant evaluates
  only its mutated conjunct and intersects the rest;
* **group partitions** (``G``) — the GROUP BY partition of an
  aggregate's child, keyed by (child content, group-by columns), shared
  by every aggregate-function and HAVING mutant over the same grouping;
* **final relations** (``R``) — the projected/aggregated result, keyed
  by (child content, output spec): mutants whose final input content
  matched share one result object, and the kill checker's per-object
  signature memo then collapses their verdict comparisons to identity
  checks.

**Layouts.**  Frame headers are interned per batch
(:meth:`SubplanCache.layout`), and everything derived from a header —
column resolution, join-condition indices, projection layouts — is
memoized per (slot, layout) in :attr:`SubplanCache.memos`.  None of
these memos outlives the cache.

Entries are held per dataset and dropped with :meth:`drop_dataset` when
the batch moves on, so peak memory is one dataset's working set; the
slot registry lives for the whole batch.  All cached values are treated
as immutable by the executor (frames are read-only once built; kernel
row lists are copied before padding).

Counters (``hits`` / ``misses`` / ``bytes``) follow the §5e metrics
conventions (``bytes`` is a running total) and surface as
``xdata_subplan_cache_*`` counters when a kill check runs under metrics
(see :func:`repro.api.evaluate`).  ``hits`` and ``misses`` count the
content-keyed probes, plus a hit for each execution whose whole result
was already in its root slot; reading a computed child slot is not a
probe.  ``bytes`` charges each stored object once: a frame is charged
where it is first stored, and its slot entry is a second reference,
not a second copy.  ``peak_bytes`` in :meth:`SubplanCache.stats` is the
largest working set stored between two drops — what a batch that drops
each dataset when done with it needed in memory at once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.engine.frame import Layout
from repro.engine.plan import JoinNode, PlanNode, ScanNode, plan_fingerprint

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
    if rows is None and isinstance(value, tuple) and value:
        if isinstance(value[0], dict):
            # Group partitions: (key -> row list, first-seen key order).
            groups, order = value
            total = (
                sys.getsizeof(value) + sys.getsizeof(groups)
                + sys.getsizeof(order)
            )
            for group_rows in groups.values():
                total += sys.getsizeof(group_rows)
            return total
        # Kernel entries: (rows, left_matched, right_matched, ...).
        rows = value[0] if isinstance(value[0], list) else None
    if rows is None:
        return sys.getsizeof(value)
    # Rows of one entry are near-uniform in width, and the counter only
    # needs order-of-magnitude fidelity — CPython list/tuple header
    # arithmetic on the first row's width beats a getsizeof pass per
    # store on the hot path.
    count = len(rows)
    width = len(rows[0]) if count and isinstance(rows[0], tuple) else 0
    return 56 + 8 * count + count * (56 + 8 * width)


class DatasetEntries:
    """Everything a :class:`SubplanCache` holds for one dataset."""

    __slots__ = ("frames", "values", "content_ids", "filtered")

    def __init__(self):
        #: Slot -> computed value (``None`` until computed).
        self.frames: list = []
        #: Content-keyed entries (``K``, ``JF``, ``SF``, ``M``, ``G``, ``R``...).
        self.values: dict = {}
        #: Content key (layout token, rows) -> dataset-local content id.
        self.content_ids: dict = {}
        #: Content ids a multi-conjunct select has filtered — the
        #: executor's mask-worthiness heuristic, outside the counters.
        self.filtered: set = set()


def _children(node: PlanNode) -> tuple[PlanNode, ...]:
    if isinstance(node, JoinNode):
        return (node.left, node.right)
    if isinstance(node, ScanNode):
        return ()
    return (node.child,)


@dataclass
class SubplanCache:
    """Slot table plus per-dataset memo of subplan results, with §5e-style
    counters.

    The cache is scoped to one kill-check batch (one ``evaluate_suite``
    call, one conformance case, one workload matrix); callers drop each
    dataset's entries once its mutant batch is done.  Counters are
    cumulative across the whole batch.
    """

    #: dataset key (``id(db)``) -> that dataset's entries.
    _by_dataset: dict[int, DatasetEntries] = field(
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
    #: One-slot memo of the last dataset's entries — kill-check batches
    #: run the same dataset thousands of times in a row.
    _last_id: int | None = field(default=None, repr=False)
    _last_entry: DatasetEntries | None = field(default=None, repr=False)
    #: The slot registry: slot -> representative node, child slots and
    #: the executor's per-slot layout memo.
    nodes: list[PlanNode] = field(default_factory=list, repr=False)
    kids: list[tuple[int, ...]] = field(default_factory=list, repr=False)
    memos: list[dict] = field(default_factory=list, repr=False)
    _slot_by_fp: dict[str, int] = field(default_factory=dict, repr=False)
    #: ``id(node)`` -> slot, for every node registered; ``_held`` keeps
    #: those nodes alive so their ids cannot be recycled mid-batch.
    _slot_by_id: dict[int, int] = field(default_factory=dict, repr=False)
    _held: list[PlanNode] = field(default_factory=list, repr=False)
    #: Interned frame headers of the batch.
    _layouts: dict[tuple, Layout] = field(default_factory=dict, repr=False)

    def register(self, node: PlanNode) -> int:
        """The slot of ``node``, hash-consed by structural fingerprint.

        Registers every subtree the registry has not seen; a node
        structurally equal to a registered one joins its slot.
        """
        slot = self._slot_by_id.get(id(node))
        if slot is not None:
            return slot
        fingerprint = plan_fingerprint(node)
        slot = self._slot_by_fp.get(fingerprint)
        if slot is None:
            kids = tuple(self.register(child) for child in _children(node))
            slot = self._slot_by_fp[fingerprint] = len(self.nodes)
            self.nodes.append(node)
            self.kids.append(kids)
            self.memos.append({})
        self._slot_by_id[id(node)] = slot
        self._held.append(node)
        return slot

    def entries(self, db) -> DatasetEntries:
        """The live entries of ``db`` (created on first touch), with a
        slot for every registered node.

        The executor's probe sites use this handle directly and maintain
        ``hits``/``misses``/``bytes_stored`` inline.
        """
        ident = id(db)
        if ident == self._last_id:
            entry = self._last_entry
        else:
            entry = self._by_dataset.get(ident)
            if entry is None:
                entry = self._by_dataset[ident] = DatasetEntries()
            self._last_id = ident
            self._last_entry = entry
        missing = len(self.nodes) - len(entry.frames)
        if missing:
            entry.frames.extend([None] * missing)
        return entry

    def layout(self, header) -> Layout:
        """The batch's interned :class:`Layout` of ``header``."""
        header = tuple(header)
        layout = self._layouts.get(header)
        if layout is None:
            layout = self._layouts[header] = Layout(header, len(self._layouts))
        return layout

    def drop_dataset(self, db) -> None:
        """Release every entry cached for ``db`` (end of its batch)."""
        self._by_dataset.pop(id(db), None)
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
