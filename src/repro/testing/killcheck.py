"""Kill checking: differential execution of mutants over datasets.

A mutant is *killed* by a dataset when the original query and the mutant
produce different results on it (Section I).  Results are compared as
bags of rows with columns aligned by name, so equivalent plans that emit
columns in different orders (different join orders under ``SELECT *``)
still compare equal.

The evaluation loop is batched per dataset (DESIGN.md §5g): the original
plan and every mutant are registered once in a shared
:class:`~repro.engine.subplan.SubplanCache`, whose slot table maps each
distinct subtree to one slot; then each dataset is loaded once, the
original executes once, and the mutant set runs in fingerprint-sorted
order, so every subtree unchanged from the original — and every subtree
shared between sibling mutants — is computed once per dataset instead
of once per mutant.  Join-order mutants with the same
:attr:`~repro.mutation.space.Mutant.result_class` return the same bag
on every dataset, so only one representative per class executes and
its verdict is copied to the others (:func:`result_classes`).
:class:`KillCheckConfig` carries the one reference switch: with the
subplan cache off every tree — every mutant — re-executes from
scratch, the oracle the equivalence tests hold the cached verdicts to.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.plan import PlanNode
from repro.engine.relation import Relation
from repro.engine.subplan import SubplanCache
from repro.mutation.space import Mutant, MutationSpace, result_classes


def canonical_value(value):
    """Quantise a result value for cross-backend comparison.

    The engine computes division and AVG exactly (``Fraction``) while
    real systems return floating point; both map to the same canonical
    form here — 12 significant digits, integral values as int — so the
    signature comparison has a built-in tolerance.  12 digits leaves
    ~4 guard digits of double precision for accumulation-order noise
    while still distinguishing any two values a mutant kill hinges on
    in practice.
    """
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return value
        quantised = float(f"{value:.12g}")
        return int(quantised) if quantised.is_integer() else quantised
    return value


def result_signature(relation: Relation) -> tuple[tuple[str, ...], Counter]:
    """(sorted column names, bag of name-aligned canonicalised rows).

    Memoized per relation object: the subplan cache returns one shared
    :class:`Relation` for every mutant whose final input content
    matched, so a whole batch of verdicts reuses one canonicalisation.
    """
    memo = getattr(relation, "_canonical_signature", None)
    if memo is not None:
        return memo
    order = sorted(range(len(relation.columns)), key=lambda i: relation.columns[i])
    names = tuple(relation.columns[i] for i in order)
    bag = Counter(
        tuple(canonical_value(row[i]) for i in order) for row in relation.rows
    )
    relation._canonical_signature = (names, bag)
    return names, bag


def results_differ(a: Relation, b: Relation) -> bool:
    """True when two results differ as name-aligned bags."""
    return result_signature(a) != result_signature(b)


def raw_signature(relation: Relation) -> tuple[tuple[str, ...], Counter]:
    """Like :func:`result_signature` but without value canonicalisation.

    Python's ``==`` already equates ``1``, ``1.0`` and ``Fraction(1)``,
    and :func:`canonical_value` maps ``==``-equal values to ``==``-equal
    canonical forms — so raw-equal bags are always canonically equal.
    The converse does not hold (canonicalisation has a 12-significant-
    digit tolerance), so a raw mismatch is never a verdict by itself.
    Memoized per relation object, like :func:`result_signature`.
    """
    memo = getattr(relation, "_raw_sig", None)
    if memo is not None:
        return memo
    order = sorted(range(len(relation.columns)), key=lambda i: relation.columns[i])
    names = tuple(relation.columns[i] for i in order)
    bag = Counter(tuple(row[i] for i in order) for row in relation.rows)
    relation._raw_sig = (names, bag)
    return names, bag


def differs_from_signature(
    relation: Relation, signature, rowcount: int, raw
) -> bool:
    """Does ``relation`` differ from a precomputed original signature?

    A row-count mismatch decides immediately — bags of different
    cardinality can never be equal — and a match against the original's
    :func:`raw_signature` decides "not killed" without canonicalising
    anything.  Only results that match on count but differ raw pay the
    full 12-significant-digit canonicalisation.  The verdict always
    equals ``result_signature(relation) != signature``.
    """
    if len(relation.rows) != rowcount:
        return True
    if raw_signature(relation) == raw:
        return False
    return result_signature(relation) != signature


@dataclass(frozen=True)
class KillCheckConfig:
    """Kill-check evaluation switches (``SearchConfig`` conventions).

    Attributes:
        subplan_cache: Memoize subplan results per (fingerprint,
            dataset) across the mutant batch and execute one mutant per
            result class (the §5g hot path).  Off re-executes every
            mutant's tree from scratch — the reference the equivalence
            tests compare against; the CLI spells it
            ``--no-subplan-cache``.  Verdicts are identical either way.
    """

    subplan_cache: bool = True

    @classmethod
    def uncached(cls) -> "KillCheckConfig":
        """The reference arm: re-execute every tree from scratch."""
        return cls(subplan_cache=False)


@dataclass
class MutantOutcome:
    """Per-mutant kill record."""

    mutant: Mutant
    killed_by: list[int] = field(default_factory=list)

    @property
    def killed(self) -> bool:
        return bool(self.killed_by)


@dataclass
class KillReport:
    """The kill matrix for one suite against one mutation space."""

    outcomes: list[MutantOutcome]
    dataset_count: int
    #: Subplan-cache traffic for the run (``SubplanCache.stats()``), or
    #: ``None`` when the cache was disabled.
    cache_stats: dict | None = None
    #: Plans actually executed, originals included: one per dataset for
    #: the original plus one per result class (per mutant uncached),
    #: less those ``stop_at_first_kill`` skipped.
    executions: int = 0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.killed)

    @property
    def survivors(self) -> list[Mutant]:
        return [o.mutant for o in self.outcomes if not o.killed]

    def kills_of_dataset(self, index: int) -> int:
        return sum(1 for o in self.outcomes if index in o.killed_by)


def evaluate_suite(
    space: MutationSpace,
    databases: list[Database],
    original_plan: PlanNode | None = None,
    stop_at_first_kill: bool = False,
    backend=None,
    cross_check: bool = False,
    config: KillCheckConfig | None = None,
) -> KillReport:
    """Run every mutant against every dataset; record which kills occur.

    Mutants are batched per dataset: the dataset is loaded/validated
    once, the original executes once, and the mutant set walks in
    fingerprint-sorted order over a shared subplan cache (dropped when
    the batch moves to the next dataset, so memory stays bounded by one
    dataset's working set).  With the cache on, the mutant set is its
    result classes (:func:`result_classes`): one representative per
    class executes — on whichever backend — and its verdict is copied
    to every member, so each ``killed_by`` list is the one an exhaustive
    run records.  :meth:`KillCheckConfig.uncached` executes every
    mutant; it is the oracle the grouped verdicts are tested against.

    Args:
        space: The mutation space (provides the analyzed query).
        databases: The generated test datasets.
        original_plan: Plan for the original query; defaults to the
            space's compiled-once plan (:attr:`MutationSpace.original_plan`).
        stop_at_first_kill: Record only the first killing dataset per
            mutant (faster for large spaces; the kill counts are equal).
        backend: Execution backend — a name (``"engine"``, ``"sqlite"``)
            or a :class:`repro.backends.Backend` instance.  ``None``
            keeps the direct in-process engine path.
        cross_check: Shadow every execution on a second backend (SQLite
            when the primary is the engine, the engine otherwise) and
            raise :class:`repro.backends.BackendDisagreement` the moment
            their result bags differ — every kill verdict becomes a
            differential test of the engine itself.
        config: Evaluation switches (:class:`KillCheckConfig`); the
            default enables the full §5g hot path.
    """
    config = config or KillCheckConfig()
    plan = original_plan if original_plan is not None else space.original_plan
    mutants = space.mutants
    outcomes = [MutantOutcome(mutant) for mutant in mutants]
    cache = SubplanCache() if config.subplan_cache else None
    classes = (
        space.result_classes if cache is not None
        else result_classes(mutants, grouped=False)
    )
    if cache is not None:
        cache.register(plan)
        for rep, _ in classes:
            cache.register(mutants[rep].plan)
    executions = 0

    def record(members: tuple[int, ...], index: int) -> None:
        for member in members:
            outcomes[member].killed_by.append(index)

    if backend is None and not cross_check:
        # Hot path: no handle indirection, no integrity re-validation.
        for index, db in enumerate(databases):
            original = execute_plan(plan, db, cache)
            executions += 1
            signature = result_signature(original)
            raw = raw_signature(original)
            rowcount = len(original.rows)
            for rep, members in classes:
                if stop_at_first_kill and outcomes[rep].killed_by:
                    continue
                mutant_result = execute_plan(mutants[rep].plan, db, cache)
                executions += 1
                # The subplan cache returns the original's relation
                # object itself when a mutant's result content matched
                # it — identical by construction, no comparison needed.
                if mutant_result is original:
                    continue
                # Distinct-but-shared result objects get one verdict
                # each per dataset: the memo is keyed on the original's
                # identity, so a new dataset (new original) re-decides.
                memo = mutant_result.__dict__.get("_verdict_memo")
                if memo is not None and memo[0] is original:
                    differs = memo[1]
                else:
                    differs = differs_from_signature(
                        mutant_result, signature, rowcount, raw
                    )
                    mutant_result._verdict_memo = (original, differs)
                if differs:
                    record(members, index)
            if cache is not None:
                cache.drop_dataset(db)
        return KillReport(
            outcomes, len(databases),
            cache_stats=cache.stats() if cache is not None else None,
            executions=executions,
        )

    from repro.backends import CrossChecker, resolve_backend

    primary = resolve_backend(backend)
    reference = None
    if cross_check:
        reference = resolve_backend(
            "engine" if primary.name == "sqlite" else "sqlite"
        )
    with attached_subplan_cache((primary, reference), cache), CrossChecker(
        primary, reference
    ) as checker:
        for index, db in enumerate(databases):
            if cross_check:
                # Both backends' bags are compared inside the checker,
                # so the full signature is computed regardless.
                signature = checker.signature(plan, db, "original query")
            else:
                original = checker.result(plan, db, "original query")
                signature = result_signature(original)
                raw = raw_signature(original)
                rowcount = len(original.rows)
            executions += 1
            for rep, members in classes:
                if stop_at_first_kill and outcomes[rep].killed_by:
                    continue
                mutant = mutants[rep]
                context = f"mutant [{mutant.kind}] {mutant.description}"
                if cross_check:
                    differs = (
                        checker.signature(mutant.plan, db, context) != signature
                    )
                else:
                    differs = differs_from_signature(
                        checker.result(mutant.plan, db, context),
                        signature, rowcount, raw,
                    )
                executions += 1
                if differs:
                    record(members, index)
            checker.release(db)
            if cache is not None:
                cache.drop_dataset(db)
    return KillReport(
        outcomes, len(databases),
        cache_stats=cache.stats() if cache is not None else None,
        executions=executions,
    )


@contextmanager
def attached_subplan_cache(backends, cache: SubplanCache | None):
    """Hand the batch's subplan cache to every engine-executing backend.

    Each backend gets its previous ``subplan_cache`` back on exit: the
    batch cache keys datasets by ``id(db)``, which a later caller's
    fresh databases may reuse once the batch's datasets are gone.
    """
    engines = [
        backend for backend in backends
        if cache is not None
        and backend is not None
        and getattr(backend, "name", "") == "engine"
    ]
    previous = [engine.subplan_cache for engine in engines]
    for engine in engines:
        engine.subplan_cache = cache
    try:
        yield
    finally:
        for engine, saved in zip(engines, previous):
            engine.subplan_cache = saved
