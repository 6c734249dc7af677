"""One campaign case: the picklable unit of work a pool worker runs.

A :class:`CaseTask` carries everything a worker needs (SQL text, oracle
names, dataset-evolution knobs); a :class:`CaseResult` carries back
counters plus at most one :class:`CaseBug` — the structural fingerprint
and fully-serialized minimized repro of the first oracle veto.  Both
directions are plain data so they cross the process boundary cheaply
and deterministically.

Fault injection (test-only) mirrors :mod:`repro.testing.faults` but is
keyed by *case index* so the driver's recovery paths are exercisable on
demand::

    XDATA_CAMPAIGN_FAULTS="3:crash,7:hang:30"
    XDATA_CAMPAIGN_FAULT_DIR=/tmp/markers   # optional: fire once

``crash`` hard-kills the worker (``os._exit``); ``hang`` sleeps for
``arg`` seconds (default 3600 — effectively forever next to any case
deadline).  With a marker directory set, each fault fires only on the
first attempt of its case (an ``O_EXCL`` marker file claims it), so the
requeued attempt succeeds and tests can assert full recovery.
"""

from __future__ import annotations

import functools
import os
import random
import time
from dataclasses import dataclass, field

from repro.backends import (
    BackendDisagreement,
    EngineBackend,
    SqliteBackend,
)
from repro.core.generator import XDataGenerator
from repro.datasets.university import university_schema
from repro.engine.database import Database
from repro.engine.plan import plan_fingerprint
from repro.errors import XDataError
from repro.memo import Memo
from repro.mutation.space import MutationSpace, enumerate_mutants

from repro.campaign.bugs import bug_fingerprint
from repro.campaign.oracles import OracleContext, build_oracles

__all__ = [
    "CaseBug",
    "CaseResult",
    "CaseTask",
    "FAULTS_ENV",
    "FAULT_DIR_ENV",
    "run_case",
]

FAULTS_ENV = "XDATA_CAMPAIGN_FAULTS"
FAULT_DIR_ENV = "XDATA_CAMPAIGN_FAULT_DIR"


@dataclass(frozen=True)
class CaseTask:
    """Worker input for one case.  Everything is picklable and small."""

    index: int
    sql: str
    oracles: tuple[str, ...]
    #: Forwarded to the SQLite reference (odd cases force the rewrites,
    #: mirroring the conformance corpus convention).
    force_join_rewrites: bool = False
    #: Dataset evolution: fraction of rows to drop from a copy of each
    #: generated dataset (0 disables the extra variants).
    dataset_drop: float = 0.0
    #: Seed for the worker-local RNG driving dataset evolution.
    drop_seed: int = 0


@dataclass
class OracleRun:
    """Per-oracle counters for one case (mirrors ``OracleOutcome``)."""

    oracle: str
    executions: int = 0
    checks: int = 0
    skipped: str | None = None


@dataclass
class CaseBug:
    """A serialized oracle veto: fingerprint plus minimized repro."""

    fingerprint: str
    oracle: str
    context: str
    sql: str
    #: table -> rows of the minimized repro dataset.
    minimized_dataset: dict
    #: label -> {"columns": [...], "rows": [...]} of the disagreeing bags.
    results: dict


@dataclass
class CaseResult:
    """Worker output for one case."""

    index: int
    sql: str
    executions: int = 0
    checks: int = 0
    skipped: str | None = None
    oracle_runs: list[OracleRun] = field(default_factory=list)
    bug: CaseBug | None = None
    elapsed: float = 0.0


def _maybe_fault(index: int) -> None:
    raw = os.environ.get(FAULTS_ENV, "")
    if not raw:
        return
    for entry in raw.split(","):
        parts = entry.strip().split(":")
        if len(parts) < 2 or int(parts[0]) != index:
            continue
        kind = parts[1]
        marker_dir = os.environ.get(FAULT_DIR_ENV)
        if marker_dir:
            marker = os.path.join(marker_dir, f"case{index}.{kind}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
            except FileExistsError:
                continue  # already fired once; let the retry succeed
        if kind == "crash":
            os._exit(3)
        if kind == "hang":
            time.sleep(float(parts[2]) if len(parts) > 2 else 3600.0)


def serialize_database(db: Database) -> dict:
    """Database -> ``{table: [row, ...]}`` (only nonempty tables)."""
    return {
        name: [list(row) for row in db.relation(name).rows]
        for name in db.table_names
        if len(db.relation(name))
    }


def _serialize_results(results: dict) -> dict:
    return {
        label: {
            "columns": list(relation.columns),
            "rows": [list(row) for row in relation.rows],
        }
        for label, relation in results.items()
    }


def _evolved_datasets(
    databases: list[Database], drop: float, seed: int
) -> list[Database]:
    """Row-drop variants: corpus evolution on the *data* axis.

    The generator's datasets are minimal by construction; dropping rows
    probes the boundary where a dataset stops distinguishing plans —
    precisely where incomplete-result bugs (lost dangling tuples, bad
    NULL padding) hide.  A drop that breaks referential integrity is
    discarded (validated per candidate): the backends enforce the
    schema's FKs on load, and an invalid instance tests nothing.
    """
    rng = random.Random(seed)
    variants: list[Database] = []
    for db in databases:
        if db.total_rows() < 2:
            continue
        clone = db.copy()
        dropped = False
        for name in clone.table_names:
            relation = clone.relation(name)
            if len(relation.rows) > 1 and rng.random() < drop:
                candidate = clone.copy()
                rows = candidate.relation(name).rows
                del rows[rng.randrange(len(rows))]
                try:
                    candidate.validate()
                except XDataError:
                    continue  # the dropped row had dependents; keep it
                clone = candidate
                dropped = True
        if dropped:
            variants.append(clone)
    return variants


@functools.lru_cache(maxsize=1)
def _university_schema():
    """The process's one university schema, built on first use.

    Every case of a worker shares it, so the memos kept on the schema
    instance (its canonical rendering, its SQLite DDL text) are paid
    for once per process rather than once per case.
    """
    return university_schema()


#: Prepared cases the :data:`_PREPARED` memo keeps.  One entry (the
#: generated datasets and the mutation space of one query) retains
#: about 21 KB on average (tracemalloc over the seed-1234 perfbench
#: campaign, whose 160 cases draw 29 distinct SQL texts), so a full
#: memo holds about 1.3 MB.
PREPARED_MEMO_SIZE = 64

#: Exact SQL text -> ``(datasets, mutation space)`` of the query, or the
#: skip reason its generation raised.  Both are pure functions of the
#: text (the schema is the process's one university schema and
#: ``GenConfig`` sets no deadline), so a worker generates each distinct
#: query once.  Keyed by the exact text, not by the canonical
#: fingerprint: a canonical key would hand a case the plans of another
#: spelling, with other aliases, and change what is fuzzed.
_PREPARED = Memo(PREPARED_MEMO_SIZE, name="campaign_case")


def _prepared(sql: str) -> tuple[tuple[Database, ...], MutationSpace] | str:
    """The memoized datasets and mutation space of ``sql``, or the
    reason generating them failed.

    The datasets are shared by every case of the same text: the oracles
    only read them, and row-drop variants are built from copies.
    """
    prepared = _PREPARED.get(sql)
    if prepared is None:
        try:
            suite = XDataGenerator(_university_schema()).generate(sql)
            space = enumerate_mutants(suite.analyzed, include_full_outer=True)
            prepared = (tuple(suite.databases), space)
        except XDataError as exc:
            prepared = f"{type(exc).__name__}: {exc}"
        _PREPARED.put(sql, prepared)
    return prepared


def run_case(task: CaseTask) -> CaseResult:
    """Generate datasets for ``task.sql`` and run every oracle.

    Generation and mutant enumeration run once per distinct SQL text in
    a process (:func:`_prepared`); the row-drop variants and every
    oracle run for every case.  Never raises for *case-level* problems
    (generation skips, oracle vetoes — both are data in the result);
    only infrastructure faults (injected crash/hang, pickling bugs)
    escape.
    """
    started = time.monotonic()
    _maybe_fault(task.index)
    result = CaseResult(task.index, task.sql)
    prepared = _prepared(task.sql)
    if isinstance(prepared, str):
        result.skipped = prepared
        result.elapsed = time.monotonic() - started
        return result
    generated, space = prepared
    databases = list(generated)
    if task.dataset_drop > 0:
        databases.extend(
            _evolved_datasets(databases, task.dataset_drop, task.drop_seed)
        )
    primary = EngineBackend()
    reference = (
        SqliteBackend(force_join_rewrites=task.force_join_rewrites)
        if "cross-check" in task.oracles
        else None
    )
    ctx = OracleContext(
        space=space,
        databases=databases,
        primary=primary,
        reference=reference,
        label=f"case {task.index}",
    )
    for oracle in build_oracles(task.oracles):
        try:
            outcome = oracle.check(ctx)
        except XDataError as exc:
            if not isinstance(exc, BackendDisagreement):
                # A pipeline-level refusal (capability gap, integrity
                # guard) is a case skip, not a finding and *not* an
                # infrastructure failure worth a worker strike.
                result.skipped = f"{type(exc).__name__}: {exc}"
                break
            minimized = oracle.minimize(exc, ctx)
            # Fingerprint over the *minimized* repro: original result
            # bags vary with whichever dataset happened to trip the
            # oracle, the minimized dataset converges across
            # rediscoveries of the same underlying bug.
            fingerprint = bug_fingerprint(
                exc.oracle,
                plan_fingerprint(exc.plan) if exc.plan is not None else "",
                serialize_database(minimized),
            )
            result.bug = CaseBug(
                fingerprint=fingerprint,
                oracle=exc.oracle,
                context=exc.context,
                sql=task.sql,
                minimized_dataset=serialize_database(minimized),
                results=_serialize_results(exc.results),
            )
            break
        result.executions += outcome.executions
        result.checks += outcome.checks
        result.oracle_runs.append(
            OracleRun(
                outcome.oracle,
                outcome.executions,
                outcome.checks,
                outcome.skipped,
            )
        )
    result.elapsed = time.monotonic() - started
    return result
