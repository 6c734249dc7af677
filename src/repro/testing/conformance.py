"""Randomized cross-backend conformance harness (DESIGN.md §5f).

Seeded query generation over the mutation grammar — joins of all four
types (inner/left/right/full, plus NATURAL variants), comparison
conjuncts, aggregates with HAVING, NULL tests — feeding the *normal*
data-generation pipeline, then asserting that the in-process engine and
the SQLite backend agree on the original query **and every mutant in
its mutation space**, on every generated dataset.

Any split raises :class:`repro.backends.BackendDisagreement` with a
row-minimized repro dataset attached (via
:func:`repro.testing.minimize.minimize_dataset`), so a conformance
failure is immediately actionable: seed, SQL, SQLite rendering, and the
smallest dataset that still tells the two apart.

Half the corpus (odd seeds by default) runs SQLite with
``force_join_rewrites=True`` so the RIGHT/FULL compatibility rewrites
are exercised even on a modern SQLite with native outer joins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.backends import (
    BackendDisagreement,
    CrossChecker,
    EngineBackend,
    SqliteBackend,
)
from repro.core.generator import GenConfig, XDataGenerator
from repro.datasets.university import university_sample_database, university_schema
from repro.engine.database import Database
from repro.engine.subplan import SubplanCache
from repro.errors import XDataError
from repro.mutation.space import enumerate_mutants, mutant_order
from repro.schema.catalog import Schema
from repro.testing.killcheck import attached_subplan_cache

#: Single-column equi-join edges of the university schema, as
#: (left "table alias", right "table alias", join condition) triples.
_EDGES = [
    ("instructor i", "teaches t", "i.id = t.id"),
    ("teaches t", "course c", "t.course_id = c.course_id"),
    ("student s", "takes k", "s.id = k.id"),
    ("takes k", "course c", "k.course_id = c.course_id"),
    ("course c", "department d", "c.dept_name = d.dept_name"),
    ("instructor i", "department d", "i.dept_name = d.dept_name"),
    ("student s", "department d", "s.dept_name = d.dept_name"),
    ("advisor a", "student s", "a.s_id = s.id"),
    ("advisor a", "instructor i", "a.i_id = i.id"),
    ("prereq p", "course c", "p.course_id = c.course_id"),
]

#: Three-table chains: two edges sharing the middle relation.
_CHAINS = [
    ("instructor i", "teaches t", "course c",
     "i.id = t.id", "t.course_id = c.course_id"),
    ("student s", "takes k", "course c",
     "s.id = k.id", "k.course_id = c.course_id"),
    ("teaches t", "course c", "department d",
     "t.course_id = c.course_id", "c.dept_name = d.dept_name"),
    ("advisor a", "student s", "department d",
     "a.s_id = s.id", "s.dept_name = d.dept_name"),
    ("prereq p", "course c", "department d",
     "p.course_id = c.course_id", "c.dept_name = d.dept_name"),
]

#: NATURAL-joinable pairs (shared column names the engine coalesces).
_NATURAL_PAIRS = [
    ("teaches t", "takes k"),      # id, course_id
    ("instructor i", "student s"),  # id, name, dept_name
    ("prereq p", "takes k"),        # course_id
]

#: Numeric columns usable in comparison conjuncts and aggregates, with a
#: plausible constant range: alias.column -> (low, high, step).
_NUMERIC = {
    "i.salary": (40000, 100000, 5000),
    "t.year": (2005, 2012, 1),
    "c.credits": (1, 5, 1),
    "s.tot_cred": (0, 130, 10),
    "d.budget": (50000, 120000, 10000),
    "cl.capacity": (10, 500, 30),
}

#: Nullable, non-key columns usable in IS [NOT] NULL conjuncts.
_NULLABLE = {
    "i": ["salary", "name"],
    "t": ["sec_id", "semester", "year"],
    "c": ["title", "credits"],
    "s": ["tot_cred", "name"],
    "d": ["budget"],
    "k": ["grade"],
}

#: Enumerated-domain VARCHAR columns for string-comparison conjuncts.
_DOMAIN = {
    "i.dept_name": "department:dept_name",
    "s.dept_name": "department:dept_name",
    "c.dept_name": "department:dept_name",
    "t.semester": "teaches:semester",
    "k.grade": "takes:grade",
}

_COMPARISON_OPS = ("=", "<", ">", "<=", ">=", "<>")
_AGG_FUNCS = ("MIN", "MAX", "SUM", "AVG", "COUNT")
_JOIN_SYNTAX = ("JOIN", "LEFT OUTER JOIN", "RIGHT OUTER JOIN", "FULL OUTER JOIN")

#: GROUP BY columns per alias (never nullable-FK, always intuitive).
_GROUP_COLS = {
    "i": "i.dept_name",
    "s": "s.dept_name",
    "c": "c.dept_name",
    "t": "t.semester",
    "k": "k.grade",
    "d": "d.building",
}


def _aliases(refs: list[str]) -> list[str]:
    return [ref.split()[1] for ref in refs]


def _numeric_conjunct(rng: random.Random, aliases: list[str]) -> str | None:
    candidates = [
        key for key in _NUMERIC if key.split(".")[0] in aliases
    ]
    if not candidates:
        return None
    key = rng.choice(candidates)
    low, high, step = _NUMERIC[key]
    constant = rng.randrange(low, high + 1, step)
    op = rng.choice(_COMPARISON_OPS)
    return f"{key} {op} {constant}"


def _domain_conjunct(
    rng: random.Random, schema: Schema, aliases: list[str]
) -> str | None:
    candidates = [
        key for key in _DOMAIN if key.split(".")[0] in aliases
    ]
    if not candidates:
        return None
    key = rng.choice(candidates)
    table, column = _DOMAIN[key].split(":")
    domain = schema.table(table).column(column).domain
    if not domain:
        return None
    value = rng.choice(domain)
    op = rng.choice(("=", "<>"))
    return f"{key} {op} '{value}'"


def _null_conjunct(rng: random.Random, aliases: list[str]) -> str | None:
    candidates = [a for a in aliases if a in _NULLABLE]
    if not candidates:
        return None
    alias = rng.choice(candidates)
    column = rng.choice(_NULLABLE[alias])
    keyword = rng.choice(("IS NULL", "IS NOT NULL"))
    return f"{alias}.{column} {keyword}"


def _filters(
    rng: random.Random, schema: Schema, aliases: list[str], budget: int
) -> list[str]:
    out: list[str] = []
    for _ in range(budget):
        kind = rng.random()
        if kind < 0.55:
            conjunct = _numeric_conjunct(rng, aliases)
        elif kind < 0.8:
            conjunct = _domain_conjunct(rng, schema, aliases)
        else:
            conjunct = _null_conjunct(rng, aliases)
        if conjunct and conjunct not in out:
            out.append(conjunct)
    return out


def sample_conformance_query(rng: random.Random, schema: Schema) -> str:
    """Draw one SQL query from the conformance grammar.

    The grammar stays inside the intersection of the pipeline's query
    class and the engine/SQLite common semantic subset (DESIGN.md §5f
    lists the excluded constructs).
    """
    shape = rng.random()
    if shape < 0.20:
        # Single-table selection.
        table = rng.choice(
            [("instructor", "i"), ("student", "s"), ("course", "c"),
             ("department", "d"), ("teaches", "t")]
        )
        aliases = [table[1]]
        where = _filters(rng, schema, aliases, rng.randint(1, 2))
        sql = f"SELECT * FROM {table[0]} {table[1]}"
        if where:
            sql += " WHERE " + " AND ".join(where)
        return sql
    if shape < 0.45:
        # Two-table join, all four explicit kinds or comma syntax.
        left, right, condition = rng.choice(_EDGES)
        aliases = _aliases([left, right])
        extra = _filters(rng, schema, aliases, rng.randint(0, 2))
        if rng.random() < 0.4:
            where = [condition] + extra
            return (
                f"SELECT * FROM {left}, {right} WHERE " + " AND ".join(where)
            )
        kind = rng.choice(_JOIN_SYNTAX)
        sql = f"SELECT * FROM {left} {kind} {right} ON {condition}"
        if extra:
            sql += " WHERE " + " AND ".join(extra)
        return sql
    if shape < 0.55:
        # NATURAL join (optionally outer).
        left, right = rng.choice(_NATURAL_PAIRS)
        kind = rng.choice(("JOIN", "LEFT OUTER JOIN", "RIGHT OUTER JOIN",
                           "FULL OUTER JOIN"))
        sql = f"SELECT * FROM {left} NATURAL {kind} {right}"
        extra = _filters(rng, schema, _aliases([left, right]), rng.randint(0, 1))
        if extra:
            sql += " WHERE " + " AND ".join(extra)
        return sql
    if shape < 0.75:
        # Three-table chain (comma syntax: the join-order mutant space).
        t1, t2, t3, c12, c23 = rng.choice(_CHAINS)
        aliases = _aliases([t1, t2, t3])
        where = [c12, c23] + _filters(rng, schema, aliases, rng.randint(0, 2))
        return (
            f"SELECT * FROM {t1}, {t2}, {t3} WHERE " + " AND ".join(where)
        )
    # Aggregation, over one table or a two-table join.
    if rng.random() < 0.5:
        left, right, condition = rng.choice(_EDGES)
        refs, join_where = [left, right], [condition]
    else:
        table = rng.choice(
            [("instructor", "i"), ("student", "s"), ("course", "c"),
             ("department", "d")]
        )
        refs, join_where = [f"{table[0]} {table[1]}"], []
    aliases = _aliases(refs)
    group_candidates = [
        _GROUP_COLS[a] for a in aliases if a in _GROUP_COLS
    ]
    group_col = rng.choice(group_candidates)
    numeric_candidates = [
        key for key in _NUMERIC if key.split(".")[0] in aliases
    ]
    func = rng.choice(_AGG_FUNCS)
    if func == "COUNT" and (not numeric_candidates or rng.random() < 0.5):
        agg = "COUNT(*)"
    else:
        target = (
            rng.choice(numeric_candidates)
            if numeric_candidates
            else f"{aliases[0]}.{_NULLABLE.get(aliases[0], ['name'])[0]}"
        )
        if func in ("SUM", "AVG") and not numeric_candidates:
            func = "COUNT"
        agg = f"{func}({target})"
    where = join_where + _filters(rng, schema, aliases, rng.randint(0, 1))
    sql = f"SELECT {group_col}, {agg} FROM " + ", ".join(refs)
    if where:
        sql += " WHERE " + " AND ".join(where)
    sql += f" GROUP BY {group_col}"
    if rng.random() < 0.4:
        count_target = (
            rng.choice(numeric_candidates)
            if numeric_candidates
            else group_col
        )
        sql += f" HAVING COUNT({count_target}) > {rng.randint(0, 3)}"
    return sql


@dataclass
class ConformanceCase:
    """One seeded conformance case's outcome."""

    seed: int
    sql: str
    skipped: str | None = None
    force_join_rewrites: bool = False
    mutants: int = 0
    datasets: int = 0
    #: Cross-checked (engine + SQLite) plan executions performed.
    executions: int = 0

    @property
    def checked(self) -> bool:
        return self.skipped is None


@dataclass
class ConformanceReport:
    """Aggregate outcome of a conformance corpus run."""

    cases: list[ConformanceCase] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return sum(1 for c in self.cases if c.checked)

    @property
    def skipped(self) -> int:
        return len(self.cases) - self.checked

    @property
    def executions(self) -> int:
        return sum(c.executions for c in self.cases)

    def summary(self) -> str:
        return (
            f"conformance: {self.checked}/{len(self.cases)} cases checked "
            f"({self.skipped} skipped), {self.executions} cross-checked "
            f"executions, 0 disagreements"
        )


def _still_disagrees(plan, primary, reference):
    """A predicate over datasets: do the backends still split on ``plan``?

    Each candidate runs the primary on the same path the split was
    found on: a fresh :class:`SubplanCache` scoped to that one
    candidate, so a fault only the cached engine has still reproduces,
    and no entry outlives the candidate whose ``id`` keys it (the
    minimizer builds and drops many short-lived datasets).
    """
    from repro.testing.killcheck import result_signature

    def predicate(db: Database) -> bool:
        handles = []
        try:
            with attached_subplan_cache((primary,), SubplanCache()):
                signatures = []
                for backend in (primary, reference):
                    handle = backend.load(db)
                    handles.append((backend, handle))
                    signatures.append(
                        result_signature(backend.execute(handle, plan))
                    )
            return signatures[0] != signatures[1]
        finally:
            for backend, handle in handles:
                backend.close(handle)

    return predicate


def cross_check_space(space, databases, primary, reference, label: str) -> int:
    """Dual-execute the original plan and every mutant over every dataset.

    The shared execution core of the conformance harness and the
    campaign's cross-check oracle.  It owns one batch
    :class:`SubplanCache`: the original plan and every mutant are
    registered once, and the cache is attached to the primary for the
    call (:func:`attached_subplan_cache` gives the primary its previous
    cache back on the way out), so the engine side runs the same slot
    path as grading (DESIGN.md §5g) while SQLite re-executes every tree
    as an independent evaluation.  One :class:`CrossChecker` pass per
    dataset in cache-friendly mutant order, releasing backend handles
    and the dataset's cache entries before moving on.  Returns the
    number of cross-checked executions; raises
    :class:`BackendDisagreement` on the first split, *without*
    minimizing (the caller owns minimization, which runs after the
    batch cache is detached).

    Unlike the cached :func:`~repro.testing.killcheck.evaluate_suite`,
    it executes every mutant, not one per result class: each join
    order is its own SQL text and its own engine plan, so every member
    of a class is a distinct differential test of both backends, and
    the campaign's coverage and counts depend on running them all.
    """
    plan = space.original_plan
    order = mutant_order(space.mutants)
    cache = SubplanCache()
    cache.register(plan)
    for mutant in space.mutants:
        cache.register(mutant.plan)
    executions = 0
    with attached_subplan_cache((primary,), cache), CrossChecker(
        primary, reference
    ) as checker:
        for db in databases:
            checker.signature(plan, db, f"{label}: original query")
            executions += 1
            for i in order:
                mutant = space.mutants[i]
                checker.signature(
                    mutant.plan,
                    db,
                    f"{label}: mutant [{mutant.kind}] {mutant.description}",
                )
                executions += 1
            checker.release(db)
            cache.drop_dataset(db)
    return executions


def run_conformance_case(
    seed: int,
    schema: Schema | None = None,
    config: GenConfig | None = None,
    force_join_rewrites: bool | None = None,
    include_sample_db: bool = False,
) -> ConformanceCase:
    """Generate, mutate, and cross-check one seeded case.

    Draws a query with ``random.Random(seed)``, runs the normal
    generation pipeline, and executes the original plan and every
    mutant on both backends over every generated dataset.  Returns the
    case record; raises :class:`BackendDisagreement` (with a minimized
    repro dataset attached) on any split.

    Args:
        seed: RNG seed; also decides the rewrite mode when
            ``force_join_rewrites`` is None (odd seeds force rewrites).
        schema: Defaults to the university schema.
        config: Generator configuration.
        include_sample_db: Also cross-check over the bundled sample
            instance (more rows; used by the slow sweep).
    """
    rng = random.Random(seed)
    schema = schema or university_schema()
    sql = sample_conformance_query(rng, schema)
    if force_join_rewrites is None:
        force_join_rewrites = bool(seed % 2)
    case = ConformanceCase(seed, sql, force_join_rewrites=force_join_rewrites)
    try:
        suite = XDataGenerator(schema, config).generate(sql)
        space = enumerate_mutants(suite.analyzed, include_full_outer=True)
    except XDataError as exc:
        case.skipped = f"{type(exc).__name__}: {exc}"
        return case
    databases = list(suite.databases)
    if include_sample_db:
        databases.append(university_sample_database(schema))
    primary = EngineBackend()
    reference = SqliteBackend(force_join_rewrites=force_join_rewrites)
    try:
        case.executions = cross_check_space(
            space, databases, primary, reference, f"seed {seed}"
        )
    except BackendDisagreement as exc:
        if exc.plan is not None:
            exc.minimized = minimize_disagreement(exc, primary, reference)
        raise
    case.mutants = len(space.mutants)
    case.datasets = len(databases)
    return case


def minimize_disagreement(
    exc: BackendDisagreement, primary, reference
) -> Database:
    """Shrink a disagreement's dataset while both backends still split."""
    from repro.testing.minimize import minimize_dataset

    return minimize_dataset(
        exc.dataset, _still_disagrees(exc.plan, primary, reference)
    )


def run_conformance_corpus(
    seeds,
    schema: Schema | None = None,
    config: GenConfig | None = None,
    force_join_rewrites: bool | None = None,
    include_sample_db: bool = False,
) -> ConformanceReport:
    """Run :func:`run_conformance_case` for every seed.

    Raises on the first disagreement (the exception carries the full
    repro); otherwise returns the aggregate report.
    """
    schema = schema or university_schema()
    report = ConformanceReport()
    for seed in seeds:
        report.cases.append(
            run_conformance_case(
                seed,
                schema=schema,
                config=config,
                force_join_rewrites=force_join_rewrites,
                include_sample_db=include_sample_db,
            )
        )
    return report
