"""The shared Table I/II university workload, in one place.

The paper's evaluation workload — every Table I/II university query at
every Table I foreign-key variant — used to be rebuilt by hand in
``test_parallel.py``, ``test_killcheck.py``, ``test_subplan_cache.py``
and a parallel benchmark script, each with its own copy of the
schema-cache loop.  This module is the single source: tests import the
builders (or use the ``table12_jobs`` fixture from ``conftest.py``) so
the workload definition cannot drift between the differential suites
that all claim to cover "the full workload".
"""

from __future__ import annotations

from repro.datasets import UNIVERSITY_QUERIES, schema_with_fks

#: The instructor-teaches equijoin every kill-check suite exercises
#: (CORPUS[0] of the subplan-cache tests, the classification tests'
#: survivor query, Table II's Q1 shape).
INSTRUCTOR_TEACHES_JOIN = (
    "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"
)

#: Kill-check corpus: one query per §5g-relevant plan shape (plain
#: join, outer join + filter, three-way join, aggregate + HAVING).
KILLCHECK_CORPUS = [
    INSTRUCTOR_TEACHES_JOIN,
    (
        "SELECT i.name FROM instructor i LEFT OUTER JOIN teaches t "
        "ON i.id = t.id WHERE i.salary > 70000"
    ),
    (
        "SELECT * FROM instructor i JOIN teaches t ON i.id = t.id "
        "JOIN course c ON t.course_id = c.course_id"
    ),
    (
        "SELECT t.course_id, COUNT(*), AVG(i.salary) FROM instructor i, "
        "teaches t WHERE i.id = t.id GROUP BY t.course_id "
        "HAVING COUNT(*) > 1"
    ),
    "SELECT * FROM instructor NATURAL JOIN teaches",
    (
        "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id "
        "AND i.salary IS NULL"
    ),
]


def suite_fingerprint(suite):
    """Everything observable about a suite, in order, byte for byte."""
    return (
        suite.sql,
        [
            (
                d.group,
                d.target,
                d.purpose,
                d.relaxation,
                d.used_input_db,
                d.db.pretty(only_nonempty=False),
            )
            for d in suite.datasets
        ],
        [(s.group, s.target, s.reason) for s in suite.skipped],
    )


def schema_teaches_fk():
    """The university schema keeping only the teaches.id -> instructor
    foreign key (the Table I variant the classification and workload
    entry-point tests pin)."""
    return schema_with_fks(["teaches.id"])


def uni_query(name: str):
    """(schema, sql) for one Table II query at its last (most
    constrained) Table I foreign-key variant."""
    info = UNIVERSITY_QUERIES[name]
    return schema_with_fks(info["fk_rows"][-1]), info["sql"]


def table12_labelled_jobs():
    """The full workload as ``(label, schema, sql)``: one job per Table II
    query per Table I foreign-key variant, labelled ``Q<n>[<fk edges>]``,
    schemas shared across jobs with the same variant."""
    schema_cache: dict[tuple, object] = {}
    jobs = []
    for name, info in UNIVERSITY_QUERIES.items():
        for fk_rows in info["fk_rows"]:
            key = tuple(fk_rows)
            if key not in schema_cache:
                schema_cache[key] = schema_with_fks(fk_rows)
            label = f"{name}[{','.join(fk_rows)}]"
            jobs.append((label, schema_cache[key], info["sql"]))
    return jobs


def table12_jobs():
    """The full workload: one (schema, sql) job per Table II query per
    Table I foreign-key variant, in :func:`table12_labelled_jobs` order.
    Returns (jobs, distinct schema count)."""
    jobs = [(schema, sql) for _, schema, sql in table12_labelled_jobs()]
    return jobs, len({id(schema) for schema, _ in jobs})
