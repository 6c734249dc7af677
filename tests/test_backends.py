"""Backend contract tests: engine vs SQLite (DESIGN.md §5f).

Every backend must produce the same result bags on the university
workload, reject exactly the datasets the engine's integrity checker
rejects, and report identical kill verdicts for the paper's walkthrough
query.  SQLite is exercised both with native outer joins and with the
RIGHT/FULL compatibility rewrites forced on.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.backends import sqlite as sqlite_backend
from repro.backends import (
    BACKENDS,
    Backend,
    BackendDisagreement,
    BackendError,
    CrossChecker,
    EngineBackend,
    SqliteBackend,
    SqliteHandle,
    resolve_backend,
    schema_to_sqlite_ddl,
    undeclarable_foreign_keys,
)
from repro.datasets.university import UNIVERSITY_QUERIES
from repro.engine.database import Database
from repro.engine.plan import compile_query
from repro.engine.relation import Relation
from repro.errors import IntegrityError
from repro.mutation import enumerate_mutants
from repro.schema.catalog import Column, Schema, Table
from repro.schema.types import SqlType
from repro.sql.parser import parse_query
from repro.testing.killcheck import evaluate_suite, result_signature

FIG1_QUERY = (
    "SELECT * FROM instructor i, teaches t, course c "
    "WHERE i.id = t.id AND t.course_id = c.course_id"
)

BACKEND_FACTORIES = {
    "engine": EngineBackend,
    "sqlite": SqliteBackend,
    "sqlite-rewrites": lambda: SqliteBackend(force_join_rewrites=True),
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend(request):
    return BACKEND_FACTORIES[request.param]()


def signature_on(backend, db, sql):
    plan = compile_query(parse_query(sql))
    handle = backend.load(db)
    try:
        return result_signature(backend.execute(handle, plan))
    finally:
        backend.close(handle)


# ---------------------------------------------------------------------------
# Result-bag agreement on the bundled workload.


@pytest.mark.parametrize("name", sorted(UNIVERSITY_QUERIES))
def test_university_queries_agree_with_engine(backend, name, uni_db):
    sql = UNIVERSITY_QUERIES[name]["sql"]
    expected = signature_on(EngineBackend(), uni_db, sql)
    assert signature_on(backend, uni_db, sql) == expected


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM advisor a RIGHT OUTER JOIN student s ON a.s_id = s.id",
        "SELECT * FROM advisor a FULL OUTER JOIN instructor i ON a.i_id = i.id",
        "SELECT * FROM teaches t NATURAL FULL OUTER JOIN takes k",
        "SELECT i.dept_name, AVG(i.salary), COUNT(*) FROM instructor i "
        "GROUP BY i.dept_name HAVING COUNT(i.id) > 1",
        "SELECT i.name, i.salary / 3 FROM instructor i",
    ],
)
def test_dialect_shims_agree_with_engine(backend, sql, uni_db):
    expected = signature_on(EngineBackend(), uni_db, sql)
    assert signature_on(backend, uni_db, sql) == expected


# ---------------------------------------------------------------------------
# Integrity parity: SQLite's declarative constraints reject exactly the
# datasets the engine's integrity checker rejects.


def _violating_databases(uni_schema):
    dup_pk = Database(uni_schema)
    dup_pk.insert("department", ("Taylor", "Physics", 100000))
    dup_pk.insert("department", ("Watson", "Physics", 90000))

    null_pk = Database(uni_schema)
    null_pk.insert("department", ("Taylor", None, 100000))

    dangling_fk = Database(uni_schema)
    dangling_fk.insert("department", ("Taylor", "Physics", 100000))
    dangling_fk.insert("instructor", ("10101", "Smith", "History", 60000))
    return {"dup-pk": dup_pk, "null-pk": null_pk, "dangling-fk": dangling_fk}


@pytest.mark.parametrize("kind", ["dup-pk", "null-pk", "dangling-fk"])
def test_invalid_datasets_rejected_by_every_backend(backend, kind, uni_schema):
    db = _violating_databases(uni_schema)[kind]
    with pytest.raises(IntegrityError):
        db.validate()
    with pytest.raises(IntegrityError):
        backend.load(db)


def test_valid_dataset_loads_on_every_backend(backend, uni_db):
    handle = backend.load(uni_db)
    try:
        assert handle is not None
    finally:
        backend.close(handle)


def test_sqlite_enforces_foreign_keys_pragma(uni_db):
    backend = SqliteBackend()
    handle = backend.load(uni_db)
    try:
        assert isinstance(handle, SqliteHandle)
        (enabled,) = handle.conn.execute("PRAGMA foreign_keys").fetchone()
        assert enabled == 1
    finally:
        backend.close(handle)


class TestSchemaTemplate:
    """``SqliteBackend.load`` clones each dataset's tables from one
    template database per DDL text; a clone must enforce exactly what
    running the DDL on a fresh connection enforced."""

    @pytest.mark.parametrize("kind", ["dup-pk", "null-pk", "dangling-fk"])
    def test_clones_reject_what_the_ddl_rejects(self, kind, uni_schema, uni_db):
        backend = SqliteBackend()
        backend.close(backend.load(uni_db))  # the template now exists
        with pytest.raises(IntegrityError):
            backend.load(_violating_databases(uni_schema)[kind])

    def test_clones_are_independent(self, uni_db):
        backend = SqliteBackend()
        one, two = backend.load(uni_db), backend.load(uni_db)
        try:
            count = "SELECT COUNT(*) FROM department"
            (before,) = two.conn.execute(count).fetchone()
            one.conn.execute(
                "INSERT INTO department VALUES ('Astro', 'Taylor', 1)"
            )
            assert one.conn.execute(count).fetchone() == (before + 1,)
            assert two.conn.execute(count).fetchone() == (before,)
            for handle in (one, two):
                (enabled,) = handle.conn.execute(
                    "PRAGMA foreign_keys"
                ).fetchone()
                assert enabled == 1
        finally:
            backend.close(one)
            backend.close(two)

    def test_concurrent_loads_all_succeed(self):
        # A DDL text no other test uses, so the threads race to create
        # its template as well as to clone it.
        schema = Schema([Table(
            "concurrent_load",
            [Column("a", SqlType.INT), Column("b", SqlType.INT)],
            primary_key=("a",),
        )])
        barrier = threading.Barrier(4)
        counts, errors = [], []

        def load():
            db = Database(schema)
            db.insert_rows("concurrent_load", [(1, 2), (3, 4)])
            backend = SqliteBackend()
            try:
                barrier.wait()
                for _ in range(5):
                    handle = backend.load(db)
                    counts.append(handle.conn.execute(
                        "SELECT COUNT(*) FROM concurrent_load"
                    ).fetchone()[0])
                    backend.close(handle)
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=load) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert counts == [2] * 20
        # The racing threads created one template, not one each.
        assert sum(
            "concurrent_load" in ddl
            for ddl, _ in sqlite_backend._TEMPLATES.items()
        ) == 1

    def test_forked_child_loads_without_the_parents_lock(self, uni_db):
        """A child forked while the parent holds the template lock (or
        owns template connections) starts with its own: its load neither
        waits on the parent's lock nor uses the parent's connections."""
        import os
        import time

        backend = SqliteBackend()
        backend.close(backend.load(uni_db))
        templates = sqlite_backend._TEMPLATES
        # Another thread holds the lock: the forking thread could
        # re-enter the reentrant lock, so holding it here proves nothing.
        held, release = threading.Event(), threading.Event()

        def hold():
            with templates.lock:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait()
        try:
            pid = os.fork()
            if pid == 0:  # the child: exit 0 only if the load worked
                code = 1
                try:
                    if len(templates) == 0:
                        backend.close(backend.load(uni_db))
                        code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 20
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child's load hung")
                time.sleep(0.01)
        finally:
            release.set()
            holder.join()
        assert os.waitstatus_to_exitcode(status) == 0
        assert len(templates) >= 1  # the parent keeps its templates

    def test_loaded_schema_still_pickles(self, uni_schema, uni_db):
        backend = SqliteBackend()
        backend.close(backend.load(uni_db))
        copy = pickle.loads(pickle.dumps(uni_schema))
        assert copy.table_names == uni_schema.table_names
        assert schema_to_sqlite_ddl(copy) == schema_to_sqlite_ddl(uni_schema)

    def test_template_map_is_bounded(self):
        backend = SqliteBackend()
        templates = sqlite_backend._TEMPLATES
        assert templates.limit == 32
        for index in range(templates.limit + 8):
            schema = Schema([Table(
                f"bounded_{index}", [Column("a", SqlType.INT)],
                primary_key=("a",),
            )])
            backend.close(backend.load(Database(schema)))
        assert len(templates) <= templates.limit


def _parity_plans(space):
    """The original plan, every mutant, the duplicate-sensitivity
    transforms of each, and the join-identity variants of the original:
    every plan tree a campaign case hands the SQLite backend."""
    from repro.campaign.oracles import (
        _STAR_ITEMS,
        _VARIANTS,
        _plan_joins,
        duplicate_sensitivity_transforms,
    )
    from repro.engine.plan import ProjectNode

    plans = [space.original_plan] + [m.plan for m in space.mutants]
    for plan in list(plans):
        plans.extend(t for _, t in duplicate_sensitivity_transforms(plan))
    for join in _plan_joins(space.original_plan):
        plans.extend(
            ProjectNode(join.with_kind(kind), _STAR_ITEMS)
            for _, kind in _VARIANTS
        )
    return plans


@pytest.mark.slow
def test_equal_fingerprints_render_identical_sql(table12_jobs):
    """The render memo's key, pinned: over the Table I/II jobs and
    conformance seeds 0-199, in native and in rewrite mode, plans with
    equal ``plan_fingerprint`` render byte-identical SQL and names, and
    the memoized rendering is the printer's."""
    import random

    from repro.datasets.university import university_schema
    from repro.engine.plan import plan_fingerprint
    from repro.errors import XDataError
    from repro.testing.conformance import sample_conformance_query

    university = university_schema()
    jobs = list(table12_jobs) + [
        (university, sample_conformance_query(random.Random(seed), university))
        for seed in range(200)
    ]
    modes = {(sqlite_backend.NATIVE_OUTER_JOINS,) * 2, (False, False)}
    renders: dict[tuple, tuple] = {}
    plans = 0
    for schema, sql in jobs:
        try:
            space = enumerate_mutants(sql, schema, include_full_outer=True)
        except XDataError:
            continue
        ddl = schema_to_sqlite_ddl(schema)
        for plan in _parity_plans(space):
            plans += 1
            for native_right, native_full in modes:
                printer = sqlite_backend._PlanPrinter(
                    schema, native_right, native_full
                )
                sql_text, names = printer.render_plan(plan)
                rendered = (sql_text, tuple(names))
                key = (ddl, native_right, native_full, plan_fingerprint(plan))
                assert renders.setdefault(key, rendered) == rendered, sql
                assert sqlite_backend._rendered(
                    schema, native_right, native_full, plan
                ) == rendered, sql
    # The corpus repeats plans under fresh objects, so the key is
    # actually exercised across distinct trees.
    assert plans > len(renders) // len(modes) > 1000


def test_sqlite_backend_holds_no_per_instance_sql(uni_db):
    """Rendered SQL lives in the process memo, shared by instances."""
    plan = compile_query(parse_query(FIG1_QUERY))
    first, second = SqliteBackend(), SqliteBackend()
    for backend in (first, second):
        handle = backend.load(uni_db)
        backend.execute(handle, plan)
        backend.close(handle)
    assert not hasattr(first, "_sql_cache")
    assert not any(isinstance(v, dict) for v in vars(first).values())
    assert first.sql_of(plan) == second.sql_of(plan)
    assert first.sql_of(plan) is second.sql_of(plan)


class TestEngineValidation:
    """``EngineBackend.load`` validates each dataset object once."""

    def test_repeated_loads_validate_once(self, uni_db, monkeypatch):
        from repro.engine import integrity

        calls = []
        real = integrity.find_violations
        monkeypatch.setattr(
            integrity, "find_violations",
            lambda db: calls.append(db) or real(db),
        )
        backend = EngineBackend()
        for _ in range(3):
            backend.close(backend.load(uni_db))
        assert calls == [uni_db]

    def test_mutated_copy_is_still_rejected(self, uni_db):
        backend = EngineBackend()
        backend.close(backend.load(uni_db))
        dangling = uni_db.copy()
        dangling.insert("instructor", ("99999", "Nobody", "NoSuchDept", 1))
        with pytest.raises(IntegrityError):
            backend.load(dangling)

    def test_still_pickles(self):
        copy = pickle.loads(pickle.dumps(EngineBackend()))
        assert isinstance(copy, EngineBackend) and copy.subplan_cache is None


def test_university_foreign_keys_all_declarable(uni_schema):
    assert undeclarable_foreign_keys(uni_schema) == []
    ddl = schema_to_sqlite_ddl(uni_schema)
    assert ddl.count("FOREIGN KEY") == sum(
        len(t.foreign_keys) for t in uni_schema.tables
    )
    assert "WITHOUT ROWID" in ddl


# ---------------------------------------------------------------------------
# Registry and capabilities.


def test_resolve_backend_registry():
    assert isinstance(resolve_backend(None), EngineBackend)
    assert isinstance(resolve_backend("sqlite"), SqliteBackend)
    assert isinstance(resolve_backend("Engine"), EngineBackend)
    instance = SqliteBackend()
    assert resolve_backend(instance) is instance
    with pytest.raises(BackendError, match="engine"):
        resolve_backend("postgres")
    assert set(BACKENDS) == {"engine", "sqlite"}


def test_backends_satisfy_protocol(backend):
    assert isinstance(backend, Backend)
    assert backend.name in ("engine", "sqlite")
    assert backend.capabilities().natural_join


# ---------------------------------------------------------------------------
# Cross-check oracle: agreement is silent, disagreement is structured.


class _LyingBackend(SqliteBackend):
    """A SQLite backend that drops one row from every result."""

    def execute(self, handle, plan):
        relation = super().execute(handle, plan)
        return Relation(list(relation.columns), list(relation.rows[1:]))


def test_cross_checker_passes_when_backends_agree(uni_db):
    plan = compile_query(parse_query(UNIVERSITY_QUERIES["Q1"]["sql"]))
    with CrossChecker(EngineBackend(), SqliteBackend()) as checker:
        signature = checker.signature(plan, uni_db, "Q1")
    assert signature == signature_on(EngineBackend(), uni_db,
                                     UNIVERSITY_QUERIES["Q1"]["sql"])


def test_cross_checker_signs_each_result_once(uni_db, monkeypatch):
    """One shadowed execution signs one result per backend: the
    signature the comparison computed is the one returned."""
    from repro.testing import killcheck

    signed = []
    real = killcheck.result_signature

    def counting(relation):
        signed.append(relation)
        return real(relation)

    monkeypatch.setattr(killcheck, "result_signature", counting)
    plan = compile_query(parse_query(UNIVERSITY_QUERIES["Q1"]["sql"]))
    with CrossChecker(EngineBackend(), SqliteBackend()) as checker:
        signature = checker.signature(plan, uni_db, "Q1")
    assert len(signed) == 2
    assert signature == real(signed[0])


def test_cross_checker_raises_structured_disagreement(uni_db):
    plan = compile_query(parse_query(UNIVERSITY_QUERIES["Q1"]["sql"]))
    with CrossChecker(EngineBackend(), _LyingBackend()) as checker:
        with pytest.raises(BackendDisagreement) as excinfo:
            checker.signature(plan, uni_db, "Q1 original")
    exc = excinfo.value
    assert exc.context == "Q1 original"
    assert exc.dataset is uni_db
    assert set(exc.results) == {"engine", "sqlite"}
    assert "SELECT" in exc.sql
    assert exc.plan == plan
    detail = exc.detail()
    assert "Q1 original" in detail
    assert "engine result" in detail and "sqlite result" in detail


# ---------------------------------------------------------------------------
# Kill-verdict equivalence on the paper's walkthrough query.


def test_fig1_kill_verdicts_identical_across_backends(uni_schema):
    from repro.core.generator import XDataGenerator

    suite = XDataGenerator(uni_schema).generate(FIG1_QUERY)
    space = enumerate_mutants(suite.analyzed, include_full_outer=True)
    verdicts = {}
    for spec in (None, "engine", "sqlite"):
        report = evaluate_suite(space, suite.databases, backend=spec)
        verdicts[spec] = [o.killed for o in report.outcomes]
    assert verdicts[None] == verdicts["engine"] == verdicts["sqlite"]
    cross = evaluate_suite(
        space, suite.databases, backend="sqlite", cross_check=True
    )
    assert [o.killed for o in cross.outcomes] == verdicts[None]
    forced = evaluate_suite(
        space, suite.databases,
        backend=SqliteBackend(force_join_rewrites=True),
    )
    assert [o.killed for o in forced.outcomes] == verdicts[None]


@pytest.mark.slow
def test_university_kill_matrices_identical_across_backends(uni_schema):
    """Every Table I/II suite, FULL OUTER mutants included: the engine,
    SQLite and the cross-checking pair kill exactly the same mutants
    with exactly the same datasets."""
    from repro.core.generator import XDataGenerator

    generator = XDataGenerator(uni_schema)
    for name in sorted(UNIVERSITY_QUERIES):
        suite = generator.generate(UNIVERSITY_QUERIES[name]["sql"])
        space = enumerate_mutants(suite.analyzed, include_full_outer=True)
        matrices = [
            [
                outcome.killed_by
                for outcome in evaluate_suite(
                    space, suite.databases, **arm
                ).outcomes
            ]
            for arm in (
                {"backend": None},
                {"backend": "sqlite"},
                {"backend": None, "cross_check": True},
            )
        ]
        assert matrices[0] == matrices[1] == matrices[2], name
