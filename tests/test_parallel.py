"""Parallel generation determinism: a pooled run must equal a sequential one.

The parallel layer hands whole queries to worker processes, each running
the ordinary sequential pipeline, and returns the suites in query order,
so a pooled batch must produce byte-identical suites to in-process
generation — including the UNSAT/skipped groups and the
relaxation-ladder datasets, which exercise the retry paths inside
``_run_spec``.  Tests that need real worker processes bypass the
CPU-count cap (``cap_to_cpus=False``) so the pool protocol is exercised
even on single-core machines.
"""

from __future__ import annotations

import pytest

from repro.core.generator import GenConfig, XDataGenerator
from repro.core.parallel import (
    FailedSuite,
    effective_workers,
    generate_suites_parallel,
    shutdown_pool,
)
from repro.datasets import UNIVERSITY_QUERIES
from repro.schema.catalog import Column, Schema, Table
from repro.schema.types import SqlType
from repro.service.fingerprint import ExactScope, fingerprint
from tests import golden
from tests.workload import (
    schema_teaches_fk,
    suite_fingerprint,
    table12_labelled_jobs,
    uni_query,
)

_fingerprint = suite_fingerprint

#: Two of its comparison datasets are UNSAT: the weaker bound cannot be
#: violated while the stronger one holds.
UNSAT_SQL = (
    "SELECT * FROM department d WHERE d.budget < 120000 AND d.budget < 90000"
)


def _pk_group_schema():
    """GROUP BY over the whole PK: forces the S1/S2 relaxation ladder."""
    return Schema(
        [
            Table(
                "t",
                [Column("g", SqlType.INT), Column("a", SqlType.INT)],
                primary_key=("g",),
            )
        ]
    )


def _assert_pooled_equals_sequential(schema, queries, config=None):
    """Pool ``queries`` on four real workers; every suite must equal its
    in-process twin.  Returns the pooled suites by name."""
    config = config or GenConfig()
    pooled = generate_suites_parallel(
        schema, queries, config, 4, cap_to_cpus=False
    )
    assert list(pooled) == list(queries)
    for name, sql in queries.items():
        sequential = XDataGenerator(schema, config).generate(sql)
        assert _fingerprint(sequential) == _fingerprint(pooled[name])
    return pooled


def _pooled_by_schema(jobs, config):
    """One suite per ``(schema, sql)`` job, in job order: one
    :func:`generate_suites_parallel` batch per schema variant, on four
    real worker processes."""
    batches: dict[int, tuple[Schema, list[int]]] = {}
    for index, (schema, _sql) in enumerate(jobs):
        batches.setdefault(id(schema), (schema, []))[1].append(index)
    suites = [None] * len(jobs)
    for schema, indices in batches.values():
        queries = {str(index): jobs[index][1] for index in indices}
        pooled = generate_suites_parallel(
            schema, queries, config, 4, cap_to_cpus=False
        )
        for index in indices:
            suites[index] = pooled[str(index)]
    assert not any(isinstance(suite, FailedSuite) for suite in suites)
    return suites


@pytest.fixture(scope="module", autouse=True)
def _stop_pool_afterwards():
    yield
    shutdown_pool()


class TestEffectiveWorkers:
    def test_never_more_than_tasks(self):
        assert effective_workers(8, 3, cap_to_cpus=False) == 3

    def test_at_least_one(self):
        assert effective_workers(0, 0) == 1

    def test_cap_bypass(self):
        assert effective_workers(4, 10, cap_to_cpus=False) == 4


class TestPooledBatchDeterminism:
    """generate_suites_parallel with real worker processes (cap bypassed)."""

    def test_university_workload_identical(self, table12_jobs):
        jobs = table12_jobs
        config = GenConfig()
        sequential = [
            XDataGenerator(schema, config).generate(sql)
            for schema, sql in jobs
        ]
        pooled = _pooled_by_schema(jobs, config)

        assert len(pooled) == len(sequential)
        for seq_suite, par_suite in zip(sequential, pooled):
            assert _fingerprint(seq_suite) == _fingerprint(par_suite)
        assert any(s.skipped for s in pooled)

    def test_per_query_pool_identical(self):
        queries = {
            name: UNIVERSITY_QUERIES[name]["sql"] for name in ("Q1", "Q8")
        }
        _assert_pooled_equals_sequential(schema_teaches_fk(), queries)

    def test_skipped_groups_covered(self):
        """The comparison must include UNSAT and structural skips, not
        just SAT datasets."""
        schema, q5 = uni_query("Q5")
        queries = {"unsat": UNSAT_SQL, "Q5": q5}
        pooled = _assert_pooled_equals_sequential(schema, queries)
        reasons = [s.reason for s in pooled["unsat"].skipped]
        assert reasons.count("unsat") == 2
        assert pooled["Q5"].skipped, "expected Q5 to produce skipped groups"

    def test_relaxation_path_identical(self):
        queries = {
            func: f"SELECT t.g, {func}(t.a) FROM t GROUP BY t.g"
            for func in ("SUM", "MAX")
        }
        pooled = _assert_pooled_equals_sequential(_pk_group_schema(), queries)
        for suite in pooled.values():
            assert any(d.relaxation for d in suite.datasets), (
                "expected the relaxation ladder to fire"
            )


class TestWorkloadEntryPoint:
    def test_generate_workload_workers_identical(self):
        from repro.testing.workload import generate_workload

        schema = schema_teaches_fk()
        queries = {
            "q7": UNIVERSITY_QUERIES["Q7"]["sql"],
            "q8": UNIVERSITY_QUERIES["Q8"]["sql"],
            "unsat": UNSAT_SQL,
        }
        sequential = generate_workload(schema, queries)
        parallel = generate_workload(schema, queries, workers=4)
        assert [
            _fingerprint(e.suite) for e in sequential.entries
        ] == [_fingerprint(e.suite) for e in parallel.entries]
        assert [
            d.db.pretty(only_nonempty=False) for d in sequential.datasets
        ] == [d.db.pretty(only_nonempty=False) for d in parallel.datasets]
        assert any(s.reason == "unsat" for s in parallel.entries[2].suite.skipped)


@pytest.mark.slow
class TestDeltaParity:
    """Pooled generation matches the recorded golden digests
    (tests/golden.py): over every Table I/II query at every Table I
    foreign-key variant with join-condition datasets included, each
    pooled suite is byte-identical to the recorded sequential one."""

    def test_pooled_suites_match_golden_digests(self, table12_jobs):
        config = GenConfig(include_join_condition_datasets=True)
        labels = [label for label, _, _ in table12_labelled_jobs()]
        recorded = golden.load_golden()["table12"]["join_conditions"]
        expected = {label: recorded[label]["suite"] for label in labels}
        # Twice: cold worker stores, then the warm skeleton and
        # declaration stores a repeat request meets.
        for _round in range(2):
            suites = _pooled_by_schema(table12_jobs, config)
            assert {
                label: golden.digest(suite_fingerprint(suite))
                for label, suite in zip(labels, suites)
            } == expected


class TestRequestScope:
    """The process skeleton and declaration memos are keyed by the
    request's exact scope (DESIGN.md §5j).  Every spec solve of a run
    (in-process, or in a pool worker, which runs the same sequential
    path) uses the scope ``_request_caches`` builds, and a canonical
    fingerprint is refused instead of keying the memos."""

    SQL = (
        "SELECT I.name FROM instructor I "
        "WHERE I.id IN (SELECT T.id FROM teaches T WHERE T.course_id = 101)"
    )

    def _worker_caches(self, schema, config, sql):
        """(generator, analyzed query, specs, request caches) of ``sql``,
        built as ``generate`` builds them."""
        from repro.core.analyze import analyze_query
        from repro.core.decorrelate import decorrelate
        from repro.sql.parser import parse_query

        generator = XDataGenerator(schema, config)
        parsed = decorrelate(parse_query(sql), schema)
        aq = analyze_query(parsed, schema)
        specs, _skipped = generator._derive_specs(aq)
        return generator, aq, specs, generator._request_caches(parsed)

    def test_pool_workers_and_sequential_path_share_one_scope(
        self, monkeypatch
    ):
        schema = schema_teaches_fk()
        config = GenConfig()
        seen = []
        solve = XDataGenerator._run_spec

        def spy(generator, aq, spec, caches, **kwargs):
            seen.append(caches["scope"])
            return solve(generator, aq, spec, caches, **kwargs)

        monkeypatch.setattr(XDataGenerator, "_run_spec", spy)
        XDataGenerator(schema, config).generate(self.SQL)
        _, _, specs, caches = self._worker_caches(schema, config, self.SQL)
        assert len(seen) == len(specs) > 1
        assert isinstance(caches["scope"], ExactScope)
        assert set(seen) == {caches["scope"]}

    def test_canonical_fingerprint_raises_type_error(self):
        from repro.core import generator as generator_module

        schema = schema_teaches_fk()
        config = GenConfig()
        generator, aq, specs, caches = self._worker_caches(
            schema, config, self.SQL
        )
        stored = len(generator_module._DECLARATIONS.items())
        for scope in (fingerprint(schema, self.SQL, config),
                      str(caches["scope"])):
            with pytest.raises(TypeError, match="ExactScope"):
                generator._run_spec(aq, specs[0], {"scope": scope})
        assert len(generator_module._DECLARATIONS.items()) == stored
