"""Kill-check and survivor-classification tests."""

import random
import re

import pytest

from repro.core import XDataGenerator, analyze_query
from repro.datasets.university import UNIVERSITY_QUERIES, university_schema
from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.plan import plan_fingerprint
from repro.engine.relation import Relation
from repro.errors import XDataError
from repro.mutation import enumerate_mutants
from repro.mutation.jointype import _result_class
from repro.mutation.space import result_classes
from repro.sql.ast import JoinKind
from repro.sql.parser import parse_query
from repro.testing import (
    classify_survivors,
    evaluate_suite,
    format_kill_report,
    random_database,
    results_differ,
    sample_conformance_query,
)
from repro.testing.killcheck import KillCheckConfig, result_signature
from repro.testing.workload import generate_workload
from tests.workload import KILLCHECK_CORPUS


class TestResultComparison:
    def test_equal_bags_compare_equal(self):
        a = Relation(["x", "y"], [(1, 2), (1, 2), (3, 4)])
        b = Relation(["x", "y"], [(3, 4), (1, 2), (1, 2)])
        assert not results_differ(a, b)

    def test_multiplicity_matters(self):
        a = Relation(["x"], [(1,), (1,)])
        b = Relation(["x"], [(1,)])
        assert results_differ(a, b)

    def test_column_order_ignored(self):
        a = Relation(["x", "y"], [(1, 2)])
        b = Relation(["y", "x"], [(2, 1)])
        assert not results_differ(a, b)

    def test_column_names_matter(self):
        a = Relation(["x"], [(1,)])
        b = Relation(["z"], [(1,)])
        assert results_differ(a, b)

    def test_null_values_compare(self):
        a = Relation(["x"], [(None,)])
        b = Relation(["x"], [(None,)])
        assert not results_differ(a, b)
        assert results_differ(a, Relation(["x"], [(0,)]))


class TestEvaluateSuite:
    def test_kill_report_structure(self, uni_schema_nofk):
        sql = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        space = enumerate_mutants(suite.analyzed)
        report = evaluate_suite(space, suite.databases)
        assert report.total == 2
        assert report.killed == 2
        assert report.survivors == []
        assert report.dataset_count == len(suite.databases)

    def test_stop_at_first_kill_same_counts(self, uni_schema_nofk):
        sql = (
            "SELECT * FROM instructor i, teaches t, course c "
            "WHERE i.id = t.id AND t.course_id = c.course_id"
        )
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        space = enumerate_mutants(suite.analyzed)
        full = evaluate_suite(space, suite.databases)
        fast = evaluate_suite(space, suite.databases, stop_at_first_kill=True)
        assert full.killed == fast.killed

    def test_report_formatting(self, uni_schema_nofk):
        sql = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        space = enumerate_mutants(suite.analyzed)
        report = evaluate_suite(space, suite.databases)
        text = format_kill_report(report)
        assert "mutants: 2" in text


class TestRandomDatabase:
    def test_random_instances_are_legal(self, uni_schema):
        rng = random.Random(7)
        for _ in range(5):
            db = random_database(uni_schema, rng)
            db.validate()  # no raise

    def test_respects_fk_topology(self, tiny_schema):
        rng = random.Random(1)
        db = random_database(tiny_schema, rng, rows_per_table=5)
        r_keys = {row[0] for row in db.relation("r").rows}
        for row in db.relation("s").rows:
            assert row[1] in r_keys

    def test_deterministic_given_seed(self, tiny_schema):
        db1 = random_database(tiny_schema, random.Random(3))
        db2 = random_database(tiny_schema, random.Random(3))
        assert db1.relation("r").rows == db2.relation("r").rows


class TestClassification:
    def test_equivalent_survivor_classified(self, uni_db):
        """With an FK, join -> right-outer at the FK side is equivalent."""
        from tests.workload import INSTRUCTOR_TEACHES_JOIN, schema_teaches_fk

        schema = schema_teaches_fk()
        sql = INSTRUCTOR_TEACHES_JOIN
        suite = XDataGenerator(schema).generate(sql)
        space = enumerate_mutants(suite.analyzed)
        report = evaluate_suite(space, suite.databases)
        assert len(report.survivors) == 1
        classification = classify_survivors(space, report.survivors)
        assert len(classification.likely_equivalent) == 1
        assert classification.missed == []

    def test_non_equivalent_survivor_detected(self, uni_schema_nofk):
        """Feed an empty suite: every mutant survives; the classifier must
        expose the non-equivalent ones with a witness instance."""
        sql = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"
        aq = analyze_query(parse_query(sql), uni_schema_nofk)
        space = enumerate_mutants(aq)
        report = evaluate_suite(space, [])
        assert len(report.survivors) == 2
        classification = classify_survivors(space, report.survivors)
        assert len(classification.missed) == 2
        assert all(c.witness is not None for c in classification.missed)


# ---------------------------------------------------------------------------
# Result classes: one execution per join-order class (DESIGN.md §5g).


def _with_nulls(db: Database, rng: random.Random, rate: float) -> Database:
    """``db`` with each nullable non-key value NULL at probability ``rate``
    — NULL join keys leave rows unmatched, so outer-join mutants pad."""
    out = Database(db.schema)
    for name in db.table_names:
        table = db.schema.table(name)
        nullable = [
            i for i, column in enumerate(table.columns)
            if column.nullable and column.name not in table.primary_key
        ]
        rows = []
        for row in db.relation(name).rows:
            row = list(row)
            for i in nullable:
                if rng.random() < rate:
                    row[i] = None
            rows.append(tuple(row))
        out.insert_rows(name, rows)
    out.validate()
    return out


def _null_instances(schema, seed: int, per_rate: int) -> list[Database]:
    rng = random.Random(seed)
    return [
        _with_nulls(random_database(schema, rng), rng, rate)
        for rate in (0.0, 0.15, 0.3)
        for _ in range(per_rate)
    ]


def _assert_grouped_matches_uncached(space, databases, label) -> None:
    grouped = evaluate_suite(space, databases)
    uncached = evaluate_suite(
        space, databases, config=KillCheckConfig.uncached()
    )
    assert [o.killed_by for o in grouped.outcomes] == [
        o.killed_by for o in uncached.outcomes
    ], label
    assert uncached.executions == len(databases) * (1 + len(space.mutants))
    assert grouped.executions == len(databases) * (
        1 + len(result_classes(space.mutants))
    )


def _assert_member_bags_equal(space, databases, label) -> None:
    """Every member's name-aligned bag equals its representative's."""
    for db in databases:
        for rep, members in result_classes(space.mutants):
            mutants = space.mutants
            expected = result_signature(execute_plan(mutants[rep].plan, db))
            for member in members[1:]:
                got = result_signature(execute_plan(mutants[member].plan, db))
                assert got == expected, (label, mutants[member].description)


def _check_conformance_seeds(seeds) -> int:
    """Grouped vs uncached over each generated conformance suite, with
    and without FULL OUTER mutants; returns the checks made."""
    schema = university_schema()
    generator = XDataGenerator(schema)
    checked = 0
    for seed in seeds:
        sql = sample_conformance_query(random.Random(seed), schema)
        try:
            suite = generator.generate(sql)
        except XDataError:
            continue
        for full in (False, True):
            space = enumerate_mutants(suite.analyzed, include_full_outer=full)
            _assert_grouped_matches_uncached(
                space, suite.databases, (seed, full)
            )
            checked += 1
    return checked


class TestResultClasses:
    def test_table2_class_counts(self, uni_schema_nofk):
        for name, mutants, classes in (("Q3", 30, 20), ("Q4", 200, 64)):
            space = enumerate_mutants(
                UNIVERSITY_QUERIES[name]["sql"], uni_schema_nofk
            )
            assert len(space.mutants) == mutants
            assert len(result_classes(space.mutants)) == classes, name

    def test_right_is_mirrored_left_and_full_is_symmetric(self):
        a, b = ("k", "s"), ("c",)
        assert _result_class(a, b, JoinKind.RIGHT) == _result_class(
            b, a, JoinKind.LEFT
        ) == (("c",), ("k", "s"), JoinKind.LEFT)
        assert _result_class(a, b, JoinKind.FULL) == _result_class(
            b, a, JoinKind.FULL
        )
        assert _result_class(a, b, JoinKind.LEFT) != _result_class(
            b, a, JoinKind.LEFT
        )

    def test_right_mutants_share_class_with_the_mirrored_left(
        self, uni_schema_nofk
    ):
        """In Q4's space, each RIGHT mutant over (A, B) lands in the class
        of LEFT over (B, A), and FULL classes have sorted sides."""
        space = enumerate_mutants(
            UNIVERSITY_QUERIES["Q4"]["sql"], uni_schema_nofk,
            include_full_outer=True,
        )
        kinds = set()
        for mutant in space.mutants:
            left, kind, right = re.fullmatch(
                r"\[(.*)\] (.*) \[(.*)\]", mutant.description
            ).groups()
            kind = JoinKind(kind)
            sides = (tuple(left.split(",")), tuple(right.split(",")))
            kinds.add(kind)
            if kind is JoinKind.RIGHT:
                assert mutant.result_class == (*sides[::-1], JoinKind.LEFT)
            elif kind is JoinKind.FULL:
                assert mutant.result_class == (*sorted(sides), kind)
            else:
                assert mutant.result_class == (*sides, kind)
        assert kinds == {JoinKind.LEFT, JoinKind.RIGHT, JoinKind.FULL}

    def test_outer_join_and_other_mutants_are_classes_of_one(
        self, uni_schema_nofk
    ):
        written = enumerate_mutants(
            KILLCHECK_CORPUS[1], uni_schema_nofk, include_full_outer=True
        )
        assert written.by_kind("join")
        assert all(m.result_class is None for m in written.mutants)
        inner = enumerate_mutants(
            "SELECT i.dept_name, COUNT(t.year) FROM instructor i, teaches t,"
            " course c WHERE i.id = t.id AND t.course_id = c.course_id"
            " AND i.salary > 50000 GROUP BY i.dept_name",
            uni_schema_nofk, include_join_conditions=True,
        )
        others = [m for m in inner.mutants if m.kind != "join"]
        assert {m.kind for m in others} >= {"comparison", "aggregate"}
        assert all(m.result_class is None for m in others)
        classes = result_classes(inner.mutants)
        assert sum(len(members) for _, members in classes) == len(inner)

    def test_representatives_come_in_fingerprint_order(self, uni_schema_nofk):
        space = enumerate_mutants(
            UNIVERSITY_QUERIES["Q4"]["sql"], uni_schema_nofk
        )
        classes = result_classes(space.mutants)
        digests = [
            plan_fingerprint(space.mutants[rep].plan) for rep, _ in classes
        ]
        assert digests == sorted(digests)
        assert all(rep == members[0] for rep, members in classes)
        assert sorted(i for _, members in classes for i in members) == list(
            range(len(space.mutants))
        )

    def test_q4_executions(self, uni_schema_nofk):
        """Q4 without FK variants has 8 datasets: 8 × (1 + 64) plans run
        grouped against 8 × (1 + 200) uncached, with equal verdicts."""
        suite = XDataGenerator(uni_schema_nofk).generate(
            UNIVERSITY_QUERIES["Q4"]["sql"]
        )
        space = enumerate_mutants(suite.analyzed)
        assert len(suite.databases) == 8
        grouped = evaluate_suite(space, suite.databases)
        uncached = evaluate_suite(
            space, suite.databases, config=KillCheckConfig.uncached()
        )
        assert grouped.executions == 520
        assert uncached.executions == 1608
        assert [o.killed_by for o in grouped.outcomes] == [
            o.killed_by for o in uncached.outcomes
        ]
        assert "executions" not in format_kill_report(grouped)

    def test_grouped_backends_and_cross_check_match_uncached(
        self, uni_schema_nofk
    ):
        suite = XDataGenerator(uni_schema_nofk).generate(
            UNIVERSITY_QUERIES["Q3"]["sql"]
        )
        space = enumerate_mutants(suite.analyzed, include_full_outer=True)
        expected = [
            o.killed_by for o in evaluate_suite(
                space, suite.databases, config=KillCheckConfig.uncached()
            ).outcomes
        ]
        for arm in ({"backend": "sqlite"}, {"cross_check": True}):
            report = evaluate_suite(space, suite.databases, **arm)
            assert [o.killed_by for o in report.outcomes] == expected, arm
            assert report.executions == len(suite.databases) * 31


class TestGroupedKillCheck:
    """The grouped kill check against the exhaustive uncached reference."""

    def test_conformance_ci_seeds(self):
        assert _check_conformance_seeds(range(200)) >= 300

    @pytest.mark.parametrize("name", ["Q3", "Q4"])
    @pytest.mark.parametrize("full", [False, True], ids=["lr", "full"])
    def test_null_injected_instances(self, uni_schema_nofk, name, full):
        """Random instances with 0/15/30% NULLs: unmatched rows make the
        outer-join members pad, the case generated suites rarely reach."""
        space = enumerate_mutants(
            UNIVERSITY_QUERIES[name]["sql"], uni_schema_nofk,
            include_full_outer=full,
        )
        databases = _null_instances(
            uni_schema_nofk, seed=int(name[1:]), per_rate=4
        )
        _assert_grouped_matches_uncached(space, databases, name)
        _assert_member_bags_equal(space, databases, name)
        report = evaluate_suite(space, databases)
        assert 0 < report.killed < report.total

    def test_workload_parity(self, uni_schema_nofk):
        queries = {
            name: UNIVERSITY_QUERIES[name]["sql"]
            for name in ("Q2", "Q3", "Q4")
        }
        grouped = generate_workload(uni_schema_nofk, queries)
        uncached = generate_workload(
            uni_schema_nofk, queries, subplan_cache=False
        )
        assert grouped.provenance == uncached.provenance
        assert [(e.killed, e.total) for e in grouped.entries] == [
            (e.killed, e.total) for e in uncached.entries
        ]

    @pytest.mark.slow
    def test_conformance_sweep(self):
        assert _check_conformance_seeds(range(2000)) >= 3000

    @pytest.mark.slow
    def test_table12_jobs(self, table12_jobs):
        """All 20 Table I/II jobs, Q5 and Q6 included, with and without
        FULL OUTER, over their suites plus NULL-injected instances."""
        assert len(table12_jobs) == 20
        for index, (schema, sql) in enumerate(table12_jobs):
            suite = XDataGenerator(schema).generate(sql)
            extra = _null_instances(schema, seed=index, per_rate=1)
            for full in (False, True):
                space = enumerate_mutants(
                    suite.analyzed, include_full_outer=full
                )
                databases = suite.databases + extra
                _assert_grouped_matches_uncached(space, databases, sql)
                _assert_member_bags_equal(space, extra, sql)

    @pytest.mark.slow
    def test_table12_warm_pass_matches_cold_uncached(self, table12_jobs):
        """Every Table I/II job evaluated twice in one process: the
        second evaluation enumerates nothing (the ``mutation_space`` memo
        serves the first one's space, classes already sorted) and its
        grouped kill matrix equals the uncached reference over a cold
        enumeration.  The memo is emptied per job, as Q6's spaces alone
        would evict the others (it is bounded by plans)."""
        from repro.memo import clear_process_memos

        for schema, sql in table12_jobs:
            suite = XDataGenerator(schema).generate(sql)
            for full in (False, True):
                clear_process_memos()
                cold = enumerate_mutants(suite.analyzed, include_full_outer=full)
                reference = [
                    o.killed_by for o in evaluate_suite(
                        cold, suite.databases, config=KillCheckConfig.uncached()
                    ).outcomes
                ]
                evaluate_suite(cold, suite.databases)
                warm = enumerate_mutants(suite.analyzed, include_full_outer=full)
                assert warm is cold
                assert [
                    o.killed_by
                    for o in evaluate_suite(warm, suite.databases).outcomes
                ] == reference, (sql, full)
