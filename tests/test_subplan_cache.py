"""Subplan-cache tests (DESIGN.md §5g).

Three contracts back the batched kill check:

* fingerprints are *stable* — structurally equal trees built from
  distinct objects digest identically — and *sensitive* — any
  single-field mutation changes the digest;
* cached entries never leak across datasets;
* kill verdicts are byte-identical with the cache on and off, and the
  row-count / raw-bag short cut in front of the canonical comparison
  never changes a verdict.
"""

from __future__ import annotations

import pytest

from repro.core import XDataGenerator
from repro.datasets.university import (
    UNIVERSITY_QUERIES,
    university_sample_database,
    university_schema,
)
from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.plan import (
    AggregateNode,
    JoinNode,
    ProjectNode,
    ScanNode,
    SelectNode,
    compile_query,
    plan_fingerprint,
)
from repro.engine.subplan import SubplanCache
from repro.mutation import enumerate_mutants
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    JoinKind,
    Literal,
    SelectItem,
)
from repro.sql.parser import parse_query
from repro.testing.killcheck import (
    KillCheckConfig,
    differs_from_signature,
    evaluate_suite,
    raw_signature,
    result_signature,
)
from tests.workload import KILLCHECK_CORPUS


def star(binding: str = "r") -> tuple[SelectItem, ...]:
    return (SelectItem(ColumnRef(binding, "a")),)


def join_plan(kind: JoinKind = JoinKind.INNER,
              op: str = "=",
              rhs: int = 1) -> JoinNode:
    """A small join tree built from scratch each call (fresh objects)."""
    return JoinNode(
        kind,
        ScanNode("r", "r"),
        SelectNode(
            ScanNode("s", "s"),
            (Comparison(op, ColumnRef("s", "a"), Literal(rhs)),),
        ),
        (Comparison("=", ColumnRef("r", "a"), ColumnRef("s", "r_a")),),
    )


class TestFingerprintStability:
    def test_equal_trees_fingerprint_equal(self):
        # Distinct objects, same structure: the digest is content-based.
        a, b = join_plan(), join_plan()
        assert a is not b
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_compiled_query_matches_recompiled(self):
        sql = (
            "SELECT i.name FROM instructor i JOIN teaches t "
            "ON i.id = t.id WHERE t.year > 2009"
        )
        one = compile_query(parse_query(sql))
        two = compile_query(parse_query(sql))
        assert plan_fingerprint(one) == plan_fingerprint(two)

    def test_fingerprint_memoized_on_instance(self):
        plan = join_plan()
        digest = plan_fingerprint(plan)
        assert plan.__dict__["_structural_fingerprint"] == digest
        assert plan_fingerprint(plan) == digest

    @pytest.mark.parametrize(
        "mutated",
        [
            join_plan(kind=JoinKind.LEFT),
            join_plan(kind=JoinKind.FULL),
            join_plan(op="<"),
            join_plan(op="<="),
            join_plan(rhs=2),
        ],
        ids=["left-join", "full-join", "lt-op", "le-op", "literal"],
    )
    def test_single_field_mutation_changes_fingerprint(self, mutated):
        assert plan_fingerprint(join_plan()) != plan_fingerprint(mutated)

    def test_scan_fields_distinguish(self):
        assert plan_fingerprint(ScanNode("r", "r")) != plan_fingerprint(
            ScanNode("s", "r")
        )
        assert plan_fingerprint(ScanNode("r", "r")) != plan_fingerprint(
            ScanNode("r", "x")
        )

    def test_project_distinct_flag_distinguishes(self):
        child = ScanNode("r", "r")
        plain = ProjectNode(child, star(), distinct=False)
        distinct = ProjectNode(child, star(), distinct=True)
        assert plan_fingerprint(plain) != plan_fingerprint(distinct)

    def test_aggregate_having_distinguishes(self):
        child = ScanNode("r", "r")
        group = (ColumnRef("r", "a"),)
        bare = AggregateNode(child, group, star())
        having = AggregateNode(
            child, group, star(),
            (Comparison(">", ColumnRef("r", "a"), Literal(0)),),
        )
        assert plan_fingerprint(bare) != plan_fingerprint(having)

    def test_mutation_space_fingerprints_are_unique(self, uni_schema_nofk):
        """Every enumerated mutant digests differently from the original
        and from every sibling (they differ pairwise in some field)."""
        sql = (
            "SELECT * FROM instructor i JOIN teaches t ON i.id = t.id "
            "WHERE t.year > 2009"
        )
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        space = enumerate_mutants(suite.analyzed)
        digests = [plan_fingerprint(m.plan) for m in space.mutants]
        digests.append(plan_fingerprint(space.original_plan))
        assert len(set(digests)) == len(digests)


class TestDatasetIsolation:
    def two_dbs(self, tiny_schema):
        one = Database(tiny_schema)
        one.insert_rows("r", [(1, 10)])
        one.insert_rows("s", [(7, 1)])
        one.validate()
        two = Database(tiny_schema)
        two.insert_rows("r", [(2, 20)])
        two.insert_rows("s", [(8, 2)])
        two.validate()
        return one, two

    def test_cache_hits_never_cross_datasets(self, tiny_schema):
        """The same plan on two datasets must return each dataset's own
        rows even when one shared cache serves both."""
        sql = "SELECT r.a, s.a FROM r, s WHERE r.a = s.r_a"
        plan = compile_query(parse_query(sql))
        one, two = self.two_dbs(tiny_schema)
        cache = SubplanCache()
        first = execute_plan(plan, one, cache)
        second = execute_plan(plan, two, cache)
        assert first.rows == [(1, 7)]
        assert second.rows == [(2, 8)]

    def test_repeat_on_same_dataset_hits(self, tiny_schema, tiny_db):
        plan = compile_query(
            parse_query("SELECT r.a FROM r, s WHERE r.a = s.r_a")
        )
        cache = SubplanCache()
        first = execute_plan(plan, tiny_db, cache)
        hits_before = cache.hits
        second = execute_plan(plan, tiny_db, cache)
        assert second is first  # shared result object, one top-level hit
        assert cache.hits > hits_before

    def test_drop_dataset_releases_entries(self, tiny_schema):
        plan = compile_query(parse_query("SELECT r.a FROM r"))
        one, two = self.two_dbs(tiny_schema)
        cache = SubplanCache()
        execute_plan(plan, one, cache)
        execute_plan(plan, two, cache)
        assert len(cache._by_dataset) == 2
        cache.drop_dataset(one)
        assert len(cache._by_dataset) == 1
        # A re-run of the dropped dataset recomputes and still gets the
        # right rows (the one-slot fast path was invalidated too).
        assert execute_plan(plan, one, cache).rows == [(1,)]

    def test_counters_move(self, tiny_db):
        plan = compile_query(parse_query("SELECT r.a FROM r"))
        cache = SubplanCache()
        execute_plan(plan, tiny_db, cache)
        assert cache.misses > 0
        assert cache.bytes_stored > 0
        execute_plan(plan, tiny_db, cache)
        assert cache.hits > 0
        stats = cache.stats()
        assert stats["hits"] == cache.hits
        assert 0.0 <= stats["hit_rate"] <= 1.0


    def test_peak_bytes_is_the_largest_one_dataset_batch(
        self, uni_schema_nofk, uni_db
    ):
        """``peak_bytes`` reports the live working set, not the total:
        the largest sum stored for one dataset between drops."""
        suite = XDataGenerator(uni_schema_nofk).generate(KILLCHECK_CORPUS[1])
        space = enumerate_mutants(suite.analyzed)
        databases = suite.databases + [uni_db]
        per_dataset = [
            evaluate_suite(space, [db]).cache_stats["bytes"] for db in databases
        ]
        stats = evaluate_suite(space, databases).cache_stats
        assert stats["bytes"] == sum(per_dataset)
        assert stats["peak_bytes"] == max(per_dataset)
        assert stats["peak_bytes"] <= stats["bytes"]
        assert len(set(per_dataset)) > 1, "datasets of different sizes"

    def test_peak_bytes_counts_an_undropped_batch(self, tiny_db):
        plan = compile_query(parse_query("SELECT r.a FROM r"))
        cache = SubplanCache()
        execute_plan(plan, tiny_db, cache)
        assert cache.stats()["peak_bytes"] == cache.bytes_stored > 0
        cache.drop_dataset(tiny_db)
        assert cache.peak_bytes == cache.bytes_stored


class TestCachedUncachedEquivalence:
    @pytest.mark.parametrize(
        "sql", KILLCHECK_CORPUS, ids=range(len(KILLCHECK_CORPUS))
    )
    def test_kill_matrix_identical(self, uni_schema_nofk, uni_db, sql):
        """The §5g acceptance bar: cached and uncached evaluation agree
        on every (mutant, dataset) verdict, not just aggregate counts."""
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        space = enumerate_mutants(suite.analyzed)
        databases = suite.databases + [uni_db]
        cached = evaluate_suite(space, databases, config=KillCheckConfig())
        uncached = evaluate_suite(
            space, databases, config=KillCheckConfig.uncached()
        )
        assert [o.killed_by for o in cached.outcomes] == [
            o.killed_by for o in uncached.outcomes
        ]
        assert cached.cache_stats is not None
        assert cached.cache_stats["hits"] > 0
        assert uncached.cache_stats is None


    @pytest.mark.slow
    def test_table12_kill_matrices_identical_with_sample_instance(self):
        """The end-to-end equivalence check of the §5g cache: every Table
        I/II query over the university schema, full mutation space (full
        outer included), its generated suite plus the bundled sample
        instance — cached and uncached kill matrices are identical."""
        schema = university_schema()
        sample = university_sample_database(schema)
        for name, info in UNIVERSITY_QUERIES.items():
            suite = XDataGenerator(schema).generate(info["sql"])
            space = enumerate_mutants(suite.analyzed, include_full_outer=True)
            databases = suite.databases + [sample]
            cached = evaluate_suite(space, databases)
            uncached = evaluate_suite(
                space, databases, config=KillCheckConfig.uncached()
            )
            assert [o.killed_by for o in cached.outcomes] == [
                o.killed_by for o in uncached.outcomes
            ], name


class TestVerdictShortCut:
    def test_raw_mismatch_defers_to_canonical_comparison(self):
        """Equal counts but raw-different bags are decided by the
        12-digit canonical comparison, in both directions."""
        from fractions import Fraction

        from repro.engine.relation import Relation

        original = Relation(["avg"], [(Fraction(1, 3),)])
        signature = result_signature(original)
        raw = raw_signature(original)
        within = Relation(["avg"], [(1 / 3,)])
        beyond = Relation(["avg"], [(0.3334,)])
        assert raw_signature(within) != raw
        assert not differs_from_signature(within, signature, 1, raw)
        assert differs_from_signature(beyond, signature, 1, raw)

    def test_short_cut_matches_full_canonicalisation(self, table12_jobs):
        """Over every (dataset, mutant) of the Table I/II workload, the
        count / raw-bag short cut decides exactly what a full
        12-digit canonical comparison decides."""
        checked = kills = 0
        for schema, sql in table12_jobs:
            suite = XDataGenerator(schema).generate(sql)
            space = enumerate_mutants(suite.analyzed)
            for db in suite.databases:
                cache = SubplanCache()
                original = execute_plan(space.original_plan, db, cache)
                signature = result_signature(original)
                raw = raw_signature(original)
                rowcount = len(original.rows)
                for mutant in space.mutants:
                    result = execute_plan(mutant.plan, db, cache)
                    expected = result_signature(result) != signature
                    assert differs_from_signature(
                        result, signature, rowcount, raw
                    ) is expected, (sql, mutant.description)
                    checked += 1
                    kills += expected
        assert checked > 1000 and 0 < kills < checked
