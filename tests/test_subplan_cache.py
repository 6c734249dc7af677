"""Subplan-cache tests (DESIGN.md §5g).

Three contracts back the batched kill check:

* fingerprints are *stable* — structurally equal trees built from
  distinct objects digest identically — and *sensitive* — any
  single-field mutation changes the digest;
* cached entries never leak across datasets;
* kill verdicts are byte-identical with the cache on and off, and the
  row-count / raw-bag short cut in front of the canonical comparison
  never changes a verdict;
* no batch state outlives its batch: callers' backends get their own
  cache back, and the plans of a finished batch are collectable.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core import XDataGenerator
from repro.datasets.university import (
    UNIVERSITY_QUERIES,
    university_sample_database,
    university_schema,
)
from repro.backends import EngineBackend
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
from repro.engine.subplan import SubplanCache, estimate_entry_bytes
from repro.memo import clear_process_memos
from repro.mutation import enumerate_mutants
from repro.mutation.space import mutant_order
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    JoinKind,
    Literal,
    SelectItem,
)
from repro.sql.parser import parse_query
from repro.testing.equivalence import random_database
from repro.testing.killcheck import (
    KillCheckConfig,
    differs_from_signature,
    evaluate_suite,
    raw_signature,
    result_signature,
)
from repro.testing.workload import generate_workload
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


    def test_bytes_count_each_stored_object_once(self, uni_schema_nofk, uni_db):
        """A frame kept under a content key and in its slot is one object:
        ``bytes`` is the sum of the distinct objects stored per dataset."""
        suite = XDataGenerator(uni_schema_nofk).generate(KILLCHECK_CORPUS[2])
        space = enumerate_mutants(suite.analyzed, include_full_outer=True)
        databases = suite.databases + [uni_db]
        plans = [space.original_plan] + [
            space.mutants[i].plan for i in mutant_order(space.mutants)
        ]
        cache = SubplanCache()
        for plan in plans:
            cache.register(plan)
        distinct_bytes = 0
        for db in databases:
            for plan in plans:
                execute_plan(plan, db, cache)
            entries = cache._by_dataset[id(db)]
            stored = list(entries.values.values())
            stored += [value for value in entries.frames if value is not None]
            distinct = {id(value): value for value in stored}
            distinct_bytes += sum(map(estimate_entry_bytes, distinct.values()))
            cache.drop_dataset(db)
        assert cache.bytes_stored == distinct_bytes
        report = evaluate_suite(space, databases)
        assert report.cache_stats["bytes"] == distinct_bytes

    def test_group_partition_charges_its_row_lists(self, uni_schema_nofk):
        """A GROUP BY partition — ``(groups dict, key order)`` as the
        executor stores it — is charged for its dict, its per-group row
        lists and its order list, not as a bare 2-tuple."""
        import sys

        db = Database(uni_schema_nofk)
        db.insert_rows(
            "instructor",
            [(i, f"n{i}", f"d{i % 100}", 50000) for i in range(5000)],
        )
        plan = compile_query(parse_query(
            "SELECT i.dept_name, COUNT(*) FROM instructor i "
            "GROUP BY i.dept_name"
        ))
        cache = SubplanCache()
        execute_plan(plan, db, cache)
        (partition,) = [
            value for key, value in cache.entries(db).values.items()
            if key[0] == "G"
        ]
        groups, order = partition
        assert len(groups) == len(order) == 100
        row_lists = sum(sys.getsizeof(rows) for rows in groups.values())
        assert estimate_entry_bytes(partition) >= row_lists + sys.getsizeof(
            groups
        ) + sys.getsizeof(order)


class TestCachedUncachedEquivalence:
    @pytest.mark.parametrize(
        "sql", KILLCHECK_CORPUS, ids=range(len(KILLCHECK_CORPUS))
    )
    def test_kill_matrix_identical(self, uni_schema_nofk, uni_db, sql):
        """The §5g acceptance bar: cached and uncached evaluation agree
        on every (mutant, dataset) verdict, not just aggregate counts."""
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        space = enumerate_mutants(
            suite.analyzed,
            include_full_outer=True,
            include_join_conditions=True,
        )
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


def _module_containers():
    """Sizes of every module-level dict/list/set of the executor layer."""
    from repro.engine import executor, frame, plan, subplan

    return {
        (module.__name__, name): len(value)
        for module in (executor, frame, plan, subplan)
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


class TestBatchLifetime:
    def test_backend_gets_its_cache_back(self, uni_schema_nofk):
        """A caller-supplied engine backend leaves a batch with the cache
        it came with, so later executions on fresh datasets — whose
        ``id`` may recycle a finished batch's dataset — are uncached."""
        suite = XDataGenerator(uni_schema_nofk).generate(KILLCHECK_CORPUS[2])
        space = enumerate_mutants(suite.analyzed)
        backend = EngineBackend()
        evaluate_suite(space, suite.databases, backend=backend)
        assert backend.subplan_cache is None
        generate_workload(
            uni_schema_nofk, {"q": KILLCHECK_CORPUS[2]}, backend=backend
        )
        assert backend.subplan_cache is None
        rng = random.Random(5)
        for i in range(50):
            db = random_database(uni_schema_nofk, rng)
            plan = space.mutants[i % len(space.mutants)].plan
            assert result_signature(backend.execute(db, plan)) == (
                result_signature(execute_plan(plan, db))
            )
            del db

    def test_own_cache_is_restored(self, uni_schema_nofk):
        suite = XDataGenerator(uni_schema_nofk).generate(KILLCHECK_CORPUS[0])
        own = SubplanCache()
        backend = EngineBackend(subplan_cache=own)
        evaluate_suite(enumerate_mutants(suite.analyzed), suite.databases,
                       backend=backend)
        assert backend.subplan_cache is own

    def test_no_batch_state_outlives_its_batch(self, uni_schema_nofk, uni_db):
        """Once a batch's results are dropped and the process memos
        emptied, its plans are collectable, and the executor layer holds
        no module-level memo that grew.  The ``mutation_space`` memo
        keeps each enumerated space's plans alive by design, so it is
        cleared before the plans are collected."""
        sql = KILLCHECK_CORPUS[3]
        before = _module_containers()
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        space = enumerate_mutants(suite.analyzed)
        report = evaluate_suite(space, suite.databases + [uni_db])
        refs = [weakref.ref(space.original_plan),
                weakref.ref(space.mutants[0].plan)]
        workload = generate_workload(uni_schema_nofk, {"q": sql})
        (entry,) = workload.entries
        refs += [weakref.ref(entry.space.original_plan),
                 weakref.ref(entry.space.mutants[0].plan)]
        del suite, space, report, workload, entry
        clear_process_memos()
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert _module_containers() == before
