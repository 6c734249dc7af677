"""Canonical content-addressing (``repro.service.fingerprint``).

Two obligations, mirror images of each other:

* **collision**: every spelling of one request — identifier case,
  whitespace, alias names, literal formatting — must land on one
  fingerprint, or the service cache misses the grading workload's
  near-duplicate bursts;
* **separation**: requests the generator could answer differently must
  never share a fingerprint, or the cache would serve wrong bytes.  The
  seeded-corpus test sweeps the conformance grammar to check this at
  scale.
"""

from __future__ import annotations

import random

import pytest

from repro.core.generator import GenConfig
from repro.datasets.university import university_schema
from repro.service.fingerprint import (
    canonical_config,
    canonical_query,
    canonical_schema,
    fingerprint,
    fingerprint_parts,
)
from repro.solver.search import SearchConfig
from repro.testing.conformance import sample_conformance_query

DDL = """
CREATE TABLE dept (id INT PRIMARY KEY, name VARCHAR);
CREATE TABLE emp (
    id INT PRIMARY KEY,
    dept_id INT REFERENCES dept(id),
    salary INT
);
"""

BASE = "SELECT e.salary FROM emp e, dept d WHERE e.dept_id = d.id AND e.salary > 10"


class TestQueryCollisions:
    """Spellings that must canonicalize identically."""

    @pytest.mark.parametrize(
        "variant",
        [
            # whitespace and newlines
            "SELECT  e.salary  FROM emp e , dept d\n"
            "WHERE e.dept_id = d.id AND e.salary > 10",
            # keyword and identifier case
            "select E.Salary from EMP e, DEPT d "
            "where e.DEPT_ID = d.ID and e.salary > 10",
            # alias renaming (x/y instead of e/d)
            "SELECT x.salary FROM emp x, dept y "
            "WHERE x.dept_id = y.id AND x.salary > 10",
            # explicit AS keyword
            "SELECT e.salary FROM emp AS e, dept AS d "
            "WHERE e.dept_id = d.id AND e.salary > 10",
        ],
    )
    def test_equivalent_spelling_collides(self, variant):
        assert canonical_query(variant) == canonical_query(BASE)
        assert fingerprint(DDL, variant) == fingerprint(DDL, BASE)

    def test_literal_formatting_collides(self):
        a = "SELECT e.salary FROM emp e WHERE e.salary > 1.5"
        b = "SELECT e.salary FROM emp e WHERE e.salary > 1.50"
        assert canonical_query(a) == canonical_query(b)

    def test_not_equal_spellings_collide(self):
        a = "SELECT e.salary FROM emp e WHERE e.salary <> 10"
        b = "SELECT e.salary FROM emp e WHERE e.salary != 10"
        assert canonical_query(a) == canonical_query(b)

    def test_no_alias_vs_alias_collides(self):
        # An unaliased table is its own binding; renaming is positional
        # either way.
        a = "SELECT emp.salary FROM emp WHERE emp.salary > 10"
        b = "SELECT z.salary FROM emp z WHERE z.salary > 10"
        assert canonical_query(a) == canonical_query(b)

    def test_subquery_alias_renaming_collides(self):
        a = ("SELECT e.id FROM emp e WHERE EXISTS "
             "(SELECT d.id FROM dept d WHERE d.id = e.dept_id)")
        b = ("SELECT a.id FROM emp a WHERE EXISTS "
             "(SELECT b.id FROM dept b WHERE b.id = a.dept_id)")
        assert canonical_query(a) == canonical_query(b)

    def test_join_spelling_with_aliases_collides(self):
        a = ("SELECT e.salary FROM emp e JOIN dept d ON e.dept_id = d.id")
        b = ("SELECT p.salary FROM emp p join dept q on p.dept_id = q.id")
        assert canonical_query(a) == canonical_query(b)

    def test_null_test_in_join_condition_collides(self):
        a = ("SELECT e.id FROM emp e LEFT OUTER JOIN dept d "
             "ON e.dept_id = d.id AND d.name IS NULL")
        b = ("select x.id from emp x left outer join dept y "
             "on x.dept_id = y.id and y.name is null")
        assert canonical_query(a) == canonical_query(b)
        assert "t2.name IS NULL" in canonical_query(a)


class TestQuerySeparation:
    """Differences that must change the fingerprint."""

    def test_different_constant_separates(self):
        other = BASE.replace("> 10", "> 11")
        assert fingerprint(DDL, other) != fingerprint(DDL, BASE)

    def test_different_column_separates(self):
        other = BASE.replace("e.salary FROM", "e.id FROM")
        assert fingerprint(DDL, other) != fingerprint(DDL, BASE)

    def test_select_alias_is_significant(self):
        # Output column names are part of the result shape.
        a = "SELECT e.salary AS pay FROM emp e"
        b = "SELECT e.salary FROM emp e"
        assert canonical_query(a) != canonical_query(b)

    def test_select_alias_case_is_not_significant(self):
        a = "SELECT e.salary AS PAY FROM emp e"
        b = "SELECT e.salary AS pay FROM emp e"
        assert canonical_query(a) == canonical_query(b)

    def test_conjunct_order_is_significant(self):
        # Same SQL semantics, but spec derivation order differs — and
        # the cache contract is byte-identity of generated suites.
        a = "SELECT e.id FROM emp e WHERE e.salary > 10 AND e.dept_id = 1"
        b = "SELECT e.id FROM emp e WHERE e.dept_id = 1 AND e.salary > 10"
        assert canonical_query(a) != canonical_query(b)

    def test_distinct_is_significant(self):
        a = "SELECT DISTINCT e.salary FROM emp e"
        b = "SELECT e.salary FROM emp e"
        assert canonical_query(a) != canonical_query(b)

    def test_seeded_corpus_never_collides(self):
        """Distinct canonical queries ⇒ distinct fingerprints, at scale."""
        schema = university_schema()
        schema_canon = canonical_schema(schema)
        config_canon = canonical_config(None)
        rng = random.Random(20260808)
        by_fingerprint: dict[str, str] = {}
        for _ in range(300):
            sql = sample_conformance_query(rng, schema)
            canon = canonical_query(sql)
            digest = fingerprint_parts(schema_canon, canon, config_canon)
            previous = by_fingerprint.setdefault(digest, canon)
            assert previous == canon, (
                f"fingerprint collision between {previous!r} and {canon!r}"
            )

    def test_canonicalization_is_idempotent(self):
        schema = university_schema()
        rng = random.Random(7)
        for _ in range(50):
            canon = canonical_query(sample_conformance_query(rng, schema))
            assert canonical_query(canon) == canon


class TestSchemaAndConfig:
    def test_schema_content_separates(self):
        other = DDL.replace("salary INT", "salary NUMERIC")
        assert fingerprint(other, BASE) != fingerprint(DDL, BASE)

    def test_column_domain_separates(self):
        # Value domains steer the solver's string choices, hence the
        # generated bytes; schemas differing only in domains must not
        # share a fingerprint.
        from repro.schema.catalog import Column, Schema, Table
        from repro.schema.types import SqlType

        def build(domain):
            return Schema([
                Table(
                    "r",
                    [Column("name", SqlType.VARCHAR, domain=domain)],
                    primary_key=("name",),
                )
            ])

        sql = "SELECT r.name FROM r"
        assert fingerprint(build(("a", "b")), sql) != fingerprint(
            build(()), sql
        )

    def test_schema_text_formatting_collides(self):
        reformatted = DDL.replace("\n", " ").replace("  ", " ")
        assert canonical_schema(reformatted) == canonical_schema(DDL)

    def test_none_config_equals_default_config(self):
        assert fingerprint(DDL, BASE, None) == fingerprint(DDL, BASE, GenConfig())

    def test_observability_and_workers_do_not_separate(self):
        noisy = GenConfig(trace=True, metrics=True, journal_path="/tmp/x.jsonl")
        assert fingerprint(DDL, BASE, noisy) == fingerprint(DDL, BASE)
        # A worker count is not a config knob (fan-out is per query, set
        # on the workload call), so no config can spell one.
        with pytest.raises(TypeError, match="workers"):
            GenConfig(workers=8)

    @pytest.mark.parametrize(
        "config",
        [
            GenConfig(unfold=False),
            GenConfig(include_aggregates=False),
            GenConfig(retries=3),
            GenConfig(solver=SearchConfig(node_limit=10)),
            GenConfig(spec_deadline_s=1.0),
        ],
    )
    def test_result_affecting_knobs_separate(self, config):
        assert fingerprint(DDL, BASE, config) != fingerprint(DDL, BASE)

    def test_parsed_and_text_inputs_agree(self):
        from repro.schema.ddl import parse_ddl
        from repro.sql.parser import parse_query

        assert fingerprint(parse_ddl(DDL), parse_query(BASE)) == fingerprint(
            DDL, BASE
        )


class TestVersionTag:
    """Each tag bump changed every rendered config, and with it every
    digest: ``xdata-fp-v3`` (``SearchConfig`` lost ``delta_solve``) and
    ``xdata-fp-v4`` (``GenConfig`` lost ``pool_deadline_s``,
    ``retry_node_factor`` and ``retry_shrink_copies``).  A cache file
    written under an older tag reloads, and its entries miss."""

    #: ``fingerprint(DDL, BASE)`` under the ``xdata-fp-v2`` tag, whose
    #: default config still rendered ``delta_solve=True``.
    V2_KEY = "58e48c95093806a18735367ba17331caece5b9df607ade541ea4807b5a7881e4"
    #: ``fingerprint(DDL, BASE)`` under the ``xdata-fp-v3`` tag, whose
    #: default config still rendered the three retired knobs.
    V3_KEY = "36114e5b99aa4073bdca2b2e0e2cd5637348dbee4fa54382378d1f7ba0abf49e"

    def test_default_config_no_longer_names_delta_solve(self):
        assert "delta_solve" not in canonical_config(GenConfig())

    def test_default_config_no_longer_names_retired_knobs(self):
        rendered = canonical_config(GenConfig())
        for knob in ("pool_deadline_s", "retry_node_factor",
                     "retry_shrink_copies"):
            assert knob not in rendered

    def _assert_reloads_and_misses(self, tmp_path, old_key):
        import json

        from repro.service import SuiteCache
        from repro.service.jobs import request_key

        path = tmp_path / "cache.jsonl"
        path.write_text(
            json.dumps({"key": request_key(old_key, "generate", None),
                        "payload": '{"datasets":[]}'}) + "\n",
            encoding="utf-8",
        )
        cache = SuiteCache(path=str(path))
        assert len(cache) == 1
        key = request_key(fingerprint(DDL, BASE), "generate", None)
        assert fingerprint(DDL, BASE) != old_key
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_v2_cache_file_reloads_and_misses(self, tmp_path):
        self._assert_reloads_and_misses(tmp_path, self.V2_KEY)

    def test_v3_cache_file_reloads_and_misses(self, tmp_path):
        self._assert_reloads_and_misses(tmp_path, self.V3_KEY)
