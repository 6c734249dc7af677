"""The process memo of mutation spaces (``mutation/space.py:_SPACES``).

A repeated query gets the space its first ``enumerate_mutants`` call
built.  These tests hold a warm space to a cold one, keep alias
respellings and switch settings apart, and check that nothing a caller
is handed can change what the memo serves.
"""

from __future__ import annotations

import dataclasses
import random
import threading

import pytest

import repro
from repro.core.analyze import analyze_query
from repro.datasets import UNIVERSITY_QUERIES, schema_with_fks
from repro.engine.plan import JoinNode, ScanNode, plan_fingerprint
from repro.errors import XDataError
from repro.memo import clear_process_memos, memo_counters
from repro.mutation import enumerate_mutants
from repro.mutation.space import _SPACES, SPACE_MEMO_PLANS
from repro.sql.parser import parse_query
from repro.testing import sample_conformance_query
from repro.testing.killcheck import KillCheckConfig

Q3 = UNIVERSITY_QUERIES["Q3"]["sql"]
Q4 = UNIVERSITY_QUERIES["Q4"]["sql"]


def _analyze(sql, schema):
    return analyze_query(parse_query(sql), schema)


def _misses() -> int:
    return memo_counters()["xdata_memo_mutation_space_misses_total"]


def _observed(space):
    """Everything the kill check reads from a space, by content."""
    return (
        plan_fingerprint(space.original_plan),
        [
            (m.kind, m.description, m.result_class, plan_fingerprint(m.plan))
            for m in space.mutants
        ],
        space.result_classes,
    )


def _plan_bindings(plan) -> set[str]:
    """The table bindings a plan scans."""
    if isinstance(plan, ScanNode):
        return {plan.binding}
    if isinstance(plan, JoinNode):
        return _plan_bindings(plan.left) | _plan_bindings(plan.right)
    return _plan_bindings(plan.child)


def _assert_warm_equals_cold(aq, **switches) -> None:
    first = enumerate_mutants(aq, **switches)
    warm = enumerate_mutants(aq, **switches)
    assert warm is first
    observed = _observed(warm)
    clear_process_memos()
    cold = enumerate_mutants(aq, **switches)
    assert cold is not warm
    assert _observed(cold) == observed


class TestKeys:
    def test_every_entry_point_shares_one_entry(self, uni_schema_nofk):
        clear_process_memos()
        space = enumerate_mutants(Q3, uni_schema_nofk)
        misses = _misses()
        assert enumerate_mutants(parse_query(Q3), uni_schema_nofk) is space
        assert enumerate_mutants(_analyze(Q3, uni_schema_nofk)) is space
        assert _misses() == misses
        counters = memo_counters()
        for counter in ("hits", "misses", "evictions", "stores"):
            assert f"xdata_memo_mutation_space_{counter}_total" in counters

    def test_alias_respelling_gets_its_own_entry(self, uni_schema_nofk):
        clear_process_memos()
        written = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"
        respelled = "SELECT * FROM instructor x, teaches y WHERE x.id = y.id"
        a = enumerate_mutants(written, uni_schema_nofk)
        misses = _misses()
        b = enumerate_mutants(respelled, uni_schema_nofk)
        assert b is not a and _misses() == misses + 1
        assert all("x" in _plan_bindings(m.plan) for m in b.mutants)
        assert all("i" in _plan_bindings(m.plan) for m in a.mutants)

    def test_fk_variants_get_their_own_entries(self):
        info = UNIVERSITY_QUERIES["Q4"]
        variants = [schema_with_fks(rows) for rows in info["fk_rows"]]
        assert len(variants) >= 2
        clear_process_memos()
        spaces = [enumerate_mutants(info["sql"], s) for s in variants[:2]]
        assert spaces[0] is not spaces[1]
        assert _misses() >= 2
        assert spaces[0].analyzed.schema is variants[0]
        assert spaces[1].analyzed.schema is variants[1]

    @pytest.mark.parametrize(
        "switch", ["include_full_outer", "include_join_conditions"]
    )
    def test_switches_get_their_own_entries(self, uni_schema_nofk, switch):
        clear_process_memos()
        off = enumerate_mutants(Q3, uni_schema_nofk)
        on = enumerate_mutants(Q3, uni_schema_nofk, **{switch: True})
        assert on is not off and len(on) > len(off)
        assert enumerate_mutants(Q3, uni_schema_nofk, **{switch: False}) is off
        assert enumerate_mutants(Q3, uni_schema_nofk, **{switch: True}) is on


class TestBound:
    def test_a_q6_sized_space_evicts_smaller_ones(self, table12_jobs):
        """The memo is bounded by plans, not entries: Q6's 3,073 plans
        push out the spaces enumerated before it."""
        clear_process_memos()
        small = [
            (schema, sql) for schema, sql in table12_jobs
            if sql != UNIVERSITY_QUERIES["Q6"]["sql"]
        ]
        spaces = [enumerate_mutants(sql, schema) for schema, sql in small]
        before = _SPACES.total
        assert before == sum(len(space) + 1 for space in spaces)
        assert before <= SPACE_MEMO_PLANS
        evictions = memo_counters()["xdata_memo_mutation_space_evictions_total"]
        schema, sql = next(
            job for job in table12_jobs if job[1] == UNIVERSITY_QUERIES["Q6"]["sql"]
        )
        q6 = enumerate_mutants(sql, schema)
        assert before + len(q6) + 1 > SPACE_MEMO_PLANS
        assert _SPACES.total <= SPACE_MEMO_PLANS
        assert memo_counters()[
            "xdata_memo_mutation_space_evictions_total"
        ] > evictions
        assert enumerate_mutants(sql, schema) is q6
        first_schema, first_sql = small[0]
        misses = _misses()
        assert enumerate_mutants(first_sql, first_schema) is not spaces[0]
        assert _misses() == misses + 1


class TestWarmEqualsCold:
    @pytest.mark.parametrize("full", [False, True], ids=["lr", "full"])
    def test_table12_jobs(self, table12_jobs, full):
        assert len(table12_jobs) == 20
        for schema, sql in table12_jobs:
            _assert_warm_equals_cold(
                _analyze(sql, schema), include_full_outer=full,
                include_join_conditions=True,
            )

    def test_conformance_seeds(self, uni_schema):
        checked = 0
        for seed in range(200):
            sql = sample_conformance_query(random.Random(seed), uni_schema)
            try:
                aq = _analyze(sql, uni_schema)
            except XDataError:
                continue
            _assert_warm_equals_cold(aq, include_full_outer=True)
            checked += 1
        assert checked > 150

    @pytest.mark.parametrize("name", ["Q1", "Q3", "Q4"])
    def test_kill_matrices_warm_cold_and_uncached(self, uni_schema_nofk, name):
        sql = UNIVERSITY_QUERIES[name]["sql"]
        clear_process_memos()
        cold = repro.evaluate(uni_schema_nofk, sql)
        warm = repro.evaluate(uni_schema_nofk, sql)
        assert warm.space is cold.space
        uncached = repro.evaluate(
            uni_schema_nofk, sql,
            options=repro.EvalOptions(kill_config=KillCheckConfig.uncached()),
        )
        matrices = [
            [o.killed_by for o in evaluation.report.outcomes]
            for evaluation in (cold, warm, uncached)
        ]
        assert matrices[0] == matrices[1] == matrices[2]
        assert warm.report.executions == cold.report.executions
        assert uncached.report.executions >= cold.report.executions


class TestCallersCannotCorruptTheMemo:
    def test_mutating_what_was_handed_out_leaves_the_memo_intact(
        self, uni_schema_nofk
    ):
        clear_process_memos()
        space = enumerate_mutants(Q4, uni_schema_nofk)
        before = _observed(space)
        with pytest.raises(AttributeError):
            space.mutants.append(space.mutants[0])
        for field in ("mutants", "original_plan", "analyzed"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(space, field, None)
        copied = list(space.mutants)
        copied.reverse()
        del copied[:10]
        space.by_kind("join").clear()
        with pytest.raises(TypeError):
            space.result_classes[0] = (0, (0,))
        assert enumerate_mutants(Q4, uni_schema_nofk) is space
        assert _observed(space) == before
        clear_process_memos()
        assert _observed(enumerate_mutants(Q4, uni_schema_nofk)) == before


def _report(evaluation):
    report = evaluation.report
    return (
        [(str(o.mutant), o.killed_by) for o in report.outcomes],
        report.executions,
        report.dataset_count,
    )


def test_two_threads_evaluating_one_query_agree(uni_schema_nofk):
    clear_process_memos()
    barrier = threading.Barrier(2)
    results: list = [None, None]

    def work(slot: int) -> None:
        barrier.wait()
        results[slot] = _report(repro.evaluate(uni_schema_nofk, Q4))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert results[0] is not None and results[0] == results[1]
    clear_process_memos()
    assert _report(repro.evaluate(uni_schema_nofk, Q4)) == results[0]
