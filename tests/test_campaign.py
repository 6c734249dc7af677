"""Tests for the crash-safe differential fuzzing campaign.

Covers the campaign subsystem bottom-up: query evolution, corpus
admission, bug fingerprinting and dedup, journal replay and its
one fsync per round,
the three oracles (including seeded-defect detection through lying
backends), driver determinism, crash/hang recovery, graceful drain —
and the pinned acceptance property: SIGKILL mid-campaign followed by
``--resume`` converges to a state identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.backends import BackendDisagreement, EngineBackend
from repro.campaign import (
    BugRecord,
    CampaignConfig,
    CampaignDriver,
    CampaignState,
    Corpus,
    DuplicateSensitivityOracle,
    JoinIdentityOracle,
    OracleContext,
    bug_fingerprint,
    load_checkpoint,
    query_features,
    run_case,
)
from repro.campaign import case as campaign_case
from repro.campaign import driver as driver_module
from repro.campaign.bugs import write_bugs
from repro.campaign.case import CaseBug, CaseResult, CaseTask
from repro.campaign.checkpoint import (
    DRAW_KNOBS,
    apply,
    draw,
    fresh_state,
    read_journal,
    round_record,
)
from repro.campaign.driver import _RoundOutcome
from repro.campaign.oracles import duplicate_sensitivity_transforms
from repro.core.generator import XDataGenerator
from repro.datasets.university import university_schema
from repro.engine.plan import JoinNode, ProjectNode
from repro.engine.relation import Relation
from repro.memo import clear_process_memos, memo_counters
from repro.mutation import evolve_query, evolution_operators
from repro.mutation.space import enumerate_mutants
from repro.obs.journal import JournalWriter, validate_journal
from repro.sql.ast import JoinKind
from repro.testing.killcheck import result_signature

_SCHEMA = university_schema()

_JOIN_SQL = (
    "SELECT * FROM instructor i JOIN teaches t ON i.id = t.id "
    "WHERE i.salary > 70000 AND t.year > 2007"
)


def _space_and_dbs(sql):
    suite = XDataGenerator(_SCHEMA).generate(sql)
    return enumerate_mutants(suite.analyzed, include_full_outer=True), list(
        suite.databases
    )


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


class TestEvolution:
    def test_deterministic_for_same_rng_state(self):
        out1 = evolve_query(random.Random(5), _JOIN_SQL)
        out2 = evolve_query(random.Random(5), _JOIN_SQL)
        assert out1 == out2

    def test_produces_parseable_different_query(self):
        evolved = evolve_query(random.Random(1), _JOIN_SQL)
        assert evolved is not None
        sql, applied = evolved
        assert applied and set(applied) <= set(evolution_operators())
        # Re-printing through the canonical printer must re-parse.
        assert evolve_query(random.Random(2), sql) is not None

    def test_unevolvable_query_returns_none(self):
        assert evolve_query(random.Random(0), "SELECT * FROM course c") is None

    def test_unparseable_returns_none(self):
        assert evolve_query(random.Random(0), "SELEKT nonsense") is None


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_features_capture_structure(self):
        features = query_features(_JOIN_SQL)
        assert "join:inner" in features
        assert any(f.startswith("tables:") for f in features)

    def test_novelty_admission(self):
        corpus = Corpus()
        assert corpus.admit(_JOIN_SQL, origin=0)
        # An evolved child with no new feature is rejected...
        rejected = (
            "SELECT * FROM instructor i JOIN teaches t ON i.id = t.id "
            "WHERE i.salary > 60000 AND t.year > 2006"
        )
        assert not corpus.admit(rejected, origin=0, generation=1)
        # ...but a new join kind is novel.
        novel = (
            "SELECT * FROM instructor i LEFT OUTER JOIN teaches t "
            "ON i.id = t.id WHERE i.salary > 70000"
        )
        assert corpus.admit(novel, origin=0, generation=1)

    def test_seed_members_bypass_novelty(self):
        corpus = Corpus()
        assert corpus.admit("SELECT * FROM course c", origin=0, generation=0)
        assert corpus.admit(
            "SELECT * FROM course c WHERE c.credits > 3", origin=1,
            generation=0,
        )

    def test_bounded_size_evicts_most_trialled(self):
        corpus = Corpus(max_size=2)
        corpus.admit("SELECT * FROM course c", 0)
        corpus.admit("SELECT * FROM instructor i", 1)
        corpus.items[0].trials = 9
        corpus.admit("SELECT * FROM student s", 2)
        assert len(corpus) == 2
        assert all(item.trials < 9 for item in corpus.items)


# ---------------------------------------------------------------------------
# bugs
# ---------------------------------------------------------------------------


def _case_bug(fingerprint="f1") -> CaseBug:
    return CaseBug(
        fingerprint=fingerprint,
        oracle="join-identity",
        context="case 3: identity violation",
        sql=_JOIN_SQL,
        minimized_dataset={"instructor": [[1, "a", "CS", None]]},
        results={},
    )


def _case_entry(bug=None) -> dict:
    """One case of a ``campaign_checkpoint`` record."""
    entry = {"sql": _JOIN_SQL, "executions": 3, "checks": 2, "skipped": None}
    if bug is not None:
        entry["bug"] = bug
    return entry


class TestBugTracker:
    """Bug triage: structural fingerprints, dedup in ``apply`` and the
    ``bugs.jsonl`` view."""

    def _bug(self, fingerprint="f1"):
        return BugRecord(
            seed_case=3, **dataclasses.asdict(_case_bug(fingerprint))
        )

    def test_fingerprint_is_stable_and_content_sensitive(self):
        rows = {"t": [[1, None], [2, "x"]]}
        a = bug_fingerprint("cross-check", "plan1", rows)
        assert a == bug_fingerprint("cross-check", "plan1", rows)
        assert a != bug_fingerprint("cross-check", "plan2", rows)
        assert a != bug_fingerprint("join-identity", "plan1", rows)
        assert a != bug_fingerprint(
            "cross-check", "plan1", {"t": [[1, None]]}
        )

    def test_dedup_counts_hits(self):
        state = CampaignState(random.Random(0), Corpus())
        first = _case_entry(dataclasses.asdict(_case_bug()))
        apply(state, {"requeued": 0, "cases": [first, _case_entry("f1")]})
        assert state.bugs["f1"].hits == 2
        assert state.bugs["f1"].seed_case == 0
        assert len(state.bugs) == 1
        assert (state.stats["bugs"], state.stats["rediscoveries"]) == (1, 1)

    def test_flush_load_round_trip(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        bugs = {"a": self._bug("a"), "b": self._bug("b")}
        write_bugs(path, bugs)
        with open(path, encoding="utf-8") as fh:
            restored = [BugRecord(**json.loads(line)) for line in fh]
        assert restored == [bugs["a"], bugs["b"]]

    def test_flush_is_rewrite_not_append(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        write_bugs(path, {"a": self._bug("a")})
        write_bugs(path, {"a": self._bug("a")})  # a resume rewrites the view
        lines = [
            line
            for line in open(path, encoding="utf-8").read().splitlines()
            if line.strip()
        ]
        assert len(lines) == 1


# ---------------------------------------------------------------------------
# checkpoint: the journal replayed
# ---------------------------------------------------------------------------


def _snapshot(state: CampaignState) -> tuple:
    """Everything a campaign state holds, in comparable form."""
    return (
        state.next_case,
        state.round,
        state.rng.getstate(),
        state.corpus,
        state.stats,
        state.bugs,
    )


def _synthetic_journal(config: CampaignConfig, rounds: int) -> CampaignState:
    """Journal ``rounds`` rounds of synthetic results; return the live
    state they leave."""
    os.makedirs(config.dir)
    journal = JournalWriter(config.path("journal.jsonl"))
    journal.campaign_start(
        cases=config.cases, resumed=False,
        **{name: getattr(config, name) for name in DRAW_KNOBS},
    )
    state = fresh_state(config)
    for _ in range(rounds):
        tasks = draw(state, config, config.round_size)
        results = [
            CaseResult(task.index, task.sql, executions=task.index, checks=1)
            for task in tasks
        ]
        record = round_record(state, results, requeued=1)
        journal.campaign_checkpoint(**record)
        apply(state, record)
    journal.close()
    return state


class TestCheckpoint:
    def test_round_trip_including_rng(self, tmp_path):
        config = _config(tmp_path)
        state = _synthetic_journal(config, rounds=2)
        restored = load_checkpoint(config.path("journal.jsonl"))
        assert restored.next_case == 8 and restored.stats["requeued"] == 2
        assert _snapshot(restored) == _snapshot(state)
        # The restored RNG continues the exact stream.
        assert restored.rng.random() == state.rng.random()

    def test_replay_refuses_a_journal_it_cannot_redraw(self, tmp_path):
        config = _config(tmp_path)
        _synthetic_journal(config, rounds=2)
        path = config.path("journal.jsonl")
        lines = open(path, encoding="utf-8").read().splitlines(True)
        record = json.loads(lines[-1])
        record["cases"][0]["sql"] = "SELECT * FROM course c"
        lines[-1] = json.dumps(record) + "\n"
        open(path, "w", encoding="utf-8").writelines(lines)
        with pytest.raises(ValueError, match="round 2 does not replay"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class _LyingBackend:
    """Wraps the engine and corrupts results for selected plans."""

    name = "lying-engine"

    def __init__(self, corrupt):
        self._inner = EngineBackend()
        self._corrupt = corrupt

    def load(self, db):
        return self._inner.load(db)

    def execute(self, handle, plan):
        relation = self._inner.execute(handle, plan)
        return self._corrupt(plan, relation)

    def close(self, handle):
        self._inner.close(handle)


class TestOracles:
    def test_transforms_preserve_results_on_engine(self):
        space, dbs = _space_and_dbs(_JOIN_SQL)
        backend = EngineBackend()
        transforms = list(
            duplicate_sensitivity_transforms(space.original_plan)
        )
        assert transforms, "join + 2 conjuncts must admit transforms"
        for db in dbs:
            handle = backend.load(db)
            base = result_signature(
                backend.execute(handle, space.original_plan)
            )
            for label, plan in transforms:
                assert (
                    result_signature(backend.execute(handle, plan)) == base
                ), f"transform {label} changed the result bag"
            backend.close(handle)

    def test_duplicate_sensitivity_catches_seeded_defect(self):
        space, dbs = _space_and_dbs(_JOIN_SQL)

        def corrupt(plan, relation):
            # Misevaluate exactly the stacked-filter shape the
            # filter-idempotence transform produces: drop a row.
            from repro.engine.plan import SelectNode

            if (
                isinstance(plan, ProjectNode)
                and isinstance(plan.child, SelectNode)
                and isinstance(plan.child.child, SelectNode)
                and relation.rows
            ):
                return Relation(
                    list(relation.columns), list(relation.rows[:-1])
                )
            return relation

        ctx = OracleContext(
            space=space, databases=dbs, primary=_LyingBackend(corrupt)
        )
        with pytest.raises(BackendDisagreement) as info:
            DuplicateSensitivityOracle().check(ctx)
        assert info.value.oracle == "duplicate-sensitivity"
        minimized = DuplicateSensitivityOracle().minimize(info.value, ctx)
        assert minimized.total_rows() <= info.value.dataset.total_rows()

    def test_duplicate_sensitivity_passes_on_honest_engine(self):
        space, dbs = _space_and_dbs(_JOIN_SQL)
        ctx = OracleContext(
            space=space, databases=dbs, primary=EngineBackend()
        )
        outcome = DuplicateSensitivityOracle().check(ctx)
        assert outcome.checks > 0 and outcome.skipped is None

    def test_join_identity_catches_lost_dangling_rows(self):
        space, dbs = _space_and_dbs(_JOIN_SQL)

        def corrupt(plan, relation):
            # A FULL join that silently drops one row: the classic
            # incomplete-result logic bug.
            if (
                isinstance(plan, ProjectNode)
                and isinstance(plan.child, JoinNode)
                and plan.child.kind is JoinKind.FULL
                and relation.rows
            ):
                return Relation(
                    list(relation.columns), list(relation.rows[:-1])
                )
            return relation

        ctx = OracleContext(
            space=space, databases=dbs, primary=_LyingBackend(corrupt)
        )
        with pytest.raises(BackendDisagreement) as info:
            JoinIdentityOracle().check(ctx)
        assert info.value.oracle == "join-identity"

    def test_join_identity_passes_on_honest_engine(self):
        space, dbs = _space_and_dbs(_JOIN_SQL)
        ctx = OracleContext(
            space=space, databases=dbs, primary=EngineBackend()
        )
        outcome = JoinIdentityOracle().check(ctx)
        assert outcome.checks > 0 and outcome.skipped is None

    def test_join_identity_skips_joinless_plans(self):
        space, dbs = _space_and_dbs(
            "SELECT * FROM course c WHERE c.credits > 2"
        )
        ctx = OracleContext(
            space=space, databases=dbs, primary=EngineBackend()
        )
        assert JoinIdentityOracle().check(ctx).skipped == "no join nodes"


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


class TestRunCase:
    def test_healthy_case_checks_all_oracles(self):
        result = run_case(
            CaseTask(
                index=0,
                sql=_JOIN_SQL,
                oracles=("cross-check", "duplicate-sensitivity",
                         "join-identity"),
            )
        )
        assert result.skipped is None and result.bug is None
        assert result.executions > 0
        assert [run.oracle for run in result.oracle_runs] == [
            "cross-check", "duplicate-sensitivity", "join-identity",
        ]

    def test_unsupported_query_is_a_skip_not_an_error(self):
        result = run_case(
            CaseTask(index=0, sql="SELECT * FROM nosuch n", oracles=())
        )
        assert result.skipped is not None

    def test_dataset_drop_variants_stay_valid(self):
        result = run_case(
            CaseTask(
                index=0,
                sql=_JOIN_SQL,
                oracles=("join-identity",),
                dataset_drop=0.9,
                drop_seed=5,
            )
        )
        assert result.skipped is None and result.bug is None


#: Fixed conformance-grammar cases (case index, SQL) with every oracle
#: on, and the counts ``run_case`` gave for each before the cross-check
#: moved onto the slot-table engine: ``(executions, checks, skipped,
#: per-oracle (oracle, executions, checks, skipped))``.
_ALL_ORACLES = ("cross-check", "duplicate-sensitivity", "join-identity")
_PINNED_CASES = [
    (
        0, "SELECT d.building, SUM(d.budget) FROM department d "
        "WHERE d.budget IS NOT NULL GROUP BY d.building",
        (57, 42, None, [("cross-check", 27, 27, None),
                        ("duplicate-sensitivity", 30, 15, None),
                        ("join-identity", 0, 0, "no join nodes")]),
    ),
    (
        1, "SELECT * FROM instructor i WHERE i.salary <> 75000 "
        "AND i.salary <= 45000",
        (155, 130, None, [("cross-check", 55, 55, None),
                          ("duplicate-sensitivity", 100, 75, None),
                          ("join-identity", 0, 0, "no join nodes")]),
    ),
    (
        3, "SELECT * FROM advisor a, instructor i WHERE a.i_id = i.id",
        (14, 12, None, [("cross-check", 8, 8, None),
                        ("duplicate-sensitivity", 6, 4, None),
                        ("join-identity", 0, 0, "no join nodes")]),
    ),
    (
        4, "SELECT * FROM teaches t RIGHT OUTER JOIN course c "
        "ON t.course_id = c.course_id WHERE t.year = 2006 AND c.credits < 1",
        (312, 248, None, [("cross-check", 112, 112, None),
                          ("duplicate-sensitivity", 168, 128, None),
                          ("join-identity", 32, 8, None)]),
    ),
    (
        8, "SELECT * FROM student s, department d WHERE s.dept_name = d.dept_name",
        (14, 12, None, [("cross-check", 8, 8, None),
                        ("duplicate-sensitivity", 6, 4, None),
                        ("join-identity", 0, 0, "no join nodes")]),
    ),
    (
        9, "SELECT * FROM instructor i NATURAL RIGHT OUTER JOIN student s",
        (56, 35, None, [("cross-check", 28, 28, None),
                        ("duplicate-sensitivity", 0, 0, None),
                        ("join-identity", 28, 7, None)]),
    ),
]


def _pinned_task(position: int) -> CaseTask:
    index, sql, _ = _PINNED_CASES[position]
    return CaseTask(
        index=index,
        sql=sql,
        oracles=_ALL_ORACLES,
        force_join_rewrites=bool(index % 2),
        dataset_drop=0.5,
        drop_seed=index,
    )


def _plant_slot_fault(monkeypatch) -> None:
    """Make the engine's projection slot runner drop the last row of
    every multi-row result."""
    from repro.engine import executor

    project = executor._SLOT_RUNNERS[ProjectNode]

    def drop_last_row(*args):
        out = project(*args)
        if len(out.rows) > 1:
            return Relation(list(out.columns), list(out.rows[:-1]))
        return out

    monkeypatch.setitem(executor._SLOT_RUNNERS, ProjectNode, drop_last_row)


class TestCachedPathFuzzing:
    """The cross-check oracle runs the engine on the slot table, the path
    grading uses, so a fault planted there is a campaign finding."""

    def test_counts_are_unchanged(self):
        for position, (_, sql, expected) in enumerate(_PINNED_CASES):
            result = run_case(_pinned_task(position))
            runs = [
                (run.oracle, run.executions, run.checks, run.skipped)
                for run in result.oracle_runs
            ]
            assert result.bug is None
            assert (
                result.executions, result.checks, result.skipped, runs
            ) == expected, sql

    def test_fault_in_the_slot_table_is_reported(self, monkeypatch):
        _plant_slot_fault(monkeypatch)
        bugs = [run_case(_pinned_task(position)).bug for position in (2, 4, 5)]
        assert all(bug is not None for bug in bugs)
        assert {bug.oracle for bug in bugs} == {"cross-check"}
        # The minimizer checks candidates on the same cached path, so the
        # repro shrinks instead of staying the whole triggering dataset.
        assert all(
            sum(map(len, bug.minimized_dataset.values())) <= 12
            for bug in bugs
        )


def _repeating_tasks() -> list[CaseTask]:
    """Pinned cases with repeated SQL texts (one repeat with other
    row-drop settings) and a repeated generation skip."""
    tasks = [
        dataclasses.replace(_pinned_task(position), index=index)
        for index, position in enumerate((0, 3, 0, 5, 3, 0))
    ]
    tasks[2] = dataclasses.replace(tasks[2], dataset_drop=0.0)
    tasks[5] = dataclasses.replace(tasks[5], drop_seed=99)
    for index in (6, 7):
        tasks.append(CaseTask(index, "SELECT * FROM nosuch n", _ALL_ORACLES))
    return tasks


def _without_elapsed(result):
    result.elapsed = 0.0
    return result


def _memoized_datasets(sql: str) -> list[dict]:
    datasets, _ = campaign_case._PREPARED.peek(sql)
    return [campaign_case.serialize_database(db) for db in datasets]


class TestPreparedCases:
    """A worker generates each distinct SQL text once; the row-drop
    variants and every oracle still run for every case."""

    def test_memoized_results_equal_cold_results(self):
        tasks = _repeating_tasks()
        clear_process_memos()
        warm = [_without_elapsed(run_case(task)) for task in tasks]
        cold = []
        for task in tasks:
            clear_process_memos()
            cold.append(_without_elapsed(run_case(task)))
        assert warm == cold
        assert warm[0].executions > 0 and warm[6].skipped is not None

    def test_one_miss_per_distinct_sql_text(self):
        tasks = _repeating_tasks()
        clear_process_memos()
        before = memo_counters()
        for task in tasks:
            run_case(task)
        after = memo_counters()
        delta = {
            counter: after[f"xdata_memo_campaign_case_{counter}_total"]
            - before[f"xdata_memo_campaign_case_{counter}_total"]
            for counter in ("hits", "misses", "stores")
        }
        distinct = len({task.sql for task in tasks})
        assert delta == {
            "hits": len(tasks) - distinct,
            "misses": distinct,
            "stores": distinct,
        }

    def test_row_drops_and_minimization_leave_the_memo_intact(
        self, monkeypatch
    ):
        task = _pinned_task(4)
        assert task.dataset_drop > 0
        clear_process_memos()
        run_case(task)
        before = _memoized_datasets(task.sql)
        run_case(task)
        assert _memoized_datasets(task.sql) == before
        _plant_slot_fault(monkeypatch)
        assert run_case(task).bug is not None
        assert _memoized_datasets(task.sql) == before

    def test_each_dataset_is_validated_once_per_case(self, monkeypatch):
        from repro.engine import integrity

        task = CaseTask(0, _JOIN_SQL, _ALL_ORACLES)
        run_case(task)
        validated = []
        real = integrity.find_violations
        monkeypatch.setattr(
            integrity, "find_violations",
            lambda db: validated.append(id(db)) or real(db),
        )
        result = run_case(task)
        datasets, _ = campaign_case._PREPARED.peek(task.sql)
        assert result.bug is None and len(result.oracle_runs) == 3
        assert sorted(validated) == sorted(id(db) for db in datasets)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _config(tmp_path, **overrides) -> CampaignConfig:
    defaults = dict(
        dir=str(tmp_path / "campaign"),
        seed=11,
        cases=8,
        round_size=4,
        workers=2,
        case_deadline=60.0,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _committed(directory: str) -> tuple:
    """A campaign directory's committed records and replayed state."""
    journal = os.path.join(directory, "journal.jsonl")
    _, records, _ = read_journal(journal)
    return records, _snapshot(load_checkpoint(journal))


def _bugs_view(directory: str) -> str:
    with open(os.path.join(directory, "bugs.jsonl"), encoding="utf-8") as fh:
        return fh.read()


def _synthetic_rounds(monkeypatch, bug_cases=()) -> None:
    """Replace case execution with synthetic results; the cases indexed
    in ``bug_cases`` all report one planted bug."""

    def run_round(self, pool, tasks):
        results = []
        for task in tasks:
            result = CaseResult(task.index, task.sql, executions=2, checks=1)
            if task.index in bug_cases:
                result.bug = _case_bug("planted")
            results.append(result)
        return _RoundOutcome(results=results)

    monkeypatch.setattr(CampaignDriver, "_run_round", run_round)


class _Crash(Exception):
    """Stands in for a SIGKILL that lands right after a commit."""


def _crash_after_round(monkeypatch, rounds: int) -> None:
    """Make the driver die right after round ``rounds`` is committed."""

    class CrashingJournal(JournalWriter):
        def event(self, kind: str, **payload) -> None:
            super().event(kind, **payload)
            if kind == "campaign_checkpoint" and payload["round"] == rounds:
                raise _Crash

    monkeypatch.setattr(driver_module, "JournalWriter", CrashingJournal)


class TestDriver:
    def test_campaign_completes_and_journal_validates(self, tmp_path):
        config = _config(tmp_path)
        report = CampaignDriver(config).run()
        assert report["completed"] and not report["interrupted"]
        assert report["stats"]["cases"] == 8
        assert report["cases_per_s"] is None or report["cases_per_s"] > 0
        events = validate_journal(config.path("journal.jsonl"))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        assert "campaign_checkpoint" in kinds
        report_on_disk = json.load(open(config.path("report.json")))
        assert report_on_disk["stats"] == report["stats"]

    def test_same_seed_is_bit_deterministic(self, tmp_path):
        a = _config(tmp_path, dir=str(tmp_path / "a"))
        b = _config(tmp_path, dir=str(tmp_path / "b"))
        CampaignDriver(a).run()
        CampaignDriver(b).run()
        assert _committed(a.dir) == _committed(b.dir)
        assert _bugs_view(a.dir) == _bugs_view(b.dir)

    def test_one_fsync_per_round(self, tmp_path, monkeypatch):
        fsynced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsynced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        config = _config(tmp_path, workers=1)  # 8 cases in rounds of 4
        report = CampaignDriver(config).run()
        assert report["rounds"] == 2
        assert len(fsynced) == 2
        assert sorted(os.listdir(config.dir)) == [
            "bugs.jsonl", "journal.jsonl", "report.json",
        ]

    def test_resume_continues_the_same_stream(self, tmp_path):
        full = _config(tmp_path, dir=str(tmp_path / "full"), cases=12)
        CampaignDriver(full).run()
        split = _config(tmp_path, dir=str(tmp_path / "split"), cases=8)
        CampaignDriver(split).run()
        grown = _config(tmp_path, dir=str(tmp_path / "split"), cases=12)
        CampaignDriver(grown, resume=True).run()
        assert _committed(full.dir) == _committed(grown.dir)
        assert _bugs_view(full.dir) == _bugs_view(grown.dir)

    def test_resume_after_eviction_is_exact(self, tmp_path):
        """A full corpus evicts a member on each admission; a resume
        must still know the evicted members' features, or it admits
        children the uninterrupted run rejects."""
        knobs = dict(seed=11, round_size=4, workers=1, corpus_max=8)
        full = _config(tmp_path, dir=str(tmp_path / "full"), cases=32, **knobs)
        CampaignDriver(full).run()
        split = _config(tmp_path, dir=str(tmp_path / "split"), cases=16, **knobs)
        CampaignDriver(split).run()
        grown = _config(tmp_path, dir=str(tmp_path / "split"), cases=32, **knobs)
        CampaignDriver(grown, resume=True).run()
        state = load_checkpoint(full.path("journal.jsonl"))
        assert state.stats["admitted"] > 0 and len(state.corpus) == 8
        assert _committed(grown.dir) == _committed(full.dir)

    def test_resume_refuses_mismatched_seed(self, tmp_path):
        config = _config(tmp_path)
        CampaignDriver(config).run()
        other = _config(tmp_path, seed=99)
        with pytest.raises(ValueError, match="seed"):
            CampaignDriver(other, resume=True).run()

    @pytest.mark.parametrize(
        "knob, value",
        [("seed_corpus", 6), ("corpus_max", 9), ("evolve_probability", 0.5),
         ("dataset_drop_probability", 0.25), ("dataset_drop", 0.5)],
    )
    def test_resume_refuses_a_mismatched_draw_knob(
        self, tmp_path, monkeypatch, knob, value
    ):
        _synthetic_rounds(monkeypatch)
        CampaignDriver(_config(tmp_path)).run()
        other = _config(tmp_path, **{knob: value})
        with pytest.raises(ValueError, match=f"journal {knob} "):
            CampaignDriver(other, resume=True).run()

    def test_crash_after_a_commit_keeps_bug_hits_exact(
        self, tmp_path, monkeypatch
    ):
        """A bug first found in round 2 recurs in round 3.  A crash right
        after round 2 commits, then a resume, must report it as the
        uninterrupted run does: once, with ``hits`` 2."""
        _synthetic_rounds(monkeypatch, bug_cases=(5, 9))
        reference = _config(tmp_path, dir=str(tmp_path / "ref"), cases=12)
        CampaignDriver(reference).run()
        crashed = _config(tmp_path, dir=str(tmp_path / "crashed"), cases=12)
        with monkeypatch.context() as patch:
            _crash_after_round(patch, 2)
            with pytest.raises(_Crash):
                CampaignDriver(crashed).run()
        report = CampaignDriver(crashed, resume=True).run()
        assert report["completed"] and report["resumed"]
        view = _bugs_view(reference.dir)
        assert [json.loads(line)["hits"] for line in view.splitlines()] == [2]
        assert _bugs_view(crashed.dir) == view
        assert _committed(crashed.dir) == _committed(reference.dir)

    def test_torn_tail_is_cut_before_resume(self, tmp_path, monkeypatch):
        """A SIGKILL mid-append leaves half a record; the resume drops
        it, replays the committed rounds and completes the campaign."""
        full = _config(tmp_path, dir=str(tmp_path / "full"), cases=12, workers=1)
        CampaignDriver(full).run()
        torn = _config(tmp_path, dir=str(tmp_path / "torn"), cases=12, workers=1)
        with monkeypatch.context() as patch:
            _crash_after_round(patch, 1)
            with pytest.raises(_Crash):
                CampaignDriver(torn).run()
        # Half of the next record, as the uninterrupted run wrote it.
        lines = open(full.path("journal.jsonl"), encoding="utf-8").readlines()
        second = [line for line in lines if "campaign_checkpoint" in line][1]
        with open(torn.path("journal.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(second[: len(second) // 2])
        report = CampaignDriver(torn, resume=True).run()
        assert report["completed"] and report["resumed"]
        validate_journal(torn.path("journal.jsonl"))
        assert _committed(torn.dir) == _committed(full.dir)

    def test_results_identical_across_pool_widths(self, tmp_path):
        """Every pool width completes the same campaign with the same
        counters, bugs and corpus as a single worker: results are
        applied in case order, never completion order."""
        reports = {}
        for workers in (1, 2, 4):
            config = _config(
                tmp_path, dir=str(tmp_path / f"workers{workers}"),
                seed=1234, cases=48, round_size=8, workers=workers,
                case_deadline=120.0,
            )
            report = CampaignDriver(config).run()
            assert report["completed"], f"workers={workers}"
            reports[workers] = (
                report["stats"], report["bugs"], report["corpus_size"]
            )
        assert reports[2] == reports[1]
        assert reports[4] == reports[1]

    def test_worker_crash_is_requeued_and_survived(
        self, tmp_path, monkeypatch
    ):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        monkeypatch.setenv("XDATA_CAMPAIGN_FAULTS", "2:crash")
        monkeypatch.setenv("XDATA_CAMPAIGN_FAULT_DIR", str(marker_dir))
        config = _config(tmp_path)
        report = CampaignDriver(config).run()
        assert report["completed"]
        assert report["stats"]["cases"] == 8
        assert report["stats"]["requeued"] >= 1
        assert (marker_dir / "case2.crash").exists()

    def test_hung_worker_is_killed_and_requeued(self, tmp_path, monkeypatch):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        monkeypatch.setenv("XDATA_CAMPAIGN_FAULTS", "1:hang:60")
        monkeypatch.setenv("XDATA_CAMPAIGN_FAULT_DIR", str(marker_dir))
        config = _config(tmp_path, case_deadline=1.5)
        report = CampaignDriver(config).run()
        assert report["completed"]
        assert report["stats"]["cases"] == 8
        assert report["stats"]["requeued"] >= 1
        assert (
            report["metrics"]["counters"][
                "xdata_campaign_watchdog_kills_total"
            ]
            >= 1
        )

    def test_new_bugs_are_deduplicated_across_rounds(
        self, tmp_path, monkeypatch
    ):
        # Synthetic results exercise the record and apply path without
        # needing a real engine defect: three cases hit one fingerprint.
        _synthetic_rounds(monkeypatch, bug_cases=(1, 2, 5))
        config = _config(tmp_path)
        report = CampaignDriver(config).run()
        assert report["bugs"] == 1
        assert report["stats"]["bugs"] == 1
        assert report["stats"]["rediscoveries"] == 2
        _, records, _ = read_journal(config.path("journal.jsonl"))
        bugs = [case.get("bug") for record in records for case in record["cases"]]
        # In full the first time, by fingerprint after that.
        assert isinstance(bugs[1], dict) and bugs[1]["fingerprint"] == "planted"
        assert [bugs[2], bugs[5]] == ["planted", "planted"]
        assert bugs.count(None) == 5
        (line,) = _bugs_view(config.dir).splitlines()
        assert json.loads(line)["hits"] == 3
        assert json.loads(line)["seed_case"] == 1
        validate_journal(config.path("journal.jsonl"))


# ---------------------------------------------------------------------------
# the pinned acceptance property: SIGKILL + --resume == uninterrupted
# ---------------------------------------------------------------------------


def _cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.pop("XDATA_CAMPAIGN_FAULTS", None)
    env.pop("XDATA_CAMPAIGN_FAULT_DIR", None)
    return env


_CLI = [
    sys.executable, "-m", "repro.cli", "campaign",
    "--seed", "11", "--round-size", "4", "--workers", "2",
]

_HAS_PROC = os.path.isdir("/proc/self")


def _live_group_members(group: int) -> list[int]:
    """Pids of the process group's members that are not zombies."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited meanwhile
        # After the parenthesised command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == group and state != "Z":
            members.append(int(entry))
    return members


def _committed_next_case(journal: str) -> int:
    """``next_case`` of the journal's last complete record (0 if none)."""
    try:
        _, records, _ = read_journal(journal)
    except OSError:
        return 0  # not created yet
    return records[-1]["next_case"] if records else 0


class TestKillResume:
    def test_sigkill_then_resume_matches_uninterrupted_run(self, tmp_path):
        env = _cli_env()
        reference = str(tmp_path / "reference")
        subprocess.run(
            _CLI + ["--dir", reference, "--cases", "24"],
            env=env, check=True, capture_output=True, timeout=300,
        )
        killed = str(tmp_path / "killed")
        # Its own session, so the driver and its pool workers form one
        # process group the test can account for and clean up.
        proc = subprocess.Popen(
            _CLI + ["--dir", killed, "--cases", "24"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        group = proc.pid
        journal = os.path.join(killed, "journal.jsonl")
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if _committed_next_case(journal) >= 8:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("campaign never reached the kill point")
            if _HAS_PROC:
                assert len(_live_group_members(group)) > 1, "no pool workers"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            # The orphaned workers must obey a SIGTERM to the group, not
            # the flag-only drain handler the driver installed.
            os.killpg(group, signal.SIGTERM)
            if _HAS_PROC:
                deadline = time.monotonic() + 30
                while _live_group_members(group) and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert _live_group_members(group) == []
        finally:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=60)
        killed_at = _committed_next_case(journal)
        assert 8 <= killed_at < 24, "SIGKILL landed mid-campaign"
        done = subprocess.run(
            _CLI + ["--dir", killed, "--cases", "24", "--resume"],
            env=env, check=True, capture_output=True, timeout=300,
            text=True,
        )
        assert "complete" in done.stdout
        # Records, corpus, RNG position, stats and bugs (hits included):
        # all identical to the run that was never interrupted.
        assert _committed(killed) == _committed(reference)
        assert _bugs_view(killed) == _bugs_view(reference)
        # No duplicate bug reports.
        lines = [
            json.loads(line)
            for line in open(os.path.join(killed, "bugs.jsonl"))
            if line.strip()
        ]
        fingerprints = [record["fingerprint"] for record in lines]
        assert len(fingerprints) == len(set(fingerprints))
        # The journal validates even with the torn campaign inside it
        # (resume's campaign_start implicitly closes the killed one).
        events = validate_journal(journal)
        starts = [e for e in events if e["event"] == "campaign_start"]
        assert len(starts) == 2 and starts[1]["resumed"] is True

    def test_sigterm_drains_gracefully(self, tmp_path):
        env = _cli_env()
        directory = str(tmp_path / "drained")
        proc = subprocess.Popen(
            _CLI + ["--dir", directory, "--cases", "2000"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        journal = os.path.join(directory, "journal.jsonl")
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                # The journal exists before round 1; wait for a commit.
                if _committed_next_case(journal) > 0:
                    break
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, out
        assert "interrupted (resumable)" in out
        events = validate_journal(journal)
        end = [e for e in events if e["event"] == "campaign_end"]
        assert len(end) == 1 and end[0]["ok"] is False
        # The drained journal is resumable.
        state = load_checkpoint(journal)
        assert state.next_case >= 4
