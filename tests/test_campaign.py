"""Tests for the crash-safe differential fuzzing campaign.

Covers the campaign subsystem bottom-up: query evolution, corpus
admission/round-trip, bug fingerprinting and dedup, atomic checkpoints,
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
    BugTracker,
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
    save_checkpoint,
)
from repro.campaign import case as campaign_case
from repro.campaign.case import CaseTask
from repro.campaign.oracles import duplicate_sensitivity_transforms
from repro.core.generator import XDataGenerator
from repro.datasets.university import university_schema
from repro.engine.plan import JoinNode, ProjectNode
from repro.engine.relation import Relation
from repro.memo import clear_process_memos, memo_counters
from repro.mutation import evolve_query, evolution_operators
from repro.mutation.space import enumerate_mutants
from repro.obs.journal import validate_journal
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

    def test_state_round_trip(self):
        corpus = Corpus(max_size=7)
        corpus.admit(_JOIN_SQL, origin=0)
        corpus.items[0].trials = 4
        restored = Corpus.from_state(corpus.state())
        assert restored.state() == corpus.state()
        assert restored.items[0].features == corpus.items[0].features

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


class TestBugTracker:
    def _bug(self, fingerprint="f1"):
        return BugRecord(
            fingerprint=fingerprint,
            oracle="join-identity",
            context="case 3: identity violation",
            sql=_JOIN_SQL,
            seed_case=3,
            minimized_dataset={"instructor": [[1, "a", "CS", None]]},
            results={},
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
        tracker = BugTracker()
        assert tracker.record(self._bug())
        assert not tracker.record(self._bug())
        assert tracker.bugs["f1"].hits == 2
        assert len(tracker) == 1

    def test_flush_load_round_trip(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        tracker = BugTracker(path=path)
        tracker.record(self._bug("a"))
        tracker.record(self._bug("b"))
        tracker.flush()
        restored = BugTracker.load(path)
        assert restored.fingerprints == {"a", "b"}
        assert restored.bugs["a"].sql == _JOIN_SQL

    def test_flush_is_rewrite_not_append(self, tmp_path):
        path = str(tmp_path / "bugs.jsonl")
        tracker = BugTracker(path=path)
        tracker.record(self._bug("a"))
        tracker.flush()
        tracker.flush()  # a replayed round re-flushes the same store
        lines = [
            line
            for line in open(path, encoding="utf-8").read().splitlines()
            if line.strip()
        ]
        assert len(lines) == 1

    def test_failed_flush_keeps_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "bugs.jsonl")
        tracker = BugTracker(path=path)
        tracker.record(self._bug("a"))
        tracker.flush()
        before = open(path, encoding="utf-8").read()
        tracker.record(self._bug("b"))

        import repro.campaign.bugs as bugs_mod

        def boom(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(bugs_mod.os, "replace", boom)
        with pytest.raises(OSError):
            tracker.flush()
        assert open(path, encoding="utf-8").read() == before
        assert not [
            name for name in os.listdir(tmp_path) if ".tmp." in name
        ]


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_round_trip_including_rng(self, tmp_path):
        state = CampaignState(seed=3)
        rng = random.Random(3)
        rng.random()
        state.capture_rng(rng)
        state.next_case = 12
        state.round = 3
        state.corpus.admit(_JOIN_SQL, 0)
        state.seen_bugs.add("deadbeef")
        state.stats["cases"] = 12
        path = str(tmp_path / "checkpoint.json")
        save_checkpoint(path, state)
        restored = load_checkpoint(path)
        assert restored.next_case == 12
        assert restored.seen_bugs == {"deadbeef"}
        assert restored.corpus.state() == state.corpus.state()
        # The restored RNG continues the exact stream.
        assert restored.make_rng().random() == rng.random()

    def test_failed_save_leaves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "checkpoint.json")
        save_checkpoint(path, CampaignState(seed=1))
        before = open(path, encoding="utf-8").read()

        import repro.campaign.checkpoint as cp_mod

        monkeypatch.setattr(
            cp_mod.os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("crash")),
        )
        with pytest.raises(OSError):
            save_checkpoint(path, CampaignState(seed=2))
        assert open(path, encoding="utf-8").read() == before


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


def _checkpoint_sans_clock(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data.pop("ts")
    return data


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
        assert _checkpoint_sans_clock(
            a.path("checkpoint.json")
        ) == _checkpoint_sans_clock(b.path("checkpoint.json"))

    def test_resume_continues_the_same_stream(self, tmp_path):
        full = _config(tmp_path, dir=str(tmp_path / "full"), cases=12)
        CampaignDriver(full).run()
        split = _config(tmp_path, dir=str(tmp_path / "split"), cases=8)
        CampaignDriver(split).run()
        grown = _config(tmp_path, dir=str(tmp_path / "split"), cases=12)
        CampaignDriver(grown, resume=True).run()
        assert _checkpoint_sans_clock(
            full.path("checkpoint.json")
        ) == _checkpoint_sans_clock(grown.path("checkpoint.json"))

    def test_resume_refuses_mismatched_seed(self, tmp_path):
        config = _config(tmp_path)
        CampaignDriver(config).run()
        other = _config(tmp_path, seed=99)
        with pytest.raises(ValueError, match="seed"):
            CampaignDriver(other, resume=True).run()

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

    def test_new_bugs_are_deduplicated_across_rounds(self, tmp_path):
        # Synthetic results exercise the apply path without needing a
        # real engine defect: two cases hit the same fingerprint.
        from repro.campaign.case import CaseBug, CaseResult
        from repro.campaign.driver import _RoundOutcome
        from repro.obs import JournalWriter

        config = _config(tmp_path)
        os.makedirs(config.dir)
        driver = CampaignDriver(config)
        state = CampaignState(seed=11)
        tracker = BugTracker(path=config.path("bugs.jsonl"))
        journal = JournalWriter(config.path("journal.jsonl"))
        journal.campaign_start(seed=11, cases=8, resumed=False)

        def result(index):
            r = CaseResult(index, _JOIN_SQL)
            r.bug = CaseBug(
                fingerprint="same-bug",
                oracle="join-identity",
                context=f"case {index}",
                sql=_JOIN_SQL,
                minimized_dataset={},
                results={},
            )
            return r

        outcome = _RoundOutcome(results=[result(0), result(1)])
        new = driver._apply_results(state, tracker, journal, outcome)
        assert new == 1
        assert state.stats["bugs"] == 1
        assert state.stats["rediscoveries"] == 1
        assert tracker.bugs["same-bug"].hits == 2
        tracker.flush()
        assert len(BugTracker.load(config.path("bugs.jsonl"))) == 1
        journal.campaign_end(cases=2, bugs=1, ok=True)
        journal.close()
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
        checkpoint = os.path.join(killed, "checkpoint.json")
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                try:
                    if json.load(open(checkpoint))["next_case"] >= 8:
                        break
                except (OSError, json.JSONDecodeError, KeyError):
                    pass  # not checkpointed yet / mid-replace
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
        killed_at = json.load(open(checkpoint))["next_case"]
        assert 8 <= killed_at < 24, "SIGKILL landed mid-campaign"
        done = subprocess.run(
            _CLI + ["--dir", killed, "--cases", "24", "--resume"],
            env=env, check=True, capture_output=True, timeout=300,
            text=True,
        )
        assert "complete" in done.stdout
        # Corpus, RNG position, stats, seen bugs: all bit-identical to
        # the run that was never interrupted.
        assert _checkpoint_sans_clock(
            os.path.join(reference, "checkpoint.json")
        ) == _checkpoint_sans_clock(checkpoint)
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
        events = validate_journal(os.path.join(killed, "journal.jsonl"))
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
        checkpoint = os.path.join(directory, "checkpoint.json")
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if os.path.exists(checkpoint):
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
        events = validate_journal(os.path.join(directory, "journal.jsonl"))
        end = [e for e in events if e["event"] == "campaign_end"]
        assert len(end) == 1 and end[0]["ok"] is False
        # The drain checkpoint is resumable.
        state = load_checkpoint(checkpoint)
        assert state.next_case >= 4
