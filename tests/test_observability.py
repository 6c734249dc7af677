"""Observability tests: spans, metrics, journal — including under faults.

The §5e contract: with tracing on, every derived spec produces exactly
one ``solve`` span whose status names its fate (``completed``,
``skipped:<reason>``, ``killed-by-deadline``); metrics totals reconcile
with :class:`SuiteHealth`; the JSON-lines journal validates and accounts
for every spec even when solves are fault-injected or the run aborts;
and with everything off, the pipeline records nothing at all.
"""

from __future__ import annotations

import json

import pytest

from repro.core.generator import GenConfig, XDataGenerator
from repro.core.parallel import generate_suites_parallel, shutdown_pool
from repro.errors import GenerationError
from repro.obs import (
    JournalError,
    JournalWriter,
    Metrics,
    Tracer,
    render_text,
    validate_journal,
)
from repro.obs.trace import NULL_TRACER, walk_spans
from repro.schema.catalog import Column, Schema, Table
from repro.schema.types import SqlType
from repro.testing import faults
from repro.testing.report import format_trace

#: Same fixture query as test_fault_tolerance: exactly four specs, all
#: SAT, so spec indices 0..3 are valid fault targets.
SQL = "SELECT v FROM t WHERE v > 5"
SPEC_COUNT = 4


def _schema():
    return Schema(
        [
            Table(
                "t",
                [Column("id", SqlType.INT), Column("v", SqlType.INT)],
                primary_key=("id",),
            )
        ]
    )


def _generate(tmp_path=None, **config_kwargs):
    if tmp_path is not None:
        config_kwargs["journal_path"] = str(tmp_path / "journal.jsonl")
    config = GenConfig(**config_kwargs)
    return XDataGenerator(_schema(), config).generate(SQL), config


def _pooled_workload(tmp_path):
    """Two copies of ``SQL`` through ``generate_workload(workers=4)``,
    journalled to ``tmp_path``: pooled when the host has two CPUs, else
    in-process (the journal must read the same either way)."""
    from repro.testing.workload import generate_workload

    config = GenConfig(journal_path=str(tmp_path / "journal.jsonl"))
    generate_workload(_schema(), {"a": SQL, "b": SQL}, config, workers=4)
    return config


def _solve_spans(trace):
    return [r for r, _ in walk_spans(trace) if r["name"] == "solve"]


@pytest.fixture(scope="module", autouse=True)
def _stop_pool_afterwards():
    yield
    shutdown_pool()


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.LOG_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestTracer:
    def test_nesting_and_status(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", k=1) as inner:
                inner["status"] = "done"
            outer["attrs"]["n"] = 2
        (root,) = tracer.roots
        assert root["name"] == "outer" and root["attrs"]["n"] == 2
        (child,) = root["children"]
        assert child["status"] == "done" and child["attrs"]["k"] == 1
        assert child["elapsed_s"] <= root["elapsed_s"]

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.roots[0]["status"] == "error:ValueError"

    def test_sink_sees_children_before_parents(self):
        order = []
        tracer = Tracer(sink=lambda record, path: order.append(path))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert order == ["a/b", "a"]

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("x") as rec:
            rec["status"] = "ignored"
            rec["attrs"]["k"] = 1
        assert NULL_TRACER.roots == []
        NULL_TRACER.add_record({"name": "x"})
        assert NULL_TRACER.roots == []


class TestSuiteTrace:
    def test_disabled_records_nothing(self):
        suite, _ = _generate()
        assert suite.trace is None and suite.metrics is None

    def test_trace_covers_the_pipeline(self):
        suite, _ = _generate(trace=True)
        (root,) = suite.trace
        names = [child["name"] for child in root["children"]]
        assert names[:3] == ["parse", "analyze", "derive_specs"]
        assert names[-1] == "assemble"
        solves = _solve_spans(suite.trace)
        assert len(solves) == SPEC_COUNT
        assert all(s["status"] == "completed" for s in solves)
        assert sorted(s["attrs"]["spec"] for s in solves) == list(
            range(SPEC_COUNT)
        )
        # Each successful solve carries its attempt child spans.
        for solve in solves:
            assert solve["children"][0]["name"] == "attempt"
            assert solve["children"][-1]["status"] == "sat"
        assert "generate [ok]" in format_trace(suite.trace)

    def test_parallel_run_ships_worker_spans(self):
        shutdown_pool()
        pooled = generate_suites_parallel(
            _schema(), {"a": SQL, "b": SQL}, GenConfig(trace=True), 4,
            cap_to_cpus=False,
        )
        for suite in pooled.values():
            solves = _solve_spans(suite.trace)
            assert len(solves) == SPEC_COUNT
            for solve in solves:
                assert solve["status"] == "completed"
                assert any(c["name"] == "attempt" for c in solve["children"])
        shutdown_pool()

    def test_budget_skip_is_a_span_status(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit")
        suite, _ = _generate(trace=True, retries=1)
        statuses = sorted(s["status"] for s in _solve_spans(suite.trace))
        assert statuses == ["completed"] * (SPEC_COUNT - 1) + ["skipped:budget"]

    def test_suite_deadline_kills_unstarted_specs(self):
        suite, _ = _generate(trace=True, suite_deadline_s=0.0)
        statuses = [s["status"] for s in _solve_spans(suite.trace)]
        assert statuses.count("killed-by-deadline") == SPEC_COUNT
        assert len(suite.datasets) == 0


class TestMetricsReconciliation:
    def _counters(self, suite):
        return suite.metrics["counters"]

    def test_clean_run(self):
        suite, _ = _generate(metrics=True)
        counters = self._counters(suite)
        assert counters["xdata_specs_total"] == SPEC_COUNT
        assert counters["xdata_specs_completed_total"] == suite.health.completed
        assert counters.get("xdata_specs_skipped_budget_total", 0) == 0
        hist = suite.metrics["histograms"]["xdata_solve_latency_seconds"]
        assert hist["count"] == SPEC_COUNT

    def test_faulted_run_reconciles_with_health(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit,2:error")
        suite, _ = _generate(metrics=True, retries=1)
        counters = self._counters(suite)
        health = suite.health
        assert counters["xdata_specs_completed_total"] == health.completed == 2
        assert (
            counters["xdata_specs_skipped_budget_total"]
            == health.skipped_budget
            == 1
        )
        assert counters["xdata_specs_errored_total"] == health.errored == 1
        assert counters["xdata_specs_total"] == SPEC_COUNT
        assert "xdata_specs_errored_total 1" in render_text(suite.metrics)

    def test_skeleton_counters_reconcile_with_health(self):
        from repro.memo import clear_process_memos

        clear_process_memos()
        suite, _ = _generate(metrics=True)
        counters = self._counters(suite)
        stats = suite.health.skeleton_cache
        lookups = stats["hits"] + stats["misses"]
        assert lookups == SPEC_COUNT
        assert stats["misses"] >= 1  # cold store: first shape compiles
        for key in ("hits", "misses", "rewrite_hits", "rewrite_misses"):
            assert (
                counters.get(f"xdata_skeleton_cache_{key}_total", 0)
                == stats[key]
            )
        # Stage attribution: skeleton compilation is preprocessing, not
        # build time, and only miss solves pay it.
        misses = [
            d for d in suite.datasets
            if d.stats and d.stats.skeleton == "miss"
        ]
        hits = [
            d for d in suite.datasets
            if d.stats and d.stats.skeleton == "hit"
        ]
        assert len(misses) == stats["misses"]
        assert len(hits) == stats["hits"]
        for dataset in misses:
            assert dataset.stats.preprocess_time > 0.0
        for dataset in suite.datasets:
            assert dataset.stats.build_time >= 0.0

    def test_input_db_run_reports_no_skeleton_traffic(self):
        # Input-database attempts assert the whole system and solve it
        # over the trivial skeleton: no compiled skeleton is looked up.
        from repro.engine.database import Database

        input_db = Database(_schema())
        input_db.insert_rows("t", [(1, 3), (2, 5), (3, 7), (4, 9)])
        suite, _ = _generate(metrics=True, input_db=input_db)
        assert len(suite.datasets) == SPEC_COUNT
        assert all(d.used_input_db for d in suite.datasets)
        assert all(d.stats.skeleton is None for d in suite.datasets)
        assert suite.health.skeleton_cache == {}
        counters = self._counters(suite)
        assert "xdata_skeleton_cache_hits_total" not in counters
        assert "xdata_skeleton_cache_misses_total" not in counters

    def test_registry_and_renderers(self):
        metrics = Metrics()
        metrics.inc("c")
        metrics.inc("c", 2)
        metrics.gauge("g", 7)
        metrics.observe("h", 0.003)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["c"] == 3
        assert snapshot["gauges"]["g"] == 7
        assert snapshot["histograms"]["h"]["count"] == 1
        text = render_text(snapshot)
        assert "c 3" in text and 'h_bucket{le="0.005"} 1' in text
        assert json.loads(
            __import__("repro.obs.metrics", fromlist=["render_json"])
            .render_json(snapshot)
        )


class TestJournal:
    def test_clean_run_journal_validates(self, tmp_path):
        suite, config = _generate(tmp_path)
        events = validate_journal(config.journal_path)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        solves = [
            e for e in events if e["event"] == "span" and e["name"] == "solve"
        ]
        assert len(solves) == SPEC_COUNT
        end = events[-1]
        assert end["ok"] is True
        assert end["health"]["completed"] == SPEC_COUNT

    def test_faulted_run_accounts_for_every_spec(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit,2:error")
        suite, config = _generate(tmp_path, retries=1)
        events = validate_journal(config.journal_path)
        statuses = sorted(
            e["status"]
            for e in events
            if e["event"] == "span" and e["name"] == "solve"
        )
        assert statuses == [
            "completed",
            "completed",
            "skipped:budget",
            "skipped:error:RuntimeError",
        ]
        assert events[-1]["event"] == "run_end" and events[-1]["ok"] is False

    def test_fail_fast_abort_still_journals_the_fatal_spec(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit")
        with pytest.raises(GenerationError):
            _generate(tmp_path, retries=1, fail_fast=True)
        path = str(tmp_path / "journal.jsonl")
        events = validate_journal(path)
        assert events[-1]["event"] == "run_abort"
        solve_statuses = [
            e["status"]
            for e in events
            if e["event"] == "span" and e["name"] == "solve"
        ]
        # The spec that tripped the budget is in the journal even though
        # the run aborted right after it.
        assert "skipped:budget" in solve_statuses

    def test_parallel_run_journals_in_the_parent(self, tmp_path):
        shutdown_pool()
        config = _pooled_workload(tmp_path)
        events = validate_journal(config.journal_path)
        assert [e["event"] for e in events].count("run_end") == 2
        solves = [
            e for e in events if e["event"] == "span" and e["name"] == "solve"
        ]
        assert len(solves) == 2 * SPEC_COUNT
        assert all(e["status"] == "completed" for e in solves)
        shutdown_pool()

    def test_worker_crash_still_accounts_for_every_spec(
        self, tmp_path, monkeypatch
    ):
        # A crashed pool worker breaks the batch; the parent resumes the
        # unfinished queries sequentially, where the crash fault degrades
        # to a RuntimeError → error skip.  (On CPU-capped machines the
        # pool falls back in-process and the crash degrades the same
        # way, just without pool involvement.)  Either way the journal
        # must close one solve span per derived spec of each query.
        shutdown_pool()
        monkeypatch.setenv(faults.FAULTS_ENV, "2:crash")
        config = _pooled_workload(tmp_path)
        shutdown_pool()
        events = validate_journal(config.journal_path)
        statuses = sorted(
            e["status"]
            for e in events
            if e["event"] == "span" and e["name"] == "solve"
        )
        assert len(statuses) == 2 * SPEC_COUNT
        assert statuses.count("completed") == 2 * (SPEC_COUNT - 1)
        assert statuses[-2:] == ["skipped:error:RuntimeError"] * 2

    def test_validator_rejects_torn_writes(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        writer = JournalWriter(str(path))
        writer.run_start(SQL)
        writer.close()
        with pytest.raises(JournalError, match="open run"):
            validate_journal(str(path))
        assert validate_journal(str(path), require_complete=False)

    def test_validator_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\n')
        with pytest.raises(JournalError):
            validate_journal(str(path))

    def test_journal_cli(self, tmp_path, capsys):
        from repro.obs import journal as journal_mod

        _, config = _generate(tmp_path)
        assert journal_mod.main([config.journal_path]) == 0
        out = capsys.readouterr().out
        assert "valid journal" in out and "completed=4" in out
        assert journal_mod.main([str(tmp_path / "missing.jsonl")]) == 1
