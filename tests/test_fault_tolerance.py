"""Fault-tolerance tests: budgets, retry ladder, isolation, injection.

The generation pipeline promises (DESIGN.md §5d) that a suite always
completes: a pathological solve degrades to a ``budget`` skip, an
unexpected exception to an ``error:<Type>`` skip, a crashed worker to a
sequential resume of only the unfinished specs — and every degradation
is named in the suite's health summary.  These tests force each failure
mode deterministically via :mod:`repro.testing.faults` (env-driven so
faults reach forked pool workers) and assert both the degradation *and*
that every non-degraded dataset is byte-identical to an uninjected run.
"""

from __future__ import annotations

import time

import pytest

from repro.core.generator import GenConfig, XDataGenerator
from repro.core.parallel import shutdown_pool, solve_specs_parallel
from repro.errors import GenerationError, PoolDegradedWarning, SolverLimitError
from repro.schema.catalog import Column, Schema, Table
from repro.schema.types import SqlType
from repro.solver import Solver
from repro.solver import builders as b
from repro.solver.search import SearchConfig
from repro.testing import faults

#: Derives exactly four specs (original + three comparison datasets),
#: all SAT, so every index 0..3 is a valid fault target and an
#: uninjected run has no skips to confound the assertions.
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


def _by_target(suite):
    return {d.target: d.db.pretty(only_nonempty=False) for d in suite.datasets}


@pytest.fixture(scope="module", autouse=True)
def _stop_pool_afterwards():
    yield
    shutdown_pool()


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    """Every test starts with no fault plan and fresh attempt counts."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.LOG_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def baseline():
    return XDataGenerator(_schema(), GenConfig()).generate(SQL)


def _fresh_pool_env(monkeypatch, plan, log=None):
    """Set the fault env and restart the pool so workers inherit it."""
    shutdown_pool()
    monkeypatch.setenv(faults.FAULTS_ENV, plan)
    if log is not None:
        monkeypatch.setenv(faults.LOG_ENV, str(log))


class TestSolverBudgetStats:
    """Satellite: solver effort is recorded structurally in SolveStats."""

    def _hard_problem(self, config):
        solver = Solver(config)
        names = [f"x{i}" for i in range(8)]
        for name in names:
            solver.int_var(name)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                solver.add(b.ne(b.var(first), b.var(second)))
        return solver

    def test_node_limit_trip_is_structured(self):
        solver = self._hard_problem(
            SearchConfig(node_limit=3, enable_suggestions=False)
        )
        with pytest.raises(SolverLimitError) as excinfo:
            solver.solve()
        assert excinfo.value.kind == "nodes"
        assert excinfo.value.nodes > 0
        assert excinfo.value.limit == 3
        stats = solver.last_stats
        assert stats is not None and stats.satisfiable is False
        assert stats.limit_hit == "nodes"
        assert stats.node_limit == 3
        assert stats.nodes == excinfo.value.nodes

    def test_deadline_zero_trips(self):
        solver = self._hard_problem(
            SearchConfig(solve_deadline_s=0.0, enable_suggestions=False)
        )
        with pytest.raises(SolverLimitError) as excinfo:
            solver.solve()
        assert excinfo.value.kind == "deadline"
        assert solver.last_stats.limit_hit == "deadline"
        assert solver.last_stats.deadline_s == 0.0

    def test_clean_solve_records_budgets_untripped(self):
        solver = Solver(SearchConfig(node_limit=50, solve_deadline_s=60.0))
        x = solver.int_var("x")
        solver.add(b.eq(x, b.const(7)))
        assert solver.solve() is not None
        stats = solver.last_stats
        assert stats.limit_hit is None
        assert stats.node_limit == 50
        assert stats.deadline_s == 60.0


class TestBudgetSkips:
    def test_injected_limit_yields_budget_skip(self, monkeypatch, baseline):
        """A node-budget trip on one spec degrades only that spec."""
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit")
        suite = XDataGenerator(_schema(), GenConfig(retries=1)).generate(SQL)
        assert len(suite.datasets) == SPEC_COUNT - 1
        assert len(suite.skipped) == 1
        skip = suite.skipped[0]
        assert skip.reason == "budget"
        assert skip.is_degraded
        assert skip.attempts == 2  # primary + one escalation retry
        assert suite.health.skipped_budget == 1
        assert suite.health.degraded_targets == [skip.target]
        assert not suite.health.ok
        baseline_dbs = _by_target(baseline)
        for target, pretty in _by_target(suite).items():
            assert pretty == baseline_dbs[target]

    def test_injected_limit_parallel(self, monkeypatch, baseline):
        _fresh_pool_env(monkeypatch, "1:limit")
        suite = XDataGenerator(
            _schema(), GenConfig(workers=4, retries=1)
        ).generate(SQL)
        assert len(suite.datasets) == SPEC_COUNT - 1
        assert suite.health.skipped_budget == 1
        assert suite.skipped[0].reason == "budget"
        baseline_dbs = _by_target(baseline)
        for target, pretty in _by_target(suite).items():
            assert pretty == baseline_dbs[target]

    def test_spec_deadline_zero_budgets_every_spec(self):
        suite = XDataGenerator(
            _schema(), GenConfig(spec_deadline_s=0.0)
        ).generate(SQL)
        assert not suite.datasets
        assert len(suite.skipped) == SPEC_COUNT
        assert all(s.reason == "budget" for s in suite.skipped)
        assert suite.health.skipped_budget == SPEC_COUNT

    def test_suite_deadline_zero_budgets_every_spec(self):
        suite = XDataGenerator(
            _schema(), GenConfig(suite_deadline_s=0.0)
        ).generate(SQL)
        assert not suite.datasets
        assert len(suite.skipped) == SPEC_COUNT
        assert all(s.reason == "budget" for s in suite.skipped)
        assert "budget=4" in suite.health.summary()


class TestRetryLadder:
    def test_escalation_retry_recovers(self, monkeypatch, baseline):
        """limit:1 trips only the first attempt; the retry succeeds and
        the recovered dataset is identical to the uninjected one."""
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit:1")
        suite = XDataGenerator(_schema(), GenConfig(retries=1)).generate(SQL)
        assert len(suite.datasets) == SPEC_COUNT
        assert not suite.skipped
        assert suite.health.retried == 1
        assert suite.health.ok
        retried = [d for d in suite.datasets if d.attempts > 1]
        assert len(retried) == 1
        assert _by_target(suite) == _by_target(baseline)

    def test_retries_zero_disables_escalation(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit:1")
        suite = XDataGenerator(_schema(), GenConfig(retries=0)).generate(SQL)
        assert len(suite.skipped) == 1
        assert suite.skipped[0].reason == "budget"
        assert suite.skipped[0].attempts == 1


class TestFailureIsolation:
    def test_error_becomes_typed_skip(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "2:error")
        suite = XDataGenerator(_schema(), GenConfig()).generate(SQL)
        assert len(suite.datasets) == SPEC_COUNT - 1
        skip = suite.skipped[0]
        assert skip.reason == "error:RuntimeError"
        assert "injected fault at spec 2" in skip.detail
        assert suite.health.errored == 1

    def test_fail_fast_budget_raises(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "1:limit")
        generator = XDataGenerator(
            _schema(), GenConfig(retries=0, fail_fast=True)
        )
        with pytest.raises(GenerationError, match="fail-fast"):
            generator.generate(SQL)

    def test_fail_fast_error_raises(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "1:error")
        generator = XDataGenerator(_schema(), GenConfig(fail_fast=True))
        with pytest.raises(RuntimeError, match="injected fault"):
            generator.generate(SQL)


class TestAcceptance:
    """The issue's acceptance scenario: one budget trip + one worker
    crash, and generate() still returns a complete suite whose health
    names both degraded specs, every other dataset byte-identical."""

    PLAN = "1:limit,2:crash"

    def _check(self, suite, baseline):
        assert len(suite.datasets) == SPEC_COUNT - 2
        assert len(suite.skipped) == 2
        reasons = {s.target: s.reason for s in suite.skipped}
        assert sorted(reasons.values()) == ["budget", "error:RuntimeError"]
        assert sorted(suite.health.degraded_targets) == sorted(reasons)
        assert suite.health.skipped_budget == 1
        assert suite.health.errored == 1
        assert not suite.health.ok
        baseline_dbs = _by_target(baseline)
        for target, pretty in _by_target(suite).items():
            assert pretty == baseline_dbs[target]

    def test_sequential(self, monkeypatch, baseline):
        monkeypatch.setenv(faults.FAULTS_ENV, self.PLAN)
        suite = XDataGenerator(_schema(), GenConfig(retries=1)).generate(SQL)
        self._check(suite, baseline)

    def test_parallel(self, monkeypatch, baseline, recwarn):
        _fresh_pool_env(monkeypatch, self.PLAN)
        suite = XDataGenerator(
            _schema(), GenConfig(workers=4, retries=1)
        ).generate(SQL)
        self._check(suite, baseline)
        # A crash only reaches a worker when the pool actually ran
        # (CPU-capped machines fall back to the in-process path, where
        # the crash degrades to the same error skip without a warning).
        if suite.health.pool_degraded:
            assert any(
                issubclass(w.category, PoolDegradedWarning) for w in recwarn
            )


class TestPoolIsolation:
    def test_worker_crash_resumes_only_unfinished(self, monkeypatch, tmp_path):
        """A mid-batch crash breaks the pool loudly; specs whose results
        already arrived are not re-solved in the parent."""
        log = tmp_path / "faults.log"
        _fresh_pool_env(monkeypatch, "2:crash", log=log)
        config = GenConfig(workers=4)
        with pytest.warns(PoolDegradedWarning):
            outcome = solve_specs_parallel(
                _schema(), SQL, config, SPEC_COUNT, cap_to_cpus=False
            )
        assert outcome.degraded
        assert 2 in outcome.resumed
        assert all(result is not None for result in outcome.results)
        assert outcome.results[2].skipped is not None
        assert outcome.results[2].skipped.reason == "error:RuntimeError"
        for index in range(SPEC_COUNT):
            if index in outcome.resumed:
                continue
            assert outcome.results[index].dataset is not None
        # The log names the process for every solve attempt: parent-side
        # ('p') attempts must be exactly the resumed specs.
        parent_specs = set()
        for line in log.read_text().splitlines():
            _pid, role, index = line.split(":")
            if role == "p":
                parent_specs.add(int(index))
        assert parent_specs == set(outcome.resumed)

    def test_hung_worker_times_out(self, monkeypatch):
        """A batch deadline bounds the wait on a hung worker; the hung
        spec comes back unfinished (None) instead of hanging the run."""
        _fresh_pool_env(monkeypatch, "1:sleep:5")
        config = GenConfig(workers=4)
        deadline = time.perf_counter() + 1.5
        with pytest.warns(PoolDegradedWarning):
            outcome = solve_specs_parallel(
                _schema(), SQL, config, SPEC_COUNT, cap_to_cpus=False,
                deadline=deadline,
            )
        assert outcome.degraded
        # The sleeping spec outlives the deadline everywhere: its pool
        # future times out and the sequential resume is deadline-gated,
        # so it stays None — the caller budget-skips it.
        assert outcome.results[1] is None
        assert outcome.results[0] is not None


class TestWorkloadIsolation:
    QUERIES = {
        "good": SQL,
        "bad": "SELECT FROM WHERE",
    }

    def test_failing_query_is_isolated(self):
        from repro.testing.workload import generate_workload

        suite = generate_workload(_schema(), self.QUERIES)
        assert [e.name for e in suite.entries] == ["good", "bad"]
        good, bad = suite.entries
        assert not good.failed and good.suite is not None
        assert bad.failed and bad.suite is None
        assert "ParseError" in bad.error or "Error" in bad.error
        assert good.killed > 0
        assert "FAILED" in suite.summary()
        assert suite.failures == [bad]

    def test_fail_fast_propagates(self):
        from repro.errors import XDataError
        from repro.testing.workload import generate_workload

        with pytest.raises(XDataError):
            generate_workload(_schema(), self.QUERIES, fail_fast=True)

    def test_parallel_path_isolates_too(self):
        from repro.testing.workload import generate_workload

        shutdown_pool()
        suite = generate_workload(_schema(), self.QUERIES, workers=4)
        good, bad = suite.entries
        assert not good.failed
        assert bad.failed and bad.error


class TestFaultPlanParsing:
    def test_round_trip(self):
        plan = faults.parse_plan("1:limit,3:crash,4:sleep:0.5,6:error:2")
        assert plan[1] == faults.Fault("limit", 0.0)
        assert plan[3] == faults.Fault("crash", 0.0)
        assert plan[4] == faults.Fault("sleep", 0.5)
        assert plan[6] == faults.Fault("error", 2.0)

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError):
            faults.parse_plan("1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            faults.parse_plan("1:explode")

    def test_sleep_needs_duration(self):
        with pytest.raises(ValueError):
            faults.parse_plan("1:sleep")

    def test_no_plan_is_inert(self, baseline):
        """With only the log variable set, generation is unchanged."""
        suite = XDataGenerator(_schema(), GenConfig()).generate(SQL)
        assert _by_target(suite) == _by_target(baseline)
