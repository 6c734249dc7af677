"""Fault-tolerance tests: budgets, retry ladder, isolation, injection.

The generation pipeline promises (DESIGN.md §5d) that a suite always
completes: a pathological solve degrades to a ``budget`` skip, an
unexpected exception to an ``error:<Type>`` skip, a crashed pool worker
to a sequential resume of only the unfinished queries — and every
degradation is named in the suite's health summary.  These tests force each failure
mode deterministically via :mod:`repro.testing.faults` (env-driven so
faults reach forked pool workers) and assert both the degradation *and*
that every non-degraded dataset is byte-identical to an uninjected run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.generator import GenConfig, XDataGenerator
from repro.core.parallel import (
    FailedSuite,
    generate_suites_parallel,
    shutdown_pool,
)
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

#: Derives one spec (the original dataset), so faults keyed on spec
#: indices 1 and up never fire in it: it runs untouched beside ``SQL``.
SMALL_SQL = "SELECT t.id FROM t"


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


_HAS_PROC = os.path.isdir("/proc/self")


def _running(pid: int) -> bool:
    """Whether ``pid`` is still a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:  # gone, or exiting while read (ESRCH)
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _worker_pids(log, spec_index=None) -> set[int]:
    """Pids that logged a worker-side (``w``) solve attempt."""
    pids = set()
    for line in log.read_text().splitlines():
        pid, role, index = line.split(":")
        if role == "w" and spec_index in (None, int(index)):
            pids.add(int(pid))
    return pids


def _wait_until_gone(pids, seconds: float) -> set[int]:
    """Poll until no pid in ``pids`` runs; returns the survivors."""
    deadline = time.monotonic() + seconds
    while True:
        survivors = {pid for pid in pids if _running(pid)}
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.05)


def _suite_view(suite):
    """A pooled result as observable bytes: datasets and skips, or the
    failure."""
    if isinstance(suite, FailedSuite):
        return ("failed", suite.error_type)
    return (
        _by_target(suite),
        [(s.target, s.reason) for s in suite.skipped],
    )


def _pooled(queries: dict, config=None, workers: int = 2) -> dict:
    """``queries`` generated on ``workers`` real worker processes."""
    return generate_suites_parallel(
        _schema(), queries, config or GenConfig(), workers,
        cap_to_cpus=False,
    )


def _in_process_views(queries: dict) -> dict:
    """Every query generated in-process, as :func:`_suite_view`s."""
    generator = XDataGenerator(_schema(), GenConfig())
    return {
        name: _suite_view(generator.generate(sql))
        for name, sql in queries.items()
    }


def _batch_thread(outcomes: dict, key, queries: dict, workers: int,
                  deadline_s=None):
    """A thread running one pooled batch of ``queries`` (with suite
    deadline ``deadline_s``, if given); its results, or what it raised,
    land in ``outcomes[key]``."""

    def run() -> None:
        try:
            outcomes[key] = _pooled(
                queries, GenConfig(suite_deadline_s=deadline_s), workers
            )
        except BaseException as exc:  # the test asserts on it
            outcomes[key] = exc

    return threading.Thread(target=run)


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
        pooled = _pooled({"a": SQL, "b": SQL}, GenConfig(retries=1))
        baseline_dbs = _by_target(baseline)
        for suite in pooled.values():
            assert len(suite.datasets) == SPEC_COUNT - 1
            assert suite.health.skipped_budget == 1
            assert suite.skipped[0].reason == "budget"
            assert not suite.health.pool_degraded
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

    def test_parallel(self, monkeypatch, baseline):
        # Both queries crash their workers; the parent resumes them, and
        # there the crash degrades to the same error skip.
        _fresh_pool_env(monkeypatch, self.PLAN)
        with pytest.warns(PoolDegradedWarning):
            pooled = _pooled({"a": SQL, "b": SQL}, GenConfig(retries=1))
        for suite in pooled.values():
            self._check(suite, baseline)
            assert suite.health.pool_degraded


class TestPoolIsolation:
    def test_worker_crash_resumes_only_unfinished(self, monkeypatch, tmp_path):
        """A mid-batch crash breaks the pool loudly; queries whose
        results already arrived are not re-generated in the parent."""
        log = tmp_path / "faults.log"
        queries = {"crash": SQL, "small": SMALL_SQL}
        expected = _in_process_views(queries)
        # The sleep lets the one-spec query finish before the crash.
        _fresh_pool_env(monkeypatch, "1:sleep:1,2:crash", log=log)
        with pytest.warns(PoolDegradedWarning):
            pooled = _pooled(queries)
        crashed, small = pooled["crash"], pooled["small"]
        assert crashed.health.pool_degraded and small.health.pool_degraded
        assert [s.reason for s in crashed.skipped] == ["error:RuntimeError"]
        baseline_dbs = expected["crash"][0]
        for target, pretty in _by_target(crashed).items():
            assert pretty == baseline_dbs[target]
        assert _suite_view(small) == expected["small"]
        # The log names the process of every solve attempt.  Spec 0
        # belongs to both queries: solved once by a worker for each,
        # and once more in the parent, for the resumed query only.
        roles = [
            line.split(":")[1]
            for line in log.read_text().splitlines()
            if line.endswith(":0")
        ]
        assert sorted(roles) == ["p", "w", "w"]

    def test_hung_worker_times_out(self, monkeypatch, tmp_path):
        """The suite deadline bounds the wait on a hung worker; the hung
        query comes back as a failure naming the deadline instead of
        hanging the run, and the hung worker is killed rather than left
        sleeping."""
        log = tmp_path / "faults.log"
        queries = {"hung": SQL, "small": SMALL_SQL}
        expected = _in_process_views(queries)
        _fresh_pool_env(monkeypatch, "1:sleep:5", log=log)
        started = time.monotonic()
        with pytest.warns(PoolDegradedWarning):
            pooled = _pooled(queries, GenConfig(suite_deadline_s=1.0))
        assert time.monotonic() - started < 4
        hung = pooled["hung"]
        assert isinstance(hung, FailedSuite)
        assert "deadline" in hung.error
        assert _suite_view(pooled["small"]) == expected["small"]
        if _HAS_PROC:
            hung_pids = _worker_pids(log, spec_index=1)
            assert len(hung_pids) == 1
            # Well before its 5 s sleep ends, the worker must be gone.
            assert _wait_until_gone(hung_pids, 2.0) == set()

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="workloads cap workers to the CPUs"
    )
    def test_workload_reports_the_deadline(self, monkeypatch):
        """Through the workload, the unfinished query is a failed entry
        whose error names the deadline; the other query still counts."""
        from repro.testing.workload import generate_workload

        _fresh_pool_env(monkeypatch, "1:sleep:5")
        with pytest.warns(PoolDegradedWarning):
            workload = generate_workload(
                _schema(), {"hung": SQL, "small": SMALL_SQL},
                GenConfig(suite_deadline_s=1.0), workers=2,
            )
        hung, small = workload.entries
        assert hung.failed and "deadline" in hung.error
        assert not small.failed and small.suite.datasets

    def test_concurrent_batches_survive_a_kill(self, monkeypatch):
        """One batch's deadline kills the shared pool under two other
        batches; they resume their unfinished queries in-process (a
        cancelled queued future is a crash, not an error) and return
        exactly the in-process results."""
        queries = {"slow": SQL, "small": SMALL_SQL}
        expected = _in_process_views(queries)
        _fresh_pool_env(monkeypatch, "1:sleep:3")
        outcomes: dict = {}
        threads = [
            _batch_thread(outcomes, slot, queries, 2, deadline_s)
            for slot, deadline_s in enumerate((1.0, None, None))
        ]
        with pytest.warns(PoolDegradedWarning):
            # The deadline batch starts the shared pool; the other two
            # queue behind it on the same executor.
            threads[0].start()
            time.sleep(0.3)
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == [0, 1, 2]
        raised = [o for o in outcomes.values() if isinstance(o, BaseException)]
        assert raised == []
        assert isinstance(outcomes[0]["slow"], FailedSuite)
        for slot in (1, 2):
            views = {
                name: _suite_view(suite)
                for name, suite in outcomes[slot].items()
            }
            assert views == expected

    def test_growth_kills_the_old_pool(self, monkeypatch, tmp_path):
        """A wider batch replaces the shared pool by killing it: the
        narrower batch's hung worker dies with it (left to finish, it
        would be out of reach of that batch's deadline kill), and the
        narrower batch resumes in-process instead of failing."""
        narrow_queries = {"slow": SQL, "small": SMALL_SQL}
        wide_queries = dict(narrow_queries, other="SELECT t.v FROM t")
        expected = _in_process_views(wide_queries)
        log = tmp_path / "faults.log"
        _fresh_pool_env(monkeypatch, "1:sleep:3", log=log)
        outcomes: dict = {}
        narrow = _batch_thread(outcomes, "narrow", narrow_queries, 2, 1.5)
        wide = _batch_thread(outcomes, "wide", wide_queries, 3)
        with pytest.warns(PoolDegradedWarning):
            narrow.start()
            deadline = time.monotonic() + 30
            while not (log.exists() and _worker_pids(log, spec_index=1)):
                assert time.monotonic() < deadline, "no worker ever started"
                time.sleep(0.05)
            hung = _worker_pids(log, spec_index=1)
            wide.start()
            if _HAS_PROC:
                # Well before its 3 s sleep ends.
                assert _wait_until_gone(hung, 1.0) == set()
            narrow.join(timeout=60)
            wide.join(timeout=60)
        assert not narrow.is_alive() and not wide.is_alive()
        assert all(
            suite.health.pool_degraded
            for suite in outcomes["narrow"].values()
            if not isinstance(suite, FailedSuite)
        )
        views = {
            name: _suite_view(suite)
            for name, suite in outcomes["wide"].items()
        }
        assert views == expected


class TestOrphanedWorkers:
    #: Starts a two-worker pool with both workers busy, prints their
    #: pids, then waits to be killed.
    SCRIPT = """
import sys, time
from repro.core.parallel import SupervisedPool
pool = SupervisedPool(2)
futures = [pool.submit(time.sleep, 60) for _ in range(2)]
time.sleep(0.5)
print(" ".join(str(pid) for pid in pool._executor._processes), flush=True)
time.sleep(120)
"""

    @pytest.mark.skipif(not _HAS_PROC, reason="reads /proc to see workers")
    def test_workers_exit_when_the_owner_is_killed(self):
        """``kill -9`` of the pool's owner runs no cleanup; the workers
        must notice they were orphaned and exit on their own."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT],
            env=env, stdout=subprocess.PIPE, start_new_session=True,
        )
        pids: set[int] = set()
        try:
            pids = {int(pid) for pid in proc.stdout.readline().split()}
            assert len(pids) == 2
            assert all(_running(pid) for pid in pids)
            proc.kill()
            proc.wait(timeout=60)
            assert _wait_until_gone(pids, 5.0) == set()
        finally:
            for pid in [proc.pid, *pids]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.stdout.close()


class TestInterrupt:
    SQL = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="the CLI caps --workers to the CPUs"
    )
    def test_ctrl_c_ends_pooled_generate_promptly(self, tmp_path):
        """SIGINT to the CLI parent alone (pool workers ignore SIGINT)
        must end a pooled workload at once and take its workers along,
        not wait for a sleeping worker's task to finish; the CLI exits
        130 with one ``interrupted`` line, not a traceback."""
        log = tmp_path / "faults.log"
        workload = tmp_path / "workload.sql"
        workload.write_text(
            f"-- name: join\n{self.SQL};\n"
            "-- name: filter\n"
            "SELECT * FROM instructor i WHERE i.salary > 70000;\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env[faults.FAULTS_ENV] = "1:sleep:30"
        env[faults.LOG_ENV] = str(log)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "workload",
                str(workload), "--university", "--workers", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            # Own group for cleanup; SIGINT at its default, as when
            # started from a terminal.
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 120
            while not (log.exists() and _worker_pids(log)):
                assert proc.poll() is None, "workload exited before pooling"
                assert time.monotonic() < deadline, "no worker ever started"
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            started = time.monotonic()
            try:
                _, stderr = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                pytest.fail("workload still running 5 s after SIGINT")
            assert time.monotonic() - started < 5
            assert proc.returncode == 130, stderr
            assert b"Traceback" not in stderr, stderr
            assert stderr.strip().endswith(b"interrupted"), stderr
            if _HAS_PROC:
                assert _wait_until_gone(_worker_pids(log), 1.0) == set()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=60)


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
