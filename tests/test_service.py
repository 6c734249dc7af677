"""The service layer: suite cache, job queue, HTTP front end.

The load-bearing property throughout is the cache contract: a
fingerprint hit returns bytes identical to the cold solve, and the
lifecycle/metrics bookkeeping around it stays consistent (hits + misses
== executed jobs, journal validates, counters reconcile).
"""

from __future__ import annotations

import gc
import http.client
import importlib
import json
import random
import re
import time
import urllib.error
import urllib.request
import weakref

import pytest

import repro
from repro.core.generator import XDataGenerator
from repro.datasets.university import UNIVERSITY_QUERIES, university_schema
from repro.obs.journal import validate_journal
from repro.schema.ddl import to_ddl
from repro.service import JobQueue, JobRequest, JobState, Service, SuiteCache
from repro.service.cache import canonical_bytes
from repro.service.jobs import build_payload, request_key

jobs_module = importlib.import_module("repro.service.jobs")

# The module, not the ``fingerprint`` function the package re-exports.
fingerprint_module = importlib.import_module("repro.service.fingerprint")
ddl_module = importlib.import_module("repro.schema.ddl")

DDL = """
CREATE TABLE dept (id INT PRIMARY KEY, name VARCHAR);
CREATE TABLE emp (
    id INT PRIMARY KEY,
    dept_id INT REFERENCES dept(id),
    salary INT
);
"""

#: DDL equal to ``DDL`` as a schema: tables reversed, case and
#: whitespace changed.
DDL_REORDERED = """create table EMP (ID int primary key,
      DEPT_ID int references DEPT (ID),   SALARY int);
create   table DEPT(ID int primary key,NAME varchar)"""

SQL = "SELECT e.salary FROM emp e, dept d WHERE e.dept_id = d.id AND e.salary > 10"
#: The same request in a different spelling (case/spacing/aliases).
SQL_RESPELLED = (
    "select X.SALARY from EMP x , DEPT y\nwhere x.dept_id = y.id and x.salary > 10"
)
SQL_OTHER = "SELECT e.id FROM emp e WHERE e.salary > 99"


# ---------------------------------------------------------------------------
# SuiteCache
# ---------------------------------------------------------------------------


class TestSuiteCache:
    def test_roundtrip_and_stats(self):
        cache = SuiteCache()
        assert cache.get("k") is None
        cache.put("k", b"payload")
        assert cache.get("k") == b"payload"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_over_byte_budget(self):
        cache = SuiteCache(max_bytes=100)
        cache.put("a", b"x" * 40)
        cache.put("b", b"y" * 40)
        cache.get("a")  # refresh a: b becomes LRU
        cache.put("c", b"z" * 40)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_oversized_entry_is_still_admitted(self):
        cache = SuiteCache(max_bytes=10)
        cache.put("big", b"x" * 50)
        assert cache.get("big") == b"x" * 50

    def test_replacing_a_key_updates_the_byte_total(self):
        cache = SuiteCache(max_bytes=1000)
        cache.put("k", b"x" * 100)
        cache.put("k", b"y" * 10)
        assert cache.total_bytes == 10
        assert len(cache) == 1

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        first = SuiteCache(path=path)
        first.put("k1", b'{"a":1}')
        first.put("k2", b'{"b":2}')
        reloaded = SuiteCache(path=path)
        assert reloaded.get("k1") == b'{"a":1}'
        assert reloaded.get("k2") == b'{"b":2}'

    def test_persistence_last_write_wins(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        first = SuiteCache(path=path)
        first.put("k", b"old")
        first.put("k", b"new")
        assert SuiteCache(path=path).get("k") == b"new"

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = SuiteCache(path=path)
        cache.put("k", b"v")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "half')  # crash mid-append
        assert SuiteCache(path=path).get("k") == b"v"

    def test_compact_rewrites_to_live_entries(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = SuiteCache(path=path)
        for _ in range(5):
            cache.put("k", b"v")
        cache.compact()
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 1
        assert SuiteCache(path=path).get("k") == b"v"

    def test_canonical_bytes_is_order_insensitive(self):
        assert canonical_bytes({"b": 1, "a": 2}) == canonical_bytes(
            {"a": 2, "b": 1}
        )


# ---------------------------------------------------------------------------
# JobQueue
# ---------------------------------------------------------------------------


def sync_queue(**kwargs) -> JobQueue:
    """A queue in deterministic inline-execution mode."""
    return JobQueue(workers=0, **kwargs)


class TestJobQueueLifecycle:
    def test_duplicate_submissions_hit_the_cache_byte_identically(self):
        queue = sync_queue()
        cold = queue.submit(JobRequest(DDL, SQL))
        warm = queue.submit(JobRequest(DDL, SQL_RESPELLED))
        assert cold.state is JobState.DONE and warm.state is JobState.DONE
        assert not cold.cached and warm.cached
        assert cold.fingerprint == warm.fingerprint
        assert cold.result == warm.result
        assert queue.cache.stats.hits == 1
        assert queue.cache.stats.misses == 1
        queue.close()

    def test_generate_and_evaluate_modes_cache_separately(self):
        queue = sync_queue()
        generated = queue.submit(JobRequest(DDL, SQL, mode="generate"))
        evaluated = queue.submit(JobRequest(DDL, SQL, mode="evaluate"))
        assert not evaluated.cached
        assert b'"kill"' in evaluated.result
        assert b'"kill"' not in generated.result
        payload = json.loads(evaluated.result)
        assert payload["kill"]["killed"] <= payload["kill"]["total"]
        queue.close()

    def test_payload_is_canonical_and_complete(self):
        queue = sync_queue()
        job = queue.submit(JobRequest(DDL, SQL))
        payload = json.loads(job.result)
        assert payload["canonical_sql"] == job.canonical_sql
        assert payload["health"]["completed"] == len(payload["datasets"])
        first = payload["datasets"][0]
        assert set(first["tables"]) == {"dept", "emp"}
        assert "INSERT INTO" in first["insert_sql"]
        # Canonical bytes: serializing the parsed payload reproduces
        # the stored bytes exactly.
        assert canonical_bytes(payload) == job.result
        queue.close()

    def test_cancellation_of_pending_job(self):
        # No workers consume the queue, so the job stays PENDING.
        queue = JobQueue(workers=0)
        queue._threads = [object()]  # force enqueue instead of inline run
        job = queue.submit(JobRequest(DDL, SQL))
        assert job.state is JobState.PENDING
        assert queue.cancel(job.id)
        assert job.state is JobState.CANCELLED
        assert not queue.cancel(job.id), "double-cancel must report False"
        queue._threads = []
        queue.close()

    def test_cancel_unknown_or_finished_job_returns_false(self):
        queue = sync_queue()
        job = queue.submit(JobRequest(DDL, SQL))
        assert not queue.cancel(job.id)  # already DONE
        assert not queue.cancel("job-does-not-exist")
        queue.close()

    def test_deadline_expired_while_queued_fails_without_solving(self):
        queue = JobQueue(workers=0)
        queue._threads = [object()]  # park the job in PENDING
        job = queue.submit(JobRequest(DDL, SQL, deadline_s=0.01))
        queue._threads = []
        time.sleep(0.03)
        queue._execute(job)
        assert job.state is JobState.FAILED
        assert "expired" in job.error
        assert queue.cache.stats.misses == 0, "deadline kill must not solve"
        queue.close()

    def test_deadline_limited_complete_solve_is_cached(self):
        queue = sync_queue()
        generous = queue.submit(JobRequest(DDL, SQL, deadline_s=300.0))
        assert generous.state is JobState.DONE, generous.error
        follow_up = queue.submit(JobRequest(DDL, SQL))
        assert follow_up.cached
        assert follow_up.result == generous.result
        queue.close()

    def test_invalid_sql_fails_the_job_not_the_queue(self):
        queue = sync_queue()
        # Parse errors surface at submit (fingerprinting parses); the
        # queue must reject the request without dying.
        with pytest.raises(Exception):
            queue.submit(JobRequest(DDL, "SELECT FROM WHERE"))
        ok = queue.submit(JobRequest(DDL, SQL))
        assert ok.state is JobState.DONE
        queue.close()

    def test_unknown_mode_is_rejected_at_request_construction(self):
        with pytest.raises(ValueError, match="unknown job mode"):
            JobRequest(DDL, SQL, mode="explain")

    def test_metrics_counters_reconcile(self):
        queue = sync_queue()
        queue.submit(JobRequest(DDL, SQL))
        queue.submit(JobRequest(DDL, SQL_RESPELLED))
        queue.submit(JobRequest(DDL, SQL_OTHER))
        snapshot = queue.snapshot()
        counters = snapshot["counters"]
        assert counters["xdata_service_jobs_submitted_total"] == 3
        assert counters["xdata_service_jobs_done_total"] == 3
        assert counters["xdata_service_cache_hits_total"] == 1
        assert counters["xdata_service_cache_misses_total"] == 2
        assert counters["xdata_service_cache_hits_total"] == queue.cache.stats.hits
        assert (
            counters["xdata_service_cache_misses_total"]
            == queue.cache.stats.misses
        )
        # The process memos' counters ride along, one set per memo.
        for memo in ("parse", "schema", "skeleton", "declaration"):
            for counter in ("hits", "misses", "evictions", "stores"):
                assert f"xdata_memo_{memo}_{counter}_total" in counters
        assert list(counters) == sorted(counters)
        queue.close()

    def test_hit_survives_an_eviction_racing_its_read(self):
        """Another worker's store may evict the entry a hit is about to
        read.  The job still finishes with its payload (a miss, solved
        again), and accounts exactly one hit or miss."""

        class RacingCache(SuiteCache):
            def _race(self):
                self.put("racer", b"x" * (self.max_bytes + 1))

            def get(self, key):
                self._race()
                return super().get(key)

            def peek(self, key):
                self._race()
                return super().peek(key)

        queue = sync_queue(cache=RacingCache(max_bytes=1 << 20))
        first = queue.submit(JobRequest(DDL, SQL))
        second = queue.submit(JobRequest(DDL, SQL_RESPELLED))
        for job in (first, second):
            assert job.state is JobState.DONE
            assert job.result is not None and not job.cached
        assert second.result == first.result
        stats = queue.cache.stats
        assert (stats.hits, stats.misses) == (0, 2)
        queue.close()

    def test_threaded_workers_drain_a_duplicated_batch(self):
        queue = JobQueue(workers=3)
        try:
            jobs = [
                queue.submit(JobRequest(DDL, sql))
                for sql in [SQL, SQL_RESPELLED, SQL, SQL_OTHER, SQL_RESPELLED]
            ]
            queue.drain(timeout=120.0)
            assert all(job.state is JobState.DONE for job in jobs)
            results = {job.fingerprint: job.result for job in jobs}
            for job in jobs:
                assert job.result == results[job.fingerprint]
            stats = queue.cache.stats
            assert stats.misses == 2, "single-flight: one solve per fingerprint"
            assert stats.hits == 3
        finally:
            queue.close()

    def test_request_key_separates_modes_and_options(self):
        fp = "f" * 8
        keys = {
            request_key(fp, "generate", None),
            request_key(fp, "evaluate", None),
            request_key(
                fp, "evaluate", repro.EvalOptions(include_full_outer=True)
            ),
        }
        assert len(keys) == 3
        assert request_key(fp, "evaluate", None) == request_key(
            fp, "evaluate", repro.EvalOptions()
        )


class TestFinishedJobRetention:
    """A queue keeps at most ``MAX_FINISHED_JOBS`` finished jobs, so the
    result bytes it holds stay bounded however many jobs it runs."""

    @staticmethod
    def distinct_queries(count: int) -> list[str]:
        return [f"SELECT e.id FROM emp e WHERE e.salary > {k}" for k in range(count)]

    def test_distinct_queries_hold_bounded_result_bytes(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 8)
        queue = sync_queue(cache=SuiteCache(max_bytes=20_000))
        submitted = [
            queue.submit(JobRequest(DDL, sql)) for sql in self.distinct_queries(60)
        ]
        assert all(job.state is JobState.DONE for job in submitted)
        largest = max(len(job.result) for job in submitted)
        held = [job for job in submitted if queue.get(job.id) is not None]
        assert held == submitted[-8:], "the newest finished jobs are kept"
        assert sum(len(job.result) for job in held) <= 8 * largest
        assert sum(len(job.result) for job in submitted) > 8 * largest
        queue.close()

    def test_finished_jobs_retain_no_suite(self, monkeypatch):
        """The suite cache keeps payload bytes only: once its job is
        finished, no solved :class:`TestSuite` stays alive."""
        suites = []
        generate = XDataGenerator.generate

        def tracked(self, query):
            suite = generate(self, query)
            suites.append(weakref.ref(suite))
            return suite

        monkeypatch.setattr(XDataGenerator, "generate", tracked)
        queue = sync_queue()
        queries = self.distinct_queries(23)
        modes = ["generate"] * 20 + ["evaluate"] * 3
        for sql, mode in zip(queries, modes):
            job = queue.submit(JobRequest(DDL, sql, mode=mode))
            assert job.state is JobState.DONE, job.error
        gc.collect()
        assert len(suites) == 23
        assert sum(ref() is not None for ref in suites) == 0
        queue.close()

    def test_evicted_id_reads_as_unknown(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        queue = sync_queue()
        first = queue.submit(JobRequest(DDL, SQL))
        queue.submit(JobRequest(DDL, SQL_OTHER))
        assert queue.get(first.id) is None
        assert queue.cancel(first.id) is False
        with pytest.raises(KeyError):
            queue.wait(first.id, timeout=1.0)
        queue.close()

    def test_pending_jobs_are_never_evicted(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        queue = sync_queue()
        queue._threads = [object()]  # enqueue without executing
        pending = [queue.submit(JobRequest(DDL, sql)) for sql in (SQL, SQL_OTHER)]
        queue._threads = []
        assert queue.cancel(pending[0].id)
        queue._execute(pending[1])
        # One finished job fits: the cancelled one gave way to the newer.
        assert queue.get(pending[0].id) is None
        assert queue.get(pending[1].id) is pending[1]
        queue.close()

    def test_drain_tolerates_ids_evicted_mid_drain(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)
        queue = JobQueue(workers=2)
        try:
            submitted = [
                queue.submit(JobRequest(DDL, sql)) for sql in self.distinct_queries(8)
            ]
            queue.drain(timeout=120.0)
            assert all(job.state is JobState.DONE for job in submitted)
            assert len(queue._jobs) <= 2
        finally:
            queue.close()

    def test_evicted_job_is_a_404_over_http(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 1)
        with Service(port=0, workers=1) as svc:
            first = _post_job(svc, {"schema": DDL, "query": SQL})
            _wait_done(svc, first["id"])
            second = _post_job(svc, {"schema": DDL, "query": SQL_OTHER})
            _wait_done(svc, second["id"])
            for suffix in ("", "/result"):
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(f"{svc.url}/v1/jobs/{first['id']}{suffix}")
                assert info.value.code == 404


class TestJobQueueJournal:
    def test_journal_validates_and_audits_every_job(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        queue = sync_queue(journal_path=path)
        queue.submit(JobRequest(DDL, SQL))
        queue.submit(JobRequest(DDL, SQL_RESPELLED))
        queue.close()
        events = validate_journal(path)
        starts = [e for e in events if e["event"] == "run_start"]
        ends = [e for e in events if e["event"] == "run_end"]
        assert len(starts) == 2 and len(ends) == 2
        # Both runs record the same canonical SQL.
        assert len({e["sql"] for e in starts}) == 1
        # The cold solve replays its spans; the cache hit has none.
        assert {e["health"].get("cache") for e in ends} == {"miss", "hit"}
        spans = [e for e in events if e["event"] == "span"]
        assert spans, "the cold solve must journal its span tree"

    def test_failed_job_journals_run_abort(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        queue = JobQueue(workers=0, journal_path=path)
        queue._threads = [object()]
        job = queue.submit(JobRequest(DDL, SQL, deadline_s=0.001))
        queue._threads = []
        time.sleep(0.01)
        queue._execute(job)
        queue.close()
        events = validate_journal(path)
        assert events[-1]["event"] == "run_abort"
        assert "expired" in events[-1]["error"]


class TestParseOnce:
    """The request path parses the DDL text and canonicalizes the query
    once each: a cache hit costs no DDL parse at all."""

    @staticmethod
    def _count(monkeypatch, module, name) -> dict:
        calls = {"n": 0}
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_hits_parse_the_ddl_and_canonicalize_the_query_once(
        self, monkeypatch
    ):
        ddl_module._SCHEMAS.clear()
        parses = self._count(monkeypatch, ddl_module, "parse_ddl")
        canonicalizations = self._count(
            monkeypatch, fingerprint_module, "canonical_query"
        )
        queue = sync_queue()
        spellings = [SQL, SQL_RESPELLED, SQL.lower(), SQL.replace(" ", "  ")]
        jobs = [
            queue.submit(JobRequest(DDL, spellings[index % len(spellings)]))
            for index in range(51)
        ]
        assert [job.cached for job in jobs] == [False] + [True] * 50
        # One parse for the fingerprint, the solve and every hit.
        assert parses["n"] == 1
        assert canonicalizations["n"] == len(jobs)
        queue.close()

    def test_session_canonicalizes_once_per_call(self, monkeypatch):
        session = repro.Session(DDL)
        calls = self._count(monkeypatch, fingerprint_module, "canonical_query")
        session.generate(SQL)  # miss
        session.generate(SQL_RESPELLED)  # hit
        session.evaluate(SQL)
        assert calls["n"] == 3

    def test_respelled_ddl_is_a_hit_with_identical_bytes(self):
        queue = sync_queue()
        respelled = " ".join(DDL.upper().split())
        cold = queue.submit(JobRequest(DDL, SQL))
        warm = queue.submit(JobRequest(respelled, SQL_RESPELLED))
        assert warm.fingerprint == cold.fingerprint
        assert warm.cached and warm.result == cold.result
        assert warm.fingerprint == repro.fingerprint(respelled, SQL)
        queue.close()

    def test_reordered_ddl_misses_with_identical_bytes(self):
        """Schema-equal DDL texts share a fingerprint, so a solve from
        either text must give the same bytes: with the cache cleared
        between them, the second spelling misses and still matches."""
        queue = sync_queue()
        for sql in (SQL, SQL_OTHER):
            cold = queue.submit(JobRequest(DDL, sql))
            queue.cache.clear()
            respelled = queue.submit(JobRequest(DDL_REORDERED, sql))
            assert not respelled.cached
            assert respelled.fingerprint == cold.fingerprint
            assert respelled.result == cold.result
        queue.close()

    def test_ddl_memo_is_bounded(self):
        memo = ddl_module._SCHEMAS
        bound = memo.limit
        assert bound == 32
        expected = fingerprint_module.canonical_schema(repro.parse_ddl(DDL))
        for index in range(bound + 5):
            text = f"{DDL}\n-- submission {index}\n"
            assert fingerprint_module.canonical_schema(text) == expected
            assert len(memo) <= bound
        assert len(memo) == bound

    def test_ddl_parse_errors_are_not_memoized(self, monkeypatch):
        parses = self._count(monkeypatch, ddl_module, "parse_ddl")
        for _ in range(2):
            with pytest.raises(repro.XDataError):
                ddl_module.as_schema("CREATE TABLE broken (")
        assert parses["n"] == 2


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------


@pytest.fixture()
def service():
    with Service(port=0, workers=2) as svc:
        yield svc


def _post_job(svc, body: dict) -> dict:
    request = urllib.request.Request(
        svc.url + "/v1/jobs",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        assert response.status == 202
        return json.loads(response.read())


def _wait_done(svc, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with urllib.request.urlopen(f"{svc.url}/v1/jobs/{job_id}") as response:
            status = json.loads(response.read())
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise TimeoutError(job_id)


class TestHttpService:
    def test_healthz(self, service):
        with urllib.request.urlopen(service.url + "/healthz") as response:
            assert json.loads(response.read()) == {"status": "ok"}

    def test_submit_poll_result_roundtrip(self, service):
        submitted = _post_job(service, {"schema": DDL, "query": SQL})
        status = _wait_done(service, submitted["id"])
        assert status["state"] == "done", status
        assert status["fingerprint"] == submitted["fingerprint"]
        with urllib.request.urlopen(
            f"{service.url}/v1/jobs/{submitted['id']}/result"
        ) as response:
            assert response.headers["X-Xdata-Cache"] == "miss"
            payload = json.loads(response.read())
        assert payload["canonical_sql"] == status["canonical_sql"]

    def test_duplicate_submission_serves_identical_bytes_from_cache(
        self, service
    ):
        first = _post_job(service, {"schema": DDL, "query": SQL})
        _wait_done(service, first["id"])
        second = _post_job(service, {"schema": DDL, "query": SQL_RESPELLED})
        assert second["fingerprint"] == first["fingerprint"]
        status = _wait_done(service, second["id"])
        assert status["cached"] is True
        bodies = []
        for job in (first, second):
            with urllib.request.urlopen(
                f"{service.url}/v1/jobs/{job['id']}/result"
            ) as response:
                bodies.append(response.read())
        assert bodies[0] == bodies[1]

    def test_result_before_done_is_409_and_unknown_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/jobs/job-999/result")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/jobs/job-999")
        assert excinfo.value.code == 404

    def test_bad_submission_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/v1/jobs",
            data=json.dumps({"query": SQL}).encode(),  # schema missing
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_metrics_exposition_reconciles_with_cache(self, service):
        first = _post_job(service, {"schema": DDL, "query": SQL})
        _wait_done(service, first["id"])
        second = _post_job(service, {"schema": DDL, "query": SQL_RESPELLED})
        _wait_done(service, second["id"])
        with urllib.request.urlopen(service.url + "/metrics") as response:
            text = response.read().decode()
        assert "xdata_service_cache_hits_total 1" in text
        assert "xdata_service_cache_misses_total 1" in text
        assert "xdata_service_jobs_done_total 2" in text
        assert "xdata_service_queue_depth" in text

    def test_evaluate_mode_over_http(self, service):
        submitted = _post_job(
            service, {"schema": DDL, "query": SQL, "mode": "evaluate"}
        )
        _wait_done(service, submitted["id"])
        with urllib.request.urlopen(
            f"{service.url}/v1/jobs/{submitted['id']}/result"
        ) as response:
            payload = json.loads(response.read())
        assert payload["kill"]["total"] > 0

    def test_delete_cancels_only_pending_jobs(self, service):
        submitted = _post_job(service, {"schema": DDL, "query": SQL})
        _wait_done(service, submitted["id"])
        request = urllib.request.Request(
            f"{service.url}/v1/jobs/{submitted['id']}", method="DELETE"
        )
        with urllib.request.urlopen(request) as response:
            body = json.loads(response.read())
        assert body["cancelled"] is False  # already finished

    def test_kept_alive_connection_does_not_stall(self, service):
        submitted = _post_job(service, {"schema": DDL, "query": SQL})
        _wait_done(service, submitted["id"])
        host, port = service.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        paths = ["/healthz", f"/v1/jobs/{submitted['id']}/result"] * 10
        started = time.perf_counter()
        for path in paths:
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            assert response.status == 200
        elapsed = time.perf_counter() - started
        connection.close()
        # Headers and body written apart would stall each response ~40 ms
        # on the client's delayed ACK; one write answers in about 1 ms.
        assert elapsed < len(paths) * 0.040 / 4, elapsed


class TestClassroomBurst:
    """A grading burst over HTTP: six Table II assignments, each sent by
    ten students in their own spellings (case and whitespace), against a
    live :class:`Service` with two worker threads."""

    ASSIGNMENTS = ("Q1", "Q7", "Q8", "Q9", "Q10", "Q11")
    SPELLINGS = 10

    @staticmethod
    def respell(sql: str, rng: random.Random) -> str:
        """One student's spelling: case and spacing noise outside string
        literals, which the fingerprint canonicalizes away."""
        segments = sql.split("'")
        for index in range(0, len(segments), 2):  # outside quotes
            words = re.split(r"(\s+)", segments[index])
            for position, word in enumerate(words):
                if word.isspace():
                    if rng.random() < 0.4:
                        words[position] = " " * rng.randint(1, 3)
                elif word and rng.random() < 0.5:
                    words[position] = (
                        word.upper() if rng.random() < 0.5 else word.lower()
                    )
            segments[index] = "".join(words)
        return "'".join(segments)

    def burst(self) -> list[str]:
        rng = random.Random(20260808)
        submissions = []
        for name in self.ASSIGNMENTS:
            sql = UNIVERSITY_QUERIES[name]["sql"]
            submissions.append(sql)
            submissions += [
                self.respell(sql, rng) for _ in range(self.SPELLINGS - 1)
            ]
        rng.shuffle(submissions)
        return submissions

    def test_burst_is_byte_identical_and_reconciles(self):
        ddl = to_ddl(university_schema())
        # In-process solves, one fresh session each, over the schema the
        # server parses.
        schema = repro.parse_ddl(ddl)
        references = {
            repro.fingerprint(ddl, sql): canonical_bytes(
                build_payload(repro.Session(schema).generate(sql))
            )
            for sql in (
                UNIVERSITY_QUERIES[name]["sql"] for name in self.ASSIGNMENTS
            )
        }
        burst = self.burst()
        with Service(port=0, workers=2) as service:
            jobs = [
                _post_job(service, {"schema": ddl, "query": sql})
                for sql in burst
            ]
            hits = misses = 0
            for job in jobs:
                assert _wait_done(service, job["id"])["state"] == "done"
                with urllib.request.urlopen(
                    f"{service.url}/v1/jobs/{job['id']}/result"
                ) as response:
                    body = response.read()
                    cached = response.headers["X-Xdata-Cache"] == "hit"
                hits += cached
                misses += not cached
                assert body == references[job["fingerprint"]], job
            with urllib.request.urlopen(service.url + "/metrics") as response:
                text = response.read().decode()
        assert misses == len(self.ASSIGNMENTS)
        assert hits / len(burst) >= 0.8
        assert f"xdata_service_cache_hits_total {hits}\n" in text
        assert f"xdata_service_cache_misses_total {misses}\n" in text


class TestHostileSubmissions:
    def _post(self, svc, body: dict) -> tuple[int, dict]:
        request = urllib.request.Request(
            svc.url + "/v1/jobs",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_deeply_nested_query_is_a_400_parse_error(self, service):
        depth = 3000
        sql = "SELECT * FROM " + "(" * depth + "emp" + ")" * depth
        status, body = self._post(service, {"schema": DDL, "query": sql})
        assert status == 400
        assert body["error"].startswith("ParseError:"), body

    def test_overlong_query_is_a_400(self, service):
        from repro.service.server import _MAX_QUERY

        sql = SQL + " AND e.salary > 10" * (_MAX_QUERY // 10)
        status, body = self._post(service, {"schema": DDL, "query": sql})
        assert status == 400 and "longer than" in body["error"]

    def test_malformed_content_length_is_a_400(self, service):
        host, port = service.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Length", "abc")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert "malformed" in json.loads(response.read())["error"]
        connection.close()

    @pytest.mark.parametrize("body", [
        {"schema": DDL, "query": 42},
        {"schema": {"tables": []}, "query": SQL},
    ])
    def test_non_string_fields_are_a_400(self, service, body):
        status, answer = self._post(service, body)
        assert status == 400 and "must be strings" in answer["error"]
