"""Process-pool fan-out for dataset generation, one query per task.

Queries are independent generation problems, and a query is the unit
worth parallelising: the paper emits a handful of datasets per query
(linear in its size), while a grading run submits many queries.  So
:func:`generate_suites_parallel` hands each worker whole queries; a
worker runs the ordinary sequential ``XDataGenerator.generate`` for
each, and results come back in query order, byte-identical to an
in-process run.  (Fanning the datasets of *one* query out across the
pool was measured slower than solving them in-process on every query
but the heaviest, DESIGN.md §5c, and is not offered.)

One process pool, one lifecycle.  :class:`SupervisedPool` is the only
owner of an executor; the campaign driver holds its own, and every
generation batch goes through :func:`_run_batch`, which shares one
module-level instance.  That pool is created lazily and kept alive for
the life of the parent process: pool start-up (fork + pipe setup) costs
tens of milliseconds, so it is paid once per process instead of once
per batch.  A batch that needs more workers than the pool has kills it
and starts a bigger one; :func:`shutdown_pool` closes it.

Failure isolation (DESIGN.md §5d).  Each item is submitted as its own
future, so one poisoned task cannot take a whole batch down with it:

* task-level exceptions are captured *inside* the worker into picklable
  :class:`FailedSuite` results unless ``config.fail_fast``;
* a worker crash (or pool-creation failure) breaks only the futures
  without results; the batch emits a
  :class:`~repro.errors.PoolDegradedWarning`, kills the pool, marks
  itself degraded and resumes **only the unfinished items**
  sequentially in the parent — completed results are never re-solved;
* an optional deadline bounds every wait, so a hung worker degrades the
  run instead of hanging it: the batch kills the pool (the hung worker
  is SIGKILLed, not left running), and items still unfinished when the
  deadline passes come back as ``None``;
* concurrent batches (service threads) share the pool, so one batch's
  kill (or growth) breaks or cancels another's futures; that batch
  resumes its unfinished items sequentially, exactly as after a crash;
* anything else escaping a pooled batch (``KeyboardInterrupt``, a
  fail-fast error) kills the pool before it propagates: workers ignore
  SIGINT, and a live one would hold up interpreter exit;
* a worker whose owner dies without cleaning up (``kill -9``) notices
  its new parent pid and exits, instead of blocking on the dead
  owner's call queue for good.

Degradation is loud but lossless — parallelism is a throughput lever,
never a correctness requirement.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import signal
import threading
import time
import warnings
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.errors import PoolDegradedWarning
from repro.memo import Memo
from repro.schema.catalog import Schema


def effective_workers(
    requested: int, tasks: int, cap_to_cpus: bool = True
) -> int:
    """The pool size actually worth using for ``tasks`` tasks.

    Never more than there are tasks and, by default, never more than the
    machine has CPUs: on an oversubscribed host extra workers cannot run
    concurrently, so they contribute only scheduling churn, duplicated
    cache warm-up and pickling overhead.  ``cap_to_cpus=False`` bypasses
    the hardware cap (tests exercising the pool protocol on small
    machines).
    """
    limit = min(requested, tasks)
    if cap_to_cpus:
        limit = min(limit, os.cpu_count() or 1)
    return max(1, limit)

#: Parent-side dispatch tokens; workers key their generator on the
#: token so successive dispatches (different schemas or configs)
#: through the same long-lived pool never mix state.
_TOKENS = itertools.count(1)

#: Per-worker-process memo: token -> the batch's ``XDataGenerator``.
_WORKER_GENERATORS = Memo(8)

#: Seconds between a pool worker's checks that its owner still lives.
_PARENT_POLL_S = 0.5


class SupervisedPool:
    """A process pool whose workers can be hard-killed and respawned.

    The one owner of an executor in the package.  The campaign driver
    (``repro.campaign``) owns one per campaign; generation fan-out
    shares the module-level one behind :func:`_run_batch`.  Both need
    the same thing from it: a path that kills a stuck or broken pool
    outright (``SIGKILL``, not cooperative cancellation) and keeps
    scheduling on a fresh one, because a hung task must cost one
    deadline, never the caller.  The executor is created lazily on
    first :meth:`submit` and transparently recreated after
    :meth:`kill`, so callers treat it as an immortal submit surface.
    """

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self._executor: ProcessPoolExecutor | None = None
        #: Executors killed so far.  Also the pool's generation: a
        #: batch that saw it unchanged since its submit knows the
        #: executor it used is still the live one.
        self.kills = 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_supervised_worker_signals
            )
        return self._executor

    def submit(self, fn, *args):
        """Submit ``fn(*args)``; recreates the pool if it was killed."""
        return self._ensure().submit(fn, *args)

    def kill(self) -> None:
        """SIGKILL every worker process and discard the executor.

        In-flight futures fail with :class:`BrokenProcessPool` and
        queued ones are cancelled; the caller is expected to requeue the
        tasks it still cares about.  The next :meth:`submit` starts a
        fresh pool.
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        self.kills += 1
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:
                pass  # already dead
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Orderly shutdown (waits for running tasks)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: The generation fan-out's pool: created by the first pooled batch,
#: replaced by a bigger one when a batch needs more workers, alive until
#: :func:`shutdown_pool` or interpreter exit.  Every lookup, submit and
#: kill of it holds :data:`_BATCH_LOCK`, so concurrent batches (service
#: threads) never submit to an executor another batch is killing.
_BATCH_POOL: SupervisedPool | None = None
_BATCH_LOCK = threading.Lock()


def _batch_pool(workers: int) -> SupervisedPool:
    """The shared pool, at least ``workers`` wide.  Caller holds the lock."""
    global _BATCH_POOL
    if _BATCH_POOL is None or _BATCH_POOL.workers < workers:
        if _BATCH_POOL is not None:
            # Killed, not left to finish: a batch still waiting on the
            # old pool could no longer reach a hung worker there.  Such
            # batches resume in-process, as after a crash.
            _BATCH_POOL.kill()
        _BATCH_POOL = SupervisedPool(workers)
    return _BATCH_POOL


def _kill_batch_pool(pool: SupervisedPool, generation: int) -> None:
    """Kill ``pool`` unless it was killed since ``generation`` was read.

    Every batch that shared a broken or killed executor sees the
    failure; only the first kills, so the fresh executor a third batch
    may already be using survives.
    """
    with _BATCH_LOCK:
        if pool.kills == generation:
            pool.kill()


def shutdown_pool() -> None:
    """Stop the shared worker pool (it restarts lazily on next use)."""
    global _BATCH_POOL
    with _BATCH_LOCK:
        pool, _BATCH_POOL = _BATCH_POOL, None
    if pool is not None:
        pool.close()


def _supervised_worker_signals() -> None:
    """Undo the owner's drain handlers in a forked worker.

    The campaign driver installs flag-only SIGINT/SIGTERM handlers before
    the pool forks.  Inherited, they would make workers ignore SIGTERM,
    and a worker orphaned by a SIGKILLed driver would outlive a SIGTERM
    to its process group.  So SIGTERM ends a worker; SIGINT, which a
    terminal sends to the whole foreground group, is ignored so that
    Ctrl-C drains the round in the driver instead of killing its workers.
    A generation batch interrupted by Ctrl-C kills the pool itself
    (:func:`_run_batch`).

    An owner killed outright (``SIGKILL``) runs none of that cleanup, so
    each worker also watches its parent pid and exits once it changes
    (the orphan was reparented).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()


def _exit_when_orphaned(owner: int) -> None:
    while os.getppid() == owner:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _warn_degraded(detail: str) -> None:
    warnings.warn(
        f"process-pool fan-out degraded to sequential execution: {detail}",
        PoolDegradedWarning,
        stacklevel=3,
    )


def _worker_config(config):
    """The config a worker runs with: same semantics, one journal writer.

    Concurrent appends to one journal file would interleave runs, so the
    path is removed and tracing forced on instead; the parent (see
    ``repro.testing.workload``) replays the shipped span trees into its
    own journal.
    """
    if config.journal_path is None:
        return config
    return dataclasses.replace(config, journal_path=None, trace=True)


@dataclass
class BatchOutcome:
    """One batched dispatch: per-item results plus degradation telemetry.

    ``results[i]`` is ``None`` only when the batch deadline expired
    before item ``i`` was finished anywhere.
    """

    results: list
    degraded: bool = False


@dataclass
class FailedSuite:
    """Picklable per-query failure marker.

    Returned in place of a :class:`TestSuite` when a worker's
    ``generate()`` raised and ``config.fail_fast`` was off, or when the
    batch deadline passed first; the workload layer turns it into a
    per-query error entry.
    """

    sql: str
    error_type: str
    message: str

    @property
    def error(self) -> str:
        return f"{self.error_type}: {self.message}"


def _generate_suite_task(token: int, payload: tuple, sql: str):
    generator = _WORKER_GENERATORS.get(token)
    if generator is None:
        from repro.core.generator import XDataGenerator

        generator = XDataGenerator(*payload)
        _WORKER_GENERATORS.put(token, generator)
    try:
        return generator.generate(sql)
    except Exception as exc:
        if generator.config.fail_fast:
            raise
        return FailedSuite(sql, type(exc).__name__, str(exc))


def _run_batch(
    task, args: list, pool_size: int, deadline: float | None = None
) -> BatchOutcome:
    """Run ``task(arg)`` for every arg, pooled, with failure isolation.

    Each item is its own future: a crash or timeout loses only the
    unfinished items, which are resumed sequentially in the parent
    (unless the deadline has passed — those stay ``None``).  A pool
    size of one runs every item in-process, with no deadline.
    """
    if pool_size <= 1:
        return BatchOutcome(results=[task(arg) for arg in args])
    outcome = BatchOutcome(results=[None] * len(args))

    def expired() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    pool = None
    generation = 0
    broken = timed_out = False
    try:
        futures = []
        try:
            with _BATCH_LOCK:
                pool = _batch_pool(pool_size)
                generation = pool.kills
                futures = [pool.submit(task, arg) for arg in args]
        except (OSError, BrokenProcessPool) as exc:
            _warn_degraded(f"could not dispatch to the pool ({exc!r})")
            broken = True
        for index, future in enumerate(futures):
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
            try:
                outcome.results[index] = future.result(timeout=remaining)
            except _FuturesTimeout:
                if not timed_out:
                    _warn_degraded(
                        "batch deadline expired while waiting on a worker; "
                        "killing the pool"
                    )
                timed_out = True
                # Keep scanning with zero timeout: later futures that
                # already finished still surface their results.
            except (OSError, BrokenProcessPool, CancelledError) as exc:
                # Cancelled means another batch killed the shared pool
                # while this item was queued: the same loss as a crash.
                if not broken:
                    _warn_degraded(f"worker pool broke mid-batch ({exc!r})")
                broken = True
                # Keep scanning: futures completed before the break
                # still hold results and must not be re-solved.
    except BaseException:
        # KeyboardInterrupt, or a fail-fast task error.  Workers ignore
        # SIGINT, so a worker left running would outlive the interrupt
        # and hold up interpreter exit until its task ends.
        if pool is not None:
            _kill_batch_pool(pool, generation)
        raise

    if broken or timed_out:
        # SIGKILL, not abandonment: a hung worker must not keep running.
        _kill_batch_pool(pool, generation)
        outcome.degraded = True
        for index, arg in enumerate(args):
            if outcome.results[index] is not None or expired():
                continue
            outcome.results[index] = task(arg)
    return outcome


def generate_suites_parallel(
    schema: Schema, queries: dict[str, str], config, workers: int,
    cap_to_cpus: bool = True,
) -> dict:
    """One result per query, generated across the shared pool.

    Queries are independent generation problems; each worker runs the
    full sequential pipeline for the queries it is handed.  Results are
    keyed and ordered like ``queries``; a failing query maps to a
    :class:`FailedSuite` instead of poisoning the batch (with
    ``config.fail_fast`` it raises).  Falls back — loudly, see
    :class:`PoolDegradedWarning` — to an in-process sequential run when
    the pool breaks, resuming only the queries without results.

    With ``config.suite_deadline_s`` set, a pooled batch waits at most
    that budget times the rounds the pool needs (queries ÷ pool width,
    rounded up), counted from submission: a hung worker is then killed,
    and each query without a result maps to a :class:`FailedSuite`
    naming the deadline.
    """
    names = list(queries)
    sqls = [queries[name] for name in names]
    pool_size = effective_workers(workers, len(sqls), cap_to_cpus)
    payload = (schema, _worker_config(config))
    token = next(_TOKENS)
    task = functools.partial(_generate_suite_task, token, payload)
    deadline = budget = None
    if pool_size > 1 and config.suite_deadline_s is not None:
        budget = config.suite_deadline_s * math.ceil(len(sqls) / pool_size)
        deadline = time.perf_counter() + budget
    outcome = _run_batch(task, sqls, pool_size, deadline)
    results = outcome.results
    for index, suite in enumerate(results):
        if suite is None:
            results[index] = FailedSuite(
                sqls[index], "DeadlineExceeded",
                f"no result within the batch deadline of {budget:g} s",
            )
        elif outcome.degraded and not isinstance(suite, FailedSuite):
            suite.health.pool_degraded = True
    return dict(zip(names, results))
