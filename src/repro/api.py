"""The stable programmatic facade (DESIGN.md §5e).

Three call shapes cover the common workflows, each accepting a
:class:`~repro.schema.catalog.Schema` or raw DDL text:

* :func:`generate` — one query, one :class:`Run` (suite + trace +
  metrics + health);
* :func:`generate_workload` — many queries, one combined fixture set;
* :func:`evaluate` — generate, enumerate mutants, and score the suite's
  killing power in one call.

For repeated calls against one schema — a grading session —
:class:`Session` holds the parsed schema, generator, backend handle and
a fingerprint-keyed suite cache across calls::

    with repro.Session(ddl) as session:
        for submission in submissions:
            result = session.evaluate(submission)   # equivalent spellings hit the cache

Kill-check evaluation switches travel in one :class:`EvalOptions`
value rather than a keyword per switch.

Everything here is re-exported from :mod:`repro`; this module is the
documented entry point, and ``tests/test_public_api.py`` locks its
surface so it cannot drift silently::

    import repro

    run = repro.generate(ddl, "SELECT * FROM r WHERE r.a > 5",
                         config=repro.GenConfig(trace=True, metrics=True))
    print(run.health.summary())
    print(run.trace_text())
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.generator import (
    GenConfig,
    GeneratedDataset,
    SuiteHealth,
    TestSuite,
    XDataGenerator,
)
from repro.engine.database import Database
from repro.memo import Memo
from repro.mutation.space import MutationSpace, enumerate_mutants
from repro.schema.catalog import Schema
from repro.schema.ddl import as_schema
from repro.solver.search import SearchConfig
from repro.testing.killcheck import KillCheckConfig, KillReport, evaluate_suite
from repro.testing.workload import WorkloadSuite
from repro.testing.workload import generate_workload as _generate_workload

__all__ = [
    "Run",
    "Evaluation",
    "EvalOptions",
    "Session",
    "generate",
    "generate_workload",
    "evaluate",
    "fingerprint",
    "GenConfig",
    "SearchConfig",
]


@dataclass
class Run:
    """One ``generate()`` call's complete result.

    Bundles the suite with its observability artefacts so callers never
    reach into generator internals: ``run.suite`` (datasets + skip
    list), ``run.health`` (failure semantics), ``run.trace`` (span
    tree, with :attr:`GenConfig.trace`) and ``run.metrics`` (snapshot,
    with :attr:`GenConfig.metrics`).
    """

    suite: TestSuite

    @property
    def datasets(self) -> list[GeneratedDataset]:
        return self.suite.datasets

    @property
    def databases(self) -> list[Database]:
        return self.suite.databases

    @property
    def health(self) -> SuiteHealth:
        return self.suite.health

    @property
    def ok(self) -> bool:
        """True when nothing degraded (equivalences are not failures)."""
        return self.suite.health.ok

    @property
    def trace(self) -> list | None:
        """Root span records (``GenConfig.trace``), else ``None``."""
        return self.suite.trace

    @property
    def metrics(self) -> dict | None:
        """Metrics snapshot (``GenConfig.metrics``), else ``None``."""
        return self.suite.metrics

    def trace_text(self) -> str:
        """The span tree rendered as an indented text tree."""
        from repro.testing.report import format_trace

        return format_trace(self.trace)

    def metrics_text(self) -> str:
        """The metrics snapshot in Prometheus-style text exposition."""
        from repro.obs.metrics import render_text

        return render_text(self.metrics)

    def summary(self) -> str:
        """The suite summary (datasets, timings, health)."""
        from repro.testing.report import format_suite

        return format_suite(self.suite)


@dataclass
class Evaluation:
    """Result of :func:`evaluate`: a run scored against its mutants."""

    run: Run
    space: MutationSpace
    report: KillReport

    @property
    def killed(self) -> int:
        return self.report.killed

    @property
    def total(self) -> int:
        return self.report.total

    @property
    def survivors(self) -> list:
        return self.report.survivors


@dataclass(frozen=True)
class EvalOptions:
    """Kill-check evaluation switches, bundled (DESIGN.md §5e).

    One value that travels through sessions, the job queue and the HTTP
    service unchanged.

    Attributes:
        include_full_outer: Enumerate FULL OUTER JOIN mutants too.
        backend: Kill-check execution backend — ``None`` for the
            reference engine, ``"engine"`` / ``"sqlite"``, or a
            :class:`repro.backends.Backend` instance.
        cross_check: Run every execution on both the engine and SQLite,
            raising :class:`repro.backends.BackendDisagreement` on any
            result-bag difference (DESIGN.md §5f).
        kill_config: Kill-check evaluation switches
            (:class:`repro.testing.killcheck.KillCheckConfig`); the
            default enables the batched subplan-cache path (§5g).
    """

    include_full_outer: bool = False
    backend: object = None
    cross_check: bool = False
    kill_config: KillCheckConfig | None = None


def generate(
    schema: Schema | str, query: str, *, config: GenConfig | None = None
) -> Run:
    """Generate a mutant-killing test suite for one query.

    Args:
        schema: Parsed :class:`Schema` or raw ``CREATE TABLE`` DDL text.
        query: The SQL query under test.
        config: Generator configuration; defaults cover the paper's
            standard pipeline.  Turn on :attr:`GenConfig.trace` /
            ``metrics`` / ``journal_path`` for observability.
    """
    generator = XDataGenerator(as_schema(schema), config)
    return Run(generator.generate(query))


def generate_workload(
    schema: Schema | str, queries: dict[str, str], *,
    config: GenConfig | None = None, **kwargs,
) -> WorkloadSuite:
    """Generate one combined fixture set for many named queries.

    Keyword arguments (``minimize``, ``workers``, ``fail_fast``) pass
    through to :func:`repro.testing.workload.generate_workload`.
    """
    return _generate_workload(
        as_schema(schema), queries, config=config, **kwargs
    )


def _evaluate_run(run: Run, options: EvalOptions) -> Evaluation:
    """Score an existing run against its mutants (shared kill-check tail)."""
    space = enumerate_mutants(
        run.suite.analyzed, include_full_outer=options.include_full_outer
    )
    report = evaluate_suite(
        space, run.databases, backend=options.backend,
        cross_check=options.cross_check, config=options.kill_config,
    )
    if report.cache_stats is not None:
        _reconcile_cache_stats(run.suite, report.cache_stats)
    return Evaluation(run, space, report)


def evaluate(
    schema: Schema | str, query: str, *,
    config: GenConfig | None = None, options: EvalOptions | None = None,
) -> Evaluation:
    """Generate a suite and score it against the query's mutants.

    Evaluation switches (backend selection, cross-checking, FULL OUTER
    mutants, kill-check tuning) travel in ``options`` — see
    :class:`EvalOptions`.  Subplan-cache traffic lands in
    ``run.health.subplan_cache`` and, when metrics are on, as
    ``xdata_subplan_cache_*`` counters in the snapshot.
    """
    run = generate(schema, query, config=config)
    return _evaluate_run(run, options or EvalOptions())


def fingerprint(schema: Schema | str, query, config: GenConfig | None = None) -> str:
    """The content address of a generation request (sha-256 hex digest).

    Two ``(schema, query, config)`` triples share a fingerprint exactly
    when the generator is guaranteed to produce byte-identical suites
    for them, which is the contract the suite cache
    (:class:`repro.service.SuiteCache`) and :class:`Session` rely on to
    serve a cached result in place of a solve.

    Canonicalization rules (full details in
    :mod:`repro.service.fingerprint`):

    * the query is parsed and re-printed, normalizing whitespace,
      keyword and identifier case, literal formatting (``1.50`` →
      ``1.5``), ``!=`` → ``<>`` and redundant parentheses;
    * table bindings are renamed positionally (``t1``, ``t2``, ... in
      FROM-clause order, recursing into subqueries), so alias choice
      never affects the fingerprint; select-list aliases are kept
      (lower-cased) because they name output columns;
    * conjunct, join and select-item order are **not** normalized —
      reordering preserves SQL semantics but changes the order in which
      dataset specs are derived, hence the generated bytes;
    * the schema renders with tables sorted and column order preserved;
    * the config covers every generator knob except ``workers`` and the
      observability switches (``trace`` / ``metrics`` /
      ``journal_path``), which are documented to never change generated
      bytes.  ``config=None`` fingerprints like ``GenConfig()``.

    Accepts raw DDL/SQL text or parsed :class:`Schema` /
    :class:`repro.sql.ast.Query` values.
    """
    # Imported lazily: repro.service pulls in the job queue and HTTP
    # server, which themselves import this module.
    from repro.service.fingerprint import fingerprint as _fingerprint

    return _fingerprint(schema, query, config)


#: Runs (and, separately, evaluations) a :class:`Session` memoizes.
SESSION_MEMO_SIZE = 256


class Session:
    """Repeated generation/evaluation against one schema, with caching.

    A session parses the schema once, reuses one
    :class:`~repro.core.generator.XDataGenerator`, resolves the backend
    handle once, and memoizes runs by content fingerprint — so
    equivalent spellings of one query (case, whitespace, aliases) share
    a single solve.  This is the natural shape for an in-process
    grading assistant (``examples/grading_assistant.py``); the service
    layer (:mod:`repro.service`) keeps its results in its byte-budgeted
    suite cache instead.

    Thread-safety: safe for concurrent ``generate`` / ``evaluate``
    calls; concurrent solves of *different* queries proceed in
    parallel, duplicate fingerprints are single-flighted by the memo
    check (a rare double solve is benign — both produce identical
    suites).
    """

    def __init__(
        self,
        schema: Schema | str,
        *,
        config: GenConfig | None = None,
        options: EvalOptions | None = None,
    ) -> None:
        from repro.service.fingerprint import canonical_config

        self.schema = as_schema(schema)
        self.config = config or GenConfig()
        self.options = options or EvalOptions()
        self._generator = XDataGenerator(self.schema, self.config)
        self._config_canon = canonical_config(self.config)
        self._runs = Memo(SESSION_MEMO_SIZE)
        self._evaluations = Memo(SESSION_MEMO_SIZE)

    # -- content addressing --------------------------------------------

    def fingerprint(self, query) -> str:
        """The content address of ``query`` under this session's config."""
        return self._canonical(query)[1]

    def canonical_sql(self, query) -> str:
        """The canonical SQL text this session would actually solve."""
        from repro.service.fingerprint import canonical_query

        return canonical_query(query)

    def _canonical(self, query) -> tuple[str, str]:
        """``(canonical SQL, fingerprint)`` from one canonicalization."""
        from repro.service.fingerprint import canonical_request

        return canonical_request(self.schema, query, self._config_canon)

    # -- cached pipeline stages ----------------------------------------

    def generate(self, query) -> Run:
        """Generate (or fetch) the suite for ``query``.

        The solve runs over the *canonical* SQL text, so every spelling
        that shares a fingerprint returns the very same :class:`Run`
        object.
        """
        sql, key = self._canonical(query)
        return self._run(sql, key)

    def _run(self, sql: str, key: str) -> Run:
        run = self._runs.get(key)
        if run is None:
            run = Run(self._generator.generate(sql))
            self._runs.put(key, run)
        return run

    def evaluate(self, query, options: EvalOptions | None = None) -> Evaluation:
        """Generate (or fetch) a suite and score it against mutants.

        ``options`` overrides the session default for this call only.
        Evaluations are memoized per ``(fingerprint, options)`` pair, so
        re-grading an equivalent submission costs a dict lookup.
        """
        opts = options or self.options
        sql, digest = self._canonical(query)
        key = f"{digest}|{opts!r}"
        evaluation = self._evaluations.get(key)
        if evaluation is None:
            evaluation = _evaluate_run(self._run(sql, digest), opts)
            self._evaluations.put(key, evaluation)
        return evaluation

    # -- bookkeeping ---------------------------------------------------

    @property
    def cached_runs(self) -> int:
        """Number of distinct fingerprints solved so far."""
        return len(self._runs)

    def clear(self) -> None:
        """Drop memoized runs and evaluations (schema/config kept)."""
        self._runs.clear()
        self._evaluations.clear()

    def close(self) -> None:
        """Release cached state; the session stays usable but cold."""
        self.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _reconcile_cache_stats(suite: TestSuite, stats: dict) -> None:
    """Fold kill-check subplan-cache traffic into the suite's telemetry.

    Health gets the plain stats (``format_suite`` prints the hit rate
    beside the skip taxonomy); a metrics snapshot, when present, gains
    the matching ``xdata_subplan_cache_*`` counters so the two surfaces
    reconcile (§5e convention: counter totals equal health fields).
    """
    suite.health.subplan_cache = dict(stats)
    if suite.metrics is not None:
        from repro.engine.subplan import SUBPLAN_COUNTER_PREFIX

        counters = suite.metrics.setdefault("counters", {})
        for name, value in (
            ("hits_total", stats.get("hits", 0)),
            ("misses_total", stats.get("misses", 0)),
            ("bytes_total", stats.get("bytes", 0)),
        ):
            key = SUBPLAN_COUNTER_PREFIX + name
            counters[key] = counters.get(key, 0) + value
