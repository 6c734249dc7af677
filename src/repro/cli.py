"""Command-line interface: ``xdata`` (or ``python -m repro.cli``).

Subcommands:

* ``generate`` — produce a mutant-killing test suite for a query;
* ``mutants``  — list the mutation space of a query;
* ``evaluate`` — generate a suite, enumerate mutants, report the kill
  matrix and classify survivors;
* ``export``   — write a suite as per-dataset INSERT scripts;
* ``workload`` — one combined fixture set for a file of named queries;
* ``serve``    — run the HTTP generation service (``repro.service``);
* ``campaign`` — run a crash-safe differential fuzzing campaign
  (``repro.campaign``).

The schema comes from a DDL file (``--schema``) or the bundled university
schema (``--university``, optionally with ``--fk`` edge names).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.generator import GenConfig, XDataGenerator
from repro.datasets.university import (
    FK_EDGES,
    schema_with_fks,
    university_sample_database,
    university_schema,
)
from repro.errors import XDataError
from repro.mutation import enumerate_mutants
from repro.schema.ddl import parse_ddl
from repro.testing import classify_survivors, evaluate_suite
from repro.testing.report import format_kill_report, format_suite, format_trace


def _print_observability(suite, args) -> None:
    """Print the span tree and/or metrics a run recorded, per flags."""
    if args.trace and suite.trace is not None:
        print()
        print("-- trace:")
        print(format_trace(suite.trace))
    if args.metrics and suite.metrics is not None:
        from repro.obs.metrics import render_text

        print()
        print("-- metrics:")
        print(render_text(suite.metrics))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdata",
        description="Generate test data that kills SQL query mutants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "generate a test suite for a query"),
        ("mutants", "list the mutation space of a query"),
        ("evaluate", "generate, run mutants, report kills"),
        ("export", "generate a suite and write INSERT scripts to a directory"),
        ("workload", "generate a combined fixture set for a file of queries"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        if name == "workload":
            cmd.add_argument(
                "query",
                metavar="FILE",
                help="SQL file: queries introduced by '-- name: <label>' lines",
            )
        else:
            cmd.add_argument("query", help="SQL query text, or '-' to read stdin")
        source = cmd.add_mutually_exclusive_group()
        source.add_argument(
            "--schema", metavar="FILE", help="DDL file with CREATE TABLE statements"
        )
        source.add_argument(
            "--university",
            action="store_true",
            help="use the bundled university schema",
        )
        cmd.add_argument(
            "--fk",
            action="append",
            default=None,
            metavar="EDGE",
            choices=sorted(FK_EDGES),
            help="with --university: keep only these foreign keys "
            "(repeatable; default keeps all)",
        )
        cmd.add_argument(
            "--no-unfold",
            action="store_true",
            help="disable quantifier unfolding (the paper's slow mode)",
        )
        cmd.add_argument(
            "--input-db",
            action="store_true",
            help="with --university: constrain values to the sample database",
        )
        cmd.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget per dataset (solve attempts beyond it "
            "are cut off and the target is skipped with reason 'budget')",
        )
        cmd.add_argument(
            "--retries",
            type=int,
            default=1,
            metavar="N",
            help="budget-escalation retries per dataset before degrading "
            "(each retry multiplies the node budget; default 1)",
        )
        cmd.add_argument(
            "--fail-fast",
            action="store_true",
            help="abort on the first degraded dataset (budget/error skip) "
            "instead of completing the suite and reporting it in the "
            "health summary",
        )
        cmd.add_argument(
            "--trace",
            action="store_true",
            help="record spans for every pipeline stage and print the "
            "span tree after the run",
        )
        cmd.add_argument(
            "--metrics",
            action="store_true",
            help="collect counters/gauges/histograms and print them in "
            "Prometheus text format after the run",
        )
        cmd.add_argument(
            "--journal",
            metavar="PATH",
            default=None,
            help="append a JSON-lines run journal (one event per span "
            "close; survives crashes — validate with "
            "'python -m repro.obs.journal PATH')",
        )
        if name in ("mutants", "evaluate"):
            cmd.add_argument(
                "--full-outer",
                action="store_true",
                help="include mutations to full outer join",
            )
        if name in ("evaluate", "workload"):
            cmd.add_argument(
                "--backend",
                choices=("engine", "sqlite"),
                default="engine",
                help="execution backend for kill checking (default: the "
                "in-process engine; 'sqlite' runs every plan on the "
                "stdlib sqlite3 module instead)",
            )
            cmd.add_argument(
                "--cross-check",
                action="store_true",
                help="run every execution on BOTH backends and fail with "
                "a structured disagreement report if their result bags "
                "ever differ (differential oracle mode)",
            )
            cmd.add_argument(
                "--no-subplan-cache",
                action="store_true",
                help="ablation: disable the batched subplan cache and "
                "re-execute every mutant tree from scratch (the verdicts "
                "are identical; see tests/test_subplan_cache.py)",
            )
        if name == "generate":
            cmd.add_argument(
                "--show-constraints",
                action="store_true",
                help="print each dataset's constraints in CVC3 ASSERT syntax",
            )
        if name == "workload":
            cmd.add_argument(
                "--workers",
                type=int,
                default=1,
                metavar="N",
                help="worker processes generating the queries in parallel "
                "(one query per task; results are identical to a "
                "sequential run)",
            )
        if name in ("export", "workload"):
            cmd.add_argument(
                "--out",
                required=name == "export",
                metavar="DIR",
                help="directory for the per-dataset .sql files",
            )
        if name == "evaluate":
            cmd.add_argument(
                "--trials",
                type=int,
                default=20,
                help="random instances for survivor classification",
            )
            cmd.add_argument(
                "--minimize",
                action="store_true",
                help="prune datasets that add no killing power (greedy set cover)",
            )
    # ``serve`` takes the service's own flags, not the query/schema set
    # the loop above wires up; main() routes it to repro.service before
    # this parser ever sees its arguments.  Registered here so it shows
    # in ``xdata --help``.
    sub.add_parser(
        "serve",
        help="serve generation over HTTP (POST /v1/jobs; see repro.service)",
        add_help=False,
    )
    sub.add_parser(
        "campaign",
        help="run a crash-safe differential fuzzing campaign (repro.campaign)",
        add_help=False,
    )
    return parser


def _load_schema(args):
    if args.schema:
        with open(args.schema) as handle:
            return parse_ddl(handle.read()), None
    if args.fk is not None:
        schema = schema_with_fks(args.fk)
    else:
        schema = university_schema()
    input_db = None
    if args.input_db:
        if args.fk is not None:
            input_db = university_sample_database(schema)
        else:
            input_db = university_sample_database(schema)
    return schema, input_db


def _read_query(args) -> str:
    if args.query == "-":
        return sys.stdin.read()
    return args.query


def parse_workload_file(text: str) -> dict[str, str]:
    """Split a SQL file into named queries.

    Queries are introduced by ``-- name: <label>`` comment lines; the text
    until the next marker (semicolons stripped) is the query.
    """
    queries: dict[str, str] = {}
    current: str | None = None
    buffer: list[str] = []

    def flush():
        if current is not None:
            sql = "\n".join(buffer).strip().rstrip(";").strip()
            if sql:
                queries[current] = sql

    for line in text.splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("-- name:"):
            flush()
            current = stripped.split(":", 1)[1].strip()
            buffer = []
        elif current is not None:
            buffer.append(line)
    flush()
    return queries


def _run_workload(schema, config, args) -> int:
    import os

    from repro.engine.export import to_insert_script
    from repro.testing.workload import generate_workload

    with open(args.query) as handle:
        queries = parse_workload_file(handle.read())
    if not queries:
        print("error: no '-- name:' sections found", file=sys.stderr)
        return 1
    suite = generate_workload(
        schema,
        queries,
        config,
        workers=max(1, args.workers),
        backend=None if args.backend == "engine" else args.backend,
        cross_check=args.cross_check,
        subplan_cache=not args.no_subplan_cache,
    )
    print(suite.summary())
    if args.trace or args.metrics:
        for entry in suite.entries:
            if entry.suite is None:
                continue
            print(f"\n== {entry.name} ==")
            _print_observability(entry.suite, args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for index, dataset in enumerate(suite.datasets):
            entry_index, _ = suite.provenance[index]
            label = list(queries)[entry_index]
            path = os.path.join(
                args.out, f"fixture_{index:02d}_{label}_{dataset.group}.sql"
            )
            with open(path, "w") as handle:
                handle.write(f"-- {dataset.purpose}\n")
                handle.write(to_insert_script(dataset.db) + "\n")
        print(f"{len(suite.datasets)} fixtures written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``xdata`` command; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve"]:
        from repro.service.server import main as serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["campaign"]:
        from repro.campaign.__main__ import main as campaign_main

        return campaign_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        schema, input_db = _load_schema(args)
        sql = _read_query(args)
        config = GenConfig(
            unfold=not args.no_unfold,
            input_db=input_db,
            trace_constraints=getattr(args, "show_constraints", False),
            spec_deadline_s=args.deadline,
            retries=max(0, args.retries),
            fail_fast=args.fail_fast,
            trace=args.trace,
            metrics=args.metrics,
            journal_path=args.journal,
        )
        if args.command == "mutants":
            space = enumerate_mutants(
                sql, schema, include_full_outer=args.full_outer
            )
            for mutant in space.mutants:
                print(mutant)
            print(f"total: {len(space)} mutants")
            return 0
        if args.command == "workload":
            return _run_workload(schema, config, args)
        generator = XDataGenerator(schema, config)
        suite = generator.generate(sql)
        if args.command == "export":
            import os

            from repro.engine.export import to_insert_script

            os.makedirs(args.out, exist_ok=True)
            for index, dataset in enumerate(suite.datasets):
                path = os.path.join(
                    args.out, f"dataset_{index:02d}_{dataset.group}.sql"
                )
                with open(path, "w") as handle:
                    handle.write(f"-- {dataset.purpose}\n")
                    handle.write(to_insert_script(dataset.db) + "\n")
                print(f"wrote {path}")
            print(f"{len(suite.datasets)} datasets exported to {args.out}")
            _print_observability(suite, args)
            return 0
        if args.command == "generate":
            print(format_suite(suite))
            print()
            for dataset in suite.datasets:
                print(dataset.pretty())
                if dataset.constraints_cvc:
                    print("-- constraints:")
                    print(dataset.constraints_cvc)
                print()
            _print_observability(suite, args)
            return 0
        # evaluate
        space = enumerate_mutants(
            suite.analyzed, include_full_outer=args.full_outer
        )
        from repro.testing.killcheck import KillCheckConfig

        report = evaluate_suite(
            space,
            suite.databases,
            backend=None if args.backend == "engine" else args.backend,
            cross_check=args.cross_check,
            config=(
                KillCheckConfig.uncached()
                if args.no_subplan_cache
                else KillCheckConfig()
            ),
        )
        if report.cache_stats is not None:
            from repro.api import _reconcile_cache_stats

            _reconcile_cache_stats(suite, report.cache_stats)
        print(format_suite(suite))
        print()
        print(format_kill_report(report))
        if args.minimize:
            from repro.testing import minimize_suite

            result = minimize_suite(suite, space)
            print(
                f"minimized suite: {result.kept_count} of "
                f"{len(suite.datasets)} datasets retained"
            )
            for dataset, reason in result.dropped:
                print(f"  dropped [{dataset.group}] {dataset.target}: {reason}")
        survivors = report.survivors
        if survivors:
            classification = classify_survivors(
                space, survivors, trials=args.trials
            )
            print(
                f"survivors likely equivalent: "
                f"{len(classification.likely_equivalent)}; "
                f"missed (non-equivalent!): {len(classification.missed)}"
            )
            for miss in classification.missed:
                print(f"  MISSED: {miss.mutant}")
        _print_observability(suite, args)
        return 0
    except XDataError as exc:
        from repro.backends import BackendDisagreement

        if isinstance(exc, BackendDisagreement):
            print(f"error: {exc}", file=sys.stderr)
            print(exc.detail(), file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # 128 + SIGINT, the shell's convention for a command ended by ^C.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
