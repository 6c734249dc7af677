"""XData: constraint-based test-data generation for killing SQL mutants.

A from-scratch Python reproduction of *"Generating Test Data for Killing
SQL Mutants: A Constraint-based Approach"* (Shah, Sudarshan et al., IIT
Bombay; the extended version of the ICDE 2010 short paper "X-Data").

Typical use — the :mod:`repro.api` facade (DESIGN.md §5e)::

    import repro

    run = repro.generate(open("schema.sql").read(),
                         "SELECT * FROM r, s WHERE r.a = s.a")
    for dataset in run.datasets:
        print(dataset.pretty())

    scored = repro.evaluate(schema, sql)
    print(f"killed {scored.killed} of {scored.total} mutants")

The building blocks (``XDataGenerator``, ``enumerate_mutants``,
``evaluate_suite``, ...) stay exported for callers that need finer
control over each pipeline stage.
"""

from repro.baseline import ShortPaperGenerator
from repro.core import (
    AnalyzedQuery,
    GenConfig,
    GeneratedDataset,
    SuiteHealth,
    TestSuite,
    XDataGenerator,
    analyze_query,
)
from repro.engine import Database, execute_plan, execute_query
from repro.errors import XDataError
from repro.mutation import Mutant, MutationSpace, enumerate_mutants
from repro.schema import Column, ForeignKey, Schema, SqlType, Table, parse_ddl
from repro.sql import parse_query, to_sql
from repro.core.assumptions import check_assumptions
from repro.core.decorrelate import decorrelate
from repro.engine.export import from_csv_map, to_csv_map, to_insert_script
from repro.testing import (
    classify_survivors,
    evaluate_suite,
    format_kill_report,
    format_suite,
    format_trace,
    minimize_suite,
    random_database,
)

# The facade (last: it builds on everything above).  Its
# generate_workload shadows repro.testing's — same signature, but it
# also accepts raw DDL text for the schema.
from repro import api
from repro.api import (
    EvalOptions,
    Evaluation,
    Run,
    Session,
    evaluate,
    fingerprint,
    generate,
    generate_workload,
)

__version__ = "1.0.0"

__all__ = [
    "api",
    "generate",
    "generate_workload",
    "evaluate",
    "fingerprint",
    "Run",
    "Evaluation",
    "EvalOptions",
    "Session",
    "SuiteHealth",
    "XDataGenerator",
    "GenConfig",
    "TestSuite",
    "GeneratedDataset",
    "AnalyzedQuery",
    "analyze_query",
    "parse_query",
    "to_sql",
    "parse_ddl",
    "Schema",
    "Table",
    "Column",
    "ForeignKey",
    "SqlType",
    "Database",
    "execute_query",
    "execute_plan",
    "enumerate_mutants",
    "MutationSpace",
    "Mutant",
    "evaluate_suite",
    "classify_survivors",
    "random_database",
    "format_kill_report",
    "format_suite",
    "format_trace",
    "ShortPaperGenerator",
    "XDataError",
    "minimize_suite",
    "check_assumptions",
    "decorrelate",
    "to_insert_script",
    "to_csv_map",
    "from_csv_map",
    "__version__",
]
