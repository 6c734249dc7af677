"""Recorded golden digests of generated suites: the solver's output reference.

Every solve is a delta over a skeleton (DESIGN.md §5j), so there is no
second preprocessing path left to compare against.  The reference
is instead a JSON file of sha-256 digests recorded before the base-less
path was deleted (``tests/solver_golden.json``):

* ``table12``: each Table I/II job (query x foreign-key variant) under
  four configuration mixes — the defaults, join-condition datasets,
  the lazy ``unfold=False`` mode and input-database mode — as the digest
  of ``repr(suite_fingerprint(suite))`` and of the suite's kill matrix;
* ``corpus``: seeds 0-1999 of the conformance grammar over the
  university schema, as the suite digest (seeds 0-199 also with the kill
  matrix digest), or the error type of a seed whose query is refused;
* ``cli_export``: the sha-256 of each file ``xdata export`` writes for
  :data:`CLI_EXPORT_QUERY`.

Any change to a generated byte fails the tests that read this file, so a
change that *means* to alter datasets must re-record it and say why::

    PYTHONPATH=src python -m tests.golden --out tests/solver_golden.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.core.generator import GenConfig, XDataGenerator
from repro.datasets import university_sample_database, university_schema
from repro.errors import GenerationError, UnsupportedSqlError
from repro.memo import clear_process_memos
from repro.mutation import enumerate_mutants
from repro.testing import sample_conformance_query
from repro.testing.killcheck import evaluate_suite
from tests.workload import suite_fingerprint, table12_labelled_jobs

GOLDEN_PATH = Path(__file__).with_name("solver_golden.json")

#: The query the CI ``export`` step writes and checks against
#: ``cli_export``.
CLI_EXPORT_QUERY = (
    "SELECT i.name FROM instructor i, teaches t WHERE i.id = t.id"
)

#: Seeds whose kill matrices are recorded too (the tier-1 corpus).
KILL_MATRIX_SEEDS = 200
CORPUS_SEEDS = 2000

#: Configuration mixes of the Table I/II record, by name.
MIXES = ("default", "join_conditions", "no_unfold", "input_db")


def mix_config(mix: str, schema) -> GenConfig:
    if mix == "default":
        return GenConfig()
    if mix == "join_conditions":
        return GenConfig(include_join_condition_datasets=True)
    if mix == "no_unfold":
        return GenConfig(unfold=False)
    if mix == "input_db":
        return GenConfig(input_db=university_sample_database(schema))
    raise ValueError(f"unknown configuration mix {mix!r}")


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def kill_matrix(suite):
    """Every (mutant, dataset) verdict of a suite, in order."""
    space = enumerate_mutants(suite.analyzed)
    report = evaluate_suite(space, suite.databases)
    return [(o.mutant.description, o.killed_by) for o in report.outcomes]


def suite_digests(suite, with_kill_matrix: bool = True) -> dict:
    entry = {"suite": digest(suite_fingerprint(suite))}
    if with_kill_matrix:
        entry["kill_matrix"] = digest(kill_matrix(suite))
    return entry


def table12_digests(mix: str, with_kill_matrix: bool = True) -> dict:
    return {
        label: suite_digests(
            XDataGenerator(schema, mix_config(mix, schema)).generate(sql),
            with_kill_matrix,
        )
        for label, schema, sql in table12_labelled_jobs()
    }


def corpus_entry(seed: int, schema, with_kill_matrix: bool) -> dict:
    sql = sample_conformance_query(random.Random(seed), schema)
    try:
        suite = XDataGenerator(schema, GenConfig()).generate(sql)
    except (GenerationError, UnsupportedSqlError) as exc:
        # Documented pipeline restrictions and the open dangling-FK
        # defect: the sampler overshoots the supported class a little.
        return {"error": type(exc).__name__}
    return suite_digests(suite, with_kill_matrix)


def corpus_digests(seeds) -> dict:
    schema = university_schema()
    return {
        str(seed): corpus_entry(seed, schema, seed < KILL_MATRIX_SEEDS)
        for seed in seeds
    }


def export_digests(src: str) -> dict:
    """sha-256 of every file ``xdata export --university`` writes for
    :data:`CLI_EXPORT_QUERY`, by path relative to the output directory."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "export", "--university",
             "--out", out, CLI_EXPORT_QUERY],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        return {
            str(path.relative_to(out)): hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
            for path in sorted(Path(out).rglob("*"))
            if path.is_file()
        }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument(
        "--src", default="src", help="source root the CLI export runs from"
    )
    args = parser.parse_args(argv)
    clear_process_memos()
    golden = {
        "table12": {mix: table12_digests(mix) for mix in MIXES},
        "corpus": corpus_digests(range(CORPUS_SEEDS)),
        "cli_export": export_digests(args.src),
    }
    Path(args.out).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
