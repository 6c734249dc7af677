"""Parallel pipeline benchmark: full compile vs delta solving at workers=4.

Measures wall-clock for generating complete mutant-killing test suites
over the multi-query workload (every Table I/II university query, each
at every Table I foreign-key variant, at full mutation coverage), two
ways:

* **workers=4** — the pipeline with delta solving pinned *off*
  (``SearchConfig(delta_solve=False)``, the full-compile reference
  arm): the whole workload dispatched as one batch through the shared
  process pool with ``workers=4``.  The pool is sized to the machine
  (``min(workers, cpu_count)``); when only one CPU is available the
  batch legitimately runs in-process, so the arm says nothing about
  multi-core scaling on such hosts.
* **delta** — the same pipeline with delta solving on (the default):
  each query's shared PK/FK/domain constraint system is compiled once
  into a skeleton (DESIGN.md §5j), sibling kill groups
  solve as incremental deltas against it, and the process-level
  skeleton/declaration stores carry the compiled state across repeat
  rounds of the same request — the repeat-request shape a generation
  service sees.

Both arms must produce byte-identical datasets; the benchmark fails
loudly if they do not.  Results are written to ``BENCH_parallel.json``
at the repository root.

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time

from repro.core.generator import GenConfig
from repro.core.parallel import effective_workers, generate_jobs_parallel
from repro.datasets.university import UNIVERSITY_QUERIES, schema_with_fks
from repro.solver.search import SearchConfig

ROUNDS = 7
WORKERS = 4
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_parallel.json")


def build_jobs():
    """The multi-query workload: (schema, sql) per query x FK variant."""
    schema_cache: dict[tuple, object] = {}
    jobs = []
    for name, info in UNIVERSITY_QUERIES.items():
        for fk_rows in info["fk_rows"]:
            key = tuple(fk_rows)
            if key not in schema_cache:
                schema_cache[key] = schema_with_fks(fk_rows)
            jobs.append((schema_cache[key], info["sql"]))
    return jobs, len(schema_cache)


def parallel_config() -> GenConfig:
    # delta_solve pinned off so the delta arm's speedup is attributable
    # to the skeleton pipeline alone.
    return GenConfig(
        include_join_condition_datasets=True,
        workers=WORKERS,
        solver=SearchConfig(delta_solve=False),
    )


def delta_config() -> GenConfig:
    return GenConfig(include_join_condition_datasets=True, workers=WORKERS)


def scripts_of(suites) -> list[str]:
    return [
        dataset.db.pretty(only_nonempty=False)
        for suite in suites
        for dataset in suite.datasets
    ]


def run_parallel(jobs, config):
    start = time.perf_counter()
    suites = generate_jobs_parallel(jobs, config, config.workers)
    return time.perf_counter() - start, suites


def stage_totals(suites) -> dict[str, float]:
    totals: dict[str, float] = {}
    for suite in suites:
        for stage, spent in suite.stage_times.items():
            totals[stage] = totals.get(stage, 0.0) + spent
    return {stage: round(spent, 4) for stage, spent in sorted(totals.items())}


def skeleton_totals(suites) -> dict[str, int]:
    totals: dict[str, int] = {}
    for suite in suites:
        for key, value in suite.health.skeleton_cache.items():
            if key == "hit_rate":
                continue
            totals[key] = totals.get(key, 0) + value
    return totals


def main() -> None:
    jobs, schema_count = build_jobs()
    par_cfg = parallel_config()
    delta_cfg = delta_config()

    # Warm-up round per arm: imports, schema templates, the process
    # pool, and (for the delta arm) the process-level skeleton and
    # declaration stores.
    _, par_suites = run_parallel(jobs, par_cfg)
    _, delta_suites = run_parallel(jobs, delta_cfg)

    par_scripts = scripts_of(par_suites)
    delta_scripts = scripts_of(delta_suites)
    identical = par_scripts == delta_scripts
    digest = hashlib.sha256(
        "\n".join(par_scripts).encode()
    ).hexdigest()[:16]

    par_times, delta_times = [], []
    par_stages = delta_stages = None
    delta_skeleton = None
    for _ in range(ROUNDS):
        elapsed, suites = run_parallel(jobs, par_cfg)
        par_times.append(elapsed)
        par_stages = stage_totals(suites)
        elapsed, suites = run_parallel(jobs, delta_cfg)
        delta_times.append(elapsed)
        delta_stages = stage_totals(suites)
        delta_skeleton = skeleton_totals(suites)

    par_best = min(par_times)
    delta_best = min(delta_times)
    result = {
        "benchmark": "parallel test-suite generation: full compile vs delta",
        "workload": {
            "description": (
                "Table I/II university queries x FK variants, full "
                "mutation coverage (join-condition datasets included)"
            ),
            "queries": len(UNIVERSITY_QUERIES),
            "jobs": len(jobs),
            "schemas": schema_count,
            "datasets": len(par_scripts),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "arms": {
            "workers=4": {
                "description": "full-compile pipeline batched through the shared pool, delta solving pinned off",
                "config": {
                    "workers": WORKERS,
                    "effective_workers": effective_workers(WORKERS, len(jobs)),
                    "delta_solve": False,
                },
                "times_s": [round(t, 4) for t in par_times],
                "best_s": round(par_best, 4),
                "stage_totals_s": par_stages,
            },
            "delta": {
                "description": "same pipeline + compile-once/delta-solve skeletons with warm process-level stores",
                "config": {
                    "workers": WORKERS,
                    "effective_workers": effective_workers(WORKERS, len(jobs)),
                    "delta_solve": True,
                },
                "times_s": [round(t, 4) for t in delta_times],
                "best_s": round(delta_best, 4),
                "stage_totals_s": delta_stages,
                "skeleton_cache": delta_skeleton,
                "speedup_vs_optimised": round(par_best / delta_best, 3),
            },
        },
        "byte_identical_datasets": identical,
        "datasets_sha256": digest,
    }

    out = os.path.abspath(OUT_PATH)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    print(json.dumps(result, indent=2))
    if not identical:
        raise SystemExit("FAIL: dataset mismatch between arms")
    print(f"\nwrote {out}: delta "
          f"{result['arms']['delta']['speedup_vs_optimised']}x vs full "
          f"compile ({delta_best:.3f}s vs {par_best:.3f}s, "
          f"workers={WORKERS})")


if __name__ == "__main__":
    main()
