"""Kill-check benchmark: batched subplan cache vs full re-execution.

Measures the engine kill check — execute the original plan and every
mutant over every dataset, compare result signatures — for the Table
I/II university workload on two arms:

* **cached** — the default batched path (DESIGN.md §5g): mutants walk
  each dataset in fingerprint-sorted order over a shared
  :class:`~repro.engine.subplan.SubplanCache`;
* **uncached** — the reference arm (``KillCheckConfig.uncached()``):
  every mutant tree re-executed from scratch, in the same order and
  with the same row-count / raw-bag short cut in front of the
  canonical signature comparison — so the two arms differ only in
  the subplan cache.

Both arms must produce byte-identical kill matrices; the benchmark
fails loudly if they do not (``kill_matrices_identical`` is asserted,
not just recorded).  Each job's datasets include the bundled sample
instance alongside the generated suite so the join inputs span the
workload's realistic row counts, not only the minimal generated ones.

Results are written to ``BENCH_killcheck.json`` at the repository root,
including per-arm times, mutant-executions-per-second throughput, the
cached arm's cache traffic, and the speedup ratio.

Run:  PYTHONPATH=src python benchmarks/bench_killcheck.py [--quick]

``--quick`` (the CI smoke mode) runs fewer rounds; the identity
assertion and the JSON artefact are the same.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from repro.core.generator import XDataGenerator
from repro.datasets.university import (
    UNIVERSITY_QUERIES,
    university_sample_database,
    university_schema,
)
from repro.mutation.space import enumerate_mutants
from repro.testing.killcheck import KillCheckConfig, evaluate_suite

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_killcheck.json")

ARMS = {
    "cached": KillCheckConfig(),
    "uncached": KillCheckConfig.uncached(),
}


def build_workload():
    """Generated suite + sample instance + mutation space per query."""
    schema = university_schema()
    sample = university_sample_database(schema)
    jobs = []
    for name, info in UNIVERSITY_QUERIES.items():
        suite = XDataGenerator(schema).generate(info["sql"])
        space = enumerate_mutants(suite.analyzed, include_full_outer=True)
        jobs.append((name, space, suite.databases + [sample]))
    return jobs


def run_arm(jobs, config):
    """(kill matrix, aggregated cache stats) for one arm over the workload."""
    matrix = []
    stats = {"hits": 0, "misses": 0, "bytes": 0}
    for _, space, databases in jobs:
        report = evaluate_suite(space, databases, config=config)
        matrix.append([outcome.killed_by for outcome in report.outcomes])
        if report.cache_stats is not None:
            for key in ("hits", "misses", "bytes"):
                stats[key] += report.cache_stats[key]
    total = stats["hits"] + stats["misses"]
    stats["hit_rate"] = round(stats["hits"] / total, 4) if total else 0.0
    return matrix, stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: fewer timing rounds, same assertions",
    )
    args = parser.parse_args()
    rounds = 2 if args.quick else 5

    jobs = build_workload()
    mutants = sum(len(space.mutants) for _, space, _ in jobs)
    datasets = sum(len(dbs) for _, _, dbs in jobs)
    executions = sum(
        (len(space.mutants) + 1) * len(dbs) for _, space, dbs in jobs
    )

    matrices = {}
    cache_stats = {}
    for name, config in ARMS.items():
        matrices[name], cache_stats[name] = run_arm(jobs, config)
    identical = matrices["cached"] == matrices["uncached"]
    if not identical:
        raise SystemExit("kill matrices differ between cached and uncached!")

    times = {name: [] for name in ARMS}
    for _ in range(rounds):
        for name, config in ARMS.items():
            start = time.perf_counter()
            run_arm(jobs, config)
            times[name].append(round(time.perf_counter() - start, 4))

    cached_best = min(times["cached"])
    uncached_best = min(times["uncached"])
    speedup = round(uncached_best / cached_best, 2)
    result = {
        "benchmark": "kill-check throughput: batched subplan cache vs uncached",
        "quick": args.quick,
        "workload": {
            "description": (
                "Table I/II university queries, full mutation space "
                "(full outer included), generated suites + sample instance"
            ),
            "queries": len(jobs),
            "mutants": mutants,
            "datasets": datasets,
            "executions_per_round": executions,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "arms": {
            name: {
                "times_s": times[name],
                "best_s": min(times[name]),
                "throughput_exec_per_s": round(executions / min(times[name]), 1),
            }
            for name in ARMS
        },
        "cache": cache_stats["cached"],
        "speedup": speedup,
        "kill_matrices_identical": identical,
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    for name in ARMS:
        print(
            f"{name:9s} best {min(times[name]):.3f}s "
            f"({result['arms'][name]['throughput_exec_per_s']:.0f} exec/s)"
        )
    print(
        f"speedup {speedup}x, cache hit rate "
        f"{cache_stats['cached']['hit_rate']:.0%}"
    )
    print(f"wrote {os.path.normpath(OUT_PATH)}")


if __name__ == "__main__":
    main()
