"""The campaign driver: crash-safe round-based differential fuzzing.

The driver turns the one-shot conformance harness into a long-running
campaign (DESIGN.md §5i).  Work is organised into *rounds*:

1. **Draw** — pick parents from the corpus, evolve children
   (:func:`repro.mutation.evolve.evolve_query`), admit novel children,
   and materialise one :class:`CaseTask` per case
   (:func:`repro.campaign.checkpoint.draw`).  Every draw is a
   deterministic function of the state, so a replayed round re-creates
   the identical task list.
2. **Execute** — fan the tasks over a :class:`SupervisedPool` with
   backpressure (inflight ≤ workers, pending ≤ round size — the queue
   can never outgrow memory).  A hang watchdog kills the pool when the
   oldest inflight case exceeds its deadline; worker crashes surface as
   broken futures.  Either way every inflight task takes a *strike*
   and is requeued (crashes cannot be attributed to a single inflight
   case); tasks striking out are recorded as infrastructure skips so
   one poisonous query cannot wedge the campaign.
3. **Commit** — the round's results, in case-index order (never
   completion order), become one ``campaign_checkpoint`` record,
   appended to the journal and fsync'd.  This is the campaign's one
   durable write per round.  SIGKILL at any instant loses at most the
   round in flight; ``resume=True`` replays the committed records
   (:func:`repro.campaign.checkpoint.replay`) and continues
   bit-identically.
4. **Apply** — the record is folded into the state
   (:func:`repro.campaign.checkpoint.apply`), the same fold a resume
   runs, so counters, bug dedup and corpus accounting are identical no
   matter how the pool interleaved or where a crash fell.

``bugs.jsonl`` and ``report.json`` are views written once when the run
ends.  SIGINT/SIGTERM request a *graceful drain*: the current round
finishes and commits, and the journal records a clean ``campaign_end``
with ``ok=False`` (interrupted, resumable).
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

from repro.campaign.bugs import write_bugs
from repro.campaign.case import CaseResult, CaseTask, run_case
from repro.campaign.checkpoint import (
    DRAW_KNOBS,
    CampaignConfig,
    CampaignState,
    apply,
    draw,
    fresh_state,
    read_journal,
    replay,
    round_record,
)
from repro.core.parallel import SupervisedPool
from repro.obs import JournalWriter, Metrics

__all__ = ["CampaignConfig", "CampaignDriver", "CHECKPOINT", "BUGS", "JOURNAL"]

BUGS = "bugs.jsonl"
JOURNAL = "journal.jsonl"
#: The journal is the checkpoint: :func:`load_checkpoint` replays it.
CHECKPOINT = JOURNAL
REPORT = "report.json"


@dataclass
class _RoundOutcome:
    results: list[CaseResult] = field(default_factory=list)
    requeued: int = 0


class CampaignDriver:
    """Runs (or resumes) one campaign in ``config.dir``."""

    def __init__(self, config: CampaignConfig, resume: bool = False):
        self.config = config
        self.resume = resume
        self.metrics = Metrics()
        self._stop_requested = False

    def _load_state(self) -> tuple[CampaignState, bool]:
        """The state to continue from, and whether it was resumed.

        The journal is read even for a fresh run, to cut off a torn
        last line before the writer appends after it.
        """
        path = self.config.path(JOURNAL)
        if not os.path.exists(path):
            return fresh_state(self.config), False
        start, records, committed = read_journal(path)
        os.truncate(path, committed)
        if not self.resume or start is None:
            return fresh_state(self.config), False
        for name in DRAW_KNOBS:
            if start.get(name) != getattr(self.config, name):
                raise ValueError(
                    f"journal {name} {start.get(name)!r} does not match "
                    f"{name}={getattr(self.config, name)!r}; refusing to "
                    "mix streams"
                )
        return replay(self.config, records), True

    # -- execution ------------------------------------------------------

    def _strike(
        self,
        task: CaseTask,
        strikes: dict[int, int],
        pending: deque,
        outcome: _RoundOutcome,
        results: dict[int, CaseResult],
        reason: str,
    ) -> None:
        strikes[task.index] += 1
        if strikes[task.index] > self.config.max_strikes:
            results[task.index] = CaseResult(
                task.index, task.sql,
                skipped=f"infrastructure: {reason} "
                f"(struck out after {strikes[task.index]} attempts)",
            )
        else:
            pending.append(task)
            outcome.requeued += 1
        self.metrics.inc("xdata_campaign_requeues_total")

    def _run_round(
        self, pool: SupervisedPool, tasks: list[CaseTask]
    ) -> _RoundOutcome:
        """Execute one round with crash recovery and the hang watchdog."""
        outcome = _RoundOutcome()
        pending: deque[CaseTask] = deque(tasks)
        strikes = {task.index: 0 for task in tasks}
        results: dict[int, CaseResult] = {}
        inflight: dict[object, tuple[CaseTask, float]] = {}
        while pending or inflight:
            # Backpressure: never more futures than workers; pending is
            # bounded by round_size + requeues ≤ 2 × round_size.
            while pending and len(inflight) < pool.workers:
                task = pending.popleft()
                inflight[pool.submit(run_case, task)] = (
                    task, time.monotonic(),
                )
            done, _ = wait(
                list(inflight), timeout=0.05, return_when=FIRST_COMPLETED
            )
            crashed = False
            for future in done:
                task, _started = inflight.pop(future)
                try:
                    results[task.index] = future.result()
                except Exception:
                    # A worker died (BrokenProcessPool / lost result).
                    # The whole pool is poisoned; strike every inflight
                    # task — the crash cannot be attributed to one.
                    crashed = True
                    self._strike(
                        task, strikes, pending, outcome, results,
                        "worker crash",
                    )
            now = time.monotonic()
            hung = inflight and any(
                now - started > self.config.case_deadline
                for _, started in inflight.values()
            )
            if crashed or hung:
                victims = [task for task, _ in inflight.values()]
                inflight.clear()
                pool.kill()
                reason = "worker crash" if crashed else "case deadline"
                if hung:
                    self.metrics.inc("xdata_campaign_watchdog_kills_total")
                for task in victims:
                    self._strike(
                        task, strikes, pending, outcome, results, reason
                    )
        outcome.results = [results[task.index] for task in tasks]
        return outcome

    def _count(self, results: list[CaseResult], new_bugs: int) -> None:
        """This process's metrics for one applied round."""
        for result in results:
            self.metrics.inc("xdata_campaign_cases_total")
            self.metrics.inc(
                "xdata_campaign_executions_total", result.executions
            )
            self.metrics.observe("xdata_campaign_case_seconds", result.elapsed)
        if new_bugs:
            self.metrics.inc("xdata_campaign_bugs_total", new_bugs)

    # -- lifecycle ------------------------------------------------------

    def _request_stop(self, signum, frame) -> None:
        self._stop_requested = True

    def run(self) -> dict:
        """Run until the case budget is spent or a signal drains us.
        Returns the report."""
        os.makedirs(self.config.dir, exist_ok=True)
        state, resumed = self._load_state()
        journal = JournalWriter(self.config.path(JOURNAL))
        started = time.monotonic()
        previous_handlers = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous_handlers[signum] = signal.signal(
                    signum, self._request_stop
                )
            except ValueError:  # non-main thread (tests): skip handlers
                previous_handlers.pop(signum, None)
        journal.campaign_start(
            cases=self.config.cases,
            resumed=resumed,
            next_case=state.next_case,
            **{name: getattr(self.config, name) for name in DRAW_KNOBS},
        )
        interrupted = False
        try:
            with SupervisedPool(self.config.workers) as pool:
                while state.next_case < self.config.cases:
                    if self._stop_requested:
                        interrupted = True
                        break
                    count = min(
                        self.config.round_size,
                        self.config.cases - state.next_case,
                    )
                    tasks = draw(state, self.config, count)
                    outcome = self._run_round(pool, tasks)
                    record = round_record(
                        state, outcome.results, outcome.requeued
                    )
                    new_bugs = sum(
                        isinstance(case.get("bug"), dict)
                        for case in record["cases"]
                    )
                    journal.campaign_round(
                        round=record["round"],
                        cases=len(tasks),
                        bugs=new_bugs,
                        executions=sum(
                            r.executions for r in outcome.results
                        ),
                        requeued=outcome.requeued,
                    )
                    # The commit point: fsync'd before it is applied.
                    journal.campaign_checkpoint(**record)
                    apply(state, record)
                    self._count(outcome.results, new_bugs)
            elapsed = time.monotonic() - started
            completed = state.next_case >= self.config.cases
            journal.campaign_end(
                cases=state.stats["cases"],
                bugs=len(state.bugs),
                ok=completed and not interrupted,
            )
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            journal.close()
        write_bugs(self.config.path(BUGS), state.bugs)
        self.metrics.gauge("xdata_campaign_corpus_size", len(state.corpus))
        report = {
            "seed": self.config.seed,
            "completed": completed,
            "interrupted": interrupted,
            "resumed": resumed,
            "rounds": state.round,
            "next_case": state.next_case,
            "corpus_size": len(state.corpus),
            "bugs": len(state.bugs),
            "stats": state.stats,
            "elapsed_s": round(elapsed, 3),
            "cases_per_s": round(state.stats["cases"] / elapsed, 3)
            if elapsed > 0
            else None,
            "metrics": self.metrics.snapshot(),
        }
        with open(self.config.path(REPORT), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return report
