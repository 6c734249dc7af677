"""Campaign state as a fold over the journal (DESIGN.md §5i).

The campaign's one durable state is its journal.  After each round the
driver appends one ``campaign_checkpoint`` record, fsync'd before the
round is applied: the round's results, one entry per case in index
order (SQL, executions, checks, skip reason, and the bug — in full the
first time its fingerprint is seen, by fingerprint after that), plus
the round's requeue count.  A campaign's state is then a fold of two
functions over the records committed since its last non-resumed
``campaign_start``:

* :func:`draw` picks parents, evolves children, admits novel ones and
  materialises the round's tasks.  It is a pure function of the state,
  so :func:`replay` redraws the identical tasks, and refuses a journal
  whose redrawn SQL differs from the logged SQL;
* :func:`apply` folds a record's results into counters and bugs.

``campaign_start`` records the knobs that decide the draw stream
(:data:`DRAW_KNOBS`).  :func:`load_checkpoint` replays a journal
read-only; the driver's resume replays it the same way, after cutting
off a torn last line.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass, field

from repro.campaign.bugs import BugRecord
from repro.campaign.case import CaseResult, CaseTask
from repro.campaign.corpus import Corpus
from repro.campaign.oracles import ORACLES
from repro.datasets.university import university_schema
from repro.mutation.evolve import evolve_query
from repro.testing.conformance import sample_conformance_query

__all__ = [
    "CampaignConfig",
    "CampaignState",
    "DRAW_KNOBS",
    "apply",
    "draw",
    "fresh_state",
    "load_checkpoint",
    "read_journal",
    "replay",
    "round_record",
]


@dataclass
class CampaignConfig:
    """Knobs for one campaign run (all deterministic given ``seed``)."""

    dir: str
    seed: int = 0
    #: Total case budget; the campaign stops when ``next_case`` hits it.
    cases: int = 64
    #: Cases drawn, executed and committed per round.  Also the
    #: backpressure bound on the pending queue.
    round_size: int = 8
    workers: int = 2
    #: Hang watchdog: seconds an inflight case may run before the pool
    #: is killed and all inflight cases are struck and requeued.
    case_deadline: float = 120.0
    #: Strikes before a task is recorded as an infrastructure skip.
    max_strikes: int = 2
    oracles: tuple[str, ...] = tuple(ORACLES)
    #: Founding population size (seed queries from the conformance
    #: grammar).
    seed_corpus: int = 8
    corpus_max: int = 256
    #: Probability that a drawn case evolves its parent (vs re-testing
    #: the parent unchanged against fresh oracle schedules).
    evolve_probability: float = 0.75
    #: Probability a case adds row-dropped dataset variants.
    dataset_drop_probability: float = 0.5
    #: Row-drop rate within an evolved dataset variant.
    dataset_drop: float = 0.35

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


#: The :class:`CampaignConfig` fields that decide the draw stream.
#: ``campaign_start`` records them and a resume must match every one.
DRAW_KNOBS = (
    "seed",
    "seed_corpus",
    "corpus_max",
    "evolve_probability",
    "dataset_drop_probability",
    "dataset_drop",
)

_STATS = (
    "cases",
    "executions",
    "checks",
    "bugs",
    "rediscoveries",
    "requeued",
    "skipped",
    "admitted",
)


@dataclass
class CampaignState:
    """Everything a round reads and writes; :func:`replay` rebuilds it."""

    rng: random.Random
    corpus: Corpus
    next_case: int = 0
    round: int = 0
    stats: dict = field(default_factory=lambda: dict.fromkeys(_STATS, 0))
    bugs: dict[str, BugRecord] = field(default_factory=dict)


def fresh_state(config: CampaignConfig) -> CampaignState:
    """The state before round 1: a founding corpus of grammar queries."""
    rng = random.Random(config.seed)
    corpus = Corpus(max_size=config.corpus_max)
    schema = university_schema()
    attempts = 0
    while (
        len(corpus) < config.seed_corpus
        and attempts < config.seed_corpus * 10
    ):
        sql = sample_conformance_query(rng, schema)
        corpus.admit(sql, origin=len(corpus), generation=0)
        attempts += 1
    return CampaignState(rng, corpus)


def draw(
    state: CampaignState, config: CampaignConfig, count: int
) -> list[CaseTask]:
    """Materialise the next ``count`` tasks (a pure function of state)."""
    rng = state.rng
    tasks: list[CaseTask] = []
    for offset in range(count):
        index = state.next_case + offset
        parent = state.corpus.pick_parent(rng)
        parent.trials += 1
        sql = parent.sql
        if rng.random() < config.evolve_probability:
            evolved = evolve_query(rng, parent.sql)
            if evolved is not None:
                sql, _applied = evolved
                if state.corpus.admit(
                    sql, parent.origin, parent.generation + 1
                ):
                    state.stats["admitted"] += 1
        drop = (
            config.dataset_drop
            if rng.random() < config.dataset_drop_probability
            else 0.0
        )
        tasks.append(
            CaseTask(
                index=index,
                sql=sql,
                oracles=config.oracles,
                force_join_rewrites=bool(index % 2),
                dataset_drop=drop,
                drop_seed=rng.randrange(2**31),
            )
        )
    return tasks


def round_record(
    state: CampaignState, results: list[CaseResult], requeued: int
) -> dict:
    """The ``campaign_checkpoint`` payload of one executed round.

    ``results`` are in case-index order.  A bug goes in full the first
    time its fingerprint is seen and by fingerprint after that.  No
    wall-clock field: two runs' records compare byte for byte.
    """
    seen: set[str] = set()  # fingerprints first found this round
    cases = []
    for result in results:
        entry = {
            "sql": result.sql,
            "executions": result.executions,
            "checks": result.checks,
            "skipped": result.skipped,
        }
        bug = result.bug
        if bug is not None:
            known = bug.fingerprint in state.bugs or bug.fingerprint in seen
            entry["bug"] = bug.fingerprint if known else asdict(bug)
            seen.add(bug.fingerprint)
        cases.append(entry)
    return {
        "round": state.round + 1,
        "next_case": state.next_case + len(cases),
        "requeued": requeued,
        "cases": cases,
    }


def apply(state: CampaignState, record: dict) -> None:
    """Fold one round's record into ``state`` in case-index order."""
    stats = state.stats
    for offset, case in enumerate(record["cases"]):
        stats["cases"] += 1
        stats["executions"] += case["executions"]
        stats["checks"] += case["checks"]
        if case["skipped"] is not None:
            stats["skipped"] += 1
        bug = case.get("bug")
        if isinstance(bug, str):
            stats["rediscoveries"] += 1
            state.bugs[bug].hits += 1
        elif bug is not None:
            stats["bugs"] += 1
            state.bugs[bug["fingerprint"]] = BugRecord(
                seed_case=state.next_case + offset, **bug
            )
    stats["requeued"] += record["requeued"]
    state.next_case += len(record["cases"])
    state.round += 1


def read_journal(path: str) -> tuple[dict | None, list[dict], int]:
    """The last non-resumed ``campaign_start`` of the journal at
    ``path``, the ``campaign_checkpoint`` records after it, and the
    byte length of the journal's complete lines.

    A last line without its newline is a torn append: it was never
    committed, so it is ignored.
    """
    start, records, committed = None, [], 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            committed += len(line)
            event = json.loads(line)
            if event["event"] == "campaign_start" and not event["resumed"]:
                start, records = event, []
            elif event["event"] == "campaign_checkpoint":
                records.append(event)
    return start, records, committed


def replay(config: CampaignConfig, records: list[dict]) -> CampaignState:
    """Rebuild a campaign's state by redrawing and applying each record."""
    state = fresh_state(config)
    for record in records:
        logged = [case["sql"] for case in record["cases"]]
        drawn = [task.sql for task in draw(state, config, len(logged))]
        if drawn != logged:
            raise ValueError(
                f"journal round {record['round']} does not replay: "
                f"drew {drawn}, logged {logged}"
            )
        apply(state, record)
    return state


def load_checkpoint(path: str) -> CampaignState:
    """The state committed in the campaign journal at ``path``."""
    start, records, _ = read_journal(path)
    if start is None:
        raise ValueError(f"{path} records no campaign_start")
    knobs = {name: start[name] for name in DRAW_KNOBS}
    config = CampaignConfig(dir=os.path.dirname(path), **knobs)
    return replay(config, records)
