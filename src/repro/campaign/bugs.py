"""Deduplicated bug triage for the campaign.

A campaign that runs for hours will rediscover the same logic bug
thousands of times — every corpus member descended from the triggering
query trips the same oracle.  Bugs are therefore keyed by a
*structural fingerprint* of the minimized repro: oracle name, plan
fingerprint, and the canonical row bags of the disagreeing results.
Two cases whose minimized repros share that triple are one bug.

The campaign journal is the bugs' durable record
(:mod:`repro.campaign.checkpoint`); ``bugs.jsonl`` is a view of it,
written whole by :func:`write_bugs` when a run ends, so a resume
rewrites it rather than appending to it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

__all__ = ["BugRecord", "bug_fingerprint", "write_bugs"]


def _canonical_rows(rows) -> list:
    """Rows as sorted JSON-able lists (NULL sorts as a sentinel string)."""
    return sorted(
        [["\0null" if v is None else v for v in row] for row in rows],
        key=repr,
    )


def bug_fingerprint(oracle: str, plan_fp: str, results: dict) -> str:
    """Stable structural identity of a minimized disagreement.

    ``results`` maps label -> list-of-rows (in practice: the tables of
    the minimized repro dataset).  Labels are excluded on purpose — the
    identity is (oracle, plan shape, minimized data content), which
    converges across rediscoveries of the same bug by descendant corpus
    members, while label strings vary with oracle internals.
    """
    payload = json.dumps(
        {
            "oracle": oracle,
            "plan": plan_fp,
            "bags": sorted(
                (_canonical_rows(rows) for rows in results.values()),
                key=repr,
            ),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


@dataclass
class BugRecord:
    """One deduplicated bug report."""

    fingerprint: str
    oracle: str
    context: str
    sql: str
    seed_case: int
    minimized_dataset: dict
    results: dict
    #: How many cases rediscovered this bug (first find included).
    hits: int = 1


def write_bugs(path: str, bugs: dict[str, BugRecord]) -> None:
    """Write the ``bugs.jsonl`` view: one line per bug, by fingerprint."""
    with open(path, "w", encoding="utf-8") as fh:
        for fingerprint in sorted(bugs):
            record = asdict(bugs[fingerprint])
            fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
