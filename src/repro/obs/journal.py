"""The JSON-lines run journal (DESIGN.md §5e).

A journal is the forensic record of one or more ``generate()`` runs:
one JSON object per line, flushed as it is written, so a crashed or
deadline-killed run leaves every event up to the failure on disk.

Event schema (``schema`` names the journal format version):

* ``{"event": "run_start", "v": 1, "ts": <unix>, "sql": <str|null>}``
  — opens a run.
* ``{"event": "span", "name": ..., "path": "generate/solve/attempt",
  "status": ..., "elapsed_s": ..., "start_s": ..., "attrs": {...}}``
  — one per span *close*, children before parents; ``path`` is the
  ``/``-joined span names from the root.  Every derived spec appears as
  a ``solve`` span whose status is ``completed``, ``skipped:<reason>``
  or ``killed-by-deadline`` (the suite budget expired before the spec
  was ever attempted).
* ``{"event": "run_end", "ts": ..., "elapsed_s": ..., "ok": <bool>,
  "health": {...}, "metrics": {...}}`` — closes a run normally.
* ``{"event": "run_abort", "ts": ..., "error": "<Type>: <message>"}``
  — closes a run that raised (``fail_fast`` aborts land here).

The differential fuzzing campaign (DESIGN.md §5i) appends its own event
family into the same format: ``campaign_start`` / ``campaign_round`` /
``campaign_checkpoint`` / ``campaign_end``.  A ``campaign_checkpoint``
carries a round's results and is the campaign's commit point, so it is
the one event kind fsync'd before :meth:`JournalWriter.event` returns;
every other event is only flushed.  A ``campaign_start`` implicitly
closes any open campaign, because a SIGKILLed campaign leaves no
``campaign_end`` and the resumed run appends to the same journal.

The journal is append-only: successive runs (a workload's per-query
``generate()`` calls) concatenate into one file.  :func:`validate_journal`
checks both line-level well-formedness and run-level structure, and
``python -m repro.obs.journal PATH`` runs it from the command line (the
CI smoke step's checker).
"""

from __future__ import annotations

import json
import os
import time

__all__ = ["JournalWriter", "validate_journal", "JournalError"]

#: Journal format version, stamped on every ``run_start`` event.
SCHEMA_VERSION = 1

#: Event kinds and the keys each requires (beyond ``event`` itself).
_REQUIRED_KEYS = {
    "run_start": ("v", "ts", "sql"),
    "span": ("name", "path", "status", "elapsed_s", "attrs"),
    "run_end": ("ts", "elapsed_s", "ok", "health"),
    "run_abort": ("ts", "error"),
    # -- campaign events (DESIGN.md §5i) -------------------------------
    "campaign_start": ("v", "ts", "seed", "cases", "resumed"),
    "campaign_round": ("round", "cases", "bugs", "executions"),
    "campaign_checkpoint": ("round", "next_case", "requeued", "cases"),
    "campaign_end": ("ts", "cases", "bugs", "ok"),
}

#: Campaign event kinds that must appear inside an open campaign.
_CAMPAIGN_KINDS = frozenset(
    k for k in _REQUIRED_KEYS if k.startswith("campaign_")
)


class JournalError(ValueError):
    """Raised by :func:`validate_journal` for a malformed journal."""


class JournalWriter:
    """Appends journal events to a JSON-lines file, flushing per event
    and fsyncing each ``campaign_checkpoint``."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def event(self, kind: str, **payload) -> None:
        record = {"event": kind, **payload}
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()
        if kind == "campaign_checkpoint":
            os.fsync(self._handle.fileno())

    def run_start(self, sql: str | None) -> None:
        self.event("run_start", v=SCHEMA_VERSION, ts=time.time(), sql=sql)

    def span_sink(self, record: dict, path: str) -> None:
        """A :class:`~repro.obs.trace.Tracer` sink: one event per close.

        Children are not inlined — each span in the tree emits its own
        event, linked by ``path``.
        """
        self.event(
            "span",
            name=record["name"],
            path=path,
            status=record["status"],
            elapsed_s=record["elapsed_s"],
            start_s=record.get("start_s", 0.0),
            attrs=record["attrs"],
        )

    def run_end(self, elapsed_s: float, ok: bool, health: dict,
                metrics: dict | None = None) -> None:
        self.event(
            "run_end", ts=time.time(), elapsed_s=round(elapsed_s, 6),
            ok=ok, health=health, metrics=metrics or {},
        )

    def run_abort(self, error: BaseException) -> None:
        self.event(
            "run_abort", ts=time.time(),
            error=f"{type(error).__name__}: {error}",
        )

    # -- campaign events (appended by repro.campaign.driver) -----------

    def campaign_start(self, seed: int, cases: int, resumed: bool,
                       **extra) -> None:
        self.event(
            "campaign_start", v=SCHEMA_VERSION, ts=time.time(),
            seed=seed, cases=cases, resumed=resumed, **extra,
        )

    def campaign_round(self, round: int, cases: int, bugs: int,
                       executions: int, **extra) -> None:
        self.event(
            "campaign_round", round=round, cases=cases, bugs=bugs,
            executions=executions, **extra,
        )

    def campaign_checkpoint(self, round: int, next_case: int,
                            requeued: int, cases: list) -> None:
        self.event(
            "campaign_checkpoint", round=round, next_case=next_case,
            requeued=requeued, cases=cases,
        )

    def campaign_end(self, cases: int, bugs: int, ok: bool,
                     **extra) -> None:
        self.event(
            "campaign_end", ts=time.time(), cases=cases, bugs=bugs,
            ok=ok, **extra,
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def validate_journal(source, require_complete: bool = True) -> list[dict]:
    """Parse and structurally validate a journal; return its events.

    Args:
        source: A file path, or an iterable of JSON-lines strings.
        require_complete: Also require run-level balance — every
            ``run_start`` matched by a ``run_end`` or ``run_abort``
            before end of file.  Pass ``False`` when inspecting the
            journal of a run that crashed outright (the whole point of
            the journal is that its prefix is still valid).

    Raises:
        JournalError: On the first malformed line or structural
            violation, naming the line number.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)

    events: list[dict] = []
    open_run = False
    open_campaign = False
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(f"line {number}: not valid JSON ({exc})")
        if not isinstance(event, dict):
            raise JournalError(f"line {number}: event is not an object")
        kind = event.get("event")
        if kind not in _REQUIRED_KEYS:
            raise JournalError(f"line {number}: unknown event kind {kind!r}")
        missing = [key for key in _REQUIRED_KEYS[kind] if key not in event]
        if missing:
            raise JournalError(
                f"line {number}: {kind} event missing keys {missing}"
            )
        if kind in _CAMPAIGN_KINDS:
            # ``campaign_start`` implicitly closes an open campaign: a
            # SIGKILL leaves no ``campaign_end``, and the resumed run
            # appends its own ``campaign_start`` to the same journal.
            if kind == "campaign_start":
                open_campaign = True
            elif not open_campaign:
                raise JournalError(
                    f"line {number}: {kind} event outside any campaign"
                )
            elif kind == "campaign_end":
                open_campaign = False
        elif kind == "run_start":
            if open_run:
                raise JournalError(
                    f"line {number}: run_start inside an open run"
                )
            open_run = True
        elif not open_run:
            raise JournalError(
                f"line {number}: {kind} event outside any run"
            )
        elif kind in ("run_end", "run_abort"):
            open_run = False
        if kind == "span":
            if not isinstance(event["attrs"], dict):
                raise JournalError(f"line {number}: span attrs not an object")
            if not isinstance(event["elapsed_s"], (int, float)) or (
                event["elapsed_s"] < 0
            ):
                raise JournalError(
                    f"line {number}: span elapsed_s not a non-negative number"
                )
        events.append(event)

    if not events:
        raise JournalError("journal contains no events")
    if require_complete and open_run:
        raise JournalError("journal ends inside an open run (no run_end)")
    if require_complete and open_campaign:
        raise JournalError(
            "journal ends inside an open campaign (no campaign_end)"
        )
    return events


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.journal PATH`` — validate a journal file."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.obs.journal",
        description="Validate a JSON-lines run journal.",
    )
    parser.add_argument("path", help="journal file to validate")
    parser.add_argument(
        "--allow-incomplete",
        action="store_true",
        help="accept a journal whose last run has no run_end "
        "(crash forensics)",
    )
    args = parser.parse_args(argv)
    try:
        events = validate_journal(
            args.path, require_complete=not args.allow_incomplete
        )
    except (OSError, JournalError) as exc:
        print(f"invalid journal: {exc}")
        return 1
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event["event"]] = kinds.get(event["event"], 0) + 1
    solves = [
        e for e in events
        if e["event"] == "span" and e["name"] == "solve"
    ]
    statuses: dict[str, int] = {}
    for event in solves:
        statuses[event["status"]] = statuses.get(event["status"], 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(f"valid journal: {len(events)} events ({summary})")
    if statuses:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
        print(f"solve spans: {detail}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
