"""Deterministic fault injection for the generation pipeline (test-only).

The fault-tolerance guarantees of the generator — budget skips, failure
isolation, pool degradation — are worthless untested, and their trigger
conditions (a pathological search, a segfaulting worker) are hard to
reproduce organically.  This module injects them on demand, keyed by
*spec index* (the position in ``XDataGenerator._derive_specs`` order,
which is deterministic for a given query/schema/config).

Configuration is environment-driven so faults reach worker processes:
the process pool forks workers, which inherit the parent's environment.

``XDATA_FAULTS`` — comma-separated ``<spec_index>:<kind>[:<arg>]``::

    XDATA_FAULTS="1:limit,3:crash,4:sleep:0.5,6:error:2"

Kinds (each fires at the solve point of the matching spec, i.e. once
per retry-ladder attempt):

* ``limit[:n]`` — raise :class:`~repro.errors.SolverLimitError` on the
  first ``n`` attempts of the spec (every attempt when ``n`` omitted).
  ``limit`` alone forces the full ladder to trip → a ``budget`` skip;
  ``limit:1`` trips only the first attempt → the escalation retry
  succeeds.
* ``error[:n]`` — raise ``RuntimeError`` likewise (unexpected-exception
  isolation → an ``error:RuntimeError`` skip).
* ``crash`` — hard-kill the current *worker* process (``os._exit``),
  breaking the process pool mid-batch.  In the parent process (no pool,
  or the sequential resume after a pool break) it degrades to a
  ``RuntimeError``: crashing the caller's interpreter is never useful
  in a test.
* ``sleep:<seconds>`` — artificial slowness (``time.sleep``) before the
  solve, for exercising map timeouts and deadlines.

``XDATA_FAULTS_LOG`` — a file path; every solve attempt appends a
``<pid>:<role>:<spec_index>`` line (role ``w`` in a pool worker, ``p``
in the parent), so tests can assert *where* each spec was solved — e.g.
that a pool break did not re-generate queries whose results had already
come back.  The log is written whenever the variable is set, even with no
faults configured.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.errors import SolverLimitError

FAULTS_ENV = "XDATA_FAULTS"
LOG_ENV = "XDATA_FAULTS_LOG"

#: Exit status used by the ``crash`` fault (distinctive in worker logs).
CRASH_EXIT_CODE = 3


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``kind`` plus its numeric argument."""

    kind: str
    arg: float = 0.0


def parse_plan(raw: str) -> dict[int, Fault]:
    """Parse an ``XDATA_FAULTS`` value into ``{spec_index: Fault}``.

    Raises ``ValueError`` on malformed entries — a silently ignored
    fault plan would make a test pass vacuously.
    """
    plan: dict[int, Fault] = {}
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) < 2:
            raise ValueError(f"malformed fault entry {entry!r}")
        index = int(parts[0])
        kind = parts[1]
        if kind not in ("limit", "error", "crash", "sleep"):
            raise ValueError(f"unknown fault kind {kind!r} in {entry!r}")
        if kind == "sleep" and len(parts) < 3:
            raise ValueError(f"sleep fault needs a duration: {entry!r}")
        arg = float(parts[2]) if len(parts) > 2 else 0.0
        plan[index] = Fault(kind, arg)
    return plan


#: Parsed-plan cache keyed by the raw env value (re-parsed on change so
#: tests can swap plans without touching module state).
_plan_cache: tuple[str, dict[int, Fault]] | None = None

#: Per-process count of solve attempts seen per spec index, for the
#: ``limit:n`` / ``error:n`` first-n-attempts forms.
_attempt_counts: dict[int, int] = {}


def reset() -> None:
    """Forget per-process attempt counts (between tests)."""
    _attempt_counts.clear()


def _active_plan() -> dict[int, Fault]:
    global _plan_cache
    raw = os.environ.get(FAULTS_ENV, "")
    if _plan_cache is None or _plan_cache[0] != raw:
        _plan_cache = (raw, parse_plan(raw))
    return _plan_cache[1]


def in_worker_process() -> bool:
    """True when running inside a multiprocessing worker."""
    return multiprocessing.parent_process() is not None


def _record(spec_index: int) -> None:
    path = os.environ.get(LOG_ENV)
    if not path:
        return
    role = "w" if in_worker_process() else "p"
    # O_APPEND keeps concurrent short writes from different processes
    # intact (one line per write).
    with open(path, "a") as handle:
        handle.write(f"{os.getpid()}:{role}:{spec_index}\n")


def fire(spec_index: int) -> None:
    """Trigger the configured fault for ``spec_index``, if any.

    Called by the generator at each solve attempt when either fault
    environment variable is set; a no-op for unlisted indices.
    """
    _record(spec_index)
    fault = _active_plan().get(spec_index)
    if fault is None:
        return
    attempt = _attempt_counts.get(spec_index, 0) + 1
    _attempt_counts[spec_index] = attempt
    if fault.kind in ("limit", "error") and fault.arg and attempt > fault.arg:
        return
    if fault.kind == "limit":
        raise SolverLimitError(
            f"injected budget trip at spec {spec_index} "
            f"(attempt {attempt})",
            kind="nodes", nodes=0, limit=0,
        )
    if fault.kind == "error":
        raise RuntimeError(
            f"injected fault at spec {spec_index} (attempt {attempt})"
        )
    if fault.kind == "crash":
        if in_worker_process():
            os._exit(CRASH_EXIT_CODE)
        raise RuntimeError(
            f"injected crash at spec {spec_index} (in-process)"
        )
    if fault.kind == "sleep":
        time.sleep(fault.arg)


def enabled() -> bool:
    """Cheap gate for callers: is any fault machinery configured?"""
    return bool(os.environ.get(FAULTS_ENV) or os.environ.get(LOG_ENV))
