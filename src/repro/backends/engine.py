"""The in-process reference engine as a :class:`Backend`."""

from __future__ import annotations

import weakref

from repro.backends.base import BackendCapabilities
from repro.engine.database import Database
from repro.engine.executor import execute_plan
from repro.engine.plan import PlanNode
from repro.engine.relation import Relation
from repro.engine.subplan import SubplanCache


class EngineBackend:
    """Wraps :func:`repro.engine.executor.execute_plan`.

    The handle is the :class:`Database` itself — the engine executes
    plans over in-memory relations directly.  ``load`` validates
    integrity so both backends reject inconsistent instances the same
    way (SQLite enforces PK/FK/NOT NULL declaratively).  It validates
    each :class:`Database` object once: the backend remembers, weakly
    and by identity, the instances it has validated, so the oracles of
    one campaign case that all load the same datasets pay for one
    integrity check each.  The contract is that a loaded ``Database``
    is not mutated afterwards — dataset evolution and minimization
    edit fresh copies, which are validated on their own first load.

    ``subplan_cache`` (optional, settable after construction) threads a
    shared :class:`~repro.engine.subplan.SubplanCache` into every
    ``execute`` call so a batched kill check shares unchanged subtree
    computations across its mutant set (DESIGN.md §5g).  The caller
    owns the cache lifecycle — the kill-check loop drops each dataset's
    entries when its batch completes.
    """

    name = "engine"

    def __init__(self, subplan_cache: SubplanCache | None = None):
        self.subplan_cache = subplan_cache
        self._validated: weakref.WeakSet[Database] = weakref.WeakSet()

    def __reduce__(self):
        # A WeakSet does not pickle; a copy starts with nothing validated.
        return type(self), (self.subplan_cache,)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities()

    def load(self, db: Database) -> Database:
        if db not in self._validated:
            db.validate()
            self._validated.add(db)
        return db

    def execute(self, handle: Database, plan: PlanNode) -> Relation:
        return execute_plan(plan, handle, self.subplan_cache)

    def close(self, handle: Database) -> None:
        pass
