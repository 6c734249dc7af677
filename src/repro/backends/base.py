"""The execution-backend protocol (DESIGN.md §5f).

A *backend* is anything that can load a generated :class:`Database` and
execute query plans over it.  The kill-checker is backend-agnostic: a
mutant is killed when original and mutant results differ *on the backend
under test*, and a second backend turns every kill decision into a
differential test of the engine itself (``cross_check``).

Backends are stateless objects; :meth:`Backend.load` returns an opaque
handle (the engine hands back the :class:`Database`, SQLite a
connection) that is passed to every :meth:`Backend.execute` call and
released with :meth:`Backend.close`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.engine.database import Database
from repro.engine.plan import PlanNode
from repro.engine.relation import Relation
from repro.errors import XDataError


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can execute natively.

    A missing capability does not necessarily make a query class
    unusable — the SQLite backend rewrites RIGHT (and, where possible,
    FULL) joins when the installed library predates native support —
    but :class:`BackendCapabilityError` is raised when no rewrite
    exists either.
    """

    right_join: bool = True
    full_join: bool = True
    natural_join: bool = True


class BackendError(XDataError):
    """Base class for backend-layer failures."""


class BackendCapabilityError(BackendError):
    """A plan needs a feature the backend lacks and cannot rewrite."""


class BackendDisagreement(BackendError):
    """Two backends returned different bags for the same (query, dataset).

    This is the structured artefact of ``cross_check`` mode: it carries
    everything needed to reproduce the split — the query (context string
    and SQL text), the dataset it was run on, and both result relations.
    ``minimized`` is filled in by the conformance harness when it manages
    to shrink the dataset while preserving the disagreement.

    Self-check oracles (``repro.campaign.oracles``) raise the same
    exception for single-backend splits — two semantically equivalent
    plans returning different bags — with ``oracle`` naming the oracle
    that vetoed and ``results`` keyed by plan label instead of backend
    name.

    Attributes:
        context: What was being executed ("original query" or a mutant
            description).
        sql: SQL text of the query, as rendered for the non-engine
            backend (empty when unavailable).
        dataset: The :class:`Database` both backends loaded.
        results: Backend name (or plan label) -> :class:`Relation`.
        oracle: Name of the oracle that raised ("cross-check" for the
            dual-execution checker).
        minimized: Optional shrunken dataset that still disagrees.
    """

    def __init__(
        self,
        context: str,
        sql: str,
        dataset: Database,
        results: dict[str, Relation],
        plan: PlanNode | None = None,
        oracle: str = "cross-check",
    ):
        names = " vs ".join(results)
        sizes = ", ".join(f"{n}: {len(r)} rows" for n, r in results.items())
        super().__init__(
            f"backends disagree ({names}) on {context}: {sizes}"
        )
        self.context = context
        self.sql = sql
        self.dataset = dataset
        self.results = results
        self.plan = plan
        self.oracle = oracle
        self.minimized: Database | None = None

    def detail(self) -> str:
        """Multi-line forensic rendering (dataset + both bags)."""
        lines = [str(self), f"oracle: {self.oracle}", f"sql: {self.sql}",
                 "dataset:"]
        lines.append(self.dataset.pretty())
        for name, relation in self.results.items():
            lines.append(f"{name} result ({', '.join(relation.columns)}):")
            for row in relation.rows:
                lines.append(f"  {row}")
        if self.minimized is not None:
            lines.append("minimized dataset:")
            lines.append(self.minimized.pretty())
        return "\n".join(lines)


@runtime_checkable
class Backend(Protocol):
    """Protocol every execution backend implements."""

    name: str

    def capabilities(self) -> BackendCapabilities:
        """Feature flags for this backend instance."""
        ...

    def load(self, db: Database):
        """Materialise ``db`` and return an opaque execution handle.

        Must raise :class:`~repro.errors.IntegrityError` when the
        instance violates the schema's PK/FK/NOT NULL constraints.
        """
        ...

    def execute(self, handle, plan: PlanNode) -> Relation:
        """Execute ``plan`` against a loaded handle."""
        ...

    def close(self, handle) -> None:
        """Release a handle returned by :meth:`load`."""
        ...


@dataclass
class CrossChecker:
    """Executes plans on a primary backend, optionally shadowed by a
    reference backend whose result must agree.

    Handles are cached per dataset (a kill-check runs every mutant over
    every dataset; each dataset is loaded once per backend).  Call
    :meth:`close` when done — or use it as a context manager.
    """

    primary: Backend
    reference: Backend | None = None
    _handles: dict = field(default_factory=dict, repr=False)

    def _handle(self, backend: Backend, db: Database):
        key = (backend.name, id(db))
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = backend.load(db)
        return handle

    def result(self, plan: PlanNode, db: Database, context: str = "query") -> Relation:
        """Primary backend's result; raises on reference disagreement."""
        return self._checked(plan, db, context)[0]

    def signature(self, plan: PlanNode, db: Database, context: str = "query"):
        """The :func:`result_signature` of :meth:`result`.

        Under a reference the comparison has already signed the
        primary's result, so that signature is returned as it is.
        """
        out, signature = self._checked(plan, db, context)
        if signature is None:
            from repro.testing.killcheck import result_signature

            signature = result_signature(out)
        return signature

    def _checked(self, plan: PlanNode, db: Database, context: str):
        """``(primary result, its signature or None)``: the signature is
        computed only when a reference has to be compared against it."""
        out = self.primary.execute(self._handle(self.primary, db), plan)
        if self.reference is None:
            return out, None
        ref = self.reference.execute(self._handle(self.reference, db), plan)
        from repro.testing.killcheck import result_signature

        signature = result_signature(out)
        if signature != result_signature(ref):
            raise BackendDisagreement(
                context,
                self._sql_of(plan),
                db,
                {self.primary.name: out, self.reference.name: ref},
                plan=plan,
            )
        return out, signature

    def _sql_of(self, plan: PlanNode) -> str:
        for backend in (self.primary, self.reference):
            sql_of = getattr(backend, "sql_of", None)
            if sql_of is not None:
                try:
                    return sql_of(plan)
                except XDataError:
                    continue
        return ""

    def release(self, db: Database) -> None:
        """Close both backends' handles for one dataset.

        The batched kill check loads each dataset once, runs its whole
        mutant batch, and releases the handles before moving on — so a
        large suite never holds more than one dataset's connections.
        """
        for key in [k for k in self._handles if k[1] == id(db)]:
            name = key[0]
            backend = (
                self.primary
                if self.primary.name == name
                else self.reference
            )
            if backend is not None:
                backend.close(self._handles.pop(key))

    def close(self) -> None:
        for (name, _), handle in self._handles.items():
            backend = (
                self.primary
                if self.primary.name == name
                else self.reference
            )
            if backend is not None:
                backend.close(handle)
        self._handles.clear()

    def __enter__(self) -> "CrossChecker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
