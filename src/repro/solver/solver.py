"""The :class:`Solver` facade.

Owns variable declarations, the string symbol table and the asserted
formula set; dispatches to :class:`~repro.solver.search.GroundSearch`
with or without quantifier unfolding (Section VI-B).  Every search is a
delta over a skeleton: a compiled one when the caller passes it, else
the trivial skeleton of the declared variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SolverError, UnsatisfiableError
from repro.solver.model import Model, SymbolTable
from repro.solver.search import GroundSearch, SearchConfig
from repro.solver.skeleton import trivial_skeleton
from repro.solver.terms import (
    Conj,
    Disj,
    Formula,
    Linear,
    Neg,
    Quantified,
    VarInfo,
)


@dataclass
class SolveStats:
    """Statistics from the last :meth:`Solver.solve` call."""

    satisfiable: bool
    nodes: int
    elapsed: float
    classes: int
    constraints: int
    unfolded: bool
    iterations: int = 1
    #: Stage split of ``elapsed`` (see :class:`SearchOutcome`): constraint
    #: preprocessing (unit propagation, rewriting, domain construction)
    #: vs. the backtracking search.  Summed over restarts in lazy mode.
    preprocess_time: float = 0.0
    search_time: float = 0.0
    #: Solver effort bookkeeping: the configured budgets and whether one
    #: tripped.  ``limit_hit`` is ``None`` on a completed solve, else the
    #: :attr:`SolverLimitError.kind` that aborted it (``"nodes"``,
    #: ``"deadline"`` or ``"restarts"``) — stats are recorded *before*
    #: the error propagates, so callers that catch it still see the
    #: effort spent.
    node_limit: int = 0
    deadline_s: float | None = None
    limit_hit: str | None = None
    #: Domain-aggregate memo traffic (see ``SearchOutcome``); summed over
    #: restarts in lazy mode.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock seconds the caller spent building/asserting this
    #: solve's formulas (set by the generator; amortized per-group
    #: share under delta solving — the skeleton compile is counted once
    #: per query shape, on the miss, not per group member).
    build_time: float = 0.0
    #: Delta-solve provenance: ``"hit"``/``"miss"`` when this solve ran
    #: against a compiled query skeleton from the generator's memo
    #: (DESIGN.md §5j), ``None`` when it ran over the trivial skeleton.
    skeleton: str | None = None


def unfold_formula(formula: Formula) -> Formula:
    """Recursively expand every bounded quantifier into ground form.

    Quantifier-free formulas are returned as-is (they unfold to an equal
    structure anyway), and the expansion of quantified ones is memoized
    on the node — formulas shared across solver instances, like the
    cached database-constraint sets, unfold once instead of once per
    solve.
    """
    if not _contains_quantifier(formula):
        return formula
    cached = formula.__dict__.get("_unfolded")
    if cached is not None:
        return cached
    if isinstance(formula, Quantified):
        expanded = tuple(unfold_formula(p) for p in formula.instances)
        result: Formula = (
            Conj(expanded) if formula.kind == "forall" else Disj(expanded)
        )
    elif isinstance(formula, Conj):
        result = Conj(tuple(unfold_formula(p) for p in formula.parts))
    elif isinstance(formula, Disj):
        result = Disj(tuple(unfold_formula(p) for p in formula.parts))
    else:  # Neg
        result = Neg(unfold_formula(formula.part))
    object.__setattr__(formula, "_unfolded", result)
    return result


def _contains_quantifier(formula: Formula) -> bool:
    cached = formula.__dict__.get("_has_q")
    if cached is not None:
        return cached
    if isinstance(formula, Quantified):
        result = True
    elif isinstance(formula, (Conj, Disj)):
        result = any(_contains_quantifier(p) for p in formula.parts)
    elif isinstance(formula, Neg):
        result = _contains_quantifier(formula.part)
    else:
        result = False
    object.__setattr__(formula, "_has_q", result)
    return result


def _instance_count(formula: Formula) -> int:
    if isinstance(formula, Quantified):
        return sum(_instance_count(p) for p in formula.instances) + len(
            formula.instances
        )
    if isinstance(formula, (Conj, Disj)):
        return sum(_instance_count(p) for p in formula.parts)
    if isinstance(formula, Neg):
        return _instance_count(formula.part)
    return 0


def _violated_parts(formula: Formula, assignment: dict[str, int]) -> list[Formula]:
    """Instances to assert after a failed quantifier check.

    For a violated FORALL, the specific false instances are learned (the
    classic conflict-instantiation step).  Violated EXISTS constraints and
    anything nested get their full unfolding asserted — the solver cannot
    know *which* disjunct to satisfy.
    """
    from repro.solver.search import eval_formula

    if isinstance(formula, Quantified) and formula.kind == "forall":
        learned = []
        for instance in formula.instances:
            if eval_formula(instance, assignment) is not True:
                if _contains_quantifier(instance):
                    learned.append(unfold_formula(instance))
                else:
                    learned.append(instance)
        return learned or [unfold_formula(formula)]
    return [unfold_formula(formula)]


class Solver:
    """Collects variables and constraints; produces models.

    Example::

        solver = Solver()
        x = solver.int_var("r[0].a")
        y = solver.int_var("r[0].b", preferred=(5,))
        solver.add(builders.eq(x, y + builders.const(10)))
        model = solver.solve()
        assert model.raw("r[0].a") == model.raw("r[0].b") + 10
    """

    def __init__(self, config: SearchConfig | None = None):
        self.config = config or SearchConfig()
        self.symbols = SymbolTable()
        self._infos: dict[str, VarInfo] = {}
        self._infos_shared = False
        self._formulas: list[Formula] = []
        self.last_stats: SolveStats | None = None
        #: True when this solver's symbol table descends (by copy) from a
        #: table that already interned the query's declaration values —
        #: declared VarInfos may then be replayed without re-interning
        #: (their codes are valid in any descendant table).
        self.warm_declarations = False

    @classmethod
    def from_declarations(
        cls,
        config: SearchConfig | None,
        infos: dict[str, VarInfo],
        symbols: SymbolTable,
    ) -> "Solver":
        """A fresh solver pre-seeded with declared variables.

        ``infos`` is copied; ``symbols`` is adopted as-is (pass an
        independent copy).  Used to replay a declaration snapshot instead
        of re-declaring and re-interning the same variables per spec.
        """
        solver = cls(config)
        # Copy-on-write: most replayed solvers never declare another
        # variable, so the snapshot's info dict is shared until one does.
        solver._infos = infos
        solver._infos_shared = True
        solver.symbols = symbols
        solver.warm_declarations = True
        return solver

    # -- variable declaration ------------------------------------------------

    def int_var(self, name: str, preferred: tuple[int, ...] = ()) -> Linear:
        """Declare (or re-reference) an integer variable."""
        if name not in self._infos:
            if self._infos_shared:
                self._infos = dict(self._infos)
                self._infos_shared = False
            self._infos[name] = VarInfo(name, "int", None, tuple(preferred))
        return Linear.of_var(name)

    def str_var(
        self, name: str, pool: str, preferred_values: tuple[str, ...] = ()
    ) -> Linear:
        """Declare a string variable interned against ``pool``."""
        if name not in self._infos:
            preferred = tuple(
                self.symbols.intern(pool, value) for value in preferred_values
            )
            if self._infos_shared:
                self._infos = dict(self._infos)
                self._infos_shared = False
            self._infos[name] = VarInfo(name, "str", pool, preferred)
        return Linear.of_var(name)

    def has_var(self, name: str) -> bool:
        return name in self._infos

    def info(self, name: str) -> VarInfo:
        return self._infos[name]

    def intern(self, pool: str, value: str) -> int:
        """Intern a string constant for use in constraints."""
        return self.symbols.intern(pool, value)

    # -- constraints ---------------------------------------------------------------

    def add(self, formula: Formula) -> None:
        """Assert a formula (conjunction with everything already added)."""
        self._formulas.append(formula)

    def add_all(self, formulas) -> None:
        for formula in formulas:
            self.add(formula)

    @property
    def formulas(self) -> list[Formula]:
        return list(self._formulas)

    # -- solving ---------------------------------------------------------------------

    def solve(self, unfold: bool = True, base=None) -> Model | None:
        """Search for a model; returns ``None`` when unsatisfiable.

        Args:
            unfold: If True (the paper's optimised mode, Section VI-B)
                every bounded quantifier is expanded into ground
                conjunctions or disjunctions before preprocessing, so
                equalities inside quantifiers participate in union-find
                collapsing and value suggestion.  If False, quantified
                constraints are handled the way quantifier-instantiating
                solvers of the CVC3 era did: solve the ground part, check
                the quantified constraints against the candidate model,
                assert the violated instances, and restart — reproducing
                the paper's slow "without unfolding" configuration.
            base: Optional compiled query skeleton
                (:class:`repro.solver.skeleton.CompiledSkeleton`).  When
                given, the asserted formulas are treated as a *delta* on
                top of the skeleton's preprocessed shared system — the
                same answer as asserting the shared formulas after the
                delta.  Without one, the asserted formulas are the whole
                system, solved as a delta over the trivial skeleton of
                the declared variables.  The lazy mode re-solves its
                ground subset on every restart and cannot keep a
                skeleton's shared constraints, so ``unfold=False`` with
                a ``base`` raises :class:`SolverError`.
        """
        from repro.errors import SolverLimitError

        try:
            return self._solve(unfold, base)
        except SolverLimitError as exc:
            # Record the effort spent before the budget tripped so a
            # caller that catches the overrun still gets statistics.
            self.last_stats = SolveStats(
                satisfiable=False,
                nodes=exc.nodes,
                elapsed=exc.elapsed,
                classes=0,
                constraints=len(self._formulas),
                unfolded=unfold,
                node_limit=self.config.node_limit,
                deadline_s=self.config.solve_deadline_s,
                limit_hit=exc.kind,
            )
            raise

    def _solve(self, unfold: bool, base=None) -> Model | None:
        if not unfold:
            if base:
                raise SolverError(
                    "a compiled skeleton needs unfold=True: the lazy mode "
                    "would drop its shared constraints"
                )
            return self._solve_lazy()
        formulas = [unfold_formula(f) for f in self._formulas]
        # GroundSearch never mutates the info dict.
        outcome = GroundSearch(
            formulas, self._infos, self.symbols, self.config,
            base or trivial_skeleton(self._infos),
        ).run()
        self.last_stats = SolveStats(
            satisfiable=outcome.model is not None,
            nodes=outcome.nodes,
            elapsed=outcome.elapsed,
            classes=outcome.classes,
            constraints=outcome.constraints,
            unfolded=True,
            preprocess_time=outcome.preprocess_elapsed,
            search_time=outcome.search_elapsed,
            node_limit=self.config.node_limit,
            deadline_s=self.config.solve_deadline_s,
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
        )
        return outcome.model

    def _solve_lazy(self) -> Model | None:
        """Lazy quantifier instantiation with restarts (slow path).

        Runs the per-restart ground search without equality-suggestion
        value ordering — the search-level counterpart of the solver not
        seeing through quantifiers.  If a restart overruns the node
        budget, it is retried once with suggestions enabled so the slow
        mode always terminates (its time is reported either way).
        """
        import dataclasses

        from repro.errors import SolverLimitError
        from repro.solver.search import eval_formula

        ground: list[Formula] = []
        quantified: list[Formula] = []
        for formula in self._formulas:
            if _contains_quantifier(formula):
                quantified.append(formula)
            else:
                ground.append(formula)
        instance_budget = 10 + sum(
            _instance_count(f) for f in quantified
        )
        naive_config = dataclasses.replace(
            self.config, enable_suggestions=False
        )
        # One trivial skeleton serves every restart: the declared
        # variables do not change between them.
        base = trivial_skeleton(self._infos)
        learned: list[Formula] = []
        nodes = 0
        elapsed = 0.0
        preprocess_time = 0.0
        search_time = 0.0
        cache_hits = 0
        cache_misses = 0
        iterations = 0
        while True:
            iterations += 1
            if iterations > instance_budget:
                raise SolverLimitError(
                    f"lazy instantiation exceeded {instance_budget} restarts",
                    kind="restarts", nodes=nodes, limit=instance_budget,
                    elapsed=elapsed,
                )
            try:
                outcome = GroundSearch(
                    ground + learned, dict(self._infos), self.symbols,
                    naive_config, base,
                ).run()
            except SolverLimitError:
                outcome = GroundSearch(
                    ground + learned, dict(self._infos), self.symbols,
                    self.config, base,
                ).run()
            nodes += outcome.nodes
            elapsed += outcome.elapsed
            preprocess_time += outcome.preprocess_elapsed
            search_time += outcome.search_elapsed
            cache_hits += outcome.cache_hits
            cache_misses += outcome.cache_misses
            if outcome.model is None:
                # An UNSAT answer from the subset search is suspect: its
                # candidate domains were built from ``ground + learned``
                # only, and a quantified constraint not yet violated
                # (hence not yet learned) can be the only source of a
                # break-point value the model needs.  Confirm against
                # the full unfolded problem, whose domains and
                # constraints cover everything.  (A model needs no
                # confirmation — violated quantifiers are detected and
                # learned below.)
                confirm = GroundSearch(
                    ground + [unfold_formula(f) for f in quantified],
                    dict(self._infos), self.symbols, self.config, base,
                ).run()
                nodes += confirm.nodes
                elapsed += confirm.elapsed
                preprocess_time += confirm.preprocess_elapsed
                search_time += confirm.search_elapsed
                cache_hits += confirm.cache_hits
                cache_misses += confirm.cache_misses
                self.last_stats = SolveStats(
                    confirm.model is not None, nodes, elapsed,
                    confirm.classes, confirm.constraints,
                    unfolded=False, iterations=iterations,
                    preprocess_time=preprocess_time, search_time=search_time,
                    node_limit=self.config.node_limit,
                    deadline_s=self.config.solve_deadline_s,
                    cache_hits=cache_hits, cache_misses=cache_misses,
                )
                return confirm.model
            assignment = outcome.model.assignment
            # Conservative conflict instantiation: learn from the first
            # violated quantifier only, then restart — the restart count
            # grows with the number of quantified constraints, which is
            # what makes the non-unfolded mode degrade with query size.
            new_instances: list[Formula] = []
            for formula in quantified:
                if eval_formula(formula, assignment) is not True:
                    new_instances.extend(_violated_parts(formula, assignment))
                    break
            if not new_instances:
                self.last_stats = SolveStats(
                    True, nodes, elapsed, outcome.classes,
                    outcome.constraints, unfolded=False, iterations=iterations,
                    preprocess_time=preprocess_time, search_time=search_time,
                    node_limit=self.config.node_limit,
                    deadline_s=self.config.solve_deadline_s,
                    cache_hits=cache_hits, cache_misses=cache_misses,
                )
                return outcome.model
            learned.extend(new_instances)

    def require_model(self, unfold: bool = True) -> Model:
        """Like :meth:`solve` but raises on UNSAT."""
        model = self.solve(unfold=unfold)
        if model is None:
            raise UnsatisfiableError("constraints are unsatisfiable")
        return model
