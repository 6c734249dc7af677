"""Preprocessing and backtracking search over finite candidate domains.

The pipeline mirrors what makes the paper's unfolded constraints fast for
CVC3 (Section VI-B and V-H): after unfolding, the constraint set is mostly
unit equalities, which collapse under union-find into a small number of
variable classes; the remaining disjunctions and disequalities are decided
by depth-first search with three-valued (Kleene) constraint evaluation for
early pruning.

Quantified formulas that were *not* unfolded are handled soundly but
naively: they are treated as opaque constraints, invisible to the
union-find/domain preprocessing and re-expanded at every evaluation —
reproducing, qualitatively, the slow quantified path the paper measured.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.errors import SolverError, SolverLimitError
from repro.solver.model import Model, SymbolTable
from repro.solver.terms import (
    Atom,
    BoolConst,
    Conj,
    Disj,
    Formula,
    Linear,
    Neg,
    Quantified,
    VarInfo,
    formula_variables,
)


@dataclass
class SearchConfig:
    """Search tuning knobs."""

    node_limit: int = 500_000
    #: Wall-clock budget for one search run (preprocessing included),
    #: in seconds; ``None`` disables the deadline.  Checked on entry to
    #: the search and every :data:`DEADLINE_CHECK_NODES` nodes — a
    #: deadline overrun raises :class:`SolverLimitError` with
    #: ``kind="deadline"``.
    solve_deadline_s: float | None = None
    fresh_int_values: int = 8
    fresh_str_values: int = 8
    max_domain_size: int = 64
    #: Try values suggested by equality constraints first.  The unfolded
    #: mode's analogue of seeing through quantifiers; the lazy quantifier
    #: mode runs with this off (with a fallback on node-limit overrun).
    enable_suggestions: bool = True


#: How often (in explored nodes) the search consults the wall clock when
#: a deadline is configured.  Power of two: the check compiles to a mask.
DEADLINE_CHECK_NODES = 256


@dataclass
class SearchOutcome:
    """Result of one search run."""

    model: Model | None
    nodes: int = 0
    elapsed: float = 0.0
    classes: int = 0
    constraints: int = 0
    #: Stage split of ``elapsed``: unit propagation / rewriting / domain
    #: construction vs. the backtracking search proper.
    preprocess_elapsed: float = 0.0
    search_elapsed: float = 0.0
    #: Domain-aggregate memo traffic during domain construction: formulas
    #: whose ``_domagg`` was reused vs. built.
    cache_hits: int = 0
    cache_misses: int = 0


# ---------------------------------------------------------------------------
# Kleene evaluation
# ---------------------------------------------------------------------------


def eval_formula(formula: Formula, assignment: dict[str, int]) -> bool | None:
    """Three-valued evaluation under a partial assignment."""
    if isinstance(formula, Atom):
        return formula.evaluate(assignment)
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Neg):
        inner = eval_formula(formula.part, assignment)
        return None if inner is None else not inner
    if isinstance(formula, (Conj, Disj)) or isinstance(formula, Quantified):
        if isinstance(formula, Quantified):
            parts = formula.instances
            is_conj = formula.kind == "forall"
        else:
            parts = formula.parts
            is_conj = isinstance(formula, Conj)
        saw_unknown = False
        for part in parts:
            value = eval_formula(part, assignment)
            if value is None:
                saw_unknown = True
            elif value != is_conj:
                # False part of a conjunction / True part of a disjunction
                return not is_conj
        if saw_unknown:
            return None
        return is_conj
    raise SolverError(f"cannot evaluate formula {formula!r}")


# ---------------------------------------------------------------------------
# Union-find over equality units
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self._parent: dict[str, str] = {}

    def find(self, var: str) -> str:
        # Iterative path-halving: long equality chains (one per join in a
        # chain query) must not recurse towards Python's stack limit.
        parent = self._parent
        if var not in parent:
            parent[var] = var
            return var
        while parent[var] != var:
            parent[var] = parent[parent[var]]
            var = parent[var]
        return var

    def union(self, a: str, b: str) -> str:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic representative: lexicographically smallest.
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra
        return ra


# ---------------------------------------------------------------------------
# The solver core
# ---------------------------------------------------------------------------


class GroundSearch:
    """Solve a conjunction of formulas over typed integer variables."""

    def __init__(
        self,
        formulas: list[Formula],
        infos: dict[str, VarInfo],
        symbols: SymbolTable,
        config: SearchConfig | None,
        base,
    ):
        """``formulas`` is a *delta* over ``base`` (a
        :class:`~repro.solver.skeleton.CompiledSkeleton`): the
        skeleton's preprocessed shared system is seeded underneath it
        instead of being re-flattened, re-propagated and re-rewritten
        (DESIGN.md §5j).  A whole system is solved as a delta over the
        trivial skeleton of its declared variables
        (:func:`~repro.solver.skeleton.trivial_skeleton`)."""
        self._input = formulas
        self._infos = infos
        self._symbols = symbols
        self._config = config or SearchConfig()
        self._base = base
        self._uf = _UnionFind()
        self._fixed: dict[str, int] = {}
        self._unsat = False
        #: Class representative -> declared members of its merged class,
        #: copy-on-write over the skeleton's index (re-merged for this
        #: delta's unions); a declared variable with no entry is a
        #: class of its own (:meth:`_member_infos`).
        self._members: dict = base.members
        #: Variables whose atoms change under rewriting; set once unit
        #: propagation has finished, before the first rewrite.
        self._touched: set[str] = set()
        #: Admitted constraints after preprocessing: the skeleton's
        #: shared formulas (re-rewritten where this delta reaches them)
        #: followed by the delta's own non-unit formulas.
        self._constraints: list[Formula] = []
        #: True when no shared formula needed a re-rewrite: the first
        #: ``len(base.rest)`` constraints are ``base.rest`` verbatim, so
        #: the skeleton's precompiled indexes apply as-is.
        self._fast = False
        self._deadline: float | None = None
        #: Roots that took part in a union during *this* solve's unit
        #: propagation — exactly the equivalence-class partitions whose
        #: precompiled state must be re-derived copy-on-write.
        self._dirty: set[str] = set()
        # Domain-aggregate memo traffic (reported via SearchOutcome).
        self._cache_hits = 0
        self._cache_misses = 0

    # -- preprocessing ------------------------------------------------------

    def _flatten(self) -> list[Formula]:
        units: list[Atom] = []
        rest: list[Formula] = []
        stack = list(self._input)
        while stack:
            node = stack.pop()
            if isinstance(node, Conj):
                stack.extend(node.parts)
            elif isinstance(node, BoolConst):
                if not node.value:
                    self._unsat = True
            elif isinstance(node, Atom):
                units.append(node)
            else:
                rest.append(node)
        self._units = units
        return rest

    def _propagate_units(self) -> None:
        """Merge equality units and fix constant assignments to fixpoint."""
        pending = list(self._units)
        residual: list[Atom] = []
        changed = True
        while changed:
            changed = False
            next_pending: list[Atom] = []
            for atom in pending:
                lin = self._rewrite_linear(atom.lin)
                if lin is not atom.lin:
                    atom = Atom(atom.op, lin)
                free = lin.variables
                if not free:
                    if atom.evaluate({}) is False:
                        self._unsat = True
                    continue
                if atom.op == "=" and len(free) == 1:
                    (name, coef), = lin.coeffs
                    if lin.const % coef == 0:
                        value = -lin.const // coef
                        rep = self._uf.find(name)
                        if rep in self._fixed and self._fixed[rep] != value:
                            self._unsat = True
                        else:
                            self._fixed[rep] = value
                            changed = True
                        continue
                    self._unsat = True
                    continue
                if (
                    atom.op == "="
                    and len(free) == 2
                    and lin.const == 0
                    and sorted(c for _, c in lin.coeffs) == [-1, 1]
                ):
                    a, b = free
                    if self._kind(a) != self._kind(b) or self._pool(a) != self._pool(b):
                        raise SolverError(
                            f"type mismatch merging {a} and {b}"
                        )
                    ra, rb = self._uf.find(a), self._uf.find(b)
                    if ra != rb:
                        # Both roots' precompiled partitions are now
                        # stale (copy-on-write re-merge).
                        self._dirty.add(ra)
                        self._dirty.add(rb)
                        fixed_a = self._fixed.pop(ra, None)
                        fixed_b = self._fixed.pop(rb, None)
                        rep = self._uf.union(a, b)
                        for value in (fixed_a, fixed_b):
                            if value is None:
                                continue
                            if rep in self._fixed and self._fixed[rep] != value:
                                self._unsat = True
                            else:
                                self._fixed[rep] = value
                        changed = True
                    continue
                next_pending.append(atom)
            pending = next_pending
        residual = pending
        self._residual_units = residual

    def _kind(self, var: str) -> str:
        info = self._infos.get(var)
        return info.kind if info else "int"

    def _pool(self, var: str) -> str | None:
        info = self._infos.get(var)
        return info.pool if info else None

    def _rewrite_linear(self, lin: Linear) -> Linear:
        find = self._uf.find
        fixed = self._fixed
        # Identity fast path: most linears mention no merged or fixed
        # variable, so the rebuild below would allocate an equal copy.
        for name, _ in lin.coeffs:
            rep = find(name)
            if rep != name or rep in fixed:
                break
        else:
            return lin
        coeffs: dict[str, int] = {}
        constant = lin.const
        for name, coef in lin.coeffs:
            rep = find(name)
            if rep in fixed:
                constant += coef * fixed[rep]
            else:
                coeffs[rep] = coeffs.get(rep, 0) + coef
        return Linear.build(coeffs, constant)

    def _rewrite_formula(self, formula: Formula) -> Formula:
        if not (formula_variables(formula) & self._touched):
            return formula
        if isinstance(formula, Atom):
            lin = self._rewrite_linear(formula.lin)
            atom = Atom(formula.op, lin)
            if not lin.variables:
                return BoolConst(bool(atom.evaluate({})))
            return atom
        if isinstance(formula, BoolConst):
            return formula
        if isinstance(formula, Neg):
            return Neg(self._rewrite_formula(formula.part))
        if isinstance(formula, Conj):
            return Conj(tuple(self._rewrite_formula(p) for p in formula.parts))
        if isinstance(formula, Disj):
            return Disj(tuple(self._rewrite_formula(p) for p in formula.parts))
        if isinstance(formula, Quantified):
            return Quantified(
                formula.kind,
                tuple(self._rewrite_formula(p) for p in formula.instances),
                formula.label,
            )
        raise SolverError(f"cannot rewrite formula {formula!r}")

    def _delta_state_key(self, formula: Formula) -> tuple:
        """Fingerprint of the delta state restricted to ``formula``.

        Two delta solves whose union-find/fixed state agree on a shared
        formula's variables produce structurally identical rewrites, so
        the skeleton's rewrite cache can hand back the earlier solve's
        object — keeping its per-node memos warm — instead of
        rebuilding the tree.
        """
        variables = formula.__dict__.get("_fvsorted")
        if variables is None:
            variables = sorted(formula_variables(formula))
            object.__setattr__(formula, "_fvsorted", variables)
        parent = self._uf._parent
        find = self._uf.find
        fixed = self._fixed
        key = []
        for name in variables:
            rep = find(name) if name in parent else name
            key.append((rep, fixed.get(rep)))
        return tuple(key)

    # -- domain construction ---------------------------------------------------

    def _universe_key(self, rep: str) -> tuple[str, str | None]:
        return (self._kind(rep), self._pool(rep))

    def _add_string_witnesses(self, pool: str, code: int) -> None:
        """Intern strings lexicographically adjacent to ``code``'s string.

        Order comparisons against a string constant need candidate values
        strictly below and above it; synthetic neighbours keep the pool's
        rank-preserving code order intact.
        """
        try:
            value = self._symbols.decode(code)
        except KeyError:
            return
        self._symbols.intern(pool, value + "0")  # strictly above
        if value:
            first = value[0]
            if ord(first) > 33:
                below = chr(ord(first) - 1) + "z"
                if below < value:
                    self._symbols.intern(pool, below)

    def _domagg_of(self, formula: Formula):
        """:func:`domain_aggregate`, counting its memo traffic."""
        agg = formula.__dict__.get("_domagg")
        if agg is not None:
            self._cache_hits += 1
            return agg
        self._cache_misses += 1
        return domain_aggregate(formula, self._infos)

    def _build_domains(
        self,
        reps: list[str],
        constraints: list[Formula],
        free_reps: set[str],
        skip: int,
        pref_skip: set[str],
    ) -> dict[str, list[int]]:
        """Ordered candidate values per representative.

        The first ``skip`` constraints are ``base.rest`` verbatim, so
        the candidate collection is seeded from the skeleton's
        precompiled aggregate over them instead of a per-formula scan.
        The skeleton's per-class preferred-value union ``base.pref`` is
        valid for every class the delta left unmerged (``pref_skip``
        holds the merged ones, which fall back to a member scan).
        """
        config = self._config
        base = self._base
        pref = base.pref
        dom_cache = base.domain_cache
        # Collect integer constants relevant to each universe.
        int_candidates: set[int] = {0, 1, 2}
        offsets: set[int] = set()
        if skip:
            int_candidates.update(base.agg[0])
            offsets.update(base.agg[1])
            # String pools: order atoms against interned constants need
            # lexicographic boundary witnesses, re-interned per solve in
            # the same formula order as a full scan.
            for pool, code in base.agg[2]:
                self._add_string_witnesses(pool, code)
        for formula in constraints[skip:] + list(self._residual_units):
            agg = self._domagg_of(formula)
            int_candidates.update(agg[0])
            offsets.update(agg[1])
            for pool, code in agg[2]:
                self._add_string_witnesses(pool, code)
        for rep in reps:
            if rep not in pref_skip:
                values = pref.get(rep)
                if values is not None:
                    int_candidates.update(values)
                    continue
            if self._kind(rep) == "int":
                for info in self._member_infos(rep):
                    int_candidates.update(info.preferred)
        for value in self._fixed.values():
            if value < SymbolTable._POOL_STRIDE:
                int_candidates.add(value)
        # One closure round under two-variable offsets.
        if offsets:
            base = set(int_candidates)
            for value in base:
                for offset in offsets:
                    int_candidates.add(value + offset)
                    int_candidates.add(value - offset)
        fresh_base = max(int_candidates, default=0) + 10
        for i in range(config.fresh_int_values):
            int_candidates.add(fresh_base + i)
        int_domain = sorted(int_candidates)
        int_domain_set = set(int_domain)

        domains: dict[str, list[int]] = {}
        max_size = config.max_domain_size
        #: universe key -> (ordered candidates, membership set)
        universe_cache: dict[str | None, tuple[list[int], set[int]]] = {
            None: (int_domain, int_domain_set)
        }
        #: universe key -> frozenset fingerprint of its candidates (the
        #: dom_cache key component; frozensets cache their hash).
        cand_fp: dict[str | None, frozenset] = {}
        for rep in reps:
            kind, pool = self._universe_key(rep)
            key = None if kind == "int" else pool
            cached = universe_cache.get(key)
            if cached is None:
                frozen = self._symbols.frozen_universe(
                    pool, config.fresh_str_values
                )
                if frozen is not None:
                    candidates = list(frozen)
                else:
                    known = set(self._symbols.known_codes(pool))
                    for _ in range(config.fresh_str_values):
                        known.add(self._symbols.fresh(pool))
                    candidates = sorted(known)
                cached = (candidates, set(candidates))
                universe_cache[key] = cached
            candidates, candidate_set = cached
            dkey = None
            if rep not in pref_skip:
                # Unmerged base class: its domain is a pure function of
                # the rep (kind, pool, member order) and the candidate
                # content; candidate order is deterministic from the
                # set, so set-equality implies list-equality.
                fp = cand_fp.get(key)
                if fp is None:
                    fp = cand_fp[key] = frozenset(candidates)
                dkey = (rep, rep in free_reps, fp, max_size)
                got = dom_cache.get(dkey)
                if got is not None:
                    domains[rep] = got
                    continue
            if rep in free_reps:
                # Unconstrained: the search only ever takes the first
                # ordered value, so the rest of the domain is not built.
                first = None
                for info in self._member_infos(rep):
                    for value in info.preferred:
                        if value in candidate_set:
                            first = value
                            break
                    if first is not None:
                        break
                if first is not None:
                    domains[rep] = [first]
                else:
                    domains[rep] = [candidates[0]] if candidates else []
                if dkey is not None:
                    dom_cache[dkey] = domains[rep]
                continue
            preferred: list[int] = []
            seen: set[int] = set()
            for info in self._member_infos(rep):
                for value in info.preferred:
                    if value in candidate_set and value not in seen:
                        preferred.append(value)
                        seen.add(value)
            if not seen:
                # No preferred values: the universe order is the domain.
                # Sharing the list is safe — domains are never mutated.
                ordered = (
                    candidates
                    if len(candidates) <= max_size
                    else candidates[:max_size]
                )
            else:
                ordered = preferred + [v for v in candidates if v not in seen]
                if len(ordered) > max_size:
                    ordered = ordered[:max_size]
            domains[rep] = ordered
            if dkey is not None:
                dom_cache[dkey] = ordered
        return domains

    def _member_infos(self, rep: str):
        members = self._members.get(rep)
        if members is not None:
            return members
        info = self._infos.get(rep)
        return () if info is None else (info,)

    def _admit(self, rewritten: Formula) -> bool:
        """Keep a rewritten constraint; decide it if variable-free.

        Variable-free formulas would never be re-evaluated by the
        search's watch scheme, so they are decided now; ``False`` means
        the problem is UNSAT.
        """
        if not formula_variables(rewritten):
            return eval_formula(rewritten, {}) is True
        self._constraints.append(rewritten)
        return True

    def preprocess(self) -> bool:
        """Seed the skeleton's state, then flatten, propagate and rewrite.

        The one preprocessing path, shared by :meth:`run` and by
        :func:`~repro.solver.skeleton.compile_skeleton` (a delta over
        the trivial skeleton).  Leaves behind the union-find, the fixed
        values, the residual units, the copy-on-write members index and
        the admitted non-unit constraints (``_constraints``).  Returns
        False when the system is already UNSAT.
        """
        base = self._base
        if base.unsat:
            # The shared system alone is UNSAT; no delta can rescue it.
            self._unsat = True
            return False
        rest = self._flatten()
        # The shared system is a flatten-order prefix of the full
        # problem (it is asserted last, and _flatten pops from the end),
        # so prepending its residual units here and its rest constraints
        # below reproduces a whole-system compile's ordering exactly;
        # union-find confluence makes the merge outcome order-independent.
        self._uf._parent = dict(base.parent)
        self._fixed = dict(base.fixed)
        self._units = list(base.residual) + self._units
        self._propagate_units()
        if self._unsat:
            return False
        find = self._uf.find
        # A variable's atoms change under rewriting when its class was
        # merged away or fixed.  The base's set is precompiled; this
        # delta adds its fixes and the dirty roots that lost their
        # representative role (a root that kept it rewrites to itself).
        touched = set(base.touched)
        touched.update(self._fixed)
        touched.update(root for root in self._dirty if find(root) != root)
        self._touched = touched
        if self._dirty:
            # Copy-on-write members index: only the partitions touched
            # by this delta's unions are re-merged (in declaration
            # order, matching a whole-system scan); every other class
            # reuses the skeleton's precompiled tuple, or is a
            # singleton with no entry at all.
            groups: dict[str, list[str]] = {}
            for root in self._dirty:
                groups.setdefault(find(root), []).append(root)
            members = dict(base.members)
            decl = base.decl_index
            for rep, roots in groups.items():
                merged: list[VarInfo] = []
                for root in roots:
                    own = members.pop(root, None)
                    merged.extend(
                        self._member_infos(root) if own is None else own
                    )
                if merged:
                    merged.sort(key=lambda info: decl[info.name])
                    members[rep] = tuple(merged)
            self._members = members

        # The variables of a base-rewritten shared formula are base
        # representatives; a delta changes the rewrite of such a formula
        # only by merging or fixing one of those classes, and every such
        # class root lands in _dirty or in the newly fixed keys.  The
        # skeleton's inverted index turns that observation into an exact
        # list of the shared formulas needing a re-rewrite.
        changed = set(self._dirty)
        base_fixed = base.fixed
        for name in self._fixed:
            if name not in base_fixed:
                changed.add(name)
        affected: set[int] = set()
        var_index = base.var_index
        for name in changed:
            hits = var_index.get(name)
            if hits:
                affected.update(hits)
        rest_t = base.rest
        constraints = self._constraints
        if affected:
            rewrite_cache = base.rewrite_cache
            previous = 0
            for index in sorted(affected):
                constraints.extend(rest_t[previous:index])
                formula = rest_t[index]
                key = (index, self._delta_state_key(formula))
                rewritten = rewrite_cache.get(key)
                if rewritten is None:
                    rewritten = self._rewrite_formula(formula)
                    rewrite_cache[key] = rewritten
                    base.rewrite_misses += 1
                else:
                    base.rewrite_hits += 1
                if not self._admit(rewritten):
                    return False
                previous = index + 1
            constraints.extend(rest_t[previous:])
        else:
            # No shared formula mentions a changed class: the base
            # prefix is admitted verbatim, so the skeleton's
            # precompiled indexes (watch lists, variable sets, domain
            # aggregate) apply as-is.
            constraints.extend(rest_t)
            self._fast = True
        for formula in rest:
            if not self._admit(self._rewrite_formula(formula)):
                return False
        return True

    # -- search -------------------------------------------------------------------

    def run(self) -> SearchOutcome:
        start = time.perf_counter()
        self._deadline = (
            start + self._config.solve_deadline_s
            if self._config.solve_deadline_s is not None
            else None
        )

        def preprocess_only(model=None, **kw):
            elapsed = time.perf_counter() - start
            return SearchOutcome(
                model, elapsed=elapsed, preprocess_elapsed=elapsed,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses, **kw
            )

        base = self._base
        if not self.preprocess():
            return preprocess_only()
        for unit in self._residual_units:
            if not self._admit(self._rewrite_formula(unit)):
                return preprocess_only()
        constraints = self._constraints
        fast = self._fast
        n_base = len(base.rest) if fast else 0

        # Representatives that still need values: the skeleton's live
        # base classes, adjusted only for the partitions this delta
        # merged or fixed.
        find = self._uf.find
        fixed = self._fixed
        reps = set(base.reps)
        for root in self._dirty:
            reps.discard(root)
            winner = find(root)
            if winner not in fixed:
                reps.add(winner)
        for rep in fixed:
            reps.discard(rep)
        if fast:
            # The admitted base prefix is base.rest verbatim, so the
            # names it would contribute are the precompiled union.
            reps |= base.var_names.difference(fixed)
        tail = constraints[n_base:]
        for formula in tail:
            for name in formula_variables(formula):
                if name not in fixed:
                    reps.add(name)
        rep_list = sorted(reps)

        # Index constraints first (domain construction can then treat
        # unconstrained representatives specially on the hot path).  On
        # the fast path, start from the precompiled split of base.rest
        # into multi-variable (active) and single-variable constraints;
        # the watch lists restrict the per-name index to this solve's
        # live representatives.  Sound because on the fast path no base
        # formula mentions a merged or newly fixed class, so every base
        # formula variable is still its own representative.
        active = list(base.active) if fast else []
        single = list(base.single) if fast else []
        name_watch = base.name_watch if fast else {}
        # Copy-on-append: most lists stay the skeleton's tuples; only
        # reps watched by an indexed formula get a private list.
        watch = {rep: name_watch.get(rep, ()) for rep in rep_list}
        for formula in tail:
            # Shared formulas (db constraints) index identically in
            # every sibling solve; memoize the sorted variable list.
            variables = formula.__dict__.get("_fvsorted")
            if variables is None:
                variables = sorted(formula_variables(formula))
                object.__setattr__(formula, "_fvsorted", variables)
            if len(variables) == 1:
                # Any single-variable constraint — an atom, or e.g. an
                # input-database EXISTS disjunction (Section VI-A) — is a
                # domain restriction; applied to its domain below.
                single.append((variables[0], formula))
                continue
            index = len(active)
            active.append(formula)
            for rep in variables:
                entry = watch.get(rep)
                if entry is None:
                    continue
                if type(entry) is tuple:
                    entry = list(entry)
                    watch[rep] = entry
                entry.append(index)

        # A representative with no watched and no single-variable
        # constraint only ever takes its first ordered value; its
        # domain need not be materialised beyond that.
        free_reps = {rep for rep in rep_list if not watch[rep]}
        free_reps.difference_update(rep for rep, _ in single)
        # Classes this delta merged aggregate preferred values from
        # several base classes; they fall back to the member scan.
        pref_skip = {find(root) for root in self._dirty}
        domains = self._build_domains(
            rep_list, constraints, free_reps, n_base, pref_skip
        )

        for rep, formula in single:
            domains[rep] = [
                v
                for v in domains[rep]
                if eval_formula(formula, {rep: v}) is True
            ]
        for rep in rep_list:
            if not domains[rep]:
                return preprocess_only(
                    classes=len(rep_list), constraints=len(active)
                )

        # Assign constrained classes first, in constraint-graph order so each
        # new variable shares a constraint with an already-assigned one and
        # failures surface immediately.  Unconstrained classes go last.
        constrained = [rep for rep in rep_list if watch[rep]]
        free = [rep for rep in rep_list if not watch[rep]]
        constrained.sort(key=lambda r: (len(domains[r]), -len(watch[r]), r))
        order = _connected_order_of(constrained, active, watch) + free

        assignment: dict[str, int] = {}
        nodes = 0
        limit = self._config.node_limit
        deadline = self._deadline

        def harvest(formula: Formula, rep: str, out: list[Atom]) -> None:
            """Collect atoms worth steering ``rep`` by, context-sensitively.

            Inside a disjunction only the *first* not-yet-false disjunct
            is considered: satisfying it satisfies the constraint, and
            harvesting deeper alternatives is what used to drag primary
            keys equal through the chase implication's second disjunct.
            Negations contribute nothing (their atoms are already
            negated by the builders in NNF positions we emit).
            """
            if isinstance(formula, Atom):
                if any(name == rep for name, _ in formula.lin.coeffs):
                    out.append(formula)
                return
            if isinstance(formula, Conj):
                for part in formula.parts:
                    harvest(part, rep, out)
                return
            if isinstance(formula, Quantified) and formula.kind == "forall":
                for part in formula.instances:
                    harvest(part, rep, out)
                return
            parts = None
            if isinstance(formula, Disj):
                parts = formula.parts
            elif isinstance(formula, Quantified):  # exists
                parts = formula.instances
            if parts is not None:
                for part in parts:
                    if eval_formula(part, assignment) is False:
                        continue
                    harvest(part, rep, out)
                    return

        def ordered_values(rep: str) -> list[int]:
            domain = domains[rep]
            if not self._config.enable_suggestions:
                return domain
            suggestions: list[int] = []
            avoided: list[int] = []
            atoms: list[Atom] = []
            for index in watch[rep]:
                # Monotone Kleene evaluation: once a constraint is True
                # under a partial assignment it stays True, so the
                # per-depth mark replaces re-evaluating it here.
                if sat_depth[index] >= 0:
                    continue
                harvest(active[index], rep, atoms)
            for atom in atoms:
                total = atom.lin.const
                coef_of_rep = 0
                ready = True
                for name, coef in atom.lin.coeffs:
                    if name == rep:
                        coef_of_rep = coef
                        continue
                    value = assignment.get(name)
                    if value is None:
                        ready = False
                        break
                    total += coef * value
                if not ready or coef_of_rep not in (1, -1):
                    continue
                value, remainder = divmod(-total, coef_of_rep)
                if atom.op == "=":
                    if remainder == 0 and value not in suggestions:
                        suggestions.append(value)
                elif atom.op == "<>":
                    # Defer the forbidden value instead of colliding into
                    # it through the shared domain ordering.
                    if remainder == 0 and value not in avoided:
                        avoided.append(value)
                elif atom.op == "<":
                    witness = value - 1 if coef_of_rep > 0 else value + 1
                    if witness not in suggestions:
                        suggestions.append(witness)
                else:  # "<=" — the boundary witness suffices either way.
                    witness = value
                    if witness not in suggestions:
                        suggestions.append(witness)
            if not suggestions and not avoided:
                return domain
            domain_set = set(domain)
            head = [v for v in suggestions if v in domain_set]
            head_set = set(head)
            avoided_set = set(avoided) - head_set
            middle = [
                v for v in domain if v not in head_set and v not in avoided_set
            ]
            tail = [v for v in domain if v in avoided_set]
            return head + middle + tail

        constraint_vars = list(base.cvars) if fast else []
        constraint_vars += [
            frozenset(formula_variables(f))
            for f in active[len(constraint_vars):]
        ]
        #: Depth at which each active constraint was proven True under the
        #: partial assignment (-1 = not yet).  Kleene evaluation is
        #: monotone, so a constraint marked at depth d needs no
        #: re-evaluation at any depth > d; marks are undone on backtrack.
        sat_depth = [-1] * len(active)

        def backtrack(position: int):
            """Conflict-directed backjumping search.

            Returns True on success, or the *conflict set* — the variables
            responsible for the dead end.  A caller whose variable is not
            in the conflict set passes it straight up without trying its
            remaining values: re-assigning an irrelevant variable cannot
            resolve the conflict (this is what keeps a failing pair like
            the two operands of a sum constraint from re-enumerating every
            unrelated variable ordered between them).
            """
            nonlocal nodes
            if position == len(order):
                return True
            rep = order[position]
            conflict: set[str] = set()
            # Constraints already satisfied at a shallower depth can
            # never fail below it; evaluate only the still-open ones for
            # every candidate value of this class.
            pending = [i for i in watch[rep] if sat_depth[i] < 0]
            for value in ordered_values(rep):
                nodes += 1
                if nodes > limit:
                    raise SolverLimitError(
                        f"search exceeded {limit} nodes",
                        kind="nodes", nodes=nodes, limit=limit,
                        elapsed=time.perf_counter() - start,
                    )
                if (
                    deadline is not None
                    and not (nodes & (DEADLINE_CHECK_NODES - 1))
                    and time.perf_counter() > deadline
                ):
                    raise SolverLimitError(
                        f"search exceeded the "
                        f"{self._config.solve_deadline_s}s deadline",
                        kind="deadline", nodes=nodes,
                        limit=self._config.solve_deadline_s,
                        elapsed=time.perf_counter() - start,
                    )
                assignment[rep] = value
                failed_index = -1
                marked: list[int] = []
                for index in pending:
                    outcome = eval_formula(active[index], assignment)
                    if outcome is False:
                        failed_index = index
                        break
                    if outcome is True:
                        sat_depth[index] = position
                        marked.append(index)
                if failed_index >= 0:
                    conflict |= constraint_vars[failed_index]
                    del assignment[rep]
                    for index in marked:
                        sat_depth[index] = -1
                    continue
                result = backtrack(position + 1)
                if result is True:
                    return True
                del assignment[rep]
                for index in marked:
                    sat_depth[index] = -1
                if rep not in result:
                    return result
                conflict |= result
            conflict.discard(rep)
            return conflict

        search_start = time.perf_counter()
        preprocess_elapsed = search_start - start
        if self._deadline is not None and search_start > self._deadline:
            # Preprocessing alone blew the budget; the search would only
            # discover it DEADLINE_CHECK_NODES nodes later.
            raise SolverLimitError(
                f"preprocessing exceeded the "
                f"{self._config.solve_deadline_s}s deadline",
                kind="deadline", nodes=0, limit=self._config.solve_deadline_s,
                elapsed=preprocess_elapsed,
            )
        found = backtrack(0) is True
        elapsed = time.perf_counter() - start
        search_elapsed = elapsed - preprocess_elapsed
        if not found:
            return SearchOutcome(
                None, nodes=nodes, elapsed=elapsed,
                classes=len(rep_list), constraints=len(active),
                preprocess_elapsed=preprocess_elapsed,
                search_elapsed=search_elapsed,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
            )
        assignment.update(self._fixed)
        full: dict[str, int] = {}
        for name in self._infos:
            rep = self._uf.find(name)
            full[name] = assignment[rep]
        # Classes created only through constraints (no VarInfo) stay internal.
        model = Model(full, dict(self._infos), self._symbols)
        return SearchOutcome(
            model, nodes=nodes, elapsed=elapsed,
            classes=len(rep_list), constraints=len(active),
            preprocess_elapsed=preprocess_elapsed,
            search_elapsed=search_elapsed,
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
        )


def _domain_hint(atom: Atom, infos: dict[str, VarInfo]) -> tuple[str, object]:
    """Classify an atom's contribution to domain construction.

    Returns ``('str', (pool, code))`` for order atoms against a string
    constant (boundary witnesses needed), ``('int', (v-1, v, v+1))``
    for single-variable integer atoms (break-point witnesses),
    ``('off', k)`` for multi-variable atoms with constant offset k,
    and ``('none', None)`` otherwise.
    """
    variables = atom.lin.variables
    n_vars = len(variables)
    kinds = {infos[v].kind if v in infos else "int" for v in variables}
    if kinds == {"str"}:
        if atom.op in ("<", "<=") and n_vars == 1:
            (name, coef), = atom.lin.coeffs
            code = -atom.lin.const // coef if coef else None
            pool = infos[name].pool
            if code is not None and pool is not None:
                return ("str", (pool, code))
        return ("none", None)
    if n_vars == 1:
        (name, coef), = atom.lin.coeffs
        # Witnesses around the break-point of the atom.
        value = -atom.lin.const // coef
        return ("int", (value - 1, value, value + 1))
    if n_vars >= 2 and atom.lin.const != 0:
        return ("off", abs(atom.lin.const))
    return ("none", None)


def domain_aggregate(formula: Formula, infos: dict[str, VarInfo]):
    """Domain-aggregate of one formula: ``(ints, offsets, strs)``.

    A formula's domain contribution is a pure function of its atoms'
    structure and their variables' kinds, both stable across the
    sibling solves that share the formula object — aggregated once per
    node and memoized like _fv/_atoms.
    """
    agg = formula.__dict__.get("_domagg")
    if agg is not None:
        return agg
    ints: set[int] = set()
    offs: set[int] = set()
    strs: list[tuple[str, int]] = []
    for atom in _formula_atoms(formula):
        hint = atom.__dict__.get("_domhint")
        if hint is None:
            hint = _domain_hint(atom, infos)
            object.__setattr__(atom, "_domhint", hint)
        tag, data = hint
        if tag == "str":
            strs.append(data)
        elif tag == "int":
            ints.update(data)
        elif tag == "off":
            offs.add(data)
    agg = (ints, offs, strs)
    object.__setattr__(formula, "_domagg", agg)
    return agg


def _connected_order_of(
    seeds: list[str],
    active: list[Formula],
    watch: dict[str, list[int]],
) -> list[str]:
    """Greedy constraint-graph traversal starting from the hardest seed."""
    if not seeds:
        return []
    constraint_vars = [sorted(formula_variables(f)) for f in active]
    order: list[str] = []
    placed: set[str] = set()
    pending = list(seeds)
    while pending:
        start = next(p for p in pending if p not in placed)
        queue = deque([start])
        while queue:
            rep = queue.popleft()
            if rep in placed:
                continue
            placed.add(rep)
            order.append(rep)
            neighbours: list[str] = []
            for index in watch.get(rep, ()):
                neighbours.extend(constraint_vars[index])
            for other in neighbours:
                if other not in placed and other in watch:
                    queue.append(other)
        pending = [p for p in pending if p not in placed]
    return order


def _formula_atoms(formula: Formula) -> list[Atom]:
    cached = formula.__dict__.get("_atoms")
    if cached is not None:
        return cached
    out: list[Atom] = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.append(node)
        elif isinstance(node, (Conj, Disj)):
            stack.extend(node.parts)
        elif isinstance(node, Neg):
            stack.append(node.part)
        elif isinstance(node, Quantified):
            stack.extend(node.instances)
    # Formula nodes are frozen dataclasses; the memo rides alongside the
    # _fv cache and is invisible to __eq__/__hash__.
    object.__setattr__(formula, "_atoms", out)
    return out
