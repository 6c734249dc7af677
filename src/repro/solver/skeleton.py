"""Compile-once query skeletons for delta solving (DESIGN.md §5j).

The kill groups XData derives for one query share almost their entire
constraint system: the PK/FK chase constraints, the foreign-key EXISTS
disjunctions and the declared domains are identical across every group
member with the same tuple-space shape; only the mutated conjunct (and
the handful of conjuncts around it) differs.  :func:`compile_skeleton`
unfolds, normalizes and union-find-preprocesses that shared system once
per query shape; :class:`repro.solver.search.GroundSearch` then applies
each group's formulas as an incremental *delta* on top of the compiled
state — asserting the delta's units into a copy of the preprocessed
union-find, splitting/merging only the affected equivalence-class
partitions (copy-on-write), and reusing cached rewrites of the shared
formulas whenever the delta leaves their variables' classes unchanged.

Every solve is such a delta.  :func:`trivial_skeleton` is the skeleton
of an empty shared system — no parent links, no fixes, every declared
variable its own class — and a system with no compiled skeleton is
solved as a delta over it; :func:`compile_skeleton` is
``GroundSearch.preprocess`` of the shared formulas over it, plus the
indexes the delta solves read.

Everything here is an amortization, never an approximation: a delta
solve gives the answer of solving the delta and the shared system
together over the trivial skeleton.  The tests pin the generated bytes
against golden digests (``tests/golden.py``), the underlying confluence
argument with Hypothesis properties, and the solver's answers against
brute force (``tests/test_solver_search.py``).  The correctness
argument, in brief:

* **Prefix property.**  The generator asserts the delta formulas first
  and the shared system last; ``GroundSearch._flatten`` pops from the
  end of its input, so the shared system's units and residual
  constraints form a *prefix* of the full flatten order.  Compiling the
  shared prefix alone and concatenating the delta's suffix reproduces
  the exact unit/constraint ordering of a whole-system solve.
* **Confluence.**  Union-find merging is order-independent: the final
  partition is the transitive closure of the derivable equalities, the
  representative is always the lexicographically smallest member, and
  fixed values attach to classes, not to processing order.
* **Canonical rewrites.**  ``Linear.build`` sorts coefficients and
  drops zeros, so rewriting under the base state and then under the
  delta state composes to the same structure as one full rewrite.

Skeletons hold plain dicts/tuples over formula nodes and live in the
generator's process-level ``skeleton`` memo (one per worker); they are
never pickled across the process pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.solver.search import GroundSearch, domain_aggregate
from repro.solver.terms import Atom, Formula, VarInfo, formula_variables


@dataclass
class CompiledSkeleton:
    """The preprocessed shared constraint system of one query shape.

    Produced by :func:`compile_skeleton` or :func:`trivial_skeleton`;
    consumed by ``GroundSearch(..., base)``.  All mapping fields are
    treated as immutable by consumers (copy-on-write); the rewrite
    cache and its counters are the only mutable state and are shared
    deliberately across the sibling solves of one generator run.
    """

    #: Fully path-compressed union-find parent map of the shared units.
    parent: dict[str, str]
    #: Base representative -> fixed value (from shared constant units).
    fixed: dict[str, int]
    #: Shared unit atoms not collapsed by base propagation, rewritten
    #: under the base state, in flatten order.  They re-enter the
    #: delta solve's unit-propagation queue ahead of the delta's units.
    residual: tuple[Atom, ...]
    #: Shared non-unit constraints, rewritten under the base state with
    #: base-decided-True members dropped, in flatten order.
    rest: tuple[Formula, ...]
    #: True when the shared system alone is unsatisfiable (every delta
    #: solve is then UNSAT without searching).
    unsat: bool
    #: Variables whose atoms changed under the base rewrite: merged
    #: away or fixed.  The delta solve extends this with its own
    #: merges and fixes instead of rescanning.
    touched: frozenset[str]
    #: Base representative -> class members in declaration order, for
    #: the classes preprocessing merged; a declared variable with no
    #: entry is a class of its own.  A delta solve copies this dict and
    #: re-merges only the partitions its own unions affect.
    members: dict[str, tuple[VarInfo, ...]]
    #: Variable name -> declaration index (the order merged partitions
    #: must preserve to match a from-scratch members scan).
    decl_index: dict[str, int]
    #: Representatives of the non-fixed base classes that carry a
    #: declared variable.
    reps: frozenset[str]
    #: Inverted index: variable name -> indices into ``rest`` of the
    #: shared formulas mentioning it.  A delta solve intersects this
    #: with its changed classes to find the exact set of shared
    #: formulas needing a re-rewrite (usually none).
    var_index: dict[str, tuple[int, ...]]
    #: Union of every variable name appearing in ``rest``.
    var_names: frozenset[str]
    #: Precompiled split of ``rest`` into multi-variable constraints
    #: (``active``, in order) and single-variable domain restrictions
    #: (``single`` as (var, formula) pairs), with ``cvars`` the
    #: per-active-formula variable frozensets and ``name_watch`` the
    #: name -> active-indices watch lists.  Applied verbatim by delta
    #: solves whose changed classes touch no shared formula.
    active: tuple[Formula, ...]
    single: tuple[tuple[str, Formula], ...]
    cvars: tuple[frozenset, ...]
    name_watch: dict[str, tuple[int, ...]]
    #: Domain-aggregate union over ``rest``: (int constants, offsets,
    #: string witnesses in formula order).  Seeds _build_domains on the
    #: fast path instead of a per-formula memo scan.
    agg: tuple
    #: Base representative -> sorted union of the preferred values of
    #: its int-kind members (str-kind classes map to ()).  Valid for
    #: every class a delta leaves unmerged; a class missing from it
    #: falls back to the member scan.
    pref: dict[str, tuple[int, ...]]
    #: Wall-clock seconds spent compiling this skeleton (reported once
    #: per query shape, not once per group member).
    compile_time: float = 0.0
    #: (rest index, delta-state fingerprint) -> rewritten formula.
    #: Cache hits return the exact object produced for an earlier
    #: sibling solve, so its ``_fv``/``_fvsorted``/``_domagg`` memos
    #: stay warm across the whole kill group.
    rewrite_cache: dict = field(default_factory=dict)
    rewrite_hits: int = 0
    rewrite_misses: int = 0
    #: (rep, free?, candidate-set fingerprint, max size) -> ordered
    #: domain list, shared across sibling solves (domain lists are
    #: never mutated).  Exact: the candidate fingerprint pins the
    #: universe content, the rep pins kind/pool/member order, and
    #: merged classes bypass the cache entirely.
    domain_cache: dict = field(default_factory=dict)


def trivial_skeleton(infos: dict[str, VarInfo]) -> CompiledSkeleton:
    """The skeleton of an empty shared system over ``infos``.

    No parent links, no fixes, no shared formulas: every declared
    variable is its own class, carrying its own preferred values, so
    the members index is empty.  A solve over it is a solve of its whole
    delta from scratch — how :meth:`repro.solver.solver.Solver.solve`
    runs without a compiled skeleton, and what :func:`compile_skeleton`
    compiles over.  ``pref`` stays empty: a singleton class's member
    scan reads the same values.
    """
    return CompiledSkeleton(
        parent={},
        fixed={},
        residual=(),
        rest=(),
        unsat=False,
        touched=frozenset(),
        members={},
        decl_index={name: index for index, name in enumerate(infos)},
        reps=frozenset(infos),
        var_index={},
        var_names=frozenset(),
        active=(),
        single=(),
        cvars=(),
        name_watch={},
        agg=(frozenset(), frozenset(), ()),
        pref={},
    )


def compile_skeleton(
    formulas: list[Formula],
    infos: dict[str, VarInfo],
    config,
) -> CompiledSkeleton:
    """Preprocess the shared constraint system once.

    ``formulas`` is the spec-independent suffix of a solve's input (the
    database constraints); ``infos`` the declared variables of the
    tuple-space shape the skeleton is keyed by.  ``config`` is the
    :class:`~repro.solver.search.SearchConfig` of the sibling solves.
    The compile is :meth:`GroundSearch.preprocess` of ``formulas`` as a
    delta over the trivial skeleton, plus the indexes delta solves read.
    """
    from repro.solver.solver import unfold_formula

    start = time.perf_counter()
    unfolded = [unfold_formula(f) for f in formulas]
    trivial = trivial_skeleton(infos)
    # Symbols are never consulted during preprocessing (only domain
    # construction needs them), so the compile search gets none.
    search = GroundSearch(unfolded, infos, None, config, trivial)
    unsat = not search.preprocess()
    rest = [] if unsat else search._constraints

    find = search._uf.find
    # Full path compression: delta solves seed their union-find from a
    # flat copy, so every subsequent find is one hop.
    parent = {name: find(name) for name in search._uf._parent}
    fixed = dict(search._fixed)
    # preprocess left the merged classes' members index; the one pass
    # over the declared variables collects the live representatives
    # and every one's preferred values.  A merged-away or fixed
    # variable needs no domain, so it gets no entry.
    members = search._members
    live: list[str] = []
    pref = {}
    for name, info in infos.items():
        if parent.get(name, name) != name or name in fixed:
            continue
        live.append(name)
        if info.kind != "int":
            pref[name] = ()
        else:
            mem = members.get(name, (info,))
            pref[name] = tuple(sorted({v for i in mem for v in i.preferred}))

    # Precompile everything a delta solve would otherwise derive per
    # sibling from the shared prefix: the inverted variable->formula
    # index, the active/single split with its watch lists and variable
    # sets, the domain-aggregate union, and the per-class
    # preferred-value unions.  All are exact for any delta whose changed
    # classes avoid the indexed names; the delta path re-rewrites the
    # shared formulas those classes reach.
    raw_index: dict[str, list[int]] = {}
    raw_watch: dict[str, list[int]] = {}
    active: list[Formula] = []
    single: list[tuple[str, Formula]] = []
    cvars: list[frozenset] = []
    agg_ints: set[int] = set()
    agg_offs: set[int] = set()
    agg_strs: list[tuple[str, int]] = []
    for index, formula in enumerate(rest):
        variables = formula.__dict__.get("_fvsorted")
        if variables is None:
            variables = sorted(formula_variables(formula))
            object.__setattr__(formula, "_fvsorted", variables)
        for name in variables:
            raw_index.setdefault(name, []).append(index)
        ints, offs, strs = domain_aggregate(formula, infos)
        agg_ints.update(ints)
        agg_offs.update(offs)
        agg_strs.extend(strs)
        if len(variables) == 1:
            single.append((variables[0], formula))
            continue
        position = len(active)
        active.append(formula)
        cvars.append(frozenset(variables))
        for name in variables:
            raw_watch.setdefault(name, []).append(position)

    return CompiledSkeleton(
        parent=parent,
        fixed=fixed,
        residual=tuple(search._residual_units) if not unsat else (),
        rest=tuple(rest),
        unsat=unsat,
        touched=frozenset(search._touched),
        members=members,
        decl_index=trivial.decl_index,
        reps=frozenset(live),
        var_index={name: tuple(idx) for name, idx in raw_index.items()},
        var_names=frozenset(raw_index),
        active=tuple(active),
        single=tuple(single),
        cvars=tuple(cvars),
        name_watch={name: tuple(idx) for name, idx in raw_watch.items()},
        agg=(frozenset(agg_ints), frozenset(agg_offs), tuple(agg_strs)),
        pref=pref,
        compile_time=time.perf_counter() - start,
    )
